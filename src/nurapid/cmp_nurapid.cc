#include "nurapid/cmp_nurapid.hh"

#include <algorithm>

#include "common/bytes.hh"
#include "common/flat_map.hh"
#include "common/logging.hh"
#include "obs/trace_sink.hh"

namespace cnsim
{

namespace
{
/** Sentinel pin value matching no block. */
constexpr Addr no_pin = static_cast<Addr>(-1);
} // namespace

CmpNurapid::CmpNurapid(const NurapidParams &p, Interconnect &bus,
                       MainMemory &mem)
    : params(p), bus(bus), memory(mem),
      pref(p.num_cores, p.num_dgroups, p.dgroup_latencies),
      data(p.num_dgroups,
           static_cast<unsigned>(p.dgroup_capacity / p.block_size)),
      rng(p.seed)
{
    cnsim_assert(p.num_dgroups >= p.num_cores,
                 "need at least one d-group per core");
    // Per-core data share of the total capacity, scaled by the tag
    // factor (the paper doubles the number of sets, keeping assoc).
    std::uint64_t per_core_blocks =
        p.dgroup_capacity * p.num_dgroups / p.num_cores / p.block_size;
    unsigned base_sets = static_cast<unsigned>(per_core_blocks / p.assoc);
    unsigned sets = base_sets * p.tag_factor;
    cnsim_assert(isPowerOf2(sets), "tag sets (%u) must be a power of two",
                 sets);
    tags.reserve(static_cast<std::size_t>(p.num_cores));
    tag_ports.reserve(static_cast<std::size_t>(p.num_cores));
    for (int c = 0; c < p.num_cores; ++c) {
        tags.emplace_back(sets, p.assoc, p.block_size);
        tag_ports.emplace_back(strfmt("tagPort%d", c), 1);
    }
    dgroup_ports.reserve(static_cast<std::size_t>(p.num_dgroups));
    for (int g = 0; g < p.num_dgroups; ++g)
        dgroup_ports.emplace_back(strfmt("dgroupPort%d", g), 1);
    if (!p.enable_isc && p.replication == ReplicationPolicy::Never &&
        p.enable_cr) {
        // Every worker of a sweep grid builds this config; one line of
        // modelling caveat is signal, seven identical lines are noise.
        warnOnce("cr-replication-never",
                 "CR with replication=Never: shared blocks are never "
                 "copied close to readers");
    }
}

std::string
CmpNurapid::kind() const
{
    if (params.enable_cr && params.enable_isc)
        return "nurapid";
    if (params.enable_cr)
        return "nurapid-cr";
    if (params.enable_isc)
        return "nurapid-isc";
    return "nurapid-none";
}

void
CmpNurapid::emitTrans(Tick t, CoreId core, Addr addr, CohState olds,
                      CohState news, obs::TransCause cause,
                      std::uint64_t flags)
{
    if (sink && (olds != news || flags))
        sink->transition(t, core_tracks[core], core, addr, olds, news,
                         cause, flags);
}

void
CmpNurapid::emitDGroup(Tick t, CoreId core, Addr addr, obs::DGroupOp op,
                       DGroupId dg, bool closest)
{
    if (sink)
        sink->dgroupOp(t, dg_tracks[dg], core, addr, op, dg, closest);
}

Tick
CmpNurapid::accessDGroup(CoreId core, DGroupId dg, Tick at)
{
    n_xbar_accesses.inc();
    Tick start = dgroup_ports[dg].acquire(at, params.dgroup_occupancy);
    return start + pref.latency(core, dg);
}

TagPos
CmpNurapid::posOf(CoreId core, const TagEntry *e) const
{
    return TagPos{core, static_cast<int>(tags[core].setOf(e)),
                  static_cast<int>(tags[core].wayOf(e))};
}

TagEntry &
CmpNurapid::tagAt(const TagPos &pos)
{
    return tags[pos.core].at(pos.set, pos.way);
}

const TagEntry &
CmpNurapid::tagAt(const TagPos &pos) const
{
    return tags[pos.core].at(pos.set, pos.way);
}

CmpNurapid::SnoopResult
CmpNurapid::snoop(CoreId requestor, Addr addr) const
{
    SnoopResult sr;
    std::uint64_t peers = bus.snoopPeers(addr, params.num_cores, requestor);
    forEachCore(peers, [&](CoreId o) {
        const TagEntry *te = tags[o].find(addr);
        if (!te)
            return;
        if (isDirty(te->state)) {
            // The dirty signal: an M or C copy exists. The dirty
            // responder's pointer wins over any clean one.
            sr.dirty = true;
            sr.supplier = o;
            sr.supplier_fwd = te->fwd;
        } else {
            sr.clean = true;
            if (!sr.dirty) {
                sr.supplier = o;
                sr.supplier_fwd = te->fwd;
            }
        }
    });
    return sr;
}

std::vector<FwdPtr>
CmpNurapid::framesOf(Addr addr) const
{
    std::vector<FwdPtr> out;
    forEachCore(bus.snoopPeers(addr, params.num_cores), [&](CoreId c) {
        const TagEntry *te = tags[c].find(addr);
        if (te && te->fwd.valid() &&
            std::find(out.begin(), out.end(), te->fwd) == out.end()) {
            out.push_back(te->fwd);
        }
    });
    return out;
}

int
CmpNurapid::framesHolding(Addr addr) const
{
    return data.holding(blockAlign(addr, params.block_size));
}

AccessResult
CmpNurapid::countHit(CoreId core, Addr addr, DGroupId dg, Tick td)
{
    bool closest = dg == pref.closest(core);
    emitDGroup(td, core, addr, obs::DGroupOp::Hit, dg, closest);
    record(AccessClass::Hit);
    (closest ? n_closest_hits : n_farther_hits).inc();
    AccessResult res;
    res.complete = td;
    res.cls = AccessClass::Hit;
    return res;
}

void
CmpNurapid::dropTag(CoreId core, TagEntry *e, obs::TransCause cause, Tick t)
{
    Addr addr = e->addr;
    emitTrans(t, core, addr, e->state, CohState::Invalid, cause);
    tags[core].invalidate(e);
    e->state = CohState::Invalid;
    invalidateL1(core, addr);
    // Snoop-driven invalidations are silent on a bus but would strand
    // this core's sharer bit in a directory.
    if (bus.wantsEvictionNotices())
        bus.postedTransaction(BusCmd::DirPut, core, addr, t);
}

void
CmpNurapid::invalidatePeers(CoreId core, Addr addr, obs::TransCause cause,
                            Tick t)
{
    std::vector<FwdPtr> old = framesOf(addr);
    forEachCore(bus.snoopPeers(addr, params.num_cores, core), [&](CoreId o) {
        if (TagEntry *te = tags[o].find(addr))
            dropTag(o, te, cause, t);
    });
    for (const FwdPtr &f : old)
        data.free(f.dgroup, f.frame);
}

void
CmpNurapid::writeBack(Tick at)
{
    memory.writeback(at);
    bus.postedTransaction(BusCmd::WrBack, at);
    n_writebacks.inc();
}

void
CmpNurapid::evictSharedFrame(const FwdPtr &fwd, Tick at)
{
    const Frame &f = data.at(fwd.dgroup, fwd.frame);
    cnsim_assert(f.valid, "evicting an invalid shared frame");
    Addr addr = f.addr;
    const TagEntry &home = tagAt(f.rev);
    cnsim_assert(home.valid && home.addr == addr,
                 "dangling reverse pointer on shared eviction");
    if (home.state == CohState::Communication)
        writeBack(at);
    // BusRepl: every tag copy pointing at this frame drops its entry
    // (sharers that hold their own replica keep it -- their forward
    // pointer differs). BusRepl itself must not clear directory
    // membership, so each dropped copy reports its own departure.
    bus.postedTransaction(BusCmd::BusRepl, at);
    n_bus_repl.inc();
    forEachCore(bus.snoopPeers(addr, params.num_cores), [&](CoreId c) {
        TagEntry *te = tags[c].find(addr);
        if (te && te->fwd == fwd)
            dropTag(c, te, obs::TransCause::BusRepl, at);
    });
    emitDGroup(at, f.rev.core, addr, obs::DGroupOp::Eviction, fwd.dgroup);
    data.free(fwd.dgroup, fwd.frame);
    n_shared_evictions.inc();
}

void
CmpNurapid::evictPrivateBlock(TagEntry *e, CoreId core, Tick at)
{
    cnsim_assert(isPrivateState(e->state), "not a private block");
    if (e->state == CohState::Modified) {
        memory.writeback(at);
        bus.postedTransaction(BusCmd::WrBack, core, e->addr, at);
        n_writebacks.inc();
    } else if (bus.wantsEvictionNotices()) {
        bus.postedTransaction(BusCmd::DirPut, core, e->addr, at);
    }
    emitTrans(at, core, e->addr, e->state, CohState::Invalid,
              obs::TransCause::Replacement);
    emitDGroup(at, core, e->addr, obs::DGroupOp::Eviction, e->fwd.dgroup);
    data.free(e->fwd.dgroup, e->fwd.frame);
    invalidateL1(core, e->addr);
    tags[core].invalidate(e);
    e->state = CohState::Invalid;
    n_private_evictions.inc();
}

int
CmpNurapid::makeFrameAvailable(CoreId core, int start_rank, int stop_rank)
{
    const auto &order = pref.order(core);
    DGroupId dg = order[start_rank];
    if (data.hasFree(dg))
        return data.allocate(dg);

    // Random victim selection (LRU over thousands of frames would need
    // O(n^2) hardware, Section 3.3.2), but biased away from shared
    // frames: evicting them costs BusRepl invalidations at every
    // sharer, and the paper explicitly "decreases the possibility of a
    // shared block being replaced" (Section 3.1). Sample a few
    // candidates and take the first private one.
    int vidx = invalid_id;
    for (int attempt = 0; attempt < 4; ++attempt) {
        int cand = data.randomVictim(dg, rng, pinned_addr);
        if (cand == invalid_id)
            break;
        if (vidx == invalid_id)
            vidx = cand;
        if (isPrivateState(tagAt(data.at(dg, cand).rev).state)) {
            vidx = cand;
            break;
        }
    }
    cnsim_assert(vidx != invalid_id,
                 "d-group %d has no eligible distance victim", dg);
    const Frame &f = data.at(dg, vidx);
    TagEntry &rev = tagAt(f.rev);
    cnsim_assert(rev.valid && rev.addr == f.addr &&
                     rev.fwd == (FwdPtr{dg, vidx}),
                 "reverse pointer inconsistency in d-group %d", dg);

    if (isSharedState(rev.state)) {
        // Shared blocks are evicted, never demoted: a demoted shared
        // copy would leave a dangling reverse pointer when a sharer
        // re-replicates (paper Section 3.3.2).
        evictSharedFrame(FwdPtr{dg, vidx}, op_tick);
    } else if (start_rank >= stop_rank ||
               start_rank + 1 >= pref.numDGroups()) {
        // The demotion chain stops here; the victim leaves the cache.
        evictPrivateBlock(&rev, f.rev.core, op_tick);
        n_chain_stop_evictions.inc();
    } else {
        // Demote the victim one hop down the preference order.
        int tgt = makeFrameAvailable(core, start_rank + 1, stop_rank);
        DGroupId tdg = order[start_rank + 1];
        data.fill(tdg, tgt, f.addr, f.rev);
        rev.fwd = FwdPtr{tdg, tgt};
        emitDGroup(op_tick, f.rev.core, f.addr, obs::DGroupOp::Demotion, tdg);
        data.free(dg, vidx);
        n_demotions.inc();
    }
    return data.allocate(dg);
}

FwdPtr
CmpNurapid::placeInClosest(CoreId core, int specific_stop_dg)
{
    int stop_rank;
    if (specific_stop_dg != invalid_id) {
        stop_rank = pref.rankOf(core, specific_stop_dg);
    } else if (pref.numDGroups() > 1) {
        // Non-specific distance replacement: stop at a random d-group
        // to break the demotion cycle (paper Section 3.3.2).
        stop_rank = static_cast<int>(
            rng.range(1, static_cast<std::uint32_t>(pref.numDGroups() - 1)));
    } else {
        stop_rank = 0;
    }
    int idx = makeFrameAvailable(core, 0, stop_rank);
    return FwdPtr{pref.closest(core), idx};
}

FwdPtr
CmpNurapid::placeAndFill(CoreId core, TagEntry *e, DGroupId stop_dg)
{
    FwdPtr nf = placeInClosest(core, stop_dg);
    data.fill(nf.dgroup, nf.frame, e->addr, posOf(core, e));
    e->fwd = nf;
    return nf;
}

TagEntry *
CmpNurapid::allocTagEntry(CoreId core, Addr addr, Tick at,
                          DGroupId *freed_dg)
{
    *freed_dg = invalid_id;
    TagEntry *v = tags[core].victim(addr, tagRank);
    if (v->valid) {
        if (isPrivateState(v->state)) {
            *freed_dg = v->fwd.dgroup;
            evictPrivateBlock(v, core, at);
        } else if (data.at(v->fwd.dgroup, v->fwd.frame).rev ==
                   posOf(core, v)) {
            // We are the home of this shared copy: the data leaves
            // with us, and BusRepl tells the other sharers.
            *freed_dg = v->fwd.dgroup;
            evictSharedFrame(v->fwd, at);
        } else {
            // Only our tag copy goes; the data stays for the sharer
            // that owns it.
            dropTag(core, v, obs::TransCause::Replacement, at);
        }
    }
    tags[core].setTag(v, blockAlign(addr, params.block_size));
    v->state = CohState::Invalid;
    v->fwd = FwdPtr{};
    tags[core].touch(v);
    return v;
}

void
CmpNurapid::maybePromote(CoreId core, TagEntry *e, Tick at)
{
    if (params.promotion == PromotionPolicy::None)
        return;
    if (!isPrivateState(e->state))
        return;
    DGroupId cur = e->fwd.dgroup;
    if (cur == pref.closest(core))
        return;
    int cur_rank = pref.rankOf(core, cur);
    int target_rank =
        params.promotion == PromotionPolicy::Fastest ? 0 : cur_rank - 1;

    // Free the old frame first so the demotion chain can terminate in
    // the slot being vacated (specific-stop distance replacement).
    data.free(e->fwd.dgroup, e->fwd.frame);
    int idx = makeFrameAvailable(core, target_rank, cur_rank);
    DGroupId tdg = pref.order(core)[target_rank];
    data.fill(tdg, idx, e->addr, posOf(core, e));
    e->fwd = FwdPtr{tdg, idx};
    emitDGroup(at, core, e->addr, obs::DGroupOp::Promotion, tdg,
               tdg == pref.closest(core));
    n_promotions.inc();
}

void
CmpNurapid::repointAllSharers(Addr addr, const FwdPtr &fwd,
                              CoreId except_l1, bool invalidate_l1,
                              obs::TransCause cause, Tick t)
{
    auto repoint = [&](int c) {
        TagEntry *te = tags[c].find(addr);
        if (!te)
            return;
        emitTrans(t, c, addr, te->state, CohState::Communication, cause);
        te->state = CohState::Communication;
        te->fwd = fwd;
        if (c == except_l1) {
            // The initiator's own L1 copy survives but becomes
            // write-through (C blocks are write-through in L1).
            downgradeL1(c, addr, true);
        } else if (invalidate_l1) {
            invalidateL1(c, addr);
        } else {
            downgradeL1(c, addr, true);
        }
    };
    // Existing sharers (the old owner included) move to C first and
    // the initiator joins last, so an auditor watching the transition
    // stream never sees a joined C copy coexist with a private one.
    forEachCore(bus.snoopPeers(addr, params.num_cores, except_l1), repoint);
    repoint(except_l1);
}

void
CmpNurapid::freeOtherFrames(Addr addr, const FwdPtr &keep)
{
    for (const FwdPtr &f : framesOf(addr)) {
        if (!(f == keep))
            data.free(f.dgroup, f.frame);
    }
}

Tick
CmpNurapid::joinOrReplicate(CoreId core, TagEntry *e, const FwdPtr &src,
                            DGroupId freed_dg, Tick tb)
{
    Tick tr = accessDGroup(core, src.dgroup, tb);
    if (params.enable_cr &&
        params.replication != ReplicationPolicy::OnFirstUse) {
        // Controlled replication returns a pointer on the pointer wires
        // instead of the data block: a tag copy but no data copy
        // (Figure 3b).
        e->fwd = src;
        emitDGroup(tr, core, e->addr, obs::DGroupOp::PointerJoin, src.dgroup,
                   src.dgroup == pref.closest(core));
        n_pointer_joins.inc();
    } else {
        // Uncontrolled replication (private-cache behaviour).
        FwdPtr nf = placeAndFill(core, e, freed_dg);
        emitDGroup(tr, core, e->addr, obs::DGroupOp::Replication, nf.dgroup,
                   true);
        n_replications.inc();
    }
    e->state = CohState::Shared;
    emitTrans(tr, core, e->addr, CohState::Invalid, CohState::Shared,
              obs::TransCause::Fill);
    return tr;
}

AccessResult
CmpNurapid::access(const MemAccess &acc, Tick at)
{
    CoreId c = acc.core;
    Addr baddr = blockAlign(acc.addr, params.block_size);
    bool store = acc.op == MemOp::Store;
    pinned_addr = baddr;
    op_tick = at;

    Tick grant = tag_ports[c].acquire(at, params.tag_occupancy);
    Tick t = grant + params.tag_latency;

    AccessResult res;

    if (TagEntry *e = tags[c].find(baddr)) {
        tags[c].touch(e);
        switch (e->state) {
          case CohState::Exclusive:
          case CohState::Modified: {
            Tick td = accessDGroup(c, e->fwd.dgroup, t);
            if (store) {
                emitTrans(td, c, baddr, e->state, CohState::Modified,
                          obs::TransCause::PrWr);
                e->state = CohState::Modified;
            }
            res = countHit(c, baddr, e->fwd.dgroup, td);
            res.l1Owned = true;
            maybePromote(c, e, td);
            break;
          }
          case CohState::Shared:
            if (!store) {
                DGroupId dg = e->fwd.dgroup;
                bool remote = dg != pref.closest(c);
                Tick td = accessDGroup(c, dg, t);
                if (remote && params.enable_cr &&
                    params.replication == ReplicationPolicy::OnSecondUse) {
                    // Controlled replication, step 2: the block proved
                    // its reuse, so replicate it into our closest
                    // d-group (Figure 3c).
                    FwdPtr old = e->fwd;
                    bool was_home =
                        data.at(old.dgroup, old.frame).rev == posOf(c, e);
                    FwdPtr nf = placeAndFill(c, e, invalid_id);
                    emitDGroup(td, c, baddr, obs::DGroupOp::Replication,
                               nf.dgroup, true);
                    n_replications.inc();
                    if (was_home) {
                        // We owned the old frame (the block demoted
                        // while still private, then became shared).
                        // Leaving it would dangle its reverse pointer
                        // -- the Section-3.3.2 hazard -- so replace it,
                        // letting BusRepl clean up other pointers.
                        evictSharedFrame(old, op_tick);
                    }
                }
                res = countHit(c, baddr, dg, td);
            } else {
                // Write to a clean shared block: BusUpg.
                Tick tb = bus.transaction(BusCmd::BusUpg, c, baddr, t);
                bool others = false;
                forEachCore(bus.snoopPeers(baddr, params.num_cores, c),
                            [&](CoreId o) {
                                others = others || tags[o].find(baddr);
                            });
                if (others && params.enable_isc) {
                    // In-situ communication: one dirty copy (ours),
                    // every sharer joins C pointing at it.
                    FwdPtr keep = e->fwd;
                    freeOtherFrames(baddr, keep);
                    repointAllSharers(baddr, keep, c, true,
                                      obs::TransCause::BusUpg, tb);
                    Tick td = accessDGroup(c, keep.dgroup, tb);
                    res = countHit(c, baddr, keep.dgroup, td);
                    res.l1WriteThrough = true;
                } else {
                    // MESI-style upgrade (no other sharers, or ISC
                    // disabled): we become the sole M copy in our
                    // closest d-group.
                    invalidatePeers(c, baddr, obs::TransCause::BusUpg, tb);
                    FwdPtr nf = placeAndFill(c, e, invalid_id);
                    emitTrans(tb, c, baddr, e->state, CohState::Modified,
                              obs::TransCause::PrWr);
                    e->state = CohState::Modified;
                    Tick td = accessDGroup(c, nf.dgroup, tb);
                    res = countHit(c, baddr, nf.dgroup, td);
                    res.l1Owned = true;
                }
            }
            break;
          case CohState::Communication: {
            cnsim_assert(params.enable_isc, "C state with ISC disabled");
            Tick ta = t;
            if (store) {
                // Every write to a C block broadcasts BusRdX so the
                // other sharers drop stale L1 copies; the L2 state does
                // not change (no exits from C).
                ta = bus.transaction(BusCmd::BusRdX, c, baddr, t);
                n_c_writes.inc();
                emitTrans(ta, c, baddr, CohState::Communication,
                          CohState::Communication, obs::TransCause::PrWr,
                          obs::trans_flag_broadcast);
                forEachCore(bus.snoopPeers(baddr, params.num_cores, c),
                            [&](CoreId o) {
                                if (tags[o].find(baddr))
                                    invalidateL1(o, baddr);
                            });
            }
            Tick td = accessDGroup(c, e->fwd.dgroup, ta);
            res = countHit(c, baddr, e->fwd.dgroup, td);
            res.l1WriteThrough = true;
            break;
          }
          case CohState::Invalid:
            panic("valid tag entry in state I");
        }
        pinned_addr = no_pin;
        return res;
    }

    // ---- Tag miss: broadcast on the bus and snoop. ----
    BusCmd cmd = store ? BusCmd::BusRdX : BusCmd::BusRd;
    Tick tb = bus.transaction(cmd, c, baddr, t);
    SnoopResult sr = snoop(c, baddr);
    AccessClass cls = sr.dirty ? AccessClass::RWSMiss
                      : sr.clean ? AccessClass::ROSMiss
                      : AccessClass::CapacityMiss;

    DGroupId freed_dg = invalid_id;
    TagEntry *e = allocTagEntry(c, baddr, tb, &freed_dg);

    if (!sr.dirty && !sr.clean) {
        // Off-chip: fill from memory into our closest d-group, E on a
        // read and M on a write.
        Tick tm = memory.read(tb);
        placeAndFill(c, e, freed_dg);
        CohState news = store ? CohState::Modified : CohState::Exclusive;
        e->state = news;
        emitTrans(tm, c, baddr, CohState::Invalid, news,
                  obs::TransCause::Fill);
        res.complete = tm;
        res.l1Owned = store;
    } else if (sr.dirty && params.enable_isc && !store) {
        // ISC join on a read miss: the reader gets a copy in its
        // closest d-group, the previous dirty frame is freed, and every
        // sharer (old owner included) enters C pointing at the new copy.
        FwdPtr old = sr.supplier_fwd;
        Tick tr = accessDGroup(c, old.dgroup, tb);
        n_isc_joins.inc();
        if (old.dgroup == pref.closest(c)) {
            // Already as close as it gets: join in place. The repoint
            // moves our fresh Invalid tag (and every sharer) to C, so no
            // state pre-assignment here.
            repointAllSharers(baddr, old, c, false, obs::TransCause::BusRd,
                              tr);
            emitDGroup(tr, c, baddr, obs::DGroupOp::PointerJoin, old.dgroup,
                       true);
        } else {
            FwdPtr nf = placeAndFill(c, e, freed_dg);
            freeOtherFrames(baddr, nf);
            repointAllSharers(baddr, nf, c, false, obs::TransCause::BusRd,
                              tr);
            emitDGroup(tr, c, baddr, obs::DGroupOp::Migration, nf.dgroup,
                       true);
        }
        res.complete = tr;
        res.l1WriteThrough = true;
    } else if (sr.dirty && params.enable_isc) {
        // ISC join on a write miss: the writer does *not* copy; it joins
        // C pointing at the existing copy, which stays close to the
        // reader(s) (Section 3.2).
        FwdPtr keep = sr.supplier_fwd;
        repointAllSharers(baddr, keep, c, true, obs::TransCause::BusRdX, tb);
        Tick tw = accessDGroup(c, keep.dgroup, tb);
        emitDGroup(tw, c, baddr, obs::DGroupOp::PointerJoin, keep.dgroup,
                   keep.dgroup == pref.closest(c));
        n_isc_joins.inc();
        res.complete = tw;
        res.l1WriteThrough = true;
    } else if (store) {
        // MESI write miss with on-chip copies: invalidate them all and
        // take the block M into our closest d-group.
        Tick tr = accessDGroup(c, sr.supplier_fwd.dgroup, tb);
        if (sr.dirty)
            writeBack(tb);
        invalidatePeers(c, baddr, obs::TransCause::BusRdX, tb);
        placeAndFill(c, e, freed_dg);
        e->state = CohState::Modified;
        emitTrans(tr, c, baddr, CohState::Invalid, CohState::Modified,
                  obs::TransCause::Fill);
        res.complete = tr;
        res.l1Owned = true;
    } else if (sr.dirty) {
        // ISC disabled: MESI flush. The owner writes back and drops to
        // S, keeping its frame; we then join or copy it as a clean
        // shared block.
        TagEntry *owner = tags[sr.supplier].find(baddr);
        cnsim_assert(owner && owner->state == CohState::Modified,
                     "dirty snoop without an M owner (ISC off)");
        writeBack(tb);
        emitTrans(tb, sr.supplier, baddr, owner->state, CohState::Shared,
                  obs::TransCause::BusRd);
        owner->state = CohState::Shared;
        downgradeL1(sr.supplier, baddr, false);
        res.complete = joinOrReplicate(c, e, owner->fwd, freed_dg, tb);
    } else {
        // Clean copy on chip: every E copy drops to S, and we join or
        // copy it.
        forEachCore(bus.snoopPeers(baddr, params.num_cores, c),
                    [&](CoreId o) {
                        TagEntry *te = tags[o].find(baddr);
                        if (te && te->state == CohState::Exclusive) {
                            emitTrans(tb, o, baddr, CohState::Exclusive,
                                      CohState::Shared,
                                      obs::TransCause::BusRd);
                            te->state = CohState::Shared;
                        }
                    });
        res.complete = joinOrReplicate(c, e, sr.supplier_fwd, freed_dg, tb);
    }

    record(cls);
    res.cls = cls;
    pinned_addr = no_pin;
    return res;
}

CohState
CmpNurapid::stateOf(CoreId core, Addr addr) const
{
    const TagEntry *e = tags[core].find(addr);
    return e ? e->state : CohState::Invalid;
}

FwdPtr
CmpNurapid::fwdOf(CoreId core, Addr addr) const
{
    const TagEntry *e = tags[core].find(addr);
    return e ? e->fwd : FwdPtr{};
}

double
CmpNurapid::closestHitFraction() const
{
    std::uint64_t tot = n_closest_hits.value() + n_farther_hits.value();
    return tot ? static_cast<double>(n_closest_hits.value()) / tot : 0.0;
}

void
CmpNurapid::checkInvariants() const
{
    // 1. Every valid tag's forward pointer names a valid frame holding
    //    the same block.
    for (int c = 0; c < params.num_cores; ++c) {
        for (const auto &e : tags[c].raw()) {
            if (!e.valid)
                continue;
            cnsim_assert(isValid(e.state), "valid tag in state I");
            cnsim_assert(e.fwd.valid(), "valid tag without forward ptr");
            const Frame &f = data.at(e.fwd.dgroup, e.fwd.frame);
            cnsim_assert(f.valid && f.addr == e.addr,
                         "forward pointer of %llx dangles",
                         static_cast<unsigned long long>(e.addr));
        }
    }
    // 2. Every valid frame's reverse pointer names a valid tag of the
    //    same block whose forward pointer points straight back.
    for (int g = 0; g < data.numDGroups(); ++g) {
        const auto &fr = data.dgroup(g);
        for (int i = 0; i < static_cast<int>(fr.size()); ++i) {
            const Frame &f = fr[i];
            if (!f.valid)
                continue;
            cnsim_assert(f.rev.valid(), "frame without reverse pointer");
            const TagEntry &te = tagAt(f.rev);
            cnsim_assert(te.valid && te.addr == f.addr,
                         "reverse pointer of dg%d frame %d dangles", g, i);
            cnsim_assert(te.fwd == (FwdPtr{g, i}),
                         "reverse/forward pointer mismatch dg%d frame %d",
                         g, i);
        }
    }
    // 3. State agreement per block: E/M blocks have exactly one tag
    //    copy and one frame; dirty blocks have exactly one frame; a
    //    block's tag copies are either all S or all C. Aggregated in
    //    one linear pass over tags and frames -- the per-entry
    //    cross-product (N tags x M frames) dominated whole runs.
    struct BlockAgg
    {
        int tag_copies = 0;
        int s_copies = 0;
        int c_copies = 0;
        int priv_copies = 0;
        int frames = 0;
        bool dirty = false;
    };
    FlatMap<Addr, BlockAgg> agg;
    for (int c = 0; c < params.num_cores; ++c) {
        for (const auto &e : tags[c].raw()) {
            if (!e.valid)
                continue;
            BlockAgg &a = agg[e.addr];
            ++a.tag_copies;
            a.s_copies += e.state == CohState::Shared;
            a.c_copies += e.state == CohState::Communication;
            a.priv_copies += isPrivateState(e.state);
            a.dirty |= isDirty(e.state);
        }
    }
    for (int g = 0; g < data.numDGroups(); ++g) {
        for (const Frame &f : data.dgroup(g)) {
            if (!f.valid)
                continue;
            if (BlockAgg *a = agg.find(f.addr))
                ++a->frames;
        }
    }
    agg.forEach([](Addr addr, const BlockAgg &a) {
        if (a.priv_copies) {
            cnsim_assert(a.tag_copies == 1,
                         "E/M block %llx has %d tag copies",
                         static_cast<unsigned long long>(addr),
                         a.tag_copies);
        } else {
            cnsim_assert(a.s_copies + a.c_copies == a.tag_copies &&
                             (a.s_copies == 0 || a.c_copies == 0),
                         "mixed S/C copies of %llx",
                         static_cast<unsigned long long>(addr));
        }
        if (a.dirty) {
            cnsim_assert(a.frames == 1,
                         "dirty block %llx has %d frames",
                         static_cast<unsigned long long>(addr),
                         a.frames);
        }
    });
    // 4. The per-block frame count behind checkBlockInvariants agrees
    //    with a recount of the frames.
    data.checkHolding();
}

void
CmpNurapid::checkBlockInvariants(Addr addr) const
{
    // The per-block slice of checkInvariants(), cheap enough to run
    // after every access under --audit: pointer agreement and MESIC
    // state rules for one block.
    Addr baddr = blockAlign(addr, params.block_size);
    std::uint64_t targets = bus.snoopTargets(baddr);
    int tag_copies = 0;
    int s_copies = 0;
    int c_copies = 0;
    int priv_copies = 0;
    bool dirty = false;
    for (int c = 0; c < params.num_cores; ++c) {
        const TagEntry *te = tags[c].find(baddr);
        if (!te)
            continue;
        ++tag_copies;
        cnsim_assert(isValid(te->state), "valid tag of %llx in state I",
                     static_cast<unsigned long long>(baddr));
        cnsim_assert(targets >> c & 1,
                     "core%d holds %llx outside snoopTargets", c,
                     static_cast<unsigned long long>(baddr));
        cnsim_assert(te->fwd.valid(), "valid tag of %llx without fwd ptr",
                     static_cast<unsigned long long>(baddr));
        const Frame &f = data.at(te->fwd.dgroup, te->fwd.frame);
        cnsim_assert(f.valid && f.addr == baddr,
                     "forward pointer of %llx dangles",
                     static_cast<unsigned long long>(baddr));
        const TagEntry &home = tagAt(f.rev);
        cnsim_assert(home.valid && home.addr == baddr &&
                         home.fwd == te->fwd,
                     "reverse pointer of %llx disagrees with its frame",
                     static_cast<unsigned long long>(baddr));
        s_copies += te->state == CohState::Shared;
        c_copies += te->state == CohState::Communication;
        priv_copies += isPrivateState(te->state) ? 1 : 0;
        dirty = dirty || isDirty(te->state);
    }
    if (tag_copies == 0)
        return;
    if (priv_copies > 0) {
        cnsim_assert(tag_copies == 1, "E/M block %llx has %d tag copies",
                     static_cast<unsigned long long>(baddr), tag_copies);
    } else {
        cnsim_assert(s_copies + c_copies == tag_copies &&
                         (s_copies == 0 || c_copies == 0),
                     "mixed S/C copies of %llx",
                     static_cast<unsigned long long>(baddr));
    }
    if (dirty) {
        // Counted over every frame, not through the tags' forward
        // pointers, so a leaked frame no tag points at is caught too.
        int frames = data.holding(baddr);
        cnsim_assert(frames == 1, "dirty block %llx has %d frames",
                     static_cast<unsigned long long>(baddr), frames);
    }
}

void
CmpNurapid::setTraceSink(obs::TraceSink *s)
{
    L2Org::setTraceSink(s);
    core_tracks.clear();
    dg_tracks.clear();
    if (!s)
        return;
    std::string k = kind();
    for (int c = 0; c < params.num_cores; ++c) {
        core_tracks.push_back(
            s->registerComponent(strfmt("l2.%s.core%d.tag", k.c_str(), c)));
        tag_ports[c].attachSink(
            s, strfmt("l2.%s.core%d.tagPort", k.c_str(), c));
    }
    for (int g = 0; g < params.num_dgroups; ++g)
        dg_tracks.push_back(
            s->registerComponent(strfmt("l2.%s.dg%d", k.c_str(), g)));
    for (int g = 0; g < params.num_dgroups; ++g)
        dgroup_ports[g].attachSink(s, strfmt("l2.xbar.dg%d", g));
}

void
CmpNurapid::regStats(StatGroup &group)
{
    L2Org::regStats(group);
    group.addCounter("l2.closestHits", &n_closest_hits,
                     "hits serviced by the requestor's closest d-group");
    group.addCounter("l2.fartherHits", &n_farther_hits,
                     "hits serviced by a farther d-group");
    group.addCounter("l2.demotions", &n_demotions,
                     "distance-replacement demotions");
    group.addCounter("l2.promotions", &n_promotions,
                     "private-block promotions");
    group.addCounter("l2.replications", &n_replications,
                     "CR data replicas created");
    group.addCounter("l2.pointerJoins", &n_pointer_joins,
                     "CR pointer-only fills (no data copy)");
    group.addCounter("l2.iscJoins", &n_isc_joins,
                     "ISC C-state joins");
    group.addCounter("l2.busRepl", &n_bus_repl,
                     "BusRepl shared-data replacement notifications");
    group.addCounter("l2.sharedEvictions", &n_shared_evictions,
                     "shared data copies evicted");
    group.addCounter("l2.writebacks", &n_writebacks,
                     "dirty blocks written back");
    group.addCounter("l2.cWrites", &n_c_writes,
                     "writes to C-state blocks (BusRdX broadcasts)");
    group.addCounter("l2.privateEvictions", &n_private_evictions,
                     "private (E/M) blocks evicted from the cache");
    group.addCounter("l2.chainStopEvictions", &n_chain_stop_evictions,
                     "evictions forced by demotion-chain termination");
    for (Resource &p : tag_ports)
        p.regStats(group);
    group.addCounter("xbar.accesses", &n_xbar_accesses,
                     "crossbar traversals");
    for (Resource &p : dgroup_ports)
        p.regStats(group);
}

void
CmpNurapid::resetStats()
{
    L2Org::resetStats();
    n_closest_hits.reset();
    n_farther_hits.reset();
    n_demotions.reset();
    n_promotions.reset();
    n_replications.reset();
    n_pointer_joins.reset();
    n_isc_joins.reset();
    n_bus_repl.reset();
    n_shared_evictions.reset();
    n_writebacks.reset();
    n_c_writes.reset();
    n_private_evictions.reset();
    n_chain_stop_evictions.reset();
    n_xbar_accesses.reset();
    for (Resource &p : tag_ports)
        p.reset();
    for (Resource &p : dgroup_ports)
        p.reset();
}

void
CmpNurapid::saveTag(ByteWriter &w, const TagEntry &e)
{
    w.u64(e.addr);
    w.u8(static_cast<std::uint8_t>(e.valid ? 1 : 0));
    w.u8(static_cast<std::uint8_t>(e.state));
    w.u32(static_cast<std::uint32_t>(e.fwd.dgroup));
    w.u32(static_cast<std::uint32_t>(e.fwd.frame));
}

void
CmpNurapid::loadTag(ByteReader &r, TagEntry &e) const
{
    e.addr = r.u64();
    e.valid = r.u8() & 1;
    std::uint8_t state = r.u8();
    if (state > static_cast<std::uint8_t>(CohState::Communication))
        r.fail("NuRAPID tag state %u is not I, S, E, M or C",
               unsigned{state});
    e.state = static_cast<CohState>(state);
    e.fwd.dgroup = static_cast<DGroupId>(static_cast<std::int32_t>(r.u32()));
    e.fwd.frame = static_cast<int>(static_cast<std::int32_t>(r.u32()));
    // A valid tag's forward pointer indexes the data array unchecked;
    // an invalid one's is never read.
    unsigned frames = data.framesPerDGroup();
    if (e.valid &&
        (e.fwd.dgroup < 0 || e.fwd.dgroup >= data.numDGroups() ||
         e.fwd.frame < 0 || static_cast<unsigned>(e.fwd.frame) >= frames))
        r.fail("NuRAPID tag of %llx points at frame %d of d-group %d, off "
               "this run's %d d-groups x %u frames",
               static_cast<unsigned long long>(e.addr), e.fwd.frame,
               e.fwd.dgroup, data.numDGroups(), frames);
}

void
CmpNurapid::saveState(ByteWriter &w) const
{
    for (const auto &t : tags)
        t.saveState(w, saveTag);
    data.saveState(w);
    for (const Resource &p : tag_ports)
        p.saveState(w);
    for (const Resource &p : dgroup_ports)
        p.saveState(w);
    // The RNG drives random distance replacement; its position is
    // architectural state for bit-identical resume.
    w.u64(rng.stateWord());
    w.u64(rng.incWord());
    w.u64(pinned_addr);
    w.tick(op_tick);
}

void
CmpNurapid::loadState(ByteReader &r)
{
    for (auto &t : tags)
        t.loadState(r,
                    [this](ByteReader &in, TagEntry &e) { loadTag(in, e); });
    data.loadState(r, params.num_cores, tags[0].numSets(), tags[0].assoc());
    for (Resource &p : tag_ports)
        p.loadState(r);
    for (Resource &p : dgroup_ports)
        p.loadState(r);
    std::uint64_t state_word = r.u64();
    std::uint64_t inc_word = r.u64();
    rng.restoreState(state_word, inc_word);
    pinned_addr = r.u64();
    op_tick = r.tick();
}

} // namespace cnsim
