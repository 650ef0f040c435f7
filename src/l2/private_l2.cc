#include "l2/private_l2.hh"

#include "common/bytes.hh"
#include "common/logging.hh"
#include "obs/trace_sink.hh"

namespace cnsim
{

PrivateL2::PrivateL2(const PrivateL2Params &p, Interconnect &bus,
                     MainMemory &mem)
    : L2Org("privateL2"), params(p), bus(bus), memory(mem)
{
    wants_l1_hit_notes = true;
    unsigned sets = static_cast<unsigned>(
        p.capacity_per_core / (p.assoc * p.block_size));
    for (int c = 0; c < p.num_cores; ++c) {
        caches.emplace_back(sets, p.assoc, p.block_size);
        ports.emplace_back(
            std::make_unique<Resource>(strfmt("l2Port%d", c), 1));
    }
}

void
PrivateL2::emitTrans(Tick t, CoreId core, Addr addr, CohState olds,
                     CohState news, obs::TransCause cause)
{
    if (sink && olds != news)
        sink->transition(t, core_tracks[core], core, addr, olds, news,
                         cause);
}

void
PrivateL2::invalidateCopy(CoreId core, Block *b, obs::TransCause cause,
                          Tick t)
{
    if (b->fill_class == AccessClass::RWSMiss && !b->ifetch_filled)
        reuse_tracker.rwsInvalidated(b->reuses);
    emitTrans(t, core, b->addr, b->state, CohState::Invalid, cause);
    // Snoop-driven invalidations are silent on a bus but would strand
    // this core's sharer bit in a directory.
    if (bus.wantsEvictionNotices())
        bus.postedTransaction(BusCmd::DirPut, core, b->addr, t);
    caches[core].invalidate(b);
    b->state = CohState::Invalid;
    invalidateL1(core, b->addr);
}

AccessResult
PrivateL2::access(const MemAccess &acc, Tick at)
{
    CoreId c = acc.core;
    Addr baddr = blockAlign(acc.addr, params.block_size);
    Tick grant = ports[c]->acquire(at, params.occupancy);
    Tick t = grant + params.latency;

    AccessResult res;
    Block *b = caches[c].find(baddr);

    if (b) {
        caches[c].touch(b);
        ++b->reuses;
        if (acc.op != MemOp::Store || isDirty(b->state) ||
            b->state == CohState::Exclusive) {
            // Read hit in any state, or write hit with ownership.
            if (acc.op == MemOp::Store) {
                emitTrans(t, c, baddr, b->state, CohState::Modified,
                          obs::TransCause::PrWr);
                b->state = CohState::Modified;
            }
            record(AccessClass::Hit);
            res.complete = t;
            res.cls = AccessClass::Hit;
            res.l1Owned = isPrivateState(b->state);
            return res;
        }
        // Write hit on a Shared block: upgrade on the bus and
        // invalidate the other copies (a coherence *transaction*, not a
        // miss -- the data is already local).
        cnsim_assert(b->state == CohState::Shared, "bad upgrade state");
        Tick tb = bus.transaction(BusCmd::BusUpg, c, baddr, t);
        n_upgrades.inc();
        std::uint64_t peers = bus.snoopPeers(baddr, params.num_cores, c);
        forEachCore(peers, [&](CoreId o) {
            if (Block *ob = caches[o].find(baddr))
                invalidateCopy(o, ob, obs::TransCause::BusUpg, tb);
        });
        emitTrans(tb, c, baddr, b->state, CohState::Modified,
                  obs::TransCause::PrWr);
        b->state = CohState::Modified;
        record(AccessClass::Hit);
        res.complete = tb;
        res.cls = AccessClass::Hit;
        res.l1Owned = true;
        return res;
    }

    // Miss: broadcast on the bus and snoop the other caches (on a
    // directory, only the ones it names; no peer gains a copy during
    // this access, so the mask holds for every loop below).
    BusCmd cmd = acc.op == MemOp::Store ? BusCmd::BusRdX : BusCmd::BusRd;
    Tick tb = bus.transaction(cmd, c, baddr, t);
    std::uint64_t peers = bus.snoopPeers(baddr, params.num_cores, c);

    bool any_dirty = false;
    bool any_clean = false;
    CoreId supplier = invalid_id;
    forEachCore(peers, [&](CoreId o) {
        if (Block *ob = caches[o].find(baddr)) {
            if (isDirty(ob->state)) {
                any_dirty = true;
                supplier = o;
            } else {
                any_clean = true;
                if (supplier == invalid_id)
                    supplier = o;
            }
        }
    });

    AccessClass cls = any_dirty ? AccessClass::RWSMiss
                      : any_clean ? AccessClass::ROSMiss
                      : AccessClass::CapacityMiss;

    Tick data_at;
    if (supplier != invalid_id) {
        // Cache-to-cache transfer: the supplier's array is read after
        // the snoop resolves.
        n_cache_to_cache.inc();
        Tick sg = ports[supplier]->acquire(tb, params.occupancy);
        data_at = sg + params.latency;

        forEachCore(peers, [&](CoreId o) {
            Block *ob = caches[o].find(baddr);
            if (!ob)
                return;
            if (cmd == BusCmd::BusRdX) {
                invalidateCopy(o, ob, obs::TransCause::BusRdX, tb);
            } else {
                if (ob->state == CohState::Modified) {
                    // Illinois MESI: flush to memory, both sharers
                    // continue in S.
                    memory.writeback(tb);
                    bus.postedTransaction(BusCmd::WrBack, tb);
                    emitTrans(tb, o, baddr, ob->state, CohState::Shared,
                              obs::TransCause::BusRd);
                    ob->state = CohState::Shared;
                } else if (ob->state == CohState::Exclusive) {
                    emitTrans(tb, o, baddr, ob->state, CohState::Shared,
                              obs::TransCause::BusRd);
                    ob->state = CohState::Shared;
                }
                // A peer now reads this block; the old owner's L1 loses
                // silent-store rights.
                downgradeL1(o, baddr, false);
            }
        });
    } else {
        data_at = memory.read(tb);
    }

    // Insert into the requestor's cache (uncontrolled replication:
    // a full local data copy is always made).
    Block *v = caches[c].victim(baddr);
    if (v->valid) {
        if (v->fill_class == AccessClass::ROSMiss && !v->ifetch_filled)
            reuse_tracker.rosReplaced(v->reuses);
        if (v->state == CohState::Modified) {
            memory.writeback(data_at);
            bus.postedTransaction(BusCmd::WrBack, c, v->addr, data_at);
        } else if (bus.wantsEvictionNotices()) {
            // A silent clean eviction would strand this core's sharer
            // bit in the directory.
            bus.postedTransaction(BusCmd::DirPut, c, v->addr, data_at);
        }
        emitTrans(data_at, c, v->addr, v->state, CohState::Invalid,
                  obs::TransCause::Replacement);
        invalidateL1(c, v->addr);
        caches[c].invalidate(v);
    }
    CohState fill_state = acc.op == MemOp::Store ? CohState::Modified
                          : (any_dirty || any_clean)
                              ? CohState::Shared
                              : CohState::Exclusive;
    emitTrans(data_at, c, baddr, CohState::Invalid, fill_state,
              obs::TransCause::Fill);
    caches[c].setTag(v, baddr);
    v->state = fill_state;
    v->fill_class = cls;
    v->ifetch_filled = acc.op == MemOp::Ifetch;
    v->reuses = 0;
    caches[c].touch(v);

    record(cls);
    res.complete = data_at;
    res.cls = cls;
    res.l1Owned = acc.op == MemOp::Store;
    return res;
}

void
PrivateL2::noteL1Hit(CoreId core, Addr addr)
{
    // L1 hits are processor-level reuses of the resident L2 block;
    // Figure 7's reuse counts include them.
    if (Block *b = caches[core].find(addr))
        ++b->reuses;
}

CohState
PrivateL2::stateOf(CoreId core, Addr addr) const
{
    const Block *b = caches[core].find(addr);
    return b ? b->state : CohState::Invalid;
}

void
PrivateL2::checkInvariants() const
{
    // At most one dirty/exclusive copy of any block; S blocks may be
    // replicated arbitrarily.
    for (int c = 0; c < params.num_cores; ++c) {
        for (const auto &b : caches[c].raw()) {
            if (!b.valid)
                continue;
            cnsim_assert(isValid(b.state), "valid block in state I");
            if (isDirty(b.state) || b.state == CohState::Exclusive) {
                for (int o = 0; o < params.num_cores; ++o) {
                    if (o == c)
                        continue;
                    const Block *ob = caches[o].find(b.addr);
                    cnsim_assert(ob == nullptr,
                                 "E/M block %llx replicated across caches",
                                 static_cast<unsigned long long>(b.addr));
                }
            }
        }
    }
}

void
PrivateL2::checkBlockInvariants(Addr addr) const
{
    Addr baddr = blockAlign(addr, params.block_size);
    std::uint64_t targets = bus.snoopTargets(baddr);
    int valid = 0, priv = 0;
    for (int c = 0; c < params.num_cores; ++c) {
        if (const Block *b = caches[c].find(baddr)) {
            cnsim_assert(isValid(b->state), "valid block in state I");
            cnsim_assert(targets >> c & 1,
                         "core%d holds %llx outside snoopTargets", c,
                         static_cast<unsigned long long>(baddr));
            ++valid;
            priv += isPrivateState(b->state) ? 1 : 0;
        }
    }
    cnsim_assert(priv == 0 || valid == 1,
                 "E/M block %llx replicated across caches",
                 static_cast<unsigned long long>(baddr));
}

void
PrivateL2::setTraceSink(obs::TraceSink *s)
{
    L2Org::setTraceSink(s);
    core_tracks.clear();
    if (!s)
        return;
    for (int c = 0; c < params.num_cores; ++c) {
        core_tracks.push_back(
            s->registerComponent(strfmt("l2.private.core%d", c)));
        ports[c]->attachSink(s, strfmt("l2.private.core%d.port", c));
    }
}

void
PrivateL2::regStats(StatGroup &group)
{
    L2Org::regStats(group);
    group.addCounter("l2.upgrades", &n_upgrades, "S->M bus upgrades");
    group.addCounter("l2.cacheToCache", &n_cache_to_cache,
                     "cache-to-cache transfers");
    reuse_tracker.regStats(group);
    for (auto &p : ports)
        p->regStats(group);
}

void
PrivateL2::resetStats()
{
    L2Org::resetStats();
    n_upgrades.reset();
    n_cache_to_cache.reset();
    reuse_tracker.resetStats();
    for (auto &p : ports)
        p->reset();
}

std::uint64_t
PrivateL2::validBlockCount() const
{
    std::uint64_t n = 0;
    for (const auto &cache : caches)
        for (const Block &b : cache.raw())
            if (b.valid)
                ++n;
    return n;
}

void
PrivateL2::saveState(ByteWriter &w) const
{
    // Reuse-tracker distributions are epoch stats (reset at the
    // measurement boundary on both the save and restore paths), so
    // only the per-block reuse counters travel.
    for (std::size_t c = 0; c < caches.size(); ++c) {
        caches[c].saveState(w, [](ByteWriter &out, const Block &b) {
            out.u64(b.addr);
            out.u8(static_cast<std::uint8_t>(
                (b.valid ? 1 : 0) | (b.ifetch_filled ? 2 : 0)));
            out.u8(static_cast<std::uint8_t>(b.state));
            out.u8(static_cast<std::uint8_t>(b.fill_class));
            out.u32(b.reuses);
        });
        ports[c]->saveState(w);
    }
}

void
PrivateL2::loadState(ByteReader &r)
{
    for (std::size_t c = 0; c < caches.size(); ++c) {
        caches[c].loadState(r, [](ByteReader &in, Block &b) {
            b.addr = in.u64();
            std::uint8_t flags = in.u8();
            b.valid = flags & 1;
            b.ifetch_filled = flags & 2;
            b.state = static_cast<CohState>(in.u8());
            b.fill_class = static_cast<AccessClass>(in.u8());
            b.reuses = in.u32();
        });
        ports[c]->loadState(r);
    }
}

} // namespace cnsim
