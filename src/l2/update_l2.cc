#include "l2/update_l2.hh"

#include "common/bytes.hh"
#include "common/logging.hh"
#include "obs/trace_sink.hh"

namespace cnsim
{

UpdateL2::UpdateL2(const PrivateL2Params &p, Interconnect &bus,
                   MainMemory &mem)
    : L2Org("updateL2"), params(p), bus(bus), memory(mem)
{
    unsigned sets = static_cast<unsigned>(
        p.capacity_per_core / (p.assoc * p.block_size));
    for (int c = 0; c < p.num_cores; ++c) {
        caches.emplace_back(sets, p.assoc, p.block_size);
        ports.emplace_back(
            std::make_unique<Resource>(strfmt("l2Port%d", c), 1));
    }
}

AccessResult
UpdateL2::access(const MemAccess &acc, Tick at)
{
    CoreId c = acc.core;
    Addr baddr = blockAlign(acc.addr, params.block_size);
    Tick grant = ports[c]->acquire(at, params.occupancy);
    Tick t = grant + params.latency;

    AccessResult res;
    Block *b = caches[c].find(baddr);

    if (b) {
        caches[c].touch(b);
        if (acc.op != MemOp::Store) {
            // Read hit: updates keep every copy current, so no state
            // work is ever needed.
            record(AccessClass::Hit);
            res.complete = t;
            res.cls = AccessClass::Hit;
            res.l1Owned = isPrivateState(b->state);
            res.l1WriteThrough = b->state == CohState::Shared;
            return res;
        }
        if (b->state == CohState::Shared) {
            // The update-protocol tax: every write to a shared block
            // broadcasts the new data and patches the peer copies (and
            // their L1s) in place.
            Tick tb = bus.transaction(BusCmd::BusUpd, c, baddr, t);
            n_updates.inc();
            bool still_shared = false;
            std::uint64_t peers =
                bus.snoopPeers(baddr, params.num_cores, c);
            forEachCore(peers, [&](CoreId o) {
                if (Block *ob = caches[o].find(baddr)) {
                    still_shared = true;
                    ob->owner = false;
                    // Peer L1 copies now hold stale data; refreshing
                    // them in place is modelled as an invalidation of
                    // the L1 copy (next access refetches from the
                    // updated L2 copy).
                    invalidateL1(o, baddr);
                }
            });
            if (still_shared) {
                emitTrans(tb, c, baddr, CohState::Shared,
                          CohState::Shared, obs::TransCause::PrWr,
                          obs::trans_flag_broadcast);
                b->owner = true;
                record(AccessClass::Hit);
                res.complete = tb;
                res.cls = AccessClass::Hit;
                res.l1WriteThrough = true;
                return res;
            }
            // Everyone else dropped their copy: collapse to Modified
            // and stop paying for updates.
            emitTrans(tb, c, baddr, b->state, CohState::Modified,
                      obs::TransCause::PrWr);
            b->state = CohState::Modified;
            b->owner = true;
        } else {
            emitTrans(t, c, baddr, b->state, CohState::Modified,
                      obs::TransCause::PrWr);
            b->state = CohState::Modified;
            b->owner = true;
        }
        record(AccessClass::Hit);
        res.complete = t;
        res.cls = AccessClass::Hit;
        res.l1Owned = true;
        return res;
    }

    // Miss: fetch the block; with updates, peers keep their copies. No
    // peer gains a copy during this access, so the snooped mask holds
    // for every loop below.
    BusCmd cmd = acc.op == MemOp::Store ? BusCmd::BusRdX : BusCmd::BusRd;
    Tick tb = bus.transaction(cmd, c, baddr, t);
    std::uint64_t peers = bus.snoopPeers(baddr, params.num_cores, c);

    bool any_dirty = false;
    bool any_copy = false;
    CoreId supplier = invalid_id;
    forEachCore(peers, [&](CoreId o) {
        if (Block *ob = caches[o].find(baddr)) {
            any_copy = true;
            if (ob->owner || isDirty(ob->state))
                any_dirty = true;
            if (supplier == invalid_id || ob->owner)
                supplier = o;
        }
    });

    AccessClass cls = any_dirty ? AccessClass::RWSMiss
                      : any_copy ? AccessClass::ROSMiss
                      : AccessClass::CapacityMiss;

    Tick data_at;
    if (supplier != invalid_id) {
        n_cache_to_cache.inc();
        Tick sg = ports[supplier]->acquire(tb, params.occupancy);
        data_at = sg + params.latency;
    } else {
        data_at = memory.read(tb);
    }

    // Insert locally; peers transition E/M -> Shared but keep copies.
    Block *v = caches[c].victim(baddr);
    if (v->valid) {
        if (v->owner || v->state == CohState::Modified) {
            memory.writeback(data_at);
            bus.postedTransaction(BusCmd::WrBack, c, v->addr, data_at);
            // Ownership hand-off: some remaining sharer becomes owner
            // is unnecessary -- the data just went to memory.
        } else if (bus.wantsEvictionNotices()) {
            bus.postedTransaction(BusCmd::DirPut, c, v->addr, data_at);
        }
        emitTrans(data_at, c, v->addr, v->state, CohState::Invalid,
                  obs::TransCause::Replacement);
        invalidateL1(c, v->addr);
        caches[c].invalidate(v);
    }
    bool shared_now = any_copy;
    if (shared_now) {
        forEachCore(peers, [&](CoreId o) {
            Block *ob = caches[o].find(baddr);
            if (ob && isPrivateState(ob->state)) {
                emitTrans(data_at, o, baddr, ob->state, CohState::Shared,
                          cmd == BusCmd::BusRdX ? obs::TransCause::BusRdX
                                                : obs::TransCause::BusRd);
                ob->owner = ob->state == CohState::Modified;
                ob->state = CohState::Shared;
                downgradeL1(o, baddr, true);
            }
        });
    }
    CohState fill_state = shared_now ? CohState::Shared
                          : acc.op == MemOp::Store ? CohState::Modified
                                                   : CohState::Exclusive;
    emitTrans(data_at, c, baddr, CohState::Invalid, fill_state,
              obs::TransCause::Fill);
    caches[c].setTag(v, baddr);
    v->state = fill_state;
    v->owner = false;
    caches[c].touch(v);

    if (acc.op == MemOp::Store) {
        if (shared_now) {
            // The write itself updates the peers; ownership (writeback
            // responsibility) moves to the writer.
            Tick tu = bus.transaction(BusCmd::BusUpd, c, baddr, data_at);
            n_updates.inc();
            emitTrans(tu, c, baddr, CohState::Shared, CohState::Shared,
                      obs::TransCause::PrWr, obs::trans_flag_broadcast);
            forEachCore(peers, [&](CoreId o) {
                if (Block *ob = caches[o].find(baddr)) {
                    ob->owner = false;
                    invalidateL1(o, baddr);
                }
            });
            v->owner = true;
            data_at = tu;
            res.l1WriteThrough = true;
        } else {
            res.l1Owned = true;
        }
    } else {
        res.l1Owned = v->state == CohState::Exclusive;
        res.l1WriteThrough = v->state == CohState::Shared;
    }

    record(cls);
    res.complete = data_at;
    res.cls = cls;
    return res;
}

CohState
UpdateL2::stateOf(CoreId core, Addr addr) const
{
    const Block *b = caches[core].find(addr);
    return b ? b->state : CohState::Invalid;
}

bool
UpdateL2::ownerOf(CoreId core, Addr addr) const
{
    const Block *b = caches[core].find(addr);
    return b && b->owner;
}

void
UpdateL2::checkInvariants() const
{
    for (int c = 0; c < params.num_cores; ++c) {
        for (const auto &b : caches[c].raw()) {
            if (!b.valid)
                continue;
            cnsim_assert(isValid(b.state), "valid block in state I");
            int copies = 0;
            int owners = 0;
            for (int o = 0; o < params.num_cores; ++o) {
                const Block *ob = caches[o].find(b.addr);
                copies += ob != nullptr;
                owners += ob && ob->owner;
            }
            if (isPrivateState(b.state)) {
                cnsim_assert(copies == 1,
                             "E/M block %llx replicated under update",
                             static_cast<unsigned long long>(b.addr));
            }
            cnsim_assert(owners <= 1, "block %llx has %d owners",
                         static_cast<unsigned long long>(b.addr), owners);
        }
    }
}

void
UpdateL2::emitTrans(Tick t, CoreId core, Addr addr, CohState olds,
                    CohState news, obs::TransCause cause,
                    std::uint64_t flags)
{
    // Unlike MESI, the update protocol has meaningful same-state events
    // (a broadcast write leaves every copy Shared), so emit those too.
    if (sink && (olds != news || flags))
        sink->transition(t, core_tracks[core], core, addr, olds, news,
                         cause, flags);
}

void
UpdateL2::checkBlockInvariants(Addr addr) const
{
    Addr baddr = blockAlign(addr, params.block_size);
    std::uint64_t targets = bus.snoopTargets(baddr);
    int copies = 0, owners = 0, priv = 0;
    for (int o = 0; o < params.num_cores; ++o) {
        if (const Block *ob = caches[o].find(baddr)) {
            cnsim_assert(isValid(ob->state), "valid block in state I");
            cnsim_assert(targets >> o & 1,
                         "core%d holds %llx outside snoopTargets", o,
                         static_cast<unsigned long long>(baddr));
            ++copies;
            owners += ob->owner ? 1 : 0;
            priv += isPrivateState(ob->state) ? 1 : 0;
        }
    }
    cnsim_assert(priv == 0 || copies == 1,
                 "E/M block %llx replicated under update",
                 static_cast<unsigned long long>(baddr));
    cnsim_assert(owners <= 1, "block %llx has %d owners",
                 static_cast<unsigned long long>(baddr), owners);
}

void
UpdateL2::setTraceSink(obs::TraceSink *s)
{
    L2Org::setTraceSink(s);
    core_tracks.clear();
    if (!s)
        return;
    for (int c = 0; c < params.num_cores; ++c) {
        core_tracks.push_back(
            s->registerComponent(strfmt("l2.update.core%d", c)));
        ports[c]->attachSink(s, strfmt("l2.update.core%d.port", c));
    }
}

void
UpdateL2::regStats(StatGroup &group)
{
    L2Org::regStats(group);
    group.addCounter("l2.updates", &n_updates,
                     "BusUpd write-update broadcasts");
    group.addCounter("l2.cacheToCache", &n_cache_to_cache,
                     "cache-to-cache transfers");
    for (auto &p : ports)
        p->regStats(group);
}

void
UpdateL2::resetStats()
{
    L2Org::resetStats();
    n_updates.reset();
    n_cache_to_cache.reset();
    for (auto &p : ports)
        p->reset();
}

std::uint64_t
UpdateL2::validBlockCount() const
{
    std::uint64_t n = 0;
    for (const auto &cache : caches)
        for (const Block &b : cache.raw())
            if (b.valid)
                ++n;
    return n;
}

void
UpdateL2::saveState(ByteWriter &w) const
{
    for (std::size_t c = 0; c < caches.size(); ++c) {
        caches[c].saveState(w, [](ByteWriter &out, const Block &b) {
            out.u64(b.addr);
            out.u8(static_cast<std::uint8_t>((b.valid ? 1 : 0) |
                                             (b.owner ? 2 : 0)));
            out.u8(static_cast<std::uint8_t>(b.state));
        });
        ports[c]->saveState(w);
    }
}

void
UpdateL2::loadState(ByteReader &r)
{
    for (std::size_t c = 0; c < caches.size(); ++c) {
        caches[c].loadState(r, [](ByteReader &in, Block &b) {
            b.addr = in.u64();
            std::uint8_t flags = in.u8();
            b.valid = flags & 1;
            b.owner = flags & 2;
            b.state = static_cast<CohState>(in.u8());
        });
        ports[c]->loadState(r);
    }
}

} // namespace cnsim
