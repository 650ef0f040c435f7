#include "l2/private_l2.hh"

#include "common/bytes.hh"
#include "common/logging.hh"
#include "obs/trace_sink.hh"

namespace cnsim
{

PrivateCaches::PrivateCaches(const PrivateL2Params &p, Interconnect &bus,
                             MainMemory &mem)
    : params(p), bus(bus), memory(mem)
{
    unsigned sets = static_cast<unsigned>(
        p.capacity_per_core / (p.assoc * p.block_size));
    caches.reserve(static_cast<std::size_t>(p.num_cores));
    ports.reserve(static_cast<std::size_t>(p.num_cores));
    for (int c = 0; c < p.num_cores; ++c) {
        caches.emplace_back(sets, p.assoc, p.block_size);
        ports.emplace_back(strfmt("l2Port%d", c), 1);
    }
}

void
PrivateCaches::emitTrans(Tick t, CoreId core, Addr addr, CohState olds,
                         CohState news, obs::TransCause cause,
                         std::uint64_t flags)
{
    if (sink && (olds != news || flags))
        sink->transition(t, core_tracks[core], core, addr, olds, news,
                         cause, flags);
}

PrivateCaches::Miss
PrivateCaches::broadcastMiss(CoreId core, Addr baddr, MemOp op, Tick t)
{
    BusCmd cmd = op == MemOp::Store ? BusCmd::BusRdX : BusCmd::BusRd;
    Tick tb = bus.transaction(cmd, core, baddr, t);
    Miss m{cmd, tb, bus.snoopPeers(baddr, params.num_cores, core)};
    forEachCore(m.peers, [&](CoreId o) {
        if (const Block *ob = caches[o].find(baddr)) {
            // The owner or the Modified copy supplies; under either
            // protocol there is at most one.
            bool dirty = ob->owner || ob->state == CohState::Modified;
            if (m.supplier == invalid_id || dirty)
                m.supplier = o;
            m.any = true;
            m.dirty = m.dirty || dirty;
        }
    });
    return m;
}

Tick
PrivateCaches::supply(const Miss &m)
{
    if (m.supplier == invalid_id)
        return memory.read(m.at);
    // Cache-to-cache transfer: the supplier's array is read after the
    // snoop resolves.
    n_cache_to_cache.inc();
    return readArray(m.supplier, m.at);
}

void
PrivateCaches::evict(CoreId core, Block *v, Tick t)
{
    if (!v->valid)
        return;
    if (v->owner || v->state == CohState::Modified) {
        // The owner's sharers inherit nothing: the data goes to memory.
        memory.writeback(t);
        bus.postedTransaction(BusCmd::WrBack, core, v->addr, t);
    } else if (bus.wantsEvictionNotices()) {
        // A silent clean eviction would strand this core's sharer bit
        // in the directory.
        bus.postedTransaction(BusCmd::DirPut, core, v->addr, t);
    }
    emitTrans(t, core, v->addr, v->state, CohState::Invalid,
              obs::TransCause::Replacement);
    invalidateL1(core, v->addr);
    caches[core].invalidate(v);
}

void
PrivateCaches::fill(CoreId core, Block *v, Addr baddr, CohState s, Tick t)
{
    emitTrans(t, core, baddr, CohState::Invalid, s, obs::TransCause::Fill);
    caches[core].setTag(v, baddr);
    v->state = s;
    v->owner = false;
    caches[core].touch(v);
}

CohState
PrivateCaches::stateOf(CoreId core, Addr addr) const
{
    const Block *b = caches[core].find(addr);
    return b ? b->state : CohState::Invalid;
}

void
PrivateCaches::checkInvariants() const
{
    // Shared copies may be replicated arbitrarily, so only an E/M copy
    // or an owner sends the scan to the other caches: an E/M copy must
    // be the only copy, and an owner the only owner.
    for (int c = 0; c < params.num_cores; ++c) {
        for (const Block &b : caches[c].raw()) {
            if (!b.valid)
                continue;
            cnsim_assert(isValid(b.state), "valid block in state I");
            const bool priv = isPrivateState(b.state);
            if (!priv && !b.owner)
                continue;
            for (int o = 0; o < params.num_cores; ++o) {
                if (o == c)
                    continue;
                if (const Block *ob = caches[o].find(b.addr)) {
                    cnsim_assert(!priv,
                                 "E/M block %llx replicated across caches",
                                 static_cast<unsigned long long>(b.addr));
                    cnsim_assert(!ob->owner, "block %llx has two owners",
                                 static_cast<unsigned long long>(b.addr));
                }
            }
        }
    }
}

void
PrivateCaches::checkBlockInvariants(Addr addr) const
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
                 "E/M block %llx replicated across caches",
                 static_cast<unsigned long long>(baddr));
    cnsim_assert(owners <= 1, "block %llx has %d owners",
                 static_cast<unsigned long long>(baddr), owners);
}

void
PrivateCaches::setTraceSink(obs::TraceSink *s)
{
    L2Org::setTraceSink(s);
    core_tracks.clear();
    if (!s)
        return;
    const std::string org = kind();
    for (int c = 0; c < params.num_cores; ++c) {
        core_tracks.push_back(
            s->registerComponent(strfmt("l2.%s.core%d", org.c_str(), c)));
        ports[c].attachSink(s, strfmt("l2.%s.core%d.port", org.c_str(), c));
    }
}

void
PrivateCaches::regStats(StatGroup &group)
{
    L2Org::regStats(group);
    group.addCounter("l2.cacheToCache", &n_cache_to_cache,
                     "cache-to-cache transfers");
    for (Resource &p : ports)
        p.regStats(group);
}

void
PrivateCaches::resetStats()
{
    L2Org::resetStats();
    n_cache_to_cache.reset();
    for (Resource &p : ports)
        p.reset();
}

std::uint64_t
PrivateCaches::validBlockCount() const
{
    std::uint64_t n = 0;
    for (const auto &cache : caches)
        n += cache.validCount();
    return n;
}

void
PrivateCaches::saveState(ByteWriter &w) const
{
    for (std::size_t c = 0; c < caches.size(); ++c) {
        caches[c].saveState(w, [this](ByteWriter &out, const Block &b) {
            saveBlock(out, b);
        });
        ports[c].saveState(w);
    }
}

void
PrivateCaches::loadState(ByteReader &r)
{
    for (std::size_t c = 0; c < caches.size(); ++c) {
        caches[c].loadState(
            r, [this](ByteReader &in, Block &b) { loadBlock(in, b); });
        ports[c].loadState(r);
    }
}

CohState
PrivateCaches::loadCohState(ByteReader &r)
{
    std::uint8_t s = r.u8();
    if (s > static_cast<std::uint8_t>(CohState::Modified))
        r.fail("block state %u is not I, S, E or M", unsigned{s});
    return static_cast<CohState>(s);
}

PrivateL2::PrivateL2(const PrivateL2Params &p, Interconnect &bus,
                     MainMemory &mem)
    : PrivateCaches(p, bus, mem)
{
    wants_l1_hit_notes = true;
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
    Tick t = readArray(c, at);

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

    // Miss: broadcast on the bus and snoop the other caches.
    Miss m = broadcastMiss(c, baddr, acc.op, t);
    Tick data_at = supply(m);
    if (m.any) {
        forEachCore(m.peers, [&](CoreId o) {
            Block *ob = caches[o].find(baddr);
            if (!ob)
                return;
            if (m.cmd == BusCmd::BusRdX) {
                invalidateCopy(o, ob, obs::TransCause::BusRdX, m.at);
            } else {
                if (ob->state == CohState::Modified) {
                    // Illinois MESI: flush to memory, both sharers
                    // continue in S.
                    memory.writeback(m.at);
                    bus.postedTransaction(BusCmd::WrBack, m.at);
                    emitTrans(m.at, o, baddr, ob->state, CohState::Shared,
                              obs::TransCause::BusRd);
                    ob->state = CohState::Shared;
                } else if (ob->state == CohState::Exclusive) {
                    emitTrans(m.at, o, baddr, ob->state, CohState::Shared,
                              obs::TransCause::BusRd);
                    ob->state = CohState::Shared;
                }
                // A peer now reads this block; the old owner's L1 loses
                // silent-store rights.
                downgradeL1(o, baddr, false);
            }
        });
    }

    // Insert into the requestor's cache (uncontrolled replication:
    // a full local data copy is always made).
    Block *v = caches[c].victim(baddr);
    if (v->valid && v->fill_class == AccessClass::ROSMiss &&
        !v->ifetch_filled)
        reuse_tracker.rosReplaced(v->reuses);
    evict(c, v, data_at);
    CohState fill_state = acc.op == MemOp::Store ? CohState::Modified
                          : m.any ? CohState::Shared
                                  : CohState::Exclusive;
    fill(c, v, baddr, fill_state, data_at);
    AccessClass cls = m.cls();
    v->fill_class = cls;
    v->ifetch_filled = acc.op == MemOp::Ifetch;
    v->reuses = 0;

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

void
PrivateL2::regStats(StatGroup &group)
{
    PrivateCaches::regStats(group);
    group.addCounter("l2.upgrades", &n_upgrades, "S->M bus upgrades");
    reuse_tracker.regStats(group);
}

void
PrivateL2::resetStats()
{
    PrivateCaches::resetStats();
    n_upgrades.reset();
    reuse_tracker.resetStats();
}

// Reuse-tracker distributions are epoch stats (reset at the measurement
// boundary on both the save and restore paths), so only the per-block
// reuse counters travel.
void
PrivateL2::saveBlock(ByteWriter &w, const Block &b) const
{
    w.u64(b.addr);
    w.u8(static_cast<std::uint8_t>((b.valid ? 1 : 0) |
                                   (b.ifetch_filled ? 2 : 0)));
    w.u8(static_cast<std::uint8_t>(b.state));
    w.u8(static_cast<std::uint8_t>(b.fill_class));
    w.u32(b.reuses);
}

void
PrivateL2::loadBlock(ByteReader &r, Block &b) const
{
    b.addr = r.u64();
    std::uint8_t flags = r.u8();
    b.valid = flags & 1;
    b.ifetch_filled = flags & 2;
    b.state = loadCohState(r);
    std::uint8_t cls = r.u8();
    if (cls > static_cast<std::uint8_t>(AccessClass::CapacityMiss))
        r.fail("fill class %u is not an access class", unsigned{cls});
    b.fill_class = static_cast<AccessClass>(cls);
    b.reuses = r.u32();
}

} // namespace cnsim
