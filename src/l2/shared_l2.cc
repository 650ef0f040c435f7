#include "l2/shared_l2.hh"

#include "common/bytes.hh"
#include "common/logging.hh"
#include "obs/trace_sink.hh"

namespace cnsim
{

SharedL2::SharedL2(const SharedL2Params &p, MainMemory &mem)
    : L2Org("sharedL2"), params(p), memory(mem),
      array(static_cast<unsigned>(p.capacity / (p.assoc * p.block_size)),
            p.assoc, p.block_size),
      port("l2Port", p.ports)
{
}

Tick
SharedL2::serviceTime(CoreId core, Addr addr, Tick grant) const
{
    (void)core;
    (void)addr;
    return grant + params.latency;
}

Tick
SharedL2::acquirePort(CoreId core, Addr addr, Tick at)
{
    (void)core;
    (void)addr;
    return port.acquire(at, params.occupancy);
}

void
SharedL2::setTraceSink(obs::TraceSink *s)
{
    L2Org::setTraceSink(s);
    core_tracks.clear();
    if (!s)
        return;
    for (CoreId c = 0; c < params.num_cores; ++c)
        core_tracks.push_back(
            s->registerComponent(strfmt("l2.%s.core%d", kind().c_str(), c)));
    port.attachSink(s, strfmt("l2.%s.port", kind().c_str()));
}

void
SharedL2::emitDir(Tick t, CoreId c, Addr addr, CohState olds,
                  CohState news, obs::TransCause cause)
{
    if (olds != news)
        sink->transition(t, core_tracks[c], c, addr, olds, news, cause);
}

AccessResult
SharedL2::access(const MemAccess &acc, Tick at)
{
    Addr baddr = blockAlign(acc.addr, params.block_size);
    Tick grant = acquirePort(acc.core, baddr, at);
    Tick done = serviceTime(acc.core, baddr, grant);

    AccessResult res;
    std::uint64_t me = 1ull << acc.core;

    if (auto *b = array.find(baddr)) {
        array.touch(b);
        if (acc.op == MemOp::Store) {
            // Invalidate other cores' L1 copies through the in-L2
            // directory; no bus transaction is needed.
            for (CoreId c = 0; c < params.num_cores; ++c) {
                if (c != acc.core && (b->l1_sharers & (1ull << c))) {
                    if (sink)
                        emitDir(done, c, baddr, dirState(*b, c),
                                CohState::Invalid,
                                obs::TransCause::BusRdX);
                    invalidateL1(c, baddr);
                }
            }
            if (sink)
                emitDir(done, acc.core, baddr, dirState(*b, acc.core),
                        CohState::Modified, obs::TransCause::PrWr);
            b->l1_sharers = me;
            b->l1_owner = acc.core;
            b->dirty = true;
            res.l1Owned = true;
        } else {
            if (b->l1_owner != invalid_id && b->l1_owner != acc.core) {
                // The previous L1 owner loses silent-store rights; its
                // dirty data is absorbed by the shared L2 copy.
                if (sink)
                    emitDir(done, b->l1_owner, baddr,
                            CohState::Modified, CohState::Shared,
                            obs::TransCause::BusRd);
                downgradeL1(b->l1_owner, baddr, false);
                b->dirty = true;
                b->l1_owner = invalid_id;
            }
            // An owner re-reading its own block keeps it Modified.
            if (sink && b->l1_owner != acc.core)
                emitDir(done, acc.core, baddr, dirState(*b, acc.core),
                        CohState::Shared, obs::TransCause::PrRd);
            b->l1_sharers |= me;
            res.l1Owned = b->l1_owner == acc.core;
        }
        record(AccessClass::Hit);
        res.complete = done;
        res.cls = AccessClass::Hit;
        return res;
    }

    // Shared caches see only capacity misses: every block has exactly
    // one copy, so sharing never causes a miss.
    Tick fill = memory.read(done);
    Block *v = array.victim(baddr);
    if (v->valid) {
        for (CoreId c = 0; c < params.num_cores; ++c) {
            if (v->l1_sharers & (1ull << c)) {
                if (sink)
                    emitDir(done, c, v->addr, dirState(*v, c),
                            CohState::Invalid,
                            obs::TransCause::Replacement);
                invalidateL1(c, v->addr);
            }
        }
        if (v->dirty || v->l1_owner != invalid_id)
            memory.writeback(done);
    }
    if (sink)
        emitDir(fill, acc.core, baddr, CohState::Invalid,
                acc.op == MemOp::Store ? CohState::Modified
                                       : CohState::Shared,
                obs::TransCause::Fill);
    array.setTag(v, baddr);
    v->dirty = acc.op == MemOp::Store;
    v->l1_sharers = me;
    v->l1_owner = acc.op == MemOp::Store ? acc.core : invalid_id;
    array.touch(v);

    record(AccessClass::CapacityMiss);
    res.complete = fill;
    res.cls = AccessClass::CapacityMiss;
    res.l1Owned = acc.op == MemOp::Store;
    return res;
}

std::uint64_t
SharedL2::validBlocks() const
{
    std::uint64_t n = 0;
    for (const auto &b : array.raw())
        n += b.valid ? 1 : 0;
    return n;
}

void
SharedL2::checkInvariants() const
{
    for (const auto &b : array.raw()) {
        if (!b.valid)
            continue;
        cnsim_assert(b.addr == blockAlign(b.addr, params.block_size),
                     "unaligned block address");
        if (b.l1_owner != invalid_id) {
            cnsim_assert(b.l1_sharers & (1ull << b.l1_owner),
                         "L1 owner not in sharer set");
        }
    }
}

void
SharedL2::checkBlockInvariants(Addr addr) const
{
    const Block *b = array.find(blockAlign(addr, params.block_size));
    if (!b)
        return;
    cnsim_assert(b->addr == blockAlign(b->addr, params.block_size),
                 "unaligned block address");
    if (b->l1_owner != invalid_id) {
        cnsim_assert(b->l1_sharers & (1ull << b->l1_owner),
                     "L1 owner of 0x%llx not in sharer set",
                     static_cast<unsigned long long>(b->addr));
    }
}

void
SharedL2::regStats(StatGroup &group)
{
    L2Org::regStats(group);
    port.regStats(group);
}

void
SharedL2::resetStats()
{
    L2Org::resetStats();
    port.reset();
}

void
SharedL2::saveState(ByteWriter &w) const
{
    array.saveState(w, [](ByteWriter &out, const Block &b) {
        out.u64(b.addr);
        out.u8(static_cast<std::uint8_t>((b.valid ? 1 : 0) |
                                         (b.dirty ? 2 : 0)));
        out.u64(b.l1_sharers);
        out.u32(static_cast<std::uint32_t>(b.l1_owner));
    });
    port.saveState(w);
}

void
SharedL2::loadState(ByteReader &r)
{
    array.loadState(r, [](ByteReader &in, Block &b) {
        b.addr = in.u64();
        std::uint8_t flags = in.u8();
        b.valid = flags & 1;
        b.dirty = flags & 2;
        b.l1_sharers = in.u64();
        b.l1_owner = static_cast<CoreId>(static_cast<std::int32_t>(in.u32()));
    });
    port.loadState(r);
}

} // namespace cnsim
