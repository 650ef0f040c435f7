#include "l2/shared_l2.hh"

#include <cmath>

#include "common/bytes.hh"
#include "common/logging.hh"
#include "obs/trace_sink.hh"

namespace cnsim
{

SharedL2::SharedL2(const SharedL2Params &p, MainMemory &mem)
    : params(p), placement(Placement::Uniform),
      occupancy(p.occupancy), memory(mem),
      array(static_cast<unsigned>(p.capacity / (p.assoc * p.block_size)),
            p.assoc, p.block_size)
{
    ports.emplace_back("l2Port", p.ports);
    bank_latency.assign(static_cast<std::size_t>(p.num_cores), p.latency);
}

SharedL2::SharedL2(const SharedL2Params &p, const SnucaParams &grid,
                   Placement pl, MainMemory &mem)
    : params(p), placement(pl), num_banks(grid.banks),
      occupancy(grid.occupancy), memory(mem),
      array(static_cast<unsigned>(p.capacity / (p.assoc * p.block_size)),
            p.assoc, p.block_size)
{
    side = static_cast<unsigned>(std::lround(std::sqrt(grid.banks)));
    if (side * side != grid.banks)
        fatal("%s bank count %u is not a perfect square",
              pl == Placement::Migrating ? "DNUCA" : "SNUCA", grid.banks);
    ports.reserve(grid.banks);
    for (unsigned b = 0; b < grid.banks; ++b)
        ports.emplace_back(strfmt("bank%u", b), 1);
    // The one hop model: base + per_hop x the grid distance from the
    // core's corner to the bank.
    for (CoreId c = 0; c < p.num_cores; ++c) {
        GridPos from = corePos(c);
        for (unsigned b = 0; b < num_banks; ++b) {
            GridPos to = bankPos(b);
            bank_latency.push_back(
                grid.base_latency +
                grid.per_hop * (gap(from.x, to.x) + gap(from.y, to.y)));
        }
    }
}

unsigned
SharedL2::homeBank(Addr block_addr) const
{
    return static_cast<unsigned>((block_addr / params.block_size) %
                                 num_banks);
}

void
SharedL2::migrateToward(Block &b, CoreId core)
{
    GridPos at = bankPos(b.bank);
    GridPos to = corePos(core);
    unsigned dx = gap(at.x, to.x);
    unsigned dy = gap(at.y, to.y);
    if (dx == 0 && dy == 0)
        return;
    // Move one hop along the longer axis (ties break toward x).
    if (dx >= dy)
        at.x = at.x < to.x ? at.x + 1 : at.x - 1;
    else
        at.y = at.y < to.y ? at.y + 1 : at.y - 1;
    b.bank = static_cast<std::uint16_t>(at.y * side + at.x);
    n_migrations.inc();
}

int
SharedL2::residentBank(Addr addr) const
{
    const Block *b = array.find(blockAlign(addr, params.block_size));
    return b ? static_cast<int>(servingBank(b, b->addr)) : invalid_id;
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
    if (placement == Placement::Uniform) {
        ports[0].attachSink(s, strfmt("l2.%s.port", kind().c_str()));
        return;
    }
    for (unsigned b = 0; b < num_banks; ++b)
        ports[b].attachSink(s, strfmt("l2.%s.bank%u", kind().c_str(), b));
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
    Block *b = array.find(baddr);
    unsigned bank = servingBank(b, baddr);
    Tick grant = ports[bank].acquire(at, occupancy);
    Tick done = grant + bankLatency(acc.core, bank);

    AccessResult res;
    std::uint64_t me = 1ull << acc.core;

    if (b) {
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
        // Gradual migration: each hit pulls the block one hop toward
        // the requestor, after this hit paid its old bank's latency.
        // With one user the block converges to that core's corner;
        // with several it dithers around the middle ([6]).
        if (placement == Placement::Migrating)
            migrateToward(*b, acc.core);
        record(AccessClass::Hit);
        res.complete = done;
        res.cls = AccessClass::Hit;
        return res;
    }

    // Shared caches see only capacity misses: every block has exactly
    // one copy, so sharing never causes a miss. The fill goes to the
    // bank that served the miss, the block's home bank.
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
    if (placement == Placement::Migrating)
        v->bank = static_cast<std::uint16_t>(bank);
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
SharedL2::validBlockCount() const
{
    return array.validCount();
}

void
SharedL2::checkBlock(const Block &b) const
{
    cnsim_assert(b.addr == blockAlign(b.addr, params.block_size),
                 "unaligned block address 0x%llx",
                 static_cast<unsigned long long>(b.addr));
    cnsim_assert(b.bank < num_banks, "block 0x%llx in bank %u of %u",
                 static_cast<unsigned long long>(b.addr),
                 static_cast<unsigned>(b.bank), num_banks);
    cnsim_assert(b.l1_owner == invalid_id ||
                     (b.l1_sharers & (1ull << b.l1_owner)),
                 "L1 owner %d of 0x%llx not in sharer set", b.l1_owner,
                 static_cast<unsigned long long>(b.addr));
}

void
SharedL2::checkInvariants() const
{
    for (const Block &b : array.raw())
        if (b.valid)
            checkBlock(b);
}

void
SharedL2::checkBlockInvariants(Addr addr) const
{
    if (const Block *b = array.find(blockAlign(addr, params.block_size)))
        checkBlock(*b);
}

void
SharedL2::regStats(StatGroup &group)
{
    L2Org::regStats(group);
    if (placement == Placement::Migrating)
        group.addCounter("l2.migrations", &n_migrations,
                         "one-hop block migrations");
    for (Resource &p : ports)
        p.regStats(group);
}

void
SharedL2::resetStats()
{
    L2Org::resetStats();
    n_migrations.reset();
    for (Resource &p : ports)
        p.reset();
}

void
SharedL2::saveState(ByteWriter &w) const
{
    const bool migrating = placement == Placement::Migrating;
    array.saveState(w, [migrating](ByteWriter &out, const Block &b) {
        out.u64(b.addr);
        out.u8(static_cast<std::uint8_t>((b.valid ? 1 : 0) |
                                         (b.dirty ? 2 : 0)));
        if (migrating)
            out.u32(b.bank);
        out.u64(b.l1_sharers);
        out.u32(static_cast<std::uint32_t>(b.l1_owner));
    });
    for (const Resource &p : ports)
        p.saveState(w);
}

void
SharedL2::loadState(ByteReader &r)
{
    const bool migrating = placement == Placement::Migrating;
    array.loadState(r, [this, migrating](ByteReader &in, Block &b) {
        b.addr = in.u64();
        std::uint8_t flags = in.u8();
        b.valid = flags & 1;
        b.dirty = flags & 2;
        if (migrating) {
            std::uint32_t bank = in.u32();
            if (bank >= num_banks)
                in.fail("block in bank %u does not fit this run's %u "
                        "banks",
                        bank, num_banks);
            b.bank = static_cast<std::uint16_t>(bank);
        }
        b.l1_sharers = in.u64();
        b.l1_owner = static_cast<CoreId>(static_cast<std::int32_t>(in.u32()));
    });
    for (Resource &p : ports)
        p.loadState(r);
}

} // namespace cnsim
