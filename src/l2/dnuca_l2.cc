#include "l2/dnuca_l2.hh"

#include <cmath>

#include "common/bytes.hh"
#include "common/logging.hh"
#include "obs/trace_sink.hh"

namespace cnsim
{

DnucaL2::DnucaL2(const SharedL2Params &p, const SnucaParams &np,
                 MainMemory &mem)
    : L2Org("dnucaL2"), params(p), nparams(np), memory(mem),
      array(static_cast<unsigned>(p.capacity / (p.assoc * p.block_size)),
            p.assoc, p.block_size)
{
    side = static_cast<unsigned>(std::lround(std::sqrt(nparams.banks)));
    if (side * side != nparams.banks)
        fatal("DNUCA bank count %u is not a perfect square", nparams.banks);
    for (unsigned b = 0; b < nparams.banks; ++b)
        bank_ports.emplace_back(
            std::make_unique<Resource>(strfmt("bank%u", b), 1));
}

unsigned
DnucaL2::homeBank(Addr block_addr) const
{
    return static_cast<unsigned>(
        (block_addr / params.block_size) % nparams.banks);
}

void
DnucaL2::bankXY(unsigned bank, unsigned &x, unsigned &y) const
{
    x = bank % side;
    y = bank / side;
}

void
DnucaL2::coreXY(CoreId core, unsigned &x, unsigned &y) const
{
    x = (core == 1 || core == 3) ? side - 1 : 0;
    y = (core == 2 || core == 3) ? side - 1 : 0;
}

Tick
DnucaL2::bankLatency(CoreId core, unsigned bank) const
{
    unsigned bx, by, cx, cy;
    bankXY(bank, bx, by);
    coreXY(core, cx, cy);
    unsigned hops = (bx > cx ? bx - cx : cx - bx) +
                    (by > cy ? by - cy : cy - by);
    return nparams.base_latency + nparams.per_hop * hops;
}

void
DnucaL2::migrateToward(Block *b, CoreId core)
{
    unsigned bx, by, cx, cy;
    bankXY(b->bank, bx, by);
    coreXY(core, cx, cy);
    if (bx == cx && by == cy)
        return;
    // Move one hop along the longer axis (ties break toward x).
    unsigned dx = bx > cx ? bx - cx : cx - bx;
    unsigned dy = by > cy ? by - cy : cy - by;
    if (dx >= dy && dx > 0)
        bx += bx < cx ? 1 : -1;
    else if (dy > 0)
        by += by < cy ? 1 : -1;
    b->bank = static_cast<std::uint16_t>(by * side + bx);
    n_migrations.inc();
}

AccessResult
DnucaL2::access(const MemAccess &acc, Tick at)
{
    Addr baddr = blockAlign(acc.addr, params.block_size);
    AccessResult res;
    std::uint64_t me = 1ull << acc.core;

    if (Block *b = array.find(baddr)) {
        array.touch(b);
        unsigned bank = b->bank;
        Tick grant = bank_ports[bank]->acquire(at, nparams.occupancy);
        Tick done = grant + bankLatency(acc.core, bank);
        if (acc.op == MemOp::Store) {
            for (CoreId c = 0; c < params.num_cores; ++c) {
                if (c != acc.core && (b->l1_sharers & (1ull << c))) {
                    emitDir(done, c, baddr, dirState(*b, c),
                            CohState::Invalid, obs::TransCause::BusRdX);
                    invalidateL1(c, baddr);
                }
            }
            emitDir(done, acc.core, baddr, dirState(*b, acc.core),
                    CohState::Modified, obs::TransCause::PrWr);
            b->l1_sharers = me;
            b->l1_owner = acc.core;
            b->dirty = true;
            res.l1Owned = true;
        } else {
            if (b->l1_owner != invalid_id && b->l1_owner != acc.core) {
                emitDir(done, b->l1_owner, baddr, CohState::Modified,
                        CohState::Shared, obs::TransCause::BusRd);
                downgradeL1(b->l1_owner, baddr, false);
                b->dirty = true;
                b->l1_owner = invalid_id;
            }
            // An owner re-reading its own block keeps it Modified.
            if (b->l1_owner != acc.core)
                emitDir(done, acc.core, baddr, dirState(*b, acc.core),
                        CohState::Shared, obs::TransCause::PrRd);
            b->l1_sharers |= me;
            res.l1Owned = b->l1_owner == acc.core;
        }
        // Gradual migration: each hit pulls the block one hop toward
        // the requestor. With one user the block converges to the
        // corner; with several it dithers around the middle ([6]).
        migrateToward(b, acc.core);
        record(AccessClass::Hit);
        res.complete = done;
        res.cls = AccessClass::Hit;
        res.dgroup = bank;
        return res;
    }

    // Miss: fill into the home bank.
    unsigned bank = homeBank(baddr);
    Tick grant = bank_ports[bank]->acquire(at, nparams.occupancy);
    Tick done = grant + bankLatency(acc.core, bank);
    Tick fill = memory.read(done);

    Block *v = array.victim(baddr);
    if (v->valid) {
        for (CoreId c = 0; c < params.num_cores; ++c) {
            if (v->l1_sharers & (1ull << c)) {
                emitDir(done, c, v->addr, dirState(*v, c),
                        CohState::Invalid, obs::TransCause::Replacement);
                invalidateL1(c, v->addr);
            }
        }
        if (v->dirty || v->l1_owner != invalid_id)
            memory.writeback(done);
    }
    emitDir(fill, acc.core, baddr, CohState::Invalid,
            acc.op == MemOp::Store ? CohState::Modified : CohState::Shared,
            obs::TransCause::Fill);
    array.setTag(v, baddr);
    v->dirty = acc.op == MemOp::Store;
    v->bank = static_cast<std::uint16_t>(bank);
    v->l1_sharers = me;
    v->l1_owner = acc.op == MemOp::Store ? acc.core : invalid_id;
    array.touch(v);

    record(AccessClass::CapacityMiss);
    res.complete = fill;
    res.cls = AccessClass::CapacityMiss;
    res.dgroup = bank;
    res.l1Owned = acc.op == MemOp::Store;
    return res;
}

int
DnucaL2::bankOf(Addr addr) const
{
    const Block *b = array.find(blockAlign(addr, params.block_size));
    return b ? b->bank : invalid_id;
}

void
DnucaL2::checkInvariants() const
{
    for (const auto &b : array.raw()) {
        if (!b.valid)
            continue;
        cnsim_assert(b.bank < nparams.banks, "block in bank %u of %u",
                     static_cast<unsigned>(b.bank), nparams.banks);
    }
}

CohState
DnucaL2::dirState(const Block &b, CoreId c)
{
    if (b.l1_owner == c)
        return CohState::Modified;
    if (b.l1_sharers & (1ull << c))
        return CohState::Shared;
    return CohState::Invalid;
}

void
DnucaL2::emitDir(Tick t, CoreId core, Addr addr, CohState olds,
                 CohState news, obs::TransCause cause)
{
    if (sink && olds != news)
        sink->transition(t, core_tracks[core], core, addr, olds, news,
                         cause);
}

void
DnucaL2::checkBlockInvariants(Addr addr) const
{
    Addr baddr = blockAlign(addr, params.block_size);
    const Block *b = array.find(baddr);
    if (!b)
        return;
    cnsim_assert(b->addr == baddr, "misaligned block %llx",
                 static_cast<unsigned long long>(b->addr));
    cnsim_assert(b->bank < nparams.banks, "block in bank %u of %u",
                 static_cast<unsigned>(b->bank), nparams.banks);
    cnsim_assert(b->l1_owner == invalid_id ||
                     (b->l1_sharers & (1ull << b->l1_owner)),
                 "L1 owner %d not in sharer set of block %llx",
                 b->l1_owner, static_cast<unsigned long long>(baddr));
}

void
DnucaL2::setTraceSink(obs::TraceSink *s)
{
    L2Org::setTraceSink(s);
    core_tracks.clear();
    if (!s)
        return;
    for (int c = 0; c < params.num_cores; ++c)
        core_tracks.push_back(
            s->registerComponent(strfmt("l2.dnuca.core%d", c)));
    for (std::size_t b = 0; b < bank_ports.size(); ++b)
        bank_ports[b]->attachSink(s, strfmt("l2.dnuca.bank%zu", b));
}

void
DnucaL2::regStats(StatGroup &group)
{
    L2Org::regStats(group);
    group.addCounter("l2.migrations", &n_migrations,
                     "one-hop block migrations");
    for (auto &p : bank_ports)
        p->regStats(group);
}

void
DnucaL2::resetStats()
{
    L2Org::resetStats();
    n_migrations.reset();
    for (auto &p : bank_ports)
        p->reset();
}

std::uint64_t
DnucaL2::validBlockCount() const
{
    std::uint64_t n = 0;
    for (const Block &b : array.raw())
        if (b.valid)
            ++n;
    return n;
}

void
DnucaL2::saveState(ByteWriter &w) const
{
    array.saveState(w, [](ByteWriter &out, const Block &b) {
        out.u64(b.addr);
        out.u8(static_cast<std::uint8_t>((b.valid ? 1 : 0) |
                                         (b.dirty ? 2 : 0)));
        out.u32(b.bank);
        out.u64(b.l1_sharers);
        out.u32(static_cast<std::uint32_t>(b.l1_owner));
    });
    for (const auto &p : bank_ports)
        p->saveState(w);
}

void
DnucaL2::loadState(ByteReader &r)
{
    array.loadState(r, [](ByteReader &in, Block &b) {
        b.addr = in.u64();
        std::uint8_t flags = in.u8();
        b.valid = flags & 1;
        b.dirty = flags & 2;
        b.bank = static_cast<std::uint16_t>(in.u32());
        b.l1_sharers = in.u64();
        b.l1_owner = static_cast<CoreId>(static_cast<std::int32_t>(in.u32()));
    });
    for (auto &p : bank_ports)
        p->loadState(r);
}

} // namespace cnsim
