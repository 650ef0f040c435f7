#include "cache/l1_cache.hh"

#include "common/bytes.hh"
#include "common/logging.hh"
#include "obs/trace_sink.hh"

namespace cnsim
{

L1Cache::L1Cache(std::string name, const L1Params &p)
    : _name(std::move(name)), params(p)
{
    cnsim_assert(isPowerOf2(params.size) && isPowerOf2(params.assoc) &&
                     isPowerOf2(params.block_size),
                 "L1 geometry must be powers of two");
    num_sets = params.size / (params.assoc * params.block_size);
    cnsim_assert(num_sets >= 1, "L1 too small");
    block_shift = floorLog2(params.block_size);
    set_mask = num_sets - 1;
    blocks.assign(static_cast<std::size_t>(num_sets) * params.assoc, Block{});
}

unsigned
L1Cache::setIndex(Addr addr) const
{
    return static_cast<unsigned>((addr >> block_shift) & set_mask);
}

L1Cache::Block *
L1Cache::findBlock(Addr addr)
{
    Addr tag = blockAlign(addr, params.block_size);
    Block *set = &blocks[static_cast<std::size_t>(setIndex(addr)) *
                         params.assoc];
    for (unsigned w = 0; w < params.assoc; ++w) {
        if (set[w].valid && set[w].tag == tag)
            return &set[w];
    }
    return nullptr;
}

bool
L1Cache::loadHit(Addr addr)
{
    Block *b = findBlock(addr);
    if (b) {
        b->lru = ++lru_clock;
        n_hits.inc();
        return true;
    }
    n_misses.inc();
    return false;
}

L1StoreCheck
L1Cache::storeCheck(Addr addr)
{
    Block *b = findBlock(addr);
    if (!b) {
        n_misses.inc();
        return L1StoreCheck::Miss;
    }
    b->lru = ++lru_clock;
    if (b->write_through) {
        // The store still counts as an L1 hit for locality accounting,
        // but it must be propagated to the single L2 data copy.
        n_hits.inc();
        return L1StoreCheck::WriteThrough;
    }
    if (!b->owned) {
        n_misses.inc();
        return L1StoreCheck::NeedOwnership;
    }
    n_hits.inc();
    return L1StoreCheck::Hit;
}

void
L1Cache::fill(Addr addr, bool owned, bool write_through)
{
    Addr tag = blockAlign(addr, params.block_size);
    if (Block *b = findBlock(addr)) {
        b->owned = owned;
        b->write_through = write_through;
        b->lru = ++lru_clock;
        return;
    }
    Block *set = &blocks[static_cast<std::size_t>(setIndex(addr)) *
                         params.assoc];
    Block *victim = &set[0];
    for (unsigned w = 0; w < params.assoc; ++w) {
        if (!set[w].valid) {
            victim = &set[w];
            break;
        }
        if (set[w].lru < victim->lru)
            victim = &set[w];
    }
    victim->valid = true;
    victim->tag = tag;
    victim->owned = owned;
    victim->write_through = write_through;
    victim->lru = ++lru_clock;
}

bool
L1Cache::invalidateL2Block(Addr l2_block_addr, unsigned l2_block_size)
{
    std::uint64_t removed = 0;
    for (Addr a = l2_block_addr; a < l2_block_addr + l2_block_size;
         a += params.block_size) {
        if (Block *b = findBlock(a)) {
            b->valid = false;
            ++removed;
            n_invalidations.inc();
        }
    }
    if (removed && sink)
        sink->backInval(sink->approxNow(), track, core_id, l2_block_addr,
                        removed);
    return removed != 0;
}

void
L1Cache::downgradeL2Block(Addr l2_block_addr, unsigned l2_block_size,
                          bool make_write_through)
{
    for (Addr a = l2_block_addr; a < l2_block_addr + l2_block_size;
         a += params.block_size) {
        if (Block *b = findBlock(a)) {
            b->owned = false;
            if (make_write_through)
                b->write_through = true;
        }
    }
}

void
L1Cache::regStats(StatGroup &group)
{
    group.addCounter(_name + ".hits", &n_hits, "L1 hits");
    group.addCounter(_name + ".misses", &n_misses,
                     "L1 misses (incl. ownership upgrades)");
    group.addCounter(_name + ".invalidations", &n_invalidations,
                     "L1 blocks invalidated by coherence/inclusion");
}

void
L1Cache::resetStats()
{
    n_hits.reset();
    n_misses.reset();
    n_invalidations.reset();
}

void
L1Cache::attachSink(obs::TraceSink *s, CoreId core)
{
    sink = s;
    core_id = core;
    track = s ? s->registerComponent("l1." + _name) : -1;
}

void
L1Cache::flushAll()
{
    for (auto &b : blocks)
        b = Block{};
    lru_clock = 0;
}

void
L1Cache::saveState(ByteWriter &w) const
{
    w.u32(static_cast<std::uint32_t>(blocks.size()));
    w.u64(lru_clock);
    for (const Block &b : blocks) {
        w.u64(b.tag);
        w.u8(static_cast<std::uint8_t>((b.valid ? 1 : 0) |
                                       (b.owned ? 2 : 0) |
                                       (b.write_through ? 4 : 0)));
        w.u64(b.lru);
    }
}

void
L1Cache::loadState(ByteReader &r)
{
    std::uint32_t n = r.u32();
    if (n != blocks.size())
        r.fail("L1 '%s' of %u blocks does not fit this run's %zu",
               _name.c_str(), n, blocks.size());
    lru_clock = r.u64();
    for (Block &b : blocks) {
        b.tag = r.u64();
        std::uint8_t flags = r.u8();
        b.valid = flags & 1;
        b.owned = flags & 2;
        b.write_through = flags & 4;
        b.lru = r.u64();
    }
}

} // namespace cnsim
