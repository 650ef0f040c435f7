#include "cache/l1_cache.hh"

#include "common/bytes.hh"
#include "common/logging.hh"
#include "obs/trace_sink.hh"

namespace cnsim
{

namespace
{

/** @return the set count of @p p, whose geometry must be powers of
 *  two. */
unsigned
l1Sets(const L1Params &p)
{
    cnsim_assert(isPowerOf2(p.size) && isPowerOf2(p.assoc) &&
                     isPowerOf2(p.block_size),
                 "L1 geometry must be powers of two");
    unsigned sets = p.size / (p.assoc * p.block_size);
    cnsim_assert(sets >= 1, "L1 too small");
    return sets;
}

} // namespace

L1Cache::L1Cache(std::string name, const L1Params &p)
    : _name(std::move(name)), params(p),
      array(l1Sets(p), p.assoc, p.block_size)
{
}

bool
L1Cache::loadHit(Addr addr)
{
    Block *b = array.find(addr);
    if (b) {
        array.touch(b);
        n_hits.inc();
        return true;
    }
    n_misses.inc();
    return false;
}

L1StoreCheck
L1Cache::storeCheck(Addr addr)
{
    Block *b = array.find(addr);
    if (!b) {
        n_misses.inc();
        return L1StoreCheck::Miss;
    }
    array.touch(b);
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
    Block *b = array.find(addr);
    if (!b) {
        b = array.victim(addr);
        array.setTag(b, blockAlign(addr, params.block_size));
    }
    b->owned = owned;
    b->write_through = write_through;
    array.touch(b);
}

bool
L1Cache::invalidateL2Block(Addr l2_block_addr, unsigned l2_block_size)
{
    std::uint64_t removed = 0;
    for (Addr a = l2_block_addr; a < l2_block_addr + l2_block_size;
         a += params.block_size) {
        if (Block *b = array.find(a)) {
            array.invalidate(b);
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
        if (Block *b = array.find(a)) {
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
L1Cache::saveState(ByteWriter &w) const
{
    array.saveState(w, [](ByteWriter &out, const Block &b) {
        out.u64(b.addr);
        out.u8(static_cast<std::uint8_t>((b.valid ? 1 : 0) |
                                         (b.owned ? 2 : 0) |
                                         (b.write_through ? 4 : 0)));
    });
}

void
L1Cache::loadState(ByteReader &r)
{
    array.loadState(r, [](ByteReader &in, Block &b) {
        b.addr = in.u64();
        std::uint8_t flags = in.u8();
        b.valid = flags & 1;
        b.owned = flags & 2;
        b.write_through = flags & 4;
    });
}

} // namespace cnsim
