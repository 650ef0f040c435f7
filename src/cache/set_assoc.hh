/**
 * @file
 * A reusable set-associative array with LRU bookkeeping.
 *
 * Every cache keeps its blocks here: the L1s, the shared caches' banks,
 * the private caches and CMP-NuRAPID's per-core tag arrays, whose
 * category-prioritized replacement is the ranked form of victim(). The
 * block type is supplied by the user and must expose `valid` and `addr`
 * (block-aligned) members; LRU state lives in a packed side array here,
 * not in the block. Tag/valid state must be changed only through
 * setTag()/invalidate(), which keep the packed probe mirror coherent.
 */

#ifndef CNSIM_CACHE_SET_ASSOC_HH
#define CNSIM_CACHE_SET_ASSOC_HH

#include <cstdint>
#include <vector>

#include "common/bytes.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace cnsim
{

/** Set-associative storage of BlockT with LRU tracking. */
template <typename BlockT>
class SetAssocArray
{
  public:
    /**
     * @param num_sets Number of sets (power of two).
     * @param assoc Ways per set.
     * @param block_size Bytes per block (power of two), for indexing.
     */
    SetAssocArray(unsigned num_sets, unsigned assoc, unsigned block_size)
        : _num_sets(num_sets), _assoc(assoc), _block_size(block_size),
          _block_shift(floorLog2(block_size)), _set_mask(num_sets - 1)
    {
        cnsim_assert(isPowerOf2(num_sets) && isPowerOf2(block_size),
                     "set-assoc geometry must be powers of two");
        blocks.assign(static_cast<std::size_t>(num_sets) * assoc, BlockT{});
        way_tags.assign(blocks.size(), 0);
        way_lru.assign(blocks.size(), 0);
    }

    [[nodiscard]] unsigned assoc() const { return _assoc; }

    /** @return the matching valid block, or nullptr. */
    [[nodiscard]] BlockT *
    find(Addr addr)
    {
        // Probe the packed tag mirror: one cache line covers a whole
        // set, where scanning the (much larger) blocks would touch one
        // line per way. Valid tags are stored as addr|1, so 0 can never
        // match (block addresses have the low bit clear).
        Addr key = blockAlign(addr, _block_size) | 1;
        std::size_t base =
            static_cast<std::size_t>(setIndex(addr)) * _assoc;
        for (unsigned w = 0; w < _assoc; ++w) {
            if (way_tags[base + w] == key)
                return &blocks[base + w];
        }
        return nullptr;
    }

    [[nodiscard]] const BlockT *
    find(Addr addr) const
    {
        return const_cast<SetAssocArray *>(this)->find(addr);
    }

    /** Mark @p b most-recently-used. */
    void
    touch(BlockT *b)
    {
        way_lru[static_cast<std::size_t>(b - blocks.data())] =
            ++lru_clock;
    }

    /**
     * Validate @p b and tag it with block-aligned @p addr, keeping the
     * packed tag mirror used by find() in sync. All fills must go
     * through here (not raw `valid`/`addr` writes).
     */
    void
    setTag(BlockT *b, Addr addr)
    {
        b->valid = true;
        b->addr = addr;
        way_tags[static_cast<std::size_t>(b - blocks.data())] = addr | 1;
    }

    /** Invalidate @p b (mirror-aware replacement for `valid = false`). */
    void
    invalidate(BlockT *b)
    {
        b->valid = false;
        way_tags[static_cast<std::size_t>(b - blocks.data())] = 0;
    }

    /**
     * @return the way to fill for a new block in @p addr's set: an
     * invalid way if one exists, else the LRU way (still valid -- the
     * caller must handle its eviction). The ranked scan below with one
     * rank for every way.
     */
    [[nodiscard]] BlockT *
    victim(Addr addr)
    {
        return victim(addr, [](const BlockT &) { return 0; });
    }

    /**
     * Ranked replacement: the first invalid way of @p addr's set, else
     * the LRU way among the valid ways of the lowest rank. @p rank
     * (int(const BlockT&)) ranks a valid way. Ties go to the first way.
     */
    template <typename RankFn>
    [[nodiscard]] BlockT *
    victim(Addr addr, RankFn rank)
    {
        // Scan the packed mirrors, not the blocks: a 32-way set is a
        // handful of cache lines here vs. one line per way there.
        std::size_t base =
            static_cast<std::size_t>(setIndex(addr)) * _assoc;
        BlockT *best = nullptr;
        int best_rank = 0;
        std::uint64_t best_lru = 0;
        for (unsigned w = 0; w < _assoc; ++w) {
            std::size_t i = base + w;
            if (way_tags[i] == 0)
                return &blocks[i];
            int r = rank(blocks[i]);
            if (!best || r < best_rank ||
                (r == best_rank && way_lru[i] < best_lru)) {
                best = &blocks[i];
                best_rank = r;
                best_lru = way_lru[i];
            }
        }
        return best;
    }

    /** @return the number of sets. */
    [[nodiscard]] unsigned numSets() const { return _num_sets; }

    /** @return the set of block @p b (with wayOf(), its address for
     *  pointers kept outside the array). */
    [[nodiscard]] unsigned
    setOf(const BlockT *b) const
    {
        return static_cast<unsigned>(indexOf(b) / _assoc);
    }

    /** @return the way of block @p b within its set. */
    [[nodiscard]] unsigned
    wayOf(const BlockT *b) const
    {
        return static_cast<unsigned>(indexOf(b) % _assoc);
    }

    /** @return the block at (@p set, @p way). */
    [[nodiscard]] BlockT &
    at(unsigned set, unsigned way)
    {
        return blocks[static_cast<std::size_t>(set) * _assoc + way];
    }

    [[nodiscard]] const BlockT &
    at(unsigned set, unsigned way) const
    {
        return blocks[static_cast<std::size_t>(set) * _assoc + way];
    }

    /** Iterate over all blocks (for invariant checks). */
    const std::vector<BlockT> &raw() const { return blocks; }

    /** @return the number of valid blocks. */
    [[nodiscard]] std::uint64_t
    validCount() const
    {
        std::uint64_t n = 0;
        for (Addr tag : way_tags)
            n += tag != 0;
        return n;
    }

    /**
     * Serialize the array into a checkpoint: geometry guard, the LRU
     * clock and per-way stamps, and each block through @p save_block
     * (void(ByteWriter&, const BlockT&)), which writes the
     * organization-specific fields.
     */
    template <typename SaveBlockFn>
    void
    saveState(ByteWriter &w, SaveBlockFn save_block) const
    {
        w.u32(_num_sets);
        w.u32(_assoc);
        w.u64(lru_clock);
        for (std::uint64_t stamp : way_lru)
            w.u64(stamp);
        for (const BlockT &b : blocks)
            save_block(w, b);
    }

    /**
     * Restore from a checkpoint written by saveState. @p load_block
     * (void(ByteReader&, BlockT&)) reads the organization-specific
     * fields including `valid` and `addr`; the packed tag mirror is
     * rebuilt from those afterwards.
     */
    template <typename LoadBlockFn>
    void
    loadState(ByteReader &r, LoadBlockFn load_block)
    {
        std::uint32_t sets = r.u32();
        std::uint32_t ways = r.u32();
        if (sets != _num_sets || ways != _assoc)
            r.fail("cache array of %u sets x %u ways does not fit this "
                   "run's %u x %u",
                   sets, ways, _num_sets, _assoc);
        lru_clock = r.u64();
        for (std::uint64_t &stamp : way_lru)
            stamp = r.u64();
        for (std::size_t i = 0; i < blocks.size(); ++i) {
            load_block(r, blocks[i]);
            way_tags[i] = blocks[i].valid ? (blocks[i].addr | 1) : 0;
        }
    }

  private:
    /** @return the set index for @p addr (shift/mask; geometry is
     *  asserted power-of-two at construction). */
    [[nodiscard]] unsigned
    setIndex(Addr addr) const
    {
        return static_cast<unsigned>((addr >> _block_shift) & _set_mask);
    }

    [[nodiscard]] std::size_t
    indexOf(const BlockT *b) const
    {
        auto i = static_cast<std::size_t>(b - blocks.data());
        cnsim_assert(i < blocks.size(), "block not in this array");
        return i;
    }

    unsigned _num_sets;
    unsigned _assoc;
    unsigned _block_size;
    unsigned _block_shift;
    Addr _set_mask;
    std::vector<BlockT> blocks;
    /** Per-way packed tag: addr|1 when valid, 0 when invalid. Kept in
     *  sync with the blocks by setTag()/invalidate(). */
    std::vector<Addr> way_tags;
    /** Per-way LRU stamps, packed for the victim() scan. */
    std::vector<std::uint64_t> way_lru;
    std::uint64_t lru_clock = 0;
};

} // namespace cnsim

#endif // CNSIM_CACHE_SET_ASSOC_HH
