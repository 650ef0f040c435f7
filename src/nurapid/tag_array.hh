/**
 * @file
 * CMP-NuRAPID's private per-core tag array.
 *
 * Each core has its own tag array placed next to it (5-cycle access,
 * Table 1) that snoops the bus like a private cache's tags. Entries
 * carry a *forward pointer* naming the d-group and frame that hold the
 * block's data -- the distance-associativity indirection inherited from
 * NuRAPID [8] -- so several cores' tag entries can share one data copy
 * (controlled replication).
 *
 * The tag capacity is a multiple of the data capacity mapped to the
 * core (the paper doubles the number of sets: a 2x factor costs 6% of
 * total cache area and performs almost as well as 4x).
 *
 * Replacement is category-prioritized (paper Section 3.3.2): invalid
 * entries first, then private (E/M) blocks, then shared (S/C) blocks,
 * with LRU inside each category -- shared evictions are last because
 * they force BusRepl invalidations at the other sharers.
 */

#ifndef CNSIM_NURAPID_TAG_ARRAY_HH
#define CNSIM_NURAPID_TAG_ARRAY_HH

#include <cstdint>
#include <vector>

#include "cache/coh_state.hh"
#include "common/types.hh"

namespace cnsim
{

class ByteReader;
class ByteWriter;

/** Forward pointer: which frame of which d-group holds the data. */
struct FwdPtr
{
    DGroupId dgroup = invalid_id;
    int frame = invalid_id;

    bool valid() const { return dgroup != invalid_id; }

    bool
    operator==(const FwdPtr &o) const
    {
        return dgroup == o.dgroup && frame == o.frame;
    }
};

/** One entry of a private tag array. */
struct TagEntry
{
    Addr addr = 0;
    bool valid = false;
    CohState state = CohState::Invalid;
    FwdPtr fwd;
    std::uint64_t lru = 0;
    /**
     * Busy bit: a read from a farther d-group is in progress, so
     * replacement invalidations against this entry must be inhibited
     * until the read completes (paper Section 3.1 timing fix).
     */
    bool busy = false;
};

/** Identifies a tag entry globally: (core, set, way). */
struct TagPos
{
    CoreId core = invalid_id;
    int set = invalid_id;
    int way = invalid_id;

    bool valid() const { return core != invalid_id; }

    bool
    operator==(const TagPos &o) const
    {
        return core == o.core && set == o.set && way == o.way;
    }
};

/** A single core's private, set-associative NuRAPID tag array. */
class NuTagArray
{
  public:
    /**
     * @param core Owning core (recorded into TagPos results).
     * @param num_sets Sets (power of two; includes the 2x factor).
     * @param assoc Ways per set.
     * @param block_size Block size in bytes.
     */
    NuTagArray(CoreId core, unsigned num_sets, unsigned assoc,
               unsigned block_size);

    /** @return the entry for @p addr, or nullptr on tag miss. */
    [[nodiscard]] TagEntry *find(Addr addr);
    [[nodiscard]] const TagEntry *find(Addr addr) const;

    /** Position of @p e within this array. */
    [[nodiscard]] TagPos posOf(const TagEntry *e) const;

    /** Entry at an explicit position. */
    TagEntry &at(int set, int way);
    const TagEntry &at(int set, int way) const;

    /** Mark @p e most recently used. */
    void touch(TagEntry *e) { e->lru = ++lru_clock; }

    /**
     * Pick the way to receive a new entry for @p addr's set, in
     * category priority order: invalid, then LRU private (E/M), then
     * LRU shared (S/C). Never returns a busy entry.
     */
    [[nodiscard]] TagEntry *replacementVictim(Addr addr);

    [[nodiscard]] unsigned assoc() const { return _assoc; }
    [[nodiscard]] unsigned setIndex(Addr addr) const;

    /** All entries, for invariant checks. */
    std::vector<TagEntry> &raw() { return entries; }
    const std::vector<TagEntry> &raw() const { return entries; }

    void flushAll();

    /** Serialize every entry and the LRU clock into a checkpoint. */
    void saveState(ByteWriter &w) const;

    /** Restore entries written by saveState (geometry must match). */
    void loadState(ByteReader &r);

  private:
    CoreId _core;
    unsigned _num_sets;
    unsigned _assoc;
    unsigned _block_size;
    unsigned _block_shift;
    Addr _set_mask;
    std::vector<TagEntry> entries;
    std::uint64_t lru_clock = 0;
};

} // namespace cnsim

#endif // CNSIM_NURAPID_TAG_ARRAY_HH
