/**
 * @file
 * CMP-NuRAPID's shared data array, organized as distance groups.
 *
 * The data array is divided into large d-groups (2 MB each in the
 * paper's 8 MB configuration), each with a single uniform access
 * latency per core (Figure 1 / Table 1). Frames hold one cache block
 * plus a *reverse pointer* back to the owning tag entry; the reverse
 * pointer is what lets distance replacement (demotion) find and update
 * the tag's forward pointer when a block moves.
 *
 * Victim selection within a d-group is random, as in the paper: LRU
 * over the thousands of frames in a d-group would need O(n^2)
 * hardware (Section 3.3.2).
 */

#ifndef CNSIM_NURAPID_DATA_ARRAY_HH
#define CNSIM_NURAPID_DATA_ARRAY_HH

#include <cstdint>
#include <vector>

#include "common/flat_map.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "nurapid/tag_entry.hh"

namespace cnsim
{

class ByteReader;
class ByteWriter;

/** One frame of a data d-group. */
struct Frame
{
    Addr addr = 0;
    bool valid = false;
    /** Reverse pointer to the tag entry that owns this copy. */
    TagPos rev;
};

/** The shared data array: several d-groups of frames. */
class NuDataArray
{
  public:
    /**
     * @param num_dgroups Number of d-groups.
     * @param frames_per_dgroup Frames in each d-group.
     */
    NuDataArray(int num_dgroups, unsigned frames_per_dgroup);

    /** @return frame index of a free frame in @p dg, or invalid_id. */
    [[nodiscard]] int allocate(DGroupId dg);

    /**
     * Make allocated frame @p idx of @p dg hold @p addr for the tag
     * entry at @p rev. The only way a frame becomes valid.
     */
    void fill(DGroupId dg, int idx, Addr addr, TagPos rev);

    /** Free frame @p idx of @p dg. */
    void free(DGroupId dg, int idx);

    /**
     * Number of valid frames holding block @p addr. The first call
     * counts every frame once; fill() and free() keep the count from
     * then on, so runs that never ask pay nothing for it.
     */
    [[nodiscard]] int holding(Addr addr) const;

    /** Recount frames per block and assert holding() agrees, if the
     * count has been built. */
    void checkHolding() const;

    /**
     * Pick a random valid frame of @p dg as a distance-replacement
     * victim, skipping frames that hold @p pinned_addr (a block in the
     * middle of the current transaction must not be displaced).
     *
     * @return frame index, or invalid_id if nothing is eligible.
     */
    [[nodiscard]] int randomVictim(DGroupId dg, Rng &rng, Addr pinned_addr);

    /** @return true if @p dg has at least one free frame. */
    [[nodiscard]] bool hasFree(DGroupId dg) const
    {
        return !free_list[dg].empty();
    }

    const Frame &at(DGroupId dg, int idx) const { return frames[dg][idx]; }

    [[nodiscard]] int numDGroups() const
    {
        return static_cast<int>(frames.size());
    }

    [[nodiscard]] unsigned framesPerDGroup() const { return frames_per; }

    /** Valid frames currently held in @p dg. */
    [[nodiscard]] unsigned occupancy(DGroupId dg) const
    {
        return frames_per - static_cast<unsigned>(free_list[dg].size());
    }

    /** All frames of a d-group, for invariant checks. */
    const std::vector<Frame> &dgroup(DGroupId dg) const
    {
        return frames[dg];
    }

    /** Serialize frames and free lists (order matters: allocate() pops
     * from the back, so the free-list sequence is architectural). */
    void saveState(ByteWriter &w) const;

    /** Restore frames and free lists written by saveState, rejecting
     * any free list that disagrees with the frames and any reverse
     * pointer off the tag arrays of @p num_cores cores x @p tag_sets
     * sets x @p tag_ways ways. */
    void loadState(ByteReader &r, int num_cores, unsigned tag_sets,
                   unsigned tag_ways);

  private:
    /** Valid frames per block address, counted from scratch. */
    FlatMap<Addr, int> countFrames() const;

    unsigned frames_per;
    std::vector<std::vector<Frame>> frames;
    std::vector<std::vector<int>> free_list;
    /** holding()'s count, built on its first call (zero entries are
     * erased). */
    mutable FlatMap<Addr, int> n_holding;
    mutable bool counted = false;
};

} // namespace cnsim

#endif // CNSIM_NURAPID_DATA_ARRAY_HH
