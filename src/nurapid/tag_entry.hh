/**
 * @file
 * The entries of CMP-NuRAPID's private per-core tag arrays.
 *
 * Each core has its own tag array placed next to it (5-cycle access,
 * Table 1) that snoops the bus like a private cache's tags: a
 * SetAssocArray<TagEntry>. Entries carry a *forward pointer* naming the
 * d-group and frame that hold the block's data -- the
 * distance-associativity indirection inherited from NuRAPID [8] -- so
 * several cores' tag entries can share one data copy (controlled
 * replication). Frames point back at their owning entry by (core, set,
 * way).
 *
 * The tag capacity is a multiple of the data capacity mapped to the
 * core (the paper doubles the number of sets: a 2x factor costs 6% of
 * total cache area and performs almost as well as 4x).
 */

#ifndef CNSIM_NURAPID_TAG_ENTRY_HH
#define CNSIM_NURAPID_TAG_ENTRY_HH

#include "cache/coh_state.hh"
#include "common/types.hh"

namespace cnsim
{

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
};

/**
 * The rank of a valid entry in the tag array's ranked victim scan.
 * Replacement is category-prioritized (paper Section 3.3.2): invalid
 * entries first, then private (E/M) blocks, then shared (S/C) blocks,
 * with LRU inside each category -- shared evictions are last because
 * they force BusRepl invalidations at the other sharers.
 */
inline int
tagRank(const TagEntry &e)
{
    return isPrivateState(e.state) ? 0 : 1;
}

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

} // namespace cnsim

#endif // CNSIM_NURAPID_TAG_ENTRY_HH
