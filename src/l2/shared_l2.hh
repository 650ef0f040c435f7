/**
 * @file
 * The uniform-shared L2 organization (the paper's base case).
 *
 * 8 MB, 32-way, 128 B blocks, 4 ports; 59-cycle access latency (26-cycle
 * centrally-placed tag + 33-cycle data, Table 1). A single copy of each
 * block serves all cores, so the only access classes are hits and
 * capacity misses. Like Piranha-style shared caches, the L2 tracks
 * which cores hold L1 copies of each block and invalidates/downgrades
 * them on conflicting accesses (directory-in-L2, no bus traffic).
 *
 * CMP-SNUCA and the ideal cache share all of this machinery and differ
 * only in how an access's service time is computed, so they derive from
 * SharedL2 and override serviceTime().
 */

#ifndef CNSIM_L2_SHARED_L2_HH
#define CNSIM_L2_SHARED_L2_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/coh_state.hh"
#include "cache/set_assoc.hh"
#include "l2/l2_org.hh"
#include "mem/memory.hh"
#include "mem/resource.hh"
#include "obs/event.hh"

namespace cnsim
{

/** Parameters for the shared-cache family. */
struct SharedL2Params
{
    std::uint64_t capacity = 8ull * 1024 * 1024;
    unsigned assoc = 32;
    unsigned block_size = 128;
    unsigned ports = 4;
    /** End-to-end hit latency (tag + data), Table 1. */
    Tick latency = 59;
    /** Port hold time per access. */
    Tick occupancy = 4;
    int num_cores = 4;
};

/** Conventional uniform-shared L2 cache. */
class SharedL2 : public L2Org
{
  public:
    SharedL2(const SharedL2Params &p, MainMemory &mem);

    AccessResult access(const MemAccess &acc, Tick at) override;
    std::string kind() const override { return "shared"; }
    void regStats(StatGroup &group) override;
    void resetStats() override;
    void checkInvariants() const override;
    void checkBlockInvariants(Addr addr) const override;

    /**
     * Register one track per core and start emitting per-core
     * directory transitions (the in-L2 directory maps onto I/S/M
     * per-core states: owner = M, sharer = S) plus port grants.
     */
    void setTraceSink(obs::TraceSink *s) override;

    /** @return the number of valid blocks currently cached. */
    std::uint64_t validBlocks() const;

    void saveState(ByteWriter &w) const override;
    void loadState(ByteReader &r) override;

    std::uint64_t validBlockCount() const override
    {
        return validBlocks();
    }

  protected:
    /**
     * Compute when the access that was granted the array at @p grant
     * completes, for the requesting core. The uniform-shared cache
     * charges the flat Table-1 latency; subclasses override.
     */
    virtual Tick serviceTime(CoreId core, Addr addr, Tick grant) const;

    /** Acquire the storage resource for this access (overridable). */
    virtual Tick acquirePort(CoreId core, Addr addr, Tick at);

    SharedL2Params params;

  private:
    struct Block
    {
        Addr addr = 0;
        bool valid = false;
        bool dirty = false;
        /** Bitmask of cores that may hold L1 copies. */
        std::uint64_t l1_sharers = 0;
        /** Core whose L1 holds store ownership, or invalid_id. */
        CoreId l1_owner = invalid_id;
    };

    /** Directory view of @p c's copy: owner = M, sharer = S, else I. */
    static CohState
    dirState(const Block &b, CoreId c)
    {
        if (b.l1_owner == c)
            return CohState::Modified;
        return (b.l1_sharers & (1ull << c)) ? CohState::Shared
                                          : CohState::Invalid;
    }

    /** Emit a directory transition for @p c if the state changed. */
    void emitDir(Tick t, CoreId c, Addr addr, CohState olds,
                 CohState news, obs::TransCause cause);

    MainMemory &memory;
    SetAssocArray<Block> array;
    Resource port;
    std::vector<int> core_tracks;
};

} // namespace cnsim

#endif // CNSIM_L2_SHARED_L2_HH
