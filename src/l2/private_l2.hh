/**
 * @file
 * Private per-core L2 caches with MESI snooping coherence.
 *
 * The paper's private baseline: four 2 MB, 8-way, single-ported caches
 * (10-cycle access, Table 1) kept coherent by the Papamarcos & Patel
 * MESI protocol over the 32-cycle split-transaction snooping bus, with
 * cache-to-cache transfer of both clean and dirty blocks (on-chip
 * neighbours are close, so supplying from a peer beats memory).
 *
 * Private caches replicate uncontrolled: every read miss with a remote
 * copy makes a full local data copy, which is precisely the capacity
 * waste controlled replication attacks. The per-block reuse counters
 * feeding Figure 7 live here: blocks filled by a ROS miss report their
 * reuse count when replaced, blocks filled by a RWS miss when
 * invalidated by a writer.
 */

#ifndef CNSIM_L2_PRIVATE_L2_HH
#define CNSIM_L2_PRIVATE_L2_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/coh_state.hh"
#include "cache/reuse_tracker.hh"
#include "cache/set_assoc.hh"
#include "l2/l2_org.hh"
#include "mem/interconnect.hh"
#include "mem/memory.hh"
#include "mem/resource.hh"
#include "obs/event.hh"

namespace cnsim
{

/** Parameters for the private-caches organization. */
struct PrivateL2Params
{
    std::uint64_t capacity_per_core = 2ull * 1024 * 1024;
    unsigned assoc = 8;
    unsigned block_size = 128;
    /** Hit latency of one private cache (tag 4 + data 6, Table 1). */
    Tick latency = 10;
    /** Port hold time per access (single-ported, unpipelined). */
    Tick occupancy = 4;
    int num_cores = 4;
};

/** Four private L2 caches under MESI snooping. */
class PrivateL2 : public L2Org
{
  public:
    PrivateL2(const PrivateL2Params &p, Interconnect &bus,
              MainMemory &mem);

    AccessResult access(const MemAccess &acc, Tick at) override;
    std::string kind() const override { return "private"; }
    void regStats(StatGroup &group) override;
    void resetStats() override;
    void checkInvariants() const override;
    void checkBlockInvariants(Addr addr) const override;
    void setTraceSink(obs::TraceSink *s) override;
    void noteL1Hit(CoreId core, Addr addr) override;

    /** Reuse statistics for Figure 7. */
    const ReuseTracker &reuse() const { return reuse_tracker; }

    /** Coherence state of @p addr in @p core's cache (tests). */
    CohState stateOf(CoreId core, Addr addr) const;

    void saveState(ByteWriter &w) const override;
    void loadState(ByteReader &r) override;
    std::uint64_t validBlockCount() const override;

  private:
    struct Block
    {
        Addr addr = 0;
        bool valid = false;
        CohState state = CohState::Invalid;
        /** How this block was filled (for Figure 7 accounting). */
        AccessClass fill_class = AccessClass::Hit;
        /** Filled by an instruction fetch (excluded from Figure 7:
         *  the reuse analysis motivates *data* replication policy). */
        bool ifetch_filled = false;
        /** Processor-level reuses of this block since fill. */
        std::uint32_t reuses = 0;
    };

    /** Invalidate @p core's copy, sampling reuse stats. */
    void invalidateCopy(CoreId core, Block *b, obs::TransCause cause,
                        Tick t);

    /** Emit a MESI transition on @p core's track. */
    void emitTrans(Tick t, CoreId core, Addr addr, CohState olds,
                   CohState news, obs::TransCause cause);

    PrivateL2Params params;
    Interconnect &bus;
    MainMemory &memory;
    std::vector<SetAssocArray<Block>> caches;
    std::vector<std::unique_ptr<Resource>> ports;
    std::vector<int> core_tracks;
    ReuseTracker reuse_tracker;

    Counter n_upgrades;
    Counter n_cache_to_cache;
};

} // namespace cnsim

#endif // CNSIM_L2_PRIVATE_L2_HH
