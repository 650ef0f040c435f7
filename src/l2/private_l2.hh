/**
 * @file
 * The private-cache family: one private L2 per core, kept coherent by
 * snooping, with cache-to-cache transfer.
 *
 * The paper's private baseline is four 2 MB, 8-way, single-ported
 * caches (10-cycle access, Table 1) on the 32-cycle split-transaction
 * snooping bus, with cache-to-cache transfer of both clean and dirty
 * blocks (on-chip neighbours are close, so supplying from a peer beats
 * memory). PrivateCaches is that machine: the per-core arrays and
 * ports, the miss broadcast and its supplier snoop, cache-to-cache
 * supply, victim eviction and fill, the invariant checks and the
 * checkpoint loop. On a directory interconnect a miss probes only the
 * cores the directory names, and every clean eviction posts a DirPut.
 *
 * Two protocols run on it and differ only in what an access decides:
 *  - PrivateL2: Papamarcos & Patel MESI. A write to a Shared block
 *    invalidates the other copies, and a Modified copy writes back.
 *  - UpdateL2 (update_l2.hh): the write-update protocol the paper
 *    rejects in Section 3.2. A write to a Shared block updates the other
 *    copies in place, and its writer becomes the owner that writes back.
 *
 * Private caches replicate uncontrolled: every read miss with a remote
 * copy makes a full local data copy, which is precisely the capacity
 * waste controlled replication attacks. The per-block reuse counters
 * feeding Figure 7 are MESI's: blocks filled by a ROS miss report their
 * reuse count when replaced, blocks filled by a RWS miss when
 * invalidated by a writer.
 */

#ifndef CNSIM_L2_PRIVATE_L2_HH
#define CNSIM_L2_PRIVATE_L2_HH

#include <cstdint>
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

/** Parameters for the private-caches organizations. */
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

/** Per-core private caches on a snooping interconnect. */
class PrivateCaches : public L2Org
{
  public:
    PrivateCaches(const PrivateL2Params &p, Interconnect &bus,
                  MainMemory &mem);

    void regStats(StatGroup &group) override;
    void resetStats() override;
    void checkInvariants() const override;
    void checkBlockInvariants(Addr addr) const override;
    void setTraceSink(obs::TraceSink *s) override;

    /** Coherence state of @p addr in @p core's cache (tests). */
    CohState stateOf(CoreId core, Addr addr) const;

    void saveState(ByteWriter &w) const override;
    void loadState(ByteReader &r) override;
    std::uint64_t validBlockCount() const override;

  protected:
    struct Block
    {
        Addr addr = 0;
        bool valid = false;
        CohState state = CohState::Invalid;
        /** Write-update: this copy is responsible for the eventual
         *  writeback. MESI never sets it. */
        bool owner = false;
        /** MESI: filled by an instruction fetch (excluded from Figure
         *  7: the reuse analysis motivates *data* replication policy). */
        bool ifetch_filled = false;
        /** MESI: how this block was filled (Figure 7 accounting). */
        AccessClass fill_class = AccessClass::Hit;
        /** MESI: processor-level reuses of this block since fill. */
        std::uint32_t reuses = 0;
    };
    static_assert(sizeof(Block) == 24,
                  "the default caches hold 16,384 blocks per core: keep "
                  "each one at 24 bytes");

    /** A miss's bus transaction and what its snoop of the peers found. */
    struct Miss
    {
        /** BusRdX for a store, else BusRd. */
        BusCmd cmd;
        /** When the interconnect granted the transaction. */
        Tick at;
        /** The cores snooped. No peer gains a copy during the access,
         *  so the mask holds for every later loop over the peers. */
        std::uint64_t peers;
        /** Some peer holds a copy. */
        bool any = false;
        /** That copy is dirty: Modified, or the write-update owner. */
        bool dirty = false;
        /** The peer that supplies the data, or invalid_id: the owner or
         *  Modified copy, else the lowest-numbered copy. */
        CoreId supplier = invalid_id;

        AccessClass
        cls() const
        {
            return dirty ? AccessClass::RWSMiss
                   : any ? AccessClass::ROSMiss
                         : AccessClass::CapacityMiss;
        }
    };

    /** When @p core's array answers a request arriving at @p at. */
    Tick
    readArray(CoreId core, Tick at)
    {
        return ports[core].acquire(at, params.occupancy) + params.latency;
    }

    /** Broadcast @p core's miss on @p baddr at @p t and snoop the
     *  peers the interconnect names. */
    Miss broadcastMiss(CoreId core, Addr baddr, MemOp op, Tick t);

    /** When the data of miss @p m arrives: from the supplier's array
     *  (a cache-to-cache transfer), else from memory. */
    Tick supply(const Miss &m);

    /** Evict @p core's victim way @p v at @p t if it is valid: write a
     *  dirty or owned block back, or announce a clean one to a
     *  directory. */
    void evict(CoreId core, Block *v, Tick t);

    /** Fill @p core's free way @p v with @p baddr in state @p s at
     *  @p t, unowned and most recently used. */
    void fill(CoreId core, Block *v, Addr baddr, CohState s, Tick t);

    /**
     * Emit a transition on @p core's track. Only a change of state is
     * an event, unless @p flags mark one: a write-update broadcast
     * leaves every copy Shared.
     */
    void emitTrans(Tick t, CoreId core, Addr addr, CohState olds,
                   CohState news, obs::TransCause cause,
                   std::uint64_t flags = 0);

    /** Read a block's state from a checkpoint: fail the read unless
     *  it names I, S, E or M. */
    static CohState loadCohState(ByteReader &r);

    PrivateL2Params params;
    Interconnect &bus;
    MainMemory &memory;
    std::vector<SetAssocArray<Block>> caches;
    /** One single-ported Resource per core's array. */
    std::vector<Resource> ports;
    std::vector<int> core_tracks;

    Counter n_cache_to_cache;

  private:
    /** The protocol's checkpoint record of one block. */
    virtual void saveBlock(ByteWriter &w, const Block &b) const = 0;
    virtual void loadBlock(ByteReader &r, Block &b) const = 0;
};

/** Four private L2 caches under MESI snooping. */
class PrivateL2 : public PrivateCaches
{
  public:
    PrivateL2(const PrivateL2Params &p, Interconnect &bus,
              MainMemory &mem);

    AccessResult access(const MemAccess &acc, Tick at) override;
    std::string kind() const override { return "private"; }
    void regStats(StatGroup &group) override;
    void resetStats() override;
    void noteL1Hit(CoreId core, Addr addr) override;

    /** Reuse statistics for Figure 7. */
    const ReuseTracker &reuse() const { return reuse_tracker; }

  private:
    /** {u64 addr, u8 valid | ifetch << 1, u8 state, u8 fill class,
     *  u32 reuses}. */
    void saveBlock(ByteWriter &w, const Block &b) const override;
    void loadBlock(ByteReader &r, Block &b) const override;

    /** Invalidate @p core's copy, sampling reuse stats. */
    void invalidateCopy(CoreId core, Block *b, obs::TransCause cause,
                        Tick t);

    ReuseTracker reuse_tracker;
    Counter n_upgrades;
};

} // namespace cnsim

#endif // CNSIM_L2_PRIVATE_L2_HH
