/**
 * @file
 * CMP-NuRAPID: the paper's primary contribution.
 *
 * A hybrid L2 organization: private per-core tag arrays (fast, snooping
 * a bus for coherence like private caches) in front of a shared,
 * distance-associative data array (capacity pooled across cores like a
 * shared cache). Forward pointers in the tags and reverse pointers in
 * the frames decouple tag position from data position, enabling:
 *
 *  - Controlled replication (CR, Section 3.1): a read miss whose block
 *    has a clean on-chip copy receives a *pointer* to that copy instead
 *    of making a new one; only on the second use is a replica created
 *    in the reader's closest d-group. Blocks never reused after their
 *    first touch therefore consume no extra capacity.
 *
 *  - In-situ communication (ISC, Section 3.2): read-write-shared
 *    blocks keep a single dirty copy that writer and readers access
 *    through their own tag entries, using the added MESIC coherence
 *    state C ("communication"). A dirty-signal bus line tells a
 *    missing reader/writer that a dirty copy exists so it can join C.
 *    C blocks are write-through in the L1, and every write broadcasts
 *    BusRdX so sharers drop stale L1 copies.
 *
 *  - Capacity stealing (CS, Section 3.3): private blocks are placed in
 *    the requestor's closest d-group and promoted there on reuse
 *    ("fastest" policy); to make space, random victims demote down the
 *    core's d-group preference order -- into *neighbours'* d-groups
 *    when they have spare frames -- so cores with large working sets
 *    steal capacity from cores with small ones. Shared blocks are
 *    evicted rather than demoted (a demoted shared copy would leave a
 *    dangling reverse pointer after re-replication), and every shared
 *    data eviction broadcasts BusRepl so other tag copies drop their
 *    now-dangling forward pointers.
 */

#ifndef CNSIM_NURAPID_CMP_NURAPID_HH
#define CNSIM_NURAPID_CMP_NURAPID_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cache/set_assoc.hh"
#include "common/rng.hh"
#include "l2/l2_org.hh"
#include "mem/interconnect.hh"
#include "mem/memory.hh"
#include "mem/resource.hh"
#include "nurapid/data_array.hh"
#include "nurapid/pref_table.hh"
#include "nurapid/tag_entry.hh"
#include "obs/event.hh"

namespace cnsim
{

/** Block-promotion policy for private data (paper Section 3.3.1). */
enum class PromotionPolicy
{
    Fastest,      //!< promote straight to the closest d-group (default)
    NextFastest,  //!< promote one step up the preference order
    None,         //!< never promote (ablation)
};

/** When controlled replication makes a data replica for clean sharing. */
enum class ReplicationPolicy
{
    OnSecondUse,  //!< paper default: pointer on first use, copy on reuse
    OnFirstUse,   //!< copy immediately (private-cache-like)
    Never,        //!< never replicate; always use the remote copy
};

/** Parameters for CMP-NuRAPID. */
struct NurapidParams
{
    int num_cores = 4;
    int num_dgroups = 4;
    std::uint64_t dgroup_capacity = 2ull * 1024 * 1024;
    unsigned block_size = 128;
    unsigned assoc = 8;
    /** Tag-capacity multiplier: sets per tag array = base sets * this. */
    unsigned tag_factor = 2;
    /** Private tag array access latency (Table 1: 5 w/ extra tag space). */
    Tick tag_latency = 5;
    /** Tag port hold time (single-ported, unpipelined). */
    Tick tag_occupancy = 2;
    /** D-group port hold time (single-ported, unpipelined). */
    Tick dgroup_occupancy = 4;
    DGroupLatencies dgroup_latencies;
    PromotionPolicy promotion = PromotionPolicy::Fastest;
    ReplicationPolicy replication = ReplicationPolicy::OnSecondUse;
    /** Enable controlled replication for clean (read-only) sharing. */
    bool enable_cr = true;
    /** Enable in-situ communication (state C) for dirty sharing. */
    bool enable_isc = true;
    /** Seed for the random distance-replacement choices. */
    std::uint64_t seed = 1;
};

/** The CMP-NuRAPID cache organization. */
class CmpNurapid : public L2Org
{
  public:
    CmpNurapid(const NurapidParams &p, Interconnect &bus,
               MainMemory &mem);

    AccessResult access(const MemAccess &acc, Tick at) override;
    std::string kind() const override;
    void regStats(StatGroup &group) override;
    void resetStats() override;
    void checkInvariants() const override;
    void checkBlockInvariants(Addr addr) const override;
    void setTraceSink(obs::TraceSink *s) override;

    /** Coherence state of @p addr in @p core's tag array (tests). */
    [[nodiscard]] CohState stateOf(CoreId core, Addr addr) const;

    /** Forward pointer of @p addr in @p core's tag array (tests). */
    [[nodiscard]] FwdPtr fwdOf(CoreId core, Addr addr) const;

    /** Number of data frames currently holding @p addr. */
    [[nodiscard]] int framesHolding(Addr addr) const;

    /** Valid-frame count of a d-group (capacity-stealing studies). */
    [[nodiscard]] unsigned dgroupOccupancy(DGroupId dg) const
    {
        return data.occupancy(dg);
    }

    [[nodiscard]] const PrefTable &prefTable() const { return pref; }

    /** Fraction of L2 hits serviced by the requestor's closest d-group. */
    [[nodiscard]] double closestHitFraction() const;

    [[nodiscard]] std::uint64_t demotions() const
    {
        return n_demotions.value();
    }
    [[nodiscard]] std::uint64_t promotions() const
    {
        return n_promotions.value();
    }
    [[nodiscard]] std::uint64_t replications() const
    {
        return n_replications.value();
    }
    [[nodiscard]] std::uint64_t pointerJoins() const
    {
        return n_pointer_joins.value();
    }
    [[nodiscard]] std::uint64_t iscJoins() const { return n_isc_joins.value(); }
    [[nodiscard]] std::uint64_t busRepls() const { return n_bus_repl.value(); }
    [[nodiscard]] std::uint64_t cWrites() const { return n_c_writes.value(); }

    void saveState(ByteWriter &w) const override;
    void loadState(ByteReader &r) override;

    std::uint64_t validBlockCount() const override
    {
        std::uint64_t n = 0;
        for (int dg = 0; dg < data.numDGroups(); ++dg)
            n += data.occupancy(dg);
        return n;
    }

  private:
    /** Result of snooping the other tag arrays for a block (those
     *  the interconnect's snoopTargets() names). */
    struct SnoopResult
    {
        bool dirty = false;      //!< dirty-signal line: M or C copy exists
        bool clean = false;      //!< shared-signal line: E or S copy exists
        CoreId supplier = invalid_id;  //!< a responder (dirty preferred)
        FwdPtr supplier_fwd;     //!< the responder's forward pointer
    };

    SnoopResult snoop(CoreId requestor, Addr addr) const;

    /**
     * Latency-composed access to a d-group through the crossbar: the
     * single-ported d-group serializes its accesses, different d-groups
     * proceed in parallel.
     */
    Tick accessDGroup(CoreId core, DGroupId dg, Tick at);

    /** Position of @p core's tag entry @p e, for a reverse pointer. */
    [[nodiscard]] TagPos posOf(CoreId core, const TagEntry *e) const;

    /** The tag entry a reverse pointer names. */
    TagEntry &tagAt(const TagPos &pos);
    const TagEntry &tagAt(const TagPos &pos) const;

    /**
     * Count a hit of @p core on @p addr serviced by d-group @p dg at
     * @p td: its d-group event, its class and its closest/farther
     * split. @return the hit's result, complete at @p td.
     */
    AccessResult countHit(CoreId core, Addr addr, DGroupId dg, Tick td);

    /**
     * Drop @p core's tag copy @p e at @p t: emit its transition to I
     * (@p cause), invalidate it and the core's L1 blocks, and tell a
     * directory the core left. The data frame is the caller's.
     */
    void dropTag(CoreId core, TagEntry *e, obs::TransCause cause, Tick t);

    /**
     * Drop every tag copy of @p addr but @p core's (@p cause, at @p t)
     * and free every frame holding it, @p core's own included.
     */
    void invalidatePeers(CoreId core, Addr addr, obs::TransCause cause,
                         Tick t);

    /**
     * Place a new copy of @p e's block in @p core's closest d-group
     * (@p stop_dg as for placeInClosest), fill it with a reverse
     * pointer to @p e and point @p e at it.
     */
    FwdPtr placeAndFill(CoreId core, TagEntry *e, DGroupId stop_dg);

    /**
     * Read miss of @p core on a clean copy at @p src (controlled
     * replication): join it by pointer, or, with CR off or replication
     * on first use, replicate it into the closest d-group (@p freed_dg
     * as for placeInClosest). Either way @p e enters S. @return the
     * tick the data arrives.
     */
    Tick joinOrReplicate(CoreId core, TagEntry *e, const FwdPtr &src,
                         DGroupId freed_dg, Tick tb);

    /** Write a dirty block back to memory at @p at. */
    void writeBack(Tick at);

    /**
     * Ensure a free frame exists in core's preference-order d-group
     * @p start_rank, demoting random victims down the preference order
     * (capacity stealing). The chain stops at @p stop_rank (a specific
     * d-group when the caller freed space there, random otherwise),
     * where the last victim is evicted from the cache entirely.
     *
     * @return the freed/allocated frame index in order[start_rank].
     */
    int makeFrameAvailable(CoreId core, int start_rank, int stop_rank);

    /** Allocate a frame in @p core's closest d-group (placement). A
     *  demotion chain this starts stops at @p specific_stop_dg, or at a
     *  random d-group when that is invalid_id. */
    FwdPtr placeInClosest(CoreId core, int specific_stop_dg);

    /**
     * Evict the shared data copy in @p fwd: BusRepl on the bus, all tag
     * copies pointing at the frame invalidated (with their L1 blocks),
     * writeback if dirty, frame freed.
     */
    void evictSharedFrame(const FwdPtr &fwd, Tick at);

    /** Evict a private (E/M) block given its tag entry. */
    void evictPrivateBlock(TagEntry *e, CoreId core, Tick at);

    /**
     * Make room for (and install) a new tag entry for @p addr in
     * @p core's array, running the data-replacement policy on the
     * victim.
     *
     * @param freed_dg Out: d-group in which the victim's data frame was
     *        freed, or invalid_id.
     * @return the installed (still state-Invalid) entry.
     */
    TagEntry *allocTagEntry(CoreId core, Addr addr, Tick at,
                            DGroupId *freed_dg);

    /** Apply promotion policy to a private block on a tag hit. */
    void maybePromote(CoreId core, TagEntry *e, Tick at);

    /**
     * Move all tag copies of @p addr to state C pointing at @p fwd,
     * emitting a MESIC transition per copy (@p cause, at tick @p t).
     */
    void repointAllSharers(Addr addr, const FwdPtr &fwd, CoreId except_l1,
                           bool invalidate_l1, obs::TransCause cause,
                           Tick t);

    /** Free every frame holding @p addr except @p keep. */
    void freeOtherFrames(Addr addr, const FwdPtr &keep);

    /** Collect the distinct frames holding @p addr via the tag copies. */
    std::vector<FwdPtr> framesOf(Addr addr) const;

    /** Checkpoint codec of one tag entry; the loader rejects a state
     *  outside I..C and a forward pointer off the data array. */
    static void saveTag(ByteWriter &w, const TagEntry &e);
    void loadTag(ByteReader &r, TagEntry &e) const;

    /** Emit a MESIC transition on @p core's tag track. */
    void emitTrans(Tick t, CoreId core, Addr addr, CohState olds,
                   CohState news, obs::TransCause cause,
                   std::uint64_t flags = 0);

    /** Emit a d-group placement event on @p dg's track. */
    void emitDGroup(Tick t, CoreId core, Addr addr, obs::DGroupOp op,
                    DGroupId dg, bool closest = false);

    NurapidParams params;
    Interconnect &bus;
    MainMemory &memory;
    PrefTable pref;
    NuDataArray data;
    std::vector<SetAssocArray<TagEntry>> tags;
    /** One port per core's tag array and per d-group (the crossbar's
     *  endpoints); each is single-ported and unpipelined. */
    std::vector<Resource> tag_ports;
    std::vector<Resource> dgroup_ports;
    std::vector<int> core_tracks;
    std::vector<int> dg_tracks;
    Rng rng;
    /** Block address pinned against displacement during one access. */
    Addr pinned_addr = static_cast<Addr>(-1);
    /** Tick of the in-flight access (for background writeback timing). */
    Tick op_tick = 0;

    Counter n_closest_hits;
    Counter n_farther_hits;
    Counter n_demotions;
    Counter n_promotions;
    Counter n_replications;
    Counter n_pointer_joins;
    Counter n_isc_joins;
    Counter n_bus_repl;
    Counter n_shared_evictions;
    Counter n_writebacks;
    Counter n_c_writes;
    Counter n_private_evictions;
    Counter n_chain_stop_evictions;
    Counter n_xbar_accesses;
};

} // namespace cnsim

#endif // CNSIM_NURAPID_CMP_NURAPID_HH
