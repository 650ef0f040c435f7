/**
 * @file
 * Level-1 cache model.
 *
 * Per the paper's methodology (Section 4.1): 64 KB, 2-way, 64-byte
 * blocks, 3-cycle latency, one outstanding miss, inclusion maintained
 * with the L2.
 *
 * The L1 is write-back with an ownership bit: a store may complete
 * silently in the L1 only when the core holds exclusive ownership
 * (L2 state E/M). Blocks whose L2 state is C (in-situ communication)
 * are write-through in the L1 (paper Section 3.2), so every store to
 * them reaches the L2.
 */

#ifndef CNSIM_CACHE_L1_CACHE_HH
#define CNSIM_CACHE_L1_CACHE_HH

#include <cstdint>
#include <string>

#include "cache/set_assoc.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/packet.hh"

namespace cnsim
{

namespace obs
{
class TraceSink;
} // namespace obs

/** Parameters for an L1 cache. */
struct L1Params
{
    unsigned size = 64 * 1024;
    unsigned assoc = 2;
    unsigned block_size = 64;
    Tick latency = 3;
};

/** Outcome of checking a store against the L1. */
enum class L1StoreCheck
{
    Hit,            //!< present and owned: completes silently in L1
    WriteThrough,   //!< present but C-state: L2 must see the store
    NeedOwnership,  //!< present but only shared: L2 upgrade required
    Miss,           //!< not present
};

/** A single L1 cache (instruction or data). */
class L1Cache
{
  public:
    L1Cache(std::string name, const L1Params &p = L1Params{});

    /** @return true on load/ifetch hit; updates LRU. */
    [[nodiscard]] bool loadHit(Addr addr);

    /** Classify a store against the current L1 contents. */
    [[nodiscard]] L1StoreCheck storeCheck(Addr addr);

    /**
     * Fill (or update the permissions of) the block containing @p addr.
     *
     * @param owned true when the L2 granted exclusive ownership (E/M).
     * @param write_through true when the L2 block is in state C.
     */
    void fill(Addr addr, bool owned, bool write_through);

    /**
     * Invalidate every L1 block covered by the L2 block at
     * @p l2_block_addr (used for inclusion back-invalidation and for
     * coherence invalidations observed on the bus).
     *
     * @return true if at least one block was invalidated.
     */
    bool invalidateL2Block(Addr l2_block_addr, unsigned l2_block_size);

    /**
     * Downgrade ownership of every L1 block covered by the L2 block
     * (the block stays readable but stores will revisit the L2); used
     * when an observed BusRd demotes M/E to S or C.
     *
     * @param make_write_through also mark the surviving blocks C-state.
     */
    void downgradeL2Block(Addr l2_block_addr, unsigned l2_block_size,
                          bool make_write_through);

    /** @return the hit latency in ticks. */
    [[nodiscard]] Tick latency() const { return params.latency; }

    void regStats(StatGroup &group);
    void resetStats();

    [[nodiscard]] std::uint64_t hits() const { return n_hits.value(); }

    /** Valid blocks currently cached (checkpoint inspector). */
    [[nodiscard]] std::uint64_t
    validBlockCount() const
    {
        return array.validCount();
    }

    /** Serialize contents + LRU state into a checkpoint. */
    void saveState(ByteWriter &w) const;

    /** Restore contents + LRU state from a checkpoint. */
    void loadState(ByteReader &r);

    /**
     * Emit an L1BackInval event into @p s whenever a back-invalidation
     * actually removes blocks; @p core tags the events with the owning
     * core. Back-invalidations arrive through untimed hooks, so the
     * events carry the sink's last-seen tick.
     */
    void attachSink(obs::TraceSink *s, CoreId core);

  private:
    struct Block
    {
        Addr addr = 0;
        bool valid = false;
        bool owned = false;
        bool write_through = false;
    };

    std::string _name;
    L1Params params;
    SetAssocArray<Block> array;

    Counter n_hits;
    Counter n_misses;
    Counter n_invalidations;

    obs::TraceSink *sink = nullptr;
    int track = -1;
    CoreId core_id = invalid_id;
};

} // namespace cnsim

#endif // CNSIM_CACHE_L1_CACHE_HH
