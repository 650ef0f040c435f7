/**
 * @file
 * The shared-cache family: one copy of every block, with the L1
 * sharers of each block tracked inside the L2.
 *
 * SharedL2 is the uniform-shared L2 (the paper's base case): 8 MB,
 * 32-way, 128 B blocks, 4 ports; 59-cycle access latency (26-cycle
 * centrally-placed tag + 33-cycle data, Table 1). A single copy of each
 * block serves all cores, so the only access classes are hits and
 * capacity misses. Like Piranha-style shared caches, the L2 tracks
 * which cores hold L1 copies of each block and invalidates/downgrades
 * them on conflicting accesses (directory-in-L2, no bus traffic).
 *
 * Three more organizations run exactly this protocol and differ only in
 * which port serves an access and what that port costs. Each is a thin
 * subclass that picks a placement:
 *  - IdealL2: the same multi-ported array at private-cache latency;
 *  - SnucaL2 (CMP-SNUCA): a square grid of single-ported banks, where a
 *    block's bank follows from its address and the latency grows with
 *    the bank's grid distance from the requesting core;
 *  - DnucaL2 (CMP-DNUCA): the same grid, but the bank is stored in the
 *    block, which moves one hop toward the requestor after each hit.
 */

#ifndef CNSIM_L2_SHARED_L2_HH
#define CNSIM_L2_SHARED_L2_HH

#include <cstdint>
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

/** The bank grid of the non-uniform members (CMP-SNUCA, CMP-DNUCA). */
struct SnucaParams
{
    /** Number of independent single-ported banks (perfect square). */
    unsigned banks = 16;
    /**
     * Latency of the closest bank (tag + data within the bank, plus
     * the request/response network interface). Calibrated with
     * per_hop so the per-core mean matches the CMP-SNUCA latencies of
     * [6]/[14]: the banked shared cache beats the centrally-tagged
     * uniform design by a modest margin (paper Fig. 6: +4%).
     */
    Tick base_latency = 22;
    /** Additional cycles per grid hop. */
    Tick per_hop = 7;
    /** Bank port hold time per access. */
    Tick occupancy = 4;
};

/** Shared L2: the uniform cache, and the protocol of its whole family. */
class SharedL2 : public L2Org
{
  public:
    /** The uniform-shared cache: one multi-ported array. */
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

    void saveState(ByteWriter &w) const override;
    void loadState(ByteReader &r) override;
    std::uint64_t validBlockCount() const override;

    /** Banks the cache is split into (1 for the uniform array). */
    unsigned numBanks() const { return num_banks; }

    /** Bank a miss to @p block_addr fills: address-interleaved. */
    unsigned homeBank(Addr block_addr) const;

    /** Access latency of @p bank as seen from @p core. */
    Tick
    bankLatency(CoreId core, unsigned bank) const
    {
        return bank_latency[static_cast<std::size_t>(core) * num_banks +
                            bank];
    }

  protected:
    /** Where a block lives, and so which port serves it. */
    enum class Placement : std::uint8_t
    {
        Uniform,    //!< one multi-ported array (shared, ideal)
        Static,     //!< the block's home bank (CMP-SNUCA)
        Migrating,  //!< one hop toward each hit's core (CMP-DNUCA)
    };

    /**
     * A banked member: a sqrt(B) x sqrt(B) grid of single-ported banks
     * with the cores at its corners, placing blocks by @p placement.
     * Fatal unless @p grid's bank count is a perfect square.
     */
    SharedL2(const SharedL2Params &p, const SnucaParams &grid,
             Placement placement, MainMemory &mem);

    /** Bank holding the block at @p addr, or invalid_id if uncached. */
    int residentBank(Addr addr) const;

    /** One-hop block migrations (Placement::Migrating only). */
    Counter n_migrations;

  private:
    struct Block
    {
        Addr addr = 0;
        bool valid = false;
        bool dirty = false;
        /** Bank holding a migrating block; in what was padding. */
        std::uint16_t bank = 0;
        /** Bitmask of cores that may hold L1 copies. */
        std::uint64_t l1_sharers = 0;
        /** Core whose L1 holds store ownership, or invalid_id. */
        CoreId l1_owner = invalid_id;
    };
    static_assert(sizeof(Block) == 32,
                  "the default 8 MB array holds 65,536 blocks: keep each "
                  "one at 32 bytes");

    /** A bank's or a core's (column, row) on the grid. */
    struct GridPos
    {
        unsigned x;
        unsigned y;
    };

    GridPos bankPos(unsigned bank) const { return {bank % side, bank / side}; }

    /** Hops between two grid coordinates on one axis. */
    static unsigned
    gap(unsigned a, unsigned b)
    {
        return a > b ? a - b : b - a;
    }

    /**
     * Cores 1-3 sit at the grid's other three corners; core 0 and every
     * core above 3 sit at (0, 0).
     */
    GridPos
    corePos(CoreId core) const
    {
        return {(core == 1 || core == 3) ? side - 1 : 0,
                (core == 2 || core == 3) ? side - 1 : 0};
    }

    /** The bank serving an access to @p baddr; @p b is its block or
     *  null on a miss. */
    unsigned
    servingBank(const Block *b, Addr baddr) const
    {
        if (placement == Placement::Uniform)
            return 0;
        if (placement == Placement::Migrating && b)
            return b->bank;
        return homeBank(baddr);
    }

    /** Move @p b one grid hop toward @p core's corner, if not there. */
    void migrateToward(Block &b, CoreId core);

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

    /** Panic unless @p b (valid) is aligned, in a bank, and its L1
     *  owner is among its sharers. */
    void checkBlock(const Block &b) const;

    SharedL2Params params;
    Placement placement;
    /** Grid side; 1 for the uniform array. */
    unsigned side = 1;
    unsigned num_banks = 1;
    /** Port hold time per access. */
    Tick occupancy;
    MainMemory &memory;
    SetAssocArray<Block> array;
    /** The array's one multi-ported Resource, or one per bank. */
    std::vector<Resource> ports;
    /** Access latency by [core * num_banks + bank]. */
    std::vector<Tick> bank_latency;
    std::vector<int> core_tracks;
};

} // namespace cnsim

#endif // CNSIM_L2_SHARED_L2_HH
