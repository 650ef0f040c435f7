/**
 * @file
 * CMP-DNUCA: the non-uniform shared cache with block migration, from
 * Beckmann & Wood [6] -- included to reproduce the negative result the
 * paper builds on:
 *
 * "[6] concludes that NUCA's migration is ineffective in the presence
 * of sharing because each sharer pulls the block toward it, leaving
 * the block in the middle, far away from all the sharers."
 *
 * Blocks start in their address-interleaved home bank; every hit
 * migrates the block one grid hop toward the requesting core (gradual
 * promotion). For a single user the block converges next to its core;
 * for read-shared data the sharers' tugs cancel and the block oscillates
 * around the grid centre. The ablation_migration bench quantifies both
 * regimes against static CMP-SNUCA.
 *
 * Like CMP-SNUCA it is a pure shared cache: one copy per block, no
 * replication, hits and capacity misses only.
 */

#ifndef CNSIM_L2_DNUCA_L2_HH
#define CNSIM_L2_DNUCA_L2_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/coh_state.hh"
#include "cache/set_assoc.hh"
#include "l2/l2_org.hh"
#include "l2/shared_l2.hh"
#include "l2/snuca_l2.hh"
#include "mem/memory.hh"
#include "mem/resource.hh"
#include "obs/event.hh"

namespace cnsim
{

/** Non-uniform shared L2 with gradual block migration (CMP-DNUCA). */
class DnucaL2 : public L2Org
{
  public:
    DnucaL2(const SharedL2Params &p, const SnucaParams &np,
            MainMemory &mem);

    AccessResult access(const MemAccess &acc, Tick at) override;
    std::string kind() const override { return "dnuca"; }
    void regStats(StatGroup &group) override;
    void resetStats() override;
    void checkInvariants() const override;
    void checkBlockInvariants(Addr addr) const override;
    void setTraceSink(obs::TraceSink *s) override;

    /** Current bank of @p addr, or invalid_id if not cached (tests). */
    int bankOf(Addr addr) const;

    /** Home (fill) bank for a block address. */
    unsigned homeBank(Addr block_addr) const;

    /** Access latency of @p bank as seen from @p core. */
    Tick bankLatency(CoreId core, unsigned bank) const;

    std::uint64_t migrations() const { return n_migrations.value(); }

    void saveState(ByteWriter &w) const override;
    void loadState(ByteReader &r) override;
    std::uint64_t validBlockCount() const override;

  private:
    struct Block
    {
        Addr addr = 0;
        bool valid = false;
        bool dirty = false;
        /** Bank currently holding the block (migrates). */
        std::uint16_t bank = 0;
        std::uint64_t l1_sharers = 0;
        CoreId l1_owner = invalid_id;
    };

    /** Grid coordinates of a bank / a core's corner. */
    void bankXY(unsigned bank, unsigned &x, unsigned &y) const;
    void coreXY(CoreId core, unsigned &x, unsigned &y) const;

    /** One-hop migration of @p b toward @p core. */
    void migrateToward(Block *b, CoreId core);

    /** Directory view of @p b as MESI from @p c's perspective. */
    static CohState dirState(const Block &b, CoreId c);

    /** Emit a directory transition on @p core's track (if it moved). */
    void emitDir(Tick t, CoreId core, Addr addr, CohState olds,
                 CohState news, obs::TransCause cause);

    SharedL2Params params;
    SnucaParams nparams;
    unsigned side;
    MainMemory &memory;
    SetAssocArray<Block> array;
    std::vector<std::unique_ptr<Resource>> bank_ports;
    std::vector<int> core_tracks;

    Counter n_migrations;
};

} // namespace cnsim

#endif // CNSIM_L2_DNUCA_L2_HH
