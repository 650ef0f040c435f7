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
 * replication, hits and capacity misses only. SharedL2 runs the
 * protocol and the bank grid; this class picks the migrating placement.
 */

#ifndef CNSIM_L2_DNUCA_L2_HH
#define CNSIM_L2_DNUCA_L2_HH

#include <cstdint>
#include <string>

#include "l2/shared_l2.hh"

namespace cnsim
{

/** Non-uniform shared L2 with gradual block migration (CMP-DNUCA). */
class DnucaL2 : public SharedL2
{
  public:
    DnucaL2(const SharedL2Params &p, const SnucaParams &np,
            MainMemory &mem);

    std::string kind() const override { return "dnuca"; }

    /** Current bank of @p addr, or invalid_id if not cached (tests). */
    int bankOf(Addr addr) const { return residentBank(addr); }

    std::uint64_t migrations() const { return n_migrations.value(); }
};

} // namespace cnsim

#endif // CNSIM_L2_DNUCA_L2_HH
