/**
 * @file
 * CMP-SNUCA: the non-uniform-shared L2 baseline from Beckmann & Wood
 * (MICRO 2004), as evaluated by the paper (its reference [6]).
 *
 * The cache is a single shared image statically banked across the die;
 * a block lives in exactly one bank (no replication, no migration --
 * [6] shows realistic CMP-DNUCA migration does not help, so the paper
 * compares only against SNUCA). Each core sees a bank latency that
 * grows with its physical distance from the bank, so average latency
 * beats the centrally-tagged uniform-shared cache while hit/miss
 * behaviour is identical.
 *
 * SharedL2 lays the banks out on a sqrt(B) x sqrt(B) grid with the four
 * cores at the corners and charges base + per-hop * manhattan-distance
 * cycles (SnucaParams), calibrated so the per-core latency range
 * brackets the NuRAPID d-group span of Table 1 (6..33 cycles) the way
 * [14]/[6] report. This class fixes each block's bank by its address.
 */

#ifndef CNSIM_L2_SNUCA_L2_HH
#define CNSIM_L2_SNUCA_L2_HH

#include <string>

#include "l2/shared_l2.hh"

namespace cnsim
{

/** Statically-banked non-uniform shared L2. */
class SnucaL2 : public SharedL2
{
  public:
    SnucaL2(const SharedL2Params &shared_params, const SnucaParams &np,
            MainMemory &mem);

    std::string kind() const override { return "snuca"; }

    /** Bank index for a block address. */
    unsigned bankOf(Addr block_addr) const { return homeBank(block_addr); }

    /** Mean bank latency over all banks for @p core. */
    double meanLatency(CoreId core) const;
};

} // namespace cnsim

#endif // CNSIM_L2_SNUCA_L2_HH
