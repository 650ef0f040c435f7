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
 * We lay the banks out on a sqrt(B) x sqrt(B) grid with the four cores
 * at the corners and charge base + per-hop * manhattan-distance cycles,
 * calibrated so the per-core latency range brackets the NuRAPID
 * d-group span of Table 1 (6..33 cycles) the way [14]/[6] report.
 */

#ifndef CNSIM_L2_SNUCA_L2_HH
#define CNSIM_L2_SNUCA_L2_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "l2/shared_l2.hh"

namespace cnsim
{

/** Parameters for the CMP-SNUCA baseline. */
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

/** Statically-banked non-uniform shared L2. */
class SnucaL2 : public L2Org
{
  public:
    SnucaL2(const SharedL2Params &shared_params, const SnucaParams &np,
            MainMemory &mem);

    AccessResult access(const MemAccess &acc, Tick at) override;
    std::string kind() const override { return "snuca"; }
    void regStats(StatGroup &group) override;
    void resetStats() override;
    void checkInvariants() const override;
    void checkBlockInvariants(Addr addr) const override;
    void setTraceSink(obs::TraceSink *s) override;

    /** Bank index for a block address. */
    unsigned bankOf(Addr block_addr) const;

    /** Access latency of @p bank as seen from @p core. */
    Tick bankLatency(CoreId core, unsigned bank) const;

    /** Mean bank latency over all banks for @p core. */
    double meanLatency(CoreId core) const;

    void saveState(ByteWriter &w) const override;
    void loadState(ByteReader &r) override;

    std::uint64_t validBlockCount() const override
    {
        return inner->validBlockCount();
    }

  protected:
    void onL1Hooks() override;

  private:
    /** Inner shared cache that computes SNUCA service times. */
    class Inner : public SharedL2
    {
      public:
        Inner(const SharedL2Params &p, MainMemory &mem, SnucaL2 &outer);

        /** Name the inner directory tracks after the outer org. */
        std::string kind() const override { return "snuca"; }

      protected:
        Tick serviceTime(CoreId core, Addr addr, Tick grant) const override;
        Tick acquirePort(CoreId core, Addr addr, Tick at) override;

      private:
        SnucaL2 &outer;
    };

    SnucaParams nparams;
    unsigned side;
    unsigned block_size;
    std::vector<std::unique_ptr<Resource>> bank_ports;
    std::unique_ptr<Inner> inner;
};

} // namespace cnsim

#endif // CNSIM_L2_SNUCA_L2_HH
