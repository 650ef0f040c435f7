/**
 * @file
 * On-chip pipelined split-transaction snooping bus.
 *
 * The paper models the bus latency as the time for a core to reach the
 * farthest tag array (32 cycles at 70 nm / 5 GHz) and gives it separate
 * address and pointer wires: CMP-NuRAPID's controlled replication
 * returns a forward *pointer* rather than the data block on clean
 * cache-to-cache transfers.
 *
 * Because the bus is pipelined, successive transactions overlap: the
 * serializing stage is the address-phase slot (one new transaction per
 * `arbitration` ticks); the end-to-end visibility latency of each
 * transaction is `latency` ticks.
 *
 * Protocol *logic* (who responds, what state changes) lives in the L2
 * organizations, which have the global view; the Bus provides timing
 * and per-command accounting. It implements the Interconnect interface
 * but ignores the requestor/address operands -- a broadcast medium has
 * no use for them -- so bus-coupled runs are bit-identical to the
 * pre-interface simulator.
 */

#ifndef CNSIM_MEM_BUS_HH
#define CNSIM_MEM_BUS_HH

#include <array>
#include <cstdint>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/interconnect.hh"
#include "mem/packet.hh"
#include "mem/resource.hh"

namespace cnsim
{

/** Parameters for the snooping bus. */
struct BusParams
{
    /** End-to-end transaction latency (request visible everywhere). */
    Tick latency = 32;
    /** Minimum spacing between successive address phases. */
    Tick arbitration = 4;
};

/** Timing/accounting model of the snoopy bus. */
class SnoopBus : public Interconnect
{
  public:
    explicit SnoopBus(const BusParams &p = BusParams{});

    using Interconnect::postedTransaction;
    using Interconnect::transaction;

    /**
     * Place a transaction of kind @p cmd on the bus at tick @p at.
     * @p src and @p addr are accounting-only on a broadcast medium and
     * are ignored.
     *
     * @return the tick at which the transaction has been seen by every
     *         snooper and any combined response (shared/dirty signals,
     *         pointer return) is available at the requestor.
     */
    [[nodiscard]] Tick transaction(BusCmd cmd, CoreId src, Addr addr,
                                   Tick at) override;

    /**
     * Place a transaction that does not stall the issuer (BusRepl,
     * writeback address phases). Occupies the address slot only.
     */
    void postedTransaction(BusCmd cmd, CoreId src, Addr addr,
                           Tick at) override;

    /** A broadcast reaches every snooper: every core, the paper's
     *  bus unchanged. */
    [[nodiscard]] std::uint64_t snoopTargets(Addr) const override
    {
        return ~std::uint64_t{0};
    }

    void regStats(StatGroup &group) override;
    void resetStats() override;

    /** Emit BusTx (and address-slot Resource) events into @p s. */
    void attachSink(obs::TraceSink *s) override;

    [[nodiscard]] std::uint64_t count(BusCmd cmd) const override
    {
        return counts[static_cast<int>(cmd)].value();
    }

    [[nodiscard]] Tick latency() const override { return params.latency; }

    void saveState(ByteWriter &w) const override;
    void loadState(ByteReader &r) override;

  private:
    /** Arbitrate for the address slot and account one transaction.
     *  @return the slot-grant tick. */
    Tick place(BusCmd cmd, Tick at);

    BusParams params;
    Resource slot;
    std::array<Counter, num_bus_cmds> counts;
    obs::TraceSink *sink = nullptr;
    int track = -1;
};

} // namespace cnsim

#endif // CNSIM_MEM_BUS_HH
