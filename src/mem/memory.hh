/**
 * @file
 * Main-memory timing model.
 *
 * The paper assumes 4 GB of memory with a 300-cycle access latency.
 * We model a fixed access latency plus a channel-occupancy term so that
 * miss bursts see realistic queueing rather than infinite bandwidth.
 */

#ifndef CNSIM_MEM_MEMORY_HH
#define CNSIM_MEM_MEMORY_HH

#include <cstdint>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/resource.hh"

namespace cnsim
{

/** Parameters for the main-memory model. */
struct MemoryParams
{
    /** Latency from grant to data return, in core cycles. */
    Tick latency = 300;
    /** Number of independent channels. */
    unsigned channels = 4;
    /** Ticks a channel is held per access (burst transfer time). */
    Tick occupancy = 16;
};

/** Fixed-latency, bandwidth-limited main memory. */
class MainMemory
{
  public:
    explicit MainMemory(const MemoryParams &p = MemoryParams{});

    /**
     * Issue a read (fill) at tick @p at.
     * @return the tick at which the data is available on chip.
     */
    [[nodiscard]] Tick read(Tick at);

    /**
     * Issue a writeback at tick @p at. Writebacks are buffered: they
     * consume channel bandwidth but do not stall the evicting cache.
     */
    void writeback(Tick at);

    void regStats(StatGroup &group);
    void resetStats();

    /** Emit channel-grant Resource events into @p s. */
    void attachSink(obs::TraceSink *s) { channels_res.attachSink(s, "mem.dram"); }

    [[nodiscard]] std::uint64_t reads() const { return n_reads.value(); }
    [[nodiscard]] std::uint64_t writebacks() const
    {
        return n_writebacks.value();
    }

    /** Serialize channel occupancy into a checkpoint. */
    void saveState(ByteWriter &w) const { channels_res.saveState(w); }

    /** Restore channel occupancy from a checkpoint. */
    void loadState(ByteReader &r) { channels_res.loadState(r); }

  private:
    MemoryParams params;
    Resource channels_res;
    Counter n_reads;
    Counter n_writebacks;
};

} // namespace cnsim

#endif // CNSIM_MEM_MEMORY_HH
