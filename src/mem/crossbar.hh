/**
 * @file
 * Crossbar between the private tag arrays and the data d-groups.
 *
 * CMP-NuRAPID's tag arrays reach the shared data d-groups through a
 * crossbar (Figure 2), as in conventional banked caches. Each d-group
 * is single-ported and unpipelined (paper Section 3.3.2); the crossbar
 * permits parallel accesses to *different* d-groups while serializing
 * accesses to the same one.
 *
 * The per-(core, d-group) access latencies from Table 1 already include
 * the wire/routing delay through the crossbar, so the crossbar itself
 * adds only an optional fixed traversal latency (default 0).
 */

#ifndef CNSIM_MEM_CROSSBAR_HH
#define CNSIM_MEM_CROSSBAR_HH

#include <memory>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/resource.hh"

namespace cnsim
{

/** Crossbar from per-core tag arrays to single-ported data d-groups. */
class Crossbar
{
  public:
    /**
     * @param num_dgroups Number of d-group endpoints.
     * @param traversal Extra fixed latency per traversal.
     */
    explicit Crossbar(int num_dgroups, Tick traversal = 0);

    /**
     * Access d-group @p dg at tick @p at, holding its port for
     * @p occupancy ticks.
     *
     * @return the tick at which the d-group access *begins* (after the
     *         crossbar traversal and any port queueing).
     */
    [[nodiscard]] Tick access(DGroupId dg, Tick at, Tick occupancy);

    void regStats(StatGroup &group);
    void resetStats();

    /** Emit per-d-group port-grant Resource events into @p s. */
    void attachSink(obs::TraceSink *s);

    [[nodiscard]] int numDGroups() const
    {
        return static_cast<int>(ports.size());
    }

    /** Serialize every d-group port's occupancy into a checkpoint. */
    void
    saveState(ByteWriter &w) const
    {
        for (const auto &p : ports)
            p->saveState(w);
    }

    /** Restore d-group port occupancy from a checkpoint. */
    void
    loadState(ByteReader &r)
    {
        for (auto &p : ports)
            p->loadState(r);
    }

  private:
    Tick traversal;
    std::vector<std::unique_ptr<Resource>> ports;
    Counter n_accesses;
};

} // namespace cnsim

#endif // CNSIM_MEM_CROSSBAR_HH
