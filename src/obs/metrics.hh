/**
 * @file
 * Hierarchical metrics registry with interval snapshots.
 *
 * Named counters and gauges are grouped by dotted component path
 * ("l2.nurapid.core0.tag", "mem.bus"). The registry samples every
 * registered metric at a configurable tick interval and renders the
 * resulting time-series as CSV, so benches can plot warm-up behaviour
 * (DESIGN.md 3b calibration) next to the end-of-run stats block.
 *
 * The registry does not own counters: components keep their existing
 * Counter members and the registry holds read-only accessors,
 * so there is no hot-path cost beyond what the stats package already
 * pays. Like the TraceSink it is per-System state -- never global --
 * preserving the ParallelRunner determinism contract.
 */

#ifndef CNSIM_OBS_METRICS_HH
#define CNSIM_OBS_METRICS_HH

#include <functional>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace cnsim
{
namespace obs
{

class BinlogWriter;

/** A time-series registry of named counters and gauges. */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;

    /** Track @p c under @p path (dotted component path). */
    void addCounter(const std::string &path, const Counter *c);

    /** Track the value of @p fn under @p path (derived gauge). */
    void addGauge(const std::string &path, std::function<double()> fn);

    /**
     * Track every counter registered in @p group, with
     * @p prefix prepended to each stat name.
     */
    void importStatGroup(const StatGroup &group,
                         const std::string &prefix = "");

    /** Set the snapshot interval in ticks (0 disables tick()). */
    void setInterval(Tick interval) { _interval = interval; }

    Tick interval() const { return _interval; }

    /**
     * Called periodically with the current tick; takes a snapshot
     * whenever a full interval has elapsed since the last one. Safe to
     * call more often than the interval.
     */
    void tick(Tick now);

    /** Take a snapshot unconditionally (start/end of measurement). */
    void snapshot(Tick now);

    /**
     * Close out the time-series at the end of the run: emits the
     * trailing partial-interval snapshot so the final ticks of a run
     * are never silently missing from the CSV (a run whose length is
     * not a multiple of the interval still gets a last row at @p now).
     */
    void finish(Tick now) { snapshot(now); }

    /**
     * Stream every snapshot row to @p w (one MetricValue record per
     * column) in addition to the in-memory time-series. Rows taken
     * while the writer is not active stay in-memory only.
     */
    void setBinlog(BinlogWriter *w) { binlog = w; }

    /** @return number of registered metrics (columns). */
    std::size_t numMetrics() const { return paths.size(); }

    /** @return number of snapshots taken so far (rows). */
    std::size_t numSnapshots() const { return rows.size(); }

    /** @return registered metric paths, in column order. */
    const std::vector<std::string> &metricPaths() const { return paths; }

    /** @return the latest sampled value of metric @p path. */
    double latest(const std::string &path) const;

    /**
     * @return the sum of the latest sampled values of every metric
     * whose path starts with "@p prefix." (or equals @p prefix) --
     * hierarchical roll-up, e.g. total("l2.nurapid").
     */
    double total(const std::string &prefix) const;

    /**
     * Render the time-series as CSV: a "tick,<path>,..." header and
     * one row per snapshot. Counter columns are cumulative values at
     * the snapshot tick (they drop to zero at the measurement epoch
     * when stats are reset).
     */
    std::string csv() const;

  private:
    struct Row
    {
        Tick tick;
        std::vector<double> values;
    };

    int indexOf(const std::string &path) const;

    std::vector<std::string> paths;
    std::vector<std::function<double()>> samplers;
    std::vector<Row> rows;
    BinlogWriter *binlog = nullptr;
    Tick _interval = 0;
    Tick last_snapshot = 0;
    bool have_snapshot = false;
};

} // namespace obs
} // namespace cnsim

#endif // CNSIM_OBS_METRICS_HH
