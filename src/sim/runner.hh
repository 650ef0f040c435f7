/**
 * @file
 * The experiment runner: executes one workload on one system
 * configuration and harvests every statistic the paper's figures need.
 *
 * Following the paper's methodology, a run warms the caches for a
 * fixed instruction budget, resets all statistics, and then measures
 * until the first core retires the measurement budget (the paper runs
 * "until at least one core completes 1 billion instructions"; the
 * budget here is scaled down and configurable). Optional random
 * perturbation of memory timing across repeated runs reproduces the
 * multithreaded-variability treatment of Alameldeen & Wood [1].
 */

#ifndef CNSIM_SIM_RUNNER_HH
#define CNSIM_SIM_RUNNER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/reuse_tracker.hh"
#include "sim/system.hh"
#include "trace/replay.hh"
#include "trace/workloads.hh"

namespace cnsim
{

/** Run-control parameters. */
struct RunConfig
{
    /** Warm-up instructions per core before stats reset. */
    std::uint64_t warmup_instructions = 3'000'000;
    /** Measurement ends when the first core retires this many. */
    std::uint64_t measure_instructions = 5'000'000;
    /** Event-queue polling quantum (ticks between budget checks). */
    Tick quantum = 20'000;
    /** Seed for workload generation and tie-break perturbation. */
    std::uint64_t seed = 1;
    /** Collect the full statistics dump into RunResult::stats_dump. */
    bool collect_stats_dump = false;
    /** Collect the statistics CSV into RunResult::stats_csv. */
    bool collect_stats_csv = false;
    /** Stream events + metrics to this CNBLG002 binary log ("" = off).
     *  Setting this implies SystemConfig::obs.binlog_out. */
    std::string binlog_out;
    /**
     * Drive the cores from this trace (trace/replay.hh): a captured
     * CNTRF001 file, or a materialized canonical stream shared across
     * cells. The trace's core count must match the system's; the
     * workload's synthetic params are bypassed. Unset, the run reads
     * its canonical stream from TraceCache when some holder keeps it
     * live there, and otherwise generates it (CanonicalWorkload); the
     * records are the same either way.
     */
    std::shared_ptr<RecordedTrace> replay;

    /**
     * Interval sampling: > 0 replaces the single detailed measurement
     * with this many detailed windows separated by decode-only
     * fast-forward, warm-up running functionally (caches and coherence
     * warmed, no timing). The result carries the window-mean IPC with
     * a Student-t 95% confidence half-width (RunResult::ipc_ci95) at a
     * fraction of the detailed cost.
     */
    unsigned sample_windows = 0;
    /** Measured instructions per window; 0 derives
     *  measure_instructions / (sample_windows * 16). */
    std::uint64_t sample_detail = 0;
    /** Functionally-warmed instructions before each window's detailed
     *  ramp; 0 derives sample_detail. */
    std::uint64_t sample_warmup = 0;

    /** Save the post-warm-up machine state here as a CNCKPT01
     *  checkpoint ("" = none). */
    std::string ckpt_save;
    /** Resume from this CNCKPT01 checkpoint instead of warming up
     *  ("" = none; strict trace-hash match). */
    std::string ckpt_load;
    /**
     * In-memory checkpoint to resume from (runVariability's warm
     * sharing). The trace-provenance check is relaxed: each seed
     * replays its own canonical stream, positionally interchangeable
     * with the one that warmed the checkpoint.
     */
    std::shared_ptr<const std::string> ckpt_blob_in;
    /** When set, receives the serialized post-warm-up checkpoint. */
    std::shared_ptr<std::string> ckpt_blob_out;
};

/** Everything measured by one run. */
struct RunResult
{
    std::string workload;
    std::string l2_kind;

    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    /** Events executed by the kernel over the whole run (1 per trace
     *  record per core, plus startup) -- the perf-gate "accesses"
     *  denominator. */
    std::uint64_t events_executed = 0;
    /** Aggregate IPC across all cores over the measurement epoch (the
     *  window mean for sampled runs). */
    double ipc = 0.0;
    std::vector<double> core_ipc;

    /** True when interval sampling produced this result. */
    bool sampled = false;
    /** Aggregate IPC of each measured window (sampled runs only). */
    std::vector<double> window_ipc;
    /** Student-t 95% confidence half-width on ipc over the windows
     *  (sampled runs only; 0 otherwise). */
    double ipc_ci95 = 0.0;

    std::uint64_t l2_accesses = 0;
    double frac_hit = 0.0;
    double frac_ros = 0.0;
    double frac_rws = 0.0;
    double frac_cap = 0.0;
    double miss_rate = 0.0;

    /** CMP-NuRAPID only: fraction of hits in the closest d-group. */
    double closest_hit_frac = 0.0;
    /** CMP-NuRAPID only: fraction of all accesses hitting closest. */
    double closest_access_frac = 0.0;

    /** Event counts for the energy model (bench/energy_comparison). */
    std::uint64_t bus_transactions = 0;
    std::uint64_t mem_reads = 0;
    std::uint64_t mem_writebacks = 0;

    /** Private caches only: Figure-7 reuse buckets. */
    ReuseBuckets ros_reuse;
    ReuseBuckets rws_reuse;

    /** Full statistics text (when RunConfig::collect_stats_dump). */
    std::string stats_dump;

    /** Statistics CSV (when RunConfig::collect_stats_csv). */
    std::string stats_csv;

    /** Metrics time-series CSV (when obs.metrics_interval > 0). */
    std::string metrics_csv;

    /** Records streamed to the binlog over the measurement epoch
     *  (events and metrics samples). */
    std::uint64_t trace_events = 0;

    /** Always 0: no event is dropped on its way to the binlog. Kept
     *  while ledger/ still reads it. */
    std::uint64_t trace_dropped = 0;

    /** Transitions checked by the auditor (when obs.audit). */
    std::uint64_t audited_transitions = 0;
};

/** Mean and spread of a metric across perturbed runs. */
struct VariabilityResult
{
    double mean_ipc = 0.0;
    double stddev_ipc = 0.0;
    double min_ipc = 0.0;
    double max_ipc = 0.0;
    int runs = 0;
};

/** Runs workloads against system configurations. */
class Runner
{
  public:
    /** Execute @p workload on @p sys_cfg under @p run_cfg. */
    static RunResult run(const SystemConfig &sys_cfg,
                         const WorkloadSpec &workload,
                         const RunConfig &run_cfg = RunConfig{});

    /**
     * Execute @p runs perturbed repetitions (distinct seeds draw
     * distinct streams, perturbing memory-system timing) and report
     * the IPC spread -- the multithreaded-variability treatment of
     * Alameldeen & Wood [1] that the paper's methodology follows
     * (Section 4.3).
     *
     * The caches are warmed exactly once: the first repetition runs its
     * warm-up and captures an in-memory checkpoint, and every other
     * repetition resumes from it (each replaying its own canonical
     * seed-perturbed stream, positionally interchangeable with the
     * warming one), so N repetitions pay one warm-up instead of N.
     *
     * The repetitions are independent and fan out over @p jobs worker
     * threads (0 = hardware concurrency); the per-repetition seeds and
     * the reported statistics are identical for every @p jobs value.
     * The spread uses Welford's online algorithm with the sample (n-1)
     * variance, which is numerically stable for the tightly clustered
     * IPCs perturbation produces.
     */
    static VariabilityResult runVariability(
        const SystemConfig &sys_cfg, const WorkloadSpec &workload,
        const RunConfig &run_cfg = RunConfig{}, int runs = 5,
        unsigned jobs = 0);

    /**
     * Build the paper's Section-4 system configuration for @p kind
     * (Table 1 latencies, 8 MB L2, 4 cores).
     */
    static SystemConfig paperConfig(L2Kind kind);

    /**
     * The @p cores-core generalization of the Section-4 platform over
     * interconnect @p icn: 2 MB of L2 per core (one d-group per core
     * for CMP-NuRAPID), array and bus latencies re-derived from
     * CactiLite at the scaled capacity. @p cores = 4 with a bus
     * reproduces paperConfig(kind) exactly.
     */
    static SystemConfig paperConfig(L2Kind kind, int cores,
                                    InterconnectKind icn);

    /**
     * Check the user-supplied parts of a run request -- workload
     * thread count vs. system cores, replay-trace core count, core
     * count within the sharer-bitset limit -- and fatal() (a clean
     * user-error exit, never a panicking backtrace) on a mismatch.
     * run() calls this itself; CLIs may call it earlier to fail before
     * building anything.
     */
    static void validate(const SystemConfig &sys_cfg,
                         const WorkloadSpec &workload,
                         const RunConfig &run_cfg);

    /**
     * The *effective* synthetic parameters a run would generate with:
     * the workload's params with the run seed mixed in, exactly as
     * run() does internally. This is the key under which grid drivers
     * share RecordedTraces across cells (TraceCache::acquire).
     */
    static SynthWorkloadParams
    effectiveSynthParams(const WorkloadSpec &workload,
                         const RunConfig &run_cfg);

    /**
     * The process-wide materialized canonical stream for this
     * (workload, run) pair, acquired from TraceCache under the
     * effectiveSynthParams key. While the caller holds it, every run
     * of that pair reads it (ParallelRunner's shared streams, the
     * CLI's capture). Callers outside the trace layer use this instead
     * of touching TraceCache directly, so the sharing key stays in one
     * place.
     */
    static std::shared_ptr<RecordedTrace>
    acquireSharedTrace(const WorkloadSpec &workload,
                       const RunConfig &run_cfg);
};

} // namespace cnsim

#endif // CNSIM_SIM_RUNNER_HH
