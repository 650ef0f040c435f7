/**
 * @file
 * Parallel experiment execution: fans independent Runner::run jobs out
 * over a fixed-size thread pool.
 *
 * Every paper figure is a grid of independent simulations over
 * (L2 organization x workload x seed); a full sweep is embarrassingly
 * parallel. The ParallelRunner exploits that without perturbing the
 * science: each job is a pure function of its (SystemConfig,
 * WorkloadSpec, RunConfig) triple -- the per-job seeding scheme is
 * exactly the serial path's -- so the RunResults are bit-identical
 * regardless of worker count or completion order, and they are always
 * returned in submission order.
 *
 * Thread-safety contract: a job must not touch process-global mutable
 * state other than the three pieces made safe for it. The logging
 * quiet flag and stderr stream are thread-safe (common/logging.cc).
 * TraceCache::global(), which every worker's Runner::run reads to find
 * or share its materialized stream, is guarded by a mutex. And
 * sample::WarmScope's depth is thread_local, so one worker's
 * functional warming never reaches another. System, SynthWorkload,
 * EventQueue, Rng, and StatGroup are all per-job instances.
 */

#ifndef CNSIM_SIM_PARALLEL_RUNNER_HH
#define CNSIM_SIM_PARALLEL_RUNNER_HH

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "sim/runner.hh"

namespace cnsim
{

/** One independent simulation: the arguments of a Runner::run call. */
struct ParallelJob
{
    SystemConfig sys_cfg;
    WorkloadSpec workload;
    RunConfig run_cfg;
};

/** Per-job completion report, delivered to the progress callback. */
struct JobReport
{
    /** Submission-order index of the finished job. */
    std::size_t index = 0;
    /** Jobs finished so far, including this one. */
    std::size_t completed = 0;
    /** Total jobs in this batch. */
    std::size_t total = 0;
    /** Wall-clock seconds this job took. */
    double seconds = 0.0;
    /** The finished job's parameters (valid during the callback). */
    const ParallelJob *job = nullptr;
    /** The finished job's result (valid during the callback). */
    const RunResult *result = nullptr;
};

/**
 * A fixed-size thread pool executing batches of independent
 * Runner::run jobs.
 *
 * Usage: submit() jobs (ids are submission-order indices), then run()
 * to execute the batch and collect results in submission order. The
 * runner is reusable: after run() returns, the pending list is empty
 * and new jobs can be submitted.
 */
class ParallelRunner
{
  public:
    /**
     * Called under an internal lock whenever a job completes, so
     * callbacks may print without interleaving. Completion order is
     * nondeterministic; JobReport::index identifies the job.
     */
    using ProgressFn = std::function<void(const JobReport &)>;

    /** @param workers thread count; 0 means defaultWorkers(). */
    explicit ParallelRunner(unsigned workers = 0);

    /** Queue one job; @return its submission-order index. */
    std::size_t submit(ParallelJob job);

    /** Queue one job from Runner::run's argument triple. */
    std::size_t submit(const SystemConfig &sys_cfg,
                       const WorkloadSpec &workload,
                       const RunConfig &run_cfg = RunConfig{});

    /** Install a per-job completion callback (may be empty). */
    void onProgress(ProgressFn fn) { progress = std::move(fn); }

    /**
     * Execute every pending job and @return their results in
     * submission order (results[i] belongs to the job submit()
     * returned i for), bit-identical to a serial Runner::run loop.
     *
     * Every stream that min_stream_sharers or more jobs without a
     * RunConfig::replay draw is materialized once (TraceCache) and
     * held until run() returns; each of those jobs reads it, and each
     * other job generates its own stream (Runner::run). The records
     * are the same either way.
     */
    std::vector<RunResult> run();

    /** Configured worker-thread count. */
    unsigned workers() const { return num_workers; }

    /** Number of jobs currently queued. */
    std::size_t pending() const { return jobs.size(); }

    /**
     * The CPUs this process may run on: the affinity mask's count on
     * Linux (so `taskset -c 2` gives 1), else
     * std::thread::hardware_concurrency; at least 1.
     */
    static unsigned defaultWorkers();

    /** One-shot convenience: submit @p batch, run, return results. */
    static std::vector<RunResult> runAll(std::vector<ParallelJob> batch,
                                         unsigned workers = 0,
                                         ProgressFn fn = nullptr);

  private:
    /**
     * Fewest jobs drawing one stream for which run() materializes it.
     * Materializing pays the generator once plus one flat-chunk read
     * per sharer; generating pays the generator per sharer, so with
     * the read cheaper than the generator materializing wins from two
     * sharers up. PerfFloor.MaterializedStreamNotSlowerThanGenerating
     * holds seven oltp sharers materialized at least as fast as seven
     * generating runs; it measured 1.2-1.5x on a 4-CPU Xeon. A lone
     * job's stream is below the break-even, so it is generated.
     */
    static constexpr unsigned min_stream_sharers = 2;

    unsigned num_workers;
    std::vector<ParallelJob> jobs;
    ProgressFn progress;
};

} // namespace cnsim

#endif // CNSIM_SIM_PARALLEL_RUNNER_HH
