#include "sim/parallel_runner.hh"

#ifdef __linux__
#include <sched.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <thread>
#include <utility>

#include "common/thread_annotations.hh"
#include "trace/replay.hh"

namespace cnsim
{

ParallelRunner::ParallelRunner(unsigned workers)
    : num_workers(workers ? workers : defaultWorkers())
{
}

unsigned
ParallelRunner::defaultWorkers()
{
#ifdef __linux__
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
#endif
    return std::max(1u, std::thread::hardware_concurrency());
}

std::size_t
ParallelRunner::submit(ParallelJob job)
{
    jobs.push_back(std::move(job));
    return jobs.size() - 1;
}

std::size_t
ParallelRunner::submit(const SystemConfig &sys_cfg,
                       const WorkloadSpec &workload,
                       const RunConfig &run_cfg)
{
    return submit(ParallelJob{sys_cfg, workload, run_cfg});
}

std::vector<RunResult>
ParallelRunner::run()
{
    std::vector<ParallelJob> batch;
    batch.swap(jobs);
    const std::size_t total = batch.size();
    std::vector<RunResult> results(total);
    if (total == 0)
        return results;

    // Attach shared streams serially, in submission order, before any
    // worker starts: acquisition order is then deterministic, and the
    // batch holds each trace for its whole lifetime (the cache keeps
    // entries alive only while referenced).
    auto stream = [](const ParallelJob &job) {
        return RecordedTrace::hashParams(
            Runner::effectiveSynthParams(job.workload, job.run_cfg));
    };
    std::map<std::uint64_t, unsigned> sharers;
    for (const ParallelJob &job : batch) {
        if (!job.run_cfg.replay)
            ++sharers[stream(job)];
    }
    for (ParallelJob &job : batch) {
        if (!job.run_cfg.replay && sharers[stream(job)] >= min_stream_sharers)
            job.run_cfg.replay =
                Runner::acquireSharedTrace(job.workload, job.run_cfg);
    }

    // Workers claim jobs by atomic index and write results into the
    // submission-order slot; no result ever depends on which worker or
    // in what order a job ran.
    std::atomic<std::size_t> next{0};
    /** Progress state every worker updates after finishing a job. */
    struct BatchState
    {
        Mutex done_mutex;
        std::size_t completed CNSIM_GUARDED_BY(done_mutex) = 0;
    };
    BatchState state;

    auto worker = [&]() {
        for (;;) {
            std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= total)
                return;
            // cnlint: allow(CNL-D002 wall-clock timing is progress
            // reporting only; simulation results never read it)
            auto start = std::chrono::steady_clock::now();
            results[i] = Runner::run(batch[i].sys_cfg, batch[i].workload,
                                     batch[i].run_cfg);
            // cnlint: allow(CNL-D002 wall-clock timing is progress
            // reporting only; simulation results never read it)
            auto finish = std::chrono::steady_clock::now();
            std::chrono::duration<double> elapsed = finish - start;
            MutexLock lock(state.done_mutex);
            ++state.completed;
            if (progress) {
                JobReport rep;
                rep.index = i;
                rep.completed = state.completed;
                rep.total = total;
                rep.seconds = elapsed.count();
                rep.job = &batch[i];
                rep.result = &results[i];
                progress(rep);
            }
        }
    };

    unsigned n = num_workers;
    if (static_cast<std::size_t>(n) > total)
        n = static_cast<unsigned>(total);
    if (n <= 1) {
        worker();
        return results;
    }
    std::vector<std::thread> pool;
    pool.reserve(n);
    for (unsigned t = 0; t < n; ++t)
        pool.emplace_back(worker);
    for (auto &th : pool)
        th.join();
    return results;
}

std::vector<RunResult>
ParallelRunner::runAll(std::vector<ParallelJob> batch, unsigned workers,
                       ProgressFn fn)
{
    ParallelRunner pr(workers);
    pr.onProgress(std::move(fn));
    for (auto &job : batch)
        pr.submit(std::move(job));
    return pr.run();
}

} // namespace cnsim
