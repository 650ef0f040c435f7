/**
 * @file
 * Shared plumbing for the per-figure bench binaries: run-budget
 * handling, parallel grid execution with a result cache shared across
 * configurations, and paper-style table printing.
 *
 * Budgets and parallelism scale with environment variables:
 *   CNSIM_WARMUP   warm-up instructions per core (default 6M)
 *   CNSIM_MEASURE  measured instructions per core (default 10M)
 *   CNSIM_JOBS     worker threads for grid sweeps (default: one per CPU
 *                  this process may run on)
 *   CNSIM_AUDIT    1 runs every cell under the online protocol auditor
 *                  (default 0); a violation panics, and the printed
 *                  figures are the same either way
 *
 * The intended bench structure is: build the full experiment grid as
 * GridJobs, prewarm it once with runAll() (which fans the independent
 * simulations out over a ParallelRunner), then print using run(),
 * which hits the cache. Results are bit-identical for any CNSIM_JOBS
 * value, including 1.
 */

#ifndef CNSIM_BENCH_BENCH_UTIL_HH
#define CNSIM_BENCH_BENCH_UTIL_HH

#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "sim/parallel_runner.hh"
#include "sim/runner.hh"

namespace cnsim
{
namespace benchutil
{

/**
 * Read an unsigned integer from the environment. The whole value must
 * parse: rejecting "10m"-style suffixes loudly beats silently running
 * a 0-instruction measurement epoch.
 */
inline std::uint64_t
envU64(const char *name, std::uint64_t dflt)
{
    const char *v = std::getenv(name);
    if (!v)
        return dflt;
    errno = 0;
    char *end = nullptr;
    unsigned long long parsed = std::strtoull(v, &end, 10);
    if (end == v || *end != '\0')
        panic("%s='%s' is not a valid unsigned integer", name, v);
    if (errno == ERANGE)
        panic("%s='%s' overflows 64 bits", name, v);
    return parsed;
}

inline RunConfig
runConfig()
{
    RunConfig rc;
    rc.warmup_instructions = envU64("CNSIM_WARMUP", 6'000'000);
    rc.measure_instructions = envU64("CNSIM_MEASURE", 10'000'000);
    return rc;
}

/** Worker threads for grid sweeps (0 = one per CPU this process may
 *  run on). */
inline unsigned
jobsFromEnv()
{
    return static_cast<unsigned>(envU64("CNSIM_JOBS", 0));
}

/** @p cfg, with the protocol auditor turned on if CNSIM_AUDIT=1. */
inline SystemConfig
auditedFromEnv(SystemConfig cfg)
{
    std::uint64_t audit = envU64("CNSIM_AUDIT", 0);
    if (audit > 1)
        panic("CNSIM_AUDIT=%" PRIu64 " must be 0 or 1", audit);
    if (audit)
        cfg.obs.audit = true;
    return cfg;
}

/**
 * One (configuration, workload) cell of an experiment grid. The tag
 * names the configuration in the result cache and in progress output,
 * so it must be unique per distinct configuration within a binary
 * ("shared", "CR", "4MB/nurapid", ...).
 */
struct GridJob
{
    std::string tag;
    SystemConfig cfg;
    std::string workload;
};

/** Grid cell for a stock paper configuration. */
inline GridJob
job(L2Kind kind, const std::string &workload)
{
    return GridJob{toString(kind), Runner::paperConfig(kind), workload};
}

/** Grid cell for a custom configuration named by @p tag. */
inline GridJob
job(const std::string &tag, const SystemConfig &cfg,
    const std::string &workload)
{
    return GridJob{tag, cfg, workload};
}

namespace detail
{

struct ResultCache
{
    std::mutex mutex;
    std::map<std::string, RunResult> results;
};

inline ResultCache &
cache()
{
    static ResultCache c;
    return c;
}

inline std::string
key(const std::string &tag, const std::string &workload)
{
    return tag + "/" + workload;
}

inline bool
lookup(const std::string &k, RunResult &out)
{
    ResultCache &c = cache();
    std::lock_guard<std::mutex> lock(c.mutex);
    auto it = c.results.find(k);
    if (it == c.results.end())
        return false;
    out = it->second;
    return true;
}

inline void
store(const std::string &k, const RunResult &r)
{
    ResultCache &c = cache();
    std::lock_guard<std::mutex> lock(c.mutex);
    c.results.emplace(k, r);
}

} // namespace detail

/**
 * Run every grid cell not already cached, fanned out over a
 * ParallelRunner (CNSIM_JOBS workers), and cache the results; a
 * per-job progress line with elapsed time goes to stderr. Subsequent
 * run() calls for these cells are cache hits, so the printing loops
 * stay serial and deterministic.
 */
inline void
runAll(const std::vector<GridJob> &grid)
{
    std::vector<const GridJob *> todo;
    RunResult scratch;
    for (const GridJob &g : grid) {
        if (!detail::lookup(detail::key(g.tag, g.workload), scratch))
            todo.push_back(&g);
    }
    if (todo.empty())
        return;

    // Bench grids vary the system configuration over a fixed workload
    // set, so the pool materializes each workload's stream once and
    // every cell of that workload reads it.
    ParallelRunner pool(jobsFromEnv());
    for (const GridJob *g : todo)
        pool.submit(auditedFromEnv(g->cfg), workloads::byName(g->workload),
                    runConfig());
    pool.onProgress([&](const JobReport &rep) {
        inform("[%zu/%zu] %s/%s: %.1fs", rep.completed, rep.total,
               todo[rep.index]->tag.c_str(),
               todo[rep.index]->workload.c_str(), rep.seconds);
    });
    std::vector<RunResult> results = pool.run();
    for (std::size_t i = 0; i < todo.size(); ++i)
        detail::store(detail::key(todo[i]->tag, todo[i]->workload),
                      results[i]);
}

/** Prewarm the full @p kinds x @p workload_names grid. */
inline void
runAll(const std::vector<L2Kind> &kinds,
       const std::vector<std::string> &workload_names)
{
    std::vector<GridJob> grid;
    for (L2Kind k : kinds)
        for (const auto &w : workload_names)
            grid.push_back(job(k, w));
    runAll(grid);
}

/** Run one custom-config cell under the bench budget (cached by tag). */
inline RunResult
run(const std::string &tag, const SystemConfig &cfg,
    const std::string &workload)
{
    std::string k = detail::key(tag, workload);
    RunResult r;
    if (detail::lookup(k, r))
        return r;
    r = Runner::run(auditedFromEnv(cfg), workloads::byName(workload),
                    runConfig());
    detail::store(k, r);
    return r;
}

/** Run one (kind, workload) pair under the bench budget (cached). */
inline RunResult
run(L2Kind kind, const std::string &workload)
{
    return run(toString(kind), Runner::paperConfig(kind), workload);
}

inline void
header(const std::string &title, const std::string &paper_ref)
{
    std::printf("==============================================================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("Reproduces: %s\n", paper_ref.c_str());
    std::printf("==============================================================================\n");
}

inline void
note(const std::string &text)
{
    std::printf("%s\n", text.c_str());
}

/** Geometric mean over a vector of ratios. */
inline double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : v)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(v.size()));
}

/** Arithmetic mean. */
inline double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += x;
    return s / static_cast<double>(v.size());
}

} // namespace benchutil
} // namespace cnsim

#endif // CNSIM_BENCH_BENCH_UTIL_HH
