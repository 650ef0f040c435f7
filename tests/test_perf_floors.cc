/**
 * @file
 * Paired same-host timing floors for the two speed claims the ledger
 * cannot see, because every ledger workload materializes its streams
 * and none of them samples:
 *
 * 1. A seven-organization sweep that materializes its shared stream
 *    once (one ParallelRunner batch) is not slower than seven runs
 *    that each generate the stream themselves. This is the rule
 *    ParallelRunner::min_stream_sharers encodes.
 * 2. Interval sampling from a shared checkpoint measures the seven
 *    organizations at least 6.5x faster than full detail, within 2%
 *    IPC of it.
 *
 * Each floor is a ratio of medians over arms that alternate within
 * every rep, so slow host drift hits both sides and the verdict does
 * not depend on the host's speed. The sampled arms run on every CPU
 * of the affinity mask (ParallelRunner's default); the stream arms run
 * on one thread. Obs stays off: its cost is gated by the ledger's
 * traced fig12-obs pass. ctest runs these tests alone (RUN_SERIAL,
 * label "perf"), and each prints its arm times and ratio.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "sim/parallel_runner.hh"
#include "sim/runner.hh"
#include "trace/replay.hh"
#include "trace/workloads.hh"

namespace cnsim
{
namespace
{

constexpr L2Kind all_orgs[] = {
    L2Kind::Shared, L2Kind::Private, L2Kind::Snuca, L2Kind::Ideal,
    L2Kind::Nurapid, L2Kind::Update, L2Kind::Dnuca,
};
constexpr std::size_t num_orgs = std::size(all_orgs);

double
nowSeconds()
{
    // cnlint: allow(CNL-D002 wall-clock timing is the measured
    // quantity here; simulation results never read it)
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Median of an odd number of reps. */
double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

/** oltp at 500k + 1M instructions per core, seed 1. */
RunConfig
sweepRun()
{
    RunConfig rc;
    rc.warmup_instructions = 500'000;
    rc.measure_instructions = 1'000'000;
    rc.seed = 1;
    return rc;
}

/** Seconds for one seven-org oltp sweep on one thread: one batch that
 *  materializes the stream once, or seven runs that each generate it. */
double
streamSweepSeconds(bool materialized)
{
    WorkloadSpec wl = workloads::byName("oltp");
    RunConfig rc = sweepRun();
    double t0 = nowSeconds();
    if (materialized) {
        ParallelRunner pool(1);
        for (L2Kind k : all_orgs)
            pool.submit(Runner::paperConfig(k), wl, rc);
        EXPECT_EQ(pool.run().size(), num_orgs);
    } else {
        for (L2Kind k : all_orgs)
            (void)Runner::run(Runner::paperConfig(k), wl, rc);
    }
    return nowSeconds() - t0;
}

TEST(PerfFloor, MaterializedStreamNotSlowerThanGenerating)
{
    constexpr int reps = 5;
    std::vector<double> generating, materialized;
    for (int i = 0; i < reps; ++i) {
        generating.push_back(streamSweepSeconds(false));
        materialized.push_back(streamSweepSeconds(true));
        std::printf("rep %d: generating %.3f s, materialized %.3f s\n",
                    i + 1, generating.back(), materialized.back());
    }
    double ratio = median(generating) / median(materialized);
    std::printf("generating/materialized, ratio of medians: %.3f "
                "(floor 1.0)\n",
                ratio);
    EXPECT_GE(ratio, 1.0);
}

/**
 * Seconds for one seven-org oltp measurement of 20M instructions per
 * core, each org resumed from its checkpoint in @p blobs, fully
 * detailed or as 8 sampled windows of 50k detailed instructions after
 * 100k functionally warmed. Fills @p ipc with each org's IPC.
 */
double
sampledSweepSeconds(
    const std::vector<std::shared_ptr<std::string>> &blobs,
    const std::shared_ptr<RecordedTrace> &trace, bool sampled,
    std::vector<double> &ipc)
{
    RunConfig rc = sweepRun();
    rc.warmup_instructions = 16'000'000;
    rc.measure_instructions = 20'000'000;
    rc.replay = trace;
    if (sampled) {
        rc.sample_windows = 8;
        rc.sample_detail = 50'000;
        rc.sample_warmup = 100'000;
    }
    ParallelRunner pool;
    WorkloadSpec wl = workloads::byName("oltp");
    for (std::size_t i = 0; i < num_orgs; ++i) {
        rc.ckpt_blob_in = blobs[i];
        pool.submit(Runner::paperConfig(all_orgs[i]), wl, rc);
    }
    double t0 = nowSeconds();
    std::vector<RunResult> results = pool.run();
    double secs = nowSeconds() - t0;
    ipc.clear();
    for (const RunResult &r : results)
        ipc.push_back(r.ipc);
    return secs;
}

TEST(PerfFloor, SampledSweep)
{
    // Warm every org once to steady state (16M instructions per core),
    // untimed, into an in-memory checkpoint that both arms resume
    // from, so warm-up cost cancels out of the ratio.
    WorkloadSpec wl = workloads::byName("oltp");
    RunConfig warm = sweepRun();
    warm.warmup_instructions = 16'000'000;
    warm.measure_instructions = 100'000;
    std::shared_ptr<RecordedTrace> trace = TraceCache::global().acquire(
        Runner::effectiveSynthParams(wl, warm));
    warm.replay = trace;
    std::vector<std::shared_ptr<std::string>> blobs;
    ParallelRunner warm_pool;
    for (L2Kind k : all_orgs) {
        warm.ckpt_blob_out = std::make_shared<std::string>();
        blobs.push_back(warm.ckpt_blob_out);
        warm_pool.submit(Runner::paperConfig(k), wl, warm);
    }
    ASSERT_EQ(warm_pool.run().size(), num_orgs);

    constexpr int reps = 3;
    std::vector<double> full, sampled, full_ipc, sampled_ipc;
    for (int i = 0; i < reps; ++i) {
        full.push_back(sampledSweepSeconds(blobs, trace, false, full_ipc));
        sampled.push_back(
            sampledSweepSeconds(blobs, trace, true, sampled_ipc));
        std::printf("rep %d: full %.3f s, sampled %.3f s\n", i + 1,
                    full.back(), sampled.back());
    }
    double max_err = 0.0;
    for (std::size_t i = 0; i < num_orgs; ++i) {
        double err = std::abs(sampled_ipc[i] - full_ipc[i]) / full_ipc[i];
        std::printf("%-8s IPC full %.4f, sampled %.4f, error %.3f%%\n",
                    toString(all_orgs[i]), full_ipc[i], sampled_ipc[i],
                    100.0 * err);
        max_err = std::max(max_err, err);
    }
    double ratio = median(full) / median(sampled);
    std::printf("full/sampled, ratio of medians: %.2f (floor 6.5) on "
                "%u workers; max IPC error %.3f%% (ceiling 2%%)\n",
                ratio, ParallelRunner::defaultWorkers(), 100.0 * max_err);
    EXPECT_LE(max_err, 0.02);
    EXPECT_GE(ratio, 6.5);
}

} // namespace
} // namespace cnsim
