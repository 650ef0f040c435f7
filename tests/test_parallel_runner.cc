/**
 * @file
 * Tests for the parallel experiment runner and the bench plumbing that
 * rides on it: determinism across worker counts (the load-bearing
 * guarantee -- a sweep must produce bit-identical results whether it
 * runs on 1 thread or 16), submission-order result collection,
 * progress reporting, the Welford-based variability statistics, and
 * benchutil::envU64's rejection of malformed budgets.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <vector>

#include "bench/bench_util.hh"
#include "sim/parallel_runner.hh"
#include "sim/runner.hh"

namespace cnsim
{
namespace
{

RunConfig
quickRun()
{
    RunConfig rc;
    rc.warmup_instructions = 200'000;
    rc.measure_instructions = 300'000;
    return rc;
}

/** The jobs every grid test uses: 2 organizations x 2 workloads. */
std::vector<ParallelJob>
testGrid()
{
    std::vector<ParallelJob> grid;
    for (L2Kind k : {L2Kind::Shared, L2Kind::Private})
        for (const char *w : {"oltp", "mix1"})
            grid.push_back(ParallelJob{Runner::paperConfig(k),
                                       workloads::byName(w), quickRun()});
    return grid;
}

void
expectIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.l2_kind, b.l2_kind);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.l2_accesses, b.l2_accesses);
    EXPECT_EQ(a.bus_transactions, b.bus_transactions);
    EXPECT_EQ(a.mem_reads, b.mem_reads);
    EXPECT_EQ(a.mem_writebacks, b.mem_writebacks);
    // Same instruction interleaving implies bit-identical arithmetic.
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
    EXPECT_DOUBLE_EQ(a.frac_hit, b.frac_hit);
    EXPECT_DOUBLE_EQ(a.frac_ros, b.frac_ros);
    EXPECT_DOUBLE_EQ(a.frac_rws, b.frac_rws);
    EXPECT_DOUBLE_EQ(a.frac_cap, b.frac_cap);
    EXPECT_DOUBLE_EQ(a.miss_rate, b.miss_rate);
    ASSERT_EQ(a.core_ipc.size(), b.core_ipc.size());
    for (std::size_t i = 0; i < a.core_ipc.size(); ++i)
        EXPECT_DOUBLE_EQ(a.core_ipc[i], b.core_ipc[i]);
}

TEST(ParallelRunner, MatchesSerialRunnerExactly)
{
    std::vector<ParallelJob> grid = testGrid();
    std::vector<RunResult> serial;
    for (const ParallelJob &j : grid)
        serial.push_back(Runner::run(j.sys_cfg, j.workload, j.run_cfg));

    std::vector<RunResult> parallel =
        ParallelRunner::runAll(grid, 4);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        expectIdentical(serial[i], parallel[i]);
}

TEST(ParallelRunner, OneWorkerMatchesManyWorkers)
{
    std::vector<RunResult> one = ParallelRunner::runAll(testGrid(), 1);
    std::vector<RunResult> many = ParallelRunner::runAll(testGrid(), 8);
    ASSERT_EQ(one.size(), many.size());
    for (std::size_t i = 0; i < one.size(); ++i)
        expectIdentical(one[i], many[i]);
}

TEST(ParallelRunner, ResultsInSubmissionOrder)
{
    std::vector<ParallelJob> grid = testGrid();
    std::vector<RunResult> results = ParallelRunner::runAll(grid, 4);
    ASSERT_EQ(results.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        EXPECT_EQ(results[i].workload, grid[i].workload.name);
        EXPECT_EQ(results[i].l2_kind,
                  toString(grid[i].sys_cfg.l2_kind));
    }
}

TEST(ParallelRunner, SubmitReturnsIndexAndPoolIsReusable)
{
    ParallelRunner pool(2);
    EXPECT_EQ(pool.submit(Runner::paperConfig(L2Kind::Shared),
                          workloads::byName("barnes"), quickRun()),
              0u);
    EXPECT_EQ(pool.submit(Runner::paperConfig(L2Kind::Private),
                          workloads::byName("barnes"), quickRun()),
              1u);
    EXPECT_EQ(pool.pending(), 2u);
    std::vector<RunResult> first = pool.run();
    EXPECT_EQ(first.size(), 2u);
    EXPECT_EQ(pool.pending(), 0u);

    // A second batch reuses the pool and indices restart at zero.
    EXPECT_EQ(pool.submit(Runner::paperConfig(L2Kind::Shared),
                          workloads::byName("barnes"), quickRun()),
              0u);
    std::vector<RunResult> second = pool.run();
    ASSERT_EQ(second.size(), 1u);
    expectIdentical(first[0], second[0]);
}

TEST(ParallelRunner, ReportsProgressForEveryJob)
{
    std::vector<ParallelJob> grid = testGrid();
    std::vector<std::size_t> completed_seq;
    std::vector<bool> seen(grid.size(), false);
    ParallelRunner pool(4);
    for (const ParallelJob &j : grid)
        pool.submit(j);
    pool.onProgress([&](const JobReport &rep) {
        // The callback runs under the runner's lock, so this is safe.
        completed_seq.push_back(rep.completed);
        EXPECT_LT(rep.index, grid.size());
        EXPECT_EQ(rep.total, grid.size());
        EXPECT_GE(rep.seconds, 0.0);
        ASSERT_NE(rep.job, nullptr);
        ASSERT_NE(rep.result, nullptr);
        EXPECT_EQ(rep.result->workload, rep.job->workload.name);
        seen[rep.index] = true;
    });
    pool.run();
    ASSERT_EQ(completed_seq.size(), grid.size());
    for (std::size_t i = 0; i < completed_seq.size(); ++i)
        EXPECT_EQ(completed_seq[i], i + 1);
    for (std::size_t i = 0; i < seen.size(); ++i)
        EXPECT_TRUE(seen[i]) << "no report for job " << i;
}

TEST(ParallelRunner, EmptyBatchReturnsEmpty)
{
    ParallelRunner pool(4);
    EXPECT_TRUE(pool.run().empty());
}

TEST(Variability, SameStatisticsForAnyWorkerCount)
{
    RunConfig rc;
    rc.warmup_instructions = 150'000;
    rc.measure_instructions = 250'000;
    SystemConfig cfg = Runner::paperConfig(L2Kind::Private);
    WorkloadSpec wl = workloads::byName("apache");
    VariabilityResult serial = Runner::runVariability(cfg, wl, rc, 4, 1);
    VariabilityResult parallel = Runner::runVariability(cfg, wl, rc, 4, 4);
    EXPECT_EQ(serial.runs, parallel.runs);
    EXPECT_DOUBLE_EQ(serial.mean_ipc, parallel.mean_ipc);
    EXPECT_DOUBLE_EQ(serial.stddev_ipc, parallel.stddev_ipc);
    EXPECT_DOUBLE_EQ(serial.min_ipc, parallel.min_ipc);
    EXPECT_DOUBLE_EQ(serial.max_ipc, parallel.max_ipc);
}

TEST(Variability, MatchesTwoPassSampleStatistics)
{
    RunConfig rc;
    rc.warmup_instructions = 150'000;
    rc.measure_instructions = 250'000;
    SystemConfig cfg = Runner::paperConfig(L2Kind::Private);
    WorkloadSpec wl = workloads::byName("apache");
    const int runs = 4;

    // Reference: the documented warm-once scheme run by hand -- every
    // repetition replays its own canonical seed-perturbed stream, the
    // first captures the warmed machine as an in-memory checkpoint and
    // the rest resume from it -- reduced with the textbook two-pass
    // sample (n-1) statistics.
    auto seeded = [&](int i) {
        RunConfig ri = rc;
        ri.seed = rc.seed + static_cast<std::uint64_t>(i) * 9973;
        ri.replay = TraceCache::global().acquire(
            Runner::effectiveSynthParams(wl, ri));
        return ri;
    };
    auto blob = std::make_shared<std::string>();
    RunConfig r0 = seeded(0);
    r0.ckpt_blob_out = blob;
    std::vector<double> ipcs{Runner::run(cfg, wl, r0).ipc};
    for (int i = 1; i < runs; ++i) {
        RunConfig ri = seeded(i);
        ri.ckpt_blob_in = blob;
        ipcs.push_back(Runner::run(cfg, wl, ri).ipc);
    }
    double mean = 0.0;
    for (double x : ipcs)
        mean += x;
    mean /= runs;
    double var = 0.0;
    for (double x : ipcs)
        var += (x - mean) * (x - mean);
    var /= runs - 1;

    VariabilityResult v = Runner::runVariability(cfg, wl, rc, runs);
    EXPECT_DOUBLE_EQ(v.mean_ipc, mean);
    EXPECT_NEAR(v.stddev_ipc, std::sqrt(var), 1e-12);
    EXPECT_EQ(v.min_ipc, *std::min_element(ipcs.begin(), ipcs.end()));
    EXPECT_EQ(v.max_ipc, *std::max_element(ipcs.begin(), ipcs.end()));
}

TEST(BenchUtil, EnvU64ParsesValidValues)
{
    ASSERT_EQ(unsetenv("CNSIM_TEST_BUDGET"), 0);
    EXPECT_EQ(benchutil::envU64("CNSIM_TEST_BUDGET", 42), 42u);
    ASSERT_EQ(setenv("CNSIM_TEST_BUDGET", "10000000", 1), 0);
    EXPECT_EQ(benchutil::envU64("CNSIM_TEST_BUDGET", 42), 10'000'000u);
    ASSERT_EQ(setenv("CNSIM_TEST_BUDGET", "0", 1), 0);
    EXPECT_EQ(benchutil::envU64("CNSIM_TEST_BUDGET", 42), 0u);
    unsetenv("CNSIM_TEST_BUDGET");
}

TEST(BenchUtilDeathTest, EnvU64RejectsMalformedValues)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // The historical bug: "10m" parsed as 10... no -- strtoull stopped
    // at 'm' and the caller never noticed, so CNSIM_MEASURE=10m ran a
    // near-empty measurement epoch. Now it must die loudly.
    ASSERT_EQ(setenv("CNSIM_TEST_BUDGET", "10m", 1), 0);
    EXPECT_DEATH(benchutil::envU64("CNSIM_TEST_BUDGET", 1), "10m");
    ASSERT_EQ(setenv("CNSIM_TEST_BUDGET", "", 1), 0);
    EXPECT_DEATH(benchutil::envU64("CNSIM_TEST_BUDGET", 1),
                 "not a valid unsigned integer");
    ASSERT_EQ(setenv("CNSIM_TEST_BUDGET", "99999999999999999999999", 1),
              0);
    EXPECT_DEATH(benchutil::envU64("CNSIM_TEST_BUDGET", 1),
                 "overflows 64 bits");
    unsetenv("CNSIM_TEST_BUDGET");
}

TEST(BenchUtil, AuditSwitchAuditsEveryCell)
{
    ASSERT_EQ(setenv("CNSIM_WARMUP", "20000", 1), 0);
    ASSERT_EQ(setenv("CNSIM_MEASURE", "30000", 1), 0);
    const SystemConfig cfg = Runner::paperConfig(L2Kind::Private);

    unsetenv("CNSIM_AUDIT");
    RunResult plain = benchutil::run("audit-off", cfg, "barnes");
    ASSERT_EQ(setenv("CNSIM_AUDIT", "1", 1), 0);
    benchutil::runAll({benchutil::job("audit-grid", cfg, "barnes")});
    RunResult grid = benchutil::run("audit-grid", cfg, "barnes");
    RunResult single = benchutil::run("audit-single", cfg, "barnes");

    // Both bench paths audit, and auditing changes no result.
    EXPECT_EQ(plain.audited_transitions, 0u);
    EXPECT_GT(grid.audited_transitions, 0u);
    EXPECT_EQ(single.audited_transitions, grid.audited_transitions);
    EXPECT_EQ(grid.cycles, plain.cycles);
    EXPECT_EQ(grid.stats_dump, plain.stats_dump);

    unsetenv("CNSIM_AUDIT");
    unsetenv("CNSIM_WARMUP");
    unsetenv("CNSIM_MEASURE");
}

TEST(BenchUtilDeathTest, AuditSwitchRejectsOtherValues)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ASSERT_EQ(setenv("CNSIM_AUDIT", "2", 1), 0);
    EXPECT_DEATH(benchutil::auditedFromEnv(SystemConfig{}),
                 "CNSIM_AUDIT=2 must be 0 or 1");
    ASSERT_EQ(setenv("CNSIM_AUDIT", "on", 1), 0);
    EXPECT_DEATH(benchutil::auditedFromEnv(SystemConfig{}),
                 "not a valid unsigned integer");
    unsetenv("CNSIM_AUDIT");
}

TEST(BenchUtil, GridCacheReturnsIdenticalResults)
{
    // Keep the bench budget test-sized.
    ASSERT_EQ(setenv("CNSIM_WARMUP", "200000", 1), 0);
    ASSERT_EQ(setenv("CNSIM_MEASURE", "300000", 1), 0);

    // Prewarm via the parallel path, then read through the cache; the
    // cached result must equal a direct serial run.
    benchutil::runAll({benchutil::job(L2Kind::Shared, "barnes")});
    RunResult cached = benchutil::run(L2Kind::Shared, "barnes");
    RunResult direct = Runner::run(Runner::paperConfig(L2Kind::Shared),
                                   workloads::byName("barnes"),
                                   benchutil::runConfig());
    expectIdentical(cached, direct);

    unsetenv("CNSIM_WARMUP");
    unsetenv("CNSIM_MEASURE");
}

} // namespace
} // namespace cnsim
