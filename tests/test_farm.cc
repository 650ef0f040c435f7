/**
 * @file
 * Tests for the sweep runner and its content-addressed cache
 * (src/farm/): the CellSpec content keys, the cache's integrity rules,
 * and how runSweep uses the cache -- a warm rerun computes nothing, a
 * re-budgeted rerun resumes every cell from cached warm state, audited
 * or metered cells warm themselves, cells that write files always run,
 * and every path returns the bytes an uncached run does.
 */

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "farm/cache.hh"
#include "farm/cell.hh"
#include "farm/sweep.hh"
#include "sample/checkpoint.hh"

namespace
{

using namespace cnsim;

/** Fresh per-test path under the build tree (Cache mkdir -p's). */
std::string
uniqueDir(const std::string &stem)
{
    static int counter = 0;
    return stem + "." + std::to_string(static_cast<long>(::getpid())) +
           "." + std::to_string(counter++);
}

/** A cell small enough that a full 7-org sweep stays sub-second. */
farm::CellSpec
quickSpec(L2Kind kind, std::uint64_t measure = 30'000)
{
    farm::CellSpec s;
    s.l2_kind = static_cast<std::uint32_t>(kind);
    s.cores = 2;
    s.workload = "oltp";
    s.warmup = 20'000;
    s.measure = measure;
    return s;
}

std::vector<farm::CellSpec>
quickGrid(std::uint64_t measure = 30'000)
{
    std::vector<farm::CellSpec> cells;
    for (L2Kind k : {L2Kind::Shared, L2Kind::Private, L2Kind::Snuca,
                     L2Kind::Ideal, L2Kind::Nurapid, L2Kind::Update,
                     L2Kind::Dnuca})
        cells.push_back(quickSpec(k, measure));
    return cells;
}

/** Byte-level result equality: what makes a cache hit
 *  indistinguishable from a recompute. */
void
expectSameResults(const std::vector<RunResult> &a,
                  const std::vector<RunResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(farm::serializeResult(a[i]),
                  farm::serializeResult(b[i]))
            << "cell " << i << " (" << a[i].l2_kind << "/"
            << a[i].workload << ")";
}

std::vector<RunResult>
runUncached(const std::vector<farm::CellSpec> &cells)
{
    return farm::runSweep(cells, farm::Cache(), 1).results;
}

// ---------------------------------------------------------------------
// CellSpec content keys
// ---------------------------------------------------------------------

TEST(FarmCell, EveryFieldMovesTheCellKey)
{
    // One row per CellSpec field: a change to it, and whether the field
    // shapes the warmed machine (so ckptKey must move too). A field
    // missing from cellKey is the one way the result cache can serve a
    // stale hit, so every new CellSpec field needs a row here.
    using S = farm::CellSpec;
    struct Row
    {
        const char *field;
        void (*change)(S &);
        bool warm_side;
    };
    const std::vector<Row> rows = {
        {"l2_kind",
         [](S &s) {
             s.l2_kind = static_cast<std::uint32_t>(L2Kind::Shared);
         },
         true},
        {"cores", [](S &s) { s.cores = 4; }, true},
        {"interconnect",
         [](S &s) {
             s.interconnect =
                 static_cast<std::uint32_t>(InterconnectKind::Mesh);
         },
         true},
        {"enable_cr", [](S &s) { s.enable_cr = 0; }, true},
        {"enable_isc", [](S &s) { s.enable_isc = 0; }, true},
        {"promotion", [](S &s) { s.promotion = 2; }, true},
        {"tag_factor", [](S &s) { s.tag_factor = 4; }, true},
        {"audit", [](S &s) { s.audit = 1; }, false},
        {"metrics_interval", [](S &s) { s.metrics_interval = 5'000; },
         false},
        {"binlog_out", [](S &s) { s.binlog_out = "run.blg"; }, false},
        {"workload", [](S &s) { s.workload = "apache"; }, true},
        {"warmup", [](S &s) { s.warmup += 1; }, true},
        {"measure", [](S &s) { s.measure += 1; }, false},
        {"quantum", [](S &s) { s.quantum += 1; }, true},
        {"seed", [](S &s) { s.seed = 2; }, true},
        {"sample_windows", [](S &s) { s.sample_windows = 3; }, true},
        {"sample_detail", [](S &s) { s.sample_detail = 1'000; }, false},
        {"sample_warmup", [](S &s) { s.sample_warmup = 2'000; }, false},
        {"collect_stats_dump", [](S &s) { s.collect_stats_dump = 1; },
         false},
        {"collect_stats_csv", [](S &s) { s.collect_stats_csv = 1; },
         false},
        {"trace_file", [](S &s) { s.trace_file = "oltp.trf"; }, false},
        {"ckpt_save", [](S &s) { s.ckpt_save = "a.ckpt"; }, false},
        {"ckpt_load", [](S &s) { s.ckpt_load = "b.ckpt"; }, false},
    };
    const S base = quickSpec(L2Kind::Nurapid);
    for (const Row &row : rows) {
        S s = base;
        row.change(s);
        EXPECT_NE(farm::cellKey(s), farm::cellKey(base)) << row.field;
        if (row.warm_side)
            EXPECT_NE(farm::ckptKey(s), farm::ckptKey(base)) << row.field;
        else
            EXPECT_EQ(farm::ckptKey(s), farm::ckptKey(base)) << row.field;
    }
    EXPECT_EQ(farm::keyString(0x1234abcdu).size(), 16u);
}

// ---------------------------------------------------------------------
// Content-addressed cache
// ---------------------------------------------------------------------

TEST(FarmCache, ResultRoundTripMissAndCorruptionRejection)
{
    farm::Cache cache(uniqueDir("farm_cache"));
    ASSERT_TRUE(cache.enabled());

    farm::CellSpec spec = quickSpec(L2Kind::Shared);
    std::uint64_t key = farm::cellKey(spec);
    RunResult out;
    EXPECT_FALSE(cache.loadResult(key, out));  // cold

    RunResult r;
    r.workload = "oltp";
    r.l2_kind = "shared";
    r.instructions = 123;
    r.cycles = 456;
    r.ipc = 0.27;
    r.core_ipc = {0.1, 0.2};
    cache.storeResult(key, r);
    ASSERT_TRUE(cache.loadResult(key, out));
    EXPECT_EQ(farm::serializeResult(out), farm::serializeResult(r));

    // A corrupted entry must be rejected (and removed) -- never
    // served, never fatal.
    std::string path = cache.entryPath('r', key);
    {
        std::ofstream out_f(path, std::ios::binary | std::ios::in);
        ASSERT_TRUE(out_f.is_open());
        out_f.seekp(-3, std::ios::end);
        out_f.put('\x7f');
    }
    EXPECT_FALSE(cache.loadResult(key, out));
    std::ifstream gone(path, std::ios::binary);
    EXPECT_FALSE(gone.is_open()) << "corrupt entry must be unlinked";

    // Recompute-and-store heals the slot.
    cache.storeResult(key, r);
    EXPECT_TRUE(cache.loadResult(key, out));

    // A disabled cache ("" directory) is inert on both sides.
    farm::Cache off;
    EXPECT_FALSE(off.enabled());
    EXPECT_FALSE(off.loadResult(key, out));
    off.storeResult(key, r);
}

TEST(FarmCache, CheckpointBlobsShareWarmedStateAcrossRuns)
{
    farm::Cache cache(uniqueDir("farm_ckpt_cache"));
    farm::CellSpec spec = quickSpec(L2Kind::Nurapid);
    const std::uint64_t ck = farm::ckptKey(spec);

    // Cold: no blob, so the cell warms in detail and publishes one.
    EXPECT_EQ(cache.loadCkpt(ck), nullptr);
    EXPECT_EQ(farm::runSweep({spec}, cache, 1).resumed, 0u);
    auto blob = cache.loadCkpt(ck);
    ASSERT_NE(blob, nullptr);
    EXPECT_TRUE(sample::Checkpoint::checksumOk(*blob));

    // A longer measurement shares the warmed state (ckptKey ignores
    // measure), resumes from it, and matches a run that warmed itself:
    // the restore-exactness contract.
    farm::CellSpec longer = quickSpec(L2Kind::Nurapid, 40'000);
    ASSERT_EQ(farm::ckptKey(longer), ck);
    farm::SweepResult resumed = farm::runSweep({longer}, cache, 1);
    EXPECT_EQ(resumed.resumed, 1u);
    expectSameResults(runUncached({longer}), resumed.results);

    // A corrupted blob is rejected non-fatally: the next cell warms
    // from scratch and publishes a fresh blob in its place.
    std::string path = cache.entryPath('c', ck);
    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream ss;
        ss << in.rdbuf();
        bytes = ss.str();
    }
    bytes[bytes.size() / 2] =
        static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }
    farm::CellSpec third = quickSpec(L2Kind::Nurapid, 50'000);
    farm::SweepResult healed = farm::runSweep({third}, cache, 1);
    EXPECT_EQ(healed.resumed, 0u);
    expectSameResults(runUncached({third}), healed.results);
    EXPECT_NE(cache.loadCkpt(ck), nullptr);
}

// ---------------------------------------------------------------------
// runSweep
// ---------------------------------------------------------------------

TEST(FarmSweep, WarmRerunComputesNothingAndLongerMeasureResumesEveryCell)
{
    farm::Cache cache(uniqueDir("farm_sweep"));
    const std::vector<farm::CellSpec> cells = quickGrid();

    farm::SweepResult cold = farm::runSweep(cells, cache, 4);
    EXPECT_EQ(cold.cached, 0u);
    EXPECT_EQ(cold.resumed, 0u);
    expectSameResults(runUncached(cells), cold.results);

    farm::SweepResult warm = farm::runSweep(cells, cache, 4);
    EXPECT_EQ(warm.cached, 7u);
    expectSameResults(cold.results, warm.results);

    // A longer measurement misses every result but shares every warmed
    // state: ckptKey ignores the measurement budget.
    const std::vector<farm::CellSpec> longer = quickGrid(45'000);
    farm::SweepResult resumed = farm::runSweep(longer, cache, 4);
    EXPECT_EQ(resumed.cached, 0u);
    EXPECT_EQ(resumed.resumed, 7u);
    expectSameResults(runUncached(longer), resumed.results);
}

TEST(FarmSweep, ObservedCellsWarmThemselves)
{
    // A plain sweep caches every warmed state. The auditor follows each
    // block from its first access and metrics rows sample the warm-up,
    // and a checkpoint restores neither, so the same grid with either
    // observer on must warm up again and match an uncached run.
    farm::Cache cache(uniqueDir("farm_observed"));
    farm::runSweep(quickGrid(), cache, 4);
    std::vector<farm::CellSpec> audited = quickGrid();
    for (farm::CellSpec &s : audited)
        s.audit = 1;
    std::vector<farm::CellSpec> metered = quickGrid();
    for (farm::CellSpec &s : metered)
        s.metrics_interval = 5'000;
    for (const std::vector<farm::CellSpec> &cells : {audited, metered}) {
        farm::SweepResult observed = farm::runSweep(cells, cache, 4);
        EXPECT_EQ(observed.cached, 0u);
        EXPECT_EQ(observed.resumed, 0u);
        expectSameResults(runUncached(cells), observed.results);
    }
}

TEST(FarmSweep, CellsThatWriteFilesAlwaysRun)
{
    farm::Cache cache(uniqueDir("farm_files"));
    farm::CellSpec spec = quickSpec(L2Kind::Shared);
    spec.binlog_out = uniqueDir("farm_files") + ".blg";
    EXPECT_EQ(farm::runSweep({spec}, cache, 1).cached, 0u);
    ASSERT_EQ(std::remove(spec.binlog_out.c_str()), 0);
    // Read back from the cache, the binlog would never be rewritten.
    EXPECT_EQ(farm::runSweep({spec}, cache, 1).cached, 0u);
    EXPECT_TRUE(std::ifstream(spec.binlog_out).good());
    std::remove(spec.binlog_out.c_str());
}

} // namespace
