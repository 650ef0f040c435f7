/**
 * @file
 * Unit tests for the obs::MetricsRegistry time-series registry:
 * counter/gauge sampling, interval-driven snapshots, StatGroup import,
 * hierarchical roll-up, and the CSV rendering.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/stats.hh"
#include "obs/metrics.hh"

namespace cnsim
{
namespace
{

TEST(MetricsRegistry, CountersAndGaugesSample)
{
    Counter hits;
    double level = 1.5;
    obs::MetricsRegistry reg;
    reg.addCounter("l2.hits", &hits);
    reg.addGauge("l2.occupancy", [&]() { return level; });
    EXPECT_EQ(reg.numMetrics(), 2u);

    hits.inc(3);
    reg.snapshot(100);
    EXPECT_EQ(reg.latest("l2.hits"), 3.0);
    EXPECT_EQ(reg.latest("l2.occupancy"), 1.5);

    hits.inc(2);
    level = 4.0;
    reg.snapshot(200);
    EXPECT_EQ(reg.latest("l2.hits"), 5.0);
    EXPECT_EQ(reg.latest("l2.occupancy"), 4.0);
    EXPECT_EQ(reg.numSnapshots(), 2u);
}

TEST(MetricsRegistry, TickHonoursInterval)
{
    Counter c;
    obs::MetricsRegistry reg;
    reg.addCounter("c", &c);
    reg.setInterval(100);

    reg.tick(0);    // first tick establishes the baseline snapshot
    reg.tick(40);   // not yet
    reg.tick(90);   // not yet
    std::size_t after_sub_interval = reg.numSnapshots();
    reg.tick(120);  // crossed one interval
    EXPECT_EQ(reg.numSnapshots(), after_sub_interval + 1);
    reg.tick(130);  // within the next interval
    EXPECT_EQ(reg.numSnapshots(), after_sub_interval + 1);
    reg.tick(500);  // crossed again (late tick still snapshots once)
    EXPECT_EQ(reg.numSnapshots(), after_sub_interval + 2);
}

TEST(MetricsRegistry, ZeroIntervalDisablesTick)
{
    Counter c;
    obs::MetricsRegistry reg;
    reg.addCounter("c", &c);
    reg.tick(100);
    reg.tick(10000);
    EXPECT_EQ(reg.numSnapshots(), 0u);
    reg.snapshot(1);  // explicit snapshots still work
    EXPECT_EQ(reg.numSnapshots(), 1u);
}

TEST(MetricsRegistry, ImportStatGroupTracksEverything)
{
    Counter reads, writes;
    StatGroup g("sys");
    g.addCounter("mem.reads", &reads, "reads");
    g.addCounter("mem.writes", &writes, "writes");

    obs::MetricsRegistry reg;
    reg.importStatGroup(g);
    EXPECT_EQ(reg.numMetrics(), 2u);

    reads.inc(7);
    reg.snapshot(10);
    EXPECT_EQ(reg.latest("mem.reads"), 7.0);

    // Roll-up sums every metric under the prefix.
    writes.inc(4);
    reg.snapshot(20);
    EXPECT_EQ(reg.total("mem"), 11.0);
}

TEST(MetricsRegistry, FinishEmitsTrailingPartialInterval)
{
    // Regression: tick() only snapshots on full intervals, so a run
    // whose length is not a multiple of the interval used to lose its
    // trailing partial window. finish() must close the series so the
    // last row covers the run's final tick.
    Counter c;
    obs::MetricsRegistry reg;
    reg.addCounter("c", &c);
    reg.setInterval(100);

    reg.tick(0);
    c.inc(10);
    reg.tick(100);
    c.inc(5);
    reg.tick(130);  // partial window: no snapshot yet
    EXPECT_EQ(reg.numSnapshots(), 2u);

    reg.finish(130);  // run ends at tick 130
    ASSERT_EQ(reg.numSnapshots(), 3u);
    EXPECT_EQ(reg.latest("c"), 15.0);
    std::string csv = reg.csv();
    EXPECT_NE(csv.find("\n130,15\n"), std::string::npos) << csv;

    // finish() at an already-snapshotted tick must not duplicate rows.
    reg.finish(130);
    EXPECT_EQ(reg.numSnapshots(), 3u);
}

TEST(MetricsRegistry, CsvHasHeaderAndOneRowPerSnapshot)
{
    Counter c;
    obs::MetricsRegistry reg;
    reg.addCounter("a.b", &c);
    c.inc();
    reg.snapshot(5);
    c.inc();
    reg.snapshot(10);

    std::string csv = reg.csv();
    EXPECT_NE(csv.find("tick"), std::string::npos);
    EXPECT_NE(csv.find("a.b"), std::string::npos);
    // Header plus two data rows -> exactly three newline-terminated
    // lines.
    int lines = 0;
    for (char ch : csv)
        lines += ch == '\n';
    EXPECT_EQ(lines, 3);
}

} // namespace
} // namespace cnsim
