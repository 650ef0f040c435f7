/**
 * @file
 * Unit tests for common utilities: types, logging, RNG, stats.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/fnv.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace cnsim
{
namespace
{

TEST(Types, BlockAlign)
{
    EXPECT_EQ(blockAlign(0x1000, 128), 0x1000u);
    EXPECT_EQ(blockAlign(0x1001, 128), 0x1000u);
    EXPECT_EQ(blockAlign(0x107f, 128), 0x1000u);
    EXPECT_EQ(blockAlign(0x1080, 128), 0x1080u);
    EXPECT_EQ(blockAlign(0xffffffffffffffffULL, 64),
              0xffffffffffffffc0ULL);
}

TEST(Types, PowerOf2)
{
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(2));
    EXPECT_TRUE(isPowerOf2(1ull << 40));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_FALSE(isPowerOf2(12));
}

TEST(Types, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(1024), 10u);
}

TEST(Logging, StrFmt)
{
    EXPECT_EQ(strfmt("x=%d y=%s", 3, "abc"), "x=3 y=abc");
    EXPECT_EQ(strfmt("%llu", 123456789012345ULL), "123456789012345");
    EXPECT_EQ(strfmt("plain"), "plain");
}

TEST(Logging, QuietSuppresses)
{
    setQuiet(true);
    EXPECT_TRUE(quiet());
    // warn/inform must not crash while quiet.
    warn("should be suppressed");
    inform("should be suppressed");
    setQuiet(false);
    EXPECT_FALSE(quiet());
}

TEST(Logging, ParseUnsignedFlagReadsWholeNumbers)
{
    EXPECT_EQ(parseUnsignedFlag("--n", "42"), 42u);
    EXPECT_EQ(parseUnsignedFlag("--n", "18446744073709551615"),
              UINT64_MAX);
    EXPECT_EQ(parseUnsignedFlag("--cores", "64", 1, 64), 64u);
    EXPECT_EQ(parseUnsignedFlag("--addr", "0x1f40", 0, UINT64_MAX, 0),
              0x1f40u);
}

TEST(Fnv1a, MatchesTheStandard64BitVectors)
{
    // The published FNV-1a 64 test vectors. The hash keys the trace and
    // result caches and checksums every checkpoint, so drift here would
    // silently orphan or misread persisted files.
    EXPECT_EQ(fnv1a("", 0), 0xcbf29ce484222325ULL);
    EXPECT_EQ(fnv1a("a", 1), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(fnv1a("foobar", 6), 0x85944171f73967e8ULL);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(Rng, BelowInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, BelowCoversAllValues)
{
    Rng r(9);
    std::set<std::uint32_t> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(r.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(11);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        std::uint32_t v = r.range(3, 6);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 6u);
        saw_lo |= v == 3;
        saw_hi |= v == 6;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(13);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceProbability)
{
    Rng r(17);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += r.chance(0.25);
    EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

TEST(Rng, ZipfSkewsTowardLowRanks)
{
    Rng r(19);
    std::uint64_t low = 0, high = 0;
    const std::uint32_t n = 1000;
    for (int i = 0; i < 20000; ++i) {
        std::uint32_t v = r.zipf(n, 0.8);
        ASSERT_LT(v, n);
        if (v < n / 10)
            ++low;
        if (v >= 9 * n / 10)
            ++high;
    }
    // A skewed distribution puts far more mass on the lowest decile.
    EXPECT_GT(low, 4 * high);
}

TEST(Rng, ZipfThetaZeroIsUniform)
{
    Rng r(23);
    std::uint64_t low = 0;
    for (int i = 0; i < 20000; ++i)
        low += r.zipf(1000, 0.0) < 100;
    EXPECT_NEAR(low / 20000.0, 0.1, 0.02);
}

TEST(Stats, CounterBasics)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(4);
    EXPECT_EQ(c.value(), 5u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, DistributionBuckets)
{
    Distribution d;
    d.init(0, 9, 1);
    for (std::uint64_t v = 0; v < 10; ++v)
        d.sample(v);
    d.sample(100);  // overflow
    EXPECT_EQ(d.samples(), 11u);
    EXPECT_EQ(d.overflow(), 1u);
    EXPECT_EQ(d.bucketCount(5), 1u);
    EXPECT_EQ(d.rangeCount(2, 5), 4u);
    EXPECT_NEAR(d.mean(), (45.0 + 100.0) / 11.0, 1e-9);
    d.reset();
    EXPECT_EQ(d.samples(), 0u);
}

TEST(Stats, DistributionWiderBuckets)
{
    Distribution d;
    d.init(0, 99, 10);
    d.sample(5);
    d.sample(7);
    d.sample(15);
    EXPECT_EQ(d.bucketCount(0), 2u);
    EXPECT_EQ(d.bucketCount(10), 1u);
}

TEST(Stats, DistributionUnderflowCountedSeparately)
{
    // Regression: samples below min used to be folded into bucket 0,
    // silently inflating the lowest bucket.
    Distribution d;
    d.init(10, 19, 1);
    d.sample(3);   // underflow
    d.sample(10);  // bucket 0
    d.sample(25);  // overflow
    EXPECT_EQ(d.samples(), 3u);
    EXPECT_EQ(d.underflow(), 1u);
    EXPECT_EQ(d.overflow(), 1u);
    EXPECT_EQ(d.bucketCount(10), 1u);
    EXPECT_EQ(d.rangeCount(10, 19), 1u);
    d.reset();
    EXPECT_EQ(d.underflow(), 0u);
    EXPECT_EQ(d.overflow(), 0u);
}

TEST(Stats, DistributionRangeCountClampsToConfiguredRange)
{
    // Regression: lo/hi outside [min, max] used to trip the
    // bucketCount assert instead of clamping.
    Distribution d;
    d.init(10, 19, 2);
    for (std::uint64_t v = 10; v <= 19; ++v)
        d.sample(v);
    EXPECT_EQ(d.rangeCount(0, 100), 10u);
    EXPECT_EQ(d.rangeCount(0, 11), 2u);
    EXPECT_EQ(d.rangeCount(18, 100), 2u);
    EXPECT_EQ(d.rangeCount(0, 5), 0u);    // entirely below
    EXPECT_EQ(d.rangeCount(30, 40), 0u);  // entirely above
    EXPECT_EQ(d.rangeCount(15, 12), 0u);  // empty range
}

TEST(Stats, DistributionRangeCountCoversPartialTrailingBucket)
{
    // Regression: stepping by bucket_size from lo used to skip the
    // bucket containing hi when (hi - lo) was not a bucket multiple.
    Distribution d;
    d.init(0, 99, 10);
    d.sample(14);
    EXPECT_EQ(d.rangeCount(5, 14), 1u);
}

TEST(Stats, RunningStatsMatchesTwoPass)
{
    RunningStats rs;
    const double xs[] = {1.5, 2.0, 0.5, 4.0, 3.0};
    double sum = 0.0;
    for (double x : xs) {
        rs.push(x);
        sum += x;
    }
    const std::size_t n = sizeof(xs) / sizeof(xs[0]);
    double mean = sum / n;
    double var = 0.0;
    for (double x : xs)
        var += (x - mean) * (x - mean);
    var /= n - 1;
    EXPECT_EQ(rs.count(), n);
    EXPECT_DOUBLE_EQ(rs.mean(), mean);
    EXPECT_NEAR(rs.sampleVariance(), var, 1e-15);
    EXPECT_DOUBLE_EQ(rs.min(), 0.5);
    EXPECT_DOUBLE_EQ(rs.max(), 4.0);
}

TEST(Stats, RunningStatsSurvivesCatastrophicCancellation)
{
    // Regression for the old sum_sq/n - mean^2 stddev: for tightly
    // clustered values around a large mean the two terms cancel to
    // noise and the variance could go negative. Welford must return
    // (a) a non-negative variance and (b) the right value.
    RunningStats rs;
    const double base = 1e8;
    const double xs[] = {base + 0.1, base + 0.2, base + 0.3};
    double naive_sum = 0.0, naive_sum_sq = 0.0;
    for (double x : xs) {
        rs.push(x);
        naive_sum += x;
        naive_sum_sq += x * x;
    }
    double naive_mean = naive_sum / 3;
    double naive_var = naive_sum_sq / 3 - naive_mean * naive_mean;
    // The naive population variance should be ~0.00667 but is
    // dominated by cancellation error at this magnitude.
    EXPECT_GT(std::abs(naive_var - 0.02 / 3), 1e-4);
    // Welford is limited only by the inputs' own rounding at 1e8
    // magnitude (~1.5e-8 spacing), not by cancellation.
    EXPECT_NEAR(rs.sampleVariance(), 0.01, 1e-8);
    EXPECT_NEAR(rs.stddev(), 0.1, 1e-7);
    EXPECT_GE(rs.sampleVariance(), 0.0);
}

TEST(Stats, RunningStatsDegenerateCases)
{
    RunningStats rs;
    EXPECT_EQ(rs.count(), 0u);
    EXPECT_DOUBLE_EQ(rs.sampleVariance(), 0.0);
    rs.push(2.5);
    // A single observation has no sample variance.
    EXPECT_DOUBLE_EQ(rs.sampleVariance(), 0.0);
    EXPECT_DOUBLE_EQ(rs.mean(), 2.5);
    EXPECT_DOUBLE_EQ(rs.min(), 2.5);
    EXPECT_DOUBLE_EQ(rs.max(), 2.5);
    rs.reset();
    EXPECT_EQ(rs.count(), 0u);
    EXPECT_DOUBLE_EQ(rs.mean(), 0.0);
}

TEST(Stats, GroupRegistrationAndLookup)
{
    StatGroup g("sys");
    Counter c;
    Distribution d;
    d.init(0, 3, 1);
    g.addCounter("hits", &c, "hit count");
    g.addDistribution("reuse", &d);
    c.inc(7);
    d.sample(2);
    EXPECT_EQ(g.counter("hits").value(), 7u);
    EXPECT_EQ(g.distribution("reuse").samples(), 1u);
}

TEST(Stats, GroupResetAll)
{
    StatGroup g("sys");
    Counter c;
    c.inc(3);
    g.addCounter("c", &c);
    g.resetAll();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, DumpContainsNamesAndValues)
{
    StatGroup g("top");
    Counter c;
    c.inc(42);
    g.addCounter("events", &c, "number of events");
    std::string out = g.dump();
    EXPECT_NE(out.find("top.events"), std::string::npos);
    EXPECT_NE(out.find("42"), std::string::npos);
    EXPECT_NE(out.find("number of events"), std::string::npos);
}

TEST(Stats, CsvDumpHasHeaderAndRows)
{
    StatGroup g("sys");
    Counter c;
    Distribution d;
    d.init(0, 3, 1);
    c.inc(5);
    d.sample(2);
    g.addCounter("hits", &c);
    g.addDistribution("reuse", &d);
    std::string csv = g.dumpCsv();
    EXPECT_EQ(csv.rfind("stat,value\n", 0), 0u);
    EXPECT_NE(csv.find("sys.hits,5\n"), std::string::npos);
    EXPECT_NE(csv.find("sys.reuse.samples,1\n"), std::string::npos);
    EXPECT_NE(csv.find("sys.reuse.mean,2.000000\n"), std::string::npos);
}

TEST(StatsDeathTest, MissingStatPanics)
{
    StatGroup g("sys");
    EXPECT_DEATH(g.counter("nope"), "no counter");
}

} // namespace
} // namespace cnsim
