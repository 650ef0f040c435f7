/**
 * @file
 * Unit tests for the synthetic workload generators. Per-thread records
 * are read through CanonicalWorkload, the canonical round-robin draw
 * every run uses.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.hh"
#include "trace/replay.hh"
#include "trace/synth.hh"

namespace cnsim
{
namespace
{

SynthWorkloadParams
basicParams(int threads)
{
    SynthWorkloadParams p;
    SynthThreadParams t;
    t.frac_ros = 0.2;
    t.frac_rws = 0.2;
    t.private_blocks = 1024;
    t.ros_blocks = 512;
    t.rws_blocks = 128;
    t.code_blocks = 64;
    for (int i = 0; i < threads; ++i)
        p.threads.push_back(t);
    p.seed = 7;
    return p;
}

bool
inRegion(Addr a, Addr base, std::uint64_t blocks)
{
    return a >= base && a < base + blocks * 128;
}

TEST(ReuseDist, MatchesConfiguredFractions)
{
    ReuseDist d;  // paper Figure-7a defaults
    Rng rng(3);
    int zero = 0, one = 0, two_five = 0, more = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        std::uint32_t v = d.sample(rng);
        if (v == 0)
            ++zero;
        else if (v == 1)
            ++one;
        else if (v <= 5)
            ++two_five;
        else
            ++more;
    }
    EXPECT_NEAR(zero / double(n), 0.42, 0.02);
    EXPECT_NEAR(one / double(n), 0.08, 0.02);
    EXPECT_NEAR(two_five / double(n), 0.35, 0.02);
    EXPECT_NEAR(more / double(n), 0.15, 0.02);
}

TEST(Synth, AddressesLandInDeclaredRegions)
{
    CanonicalWorkload wl(basicParams(4));
    for (int t = 0; t < 4; ++t) {
        for (int i = 0; i < 2000; ++i) {
            TraceRecord r = wl.source(t).next();
            bool ok =
                inRegion(r.addr, SynthWorkload::rosBase(), 512) ||
                inRegion(r.addr, SynthWorkload::rwsBase(), 128) ||
                inRegion(r.addr, SynthWorkload::privateBase(t, true),
                         1024);
            EXPECT_TRUE(ok) << "thread " << t << " addr " << r.addr;
            EXPECT_TRUE(inRegion(r.iaddr, SynthWorkload::codeBase(), 64));
        }
    }
}

TEST(Synth, PrivateRegionsAreDisjointPerThread)
{
    for (int a = 0; a < 4; ++a) {
        for (int b = a + 1; b < 4; ++b) {
            Addr base_a = SynthWorkload::privateBase(a, true);
            Addr base_b = SynthWorkload::privateBase(b, true);
            EXPECT_GE(base_b - base_a, 0x10000000ull);
        }
    }
}

TEST(Synth, RosAccessesAreAllLoads)
{
    CanonicalWorkload wl(basicParams(1));
    for (int i = 0; i < 5000; ++i) {
        TraceRecord r = wl.source(0).next();
        if (inRegion(r.addr, SynthWorkload::rosBase(), 512)) {
            EXPECT_EQ(r.op, MemOp::Load);
        }
    }
}

TEST(Synth, RwsMixesLoadsAndStores)
{
    SynthWorkloadParams p = basicParams(2);
    p.threads[0].rws_write_frac = 0.5;
    p.threads[1].rws_write_frac = 0.5;
    CanonicalWorkload wl(p);
    int loads = 0, stores = 0;
    for (int t = 0; t < 2; ++t) {
        for (int i = 0; i < 5000; ++i) {
            TraceRecord r = wl.source(t).next();
            if (inRegion(r.addr, SynthWorkload::rwsBase(), 128)) {
                if (r.op == MemOp::Store)
                    ++stores;
                else
                    ++loads;
            }
        }
    }
    EXPECT_GT(loads, 100);
    EXPECT_GT(stores, 100);
}

TEST(Synth, RwsReadersConsumeOtherThreadsWrites)
{
    // With two threads, thread 0's RWS reads should frequently target
    // blocks recently written by thread 1 -- that's communication.
    SynthWorkloadParams p = basicParams(2);
    p.threads[0].rws_write_frac = 0.0;  // pure reader
    p.threads[1].rws_write_frac = 1.0;  // pure writer
    CanonicalWorkload wl(p);
    std::set<Addr> written;
    int consumed = 0, rws_reads = 0;
    for (int i = 0; i < 20000; ++i) {
        TraceRecord w = wl.source(1).next();
        if (inRegion(w.addr, SynthWorkload::rwsBase(), 128) &&
            w.op == MemOp::Store)
            written.insert(blockAlign(w.addr, 128));
        TraceRecord r = wl.source(0).next();
        if (inRegion(r.addr, SynthWorkload::rwsBase(), 128) &&
            r.op == MemOp::Load) {
            ++rws_reads;
            consumed += written.count(blockAlign(r.addr, 128));
        }
    }
    ASSERT_GT(rws_reads, 100);
    EXPECT_GT(consumed, rws_reads / 2);
}

TEST(Synth, GapMeanApproximatesConfig)
{
    SynthWorkloadParams p = basicParams(1);
    p.threads[0].mean_gap = 3.0;
    CanonicalWorkload wl(p);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += wl.source(0).next().gap;
    EXPECT_NEAR(sum / n, 3.0, 0.2);
}

TEST(Synth, DeterministicForSameSeed)
{
    CanonicalWorkload a(basicParams(2)), b(basicParams(2));
    for (int i = 0; i < 1000; ++i) {
        TraceRecord ra = a.source(1).next();
        TraceRecord rb = b.source(1).next();
        EXPECT_EQ(ra.addr, rb.addr);
        EXPECT_EQ(ra.iaddr, rb.iaddr);
        EXPECT_EQ(ra.op, rb.op);
        EXPECT_EQ(ra.gap, rb.gap);
    }
}

TEST(Synth, DifferentSeedsDiverge)
{
    SynthWorkloadParams p1 = basicParams(1);
    SynthWorkloadParams p2 = basicParams(1);
    p2.seed = 1234;
    CanonicalWorkload a(p1), b(p2);
    int same = 0;
    for (int i = 0; i < 200; ++i)
        same += a.source(0).next().addr == b.source(0).next().addr;
    EXPECT_LT(same, 100);
}

TEST(Synth, UnsharedRegionsSeparateCode)
{
    SynthWorkloadParams p = basicParams(2);
    p.shared_regions = false;
    CanonicalWorkload wl(p);
    std::set<Addr> code0, code1;
    for (int i = 0; i < 500; ++i) {
        code0.insert(blockAlign(wl.source(0).next().iaddr, 128));
        code1.insert(blockAlign(wl.source(1).next().iaddr, 128));
    }
    for (Addr a : code0)
        EXPECT_EQ(code1.count(a), 0u);
}

TEST(Synth, ZeroSharingFractionsStayPrivate)
{
    SynthWorkloadParams p = basicParams(1);
    p.threads[0].frac_ros = 0.0;
    p.threads[0].frac_rws = 0.0;
    CanonicalWorkload wl(p);
    for (int i = 0; i < 3000; ++i) {
        TraceRecord r = wl.source(0).next();
        EXPECT_TRUE(inRegion(r.addr, SynthWorkload::privateBase(0, true),
                             1024));
    }
}

TEST(Synth, PrivateStreamSkewConcentratesAccesses)
{
    SynthWorkloadParams p = basicParams(1);
    p.threads[0].frac_ros = 0.0;
    p.threads[0].frac_rws = 0.0;
    p.threads[0].private_theta = 0.9;
    CanonicalWorkload wl(p);
    std::map<Addr, int> counts;
    for (int i = 0; i < 20000; ++i)
        ++counts[blockAlign(wl.source(0).next().addr, 128)];
    // The hottest block gets far more than the uniform share.
    int hottest = 0;
    for (auto &kv : counts)
        hottest = std::max(hottest, kv.second);
    EXPECT_GT(hottest, 20000 / 1024 * 10);
}

} // namespace
} // namespace cnsim
