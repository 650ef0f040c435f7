/**
 * @file
 * Latency-composition tests for CMP-NuRAPID: each protocol path must
 * charge exactly the Table-1 components it uses (tag array, bus,
 * crossbar + d-group distance, memory), and the single-ported
 * resources must serialize under contention.
 */

#include <gtest/gtest.h>

#include "mem/bus.hh"
#include "mem/memory.hh"
#include "nurapid/cmp_nurapid.hh"

namespace cnsim
{
namespace
{

// Paper-scale latencies with a tiny capacity so tests stay fast.
NurapidParams
timedNurapid()
{
    NurapidParams p;
    p.num_cores = 4;
    p.num_dgroups = 4;
    p.dgroup_capacity = 64 * 128;
    p.block_size = 128;
    p.assoc = 8;
    p.tag_factor = 2;
    p.tag_latency = 5;
    p.tag_occupancy = 2;
    p.dgroup_occupancy = 4;
    return p;
}

struct Rig
{
    MainMemory mem;
    SnoopBus bus;
    CmpNurapid l2;

    Rig() : l2(timedNurapid(), bus, mem)
    {
        l2.setL1Hooks([](CoreId, Addr) {}, [](CoreId, Addr, bool) {});
    }
};

TEST(NurapidTiming, ClosestHitIsTagPlusClosestDGroup)
{
    Rig r;
    r.l2.access({0, 0x1000, MemOp::Load}, 0);
    AccessResult a = r.l2.access({0, 0x1000, MemOp::Load}, 10000);
    EXPECT_EQ(a.complete, 10000u + 5u + 6u);  // Table 1: 11 cycles
}

TEST(NurapidTiming, MiddleAndFarthestDGroupHits)
{
    Rig r;
    // P0 fills; P1's first use leaves the data in d-group a, which is
    // a middle-distance group for P1.
    r.l2.access({0, 0x1000, MemOp::Load}, 0);
    r.l2.access({1, 0x1000, MemOp::Load}, 10000);
    // P3 joins too: d-group a is P3's *farthest* group.
    AccessResult far = r.l2.access({3, 0x1000, MemOp::Load}, 20000);
    EXPECT_EQ(far.complete, 20000u + 5u + 32u + 33u);  // tag+bus+far
}

TEST(NurapidTiming, ColdMissChargesTagBusMemory)
{
    Rig r;
    AccessResult a = r.l2.access({2, 0x9000, MemOp::Load}, 0);
    // tag(5) + bus(32) + memory channel burst(16) + latency(300).
    EXPECT_EQ(a.complete, 5u + 32u + 16u + 300u);
}

TEST(NurapidTiming, CrPointerJoinPaysBusPlusRemoteDGroup)
{
    Rig r;
    r.l2.access({0, 0x1000, MemOp::Load}, 0);
    AccessResult a = r.l2.access({1, 0x1000, MemOp::Load}, 10000);
    // tag(5) + bus(32) + middle d-group (20) -- far below memory.
    EXPECT_EQ(a.complete, 10000u + 5u + 32u + 20u);
}

TEST(NurapidTiming, IscWriteToCBusThenDGroup)
{
    Rig r;
    r.l2.access({0, 0x1000, MemOp::Store}, 0);
    r.l2.access({1, 0x1000, MemOp::Load}, 10000);  // copy moves to dg b
    // P0 writes the C block: tag(5) + BusRdX(32) + d-group b from P0
    // (middle distance, 20).
    AccessResult a = r.l2.access({0, 0x1000, MemOp::Store}, 20000);
    EXPECT_EQ(a.complete, 20000u + 5u + 32u + 20u);
}

TEST(NurapidTiming, TagPortSerializesSameCore)
{
    Rig r;
    r.l2.access({0, 0x1000, MemOp::Load}, 0);
    r.l2.access({0, 0x1080, MemOp::Load}, 0);
    Tick t0 = 50000;
    AccessResult a = r.l2.access({0, 0x1000, MemOp::Load}, t0);
    AccessResult b = r.l2.access({0, 0x1080, MemOp::Load}, t0);
    EXPECT_EQ(a.complete, t0 + 11);
    // Second request waits tag_occupancy(2) for the single tag port
    // and dgroup_occupancy(4) for the single d-group port; the d-group
    // port is the binding constraint here.
    EXPECT_EQ(b.complete, t0 + 4 + 11);
}

TEST(NurapidTiming, DifferentCoresProceedInParallel)
{
    Rig r;
    r.l2.access({0, 0x1000, MemOp::Load}, 0);
    r.l2.access({1, 0x2000, MemOp::Load}, 1000);
    Tick t0 = 50000;
    // Distinct tag arrays and distinct d-groups: fully parallel.
    AccessResult a = r.l2.access({0, 0x1000, MemOp::Load}, t0);
    AccessResult b = r.l2.access({1, 0x2000, MemOp::Load}, t0);
    EXPECT_EQ(a.complete, t0 + 11);
    EXPECT_EQ(b.complete, t0 + 11);
}

TEST(NurapidTiming, SharedDGroupPortContends)
{
    Rig r;
    // Both cores end up reading from d-group a (P1 via pointer join).
    r.l2.access({0, 0x1000, MemOp::Load}, 0);
    r.l2.access({0, 0x1080, MemOp::Load}, 1000);
    r.l2.access({1, 0x1000, MemOp::Load}, 2000);
    Tick t0 = 60000;
    AccessResult a = r.l2.access({0, 0x1080, MemOp::Load}, t0);
    AccessResult b = r.l2.access({1, 0x1000, MemOp::Load}, t0);
    EXPECT_EQ(a.complete, t0 + 5 + 6);
    // P1's request reaches d-group a after P0's occupies it: its data
    // access starts dgroup_occupancy later, plus its 20-cycle distance.
    EXPECT_EQ(b.complete, t0 + 5 + 4 + 20);
}

TEST(Crossbar, ParallelDGroupsIndependentPorts)
{
    // The crossbar reaches each d-group through its own single port:
    // same-tick reads of different d-groups proceed in parallel, and a
    // second read of the same d-group waits one dgroup_occupancy.
    Rig r;
    r.l2.access({0, 0x1000, MemOp::Load}, 0);
    r.l2.access({1, 0x2000, MemOp::Load}, 1000);
    r.l2.access({2, 0x1000, MemOp::Load}, 2000);  // pointer to dg a
    ASSERT_EQ(r.l2.fwdOf(2, 0x1000).dgroup, 0);
    ASSERT_EQ(r.l2.fwdOf(1, 0x2000).dgroup, 1);
    Tick t0 = 60000;
    AccessResult a = r.l2.access({0, 0x1000, MemOp::Load}, t0);
    AccessResult b = r.l2.access({1, 0x2000, MemOp::Load}, t0);
    AccessResult c = r.l2.access({2, 0x1000, MemOp::Load}, t0);
    EXPECT_EQ(a.complete, t0 + 5 + 6);
    EXPECT_EQ(b.complete, t0 + 5 + 6);
    EXPECT_EQ(c.complete, t0 + 5 + 4 + r.l2.prefTable().latency(2, 0));
}

TEST(NurapidTiming, BusArbitrationSpacesTransactions)
{
    Rig r;
    Tick t0 = 0;
    // Two cold misses at the same instant: both need the bus; the
    // second waits the 4-cycle arbitration slot.
    AccessResult a = r.l2.access({0, 0x5000, MemOp::Load}, t0);
    AccessResult b = r.l2.access({1, 0x6000, MemOp::Load}, t0);
    EXPECT_EQ(a.complete, 5u + 32u + 16u + 300u);
    // tag(5) -> bus grant at 9 (behind the first's slot) -> +32, then
    // memory: channel free (4 channels), burst 16 + 300.
    EXPECT_EQ(b.complete, 5u + 4u + 32u + 16u + 300u);
}

} // namespace
} // namespace cnsim
