/**
 * @file
 * Unit tests for the uniform-shared L2 (and the ideal variant).
 */

#include <gtest/gtest.h>

#include <vector>

#include "l2/ideal_l2.hh"
#include "l2/shared_l2.hh"
#include "mem/memory.hh"

namespace cnsim
{
namespace
{

struct Hooked
{
    std::vector<std::pair<CoreId, Addr>> invalidations;
    std::vector<std::pair<CoreId, Addr>> downgrades;

    void
    install(L2Org &l2)
    {
        l2.setL1Hooks(
            [this](CoreId c, Addr a) { invalidations.push_back({c, a}); },
            [this](CoreId c, Addr a, bool) { downgrades.push_back({c, a}); });
    }
};

SharedL2Params
tinyShared()
{
    SharedL2Params p;
    p.capacity = 8192;  // 32 sets x 2 ways x 128 B
    p.assoc = 2;
    p.block_size = 128;
    p.ports = 4;
    p.latency = 59;
    p.occupancy = 4;
    p.num_cores = 4;
    return p;
}

TEST(SharedL2, HitLatencyIsTable1)
{
    MainMemory mem;
    SharedL2 l2(tinyShared(), mem);
    // Fill, then hit.
    l2.access({0, 0x1000, MemOp::Load}, 0);
    AccessResult r = l2.access({0, 0x1000, MemOp::Load}, 1000);
    EXPECT_EQ(r.cls, AccessClass::Hit);
    EXPECT_EQ(r.complete, 1000u + 59u);
}

TEST(SharedL2, MissGoesToMemory)
{
    MainMemory mem;
    SharedL2 l2(tinyShared(), mem);
    AccessResult r = l2.access({0, 0x1000, MemOp::Load}, 0);
    EXPECT_EQ(r.cls, AccessClass::CapacityMiss);
    // tag+data (59) then memory channel (16) + latency (300).
    EXPECT_EQ(r.complete, 59u + 16u + 300u);
    EXPECT_EQ(mem.reads(), 1u);
}

TEST(SharedL2, SharedCapacityAcrossCores)
{
    MainMemory mem;
    SharedL2 l2(tinyShared(), mem);
    l2.access({0, 0x1000, MemOp::Load}, 0);
    // A different core hits on the same single copy: no ROS miss in a
    // shared cache.
    AccessResult r = l2.access({1, 0x1000, MemOp::Load}, 1000);
    EXPECT_EQ(r.cls, AccessClass::Hit);
    EXPECT_EQ(l2.clsCount(AccessClass::ROSMiss), 0u);
    EXPECT_EQ(l2.clsCount(AccessClass::RWSMiss), 0u);
}

TEST(SharedL2, StoreInvalidatesOtherL1Sharers)
{
    MainMemory mem;
    SharedL2 l2(tinyShared(), mem);
    Hooked h;
    h.install(l2);
    l2.access({0, 0x1000, MemOp::Load}, 0);
    l2.access({1, 0x1000, MemOp::Load}, 100);
    l2.access({2, 0x1000, MemOp::Store}, 200);
    // Cores 0 and 1 held L1 copies and must be invalidated.
    ASSERT_EQ(h.invalidations.size(), 2u);
    EXPECT_EQ(h.invalidations[0].first, 0);
    EXPECT_EQ(h.invalidations[1].first, 1);
    EXPECT_EQ(h.invalidations[0].second, 0x1000u);
}

TEST(SharedL2, LoadAfterStoreDowngradesOwner)
{
    MainMemory mem;
    SharedL2 l2(tinyShared(), mem);
    Hooked h;
    h.install(l2);
    l2.access({0, 0x1000, MemOp::Store}, 0);
    l2.access({1, 0x1000, MemOp::Load}, 100);
    ASSERT_EQ(h.downgrades.size(), 1u);
    EXPECT_EQ(h.downgrades[0].first, 0);
}

TEST(SharedL2, StoreGrantsL1Ownership)
{
    MainMemory mem;
    SharedL2 l2(tinyShared(), mem);
    AccessResult rs = l2.access({0, 0x1000, MemOp::Store}, 0);
    EXPECT_TRUE(rs.l1Owned);
    AccessResult rl = l2.access({1, 0x2000, MemOp::Load}, 0);
    EXPECT_FALSE(rl.l1Owned);
}

TEST(SharedL2, EvictionBackInvalidatesAndWritesBack)
{
    MainMemory mem;
    SharedL2 l2(tinyShared(), mem);
    Hooked h;
    h.install(l2);
    // 32 sets: blocks 0x0000 and 0x1000 and 0x2000 share set 0
    // (stride = 32 * 128 = 4096).
    l2.access({0, 0x0000, MemOp::Store}, 0);
    l2.access({0, 0x1000, MemOp::Load}, 100);
    std::uint64_t wb_before = mem.writebacks();
    h.invalidations.clear();
    l2.access({0, 0x2000, MemOp::Load}, 200);  // evicts dirty 0x0000
    EXPECT_EQ(mem.writebacks(), wb_before + 1);
    ASSERT_FALSE(h.invalidations.empty());
    EXPECT_EQ(h.invalidations[0].second, 0x0000u);
}

TEST(SharedL2, FourPortsOverlapFifthQueues)
{
    MainMemory mem;
    SharedL2Params p = tinyShared();
    SharedL2 l2(p, mem);
    // Warm five blocks in different sets.
    for (int i = 0; i < 5; ++i)
        l2.access({0, static_cast<Addr>(i) * 128, MemOp::Load}, 0);
    Tick t0 = 100000;
    for (int i = 0; i < 4; ++i) {
        AccessResult r =
            l2.access({i, static_cast<Addr>(i) * 128, MemOp::Load}, t0);
        EXPECT_EQ(r.complete, t0 + 59);
    }
    AccessResult r5 = l2.access({0, 4 * 128, MemOp::Load}, t0);
    EXPECT_EQ(r5.complete, t0 + 4 + 59);  // waited one occupancy slot
}

TEST(SharedL2, ValidBlocksTracksOccupancy)
{
    MainMemory mem;
    SharedL2 l2(tinyShared(), mem);
    EXPECT_EQ(l2.validBlockCount(), 0u);
    l2.access({0, 0x1000, MemOp::Load}, 0);
    l2.access({0, 0x2000, MemOp::Load}, 0);
    EXPECT_EQ(l2.validBlockCount(), 2u);
    l2.checkInvariants();
}

TEST(SharedL2, MissRateFractionConsistency)
{
    MainMemory mem;
    SharedL2 l2(tinyShared(), mem);
    l2.access({0, 0x1000, MemOp::Load}, 0);   // miss
    l2.access({0, 0x1000, MemOp::Load}, 500); // hit
    EXPECT_EQ(l2.accesses(), 2u);
    EXPECT_DOUBLE_EQ(l2.clsFraction(AccessClass::Hit), 0.5);
    EXPECT_DOUBLE_EQ(l2.missFraction(), 0.5);
}

TEST(IdealL2, PrivateLatencySharedCapacity)
{
    MainMemory mem;
    IdealL2 l2(tinyShared(), 10, mem);
    EXPECT_EQ(l2.kind(), "ideal");
    l2.access({0, 0x1000, MemOp::Load}, 0);
    AccessResult r = l2.access({3, 0x1000, MemOp::Load}, 1000);
    EXPECT_EQ(r.cls, AccessClass::Hit);
    EXPECT_EQ(r.complete, 1010u);
}

TEST(SharedL2, StatsResetClearsCounts)
{
    MainMemory mem;
    SharedL2 l2(tinyShared(), mem);
    l2.access({0, 0x1000, MemOp::Load}, 0);
    l2.resetStats();
    EXPECT_EQ(l2.accesses(), 0u);
    EXPECT_EQ(l2.clsCount(AccessClass::CapacityMiss), 0u);
}

} // namespace
} // namespace cnsim
