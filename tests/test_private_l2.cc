/**
 * @file
 * Unit tests for the private-caches-with-MESI baseline: protocol state
 * transitions, miss classification, cache-to-cache transfer timing,
 * and the Figure-7 reuse accounting.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/bytes.hh"
#include "l2/private_l2.hh"
#include "mem/bus.hh"
#include "mem/memory.hh"

namespace cnsim
{
namespace
{

PrivateL2Params
tinyPrivate()
{
    PrivateL2Params p;
    p.capacity_per_core = 2048;  // 8 sets x 2 ways x 128 B
    p.assoc = 2;
    p.block_size = 128;
    p.latency = 10;
    p.occupancy = 4;
    p.num_cores = 4;
    return p;
}

struct Rig
{
    MainMemory mem;
    SnoopBus bus;
    PrivateL2 l2;
    std::vector<std::pair<CoreId, Addr>> invalidations;

    Rig() : l2(tinyPrivate(), bus, mem)
    {
        l2.setL1Hooks(
            [this](CoreId c, Addr a) { invalidations.push_back({c, a}); },
            [](CoreId, Addr, bool) {});
    }
};

TEST(PrivateL2, ColdMissFillsExclusive)
{
    Rig r;
    AccessResult a = r.l2.access({0, 0x1000, MemOp::Load}, 0);
    EXPECT_EQ(a.cls, AccessClass::CapacityMiss);
    EXPECT_EQ(r.l2.stateOf(0, 0x1000), CohState::Exclusive);
    // port(0)+10 cache, bus 32, memory 16+300.
    EXPECT_EQ(a.complete, 10u + 32u + 16u + 300u);
}

TEST(PrivateL2, LocalHitIsFast)
{
    Rig r;
    r.l2.access({0, 0x1000, MemOp::Load}, 0);
    AccessResult a = r.l2.access({0, 0x1000, MemOp::Load}, 1000);
    EXPECT_EQ(a.cls, AccessClass::Hit);
    EXPECT_EQ(a.complete, 1010u);
}

TEST(PrivateL2, SilentExclusiveToModifiedUpgrade)
{
    Rig r;
    r.l2.access({0, 0x1000, MemOp::Load}, 0);
    std::uint64_t upg_before = r.bus.count(BusCmd::BusUpg);
    AccessResult a = r.l2.access({0, 0x1000, MemOp::Store}, 1000);
    EXPECT_EQ(a.cls, AccessClass::Hit);
    EXPECT_EQ(r.l2.stateOf(0, 0x1000), CohState::Modified);
    // E->M requires no bus transaction: that is the point of E.
    EXPECT_EQ(r.bus.count(BusCmd::BusUpg), upg_before);
}

TEST(PrivateL2, ReadSharingReplicatesAndClassifiesROS)
{
    Rig r;
    r.l2.access({0, 0x1000, MemOp::Load}, 0);
    AccessResult a = r.l2.access({1, 0x1000, MemOp::Load}, 1000);
    EXPECT_EQ(a.cls, AccessClass::ROSMiss);
    // Uncontrolled replication: both caches now hold full copies in S.
    EXPECT_EQ(r.l2.stateOf(0, 0x1000), CohState::Shared);
    EXPECT_EQ(r.l2.stateOf(1, 0x1000), CohState::Shared);
    r.l2.checkInvariants();
}

TEST(PrivateL2, CacheToCacheBeatsMemory)
{
    Rig r;
    r.l2.access({0, 0x1000, MemOp::Load}, 0);
    AccessResult a = r.l2.access({1, 0x1000, MemOp::Load}, 1000);
    // cache(10) + bus(32) + supplier access(10), far below memory.
    EXPECT_EQ(a.complete, 1000u + 10u + 32u + 10u);
}

TEST(PrivateL2, DirtySharingClassifiesRWS)
{
    Rig r;
    r.l2.access({0, 0x1000, MemOp::Store}, 0);
    EXPECT_EQ(r.l2.stateOf(0, 0x1000), CohState::Modified);
    AccessResult a = r.l2.access({1, 0x1000, MemOp::Load}, 1000);
    EXPECT_EQ(a.cls, AccessClass::RWSMiss);
    // Illinois MESI: the owner flushed to memory and both continue S.
    EXPECT_EQ(r.l2.stateOf(0, 0x1000), CohState::Shared);
    EXPECT_EQ(r.l2.stateOf(1, 0x1000), CohState::Shared);
    EXPECT_EQ(r.mem.writebacks(), 1u);
}

TEST(PrivateL2, WriteMissInvalidatesAllCopies)
{
    Rig r;
    r.l2.access({0, 0x1000, MemOp::Load}, 0);
    r.l2.access({1, 0x1000, MemOp::Load}, 100);
    AccessResult a = r.l2.access({2, 0x1000, MemOp::Store}, 1000);
    EXPECT_EQ(a.cls, AccessClass::ROSMiss);  // clean copies existed
    EXPECT_EQ(r.l2.stateOf(0, 0x1000), CohState::Invalid);
    EXPECT_EQ(r.l2.stateOf(1, 0x1000), CohState::Invalid);
    EXPECT_EQ(r.l2.stateOf(2, 0x1000), CohState::Modified);
    // Both old holders' L1s were invalidated.
    EXPECT_GE(r.invalidations.size(), 2u);
    r.l2.checkInvariants();
}

TEST(PrivateL2, UpgradeOnSharedWriteUsesBus)
{
    Rig r;
    r.l2.access({0, 0x1000, MemOp::Load}, 0);
    r.l2.access({1, 0x1000, MemOp::Load}, 100);
    std::uint64_t upg_before = r.bus.count(BusCmd::BusUpg);
    AccessResult a = r.l2.access({0, 0x1000, MemOp::Store}, 1000);
    EXPECT_EQ(a.cls, AccessClass::Hit);
    EXPECT_EQ(r.bus.count(BusCmd::BusUpg), upg_before + 1);
    EXPECT_EQ(r.l2.stateOf(0, 0x1000), CohState::Modified);
    EXPECT_EQ(r.l2.stateOf(1, 0x1000), CohState::Invalid);
}

TEST(PrivateL2, WriteMissOnDirtyInvalidatesOwner)
{
    Rig r;
    r.l2.access({0, 0x1000, MemOp::Store}, 0);
    AccessResult a = r.l2.access({1, 0x1000, MemOp::Store}, 1000);
    EXPECT_EQ(a.cls, AccessClass::RWSMiss);
    EXPECT_EQ(r.l2.stateOf(0, 0x1000), CohState::Invalid);
    EXPECT_EQ(r.l2.stateOf(1, 0x1000), CohState::Modified);
}

TEST(PrivateL2, EvictionWritesBackDirtyBlock)
{
    Rig r;
    // 8 sets: stride 8*128 = 1024 maps to the same set.
    r.l2.access({0, 0x0000, MemOp::Store}, 0);
    r.l2.access({0, 0x0400, MemOp::Load}, 100);
    std::uint64_t wb_before = r.mem.writebacks();
    r.l2.access({0, 0x0800, MemOp::Load}, 200);  // evicts M 0x0000
    EXPECT_EQ(r.mem.writebacks(), wb_before + 1);
    EXPECT_EQ(r.l2.stateOf(0, 0x0000), CohState::Invalid);
}

TEST(PrivateL2, RosReuseSampledOnReplacement)
{
    Rig r;
    // Fill 0x1000 in core 0, share into core 1 (ROS fill there).
    r.l2.access({0, 0x1000, MemOp::Load}, 0);
    r.l2.access({1, 0x1000, MemOp::Load}, 100);
    // Core 1 reuses it twice.
    r.l2.access({1, 0x1000, MemOp::Load}, 200);
    r.l2.access({1, 0x1000, MemOp::Load}, 300);
    // Force replacement in core 1's set (set 0 of 8, stride 1024;
    // 0x1000 maps to set 0 too because 0x1000 = 4096 = 4*1024).
    r.l2.access({1, 0x0000, MemOp::Load}, 400);
    r.l2.access({1, 0x0400, MemOp::Load}, 500);
    ReuseBuckets b = r.l2.reuse().rosBuckets();
    ASSERT_EQ(b.samples, 1u);
    EXPECT_DOUBLE_EQ(b.two_to_five, 1.0);
}

TEST(PrivateL2, RwsReuseSampledOnInvalidation)
{
    Rig r;
    r.l2.access({0, 0x1000, MemOp::Store}, 0);
    // Core 1 takes it via a RWS miss, then reuses once.
    r.l2.access({1, 0x1000, MemOp::Load}, 100);
    r.l2.access({1, 0x1000, MemOp::Load}, 200);
    // Core 0 writes again: upgrade invalidates core 1's RWS-filled copy.
    r.l2.access({0, 0x1000, MemOp::Store}, 300);
    ReuseBuckets b = r.l2.reuse().rwsBuckets();
    ASSERT_EQ(b.samples, 1u);
    EXPECT_DOUBLE_EQ(b.one, 1.0);
}

TEST(PrivateL2, LimitedPerCoreCapacityThrashes)
{
    Rig r;
    // Working set of 3 blocks in one 2-way set always misses.
    Tick t = 0;
    for (int round = 0; round < 3; ++round) {
        for (Addr a : {0x0000, 0x0400, 0x0800}) {
            r.l2.access({0, a, MemOp::Load}, t);
            t += 1000;
        }
    }
    EXPECT_EQ(r.l2.clsCount(AccessClass::Hit), 0u);
}

TEST(PrivateL2, InvariantNoReplicatedExclusive)
{
    Rig r;
    r.l2.access({0, 0x1000, MemOp::Load}, 0);
    r.l2.access({1, 0x2000, MemOp::Store}, 100);
    r.l2.access({2, 0x1000, MemOp::Load}, 200);
    r.l2.checkInvariants();
}

TEST(PrivateL2DeathTest, CheckpointStateOrFillClassOutOfRangeIsFatal)
{
    Rig r;
    r.l2.access({0, 0x0000, MemOp::Load}, 0);
    ByteWriter w;
    r.l2.saveState(w);
    const std::string bytes = w.take();
    // Core 0's array: sets and ways (u32 each), the LRU clock and one
    // stamp per block (16), then the first block's {u64 addr, u8 flags,
    // u8 state, u8 fill class, u32 reuses}.
    const std::size_t state_at = 4 + 4 + 8 + 16 * 8 + 8 + 1;
    ASSERT_EQ(bytes[state_at], static_cast<char>(CohState::Exclusive));
    auto load = [](const std::string &b) {
        MainMemory mem;
        SnoopBus bus;
        PrivateL2 fresh(tinyPrivate(), bus, mem);
        ByteReader rd(b.data(), b.size(), "test checkpoint");
        fresh.loadState(rd);
    };
    load(bytes);
    // C is a NuRAPID state, never a private cache's.
    std::string bad = bytes;
    bad[state_at] = static_cast<char>(CohState::Communication);
    EXPECT_DEATH(load(bad),
                 "fatal: test checkpoint: block state 4 is not I, S, E or M");
    bad = bytes;
    bad[state_at + 1] = 4;
    EXPECT_DEATH(load(bad),
                 "fatal: test checkpoint: fill class 4 is not an access "
                 "class");
}

} // namespace
} // namespace cnsim
