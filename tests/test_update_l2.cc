/**
 * @file
 * Unit tests for the write-update protocol baseline: no coherence
 * misses for readers, a BusUpd per write to shared data, multiple
 * copies kept alive (the capacity cost ISC avoids).
 */

#include <gtest/gtest.h>

#include <string>

#include "common/bytes.hh"
#include "l2/update_l2.hh"
#include "mem/bus.hh"
#include "mem/memory.hh"

namespace cnsim
{
namespace
{

PrivateL2Params
tinyUpdate()
{
    PrivateL2Params p;
    p.capacity_per_core = 2048;  // 8 sets x 2 ways
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
    UpdateL2 l2;
    std::vector<std::pair<CoreId, Addr>> invalidations;

    Rig() : l2(tinyUpdate(), bus, mem)
    {
        l2.setL1Hooks(
            [this](CoreId c, Addr a) { invalidations.push_back({c, a}); },
            [](CoreId, Addr, bool) {});
    }
};

TEST(UpdateL2, ColdFillExclusive)
{
    Rig r;
    AccessResult a = r.l2.access({0, 0x1000, MemOp::Load}, 0);
    EXPECT_EQ(a.cls, AccessClass::CapacityMiss);
    EXPECT_EQ(r.l2.stateOf(0, 0x1000), CohState::Exclusive);
    EXPECT_TRUE(a.l1Owned);
}

TEST(UpdateL2, ReadSharingMakesCopies)
{
    Rig r;
    r.l2.access({0, 0x1000, MemOp::Load}, 0);
    AccessResult a = r.l2.access({1, 0x1000, MemOp::Load}, 1000);
    EXPECT_EQ(a.cls, AccessClass::ROSMiss);
    EXPECT_EQ(r.l2.stateOf(0, 0x1000), CohState::Shared);
    EXPECT_EQ(r.l2.stateOf(1, 0x1000), CohState::Shared);
    r.l2.checkInvariants();
}

TEST(UpdateL2, WriteToSharedBroadcastsUpdateNotInvalidate)
{
    Rig r;
    r.l2.access({0, 0x1000, MemOp::Load}, 0);
    r.l2.access({1, 0x1000, MemOp::Load}, 1000);
    std::uint64_t upd_before = r.bus.count(BusCmd::BusUpd);
    AccessResult a = r.l2.access({0, 0x1000, MemOp::Store}, 2000);
    EXPECT_EQ(a.cls, AccessClass::Hit);
    EXPECT_EQ(r.bus.count(BusCmd::BusUpd), upd_before + 1);
    // The peer's L2 copy survives (updated in place).
    EXPECT_EQ(r.l2.stateOf(1, 0x1000), CohState::Shared);
    EXPECT_TRUE(r.l2.ownerOf(0, 0x1000));
    EXPECT_TRUE(a.l1WriteThrough);
}

TEST(UpdateL2, ReaderNeverTakesCoherenceMiss)
{
    Rig r;
    r.l2.access({0, 0x1000, MemOp::Load}, 0);
    r.l2.access({1, 0x1000, MemOp::Load}, 1000);
    // Writer updates; the reader's next read is still a hit.
    r.l2.access({0, 0x1000, MemOp::Store}, 2000);
    AccessResult a = r.l2.access({1, 0x1000, MemOp::Load}, 3000);
    EXPECT_EQ(a.cls, AccessClass::Hit);
    EXPECT_EQ(r.l2.clsCount(AccessClass::RWSMiss), 0u);
}

TEST(UpdateL2, EveryWriteToSharedPaysTheBus)
{
    Rig r;
    r.l2.access({0, 0x1000, MemOp::Load}, 0);
    r.l2.access({1, 0x1000, MemOp::Load}, 1000);
    std::uint64_t upd_before = r.l2.updatesSent();
    for (Tick t = 2000; t < 7000; t += 1000)
        r.l2.access({0, 0x1000, MemOp::Store}, t);
    EXPECT_EQ(r.l2.updatesSent(), upd_before + 5);
}

TEST(UpdateL2, PeerL1CopiesRefreshedOnUpdate)
{
    Rig r;
    r.l2.access({0, 0x1000, MemOp::Load}, 0);
    r.l2.access({1, 0x1000, MemOp::Load}, 1000);
    r.invalidations.clear();
    r.l2.access({0, 0x1000, MemOp::Store}, 2000);
    // Modelled as an L1 refresh at the peer.
    ASSERT_EQ(r.invalidations.size(), 1u);
    EXPECT_EQ(r.invalidations[0].first, 1);
}

TEST(UpdateL2, SoleWriterCollapsesToModified)
{
    Rig r;
    r.l2.access({0, 0x1000, MemOp::Store}, 0);
    EXPECT_EQ(r.l2.stateOf(0, 0x1000), CohState::Modified);
    std::uint64_t upd_before = r.l2.updatesSent();
    r.l2.access({0, 0x1000, MemOp::Store}, 1000);
    EXPECT_EQ(r.l2.updatesSent(), upd_before);  // silent
}

TEST(UpdateL2, StoreToAbandonedSharedBlockWaitsForItsBusUpd)
{
    Rig r;
    r.l2.access({0, 0x1000, MemOp::Load}, 0);
    r.l2.access({1, 0x1000, MemOp::Load}, 1000);
    // Core 1 replaces its copy (set 0 of 8, stride 1024); core 0's stays
    // Shared with no sharer left.
    r.l2.access({1, 0x0000, MemOp::Load}, 2000);
    r.l2.access({1, 0x0400, MemOp::Load}, 3000);
    ASSERT_EQ(r.l2.stateOf(1, 0x1000), CohState::Invalid);
    ASSERT_EQ(r.l2.stateOf(0, 0x1000), CohState::Shared);
    std::uint64_t upd_before = r.l2.updatesSent();
    AccessResult a = r.l2.access({0, 0x1000, MemOp::Store}, 5000);
    // The store still broadcasts, finds nobody and collapses to M; it
    // completes when the bus grants the BusUpd, as MESI's BusUpg does:
    // port (5000) + cache 10 + bus 32.
    EXPECT_EQ(r.l2.updatesSent(), upd_before + 1);
    EXPECT_EQ(r.l2.stateOf(0, 0x1000), CohState::Modified);
    EXPECT_EQ(a.complete, 5000u + 10u + 32u);
}

TEST(UpdateL2, WriteMissJoinsSharersAndUpdates)
{
    Rig r;
    r.l2.access({0, 0x1000, MemOp::Load}, 0);
    AccessResult a = r.l2.access({1, 0x1000, MemOp::Store}, 1000);
    EXPECT_EQ(a.cls, AccessClass::ROSMiss);
    EXPECT_EQ(r.l2.stateOf(0, 0x1000), CohState::Shared);
    EXPECT_EQ(r.l2.stateOf(1, 0x1000), CohState::Shared);
    EXPECT_TRUE(r.l2.ownerOf(1, 0x1000));
    EXPECT_GE(r.l2.updatesSent(), 1u);
    r.l2.checkInvariants();
}

TEST(UpdateL2, OwnerEvictionWritesBack)
{
    Rig r;
    r.l2.access({0, 0x1000, MemOp::Load}, 0);
    r.l2.access({1, 0x1000, MemOp::Load}, 100);
    r.l2.access({0, 0x1000, MemOp::Store}, 200);  // core 0 owns, dirty
    std::uint64_t wb_before = r.mem.writebacks();
    // Evict 0x1000 from core 0's set (8 sets, stride 1024; 0x1000 is
    // set 0; fill with set-0 blocks).
    r.l2.access({0, 0x0000, MemOp::Load}, 1000);
    r.l2.access({0, 0x0400, MemOp::Load}, 2000);
    r.l2.access({0, 0x0800, MemOp::Load}, 3000);
    EXPECT_GE(r.mem.writebacks(), wb_before + 1);
    r.l2.checkInvariants();
}

TEST(UpdateL2, CapacityCostOfKeptCopies)
{
    // The update protocol keeps N copies alive: its aggregate
    // footprint matches uncontrolled replication, unlike ISC's single
    // copy. Verify both caches hold the block simultaneously.
    Rig r;
    r.l2.access({0, 0x1000, MemOp::Load}, 0);
    r.l2.access({1, 0x1000, MemOp::Load}, 100);
    r.l2.access({2, 0x1000, MemOp::Load}, 200);
    r.l2.access({3, 0x1000, MemOp::Load}, 300);
    for (CoreId c = 0; c < 4; ++c)
        EXPECT_EQ(r.l2.stateOf(c, 0x1000), CohState::Shared);
}

TEST(UpdateL2DeathTest, CheckpointStateOutOfRangeIsFatal)
{
    Rig r;
    r.l2.access({0, 0x0000, MemOp::Store}, 0);
    ByteWriter w;
    r.l2.saveState(w);
    const std::string bytes = w.take();
    // Core 0's array: sets and ways (u32 each), the LRU clock and one
    // stamp per block (16), then the first block's {u64 addr, u8 flags,
    // u8 state}.
    const std::size_t state_at = 4 + 4 + 8 + 16 * 8 + 8 + 1;
    ASSERT_EQ(bytes[state_at], static_cast<char>(CohState::Modified));
    auto load = [](const std::string &b) {
        MainMemory mem;
        SnoopBus bus;
        UpdateL2 fresh(tinyUpdate(), bus, mem);
        ByteReader rd(b.data(), b.size(), "test checkpoint");
        fresh.loadState(rd);
    };
    load(bytes);
    std::string bad = bytes;
    bad[state_at] = 9;
    EXPECT_DEATH(load(bad),
                 "fatal: test checkpoint: block state 9 is not I, S, E or M");
}

} // namespace
} // namespace cnsim
