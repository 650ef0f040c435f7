/**
 * @file
 * Unit tests for CMP-DNUCA block migration, including the negative
 * result the paper relies on: sharers tug a block toward the grid
 * centre instead of anyone's corner.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/bytes.hh"
#include "l2/dnuca_l2.hh"
#include "mem/memory.hh"

namespace cnsim
{
namespace
{

SharedL2Params
tinyShared()
{
    SharedL2Params p;
    p.capacity = 8192;
    p.assoc = 2;
    p.block_size = 128;
    p.num_cores = 4;
    return p;
}

struct Rig
{
    MainMemory mem;
    DnucaL2 l2;

    Rig() : l2(tinyShared(), SnucaParams{}, mem)
    {
        l2.setL1Hooks([](CoreId, Addr) {}, [](CoreId, Addr, bool) {});
    }
};

TEST(DnucaL2, FillsIntoHomeBank)
{
    Rig r;
    r.l2.access({0, 0x1000, MemOp::Load}, 0);
    EXPECT_EQ(r.l2.bankOf(0x1000),
              static_cast<int>(r.l2.homeBank(0x1000)));
}

TEST(DnucaL2, SoleUserPullsBlockToItsCorner)
{
    Rig r;
    // Block homed in bank 15 (core 3's corner); core 0 hammers it.
    Addr a = 15 * 128;
    ASSERT_EQ(r.l2.homeBank(a), 15u);
    r.l2.access({0, a, MemOp::Load}, 0);
    for (int i = 1; i <= 10; ++i)
        r.l2.access({0, a, MemOp::Load}, static_cast<Tick>(i) * 1000);
    // After enough hits the block sits in core 0's corner bank 0.
    EXPECT_EQ(r.l2.bankOf(a), 0);
    EXPECT_GE(r.l2.migrations(), 6u);
}

TEST(DnucaL2, MigrationReducesLatencyForSoleUser)
{
    Rig r;
    Addr a = 15 * 128;
    r.l2.access({0, a, MemOp::Load}, 0);
    for (int i = 1; i <= 10; ++i)
        r.l2.access({0, a, MemOp::Load}, static_cast<Tick>(i) * 1000);
    AccessResult res = r.l2.access({0, a, MemOp::Load}, 100000);
    SnucaParams np;
    EXPECT_EQ(res.complete, 100000u + np.base_latency);
}

TEST(DnucaL2, SharersLeaveBlockInTheMiddle)
{
    // The paper: "each sharer pulls the block toward it, leaving the
    // block in the middle, far away from all the sharers."
    Rig r;
    Addr a = 0;
    r.l2.access({0, a, MemOp::Load}, 0);
    // All four corners hit the block round-robin.
    for (int i = 1; i <= 40; ++i) {
        r.l2.access({static_cast<CoreId>(i % 4), a, MemOp::Load},
                    static_cast<Tick>(i) * 1000);
    }
    int bank = r.l2.bankOf(a);
    ASSERT_NE(bank, invalid_id);
    // Middle of the 4x4 grid: x and y in {1, 2}.
    int x = bank % 4;
    int y = bank / 4;
    EXPECT_GE(x, 1);
    EXPECT_LE(x, 2);
    EXPECT_GE(y, 1);
    EXPECT_LE(y, 2);
}

TEST(DnucaL2, PureSharedSemantics)
{
    Rig r;
    r.l2.access({0, 0x1000, MemOp::Store}, 0);
    AccessResult res = r.l2.access({1, 0x1000, MemOp::Load}, 1000);
    // One copy, no coherence misses.
    EXPECT_EQ(res.cls, AccessClass::Hit);
    EXPECT_EQ(r.l2.clsCount(AccessClass::ROSMiss), 0u);
    EXPECT_EQ(r.l2.clsCount(AccessClass::RWSMiss), 0u);
}

TEST(DnucaL2, StoreInvalidatesPeerL1s)
{
    MainMemory mem;
    DnucaL2 l2(tinyShared(), SnucaParams{}, mem);
    int invalidated = 0;
    l2.setL1Hooks([&](CoreId, Addr) { ++invalidated; },
                  [](CoreId, Addr, bool) {});
    l2.access({0, 0x1000, MemOp::Load}, 0);
    l2.access({1, 0x1000, MemOp::Store}, 1000);
    EXPECT_EQ(invalidated, 1);
}

TEST(DnucaL2, EvictionWritesBackDirty)
{
    Rig r;
    // 32 sets (8192/2/128): stride 4096 collides.
    r.l2.access({0, 0x0000, MemOp::Store}, 0);
    r.l2.access({0, 0x1000, MemOp::Load}, 1000);
    std::uint64_t wb = r.mem.writebacks();
    r.l2.access({0, 0x2000, MemOp::Load}, 2000);
    EXPECT_EQ(r.mem.writebacks(), wb + 1);
    r.l2.checkInvariants();
}

TEST(DnucaL2, MigrationCounterAdvancesOnlyOnMoves)
{
    Rig r;
    Addr a = 0;  // homed in bank 0 = core 0's corner
    r.l2.access({0, a, MemOp::Load}, 0);
    std::uint64_t m = r.l2.migrations();
    r.l2.access({0, a, MemOp::Load}, 1000);
    // Already at the requestor's corner: no move.
    EXPECT_EQ(r.l2.migrations(), m);
}

TEST(DnucaL2DeathTest, CheckpointBankOffTheGridIsFatal)
{
    Rig r;
    ByteWriter w;
    r.l2.saveState(w);
    std::string bytes = w.take();
    // 64 blocks: sets and ways (u32 each), the LRU clock and one LRU
    // stamp per block, then the first record's address and flags come
    // before its u32 bank.
    bytes[4 + 4 + 8 + 64 * 8 + 8 + 1] = 16;
    MainMemory mem;
    DnucaL2 fresh(tinyShared(), SnucaParams{}, mem);
    ByteReader rd(bytes.data(), bytes.size(), "test checkpoint");
    EXPECT_DEATH(fresh.loadState(rd), "bank 16 does not fit this run's 16");
}

} // namespace
} // namespace cnsim
