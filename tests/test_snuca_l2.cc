/**
 * @file
 * Unit tests for the CMP-SNUCA non-uniform-shared baseline.
 */

#include <gtest/gtest.h>

#include "l2/snuca_l2.hh"
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

SnucaParams
defaultSnuca()
{
    return SnucaParams{};
}

TEST(SnucaL2, BankMappingIsStatic)
{
    MainMemory mem;
    SnucaL2 l2(tinyShared(), defaultSnuca(), mem);
    for (Addr a = 0; a < 16 * 128; a += 128)
        EXPECT_EQ(l2.bankOf(a), (a / 128) % 16);
    // Same block always maps to the same bank.
    EXPECT_EQ(l2.bankOf(0x4000), l2.bankOf(0x4000));
}

TEST(SnucaL2, CornerCoreLatencyGradient)
{
    MainMemory mem;
    SnucaParams np = defaultSnuca();
    SnucaL2 l2(tinyShared(), np, mem);
    // Core 0 sits at grid (0,0): bank 0 is closest, bank 15 farthest
    // (6 hops away on the 4x4 grid).
    EXPECT_EQ(l2.bankLatency(0, 0), np.base_latency);
    EXPECT_EQ(l2.bankLatency(0, 15), np.base_latency + np.per_hop * 6);
    // Core 3 sits at the opposite corner.
    EXPECT_EQ(l2.bankLatency(3, 15), np.base_latency);
    EXPECT_EQ(l2.bankLatency(3, 0), np.base_latency + np.per_hop * 6);
}

TEST(SnucaL2, MeanLatencySymmetricAcrossCores)
{
    MainMemory mem;
    SnucaL2 l2(tinyShared(), defaultSnuca(), mem);
    double m0 = l2.meanLatency(0);
    for (CoreId c = 1; c < 4; ++c)
        EXPECT_DOUBLE_EQ(l2.meanLatency(c), m0);
    // The average beats the 59-cycle uniform-shared cache.
    EXPECT_LT(m0, 59.0);
}

TEST(SnucaL2, HitLatencyDependsOnBankDistance)
{
    MainMemory mem;
    SnucaParams np = defaultSnuca();
    SnucaL2 l2(tinyShared(), np, mem);
    // Block in bank 0: closest for core 0, farthest for core 3.
    l2.access({0, 0, MemOp::Load}, 0);
    AccessResult near = l2.access({0, 0, MemOp::Load}, 1000);
    AccessResult far = l2.access({3, 0, MemOp::Load}, 2000);
    EXPECT_EQ(near.cls, AccessClass::Hit);
    EXPECT_EQ(near.complete, 1000u + np.base_latency);
    EXPECT_EQ(far.complete, 2000u + np.base_latency + np.per_hop * 6);
}

TEST(SnucaL2, NoSharingMissesEver)
{
    MainMemory mem;
    SnucaL2 l2(tinyShared(), defaultSnuca(), mem);
    l2.access({0, 0x1000, MemOp::Store}, 0);
    AccessResult r = l2.access({1, 0x1000, MemOp::Load}, 1000);
    EXPECT_EQ(r.cls, AccessClass::Hit);
    EXPECT_EQ(l2.clsCount(AccessClass::ROSMiss), 0u);
    EXPECT_EQ(l2.clsCount(AccessClass::RWSMiss), 0u);
}

TEST(SnucaL2, MissFillsFromMemory)
{
    MainMemory mem;
    SnucaL2 l2(tinyShared(), defaultSnuca(), mem);
    AccessResult r = l2.access({0, 0x1000, MemOp::Load}, 0);
    EXPECT_EQ(r.cls, AccessClass::CapacityMiss);
    EXPECT_EQ(mem.reads(), 1u);
}

TEST(SnucaL2, StoreInvalidatesPeerL1s)
{
    MainMemory mem;
    SnucaL2 l2(tinyShared(), defaultSnuca(), mem);
    int invalidated = 0;
    l2.setL1Hooks([&](CoreId, Addr) { ++invalidated; },
                  [](CoreId, Addr, bool) {});
    l2.access({0, 0x1000, MemOp::Load}, 0);
    l2.access({1, 0x1000, MemOp::Store}, 100);
    EXPECT_EQ(invalidated, 1);
}

TEST(SnucaL2, BankPortContention)
{
    MainMemory mem;
    SnucaParams np = defaultSnuca();
    SnucaL2 l2(tinyShared(), np, mem);
    l2.access({0, 0, MemOp::Load}, 0);      // warm bank 0's block
    Tick t0 = 100000;
    AccessResult a = l2.access({0, 0, MemOp::Load}, t0);
    AccessResult b = l2.access({0, 0, MemOp::Load}, t0);
    EXPECT_EQ(a.complete, t0 + np.base_latency);
    // The second access queues one occupancy slot behind the first.
    EXPECT_EQ(b.complete, t0 + np.occupancy + np.base_latency);
}

TEST(SnucaL2DeathTest, NonSquareBankCountIsFatal)
{
    MainMemory mem;
    SnucaParams np;
    np.banks = 12;
    EXPECT_DEATH({ SnucaL2 l2(tinyShared(), np, mem); },
                 "perfect square");
}

} // namespace
} // namespace cnsim
