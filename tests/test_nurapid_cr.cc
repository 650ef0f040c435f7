/**
 * @file
 * Controlled-replication tests for CMP-NuRAPID (paper Section 3.1):
 * pointer-return on first use, data replica on second use, BusRepl on
 * shared-data replacement, and the tag/data capacity interplay.
 */

#include <gtest/gtest.h>

#include "mem/bus.hh"
#include "mem/memory.hh"
#include "nurapid/cmp_nurapid.hh"

namespace cnsim
{
namespace
{

NurapidParams
tinyNurapid()
{
    NurapidParams p;
    p.num_cores = 4;
    p.num_dgroups = 4;
    p.dgroup_capacity = 16 * 128;  // 16 frames per d-group
    p.block_size = 128;
    p.assoc = 8;
    p.tag_factor = 2;  // 4 tag sets x 8 ways = 32 entries per core
    return p;
}

struct Rig
{
    MainMemory mem;
    SnoopBus bus;
    CmpNurapid l2;
    std::vector<std::pair<CoreId, Addr>> invalidations;

    explicit Rig(NurapidParams p = tinyNurapid())
        : l2(p, bus, mem)
    {
        l2.setL1Hooks(
            [this](CoreId c, Addr a) { invalidations.push_back({c, a}); },
            [](CoreId, Addr, bool) {});
    }
};

TEST(NurapidCR, ColdFillGoesToClosestDGroupExclusive)
{
    Rig r;
    AccessResult a = r.l2.access({0, 0x1000, MemOp::Load}, 0);
    EXPECT_EQ(a.cls, AccessClass::CapacityMiss);
    EXPECT_EQ(r.l2.stateOf(0, 0x1000), CohState::Exclusive);
    EXPECT_EQ(r.l2.fwdOf(0, 0x1000).dgroup, 0);  // P0's closest is a
    EXPECT_EQ(r.l2.framesHolding(0x1000), 1);
    // tag(5) + bus(32) + memory(16+300).
    EXPECT_EQ(a.complete, 5u + 32u + 16u + 300u);
}

TEST(NurapidCR, FirstUseReturnsPointerNotData)
{
    Rig r;
    r.l2.access({0, 0x1000, MemOp::Load}, 0);
    AccessResult a = r.l2.access({1, 0x1000, MemOp::Load}, 1000);
    // ROS miss, but the reader made only a tag copy (Figure 3b).
    EXPECT_EQ(a.cls, AccessClass::ROSMiss);
    EXPECT_EQ(r.l2.framesHolding(0x1000), 1);
    EXPECT_EQ(r.l2.stateOf(0, 0x1000), CohState::Shared);  // E -> S
    EXPECT_EQ(r.l2.stateOf(1, 0x1000), CohState::Shared);
    // Both tags point at the same frame in d-group a.
    EXPECT_TRUE(r.l2.fwdOf(1, 0x1000) == r.l2.fwdOf(0, 0x1000));
    EXPECT_EQ(r.l2.pointerJoins(), 1u);
    r.l2.checkInvariants();
}

TEST(NurapidCR, PointerReturnIsOnChipLatency)
{
    Rig r;
    r.l2.access({0, 0x1000, MemOp::Load}, 0);
    AccessResult a = r.l2.access({1, 0x1000, MemOp::Load}, 1000);
    // tag(5) + bus(32) + middle d-group access (20): far below memory.
    EXPECT_EQ(a.complete, 1000u + 5u + 32u + 20u);
}

TEST(NurapidCR, SecondUseReplicatesIntoClosestDGroup)
{
    Rig r;
    r.l2.access({0, 0x1000, MemOp::Load}, 0);
    r.l2.access({1, 0x1000, MemOp::Load}, 1000);
    // Second use by P1: tag hit, remote frame -> replicate (Fig. 3c).
    AccessResult a = r.l2.access({1, 0x1000, MemOp::Load}, 2000);
    EXPECT_EQ(a.cls, AccessClass::Hit);
    EXPECT_EQ(r.l2.framesHolding(0x1000), 2);
    EXPECT_EQ(r.l2.fwdOf(1, 0x1000).dgroup, 1);  // P1's closest is b
    EXPECT_EQ(r.l2.fwdOf(0, 0x1000).dgroup, 0);  // P0's copy untouched
    EXPECT_EQ(r.l2.replications(), 1u);
    r.l2.checkInvariants();
}

TEST(NurapidCR, ThirdUseHitsClosestFast)
{
    Rig r;
    r.l2.access({0, 0x1000, MemOp::Load}, 0);
    r.l2.access({1, 0x1000, MemOp::Load}, 1000);
    r.l2.access({1, 0x1000, MemOp::Load}, 2000);
    AccessResult a = r.l2.access({1, 0x1000, MemOp::Load}, 3000);
    EXPECT_EQ(r.l2.fwdOf(1, 0x1000).dgroup, r.l2.prefTable().closest(1));
    // tag(5) + closest d-group (6).
    EXPECT_EQ(a.complete, 3000u + 5u + 6u);
}

TEST(NurapidCR, ReplicationDisabledKeepsSingleCopy)
{
    NurapidParams p = tinyNurapid();
    p.replication = ReplicationPolicy::Never;
    Rig r(p);
    r.l2.access({0, 0x1000, MemOp::Load}, 0);
    r.l2.access({1, 0x1000, MemOp::Load}, 1000);
    r.l2.access({1, 0x1000, MemOp::Load}, 2000);
    r.l2.access({1, 0x1000, MemOp::Load}, 3000);
    EXPECT_EQ(r.l2.framesHolding(0x1000), 1);
    EXPECT_EQ(r.l2.replications(), 0u);
}

TEST(NurapidCR, CopyOnFirstUseReplicatesImmediately)
{
    NurapidParams p = tinyNurapid();
    p.replication = ReplicationPolicy::OnFirstUse;
    Rig r(p);
    r.l2.access({0, 0x1000, MemOp::Load}, 0);
    r.l2.access({1, 0x1000, MemOp::Load}, 1000);
    EXPECT_EQ(r.l2.framesHolding(0x1000), 2);
}

TEST(NurapidCR, CrDisabledBehavesLikePrivate)
{
    NurapidParams p = tinyNurapid();
    p.enable_cr = false;
    Rig r(p);
    r.l2.access({0, 0x1000, MemOp::Load}, 0);
    r.l2.access({1, 0x1000, MemOp::Load}, 1000);
    // Uncontrolled replication: a full data copy on the first use.
    EXPECT_EQ(r.l2.framesHolding(0x1000), 2);
    EXPECT_EQ(r.l2.pointerJoins(), 0u);
}

/**
 * Fill tag set 0 of @p joiner with @p n shared pointer-joins whose
 * homes live in core 2's cache. Tag replacement prefers invalid, then
 * private, then shared entries, so displacing a *shared* entry (like a
 * CR-joined block) requires the set to be full of shared blocks.
 */
void
fillWithSharedJoins(Rig &r, CoreId joiner, int n, Tick &t,
                    Addr base = 0x4000)
{
    for (int i = 0; i < n; ++i) {
        Addr a = base + static_cast<Addr>(i) * 4 * 128;  // all set 0
        r.l2.access({2, a, MemOp::Load}, t);
        t += 1000;
        r.l2.access({joiner, a, MemOp::Load}, t);
        t += 1000;
    }
}

TEST(NurapidCR, BusReplInvalidatesPointingSharers)
{
    Rig r;
    // P0 owns X; P1 holds only a tag pointer to P0's frame.
    r.l2.access({0, 0x1000, MemOp::Load}, 0);
    r.l2.access({1, 0x1000, MemOp::Load}, 1000);
    ASSERT_EQ(r.l2.framesHolding(0x1000), 1);
    // Force X (the LRU shared entry) out of P0's 8-way tag set 0.
    Tick t = 2000;
    fillWithSharedJoins(r, 0, 8, t);
    // X's data was replaced: P1's dangling pointer must be gone too
    // (BusRepl, Section 3.1).
    EXPECT_EQ(r.l2.stateOf(0, 0x1000), CohState::Invalid);
    EXPECT_EQ(r.l2.stateOf(1, 0x1000), CohState::Invalid);
    EXPECT_EQ(r.l2.framesHolding(0x1000), 0);
    EXPECT_GE(r.l2.busRepls(), 1u);
    r.l2.checkInvariants();
}

TEST(NurapidCR, SharerWithOwnReplicaSurvivesBusRepl)
{
    Rig r;
    r.l2.access({0, 0x1000, MemOp::Load}, 0);
    r.l2.access({1, 0x1000, MemOp::Load}, 1000);
    r.l2.access({1, 0x1000, MemOp::Load}, 2000);  // P1 replicates
    ASSERT_EQ(r.l2.framesHolding(0x1000), 2);
    // Force P0's home tag for X out; the BusRepl only names P0's frame.
    Tick t = 3000;
    fillWithSharedJoins(r, 0, 8, t);
    EXPECT_EQ(r.l2.stateOf(0, 0x1000), CohState::Invalid);
    // P1 holds its own replica: its tag must survive.
    EXPECT_EQ(r.l2.stateOf(1, 0x1000), CohState::Shared);
    EXPECT_EQ(r.l2.framesHolding(0x1000), 1);
    r.l2.checkInvariants();
}

TEST(NurapidCR, NonHomeTagDropLeavesDataInPlace)
{
    Rig r;
    // P0 owns X; P1 pointer-joins.
    r.l2.access({0, 0x1000, MemOp::Load}, 0);
    r.l2.access({1, 0x1000, MemOp::Load}, 1000);
    // Crowd X (a non-home shared entry) out of P1's tag set 0.
    Tick t = 2000;
    fillWithSharedJoins(r, 1, 8, t, 0x8000);
    EXPECT_EQ(r.l2.stateOf(1, 0x1000), CohState::Invalid);
    // P0's copy is untouched: dropping a non-home tag copy is silent.
    EXPECT_EQ(r.l2.stateOf(0, 0x1000), CohState::Shared);
    EXPECT_EQ(r.l2.framesHolding(0x1000), 1);
    r.l2.checkInvariants();
}

TEST(NurapidCR, TagCapacityIsDoubled)
{
    // With tag_factor 2, each core can name twice its data share: 32
    // tag entries over 16 frames per d-group in the tiny rig.
    Rig r;
    // P0 makes 24 pointer-joins + private fills without thrashing tags.
    Tick t = 0;
    for (int i = 0; i < 24; ++i) {
        r.l2.access({0, static_cast<Addr>(i) * 128, MemOp::Load}, t);
        t += 1000;
    }
    // All 24 still tracked (8 ways x 4 sets = 32 entries, LRU safe).
    int present = 0;
    for (int i = 0; i < 24; ++i)
        present +=
            r.l2.stateOf(0, static_cast<Addr>(i) * 128) != CohState::Invalid;
    EXPECT_EQ(present, 24);
}

} // namespace
} // namespace cnsim
