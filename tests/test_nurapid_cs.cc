/**
 * @file
 * Capacity-stealing tests for CMP-NuRAPID (paper Section 3.3):
 * placement in the closest d-group, demotion chains into neighbours'
 * d-groups, promotion policies, and the shared-block eviction rule.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/stats.hh"
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
    p.tag_factor = 2;  // 32 tag entries per core
    p.seed = 3;
    return p;
}

struct Rig
{
    MainMemory mem;
    SnoopBus bus;
    CmpNurapid l2;

    explicit Rig(NurapidParams p = tinyNurapid()) : l2(p, bus, mem)
    {
        l2.setL1Hooks([](CoreId, Addr) {}, [](CoreId, Addr, bool) {});
    }
};

TEST(NurapidCS, PrivateBlocksPlaceInClosestDGroup)
{
    Rig r;
    for (CoreId c = 0; c < 4; ++c) {
        Addr a = 0x10000 + static_cast<Addr>(c) * 0x10000;
        r.l2.access({c, a, MemOp::Load}, static_cast<Tick>(c) * 1000);
        EXPECT_EQ(r.l2.fwdOf(c, a).dgroup, r.l2.prefTable().closest(c));
    }
}

TEST(NurapidCS, OverflowStealsNeighbourCapacity)
{
    Rig r;
    // Core 0 touches 24 private blocks: 16 fill d-group a, the rest
    // must overflow into neighbours' (empty) d-groups via demotion.
    Tick t = 0;
    for (int i = 0; i < 24; ++i) {
        // Spread across tag sets (stride 1 block).
        r.l2.access({0, static_cast<Addr>(i) * 128, MemOp::Load}, t);
        t += 1000;
    }
    EXPECT_EQ(r.l2.dgroupOccupancy(0), 16u);
    unsigned stolen = r.l2.dgroupOccupancy(1) + r.l2.dgroupOccupancy(2) +
                      r.l2.dgroupOccupancy(3);
    EXPECT_EQ(stolen, 8u);
    EXPECT_GE(r.l2.demotions(), 8u);
    // Nothing was evicted from the cache: all 24 blocks still hit.
    for (int i = 0; i < 24; ++i)
        EXPECT_NE(r.l2.stateOf(0, static_cast<Addr>(i) * 128),
                  CohState::Invalid);
    r.l2.checkInvariants();
}

TEST(NurapidCS, DemotedBlockPromotesOnReuse)
{
    Rig r;
    Tick t = 0;
    for (int i = 0; i < 24; ++i) {
        r.l2.access({0, static_cast<Addr>(i) * 128, MemOp::Load}, t);
        t += 1000;
    }
    // Find a demoted block (forward pointer outside d-group a).
    Addr demoted = 0;
    bool found = false;
    for (int i = 0; i < 24 && !found; ++i) {
        Addr a = static_cast<Addr>(i) * 128;
        if (r.l2.fwdOf(0, a).valid() && r.l2.fwdOf(0, a).dgroup != 0) {
            demoted = a;
            found = true;
        }
    }
    ASSERT_TRUE(found);
    std::uint64_t promos = r.l2.promotions();
    r.l2.access({0, demoted, MemOp::Load}, t);
    // Fastest policy: straight back to the closest d-group.
    EXPECT_EQ(r.l2.fwdOf(0, demoted).dgroup, 0);
    EXPECT_EQ(r.l2.promotions(), promos + 1);
    r.l2.checkInvariants();
}

TEST(NurapidCS, NextFastestPromotesOneStep)
{
    NurapidParams p = tinyNurapid();
    p.promotion = PromotionPolicy::NextFastest;
    p.tag_factor = 4;  // 64 tag entries: enough to keep 40 blocks live
    Rig r(p);
    Tick t = 0;
    // Overfill far enough that some block demotes at least two ranks.
    for (int i = 0; i < 40; ++i) {
        r.l2.access({0, static_cast<Addr>(i) * 128, MemOp::Load}, t);
        t += 1000;
    }
    // Find a block at preference rank >= 2 for core 0.
    Addr deep = 0;
    int deep_rank = 0;
    for (int i = 0; i < 40; ++i) {
        Addr a = static_cast<Addr>(i) * 128;
        FwdPtr f = r.l2.fwdOf(0, a);
        if (!f.valid())
            continue;
        int rank = r.l2.prefTable().rankOf(0, f.dgroup);
        if (rank > deep_rank) {
            deep_rank = rank;
            deep = a;
        }
    }
    ASSERT_GE(deep_rank, 2);
    r.l2.access({0, deep, MemOp::Load}, t);
    // One step closer, not all the way.
    EXPECT_EQ(r.l2.prefTable().rankOf(0, r.l2.fwdOf(0, deep).dgroup),
              deep_rank - 1);
    r.l2.checkInvariants();
}

TEST(NurapidCS, PromotionDisabledLeavesBlocksInPlace)
{
    NurapidParams p = tinyNurapid();
    p.promotion = PromotionPolicy::None;
    Rig r(p);
    Tick t = 0;
    for (int i = 0; i < 24; ++i) {
        r.l2.access({0, static_cast<Addr>(i) * 128, MemOp::Load}, t);
        t += 1000;
    }
    for (int i = 0; i < 24; ++i) {
        Addr a = static_cast<Addr>(i) * 128;
        FwdPtr before = r.l2.fwdOf(0, a);
        r.l2.access({0, a, MemOp::Load}, t);
        t += 1000;
        EXPECT_TRUE(r.l2.fwdOf(0, a) == before);
    }
    EXPECT_EQ(r.l2.promotions(), 0u);
}

TEST(NurapidCS, NonUniformDemandCustomizesAllocation)
{
    Rig r;
    // Core 0 is a heavy user (40 blocks), core 1 a light one (4).
    Tick t = 0;
    for (int i = 0; i < 4; ++i) {
        r.l2.access({1, 0x100000 + static_cast<Addr>(i) * 128,
                     MemOp::Load},
                    t);
        t += 1000;
    }
    for (int i = 0; i < 40; ++i) {
        r.l2.access({0, static_cast<Addr>(i) * 128, MemOp::Load}, t);
        t += 1000;
    }
    // Core 0 overflowed well beyond its own 16-frame d-group via
    // demotion: the footprint it holds exceeds the private-cache share
    // a pure private organization would cap it at.
    unsigned core0_live = 0;
    for (int i = 0; i < 40; ++i)
        core0_live += r.l2.stateOf(0, static_cast<Addr>(i) * 128) !=
                      CohState::Invalid;
    EXPECT_GT(core0_live, 16u);
    EXPECT_GT(r.l2.demotions(), 0u);
    // The stolen frames live outside core 0's own d-group.
    unsigned outside = r.l2.dgroupOccupancy(1) + r.l2.dgroupOccupancy(2) +
                       r.l2.dgroupOccupancy(3);
    EXPECT_GT(outside, 4u);  // more than core 1's four blocks
    r.l2.checkInvariants();
}

TEST(NurapidCS, DemotionChainEvictsAtFullCapacity)
{
    Rig r;
    // 64 frames total; 70 distinct blocks from one core must evict.
    Tick t = 0;
    for (int i = 0; i < 70; ++i) {
        r.l2.access({0, static_cast<Addr>(i) * 128, MemOp::Load}, t);
        t += 1000;
    }
    unsigned total = 0;
    for (int g = 0; g < 4; ++g)
        total += r.l2.dgroupOccupancy(g);
    EXPECT_LE(total, 64u);
    r.l2.checkInvariants();
}

TEST(NurapidCS, TagVictimFrameEndsTheDemotionChain)
{
    // Specific distance replacement (Section 3.3.2): when a fill's tag
    // victim frees a frame in d-group X, the demotion chain the fill
    // starts in the full closest d-group stops in X's freed frame, so
    // no block leaves the cache. A random stop short of X would evict
    // one. Two frames per d-group and two 2-way tag sets per core make
    // such fills common; every core churns through its own blocks.
    NurapidParams p = tinyNurapid();
    p.dgroup_capacity = 2 * 128;
    p.assoc = 2;
    p.promotion = PromotionPolicy::None;
    int specific_stops = 0;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        p.seed = seed;
        Rig r(p);
        StatGroup stats("nurapid");
        r.l2.regStats(stats);
        const Counter &chain_stops = stats.counter("l2.chainStopEvictions");
        const PrefTable &pref = r.l2.prefTable();
        // Core 0's blocks of each tag set, oldest first: it never hits,
        // so the oldest still valid one is its set's LRU entry.
        std::vector<Addr> fifo[2];
        Tick t = 0;
        for (int i = 0; i < 200; ++i) {
            t += 1000;
            CoreId c = static_cast<CoreId>(i % 4);
            Addr a = 0x100000 * (c + 1) + static_cast<Addr>(i / 4) * 128;
            if (c != 0) {
                r.l2.access({c, a, MemOp::Load}, t);
                continue;
            }
            auto &set = fifo[(a >> 7) & 1];
            std::erase_if(set, [&](Addr b) {
                return r.l2.stateOf(0, b) == CohState::Invalid;
            });
            bool specific = false;
            DGroupId freed = invalid_id;
            if (set.size() == 2) {
                freed = r.l2.fwdOf(0, set.front()).dgroup;
                int rank = pref.rankOf(0, freed);
                specific = rank >= 2;
                for (int k = 0; k < rank; ++k)
                    specific = specific &&
                               r.l2.dgroupOccupancy(pref.order(0)[k]) == 2;
            }
            std::uint64_t stops = chain_stops.value();
            r.l2.access({0, a, MemOp::Load}, t);
            set.push_back(a);
            if (specific) {
                ++specific_stops;
                EXPECT_EQ(chain_stops.value(), stops) << "seed " << seed;
                EXPECT_EQ(r.l2.dgroupOccupancy(freed), 2u) << "seed " << seed;
            }
        }
        r.l2.checkInvariants();
    }
    // The chain ran into a freed frame two or three ranks down often
    // enough that a random stop would have cut it short.
    EXPECT_GE(specific_stops, 10);
}

TEST(NurapidCS, SharedVictimIsEvictedNotDemoted)
{
    Rig r;
    // Make a shared block whose data copy sits in core 0's d-group a.
    r.l2.access({0, 0x100000, MemOp::Load}, 0);
    r.l2.access({1, 0x100000, MemOp::Load}, 500);
    ASSERT_EQ(r.l2.stateOf(0, 0x100000), CohState::Shared);
    // Now stuff d-group a with core-0 private blocks until demotion
    // chains run. The shared frame may be picked as a distance victim;
    // it must be evicted (BusRepl), never demoted.
    Tick t = 1000;
    for (int i = 0; i < 60; ++i) {
        r.l2.access({0, static_cast<Addr>(i) * 128, MemOp::Load}, t);
        t += 1000;
    }
    // Either the shared block survived in place (never chosen) or it
    // was evicted entirely -- but it can never sit outside d-group a.
    FwdPtr f = r.l2.fwdOf(0, 0x100000);
    if (f.valid()) {
        EXPECT_EQ(f.dgroup, 0);
    }
    r.l2.checkInvariants();
}

TEST(NurapidCS, WriteMissFillsModifiedInClosest)
{
    Rig r;
    r.l2.access({2, 0x5000, MemOp::Store}, 0);
    EXPECT_EQ(r.l2.stateOf(2, 0x5000), CohState::Modified);
    EXPECT_EQ(r.l2.fwdOf(2, 0x5000).dgroup, 2);
    // Eviction of an M block writes back.
    Tick t = 1000;
    for (int i = 0; i < 70; ++i) {
        r.l2.access({2, 0x100000 + static_cast<Addr>(i) * 128,
                     MemOp::Load},
                    t);
        t += 1000;
    }
    if (r.l2.stateOf(2, 0x5000) == CohState::Invalid) {
        EXPECT_GE(r.mem.writebacks(), 1u);
    }
    r.l2.checkInvariants();
}

TEST(NurapidCS, ClosestHitFractionHighUnderLocality)
{
    Rig r;
    Tick t = 0;
    // A small hot set reused heavily stays closest.
    for (int round = 0; round < 20; ++round) {
        for (int i = 0; i < 8; ++i) {
            r.l2.access({0, static_cast<Addr>(i) * 128, MemOp::Load}, t);
            t += 1000;
        }
    }
    EXPECT_GT(r.l2.closestHitFraction(), 0.95);
}

} // namespace
} // namespace cnsim
