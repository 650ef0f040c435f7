/**
 * @file
 * Parameterized geometry sweeps: every cache structure must behave
 * across its legal parameter space, not just the paper's point. Each
 * sweep drives random traffic and checks invariants / conservation
 * properties.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "cache/l1_cache.hh"
#include "common/rng.hh"
#include "l2/private_l2.hh"
#include "l2/shared_l2.hh"
#include "mem/bus.hh"
#include "mem/memory.hh"
#include "nurapid/cmp_nurapid.hh"

namespace cnsim
{
namespace
{

// ---------------- L1 geometry sweep ----------------

class L1Geometry
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(L1Geometry, FillLookupInvalidateConsistency)
{
    auto [size_kb, assoc] = GetParam();
    L1Params p;
    p.size = size_kb * 1024;
    p.assoc = assoc;
    p.block_size = 64;
    L1Cache l1("l1", p);
    Rng rng(size_kb * 31 + assoc);

    for (int i = 0; i < 5000; ++i) {
        Addr a = static_cast<Addr>(rng.below(4096)) * 64;
        if (!l1.loadHit(a))
            l1.fill(a, false, false);
        // A block just filled or hit must hit again immediately.
        EXPECT_TRUE(l1.loadHit(a));
        if (rng.chance(0.05)) {
            l1.invalidateL2Block(blockAlign(a, 128), 128);
            EXPECT_FALSE(l1.loadHit(a));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, L1Geometry,
    ::testing::Combine(::testing::Values(4u, 16u, 64u),
                       ::testing::Values(1u, 2u, 8u)));

// ---------------- shared L2 geometry sweep ----------------

class SharedGeometry
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(SharedGeometry, OccupancyNeverExceedsCapacity)
{
    auto [cap_kb, assoc] = GetParam();
    SharedL2Params p;
    p.capacity = static_cast<std::uint64_t>(cap_kb) * 1024;
    p.assoc = assoc;
    p.block_size = 128;
    MainMemory mem;
    SharedL2 l2(p, mem);
    l2.setL1Hooks([](CoreId, Addr) {}, [](CoreId, Addr, bool) {});
    Rng rng(cap_kb + assoc);
    std::uint64_t blocks = p.capacity / p.block_size;
    Tick t = 0;
    for (int i = 0; i < 4000; ++i) {
        MemAccess acc{static_cast<CoreId>(rng.below(4)),
                      static_cast<Addr>(rng.below(8192)) * 128,
                      rng.chance(0.3) ? MemOp::Store : MemOp::Load};
        l2.access(acc, t);
        t += 50;
        if (i % 500 == 499) {
            EXPECT_LE(l2.validBlockCount(), blocks);
            l2.checkInvariants();
        }
    }
    // Under uniform traffic wider than capacity, the cache fills up to
    // the smaller of its capacity and the unique blocks it could have
    // seen.
    std::uint64_t reachable = std::min<std::uint64_t>(blocks, 4000 / 2);
    EXPECT_GT(l2.validBlockCount(), reachable / 2);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SharedGeometry,
    ::testing::Combine(::testing::Values(64u, 256u, 1024u),
                       ::testing::Values(4u, 16u, 32u)));

// ---------------- CMP-NuRAPID geometry sweep ----------------

struct NuGeom
{
    int dgroups;
    unsigned frames;
    unsigned assoc;
    unsigned tag_factor;
};

class NurapidGeometry : public ::testing::TestWithParam<NuGeom>
{
};

TEST_P(NurapidGeometry, InvariantsAcrossGeometries)
{
    const NuGeom &g = GetParam();
    NurapidParams p;
    p.num_cores = 4;
    p.num_dgroups = g.dgroups;
    p.dgroup_capacity = static_cast<std::uint64_t>(g.frames) * 128;
    p.assoc = g.assoc;
    p.tag_factor = g.tag_factor;
    p.block_size = 128;
    MainMemory mem;
    SnoopBus bus;
    CmpNurapid l2(p, bus, mem);
    l2.setL1Hooks([](CoreId, Addr) {}, [](CoreId, Addr, bool) {});
    Rng rng(g.dgroups * 1000 + g.frames + g.assoc + g.tag_factor);
    Tick t = 0;
    std::uint32_t pool =
        g.frames * static_cast<std::uint32_t>(g.dgroups) * 2;
    for (int i = 0; i < 3000; ++i) {
        MemAccess acc{static_cast<CoreId>(rng.below(4)),
                      static_cast<Addr>(rng.below(pool)) * 128,
                      rng.chance(0.3) ? MemOp::Store : MemOp::Load};
        l2.access(acc, t);
        t += 50;
        if (i % 499 == 498)
            l2.checkInvariants();
    }
    l2.checkInvariants();
    // Total valid frames never exceed the array.
    unsigned total = 0;
    for (DGroupId d = 0; d < g.dgroups; ++d) {
        EXPECT_LE(l2.dgroupOccupancy(d), g.frames);
        total += l2.dgroupOccupancy(d);
    }
    EXPECT_LE(total, g.frames * static_cast<unsigned>(g.dgroups));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NurapidGeometry,
    ::testing::Values(NuGeom{4, 16, 8, 2}, NuGeom{4, 64, 8, 2},
                      NuGeom{4, 16, 4, 2}, NuGeom{4, 32, 8, 1},
                      NuGeom{4, 32, 8, 4}, NuGeom{8, 16, 8, 2},
                      NuGeom{8, 64, 4, 2}, NuGeom{4, 128, 16, 2}));

// ---------------- private L2 geometry sweep ----------------

class PrivateGeometry
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(PrivateGeometry, CoherenceHoldsAcrossGeometries)
{
    auto [cap_kb, assoc] = GetParam();
    PrivateL2Params p;
    p.capacity_per_core = static_cast<std::uint64_t>(cap_kb) * 1024;
    p.assoc = assoc;
    MainMemory mem;
    SnoopBus bus;
    PrivateL2 l2(p, bus, mem);
    l2.setL1Hooks([](CoreId, Addr) {}, [](CoreId, Addr, bool) {});
    Rng rng(cap_kb * 7 + assoc);
    Tick t = 0;
    for (int i = 0; i < 3000; ++i) {
        MemAccess acc{static_cast<CoreId>(rng.below(4)),
                      static_cast<Addr>(rng.below(512)) * 128,
                      rng.chance(0.4) ? MemOp::Store : MemOp::Load};
        l2.access(acc, t);
        t += 50;
        if (i % 500 == 499)
            l2.checkInvariants();
    }
    l2.checkInvariants();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PrivateGeometry,
    ::testing::Combine(::testing::Values(16u, 64u, 256u),
                       ::testing::Values(2u, 8u)));

} // namespace
} // namespace cnsim
