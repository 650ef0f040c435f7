/**
 * @file
 * Property-based tests for CMP-NuRAPID: random multi-core access
 * streams must preserve the pointer and coherence invariants after
 * every operation, across policy configurations.
 *
 * The invariants checked by CmpNurapid::checkInvariants():
 *  1. every valid tag's forward pointer names a valid frame holding
 *     the same block;
 *  2. every valid frame's reverse pointer names a valid tag whose
 *     forward pointer points straight back;
 *  3. E/M blocks have exactly one tag copy; dirty (M/C) blocks have
 *     exactly one data frame; a block's copies are uniformly S or C;
 *  4. the frame count behind checkBlockInvariants() matches a recount.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <tuple>

#include "common/rng.hh"
#include "mem/bus.hh"
#include "mem/memory.hh"
#include "nurapid/cmp_nurapid.hh"

namespace cnsim
{
namespace
{

NurapidParams
tinyNurapid(std::uint64_t seed)
{
    NurapidParams p;
    p.num_cores = 4;
    p.num_dgroups = 4;
    p.dgroup_capacity = 16 * 128;
    p.block_size = 128;
    p.assoc = 8;
    p.tag_factor = 2;
    p.seed = seed;
    return p;
}

/** Drive random traffic and check invariants periodically. */
void
fuzz(const NurapidParams &p, std::uint64_t stream_seed, int ops,
     int pool_blocks, double store_frac, int check_every)
{
    MainMemory mem;
    SnoopBus bus;
    CmpNurapid l2(p, bus, mem);
    l2.setL1Hooks([](CoreId, Addr) {}, [](CoreId, Addr, bool) {});
    Rng rng(stream_seed);
    Tick t = 0;
    for (int i = 0; i < ops; ++i) {
        MemAccess acc;
        acc.core = static_cast<CoreId>(rng.below(p.num_cores));
        acc.addr = static_cast<Addr>(rng.below(pool_blocks)) * 128;
        acc.op = rng.chance(store_frac) ? MemOp::Store : MemOp::Load;
        l2.access(acc, t);
        // The per-access audit check starts a quarter of the way in, so
        // its frame count is first built over a warm data array and is
        // then recounted by every checkInvariants().
        if (i >= ops / 4)
            l2.checkBlockInvariants(acc.addr);
        t += 100;
        if (i % check_every == check_every - 1)
            l2.checkInvariants();
    }
    l2.checkInvariants();
}

struct FuzzCase
{
    std::uint64_t seed;
    int pool_blocks;   //!< address-pool size (contention level)
    double store_frac;
    bool cr;
    bool isc;
    PromotionPolicy promo;
    ReplicationPolicy repl;
};

/**
 * Name a case by its settings (seed1_pool16_store30_cr_isc_fastest_
 * onSecondUse), so its test name is stable; gtest would otherwise print
 * the struct's raw bytes, padding included.
 */
void
PrintTo(const FuzzCase &fc, std::ostream *os)
{
    static const char *const promo[] = {"fastest", "nextFastest",
                                        "noPromotion"};
    static const char *const repl[] = {"onSecondUse", "onFirstUse",
                                       "never"};
    *os << "seed" << fc.seed << "_pool" << fc.pool_blocks << "_store"
        << static_cast<int>(fc.store_frac * 100 + 0.5) << '_'
        << (fc.cr ? "cr" : "noCr") << '_' << (fc.isc ? "isc" : "noIsc")
        << '_' << promo[static_cast<int>(fc.promo)] << '_'
        << repl[static_cast<int>(fc.repl)];
}

class NurapidFuzz : public ::testing::TestWithParam<FuzzCase>
{
};

TEST_P(NurapidFuzz, InvariantsHoldUnderRandomTraffic)
{
    const FuzzCase &fc = GetParam();
    NurapidParams p = tinyNurapid(fc.seed);
    p.enable_cr = fc.cr;
    p.enable_isc = fc.isc;
    p.promotion = fc.promo;
    p.replication = fc.repl;
    fuzz(p, fc.seed * 1299709 + 7, 4000, fc.pool_blocks, fc.store_frac,
         97);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NurapidFuzz,
    ::testing::Values(
        // Full paper configuration under rising contention.
        FuzzCase{1, 16, 0.3, true, true, PromotionPolicy::Fastest,
                 ReplicationPolicy::OnSecondUse},
        FuzzCase{2, 48, 0.3, true, true, PromotionPolicy::Fastest,
                 ReplicationPolicy::OnSecondUse},
        FuzzCase{3, 200, 0.3, true, true, PromotionPolicy::Fastest,
                 ReplicationPolicy::OnSecondUse},
        FuzzCase{4, 1000, 0.3, true, true, PromotionPolicy::Fastest,
                 ReplicationPolicy::OnSecondUse},
        // Write-heavy and read-only extremes.
        FuzzCase{5, 64, 0.9, true, true, PromotionPolicy::Fastest,
                 ReplicationPolicy::OnSecondUse},
        FuzzCase{6, 64, 0.0, true, true, PromotionPolicy::Fastest,
                 ReplicationPolicy::OnSecondUse},
        // Ablated protocols.
        FuzzCase{7, 64, 0.3, false, true, PromotionPolicy::Fastest,
                 ReplicationPolicy::OnSecondUse},
        FuzzCase{8, 64, 0.3, true, false, PromotionPolicy::Fastest,
                 ReplicationPolicy::OnSecondUse},
        FuzzCase{9, 64, 0.3, false, false, PromotionPolicy::Fastest,
                 ReplicationPolicy::OnSecondUse},
        // Alternative policies.
        FuzzCase{10, 64, 0.3, true, true, PromotionPolicy::NextFastest,
                 ReplicationPolicy::OnSecondUse},
        FuzzCase{11, 64, 0.3, true, true, PromotionPolicy::None,
                 ReplicationPolicy::OnSecondUse},
        FuzzCase{12, 64, 0.3, true, true, PromotionPolicy::Fastest,
                 ReplicationPolicy::OnFirstUse},
        FuzzCase{13, 64, 0.3, true, true, PromotionPolicy::Fastest,
                 ReplicationPolicy::Never},
        // Different RNG seeds at the sharpest contention point.
        FuzzCase{14, 40, 0.5, true, true, PromotionPolicy::Fastest,
                 ReplicationPolicy::OnSecondUse},
        FuzzCase{15, 40, 0.5, true, true, PromotionPolicy::NextFastest,
                 ReplicationPolicy::OnFirstUse}));

TEST(NurapidInvariants, TagFactorSweepConstructs)
{
    for (unsigned f : {1u, 2u, 4u}) {
        NurapidParams p = tinyNurapid(1);
        p.tag_factor = f;
        fuzz(p, 99, 1500, 64, 0.3, 101);
    }
}

TEST(NurapidInvariants, DeterministicAcrossRuns)
{
    // Two identical runs produce identical coherence state.
    auto run = [](std::uint64_t) {
        NurapidParams p = tinyNurapid(42);
        MainMemory mem;
        SnoopBus bus;
        CmpNurapid l2(p, bus, mem);
        l2.setL1Hooks([](CoreId, Addr) {}, [](CoreId, Addr, bool) {});
        Rng rng(123);
        Tick t = 0;
        for (int i = 0; i < 2000; ++i) {
            MemAccess acc;
            acc.core = static_cast<CoreId>(rng.below(4));
            acc.addr = static_cast<Addr>(rng.below(100)) * 128;
            acc.op = rng.chance(0.4) ? MemOp::Store : MemOp::Load;
            l2.access(acc, t);
            t += 50;
        }
        // Fingerprint the final state.
        std::uint64_t fp = 0;
        for (Addr a = 0; a < 100 * 128; a += 128) {
            for (CoreId c = 0; c < 4; ++c) {
                fp = fp * 31 +
                     static_cast<std::uint64_t>(l2.stateOf(c, a)) * 7 +
                     static_cast<std::uint64_t>(l2.fwdOf(c, a).dgroup + 1);
            }
        }
        return std::make_tuple(fp, l2.accesses(), l2.demotions(),
                               l2.busRepls());
    };
    EXPECT_EQ(run(0), run(1));
}

TEST(NurapidInvariants, FrameCountNeverExceedsSharers)
{
    // A block can have at most one frame per core (each core
    // replicates at most once into its closest d-group).
    NurapidParams p = tinyNurapid(5);
    MainMemory mem;
    SnoopBus bus;
    CmpNurapid l2(p, bus, mem);
    l2.setL1Hooks([](CoreId, Addr) {}, [](CoreId, Addr, bool) {});
    Rng rng(77);
    Tick t = 0;
    for (int i = 0; i < 3000; ++i) {
        MemAccess acc;
        acc.core = static_cast<CoreId>(rng.below(4));
        acc.addr = static_cast<Addr>(rng.below(12)) * 128;
        acc.op = rng.chance(0.2) ? MemOp::Store : MemOp::Load;
        l2.access(acc, t);
        t += 50;
        if (i % 50 == 0) {
            for (Addr a = 0; a < 12 * 128; a += 128)
                EXPECT_LE(l2.framesHolding(a), 4);
        }
    }
    l2.checkInvariants();
}

TEST(NurapidInvariants, CompletionTimesAreMonotonicPerCore)
{
    NurapidParams p = tinyNurapid(6);
    MainMemory mem;
    SnoopBus bus;
    CmpNurapid l2(p, bus, mem);
    l2.setL1Hooks([](CoreId, Addr) {}, [](CoreId, Addr, bool) {});
    Rng rng(88);
    Tick t = 0;
    for (int i = 0; i < 1000; ++i) {
        MemAccess acc;
        acc.core = 0;
        acc.addr = static_cast<Addr>(rng.below(64)) * 128;
        acc.op = rng.chance(0.3) ? MemOp::Store : MemOp::Load;
        AccessResult r = l2.access(acc, t);
        EXPECT_GE(r.complete, t);
        t = r.complete + 1;
    }
}

} // namespace
} // namespace cnsim
