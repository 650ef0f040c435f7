/**
 * @file
 * Directory-interconnect tests.
 *
 * Two layers: direct-drive checks of the membership rules the directory
 * mirrors from the (cmd, src, addr) stream, per CohMode; and
 * equivalence runs proving that swapping the snooping bus for the
 * directory NoC changes timing only -- the interconnect-coupled
 * organizations reach identical per-core coherence states and identical
 * hit/miss classifications, and the directory's sharer sets cover every
 * valid copy at the end.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hh"
#include "l2/private_l2.hh"
#include "l2/update_l2.hh"
#include "mem/bus.hh"
#include "mem/directory.hh"
#include "mem/memory.hh"
#include "nurapid/cmp_nurapid.hh"
#include "obs/auditor.hh"
#include "obs/trace_sink.hh"

namespace cnsim
{
namespace
{

constexpr unsigned blk = 128;

DirectoryInterconnect
mesiDir(int cores = 4)
{
    return DirectoryInterconnect(InterconnectKind::Mesh, cores, blk,
                                 CohMode::Mesi);
}

TEST(Directory, HomesStripeAcrossNodesAtBlockGranularity)
{
    DirectoryInterconnect d = mesiDir(4);
    for (int b = 0; b < 16; ++b) {
        Addr addr = static_cast<Addr>(b) * blk;
        EXPECT_EQ(d.homeOf(addr), b % 4);
        // Every address within the block shares its home.
        EXPECT_EQ(d.homeOf(addr + blk - 1), d.homeOf(addr));
    }
}

TEST(Directory, ReadAddsSharer)
{
    DirectoryInterconnect d = mesiDir();
    (void)d.transaction(BusCmd::BusRd, 0, 0x1000, 0);
    // A sole reader gets an exclusive grant: the home remembers it as
    // the owner because it may upgrade E->M without a transaction.
    EXPECT_EQ(d.ownerOf(0x1000), 0);
    (void)d.transaction(BusCmd::BusRd, 2, 0x1000, 100);
    EXPECT_EQ(d.sharersOf(0x1000), 0b101u);
    EXPECT_FALSE(d.dirtyOf(0x1000));
    // The snooped read demoted everyone to S; no more owner.
    EXPECT_EQ(d.ownerOf(0x1000), invalid_id);
}

TEST(Directory, WriteMissInvalidatesToSingleOwner)
{
    DirectoryInterconnect d = mesiDir();
    (void)d.transaction(BusCmd::BusRd, 0, 0x1000, 0);
    (void)d.transaction(BusCmd::BusRd, 1, 0x1000, 100);
    (void)d.transaction(BusCmd::BusRdX, 3, 0x1000, 200);
    // The home keeps the multicast targets as members until the org,
    // which decides invalidate-vs-update, reports their departure.
    EXPECT_EQ(d.sharersOf(0x1000), 0b1011u);
    EXPECT_EQ(d.ownerOf(0x1000), 3);
    EXPECT_TRUE(d.dirtyOf(0x1000));
    d.postedTransaction(BusCmd::DirPut, 0, 0x1000, 200);
    d.postedTransaction(BusCmd::DirPut, 1, 0x1000, 200);
    EXPECT_EQ(d.sharersOf(0x1000), 1ull << 3);
    EXPECT_EQ(d.ownerOf(0x1000), 3);
    EXPECT_TRUE(d.dirtyOf(0x1000));
}

TEST(Directory, UpgradeCollapsesUnderMesiJoinsUnderMesic)
{
    DirectoryInterconnect mesi = mesiDir();
    (void)mesi.transaction(BusCmd::BusRd, 0, 0x80, 0);
    (void)mesi.transaction(BusCmd::BusRd, 1, 0x80, 10);
    (void)mesi.transaction(BusCmd::BusUpg, 1, 0x80, 20);
    // MESI invalidates the loser; its notice trims the set.
    mesi.postedTransaction(BusCmd::DirPut, 0, 0x80, 20);
    EXPECT_EQ(mesi.sharersOf(0x80), 1ull << 1);
    EXPECT_EQ(mesi.ownerOf(0x80), 1);

    DirectoryInterconnect mesic(InterconnectKind::Mesh, 4, blk,
                                CohMode::Mesic);
    (void)mesic.transaction(BusCmd::BusRd, 0, 0x80, 0);
    (void)mesic.transaction(BusCmd::BusRd, 1, 0x80, 10);
    (void)mesic.transaction(BusCmd::BusUpg, 1, 0x80, 20);
    // The upgrade enters C: readers stay members of the dirty group.
    EXPECT_EQ(mesic.sharersOf(0x80), 0b11u);
    EXPECT_EQ(mesic.ownerOf(0x80), 1);
    EXPECT_TRUE(mesic.dirtyOf(0x80));
}

TEST(Directory, MesicWriteToDirtyBlockJoinsInsteadOfInvalidating)
{
    DirectoryInterconnect d(InterconnectKind::Mesh, 4, blk,
                            CohMode::Mesic);
    (void)d.transaction(BusCmd::BusRdX, 0, 0x100, 0);
    (void)d.transaction(BusCmd::BusRd, 1, 0x100, 10);
    // A C-state write broadcasts BusRdX; with the block dirty the
    // writer joins the group rather than tearing it down.
    (void)d.transaction(BusCmd::BusRdX, 2, 0x100, 20);
    EXPECT_EQ(d.sharersOf(0x100), 0b111u);
    EXPECT_TRUE(d.dirtyOf(0x100));
    // The same sequence under MESI: the org invalidates the losers and
    // their notices leave only the last writer.
    DirectoryInterconnect m = mesiDir();
    (void)m.transaction(BusCmd::BusRdX, 0, 0x100, 0);
    (void)m.transaction(BusCmd::BusRd, 1, 0x100, 10);
    (void)m.transaction(BusCmd::BusRdX, 2, 0x100, 20);
    m.postedTransaction(BusCmd::DirPut, 0, 0x100, 20);
    m.postedTransaction(BusCmd::DirPut, 1, 0x100, 20);
    EXPECT_EQ(m.sharersOf(0x100), 1ull << 2);
}

TEST(Directory, SilentUpgradeCannotStrandTheExclusiveOwner)
{
    // The regression the equivalence suite caught: a sole reader is
    // granted E and upgrades E->M silently, so the home's dirty bit
    // under-approximates. A later write from another core must not
    // drop the grantee -- under MESIC the org joins it into C, and
    // only an explicit DirPut removes a member.
    DirectoryInterconnect d(InterconnectKind::Mesh, 4, blk,
                            CohMode::Mesic);
    (void)d.transaction(BusCmd::BusRd, 0, 0x700, 0);
    EXPECT_EQ(d.ownerOf(0x700), 0);
    EXPECT_FALSE(d.dirtyOf(0x700));
    (void)d.transaction(BusCmd::BusRdX, 1, 0x700, 10);
    EXPECT_EQ(d.sharersOf(0x700), 0b11u);
    EXPECT_EQ(d.ownerOf(0x700), 1);
    EXPECT_TRUE(d.dirtyOf(0x700));
}

TEST(Directory, EvictionNoticesReleaseTheLine)
{
    DirectoryInterconnect d = mesiDir();
    EXPECT_TRUE(d.wantsEvictionNotices());
    (void)d.transaction(BusCmd::BusRd, 0, 0x200, 0);
    (void)d.transaction(BusCmd::BusRd, 1, 0x200, 10);
    EXPECT_EQ(d.entries(), 1u);
    d.postedTransaction(BusCmd::DirPut, 0, 0x200, 20);
    EXPECT_EQ(d.sharersOf(0x200), 1ull << 1);
    d.postedTransaction(BusCmd::DirPut, 1, 0x200, 30);
    // Last copy gone: the line is dropped entirely.
    EXPECT_EQ(d.entries(), 0u);
}

TEST(Directory, WritebackRelinquishesOwnership)
{
    DirectoryInterconnect d = mesiDir();
    (void)d.transaction(BusCmd::BusRdX, 2, 0x300, 0);
    d.postedTransaction(BusCmd::WrBack, 2, 0x300, 100);
    EXPECT_EQ(d.sharersOf(0x300), 0u);
    EXPECT_EQ(d.ownerOf(0x300), invalid_id);
    EXPECT_FALSE(d.dirtyOf(0x300));
}

TEST(Directory, AnonymousTrafficNeverTouchesMembership)
{
    DirectoryInterconnect d = mesiDir();
    (void)d.transaction(BusCmd::BusRdX, 1, 0x400, 0);
    // An anonymous flush (org pushing data to memory while ownership
    // moves) is timing-only; core 1's membership must survive.
    d.postedTransaction(BusCmd::WrBack, invalid_id, 0x400, 50);
    (void)d.transaction(BusCmd::BusRd, invalid_id, 0x400, 60);
    // The org-facing anonymous conveniences take the same path.
    d.postedTransaction(BusCmd::WrBack, 70);
    EXPECT_EQ(d.sharersOf(0x400), 1ull << 1);
    EXPECT_EQ(d.ownerOf(0x400), 1);
    EXPECT_TRUE(d.dirtyOf(0x400));
}

TEST(Directory, DirtyReadForwardsThroughTheOwner)
{
    DirectoryInterconnect d = mesiDir();
    (void)d.transaction(BusCmd::BusRdX, 3, 0x500, 0);
    // Clean read of a different block vs. dirty read of this one from
    // the same requestor: the three-leg owner forward costs more than
    // the two-leg home reply (same homes by construction).
    Tick clean = d.transaction(BusCmd::BusRd, 1, 0x500 + 4 * blk, 1000);
    Tick dirty = d.transaction(BusCmd::BusRd, 1, 0x500, 1000);
    EXPECT_GT(dirty - 1000, clean - 1000);
}

TEST(Directory, MesicKeepsDirtyUntilLastSharerLeaves)
{
    DirectoryInterconnect d(InterconnectKind::Ring, 4, blk,
                            CohMode::Mesic);
    (void)d.transaction(BusCmd::BusRdX, 0, 0x600, 0);
    (void)d.transaction(BusCmd::BusRd, 1, 0x600, 10);
    // Core 0's tag copy evaporates without a writeback: core 1's C
    // copy is still newer than memory, so the line stays dirty.
    d.postedTransaction(BusCmd::DirPut, 0, 0x600, 20);
    EXPECT_TRUE(d.dirtyOf(0x600));
    EXPECT_EQ(d.sharersOf(0x600), 1ull << 1);
    d.postedTransaction(BusCmd::DirPut, 1, 0x600, 30);
    EXPECT_EQ(d.entries(), 0u);
}

// ---------------------------------------------------------------------
// Bus-vs-directory equivalence: protocol outcomes are interconnect-
// independent.
// ---------------------------------------------------------------------

std::vector<MemAccess>
randomStream(std::uint64_t seed, int n, int cores, std::uint32_t pool,
             double store_frac)
{
    Rng rng(seed);
    std::vector<MemAccess> v;
    v.reserve(n);
    for (int i = 0; i < n; ++i) {
        v.push_back({static_cast<CoreId>(rng.below(cores)),
                     static_cast<Addr>(rng.below(pool)) * blk,
                     rng.chance(store_frac) ? MemOp::Store : MemOp::Load});
    }
    return v;
}

/**
 * Drive the same stream through the same organization type over the
 * bus and over the directory; classifications and final per-core
 * states must match, and every surviving valid copy must be covered
 * by the directory's sharer set.
 */
template <typename OrgT, typename ParamsT>
void
expectInterconnectEquivalence(const ParamsT &params, int cores,
                              CohMode mode, std::uint64_t seed)
{
    MainMemory m1, m2;
    SnoopBus bus;
    DirectoryInterconnect dir(InterconnectKind::Mesh, cores, blk, mode);
    OrgT on_bus(params, bus, m1);
    OrgT on_dir(params, dir, m2);
    on_bus.setL1Hooks([](CoreId, Addr) {}, [](CoreId, Addr, bool) {});
    on_dir.setL1Hooks([](CoreId, Addr) {}, [](CoreId, Addr, bool) {});

    auto stream = randomStream(seed, 3000, cores, 512, 0.3);
    Tick t = 0;
    for (std::size_t i = 0; i < stream.size(); ++i) {
        AccessResult ra = on_bus.access(stream[i], t);
        AccessResult rb = on_dir.access(stream[i], t);
        ASSERT_EQ(ra.cls, rb.cls)
            << "access " << i << " addr " << std::hex << stream[i].addr;
        t += 300;
    }
    on_bus.checkInvariants();
    on_dir.checkInvariants();

    for (std::uint32_t b = 0; b < 512; ++b) {
        Addr addr = static_cast<Addr>(b) * blk;
        std::uint64_t sharers = dir.sharersOf(addr);
        for (CoreId c = 0; c < cores; ++c) {
            CohState sb = on_bus.stateOf(c, addr);
            CohState sd = on_dir.stateOf(c, addr);
            ASSERT_EQ(sb, sd) << "core " << c << " addr " << std::hex
                              << addr;
            if (isValid(sd)) {
                EXPECT_TRUE(sharers & (1ull << c))
                    << "core " << c << " holds " << stateChar(sd)
                    << " of " << std::hex << addr
                    << " but the directory omits it";
            }
        }
    }
}

PrivateL2Params
smallPrivate(int cores)
{
    PrivateL2Params p;
    p.num_cores = cores;
    p.capacity_per_core = 32 * 1024;
    p.assoc = 4;
    p.block_size = blk;
    return p;
}

NurapidParams
smallNurapid(int cores)
{
    NurapidParams p;
    p.num_cores = cores;
    p.num_dgroups = cores;
    p.dgroup_capacity = 32 * blk;
    p.block_size = blk;
    p.assoc = 8;
    p.tag_factor = 2;
    return p;
}

TEST(DirectoryEquivalence, PrivateMesiMatchesBusAt4Cores)
{
    expectInterconnectEquivalence<PrivateL2>(smallPrivate(4), 4,
                                             CohMode::Mesi, 101);
}

TEST(DirectoryEquivalence, PrivateMesiMatchesBusAt8Cores)
{
    expectInterconnectEquivalence<PrivateL2>(smallPrivate(8), 8,
                                             CohMode::Mesi, 103);
}

TEST(DirectoryEquivalence, PrivateMesiMatchesBusAt16Cores)
{
    expectInterconnectEquivalence<PrivateL2>(smallPrivate(16), 16,
                                             CohMode::Mesi, 107);
}

TEST(DirectoryEquivalence, UpdateProtocolMatchesBus)
{
    expectInterconnectEquivalence<UpdateL2>(smallPrivate(8), 8,
                                            CohMode::WriteUpdate, 109);
}

TEST(DirectoryEquivalence, NurapidMesicMatchesBusAt4Cores)
{
    expectInterconnectEquivalence<CmpNurapid>(smallNurapid(4), 4,
                                              CohMode::Mesic, 113);
}

TEST(DirectoryEquivalence, NurapidMesicMatchesBusAt8Cores)
{
    expectInterconnectEquivalence<CmpNurapid>(smallNurapid(8), 8,
                                              CohMode::Mesic, 127);
}

TEST(SnoopTargets, BusNamesEveryCoreDirectoryNamesItsSharers)
{
    EXPECT_EQ(coreMask(0), 0u);
    EXPECT_EQ(coreMask(4), 0xfu);
    EXPECT_EQ(coreMask(63), ~0ull >> 1);
    EXPECT_EQ(coreMask(64), ~0ull);

    SnoopBus bus;
    EXPECT_EQ(bus.snoopPeers(0x1000, 64), ~0ull);
    EXPECT_EQ(bus.snoopPeers(0x1000, 4, 1), 0xdu);
    EXPECT_EQ(bus.snoopPeers(0x1000, 64, 63), ~0ull >> 1);

    DirectoryInterconnect d(InterconnectKind::Mesh, 64, blk, CohMode::Mesi);
    EXPECT_EQ(d.snoopTargets(0x1000), 0u);
    (void)d.transaction(BusCmd::BusRd, 63, 0x1000, 0);
    (void)d.transaction(BusCmd::BusRd, 2, 0x1000, 100);
    EXPECT_EQ(d.snoopTargets(0x1000 + blk - 1), (1ull << 63) | 0x4u);
    EXPECT_EQ(d.snoopPeers(0x1000, 64, 2), 1ull << 63);

    std::vector<CoreId> seen;
    forEachCore((1ull << 63) | 0x21u, [&](CoreId c) { seen.push_back(c); });
    EXPECT_EQ(seen, (std::vector<CoreId>{0, 5, 63}));
}

/**
 * Drive a random stream through one organization over the mesh
 * directory and, in lockstep, through a twin on the snooping bus. After
 * every access, every core holding any block of the pool must be in
 * the directory's snoopTargets() -- the one assumption the filtered
 * snoop loops rest on -- and the twins must classify the access alike,
 * so probing only the named cores finds what the broadcast finds.
 */
template <typename OrgT, typename ParamsT>
void
expectSnoopTargetsCoverHolders(const ParamsT &params, int cores,
                               CohMode mode, std::uint64_t seed)
{
    constexpr std::uint32_t pool = 160;
    MainMemory m1, m2;
    SnoopBus bus;
    DirectoryInterconnect dir(InterconnectKind::Mesh, cores, blk, mode);
    OrgT on_bus(params, bus, m1);
    OrgT on_dir(params, dir, m2);
    on_bus.setL1Hooks([](CoreId, Addr) {}, [](CoreId, Addr, bool) {});
    on_dir.setL1Hooks([](CoreId, Addr) {}, [](CoreId, Addr, bool) {});

    auto stream = randomStream(seed, 1500, cores, pool, 0.3);
    Tick t = 0;
    for (std::size_t i = 0; i < stream.size(); ++i) {
        AccessResult ra = on_bus.access(stream[i], t);
        AccessResult rb = on_dir.access(stream[i], t);
        ASSERT_EQ(ra.cls, rb.cls)
            << "access " << i << " addr " << std::hex << stream[i].addr;
        for (std::uint32_t b = 0; b < pool; ++b) {
            Addr addr = static_cast<Addr>(b) * blk;
            std::uint64_t targets = dir.snoopTargets(addr);
            for (CoreId c = 0; c < cores; ++c) {
                if (isValid(on_dir.stateOf(c, addr))) {
                    ASSERT_TRUE(targets >> c & 1)
                        << "after access " << i << " core " << c
                        << " holds " << std::hex << addr
                        << " outside snoopTargets 0x" << targets;
                }
            }
        }
        t += 300;
    }
    on_dir.checkInvariants();
    EXPECT_GT(dir.count(BusCmd::DirPut), 0u);
}

PrivateL2Params
tinyPrivate(int cores)
{
    // 32 blocks a core against a 160-block pool: replacements, and so
    // the eviction notices that trim the sharer sets, happen throughout.
    PrivateL2Params p = smallPrivate(cores);
    p.capacity_per_core = 32 * blk;
    return p;
}

NurapidParams
nurapidNoIsc(int cores)
{
    NurapidParams p = smallNurapid(cores);
    p.enable_isc = false;
    return p;
}

TEST(SnoopTargets, CoverEveryHolderAfterEveryAccessAt16Cores)
{
    expectSnoopTargetsCoverHolders<PrivateL2>(tinyPrivate(16), 16,
                                              CohMode::Mesi, 131);
    expectSnoopTargetsCoverHolders<UpdateL2>(tinyPrivate(16), 16,
                                             CohMode::WriteUpdate, 137);
    expectSnoopTargetsCoverHolders<CmpNurapid>(smallNurapid(16), 16,
                                               CohMode::Mesic, 139);
    expectSnoopTargetsCoverHolders<CmpNurapid>(nurapidNoIsc(16), 16,
                                               CohMode::Mesi, 149);
}

TEST(SnoopTargets, CoverEveryHolderAfterEveryAccessAt64Cores)
{
    expectSnoopTargetsCoverHolders<PrivateL2>(tinyPrivate(64), 64,
                                              CohMode::Mesi, 151);
    expectSnoopTargetsCoverHolders<UpdateL2>(tinyPrivate(64), 64,
                                             CohMode::WriteUpdate, 157);
    expectSnoopTargetsCoverHolders<CmpNurapid>(smallNurapid(64), 64,
                                               CohMode::Mesic, 163);
    expectSnoopTargetsCoverHolders<CmpNurapid>(nurapidNoIsc(64), 64,
                                               CohMode::Mesi, 167);
}

TEST(DirectoryEquivalence, AuditorChecksDirectoryReadingsCleanly)
{
    // CMP-NuRAPID at 8 cores over the mesh with the full MESIC auditor
    // attached: the directory's per-block readings must agree with the
    // audited per-core states at every safe point.
    const int cores = 8;
    MainMemory mem;
    DirectoryInterconnect dir(InterconnectKind::Mesh, cores, blk,
                              CohMode::Mesic);
    CmpNurapid l2(smallNurapid(cores), dir, mem);
    l2.setL1Hooks([](CoreId, Addr) {}, [](CoreId, Addr, bool) {});

    obs::TraceSink sink;
    obs::ProtocolAuditor auditor(obs::AuditProtocol::Mesic, cores);
    auditor.blockCheck = [&l2](Addr a) { l2.checkBlockInvariants(a); };
    sink.setAuditor(&auditor);
    l2.setTraceSink(&sink);
    dir.attachSink(&sink);

    Rng rng(31);
    Tick t = 0;
    for (int i = 0; i < 4000; ++i) {
        MemAccess acc{static_cast<CoreId>(rng.below(cores)),
                      static_cast<Addr>(rng.below(96)) * blk,
                      rng.chance(0.4) ? MemOp::Store : MemOp::Load};
        (void)l2.access(acc, t);
        auditor.runDeferredChecks();
        t += 400;
    }
    EXPECT_GT(auditor.transitions(), 0u);
    EXPECT_GT(dir.count(BusCmd::BusRdX), 0u);
    EXPECT_GT(dir.count(BusCmd::DirPut), 0u);
    l2.checkInvariants();
}

} // namespace
} // namespace cnsim
