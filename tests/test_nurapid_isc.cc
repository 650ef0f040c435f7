/**
 * @file
 * In-situ communication tests for CMP-NuRAPID (paper Section 3.2):
 * the MESIC C state, single-dirty-copy invariant, L1 write-through and
 * per-write BusRdX invalidations, and dirty-signal joins.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/bytes.hh"
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
    p.dgroup_capacity = 16 * 128;
    p.block_size = 128;
    p.assoc = 8;
    p.tag_factor = 2;
    return p;
}

struct Rig
{
    MainMemory mem;
    SnoopBus bus;
    CmpNurapid l2;
    std::vector<std::pair<CoreId, Addr>> invalidations;
    std::vector<std::tuple<CoreId, Addr, bool>> downgrades;

    explicit Rig(NurapidParams p = tinyNurapid()) : l2(p, bus, mem)
    {
        l2.setL1Hooks(
            [this](CoreId c, Addr a) { invalidations.push_back({c, a}); },
            [this](CoreId c, Addr a, bool wt) {
                downgrades.push_back({c, a, wt});
            });
    }
};

TEST(NurapidISC, ReadMissOnDirtyJoinsC)
{
    Rig r;
    r.l2.access({0, 0x1000, MemOp::Store}, 0);
    EXPECT_EQ(r.l2.stateOf(0, 0x1000), CohState::Modified);
    AccessResult a = r.l2.access({1, 0x1000, MemOp::Load}, 1000);
    EXPECT_EQ(a.cls, AccessClass::RWSMiss);
    // Both writer and reader are in C, sharing one dirty copy.
    EXPECT_EQ(r.l2.stateOf(0, 0x1000), CohState::Communication);
    EXPECT_EQ(r.l2.stateOf(1, 0x1000), CohState::Communication);
    EXPECT_EQ(r.l2.framesHolding(0x1000), 1);
    EXPECT_TRUE(a.l1WriteThrough);
    EXPECT_EQ(r.l2.iscJoins(), 1u);
    r.l2.checkInvariants();
}

TEST(NurapidISC, ReadJoinMovesCopyToReader)
{
    Rig r;
    // Writer P0's copy starts in d-group a (P0's closest).
    r.l2.access({0, 0x1000, MemOp::Store}, 0);
    EXPECT_EQ(r.l2.fwdOf(0, 0x1000).dgroup, 0);
    r.l2.access({1, 0x1000, MemOp::Load}, 1000);
    // The copy moved to the reader's closest d-group b; the writer's
    // tag was repointed (paper: "the copy stays close to the reader").
    EXPECT_EQ(r.l2.fwdOf(1, 0x1000).dgroup, 1);
    EXPECT_TRUE(r.l2.fwdOf(0, 0x1000) == r.l2.fwdOf(1, 0x1000));
    r.l2.checkInvariants();
}

TEST(NurapidISC, SubsequentReadsHitWithoutCoherenceMisses)
{
    Rig r;
    r.l2.access({0, 0x1000, MemOp::Store}, 0);
    r.l2.access({1, 0x1000, MemOp::Load}, 1000);
    std::uint64_t rws_before = r.l2.clsCount(AccessClass::RWSMiss);
    // Reader re-reads; writer re-writes; reader re-reads: all hits.
    AccessResult a1 = r.l2.access({1, 0x1000, MemOp::Load}, 2000);
    AccessResult a2 = r.l2.access({0, 0x1000, MemOp::Store}, 3000);
    AccessResult a3 = r.l2.access({1, 0x1000, MemOp::Load}, 4000);
    EXPECT_EQ(a1.cls, AccessClass::Hit);
    EXPECT_EQ(a2.cls, AccessClass::Hit);
    EXPECT_EQ(a3.cls, AccessClass::Hit);
    EXPECT_EQ(r.l2.clsCount(AccessClass::RWSMiss), rws_before);
    // Reader's hits are in its closest d-group (6 cycles + tag 5).
    EXPECT_EQ(a1.complete, 2000u + 5u + 6u);
}

TEST(NurapidISC, WriteToCBlockBroadcastsBusRdX)
{
    Rig r;
    r.l2.access({0, 0x1000, MemOp::Store}, 0);
    r.l2.access({1, 0x1000, MemOp::Load}, 1000);
    std::uint64_t rdx_before = r.bus.count(BusCmd::BusRdX);
    r.invalidations.clear();
    r.l2.access({0, 0x1000, MemOp::Store}, 2000);
    // Every write to a C block goes on the bus and invalidates the
    // sharers' L1 copies (they could hold stale data).
    EXPECT_EQ(r.bus.count(BusCmd::BusRdX), rdx_before + 1);
    ASSERT_EQ(r.invalidations.size(), 1u);
    EXPECT_EQ(r.invalidations[0].first, 1);
    // State does not change: no exits from C.
    EXPECT_EQ(r.l2.stateOf(0, 0x1000), CohState::Communication);
}

TEST(NurapidISC, RepeatedWritesStayInC)
{
    Rig r;
    r.l2.access({0, 0x1000, MemOp::Store}, 0);
    r.l2.access({1, 0x1000, MemOp::Load}, 1000);
    for (Tick t = 2000; t < 10000; t += 1000)
        r.l2.access({0, 0x1000, MemOp::Store}, t);
    EXPECT_EQ(r.l2.stateOf(0, 0x1000), CohState::Communication);
    EXPECT_EQ(r.l2.stateOf(1, 0x1000), CohState::Communication);
    EXPECT_EQ(r.l2.framesHolding(0x1000), 1);
    r.l2.checkInvariants();
}

TEST(NurapidISC, WriteMissOnDirtyJoinsInPlace)
{
    Rig r;
    // P1 writes (copy in d-group b), then P0 write-misses.
    r.l2.access({1, 0x1000, MemOp::Store}, 0);
    AccessResult a = r.l2.access({0, 0x1000, MemOp::Store}, 1000);
    EXPECT_EQ(a.cls, AccessClass::RWSMiss);
    // The writer joined in place: the copy stays in d-group b, close
    // to the previous owner (a future reader).
    EXPECT_EQ(r.l2.fwdOf(0, 0x1000).dgroup, 1);
    EXPECT_EQ(r.l2.stateOf(0, 0x1000), CohState::Communication);
    EXPECT_EQ(r.l2.stateOf(1, 0x1000), CohState::Communication);
    EXPECT_EQ(r.l2.framesHolding(0x1000), 1);
    EXPECT_TRUE(a.l1WriteThrough);
    r.l2.checkInvariants();
}

TEST(NurapidISC, UpgradeOnSharedBlockEntersC)
{
    Rig r;
    // Read-share X between P0 and P1 (pointer join), then P1 writes.
    r.l2.access({0, 0x1000, MemOp::Load}, 0);
    r.l2.access({1, 0x1000, MemOp::Load}, 1000);
    std::uint64_t upg_before = r.bus.count(BusCmd::BusUpg);
    AccessResult a = r.l2.access({1, 0x1000, MemOp::Store}, 2000);
    EXPECT_EQ(a.cls, AccessClass::Hit);
    EXPECT_EQ(r.bus.count(BusCmd::BusUpg), upg_before + 1);
    EXPECT_EQ(r.l2.stateOf(0, 0x1000), CohState::Communication);
    EXPECT_EQ(r.l2.stateOf(1, 0x1000), CohState::Communication);
    EXPECT_EQ(r.l2.framesHolding(0x1000), 1);
    EXPECT_TRUE(a.l1WriteThrough);
    r.l2.checkInvariants();
}

TEST(NurapidISC, UpgradeFreesStaleReplicas)
{
    Rig r;
    // P0 owns X, P1 pointer-joins then replicates (two frames).
    r.l2.access({0, 0x1000, MemOp::Load}, 0);
    r.l2.access({1, 0x1000, MemOp::Load}, 1000);
    r.l2.access({1, 0x1000, MemOp::Load}, 2000);
    ASSERT_EQ(r.l2.framesHolding(0x1000), 2);
    // P0 writes: only one dirty copy may survive.
    r.l2.access({0, 0x1000, MemOp::Store}, 3000);
    EXPECT_EQ(r.l2.framesHolding(0x1000), 1);
    EXPECT_EQ(r.l2.stateOf(0, 0x1000), CohState::Communication);
    EXPECT_EQ(r.l2.stateOf(1, 0x1000), CohState::Communication);
    r.l2.checkInvariants();
}

TEST(NurapidISC, UpgradeWithNoSharersGoesToM)
{
    Rig r;
    // Share then drop the other sharer via its own upgrade path: here
    // simply E -> silent upgrade must not create C.
    r.l2.access({0, 0x1000, MemOp::Load}, 0);
    r.l2.access({0, 0x1000, MemOp::Store}, 1000);
    EXPECT_EQ(r.l2.stateOf(0, 0x1000), CohState::Modified);
    EXPECT_EQ(r.l2.framesHolding(0x1000), 1);
}

TEST(NurapidISC, MesiFallbackWhenIscDisabled)
{
    NurapidParams p = tinyNurapid();
    p.enable_isc = false;
    Rig r(p);
    r.l2.access({0, 0x1000, MemOp::Store}, 0);
    AccessResult a = r.l2.access({1, 0x1000, MemOp::Load}, 1000);
    EXPECT_EQ(a.cls, AccessClass::RWSMiss);
    // MESI flush: owner drops to S with a writeback; no C anywhere.
    EXPECT_EQ(r.l2.stateOf(0, 0x1000), CohState::Shared);
    EXPECT_EQ(r.l2.stateOf(1, 0x1000), CohState::Shared);
    EXPECT_GE(r.mem.writebacks(), 1u);
    r.l2.checkInvariants();
}

TEST(NurapidISC, MesiFlushCountsTheReplicaItMakes)
{
    // Without ISC a read miss on a dirty block flushes it (one counted
    // writeback) and then treats it as clean-shared: with CR off, or
    // replication on first use, the reader copies it into its closest
    // d-group, and that replica counts like one made from a clean
    // copy. With CR on it is a pointer join, which makes none.
    for (bool cr : {false, true}) {
        for (ReplicationPolicy rp :
             {ReplicationPolicy::OnSecondUse, ReplicationPolicy::OnFirstUse}) {
            NurapidParams p = tinyNurapid();
            p.enable_isc = false;
            p.enable_cr = cr;
            p.replication = rp;
            Rig r(p);
            r.l2.access({0, 0x1000, MemOp::Store}, 0);
            AccessResult a = r.l2.access({1, 0x1000, MemOp::Load}, 1000);
            ASSERT_EQ(a.cls, AccessClass::RWSMiss);
            bool copies = !cr || rp == ReplicationPolicy::OnFirstUse;
            SCOPED_TRACE(testing::Message() << "cr " << cr << " policy "
                                            << static_cast<int>(rp));
            EXPECT_EQ(r.l2.framesHolding(0x1000), copies ? 2 : 1);
            EXPECT_EQ(r.l2.replications(), copies ? 1u : 0u);
            EXPECT_EQ(r.l2.pointerJoins(), copies ? 0u : 1u);
            StatGroup stats("nurapid");
            r.l2.regStats(stats);
            EXPECT_EQ(stats.counter("l2.writebacks").value(), 1u);
            r.l2.checkInvariants();
        }
    }
}

TEST(NurapidISC, WriteMissInvalidatesCleanCopies)
{
    Rig r;
    r.l2.access({0, 0x1000, MemOp::Load}, 0);
    r.l2.access({1, 0x1000, MemOp::Load}, 1000);
    AccessResult a = r.l2.access({2, 0x1000, MemOp::Store}, 2000);
    // Clean copies existed: by the paper's definition this is a ROS
    // miss; MESI semantics apply (no dirty copy to join).
    EXPECT_EQ(a.cls, AccessClass::ROSMiss);
    EXPECT_EQ(r.l2.stateOf(0, 0x1000), CohState::Invalid);
    EXPECT_EQ(r.l2.stateOf(1, 0x1000), CohState::Invalid);
    EXPECT_EQ(r.l2.stateOf(2, 0x1000), CohState::Modified);
    EXPECT_EQ(r.l2.framesHolding(0x1000), 1);
    EXPECT_EQ(r.l2.fwdOf(2, 0x1000).dgroup, 2);
    r.l2.checkInvariants();
}

TEST(NurapidISC, CBlockEvictionWritesBackAndBusRepl)
{
    Rig r;
    r.l2.access({0, 0x1000, MemOp::Store}, 0);
    r.l2.access({1, 0x1000, MemOp::Load}, 1000);  // C, frame in dg b
    ASSERT_EQ(r.l2.stateOf(1, 0x1000), CohState::Communication);
    // Crowd the C entry out of P1's tag set 0 with shared joins.
    Tick t = 2000;
    for (int i = 0; i < 8; ++i) {
        Addr a = 0x4000 + static_cast<Addr>(i) * 4 * 128;
        r.l2.access({2, a, MemOp::Load}, t);
        t += 1000;
        r.l2.access({1, a, MemOp::Load}, t);
        t += 1000;
    }
    std::uint64_t wb = r.mem.writebacks();
    EXPECT_GE(wb, 1u);
    EXPECT_GE(r.l2.busRepls(), 1u);
    // The dirty copy is gone everywhere: P0's tag copy dropped too.
    EXPECT_EQ(r.l2.stateOf(0, 0x1000), CohState::Invalid);
    EXPECT_EQ(r.l2.framesHolding(0x1000), 0);
    r.l2.checkInvariants();
}

TEST(NurapidISC, DirtySignalDistinguishesJoinFromFetch)
{
    Rig r;
    // No dirty copy: a write miss fetches from memory into M.
    AccessResult a = r.l2.access({3, 0x2000, MemOp::Store}, 0);
    EXPECT_EQ(a.cls, AccessClass::CapacityMiss);
    EXPECT_EQ(r.l2.stateOf(3, 0x2000), CohState::Modified);
    EXPECT_FALSE(a.l1WriteThrough);
    EXPECT_TRUE(a.l1Owned);
}

TEST(NurapidISCDeathTest, BlockCheckCatchesLeakedFrameOfDirtyBlock)
{
    // A second frame of an M block that no tag points at: the frame
    // count is taken over the data array, not through forward
    // pointers, so the per-access check must still see two frames.
    Rig r;
    r.l2.access({0, 0x1000, MemOp::Store}, 0);
    ASSERT_EQ(r.l2.stateOf(0, 0x1000), CohState::Modified);
    r.l2.checkBlockInvariants(0x1000);
    ByteWriter w;
    r.l2.saveState(w);
    std::string blob = w.take();

    // Splice a leaked frame into the data-array part of the checkpoint,
    // which follows the four tag arrays: each is u32 sets, u32 ways,
    // the u64 LRU clock, then per entry a u64 stamp and an 18-byte
    // record.
    NurapidParams p = tinyNurapid();
    auto frames_per = static_cast<unsigned>(p.dgroup_capacity / p.block_size);
    unsigned sets =
        frames_per * p.num_dgroups / p.num_cores / p.assoc * p.tag_factor;
    std::size_t begin =
        p.num_cores * (4 + 4 + 8 + std::size_t{sets} * p.assoc * (8 + 18));
    ByteReader rd(blob.data() + begin, blob.size() - begin, "nurapid");
    NuDataArray data(p.num_dgroups, frames_per);
    data.loadState(rd, p.num_cores, sets, p.assoc);
    std::size_t end = blob.size() - rd.remaining();
    FwdPtr fwd = r.l2.fwdOf(0, 0x1000);
    DGroupId other = (fwd.dgroup + 1) % p.num_dgroups;
    data.fill(other, data.allocate(other), 0x1000,
              data.at(fwd.dgroup, fwd.frame).rev);
    ByteWriter leaked;
    data.saveState(leaked);
    blob.replace(begin, end - begin, leaked.bytes());

    Rig restored;
    ByteReader rr(blob.data(), blob.size(), "nurapid");
    restored.l2.loadState(rr);
    EXPECT_EQ(restored.l2.framesHolding(0x1000), 2);
    EXPECT_DEATH(restored.l2.checkBlockInvariants(0x1000),
                 "dirty block 1000 has 2 frames");
}

} // namespace
} // namespace cnsim
