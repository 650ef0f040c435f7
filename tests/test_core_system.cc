/**
 * @file
 * Integration tests for Core + System: L1 filtering in front of each
 * L2 organization, write-through C blocks, inclusion, and the
 * event-driven execution loop.
 */

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "core/core.hh"
#include "sim/runner.hh"
#include "sim/system.hh"

namespace cnsim
{
namespace
{

/** A scripted trace source for deterministic integration tests. */
class ScriptSource : public TraceSource
{
  public:
    void
    push(Addr addr, MemOp op, std::uint32_t gap = 0, Addr iaddr = 0)
    {
        script.push_back(TraceRecord{
            .gap = gap, .op = op, .iaddr = iaddr, .addr = addr});
    }

    TraceRecord
    next() override
    {
        if (script.empty())
            return TraceRecord{
                .gap = 100, .op = MemOp::Load, .addr = idle_addr};
        TraceRecord r = script.front();
        script.pop_front();
        return r;
    }

    bool exhausted() const { return script.empty(); }

  private:
    std::deque<TraceRecord> script;
    Addr idle_addr = 0x7f000000;
};

SystemConfig
paperSystem(L2Kind kind)
{
    return Runner::paperConfig(kind);
}

TEST(System, L1FiltersRepeatedLoads)
{
    System sys(paperSystem(L2Kind::Shared));
    TraceRecord r{.op = MemOp::Load, .addr = 0x1000};
    sys.access(0, r, 0);  // L1 miss -> L2
    std::uint64_t l2_before = sys.l2().accesses();
    sys.access(0, r, 10000);
    sys.access(0, r, 20000);
    EXPECT_EQ(sys.l2().accesses(), l2_before);  // pure L1 hits
}

TEST(System, L1HitLatencyIsThreeCycles)
{
    System sys(paperSystem(L2Kind::Shared));
    TraceRecord r{.op = MemOp::Load, .addr = 0x1000};
    sys.access(0, r, 0);
    Tick done = sys.access(0, r, 10000);
    EXPECT_EQ(done, 10003u);
}

TEST(System, StoresRequireOwnershipOnce)
{
    System sys(paperSystem(L2Kind::Private));
    TraceRecord st{.op = MemOp::Store, .addr = 0x1000};
    sys.access(0, st, 0);  // miss: L2 grants ownership
    std::uint64_t l2_before = sys.l2().accesses();
    Tick done = sys.access(0, st, 10000);
    // Owned in L1: silent store, no L2 access.
    EXPECT_EQ(sys.l2().accesses(), l2_before);
    EXPECT_EQ(done, 10001u);
}

TEST(System, LoadsDoNotGrantStoreOwnership)
{
    System sys(paperSystem(L2Kind::Private));
    TraceRecord ld{.op = MemOp::Load, .addr = 0x1000};
    TraceRecord st{.op = MemOp::Store, .addr = 0x1000};
    sys.access(0, ld, 0);
    std::uint64_t l2_before = sys.l2().accesses();
    sys.access(0, st, 10000);  // must go to L2 for ownership
    EXPECT_EQ(sys.l2().accesses(), l2_before + 1);
}

TEST(System, CBlocksWriteThroughEveryStore)
{
    System sys(paperSystem(L2Kind::Nurapid));
    // Core 0 writes, core 1 reads: the block enters C.
    sys.access(0, {.op = MemOp::Store, .addr = 0x1000}, 0);
    sys.access(1, {.op = MemOp::Load, .addr = 0x1000}, 10000);
    // Every subsequent store by core 0 reaches the L2 (write-through).
    std::uint64_t l2_before = sys.l2().accesses();
    sys.access(0, {.op = MemOp::Store, .addr = 0x1000}, 20000);
    sys.access(0, {.op = MemOp::Store, .addr = 0x1000}, 30000);
    EXPECT_EQ(sys.l2().accesses(), l2_before + 2);
}

TEST(System, CoherenceInvalidatesRemoteL1)
{
    System sys(paperSystem(L2Kind::Private));
    // Core 1 caches the block in its L1.
    sys.access(1, {.op = MemOp::Load, .addr = 0x1000}, 0);
    std::uint64_t l2_before = sys.l2().accesses();
    sys.access(1, {.op = MemOp::Load, .addr = 0x1000}, 5000);
    EXPECT_EQ(sys.l2().accesses(), l2_before);  // L1 hit
    // Core 0 writes: core 1's L1 copy must be invalidated.
    sys.access(0, {.op = MemOp::Store, .addr = 0x1000}, 10000);
    sys.access(1, {.op = MemOp::Load, .addr = 0x1000}, 20000);
    EXPECT_GT(sys.l2().accesses(), l2_before + 1);  // L1 refetch
}

TEST(System, IfetchMissesGoToL2)
{
    System sys(paperSystem(L2Kind::Shared));
    TraceRecord r{.op = MemOp::Load, .iaddr = 0x9000, .addr = 0x1000};
    sys.access(0, r, 0);
    // Both the ifetch and the load missed.
    EXPECT_EQ(sys.l2().accesses(), 2u);
    // Warm: neither misses now.
    sys.access(0, r, 50000);
    EXPECT_EQ(sys.l2().accesses(), 2u);
}

TEST(System, InclusionBackInvalidatesL1)
{
    // Tiny shared L2 (2 sets) forces evictions that must purge the L1.
    SystemConfig cfg = paperSystem(L2Kind::Shared);
    cfg.shared.capacity = 8192;  // 2 sets x 32 ways
    System sys(cfg);
    sys.access(0, {.op = MemOp::Load, .addr = 0x0}, 0);
    // Evict block 0 by filling its set (stride = 2*128 = 256).
    Tick t = 10000;
    for (int i = 1; i <= 32; ++i) {
        sys.access(
            0, {.op = MemOp::Load, .addr = static_cast<Addr>(i) * 256}, t);
        t += 10000;
    }
    std::uint64_t l2_before = sys.l2().accesses();
    sys.access(0, {.op = MemOp::Load, .addr = 0x0}, t + 10000);
    // The L1 copy was back-invalidated with the L2 block: L2 access.
    EXPECT_EQ(sys.l2().accesses(), l2_before + 1);
}

TEST(System, StoreBufferHitsRetireEarlyButChargeOccupancy)
{
    System sys(paperSystem(L2Kind::Shared));
    // Warm the block into the L2 (loads grant no L1 store ownership).
    sys.access(0, {.op = MemOp::Load, .addr = 0x1000}, 0);
    // Store hits from every core: each retires through the store
    // buffer one cycle after issue...
    for (CoreId c = 0; c < 4; ++c) {
        Tick done = sys.access(c, {.op = MemOp::Store, .addr = 0x1000}, 10000);
        EXPECT_EQ(done, 10001u);
    }
    // ...but each still charged L2 port occupancy: with all four
    // ports busy, an unrelated access issued at the same tick waits
    // out exactly one store's occupancy (4 cycles) for a free port.
    Tick solo = [] {
        System fresh(Runner::paperConfig(L2Kind::Shared));
        fresh.access(0, {.op = MemOp::Load, .addr = 0x1000}, 0);
        return fresh.access(0, {.op = MemOp::Load, .addr = 0x2000}, 10000);
    }();
    Tick queued = sys.access(0, {.op = MemOp::Load, .addr = 0x2000}, 10000);
    EXPECT_EQ(queued, solo + 4);
}

TEST(System, StoreBufferingOffStallsForHitCompletion)
{
    SystemConfig cfg = paperSystem(L2Kind::Shared);
    cfg.store_buffering = false;
    System sys(cfg);
    sys.access(0, {.op = MemOp::Load, .addr = 0x1000}, 0);
    // Without buffering the core waits out the full L2 store hit:
    // L1D latency + port grant + array latency, well past issue+1.
    Tick done = sys.access(1, {.op = MemOp::Store, .addr = 0x1000}, 10000);
    EXPECT_GT(done, 10001u);
}

TEST(System, StoreMissesStallDespiteBuffering)
{
    // Store *misses* are write-allocate fills; the store buffer only
    // hides hit latency, never the memory round-trip.
    System sys(paperSystem(L2Kind::Shared));
    Tick done = sys.access(0, {.op = MemOp::Store, .addr = 0x1000}, 0);
    EXPECT_GT(done, 1u);
}

TEST(System, IfetchMissComposesWithDataAccess)
{
    // The in-order front end stalls on an L1I miss: the data access
    // starts only after the L2 supplies the instruction block. With
    // both L1s at 3 cycles, completion is exactly the ifetch's L2
    // completion plus the warm L1D hit.
    System sys(paperSystem(L2Kind::Shared));
    sys.access(0, {.op = MemOp::Load, .addr = 0x1000}, 0); // warm L1D + L2
    Tick pure_ifetch_path = [] {
        System fresh(Runner::paperConfig(L2Kind::Shared));
        fresh.access(0, {.op = MemOp::Load, .addr = 0x1000}, 0);
        // Same port history, same tick, same block: this data access
        // completes when the ifetch L2 access in `sys` does.
        return fresh.access(0, {.op = MemOp::Load, .addr = 0x9000}, 10000);
    }();
    Tick done = sys.access(
        0, {.op = MemOp::Load, .iaddr = 0x9000, .addr = 0x1000}, 10000);
    EXPECT_EQ(done, pure_ifetch_path + 3);
    // Once the instruction block is resident, the pair is pure L1.
    Tick warm = sys.access(
        0, {.op = MemOp::Load, .iaddr = 0x9000, .addr = 0x1000}, 20000);
    EXPECT_EQ(warm, 20003u);
}

TEST(Core, ExecutesGapsAndCountsInstructions)
{
    System sys(paperSystem(L2Kind::Shared));
    ScriptSource src;
    for (int i = 0; i < 10; ++i)
        src.push(0x1000 + i * 64, MemOp::Load, 4);
    EventQueue eq;
    Core core(0, sys, src);
    core.start(eq);
    // Run until the script drains (idle records have gap 100).
    while (!src.exhausted())
        eq.step();
    EXPECT_GE(core.instructions(), 10u * 5u);
}

TEST(Core, IpcReflectsMemoryStalls)
{
    // Same instruction stream on ideal vs uniform-shared latency: the
    // lower-latency cache must give higher IPC.
    auto measure = [](L2Kind kind) {
        System sys(Runner::paperConfig(kind));
        ScriptSource src;
        // Loads striding L1-resident? No: stride 128 over 512 KB, so
        // every other access misses L1 and goes to L2.
        for (int i = 0; i < 2000; ++i)
            src.push(0x10000 + (i % 4096) * 128, MemOp::Load, 2);
        EventQueue eq;
        Core core(0, sys, src);
        core.start(eq);
        core.markEpoch(0);
        while (!src.exhausted())
            eq.step();
        return core.ipc(eq.now());
    };
    double ideal = measure(L2Kind::Ideal);
    double shared = measure(L2Kind::Shared);
    EXPECT_GT(ideal, shared);
}

TEST(Core, EpochAccountingResets)
{
    System sys(paperSystem(L2Kind::Shared));
    ScriptSource src;
    for (int i = 0; i < 50; ++i)
        src.push(0x1000, MemOp::Load, 1);
    EventQueue eq;
    Core core(0, sys, src);
    core.start(eq);
    for (int i = 0; i < 20; ++i)
        eq.step();
    std::uint64_t before = core.instructions();
    EXPECT_GT(before, 0u);
    core.markEpoch(eq.now());
    EXPECT_EQ(core.epochInstructions(), 0u);
}

TEST(System, EachCoreKeepsOneStepPending)
{
    // An in-order core with one outstanding miss schedules its next
    // step only from its current one, so the kernel holds exactly one
    // event per core after every step, on the bus and on the mesh.
    for (auto [cores, icn] : {std::pair{4, InterconnectKind::Bus},
                              std::pair{16, InterconnectKind::Mesh}}) {
        System sys(Runner::paperConfig(L2Kind::Nurapid, cores, icn));
        CanonicalWorkload wl(Runner::effectiveSynthParams(
            workloads::byName("oltp", cores), RunConfig{}));
        EventQueue eq;
        std::vector<std::unique_ptr<Core>> cpus;
        for (int c = 0; c < cores; ++c) {
            cpus.push_back(std::make_unique<Core>(c, sys, wl.source(c)));
            cpus.back()->start(eq);
        }
        const auto n = static_cast<std::size_t>(cores);
        ASSERT_EQ(eq.pending(), n);
        for (int i = 0; i < 20'000; ++i) {
            ASSERT_TRUE(eq.step());
            ASSERT_EQ(eq.pending(), n) << "after step " << i;
        }
        EXPECT_GT(eq.now(), 0u);
    }
}

TEST(System, AllKindsConstructAndServe)
{
    for (L2Kind k : {L2Kind::Shared, L2Kind::Private, L2Kind::Snuca,
                     L2Kind::Ideal, L2Kind::Nurapid}) {
        System sys(paperSystem(k));
        Tick done = sys.access(
            0, {.op = MemOp::Load, .iaddr = 0x9000, .addr = 0x1000}, 0);
        EXPECT_GT(done, 0u) << toString(k);
        EXPECT_EQ(std::string(toString(k)).empty(), false);
        sys.checkInvariants();
    }
}

TEST(System, StatsRegisterForAllKinds)
{
    for (L2Kind k : {L2Kind::Shared, L2Kind::Private, L2Kind::Snuca,
                     L2Kind::Ideal, L2Kind::Nurapid}) {
        System sys(paperSystem(k));
        StatGroup g("system");
        sys.regStats(g);
        sys.access(0, {.op = MemOp::Load, .addr = 0x1000}, 0);
        EXPECT_EQ(g.counter("l2.accesses").value(), 1u);
        sys.resetStats();
        EXPECT_EQ(g.counter("l2.accesses").value(), 0u);
    }
}

} // namespace
} // namespace cnsim
