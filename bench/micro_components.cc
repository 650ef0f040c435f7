/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot paths:
 * event-queue throughput, L1 lookups, NuRAPID tag/data operations,
 * full L2 accesses per organization, and trace generation. These
 * bound how many simulated instructions per second the figure benches
 * can sustain.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "cache/l1_cache.hh"
#include "common/rng.hh"
#include "l2/private_l2.hh"
#include "l2/shared_l2.hh"
#include "mem/bus.hh"
#include "mem/memory.hh"
#include "nurapid/cmp_nurapid.hh"
#include "obs/binlog.hh"
#include "obs/trace_sink.hh"
#include "sim/event_queue.hh"
#include "trace/workloads.hh"

namespace cnsim
{
namespace
{

void
BM_EventQueue(benchmark::State &state)
{
    EventQueue eq;
    Tick t = 0;
    for (auto _ : state) {
        eq.schedule(t + 10, [](Tick) {});
        eq.step();
        t = eq.now();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueue);

void
BM_L1Lookup(benchmark::State &state)
{
    L1Cache l1("l1", L1Params{});
    Rng rng(1);
    for (Addr a = 0; a < 64 * 1024; a += 64)
        l1.fill(a, false, false);
    for (auto _ : state) {
        Addr a = (rng.next() & 0xffff) & ~63ull;
        benchmark::DoNotOptimize(l1.loadHit(a));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_L1Lookup);

void
BM_SharedL2Access(benchmark::State &state)
{
    MainMemory mem;
    SharedL2 l2(SharedL2Params{}, mem);
    Rng rng(2);
    Tick t = 0;
    for (auto _ : state) {
        MemAccess acc{static_cast<CoreId>(rng.below(4)),
                      static_cast<Addr>(rng.below(32768)) * 128,
                      MemOp::Load};
        benchmark::DoNotOptimize(l2.access(acc, t));
        t += 100;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SharedL2Access);

void
BM_PrivateL2Access(benchmark::State &state)
{
    MainMemory mem;
    SnoopBus bus;
    PrivateL2 l2(PrivateL2Params{}, bus, mem);
    l2.setL1Hooks([](CoreId, Addr) {}, [](CoreId, Addr, bool) {});
    Rng rng(3);
    Tick t = 0;
    for (auto _ : state) {
        MemAccess acc{static_cast<CoreId>(rng.below(4)),
                      static_cast<Addr>(rng.below(16384)) * 128,
                      rng.chance(0.3) ? MemOp::Store : MemOp::Load};
        benchmark::DoNotOptimize(l2.access(acc, t));
        t += 100;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PrivateL2Access);

void
BM_NurapidAccess(benchmark::State &state)
{
    MainMemory mem;
    SnoopBus bus;
    CmpNurapid l2(NurapidParams{}, bus, mem);
    l2.setL1Hooks([](CoreId, Addr) {}, [](CoreId, Addr, bool) {});
    Rng rng(4);
    Tick t = 0;
    for (auto _ : state) {
        MemAccess acc{static_cast<CoreId>(rng.below(4)),
                      static_cast<Addr>(rng.below(16384)) * 128,
                      rng.chance(0.3) ? MemOp::Store : MemOp::Load};
        benchmark::DoNotOptimize(l2.access(acc, t));
        t += 100;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NurapidAccess);

void
BM_NurapidInvariantCheck(benchmark::State &state)
{
    MainMemory mem;
    SnoopBus bus;
    NurapidParams p;
    p.dgroup_capacity = 64 * 1024;
    CmpNurapid l2(p, bus, mem);
    l2.setL1Hooks([](CoreId, Addr) {}, [](CoreId, Addr, bool) {});
    Rng rng(5);
    Tick t = 0;
    for (int i = 0; i < 5000; ++i) {
        MemAccess acc{static_cast<CoreId>(rng.below(4)),
                      static_cast<Addr>(rng.below(4096)) * 128,
                      rng.chance(0.3) ? MemOp::Store : MemOp::Load};
        l2.access(acc, t);
        t += 100;
    }
    for (auto _ : state)
        l2.checkInvariants();
}
BENCHMARK(BM_NurapidInvariantCheck);

/**
 * The observability overhead budget (DESIGN.md 3d): tag lookups with a
 * null sink vs. an attached-but-inactive sink vs. a recording sink.
 * The disabled hot path must stay within a few percent of the null
 * baseline -- compare BM_NurapidAccess to BM_NurapidAccessTracingOff.
 */
void
BM_NurapidAccessTracingOff(benchmark::State &state)
{
    MainMemory mem;
    SnoopBus bus;
    CmpNurapid l2(NurapidParams{}, bus, mem);
    l2.setL1Hooks([](CoreId, Addr) {}, [](CoreId, Addr, bool) {});
    // An inactive sink: attached, but neither armed nor listened to,
    // so every emit helper falls through the active() test.
    obs::TraceSink sink;
    l2.setTraceSink(&sink);
    Rng rng(4);  // same stream as BM_NurapidAccess
    Tick t = 0;
    for (auto _ : state) {
        MemAccess acc{static_cast<CoreId>(rng.below(4)),
                      static_cast<Addr>(rng.below(16384)) * 128,
                      rng.chance(0.3) ? MemOp::Store : MemOp::Load};
        benchmark::DoNotOptimize(l2.access(acc, t));
        t += 100;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NurapidAccessTracingOff);

void
BM_NurapidAccessTracingOn(benchmark::State &state)
{
    MainMemory mem;
    SnoopBus bus;
    CmpNurapid l2(NurapidParams{}, bus, mem);
    l2.setL1Hooks([](CoreId, Addr) {}, [](CoreId, Addr, bool) {});
    // Armed with a binlog, as a --binlog-out run's measurement epoch.
    obs::TraceSink sink;
    obs::BinlogWriter binlog("/dev/null");
    sink.setBinlog(&binlog);
    l2.setTraceSink(&sink);
    binlog.begin(sink.components(), {});
    sink.armRecording();
    Rng rng(4);
    Tick t = 0;
    for (auto _ : state) {
        MemAccess acc{static_cast<CoreId>(rng.below(4)),
                      static_cast<Addr>(rng.below(16384)) * 128,
                      rng.chance(0.3) ? MemOp::Store : MemOp::Load};
        benchmark::DoNotOptimize(l2.access(acc, t));
        t += 100;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NurapidAccessTracingOn);

void
BM_SynthTraceGeneration(benchmark::State &state)
{
    WorkloadSpec w = workloads::byName("oltp");
    SynthWorkload synth(w.synth);
    std::vector<TraceRecord> round(w.synth.threads.size());
    for (auto _ : state) {
        synth.drawRound(round);
        benchmark::DoNotOptimize(round.data());
        benchmark::ClobberMemory();
    }
    // Items are records: one canonical round draws one per thread.
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(round.size()));
}
BENCHMARK(BM_SynthTraceGeneration);

void
BM_BusTransaction(benchmark::State &state)
{
    SnoopBus bus;
    Tick t = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(bus.transaction(BusCmd::BusRd, t));
        t += 50;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BusTransaction);

} // namespace
} // namespace cnsim

BENCHMARK_MAIN();
