#include "sim/runner.hh"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "cactilite/cactilite.hh"
#include "common/bytes.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "core/core.hh"
#include "l2/private_l2.hh"
#include "sample/checkpoint.hh"
#include "sim/event_queue.hh"
#include "sim/parallel_runner.hh"
#include "trace/replay.hh"

namespace cnsim
{

namespace
{

/** Round-robin slice (instructions per core) for functional warming.
 * Small enough that no core's warm touches evict another's before it
 * catches up. */
constexpr std::uint64_t warm_slice = 8'192;

/** Functionally warm @p instrs instructions per core at tick @p at, the
 * cores taking turns in warm_slice slices (approximating the detailed
 * interleaving) with every resource granting immediately: caches,
 * coherence and replication state get warm, the clock does not move. */
void
warmFunctionally(std::vector<std::unique_ptr<Core>> &cores,
                 std::uint64_t instrs, Tick at)
{
    std::uint64_t warmed = 0;
    while (warmed < instrs) {
        std::uint64_t slice = std::min(warm_slice, instrs - warmed);
        for (auto &core : cores)
            core->warmAdvance(slice, at);
        warmed += slice;
    }
}

/** Resolved per-window instruction budget of a sampled run. */
struct SampleBudget
{
    /** Measured instructions per window. */
    std::uint64_t detail = 0;
    /** Functionally-warmed instructions before the detailed ramp. */
    std::uint64_t warm = 0;
    /** Unmeasured detailed instructions before measurement starts. */
    std::uint64_t ramp = 0;
    /** Total stream extent one window covers (measure / windows). */
    std::uint64_t per_window = 0;
};

SampleBudget
resolveSampleBudget(const RunConfig &rc)
{
    SampleBudget b;
    std::uint64_t k = rc.sample_windows;
    b.per_window = rc.measure_instructions / k;
    b.detail = rc.sample_detail ? rc.sample_detail
                                : rc.measure_instructions / (k * 16);
    // The warm default is a quarter of the window extent: large enough
    // to rebuild the recency state the decode-only skip let go stale
    // (measured: IPC error vs. a full-detail run stays under 2% on the
    // Figure-10 workloads), small enough to keep the skip's speedup.
    b.warm = rc.sample_warmup ? rc.sample_warmup : b.per_window / 4;
    b.ramp = b.detail / 4;
    return b;
}

} // namespace

VariabilityResult
Runner::runVariability(const SystemConfig &sys_cfg,
                       const WorkloadSpec &workload,
                       const RunConfig &run_cfg, int runs, unsigned jobs)
{
    cnsim_assert(runs >= 1, "need at least one run");

    // Warm once, measure everywhere: the first repetition runs its
    // warm-up on its canonical stream and captures an in-memory
    // checkpoint; every other repetition resumes from that state and
    // replays its own seed-perturbed canonical stream from the same
    // position (streams from one workload family are positionally
    // interchangeable). N repetitions therefore pay one warm-up, and
    // the per-repetition seeds, submission order, and statistics are
    // identical for every @p jobs value.
    auto seeded = [&](int i) {
        RunConfig rc = run_cfg;
        rc.seed = run_cfg.seed + static_cast<std::uint64_t>(i) * 9973;
        return rc;
    };

    auto blob = std::make_shared<std::string>();
    RunConfig rc0 = seeded(0);
    rc0.ckpt_blob_out = blob;
    std::vector<RunResult> results;
    results.push_back(run(sys_cfg, workload, rc0));

    ParallelRunner pool(jobs);
    for (int i = 1; i < runs; ++i) {
        RunConfig rc = seeded(i);
        rc.ckpt_blob_in = blob;
        pool.submit(sys_cfg, workload, rc);
    }
    for (RunResult &rr : pool.run())
        results.push_back(std::move(rr));

    RunningStats ipc;
    for (const RunResult &r : results)
        ipc.push(r.ipc);

    VariabilityResult v;
    v.runs = runs;
    v.mean_ipc = ipc.mean();
    v.stddev_ipc = ipc.stddev();
    v.min_ipc = ipc.min();
    v.max_ipc = ipc.max();
    return v;
}

SystemConfig
Runner::paperConfig(L2Kind kind)
{
    SystemConfig cfg;
    cfg.num_cores = 4;
    cfg.l2_kind = kind;
    // 64 KB 2-way 64 B 3-cycle L1 I and D caches (Section 4.1).
    cfg.l1d = L1Params{};
    cfg.l1i = L1Params{};
    // 8 MB L2 in each organization, Table 1 latencies.
    cfg.shared = SharedL2Params{};
    cfg.priv = PrivateL2Params{};
    cfg.snuca = SnucaParams{};
    cfg.nurapid = NurapidParams{};
    cfg.ideal_latency = 10;
    cfg.bus = BusParams{};
    cfg.memory = MemoryParams{};
    return cfg;
}

SystemConfig
Runner::paperConfig(L2Kind kind, int cores, InterconnectKind icn)
{
    SystemConfig cfg = paperConfig(kind);
    if (cores != 4) {
        // Scale capacity with the core count (the paper's 2 MB per
        // core) and re-derive the latencies that depend on it.
        CactiLite m;
        std::uint64_t per_core = 2ull * 1024 * 1024;
        std::uint64_t total = per_core * static_cast<std::uint64_t>(cores);

        cfg.num_cores = cores;
        cfg.shared.capacity = total;
        cfg.shared.latency = m.sharedCache(total, 128).total;
        cfg.shared.ports = static_cast<unsigned>(cores);
        cfg.priv.capacity_per_core = per_core;
        cfg.ideal_latency = cfg.priv.latency;
        cfg.nurapid.num_dgroups = cores;
        cfg.nurapid.dgroup_capacity = per_core;
        cfg.bus.latency = m.busCycles(total);
    }
    cfg.interconnect = icn;
    return cfg;
}

SynthWorkloadParams
Runner::effectiveSynthParams(const WorkloadSpec &workload,
                             const RunConfig &run_cfg)
{
    SynthWorkloadParams wp = workload.synth;
    wp.seed = wp.seed * 31 + run_cfg.seed;
    return wp;
}

std::shared_ptr<RecordedTrace>
Runner::acquireSharedTrace(const WorkloadSpec &workload,
                           const RunConfig &run_cfg)
{
    return TraceCache::global().acquire(
        effectiveSynthParams(workload, run_cfg));
}

void
Runner::validate(const SystemConfig &sys_cfg, const WorkloadSpec &workload,
                 const RunConfig &run_cfg)
{
    // These are user-input mistakes (wrong --cores, a stale trace
    // file), not simulator bugs, so they exit cleanly via fatal()
    // instead of panicking with a backtrace.
    if (sys_cfg.num_cores < 1 || sys_cfg.num_cores > 64)
        fatal("core count must be between 1 and 64, got %d",
              sys_cfg.num_cores);
    if (static_cast<int>(workload.synth.threads.size()) !=
        sys_cfg.num_cores)
        fatal("workload '%s' has %zu threads but the system has %d "
              "cores; regenerate it for this core count",
              workload.name.c_str(), workload.synth.threads.size(),
              sys_cfg.num_cores);
    if (run_cfg.replay && run_cfg.replay->cores() != sys_cfg.num_cores)
        fatal("replay trace has %d cores but the system has %d; "
              "recapture the trace at this core count",
              run_cfg.replay->cores(), sys_cfg.num_cores);
    if (!run_cfg.ckpt_load.empty() && run_cfg.ckpt_blob_in)
        fatal("cannot resume from both a checkpoint file and an "
              "in-memory checkpoint");
    if (run_cfg.sample_windows > 0) {
        SampleBudget b = resolveSampleBudget(run_cfg);
        if (b.detail == 0)
            fatal("sampling budget too small: %u windows over %llu "
                  "instructions leave no measured instructions per "
                  "window; reduce --sample-windows",
                  run_cfg.sample_windows,
                  static_cast<unsigned long long>(
                      run_cfg.measure_instructions));
        if (b.warm + b.ramp + b.detail >= b.per_window)
            fatal("sampling window over-budget: %llu warm + %llu ramp "
                  "+ %llu measured instructions must fit under the "
                  "%llu-instruction window extent "
                  "(measure / sample-windows); reduce --sample-detail "
                  "or --sample-warmup",
                  static_cast<unsigned long long>(b.warm),
                  static_cast<unsigned long long>(b.ramp),
                  static_cast<unsigned long long>(b.detail),
                  static_cast<unsigned long long>(b.per_window));
    }
}

namespace
{

/** The settings of @p sc that a checkpoint records (NuRAPID's). */
sample::BehaviourSettings
behaviourSettings(const SystemConfig &sc)
{
    sample::BehaviourSettings s;
    s.enable_cr = sc.nurapid.enable_cr ? 1 : 0;
    s.enable_isc = sc.nurapid.enable_isc ? 1 : 0;
    s.promotion = static_cast<std::uint32_t>(sc.nurapid.promotion);
    s.replication = static_cast<std::uint32_t>(sc.nurapid.replication);
    return s;
}

/** Snapshot the post-warm-up machine into a Checkpoint (stats are not
 * serialized: both the saving and the resuming run reset statistics at
 * this same boundary, so the measurement epochs are identical). */
sample::Checkpoint
makeCheckpoint(const System &system, const EventQueue &eq,
               const std::vector<std::unique_ptr<Core>> &cores,
               const WorkloadSpec &workload, const RunConfig &run_cfg)
{
    const SystemConfig &sc = system.config();
    sample::Checkpoint ck;
    ck.num_cores = static_cast<std::uint32_t>(sc.num_cores);
    ck.l2_kind = static_cast<std::uint32_t>(sc.l2_kind);
    ck.interconnect = static_cast<std::uint32_t>(sc.interconnect);
    ck.tick = eq.now();
    ck.events_executed = eq.executed();
    if (run_cfg.replay) {
        ck.trace_params_hash = run_cfg.replay->paramsHash();
        ck.trace_seed = run_cfg.replay->seed();
    } else {
        SynthWorkloadParams wp =
            Runner::effectiveSynthParams(workload, run_cfg);
        ck.trace_params_hash = RecordedTrace::hashParams(wp);
        ck.trace_seed = wp.seed;
    }
    ck.warmup_instructions = run_cfg.warmup_instructions;
    ck.settings = behaviourSettings(sc);
    for (const auto &core : cores) {
        sample::CoreState cs;
        cs.instructions = core->instructions();
        cs.data_refs = core->dataRefs();
        cs.step_when = core->nextStepWhen();
        cs.step_seq = core->nextStepSeq();
        cs.consumed = core->recordsConsumed();
        ck.cores.push_back(cs);
    }
    system.checkpointMeta(ck.meta);
    ByteWriter w;
    system.saveState(w);
    ck.arch = w.take();
    return ck;
}

} // namespace

RunResult
Runner::run(const SystemConfig &sys_cfg, const WorkloadSpec &workload,
            const RunConfig &run_cfg)
{
    validate(sys_cfg, workload, run_cfg);

    // A binlog-out path streams events to the CNBLG002 binary log.
    SystemConfig sc = sys_cfg;
    if (!run_cfg.binlog_out.empty())
        sc.obs.binlog_out = run_cfg.binlog_out;

    System system(sc);
    // One stream, two deliveries: read the trace the caller passed, or
    // the materialized one some holder keeps live in TraceCache; with
    // neither, generate the stream here. The records are the same.
    std::shared_ptr<RecordedTrace> trace = run_cfg.replay;
    if (!trace)
        trace = TraceCache::global().find(
            effectiveSynthParams(workload, run_cfg));
    std::unique_ptr<CanonicalWorkload> canon;
    std::vector<std::unique_ptr<ReplaySource>> replays;
    if (trace) {
        for (int c = 0; c < sc.num_cores; ++c)
            replays.emplace_back(std::make_unique<ReplaySource>(*trace, c));
    } else {
        canon = std::make_unique<CanonicalWorkload>(
            effectiveSynthParams(workload, run_cfg));
    }
    auto source = [&](int c) -> TraceSource & {
        if (canon)
            return canon->source(c);
        return *replays[static_cast<std::size_t>(c)];
    };
    EventQueue eq;

    std::vector<std::unique_ptr<Core>> cores;
    for (int c = 0; c < sc.num_cores; ++c) {
        cores.emplace_back(std::make_unique<Core>(
            c, system, source(c), sc.core_non_mem_cpi));
        cores.back()->attachSink(system.traceSink());
    }
    if (system.metrics()) {
        StatGroup cg("cores");
        for (auto &core : cores)
            core->regStats(cg);
        system.metrics()->importStatGroup(cg);
    }

    auto max_core_instr = [&]() {
        std::uint64_t m = 0;
        for (auto &core : cores)
            m = std::max(m, core->epochInstructions());
        return m;
    };

    // Warm-up (or resume): bring the machine to the measurement
    // boundary. Three ways to get there, cheapest applicable wins:
    // resume a checkpoint (no warm-up at all), functionally warm
    // (sampled runs: state without timing), or run detailed.
    const bool sampled = run_cfg.sample_windows > 0;
    std::optional<sample::Checkpoint> resume_ck;
    std::string resume_what;
    if (!run_cfg.ckpt_load.empty()) {
        resume_ck = sample::Checkpoint::loadFile(run_cfg.ckpt_load);
        resume_what = run_cfg.ckpt_load;
    } else if (run_cfg.ckpt_blob_in) {
        resume_ck = sample::Checkpoint::deserialize(
            *run_cfg.ckpt_blob_in, "<memory>");
        resume_what = "<memory>";
    }

    if (resume_ck) {
        std::uint64_t run_hash =
            run_cfg.replay
                ? run_cfg.replay->paramsHash()
                : RecordedTrace::hashParams(
                      effectiveSynthParams(workload, run_cfg));
        // File checkpoints are config-strict including trace
        // provenance; the in-memory variability path relaxes the trace
        // hash because each seed replays its own canonical stream. Only
        // NuRAPID's warm state depends on the behaviour settings.
        const sample::BehaviourSettings run_settings = behaviourSettings(sc);
        resume_ck->validateConfig(
            static_cast<std::uint32_t>(sc.num_cores),
            static_cast<std::uint32_t>(sc.l2_kind),
            static_cast<std::uint32_t>(sc.interconnect), run_hash,
            /*check_trace=*/!run_cfg.ckpt_load.empty(), resume_what,
            sc.l2_kind == L2Kind::Nurapid ? &run_settings : nullptr);
        eq.resumeAt(resume_ck->tick, resume_ck->events_executed);
        for (std::size_t c = 0; c < cores.size(); ++c)
            cores[c]->restoreCursor(resume_ck->cores[c]);
        // Re-schedule each core's pending step in saved-seq order so
        // same-tick FIFO ties pop exactly as in the warmed run.
        std::vector<std::size_t> order(cores.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      return resume_ck->cores[a].step_seq <
                             resume_ck->cores[b].step_seq;
                  });
        for (std::size_t i : order)
            cores[i]->resume(eq, resume_ck->cores[i].step_when);
        ByteReader rd(resume_ck->arch.data(), resume_ck->arch.size(),
                      "CNCKPT01 checkpoint '" + resume_what + "'");
        system.loadState(rd);
        rd.expectExhausted();
    } else if (sampled) {
        warmFunctionally(cores, run_cfg.warmup_instructions, eq.now());
        for (auto &core : cores)
            core->start(eq);
    } else {
        for (auto &core : cores)
            core->start(eq);
        while (max_core_instr() < run_cfg.warmup_instructions) {
            if (!eq.pending())
                panic("event queue drained during warm-up");
            eq.run(eq.now() + run_cfg.quantum);
            system.obsTick(eq.now());
        }
    }

    // The machine is at the measurement boundary: snapshot it before
    // statistics reset, so a resuming run lands at this exact state and
    // measures a bit-identical epoch.
    if (!run_cfg.ckpt_save.empty() || run_cfg.ckpt_blob_out) {
        sample::Checkpoint ck =
            makeCheckpoint(system, eq, cores, workload, run_cfg);
        if (!run_cfg.ckpt_save.empty())
            ck.saveFile(run_cfg.ckpt_save);
        if (run_cfg.ckpt_blob_out)
            *run_cfg.ckpt_blob_out = ck.serialize();
    }

    // Reset statistics and start the measurement epoch (this also arms
    // trace recording).
    system.resetStats();
    Tick epoch_start = eq.now();
    for (auto &core : cores)
        core->markEpoch(epoch_start);
    if (system.metrics())
        system.metrics()->snapshot(epoch_start);

    Tick measured_ticks = 0;
    std::uint64_t measured_instr = 0;
    std::vector<std::uint64_t> core_measured(cores.size(), 0);
    std::vector<double> window_ipc;
    RunningStats wstats;

    if (!sampled) {
        while (max_core_instr() < run_cfg.measure_instructions) {
            if (!eq.pending())
                panic("event queue drained during measurement");
            eq.run(eq.now() + run_cfg.quantum);
            system.obsTick(eq.now());
        }
    } else {
        // Interval sampling: K windows spread over the measurement
        // stream extent. Each window decode-skips the gap, functionally
        // warms, runs a short unmeasured detailed ramp (drains the
        // timing transient the functional phase cannot model), then
        // measures.
        SampleBudget b = resolveSampleBudget(run_cfg);
        std::uint64_t gap = b.per_window - (b.warm + b.ramp + b.detail);
        auto run_detailed = [&](std::uint64_t target) {
            std::vector<std::uint64_t> base;
            base.reserve(cores.size());
            for (auto &core : cores)
                base.push_back(core->instructions());
            auto advanced = [&]() {
                std::uint64_t m = 0;
                for (std::size_t c = 0; c < cores.size(); ++c)
                    m = std::max(m, cores[c]->instructions() - base[c]);
                return m;
            };
            while (advanced() < target) {
                if (!eq.pending())
                    panic("event queue drained during a sampling window");
                eq.run(eq.now() + run_cfg.quantum);
                system.obsTick(eq.now());
            }
        };
        for (unsigned w = 0; w < run_cfg.sample_windows; ++w) {
            // The stream is canonical, so the order in which cores skip
            // cannot change its records: each core hops its whole gap at
            // once, and a ReplaySource discards published chunks unread.
            for (auto &core : cores)
                core->skipAdvance(gap);
            warmFunctionally(cores, b.warm, eq.now());
            run_detailed(b.ramp);
            Tick t0 = eq.now();
            std::vector<std::uint64_t> i0;
            i0.reserve(cores.size());
            for (auto &core : cores)
                i0.push_back(core->instructions());
            run_detailed(b.detail);
            Tick span = eq.now() - t0;
            std::uint64_t instr = 0;
            for (std::size_t c = 0; c < cores.size(); ++c) {
                std::uint64_t d = cores[c]->instructions() - i0[c];
                core_measured[c] += d;
                instr += d;
            }
            measured_ticks += span;
            measured_instr += instr;
            double wipc =
                span ? static_cast<double>(instr) / span : 0.0;
            window_ipc.push_back(wipc);
            wstats.push(wipc);
        }
    }
    Tick end = eq.now();

    system.checkInvariants();

    RunResult r;
    r.workload = workload.name;
    r.l2_kind = system.l2().kind();
    r.events_executed = eq.executed();
    if (!sampled) {
        r.cycles = end - epoch_start;
        for (auto &core : cores) {
            r.instructions += core->epochInstructions();
            r.core_ipc.push_back(core->ipc(end));
        }
        r.ipc =
            r.cycles ? static_cast<double>(r.instructions) / r.cycles
                     : 0.0;
    } else {
        // Sampled runs report over the union of the measured windows;
        // the headline IPC is the window mean with a Student-t 95%
        // confidence half-width, the estimate the figures print as
        // "ipc +/- ci".
        r.sampled = true;
        r.cycles = measured_ticks;
        r.instructions = measured_instr;
        r.ipc = wstats.mean();
        r.ipc_ci95 = wstats.ci95HalfWidth();
        r.window_ipc = std::move(window_ipc);
        for (std::uint64_t ci : core_measured)
            r.core_ipc.push_back(
                measured_ticks
                    ? static_cast<double>(ci) / measured_ticks
                    : 0.0);
    }

    const L2Org &l2 = system.l2();
    r.l2_accesses = l2.accesses();
    r.frac_hit = l2.clsFraction(AccessClass::Hit);
    r.frac_ros = l2.clsFraction(AccessClass::ROSMiss);
    r.frac_rws = l2.clsFraction(AccessClass::RWSMiss);
    r.frac_cap = l2.clsFraction(AccessClass::CapacityMiss);
    r.miss_rate = l2.missFraction();

    for (int cmd = 0; cmd < num_bus_cmds; ++cmd)
        r.bus_transactions +=
            system.bus().count(static_cast<BusCmd>(cmd));
    r.mem_reads = system.memory().reads();
    r.mem_writebacks = system.memory().writebacks();

    if (const auto *nu = dynamic_cast<const CmpNurapid *>(&l2)) {
        r.closest_hit_frac = nu->closestHitFraction();
        r.closest_access_frac = r.frac_hit * r.closest_hit_frac;
    }
    if (const auto *pv = dynamic_cast<const PrivateL2 *>(&l2)) {
        r.ros_reuse = pv->reuse().rosBuckets();
        r.rws_reuse = pv->reuse().rwsBuckets();
    }

    if (run_cfg.collect_stats_dump || run_cfg.collect_stats_csv) {
        StatGroup g("system");
        system.regStats(g);
        for (auto &core : cores)
            core->regStats(g);
        if (run_cfg.collect_stats_dump)
            r.stats_dump = g.dump();
        if (run_cfg.collect_stats_csv)
            r.stats_csv = g.dumpCsv();
    }

    // Close out observability before reading results: emits the
    // trailing partial-interval metrics snapshot and seals the binlog.
    system.finishObs(end);
    if (system.metrics())
        r.metrics_csv = system.metrics()->csv();
    if (obs::TraceSink *sink = system.traceSink())
        r.trace_events = sink->recordedEvents();
    if (system.auditor())
        r.audited_transitions = system.auditor()->transitions();
    return r;
}

} // namespace cnsim
