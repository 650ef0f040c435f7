/**
 * @file
 * The traced pass: a harness-owned copy of Runner::run's detailed path
 * that reproduces Core::step and System::access with public calls only
 * and records a span around every call into a layer.
 *
 * Spans are aggregated per layer in memory (count and ns);
 * the first cell's raw spans are also kept, up to a fixed cap, and
 * written to the run directory at the end. A layer's self time is its
 * span total minus the spans nested inside it: the event kernel's is
 * EventQueue::run minus the step callbacks it dispatched (plus the
 * schedule calls made from them), a core step's is the callback minus
 * the layer calls it made. L2 spans are classed by what the access
 * touched, read from public counters around the call: a DRAM read
 * (mem), else an interconnect transaction (icn), else neither (hit).
 * Reported span times have the timer's own cost (an empty span)
 * subtracted and are scaled to a nominal-speed host like the timed
 * pass's.
 *
 * Every traced cell is checked against Runner::run on the same cell:
 * the full statistics dump, the recorded-event count, the metrics
 * time series and the retired-instruction totals must be identical.
 */

#include <algorithm>
#include <array>
#include <fstream>
#include <memory>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "common/logging.hh"
#include "ledger.hh"
#include "mem/directory.hh"
#include "sim/event_queue.hh"
#include "trace/replay.hh"

namespace ledger
{

using namespace cnsim;

namespace
{

std::uint64_t
steadyNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

#if defined(__x86_64__) || defined(__i386__)
/** Nanoseconds per time-stamp-counter tick, against steady_clock. */
double
calibrateTsc()
{
    std::uint64_t s0 = steadyNs();
    std::uint64_t c0 = __rdtsc();
    while (steadyNs() - s0 < 20'000'000) {
    }
    return static_cast<double>(steadyNs() - s0) /
           static_cast<double>(__rdtsc() - c0);
}
#endif

/**
 * Span clock, in ns. On x86 it reads the time-stamp counter: measured on
 * the development host a steady_clock read cost ~36 ns and, being
 * ordered against the surrounding code, inflated spans of a few ns by
 * 5-8x, where a plain counter read cost ~19 ns.
 */
inline std::uint64_t
clockNs()
{
#if defined(__x86_64__) || defined(__i386__)
    static const double ns_per_tick = calibrateTsc();
    return static_cast<std::uint64_t>(static_cast<double>(__rdtsc()) *
                                      ns_per_tick);
#else
    return steadyNs();
#endif
}

/**
 * What an empty span measures (median of back-to-back reads): the
 * clock's own cost, subtracted from every span before it is reported.
 */
double
emptySpanNs()
{
    std::vector<double> d(4001);
    for (double &x : d) {
        std::uint64_t t0 = clockNs();
        x = static_cast<double>(clockNs() - t0);
    }
    return median(d);
}

/** Spanned layer calls (L2 accesses are classed separately). */
enum Layer : std::uint32_t
{
    TraceNext,   //!< TraceSource::next
    KernelRun,   //!< EventQueue::run
    CoreStep,    //!< one step callback (Core::step reproduced)
    Schedule,    //!< EventQueue::schedule
    L1,          //!< L1Cache::loadHit / storeCheck / fill
    L2Note,      //!< L2Org::noteL1Hit
    AuditCheck,  //!< ProtocolAuditor::runDeferredChecks
    ObsStall,    //!< TraceSink::coreStall
    ObsTick,     //!< System::obsTick
    ObsFinish,   //!< System::finishObs
    CheckInv,    //!< System::checkInvariants
    Build,       //!< System and core construction
    L2Hit,       //!< L2Org::access, no interconnect or DRAM delta
    L2Icn,       //!< L2Org::access with >= 1 interconnect transaction
    L2Mem,       //!< L2Org::access with >= 1 DRAM read
    num_layers
};

const char *const layer_names[num_layers] = {
    "trace.next", "sim.run", "core.step", "sim.schedule", "cache.l1",
    "l2.note", "obs.audit_check", "obs.stall", "obs.tick", "obs.finish",
    "sim.check_invariants", "sim.build", "l2.hit", "l2.icn", "l2.mem"};

constexpr std::size_t num_orgs = 7;
constexpr std::size_t num_classes = 3;

/** Span totals (ns and calls) of one traced pass over a grid. */
struct SpanTotals
{
    std::array<std::uint64_t, num_layers> ns{};
    std::array<std::uint64_t, num_layers> calls{};
    /** L2 spans per organization (L2Kind order) and class. */
    std::array<std::array<std::uint64_t, num_classes>, num_orgs> l2_ns{};
    std::array<std::array<std::uint64_t, num_classes>, num_orgs> l2_calls{};
    /** Time of the spans nested inside core steps. */
    std::uint64_t step_children = 0;
    std::uint64_t l1_lookups = 0;
    std::uint64_t l1_hits = 0;
};

/** One recorded span; spans of one core step share `step`. */
struct RawSpan
{
    std::uint32_t layer;
    std::uint64_t step;
    std::uint64_t t0;
    std::uint64_t t1;
};

/** Raw spans kept per invocation (the first cell's, ~2.5 MB). */
constexpr std::size_t raw_span_cap = 1u << 16;

/** A traced cell's outputs, in the fields the checks compare. */
struct TracedResult
{
    RunResult r;
    std::uint64_t noc_hops = 0;
    std::uint64_t epoch_refs = 0;
    double seconds = 0.0;
};

/** Per-core state of the reproduced Core. */
struct TracedCore
{
    TracedCore(CoreId id, TraceSource &src, double cpi)
        : id(id), src(src), cpi(cpi), unit_cpi(cpi == 1.0)
    {
    }

    // Scheduled step events hold this core's address.
    TracedCore(const TracedCore &) = delete;
    TracedCore &operator=(const TracedCore &) = delete;

    std::uint64_t
    epochInstructions() const
    {
        return n_instr.value() - epoch_instr;
    }

    /** The same names and descriptions Core::regStats registers. */
    void
    regStats(StatGroup &g)
    {
        g.addCounter(strfmt("core%d.instructions", id), &n_instr,
                     "instructions retired");
        g.addCounter(strfmt("core%d.dataRefs", id), &n_data_refs,
                     "data references issued");
    }

    CoreId id;
    TraceSource &src;
    double cpi;
    bool unit_cpi;
    Counter n_instr;
    Counter n_data_refs;
    std::uint64_t epoch_instr = 0;
    std::uint64_t epoch_refs = 0;
    int track = -1;
    Tick stall_threshold = 0;
};

/** Runs one cell the way Runner::run does, with spans at each call. */
class TracedRunner
{
  public:
    TracedRunner(SpanTotals &tot, std::vector<RawSpan> *raw)
        : tot(tot), raw(raw)
    {
    }

    // Scheduled step events hold this runner's address.
    TracedRunner(const TracedRunner &) = delete;
    TracedRunner &operator=(const TracedRunner &) = delete;

    TracedResult run(const Cell &cell, const RunConfig &rc);

  private:
    void
    span(Layer l, std::uint64_t t0, std::uint64_t t1)
    {
        std::uint64_t d = t1 - t0;
        tot.ns[l] += d;
        ++tot.calls[l];
        if (in_step && l != CoreStep)
            tot.step_children += d;
        if (raw && raw->size() < raw_span_cap)
            raw->push_back({l, step_id, t0, t1});
    }

    std::uint64_t
    icnCount() const
    {
        std::uint64_t n = 0;
        for (int cmd = 0; cmd < num_bus_cmds; ++cmd)
            n += sys->bus().count(static_cast<BusCmd>(cmd));
        return n;
    }

    bool
    l1Load(L1Cache &l1, Addr addr)
    {
        std::uint64_t t0 = clockNs();
        bool hit = l1.loadHit(addr);
        span(L1, t0, clockNs());
        ++tot.l1_lookups;
        tot.l1_hits += hit;
        return hit;
    }

    void
    l1Fill(L1Cache &l1, Addr addr, const AccessResult &r, bool ifetch)
    {
        std::uint64_t t0 = clockNs();
        l1.fill(addr, ifetch ? false : r.l1Owned, r.l1WriteThrough);
        span(L1, t0, clockNs());
    }

    void
    noteL1Hit(CoreId core, Addr addr)
    {
        if (!l2_notes)
            return;
        std::uint64_t t0 = clockNs();
        sys->l2().noteL1Hit(core, addr);
        span(L2Note, t0, clockNs());
    }

    AccessResult l2Access(const MemAccess &acc, Tick at);
    Tick access(CoreId core, const TraceRecord &rec, Tick at);
    Tick accessImpl(CoreId core, const TraceRecord &rec, Tick at);
    void step(TracedCore &c, Tick now);

    SpanTotals &tot;
    std::vector<RawSpan> *raw;
    System *sys = nullptr;
    EventQueue *eq = nullptr;
    obs::TraceSink *sink = nullptr;
    obs::ProtocolAuditor *auditor = nullptr;
    bool l2_notes = false;
    /** The cell's L2Kind, as an index into SpanTotals::l2_*. */
    std::size_t org = 0;
    bool in_step = false;
    std::uint64_t step_id = 0;
};

AccessResult
TracedRunner::l2Access(const MemAccess &acc, Tick at)
{
    std::uint64_t icn0 = icnCount();
    std::uint64_t mem0 = sys->memory().reads();
    std::uint64_t t0 = clockNs();
    AccessResult r = sys->l2().access(acc, at);
    std::uint64_t t1 = clockNs();
    std::size_t cls = sys->memory().reads() != mem0 ? 2
                      : icnCount() != icn0          ? 1
                                                    : 0;
    span(static_cast<Layer>(L2Hit + cls), t0, t1);
    tot.l2_ns[org][cls] += t1 - t0;
    ++tot.l2_calls[org][cls];
    return r;
}

Tick
TracedRunner::access(CoreId core, const TraceRecord &rec, Tick at)
{
    Tick done = accessImpl(core, rec, at);
    if (auditor) {
        std::uint64_t t0 = clockNs();
        auditor->runDeferredChecks();
        span(AuditCheck, t0, clockNs());
    }
    return done;
}

Tick
TracedRunner::accessImpl(CoreId core, const TraceRecord &rec, Tick at)
{
    // System::accessImpl, call for call.
    L1Cache &l1i = sys->l1i(core);
    L1Cache &l1d = sys->l1d(core);
    Tick t = at;
    if (rec.iaddr != 0 && !l1Load(l1i, rec.iaddr)) {
        AccessResult r = l2Access(MemAccess{core, rec.iaddr, MemOp::Ifetch},
                                  t + l1i.latency());
        l1Fill(l1i, rec.iaddr, r, true);
        t = r.complete;
    }

    if (rec.op == MemOp::Load) {
        if (l1Load(l1d, rec.addr)) {
            noteL1Hit(core, rec.addr);
            return t + l1d.latency();
        }
        AccessResult r = l2Access(MemAccess{core, rec.addr, MemOp::Load},
                                  t + l1d.latency());
        l1Fill(l1d, rec.addr, r, false);
        return r.complete;
    }

    std::uint64_t t0 = clockNs();
    L1StoreCheck sc = l1d.storeCheck(rec.addr);
    span(L1, t0, clockNs());
    ++tot.l1_lookups;
    if (sc == L1StoreCheck::Hit) {
        ++tot.l1_hits;
        noteL1Hit(core, rec.addr);
        return t + 1;
    }
    AccessResult r = l2Access(MemAccess{core, rec.addr, MemOp::Store},
                              t + l1d.latency());
    l1Fill(l1d, rec.addr, r, false);
    if (sys->config().store_buffering && r.cls == AccessClass::Hit)
        return t + 1;
    return r.complete;
}

void
TracedRunner::step(TracedCore &c, Tick now)
{
    // Core::step, call for call.
    std::uint64_t s0 = clockNs();
    in_step = true;
    ++step_id;
    TraceRecord rec = c.src.next();
    span(TraceNext, s0, clockNs());
    Tick issue = now + (c.unit_cpi
                            ? static_cast<Tick>(rec.gap)
                            : static_cast<Tick>(rec.gap * c.cpi + 0.5));
    c.n_instr.inc(rec.gap + 1);
    c.n_data_refs.inc();
    Tick done = access(c.id, rec, issue);
    if (sink && done > issue && done - issue >= c.stall_threshold) {
        std::uint64_t t0 = clockNs();
        sink->coreStall(issue, c.track, c.id, rec.addr, done - issue);
        span(ObsStall, t0, clockNs());
    }
    if (done <= now)
        done = now + 1;
    std::uint64_t t0 = clockNs();
    eq->schedule(done, [this, &c](Tick t) { step(c, t); });
    span(Schedule, t0, clockNs());
    in_step = false;
    span(CoreStep, s0, clockNs());
}

TracedResult
TracedRunner::run(const Cell &cell, const RunConfig &rc)
{
    double wall0 = nowSeconds();
    std::uint64_t b0 = clockNs();
    SystemConfig sc = cell.cfg;
    if (!rc.binlog_out.empty())
        sc.obs.binlog_out = rc.binlog_out;
    System system(sc);
    std::vector<std::unique_ptr<ReplaySource>> sources;
    for (int c = 0; c < sc.num_cores; ++c)
        sources.push_back(std::make_unique<ReplaySource>(*rc.replay, c));
    EventQueue queue;
    sys = &system;
    eq = &queue;
    sink = system.traceSink();
    auditor = system.auditor();
    l2_notes = system.l2().wantsL1HitNotes();
    org = static_cast<std::size_t>(cell.org);

    std::vector<std::unique_ptr<TracedCore>> cores;
    for (int c = 0; c < sc.num_cores; ++c) {
        cores.push_back(std::make_unique<TracedCore>(
            c, *sources[static_cast<std::size_t>(c)], sc.core_non_mem_cpi));
        if (sink) {
            cores.back()->track =
                sink->registerComponent(strfmt("core%d", c));
            cores.back()->stall_threshold = sink->stallThreshold();
        }
    }
    if (system.metrics()) {
        StatGroup cg("cores");
        for (auto &core : cores)
            core->regStats(cg);
        system.metrics()->importStatGroup(cg);
    }
    span(Build, b0, clockNs());

    auto max_core_instr = [&] {
        std::uint64_t m = 0;
        for (auto &core : cores)
            m = std::max(m, core->epochInstructions());
        return m;
    };
    auto quantum = [&] {
        if (!queue.pending())
            panic("event queue drained in the traced runner");
        std::uint64_t t0 = clockNs();
        queue.run(queue.now() + rc.quantum);
        std::uint64_t t1 = clockNs();
        span(KernelRun, t0, t1);
        system.obsTick(queue.now());
        span(ObsTick, t1, clockNs());
    };

    for (auto &core : cores) {
        TracedCore *c = core.get();
        queue.schedule(queue.now(), [this, c](Tick t) { step(*c, t); });
    }
    while (max_core_instr() < rc.warmup_instructions)
        quantum();

    system.resetStats();
    Tick epoch_start = queue.now();
    for (auto &core : cores) {
        core->epoch_instr = core->n_instr.value();
        core->epoch_refs = core->n_data_refs.value();
    }
    if (system.metrics())
        system.metrics()->snapshot(epoch_start);
    while (max_core_instr() < rc.measure_instructions)
        quantum();
    Tick end = queue.now();

    std::uint64_t t0 = clockNs();
    system.checkInvariants();
    span(CheckInv, t0, clockNs());

    TracedResult out;
    RunResult &r = out.r;
    r.events_executed = queue.executed();
    r.cycles = end - epoch_start;
    for (auto &core : cores) {
        r.instructions += core->epochInstructions();
        out.epoch_refs += core->n_data_refs.value() - core->epoch_refs;
    }
    r.l2_accesses = system.l2().accesses();
    for (int cmd = 0; cmd < num_bus_cmds; ++cmd)
        r.bus_transactions += system.bus().count(static_cast<BusCmd>(cmd));
    r.mem_reads = system.memory().reads();
    r.mem_writebacks = system.memory().writebacks();
    if (const auto *dir =
            dynamic_cast<const DirectoryInterconnect *>(&system.bus()))
        out.noc_hops = dir->noc().hops();

    StatGroup g("system");
    system.regStats(g);
    for (auto &core : cores)
        core->regStats(g);
    r.stats_dump = g.dump();

    t0 = clockNs();
    system.finishObs(end);
    span(ObsFinish, t0, clockNs());
    if (system.metrics())
        r.metrics_csv = system.metrics()->csv();
    if (sink) {
        r.trace_events = sink->recordedEvents();
        r.trace_dropped = sink->dropped();
    }
    if (auditor)
        r.audited_transitions = auditor->transitions();
    sys = nullptr;
    eq = nullptr;
    out.seconds = nowSeconds() - wall0;
    return out;
}

/** The fields a traced cell must reproduce exactly. */
bool
equivalent(const RunResult &traced, const RunResult &ref)
{
    return traced.stats_dump == ref.stats_dump &&
           traced.trace_events == ref.trace_events &&
           traced.events_executed == ref.events_executed &&
           traced.instructions == ref.instructions &&
           traced.cycles == ref.cycles &&
           traced.metrics_csv == ref.metrics_csv &&
           traced.audited_transitions == ref.audited_transitions;
}

/** What the optional layer may not change: the simulated machine. */
bool
unperturbed(const RunResult &on, const RunResult &off)
{
    return on.stats_dump == off.stats_dump &&
           on.events_executed == off.events_executed &&
           on.cycles == off.cycles;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Sum of the host seconds of every cell of @p sw. */
double
cellSeconds(const Sweep &sw)
{
    double s = 0.0;
    for (const CellRun &c : sw.cells)
        s += c.seconds;
    return s;
}

/** Traced-cell outputs summed over one repetition. */
struct CellTotals
{
    double wall = 0.0;
    std::uint64_t events = 0;
    std::uint64_t records = 0;
    std::uint64_t transitions = 0;
    std::uint64_t icn_tx = 0;
    std::uint64_t l2_accesses = 0;
    std::uint64_t hops = 0;
    std::uint64_t refs = 0;
    std::uint64_t dram_reads = 0;
    std::uint64_t dram_writebacks = 0;

    void
    add(const TracedResult &tr)
    {
        wall += tr.seconds;
        events += tr.r.events_executed;
        records += tr.r.trace_events;
        transitions += tr.r.audited_transitions;
        icn_tx += tr.r.bus_transactions;
        l2_accesses += tr.r.l2_accesses;
        hops += tr.noc_hops;
        refs += tr.epoch_refs;
        dram_reads += tr.r.mem_reads;
        dram_writebacks += tr.r.mem_writebacks;
    }
};

/**
 * One repetition's per-layer metrics. @p ref holds the Runner::run
 * cells, @p twin their plain twins (empty without an optional layer),
 * and @p empty_ns the clock cost subtracted from every span.
 */
Metrics
layerMetrics(const Workload &w, const SpanTotals &tot, const CellTotals &ct,
             const Sweep &ref, const Sweep &twin, double materialize_s,
             double paper_err, double empty_ns)
{
    Metrics m;
    auto put = [&](const std::string &name, double v, const char *unit) {
        m[name] = Metric{v, unit, {}};
    };
    auto count = [&](const std::string &name, std::uint64_t v) {
        put(name, static_cast<double>(v), "count");
    };
    // Span time less the clock's own cost per span.
    auto net = [&](std::uint64_t ns, std::uint64_t calls) {
        return std::max(0.0, static_cast<double>(ns) -
                                 static_cast<double>(calls) * empty_ns);
    };
    auto per_call = [&](Layer l) {
        return ratio(net(tot.ns[l], tot.calls[l]),
                     static_cast<double>(tot.calls[l]));
    };
    auto ms_per_cell = [&](Layer l) {
        return static_cast<double>(tot.ns[l]) / 1e6 /
               static_cast<double>(ref.cells.size());
    };

    put("trace.next_ns", per_call(TraceNext), "ns");
    count("trace.records", tot.calls[TraceNext]);
    put("trace.materialize_s", materialize_s, "s");
    put("sim.event_ns",
        ratio(static_cast<double>(tot.ns[KernelRun] - tot.ns[CoreStep]) +
                  net(tot.ns[Schedule], tot.calls[Schedule]),
              static_cast<double>(ct.events)),
        "ns");
    count("sim.events", ct.events);
    put("sim.runner_idle_frac",
        1.0 - ratio(cellSeconds(ref), ref.workers * ref.wall), "ratio");
    double cell_max = 0.0;
    for (const CellRun &c : ref.cells)
        cell_max = std::max(cell_max, c.seconds);
    put("sim.cell_s_max", cell_max, "s");
    put("sim.build_ms", ms_per_cell(Build), "ms");
    put("sim.check_invariants_ms", ms_per_cell(CheckInv), "ms");
    put("core.step_ns",
        ratio(net(tot.ns[CoreStep] - tot.step_children, tot.calls[CoreStep]),
              static_cast<double>(tot.calls[CoreStep])),
        "ns");
    put("cache.l1_ns", per_call(L1), "ns");
    count("cache.l1_accesses", tot.l1_lookups);
    put("cache.l1_hit_ratio",
        ratio(static_cast<double>(tot.l1_hits),
              static_cast<double>(tot.l1_lookups)),
        "ratio");
    put("l2.note_ns", per_call(L2Note), "ns");
    const char *const cls_names[num_classes] = {".hit_ns", ".icn_ns",
                                                ".mem_ns"};
    for (std::size_t o = 0; o < num_orgs; ++o) {
        std::string p =
            std::string("l2.") + toString(static_cast<L2Kind>(o));
        std::uint64_t calls = 0;
        for (std::size_t c = 0; c < num_classes; ++c) {
            put(p + cls_names[c],
                ratio(net(tot.l2_ns[o][c], tot.l2_calls[o][c]),
                      static_cast<double>(tot.l2_calls[o][c])),
                "ns");
            calls += tot.l2_calls[o][c];
        }
        count(p + ".accesses", calls);
        put(p + ".hit_ratio",
            ratio(static_cast<double>(tot.l2_calls[o][0]),
                  static_cast<double>(calls)),
            "ratio");
    }

    count("mem.icn_tx", ct.icn_tx);
    count("mem.dram_reads", ct.dram_reads);
    count("mem.dram_writebacks", ct.dram_writebacks);
    put("mem.icn_tx_per_l2",
        ratio(static_cast<double>(ct.icn_tx),
              static_cast<double>(ct.l2_accesses)),
        "ratio");
    put("mem.noc_hops_per_tx",
        ratio(static_cast<double>(ct.hops), static_cast<double>(ct.icn_tx)),
        "ratio");

    // The optional layer's cost, from the paired Runner::run twins.
    const double on = cellSeconds(ref);
    const double off = cellSeconds(twin);
    const bool obs = w.instr == Instr::Obs;
    const bool audit = w.instr == Instr::Audit;
    count("obs.records", ct.records);
    put("obs.records_per_access",
        ratio(static_cast<double>(ct.records), static_cast<double>(ct.refs)),
        "ratio");
    put("obs.ns_per_record",
        obs ? ratio((on - off) * 1e9, static_cast<double>(ct.records)) : 0.0,
        "ns");
    put("obs.tick_ns", per_call(ObsTick), "ns");
    put("obs.stall_ns", per_call(ObsStall), "ns");
    put("obs.finish_ms", ms_per_cell(ObsFinish), "ms");
    put("obs.overhead", obs ? 1.0 - ratio(off, on) : 0.0, "ratio");
    count("obs.audit_transitions", ct.transitions);
    put("obs.audit_check_ns", per_call(AuditCheck), "ns");
    put("obs.audit_ns_per_transition",
        audit ? ratio((on - off) * 1e9, static_cast<double>(ct.transitions))
              : 0.0,
        "ns");
    put("obs.audit_overhead", audit ? ratio(on, off) : 0.0, "ratio");

    // Everything inside a span, over the traced cells' wall time.
    std::uint64_t spanned = tot.ns[KernelRun] + tot.ns[ObsTick] +
                            tot.ns[ObsFinish] + tot.ns[CheckInv] +
                            tot.ns[Build];
    put("bench.coverage", ratio(static_cast<double>(spanned) / 1e9, ct.wall),
        "ratio");
    put("bench.tracing_overhead", ratio(ct.wall, on) - 1.0, "ratio");
    put("check.paper_err", paper_err, "ratio");
    return m;
}

void
writeSpans(const std::string &path, const std::vector<RawSpan> &raw)
{
    std::ofstream os(path);
    os << "step\tlayer\tstart_ns\tend_ns\n";
    if (raw.empty())
        return;
    std::uint64_t base = raw.front().t0;
    for (const RawSpan &s : raw)
        os << s.step << '\t' << layer_names[s.layer] << '\t'
           << s.t0 - base << '\t' << s.t1 - base << '\n';
}

} // namespace

Metrics
tracedPass(const Options &opt, Tally &tally)
{
    const Workload &w = *opt.workload;
    RunDir dir(opt.run_dir);
    const std::vector<Cell> cells = cellsOf(w, true);
    const std::vector<Cell> twins =
        w.instr == Instr::None ? std::vector<Cell>{} : cellsOf(w, false);
    const double empty_ns = emptySpanNs();
    std::vector<RawSpan> raw;
    raw.reserve(raw_span_cap);
    Metrics acc;
    HostSpeed host(w.workers);

    double deadline = nowSeconds() + opt.seconds;
    do {
        host.start();
        Streams streams = materialize(w, opt.seed);
        Sweep ref = runSweep(w, cells, streams, opt.seed, w.workers, dir);
        host.poll();
        Sweep twin;
        if (!twins.empty())
            twin = runSweep(w, twins, streams, opt.seed, 1, dir);
        host.poll();

        SpanTotals tot;
        CellTotals ct;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const Cell &cell = cells[i];
            std::string label =
                std::string(toString(cell.org)) + "/" + cell.program;
            RunConfig rc = runConfig(w, cell, streams, opt.seed);
            if (cell.cfg.obs.metrics_interval > 0)
                rc.binlog_out = dir.binlogPath();
            TracedRunner runner(tot, acc.empty() && i == 0 ? &raw : nullptr);
            TracedResult tr = runner.run(cell, rc);
            if (!rc.binlog_out.empty())
                RunDir::remove(rc.binlog_out);
            host.poll();

            const RunResult &r = ref.cells[i].result;
            checkCell(w, cell, r, tally);
            tally.check(equivalent(tr.r, r),
                        label + ": traced runner matches Runner::run");
            if (!twins.empty())
                tally.check(unperturbed(r, twin.cells[i].result),
                            label + ": optional layer leaves results alone");
            ct.add(tr);
        }
        checkConclusions(w, cells, ref.cells, tally);
        Metrics rep =
            layerMetrics(w, tot, ct, ref, twin, streams.seconds,
                         paperError(w, cells, ref.cells), empty_ns);

        // Host times scale to a nominal-speed host like the timed pass's.
        const double f = ratio(host.stop(), host.rawSeconds());
        for (const auto &[name, m] : rep) {
            bool time = m.unit == "ns" || m.unit == "ms" || m.unit == "s";
            acc[name].unit = m.unit;
            acc[name].samples.push_back(m.value * (time ? f : 1.0));
        }
    } while (nowSeconds() < deadline);

    writeSpans(dir.path() + "/spans-" + w.name + ".tsv", raw);
    for (auto &[name, m] : acc)
        m.value = median(m.samples);
    return acc;
}

} // namespace ledger
