#include "farm/cell.hh"

#include <cstdio>

#include "common/bytes.hh"
#include "common/fnv.hh"
#include "sample/checkpoint.hh"

namespace cnsim
{
namespace farm
{

namespace
{

/** Serialize every field of @p s: the body of the result-cache key. */
void
putKeyFields(ByteWriter &w, const CellSpec &s)
{
    w.u32(s.l2_kind);
    w.u32(s.cores);
    w.u32(s.interconnect);
    w.u8(s.enable_cr);
    w.u8(s.enable_isc);
    w.u32(s.promotion);
    w.u32(s.tag_factor);
    w.u8(s.audit);
    w.u64(s.metrics_interval);
    w.str(s.binlog_out);
    w.str(s.workload);
    w.u64(s.warmup);
    w.u64(s.measure);
    w.u64(s.quantum);
    w.u64(s.seed);
    w.u32(s.sample_windows);
    w.u64(s.sample_detail);
    w.u64(s.sample_warmup);
    w.u8(s.collect_stats_dump);
    w.u8(s.collect_stats_csv);
    w.str(s.trace_file);
    w.str(s.ckpt_save);
    w.str(s.ckpt_load);
}

/** The run-control half of buildJob (needed key-side for the trace
 * hash, which mixes the run seed exactly as Runner does). */
RunConfig
runConfigFor(const CellSpec &s)
{
    RunConfig rc;
    rc.warmup_instructions = s.warmup;
    rc.measure_instructions = s.measure;
    rc.quantum = s.quantum;
    rc.seed = s.seed;
    rc.sample_windows = s.sample_windows;
    rc.sample_detail = s.sample_detail;
    rc.sample_warmup = s.sample_warmup;
    rc.collect_stats_dump = s.collect_stats_dump != 0;
    rc.collect_stats_csv = s.collect_stats_csv != 0;
    rc.binlog_out = s.binlog_out;
    rc.ckpt_save = s.ckpt_save;
    rc.ckpt_load = s.ckpt_load;
    return rc;
}

/** FNV-1a hash of the canonical stream @p s's cells replay: workload
 * params with the run seed mixed in, exactly the TraceCache key. */
std::uint64_t
traceHash(const CellSpec &s)
{
    WorkloadSpec wl =
        workloads::byName(s.workload, static_cast<int>(s.cores));
    return RecordedTrace::hashParams(
        Runner::effectiveSynthParams(wl, runConfigFor(s)));
}

void
putBuckets(ByteWriter &w, const ReuseBuckets &b)
{
    w.f64(b.zero);
    w.f64(b.one);
    w.f64(b.two_to_five);
    w.f64(b.more_than_five);
    w.u64(b.samples);
}

ReuseBuckets
getBuckets(ByteReader &r)
{
    ReuseBuckets b;
    b.zero = r.f64();
    b.one = r.f64();
    b.two_to_five = r.f64();
    b.more_than_five = r.f64();
    b.samples = r.u64();
    return b;
}

void
putF64Vec(ByteWriter &w, const std::vector<double> &v)
{
    w.u32(static_cast<std::uint32_t>(v.size()));
    for (double d : v)
        w.f64(d);
}

std::vector<double>
getF64Vec(ByteReader &r)
{
    std::uint32_t n = r.u32();
    std::vector<double> v;
    v.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i)
        v.push_back(r.f64());
    return v;
}

} // namespace

std::string
CellSpec::label() const
{
    return std::string(toString(static_cast<L2Kind>(l2_kind))) + "/" +
           workload;
}

std::uint64_t
cellKey(const CellSpec &spec)
{
    ByteWriter w;
    w.raw("CNFARMR1", 8);
    w.u32(farm_format_version);
    w.u32(sample::Checkpoint::current_version);
    putKeyFields(w, spec);
    w.u64(traceHash(spec));
    const std::string &b = w.bytes();
    return fnv1a(b.data(), b.size());
}

std::uint64_t
ckptKey(const CellSpec &spec)
{
    // Only what shapes the warmed machine: organization and knobs,
    // workload + seed (the stream), the warm-up budget, the quantum
    // (detailed warm-up stops on quantum boundaries), and the warm
    // *mode* -- sampled runs warm functionally, detailed runs warm with
    // timing, and the two states are not interchangeable. Measurement-
    // side fields (measure, sample detail, stats/obs switches) stay
    // out, which is exactly what lets a modified sweep share warm
    // state with the sweep that populated the cache.
    ByteWriter w;
    w.raw("CNFARMC1", 8);
    w.u32(farm_format_version);
    w.u32(sample::Checkpoint::current_version);
    w.u32(spec.l2_kind);
    w.u32(spec.cores);
    w.u32(spec.interconnect);
    w.u8(spec.enable_cr);
    w.u8(spec.enable_isc);
    w.u32(spec.promotion);
    w.u32(spec.tag_factor);
    w.str(spec.workload);
    w.u64(spec.warmup);
    w.u64(spec.quantum);
    w.u64(spec.seed);
    w.u8(spec.sample_windows > 0 ? 1 : 0);
    w.u64(traceHash(spec));
    const std::string &b = w.bytes();
    return fnv1a(b.data(), b.size());
}

std::string
keyString(std::uint64_t key)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(key));
    return std::string(buf);
}

ParallelJob
buildJob(const CellSpec &spec)
{
    auto kind = static_cast<L2Kind>(spec.l2_kind);
    auto icn = static_cast<InterconnectKind>(spec.interconnect);
    SystemConfig cfg =
        Runner::paperConfig(kind, static_cast<int>(spec.cores), icn);
    cfg.nurapid.enable_cr = spec.enable_cr != 0;
    cfg.nurapid.enable_isc = spec.enable_isc != 0;
    cfg.nurapid.tag_factor = spec.tag_factor;
    cfg.nurapid.promotion = static_cast<PromotionPolicy>(spec.promotion);
    cfg.obs.audit = spec.audit != 0;
    cfg.obs.metrics_interval = spec.metrics_interval;

    WorkloadSpec wl =
        workloads::byName(spec.workload, static_cast<int>(spec.cores));
    RunConfig rc = runConfigFor(spec);
    if (!spec.trace_file.empty())
        rc.replay = TraceCache::global().acquireFile(spec.trace_file);
    return ParallelJob{cfg, wl, rc};
}

std::string
serializeResult(const RunResult &r)
{
    ByteWriter w;
    w.str(r.workload);
    w.str(r.l2_kind);
    w.u64(r.instructions);
    w.u64(r.cycles);
    w.u64(r.events_executed);
    w.f64(r.ipc);
    putF64Vec(w, r.core_ipc);
    w.u8(r.sampled ? 1 : 0);
    putF64Vec(w, r.window_ipc);
    w.f64(r.ipc_ci95);
    w.u64(r.l2_accesses);
    w.f64(r.frac_hit);
    w.f64(r.frac_ros);
    w.f64(r.frac_rws);
    w.f64(r.frac_cap);
    w.f64(r.miss_rate);
    w.f64(r.closest_hit_frac);
    w.f64(r.closest_access_frac);
    w.u64(r.bus_transactions);
    w.u64(r.mem_reads);
    w.u64(r.mem_writebacks);
    putBuckets(w, r.ros_reuse);
    putBuckets(w, r.rws_reuse);
    w.str(r.stats_dump);
    w.str(r.stats_csv);
    w.str(r.metrics_csv);
    w.u64(r.trace_events);
    w.u64(r.audited_transitions);
    return w.take();
}

RunResult
deserializeResult(const std::string &bytes, const std::string &what)
{
    ByteReader rd(bytes.data(), bytes.size(), "cached result '" + what + "'");
    RunResult r;
    r.workload = rd.str();
    r.l2_kind = rd.str();
    r.instructions = rd.u64();
    r.cycles = rd.u64();
    r.events_executed = rd.u64();
    r.ipc = rd.f64();
    r.core_ipc = getF64Vec(rd);
    r.sampled = rd.u8() != 0;
    r.window_ipc = getF64Vec(rd);
    r.ipc_ci95 = rd.f64();
    r.l2_accesses = rd.u64();
    r.frac_hit = rd.f64();
    r.frac_ros = rd.f64();
    r.frac_rws = rd.f64();
    r.frac_cap = rd.f64();
    r.miss_rate = rd.f64();
    r.closest_hit_frac = rd.f64();
    r.closest_access_frac = rd.f64();
    r.bus_transactions = rd.u64();
    r.mem_reads = rd.u64();
    r.mem_writebacks = rd.u64();
    r.ros_reuse = getBuckets(rd);
    r.rws_reuse = getBuckets(rd);
    r.stats_dump = rd.str();
    r.stats_csv = rd.str();
    r.metrics_csv = rd.str();
    r.trace_events = rd.u64();
    r.audited_transitions = rd.u64();
    rd.expectExhausted();
    return r;
}

} // namespace farm
} // namespace cnsim
