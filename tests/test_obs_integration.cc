/**
 * @file
 * Integration tests for the observability subsystem through the
 * Runner: the auditor passes on real workloads for every L2
 * organization, observability never perturbs simulated timing, and a
 * run's binlog reads back through the cntrace reader with event counts
 * (bus transactions, CMP-NuRAPID's d-group operations) that agree with
 * the run's statistics counters and converts to well-formed Chrome
 * JSON.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/binlog.hh"
#include "obs/event.hh"
#include "obs/trace_sink.hh"
#include "sim/runner.hh"

namespace cnsim
{
namespace
{

std::string
tmpPath(const std::string &tag)
{
    return std::string(::testing::TempDir()) + "cnsim_obsint_" + tag;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

RunConfig
shortRun()
{
    RunConfig rc;
    rc.warmup_instructions = 80'000;
    rc.measure_instructions = 120'000;
    return rc;
}

/** @return statistic @p name of a RunResult::stats_dump. */
std::uint64_t
statValue(const std::string &dump, const std::string &name)
{
    std::istringstream in(dump);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string stat;
        std::uint64_t value = 0;
        if (fields >> stat >> value && stat == name)
            return value;
    }
    ADD_FAILURE() << "no statistic " << name;
    return 0;
}

/** Every timing-visible field of a RunResult, for bit-identity checks. */
void
expectIdenticalTiming(const RunResult &a, const RunResult &b,
                      const std::string &what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.instructions, b.instructions) << what;
    EXPECT_EQ(a.ipc, b.ipc) << what;
    EXPECT_EQ(a.l2_accesses, b.l2_accesses) << what;
    EXPECT_EQ(a.frac_hit, b.frac_hit) << what;
    EXPECT_EQ(a.frac_ros, b.frac_ros) << what;
    EXPECT_EQ(a.frac_rws, b.frac_rws) << what;
    EXPECT_EQ(a.frac_cap, b.frac_cap) << what;
    EXPECT_EQ(a.miss_rate, b.miss_rate) << what;
    EXPECT_EQ(a.bus_transactions, b.bus_transactions) << what;
    EXPECT_EQ(a.mem_reads, b.mem_reads) << what;
    EXPECT_EQ(a.mem_writebacks, b.mem_writebacks) << what;
    ASSERT_EQ(a.core_ipc.size(), b.core_ipc.size()) << what;
    for (std::size_t i = 0; i < a.core_ipc.size(); ++i)
        EXPECT_EQ(a.core_ipc[i], b.core_ipc[i]) << what;
}

TEST(ObsIntegration, AuditorPassesOnEveryOrgAndMtWorkload)
{
    const L2Kind all[] = {L2Kind::Shared, L2Kind::Private, L2Kind::Snuca,
                          L2Kind::Ideal,  L2Kind::Nurapid, L2Kind::Update,
                          L2Kind::Dnuca};
    for (L2Kind kind : all) {
        SystemConfig cfg = Runner::paperConfig(kind);
        cfg.obs.audit = true;
        for (const auto &wl : workloads::multithreadedNames()) {
            RunResult r =
                Runner::run(cfg, workloads::byName(wl), shortRun());
            EXPECT_GT(r.audited_transitions, 0u)
                << toString(kind) << "/" << wl;
        }
    }
}

TEST(ObsIntegration, ObservabilityDoesNotPerturbTiming)
{
    // The acceptance bar for the whole subsystem: a fully instrumented
    // run (binlog + audit + metrics) must report simulated results
    // bit-identical to a plain run of the same configuration.
    for (L2Kind kind : {L2Kind::Nurapid, L2Kind::Private}) {
        SystemConfig cfg = Runner::paperConfig(kind);
        WorkloadSpec wl = workloads::byName("oltp");
        RunResult plain = Runner::run(cfg, wl, shortRun());

        SystemConfig obs_cfg = cfg;
        obs_cfg.obs.audit = true;
        obs_cfg.obs.metrics_interval = 50'000;
        RunConfig rc = shortRun();
        rc.binlog_out = tmpPath(std::string("perturb_") + toString(kind) +
                                ".blg");
        RunResult traced = Runner::run(obs_cfg, wl, rc);

        expectIdenticalTiming(plain, traced, toString(kind));
        EXPECT_GT(traced.trace_events, 0u);
        EXPECT_GT(traced.audited_transitions, 0u);
        EXPECT_FALSE(traced.metrics_csv.empty());
        std::remove(rc.binlog_out.c_str());
    }
}

TEST(ObsIntegration, RepeatedRunsAreBitIdentical)
{
    // Tracing disabled: two identical runs must agree exactly (the
    // pre-existing determinism contract the subsystem must not break).
    SystemConfig cfg = Runner::paperConfig(L2Kind::Nurapid);
    WorkloadSpec wl = workloads::byName("apache");
    RunResult a = Runner::run(cfg, wl, shortRun());
    RunResult b = Runner::run(cfg, wl, shortRun());
    expectIdenticalTiming(a, b, "repeat");
}

TEST(ObsIntegration, BinaryTraceRoundTripMatchesCounters)
{
    SystemConfig cfg = Runner::paperConfig(L2Kind::Nurapid);
    cfg.obs.metrics_interval = 50'000;
    RunConfig rc = shortRun();
    rc.binlog_out = tmpPath("roundtrip.blg");
    RunResult r = Runner::run(cfg, workloads::byName("oltp"), rc);

    obs::BinlogData data;
    std::string err;
    ASSERT_TRUE(obs::readBinlog(rc.binlog_out, data, &err)) << err;

    // Every logged record (events and metrics samples) made it to disk
    // and back.
    EXPECT_EQ(data.records.size(), r.trace_events);
    EXPECT_FALSE(data.components.empty());

    // Events were logged only over the measurement epoch, so the busTx
    // count must equal the run's bus-transaction statistic: one event
    // and one counter increment per transaction.
    std::uint64_t bus_events = 0;
    for (const obs::TraceEvent &ev : obs::binlogEvents(data))
        bus_events += ev.kind == obs::EventKind::BusTx ? 1 : 0;
    EXPECT_EQ(bus_events, r.bus_transactions);
    std::remove(rc.binlog_out.c_str());
}

TEST(ObsIntegration, NurapidDGroupOpsMatchCounters)
{
    // Each logged d-group operation is one counted action: a hit, a CR
    // replica, a CR pointer join, or an ISC join, which either joins the
    // dirty copy in place or migrates it next to the reader.
    SystemConfig cfg = Runner::paperConfig(L2Kind::Nurapid);
    RunConfig rc;
    rc.warmup_instructions = 200'000;
    rc.measure_instructions = 300'000;
    rc.collect_stats_dump = true;
    rc.binlog_out = tmpPath("dgroup_ops.blg");
    RunResult r = Runner::run(cfg, workloads::byName("oltp"), rc);

    obs::BinlogData data;
    std::string err;
    ASSERT_TRUE(obs::readBinlog(rc.binlog_out, data, &err)) << err;
    std::uint64_t ops[obs::num_dgroup_ops] = {};
    for (const obs::TraceEvent &ev : obs::binlogEvents(data)) {
        if (ev.kind != obs::EventKind::DGroup)
            continue;
        ASSERT_LT(ev.a, obs::num_dgroup_ops);
        ++ops[ev.a];
    }
    auto logged = [&](obs::DGroupOp op) {
        return ops[static_cast<int>(op)];
    };
    auto stat = [&](const char *name) {
        return statValue(r.stats_dump, std::string("system.l2.") + name);
    };
    EXPECT_GT(logged(obs::DGroupOp::Migration), 0u);
    EXPECT_EQ(logged(obs::DGroupOp::Replication), stat("replications"));
    EXPECT_EQ(logged(obs::DGroupOp::Hit),
              stat("closestHits") + stat("fartherHits"));
    EXPECT_EQ(logged(obs::DGroupOp::PointerJoin) +
                  logged(obs::DGroupOp::Migration),
              stat("pointerJoins") + stat("iscJoins"));
    std::remove(rc.binlog_out.c_str());
}

TEST(ObsIntegration, ChromeJsonExportIsWellFormed)
{
    // The Chrome JSON of a run is `cntrace json` over its binlog.
    SystemConfig cfg = Runner::paperConfig(L2Kind::Nurapid);
    cfg.obs.audit = true;
    RunConfig rc = shortRun();
    rc.binlog_out = tmpPath("chrome.blg");
    RunResult r = Runner::run(cfg, workloads::byName("oltp"), rc);
    EXPECT_GT(r.trace_events, 0u);

    obs::BinlogData data;
    std::string err;
    ASSERT_TRUE(obs::readBinlog(rc.binlog_out, data, &err)) << err;
    const std::string json_path = tmpPath("chrome.json");
    obs::writeChromeJson(json_path, obs::binlogEvents(data),
                         data.components, data.dropped);
    std::string json = slurp(json_path);
    ASSERT_FALSE(json.empty());
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("mem.bus"), std::string::npos);
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
    std::remove(rc.binlog_out.c_str());
    std::remove(json_path.c_str());
}

} // namespace
} // namespace cnsim
