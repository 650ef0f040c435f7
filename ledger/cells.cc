/**
 * @file
 * Ledger workloads, their grids, stream set-up, grid execution and the
 * correctness checks shared by the timed and traced passes.
 */

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <system_error>

#include "farm/cell.hh"
#include "ledger.hh"
#include "sim/parallel_runner.hh"
#include "trace/replay.hh"

namespace ledger
{

using namespace cnsim;

namespace
{

const std::vector<L2Kind> all_orgs = {
    L2Kind::Shared, L2Kind::Private, L2Kind::Snuca, L2Kind::Ideal,
    L2Kind::Nurapid, L2Kind::Update, L2Kind::Dnuca};

/** Metrics snapshot interval of the always-on observability arm. */
constexpr Tick obs_metrics_interval = 100'000;

/** Ceiling on paper_err before the figure counts as not reproduced. */
constexpr double paper_err_ceiling = 0.10;

/** Stream slack past warm-up + measure: a quantum of overshoot at each
 *  of the two budget checks, plus a chunk boundary. */
constexpr std::uint64_t stream_slack = 64'000;

/** The paper's relative-IPC columns (EXPERIMENTS.md). */
const std::map<L2Kind, double> &
paperColumns(const Workload &w)
{
    static const std::map<L2Kind, double> fig10 = {
        {L2Kind::Snuca, 1.04}, {L2Kind::Private, 1.05},
        {L2Kind::Ideal, 1.17}, {L2Kind::Nurapid, 1.13}};
    static const std::map<L2Kind, double> fig12 = {
        {L2Kind::Snuca, 1.07}, {L2Kind::Private, 1.19},
        {L2Kind::Nurapid, 1.28}};
    static const std::map<L2Kind, double> none;
    if (w.name == "fig10-sweep")
        return fig10;
    if (w.name == "fig12-obs")
        return fig12;
    return none;
}

/** IPC and miss rate of each (org, program) cell of one pass. */
struct Grid
{
    std::map<std::pair<L2Kind, std::string>, const RunResult *> at;

    Grid(const std::vector<Cell> &cells, const std::vector<CellRun> &runs)
    {
        for (std::size_t i = 0; i < cells.size(); ++i)
            at[{cells[i].org, cells[i].program}] = &runs[i].result;
    }

    const RunResult &
    operator()(L2Kind org, const std::string &program) const
    {
        return *at.at({org, program});
    }

    /** Geomean over @p programs of IPC relative to the shared L2. */
    double
    relIpc(L2Kind org, const std::vector<std::string> &programs) const
    {
        double log_sum = 0.0;
        for (const std::string &p : programs)
            log_sum += std::log((*this)(org, p).ipc /
                                (*this)(L2Kind::Shared, p).ipc);
        return std::exp(log_sum / static_cast<double>(programs.size()));
    }

    /** Mean L2 miss rate of @p org over @p programs. */
    double
    missRate(L2Kind org, const std::vector<std::string> &programs) const
    {
        double sum = 0.0;
        for (const std::string &p : programs)
            sum += (*this)(org, p).miss_rate;
        return sum / static_cast<double>(programs.size());
    }
};

} // namespace

const std::vector<Workload> &
allWorkloads()
{
    static const std::vector<Workload> list = {
        {.name = "fig10-sweep",
         .orgs = all_orgs,
         .programs = {"oltp", "apache", "specjbb"},
         .warmup = 2'000'000,
         .measure = 8'000'000,
         .workers = 2},
        {.name = "fig12-obs",
         .orgs = {L2Kind::Shared, L2Kind::Snuca, L2Kind::Private,
                  L2Kind::Nurapid},
         .programs = {"mix1", "mix2", "mix3", "mix4"},
         .warmup = 3'000'000,
         .measure = 3'000'000,
         .instr = Instr::Obs},
        {.name = "mesh16-oltp",
         .orgs = {L2Kind::Nurapid, L2Kind::Private},
         .programs = {"oltp"},
         .cores = 16,
         .icn = InterconnectKind::Mesh,
         .warmup = 1'000'000,
         .measure = 3'000'000},
        {.name = "audit7-oltp",
         .orgs = all_orgs,
         .programs = {"oltp"},
         .warmup = 250'000,
         .measure = 500'000,
         .instr = Instr::Audit},
    };
    return list;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : allWorkloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

std::vector<Cell>
cellsOf(const Workload &w, bool instrumented)
{
    std::vector<Cell> cells;
    for (const std::string &p : w.programs) {
        for (L2Kind org : w.orgs) {
            Cell c{org, p, Runner::paperConfig(org, w.cores, w.icn),
                   workloads::byName(p, w.cores)};
            if (instrumented && w.instr == Instr::Obs)
                c.cfg.obs.metrics_interval = obs_metrics_interval;
            if (instrumented && w.instr == Instr::Audit)
                c.cfg.obs.audit = true;
            cells.push_back(std::move(c));
        }
    }
    return cells;
}

Streams
materialize(const Workload &w, std::uint64_t seed)
{
    Streams s;
    double t0 = nowSeconds();
    const std::uint64_t need = w.warmup + w.measure + stream_slack;
    for (const std::string &p : w.programs) {
        RunConfig rc;
        rc.seed = seed;
        std::shared_ptr<RecordedTrace> trace =
            Runner::acquireSharedTrace(workloads::byName(p, w.cores), rc);
        std::vector<std::uint64_t> instrs(
            static_cast<std::size_t>(trace->cores()), 0);
        for (std::size_t idx = 0;
             *std::min_element(instrs.begin(), instrs.end()) < need; ++idx)
            for (int c = 0; c < trace->cores(); ++c)
                instrs[static_cast<std::size_t>(c)] +=
                    trace->chunk(c, idx)->instr_total;
        s.program[p] = std::move(trace);
    }
    s.seconds = nowSeconds() - t0;
    return s;
}

RunDir::RunDir(std::string d) : dir(std::move(d))
{
    std::filesystem::create_directories(dir);
}

std::string
RunDir::binlogPath()
{
    return dir + "/cell-" + std::to_string(::getpid()) + "-" +
           std::to_string(next++) + ".blg";
}

void
RunDir::remove(const std::string &path)
{
    std::error_code ec;
    std::filesystem::remove(path, ec);
}

RunConfig
runConfig(const Workload &w, const Cell &cell, const Streams &streams,
          std::uint64_t seed)
{
    RunConfig rc;
    rc.warmup_instructions = w.warmup;
    rc.measure_instructions = w.measure;
    rc.seed = seed;
    rc.replay = streams.program.at(cell.program);
    rc.collect_stats_dump = true;
    return rc;
}

Sweep
runSweep(const Workload &w, const std::vector<Cell> &cells,
         const Streams &streams, std::uint64_t seed, unsigned workers,
         RunDir &dir, HostSpeed *host, long keep_binlog, std::string *kept)
{
    ParallelRunner pool(workers);
    std::vector<std::string> binlogs(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        RunConfig rc = runConfig(w, cells[i], streams, seed);
        if (cells[i].cfg.obs.metrics_interval > 0) {
            binlogs[i] = dir.binlogPath();
            rc.binlog_out = binlogs[i];
        }
        pool.submit(cells[i].cfg, cells[i].spec, rc);
    }
    Sweep sw;
    sw.workers = pool.workers();
    sw.cells.resize(cells.size());
    pool.onProgress([&](const JobReport &rep) {
        sw.cells[rep.index].seconds = rep.seconds;
        const std::string &blg = binlogs[rep.index];
        if (!blg.empty()) {
            if (static_cast<long>(rep.index) == keep_binlog && kept)
                *kept = blg;
            else
                RunDir::remove(blg);
        }
        // Serial pools report on the calling thread, between cells.
        if (host && sw.workers == 1)
            host->poll();
    });
    double t0 = nowSeconds();
    std::vector<RunResult> results = pool.run();
    sw.wall = nowSeconds() - t0;
    for (std::size_t i = 0; i < cells.size(); ++i)
        sw.cells[i].result = std::move(results[i]);
    return sw;
}

std::uint64_t
totalInstructions(const RunResult &r)
{
    // Core instruction counters survive the warm-up stats reset, so the
    // dump's "system.coreN.instructions" rows hold the whole run.
    std::uint64_t total = 0;
    std::size_t pos = 0;
    const std::string &d = r.stats_dump;
    while (pos < d.size()) {
        std::size_t eol = d.find('\n', pos);
        if (eol == std::string::npos)
            eol = d.size();
        std::string line = d.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.rfind("system.core", 0) != 0)
            continue;
        std::size_t sp = line.find(' ');
        if (sp == std::string::npos ||
            !line.substr(0, sp).ends_with(".instructions"))
            continue;
        total += std::stoull(line.substr(sp));
    }
    return total;
}

std::uint64_t
digest(const RunResult &r)
{
    std::string bytes = farm::serializeResult(r);
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char ch : bytes) {
        h ^= ch;
        h *= 1099511628211ull;
    }
    return h;
}

void
Tally::check(bool ok, const std::string &what)
{
    ++attempted;
    if (ok)
        return;
    ++failed;
    if (failures.size() < 32)
        failures.push_back(what);
}

void
checkCell(const Workload &w, const Cell &cell, const RunResult &r,
          Tally &tally)
{
    std::string label = std::string(toString(cell.org)) + "/" + cell.program;
    bool ok = r.instructions >= w.measure && r.ipc > 0.0 &&
              std::isfinite(r.ipc) && r.events_executed > 0 &&
              r.trace_dropped == 0 && !r.stats_dump.empty();
    if (cell.cfg.obs.metrics_interval > 0)
        ok = ok && r.trace_events > 0 && !r.metrics_csv.empty();
    if (cell.cfg.obs.audit)
        ok = ok && r.audited_transitions > 0;
    tally.check(ok, label + ": result sanity");
}

double
paperError(const Workload &w, const std::vector<Cell> &cells,
           const std::vector<CellRun> &runs)
{
    Grid g(cells, runs);
    double err = 0.0;
    for (const auto &[org, paper] : paperColumns(w))
        err = std::max(err, std::fabs(g.relIpc(org, w.programs) - paper));
    return err;
}

void
checkConclusions(const Workload &w, const std::vector<Cell> &cells,
                 const std::vector<CellRun> &runs, Tally &tally)
{
    Grid g(cells, runs);
    const std::vector<std::string> &ps = w.programs;
    if (w.name == "fig10-sweep") {
        // ideal >= nurapid > private > snuca > shared (commercial geomean).
        double ideal = g.relIpc(L2Kind::Ideal, ps);
        double nurapid = g.relIpc(L2Kind::Nurapid, ps);
        double priv = g.relIpc(L2Kind::Private, ps);
        double snuca = g.relIpc(L2Kind::Snuca, ps);
        tally.check(ideal >= nurapid && nurapid > priv && priv > snuca &&
                        snuca > 1.0,
                    "fig10: ideal >= nurapid > private > snuca > shared");
    } else if (w.name == "fig12-obs") {
        bool best = true;
        for (const std::string &p : ps)
            for (L2Kind org : w.orgs)
                if (org != L2Kind::Nurapid &&
                    g(org, p).ipc >= g(L2Kind::Nurapid, p).ipc)
                    best = false;
        tally.check(best, "fig12: nurapid has the best IPC on every mix");
        tally.check(g.missRate(L2Kind::Shared, ps) <
                            g.missRate(L2Kind::Nurapid, ps) &&
                        g.missRate(L2Kind::Nurapid, ps) <
                            g.missRate(L2Kind::Private, ps),
                    "fig12: miss rate shared < nurapid < private");
    } else if (w.name == "mesh16-oltp") {
        tally.check(g(L2Kind::Nurapid, "oltp").ipc >
                        g(L2Kind::Private, "oltp").ipc,
                    "mesh16: nurapid IPC above private at 16 cores");
    }
    if (!paperColumns(w).empty())
        tally.check(paperError(w, cells, runs) <= paper_err_ceiling,
                    w.name + ": paper_err within ceiling");
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Metric
medianOf(std::vector<double> samples, std::string unit)
{
    double m = median(samples);
    return Metric{m, std::move(unit), std::move(samples)};
}

} // namespace ledger
