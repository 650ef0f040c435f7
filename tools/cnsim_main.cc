/**
 * @file
 * cnsim command-line driver.
 *
 * Runs any workload from the paper's Tables 2/3 on any of the seven
 * L2 organizations and reports the RunResult, optionally with the
 * complete statistics dump. Examples:
 *
 *   cnsim --l2 nurapid --workload oltp
 *   cnsim --l2 all --workload mix3 --measure 20000000
 *   cnsim --l2 private --workload apache --stats
 *   cnsim --l2 all --workload all --jobs 8
 *   cnsim --l2 all --workload oltp --cache-dir ~/.cache/cnsim
 *   cnsim --list
 *
 * Every invocation is a grid of (L2 kind x workload) cells, each one a
 * farm::CellSpec, run by farm::runSweep over --jobs worker threads
 * (default: one per CPU this process may run on). Results are printed
 * in grid order and are byte-identical for every --jobs value;
 * per-cell progress and elapsed time go to stderr. --cache-dir puts
 * the content-addressed result and checkpoint cache in front of the
 * grid: a repeated sweep is read back from disk and a re-budgeted one
 * resumes from cached warm state, printing the same bytes.
 */

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "farm/sweep.hh"
#include "sim/parallel_runner.hh"
#include "sim/runner.hh"
#include "trace/replay.hh"

using namespace cnsim;

namespace
{

const std::vector<std::pair<std::string, L2Kind>> kinds = {
    {"shared", L2Kind::Shared},   {"private", L2Kind::Private},
    {"snuca", L2Kind::Snuca},     {"ideal", L2Kind::Ideal},
    {"nurapid", L2Kind::Nurapid}, {"update", L2Kind::Update},
    {"dnuca", L2Kind::Dnuca},
};

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "  --l2 <kind>        shared|private|snuca|ideal|nurapid|update|"
        "dnuca|all (default nurapid)\n"
        "  --workload <name>  oltp|apache|specjbb|ocean|barnes|mix1..mix4"
        "|mt|mp|all (default oltp)\n"
        "  --cores <N>        core count, 1..64 (default 4; other "
        "counts scale\n"
        "                     capacity at 2 MB/core and re-derive "
        "latencies)\n"
        "  --interconnect <i> bus|mesh|ring (default bus; mesh/ring "
        "use a\n"
        "                     directory protocol over the NoC)\n"
        "  --warmup <N>       warm-up instructions per core\n"
        "  --measure <N>      measured instructions per core (> 0)\n"
        "  --seed <N>         workload seed (default 1)\n"
        "  --jobs <N>         worker threads for grid sweeps (default: "
        "one per CPU\n"
        "                     this process may run on; results identical "
        "for any N)\n"
        "  --cache-dir <dir>  look up and store results and warmed "
        "checkpoints in\n"
        "                     this content-addressed cache (default: "
        "none; results\n"
        "                     identical with or without it)\n"
        "  --sample-windows <K>  interval sampling: K detailed windows "
        "separated by\n"
        "                     decode-only fast-forward, functional "
        "(untimed) warm-up;\n"
        "                     IPC is reported as mean +/- Student-t 95%% "
        "CI over the\n"
        "                     windows\n"
        "  --sample-detail <N>   measured instructions per window "
        "(default\n"
        "                     measure / (K*16))\n"
        "  --sample-warmup <N>   functionally-warmed instructions before "
        "each\n"
        "                     window (default = sample-detail)\n"
        "  --ckpt-save <file> warm up, save the CNCKPT01 machine state, "
        "then measure\n"
        "                     (grid sweeps insert <l2>-<workload> before "
        "the\n"
        "                     extension)\n"
        "  --ckpt-load <file> resume from a saved checkpoint instead of "
        "warming up\n"
        "                     (config- and trace-strict)\n"
        "  --no-cr            disable controlled replication (nurapid)\n"
        "  --no-isc           disable in-situ communication (nurapid)\n"
        "  --promotion <p>    fastest|next-fastest|none (nurapid)\n"
        "  --tag-factor <N>   nurapid tag-capacity multiple (1, 2 or 4)\n"
        "  --stats            dump the full statistics block per run\n"
        "  --stats-csv <file> write per-run statistics as CSV "
        "(l2,workload,name,value)\n"
        "  --binlog-out <file> stream events + metrics to a CNBLG002 "
        "binary log\n"
        "                     (lock-free hot path; format offline with "
        "cntrace;\n"
        "                     grid sweeps insert <l2>-<workload> before "
        "the extension)\n"
        "  --metrics-interval <N>  snapshot the metrics registry every N "
        "ticks\n"
        "  --metrics-out <file>    write the metrics time series CSV "
        "here\n"
        "  --audit            run the online coherence-protocol auditor\n"
        "  --trace-capture <file>  save the consumed stream(s) as "
        "CNTRF001 (grids\n"
        "                     with several workloads insert the "
        "workload name\n"
        "                     before the extension)\n"
        "  --trace-replay <file>   drive every cell from a captured "
        "CNTRF001 trace\n"
        "                     (single workload name for labeling only)"
        "\n"
        "  --list             list workloads and organizations\n",
        argv0);
}

/**
 * Insert @p tag before @p path's extension ("t.blg" + "nurapid-oltp"
 * -> "t.nurapid-oltp.blg") so grid sweeps write one file per run.
 */
std::string
tagPath(const std::string &path, const std::string &tag)
{
    auto dot = path.rfind('.');
    auto slash = path.rfind('/');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash))
        return path + "." + tag;
    return path.substr(0, dot) + "." + tag + path.substr(dot);
}

void
writeTextFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot open '%s' for writing", path.c_str());
    out << text;
}

std::vector<L2Kind>
parseKinds(const std::string &s)
{
    if (s == "all") {
        std::vector<L2Kind> all;
        for (const auto &kv : kinds)
            all.push_back(kv.second);
        return all;
    }
    for (const auto &kv : kinds) {
        if (kv.first == s)
            return {kv.second};
    }
    fatal("unknown L2 kind '%s'", s.c_str());
}

InterconnectKind
parseInterconnect(const std::string &s)
{
    if (s == "bus")
        return InterconnectKind::Bus;
    if (s == "mesh")
        return InterconnectKind::Mesh;
    if (s == "ring")
        return InterconnectKind::Ring;
    fatal("--interconnect must be bus, mesh or ring, got '%s'",
          s.c_str());
}

PromotionPolicy
parsePromotion(const std::string &s)
{
    if (s == "fastest")
        return PromotionPolicy::Fastest;
    if (s == "next-fastest")
        return PromotionPolicy::NextFastest;
    if (s == "none")
        return PromotionPolicy::None;
    fatal("unknown promotion policy '%s'", s.c_str());
}

std::vector<std::string>
parseWorkloads(const std::string &s)
{
    if (s == "mt")
        return workloads::multithreadedNames();
    if (s == "mp")
        return workloads::multiprogrammedNames();
    if (s == "all") {
        auto v = workloads::multithreadedNames();
        for (const auto &m : workloads::multiprogrammedNames())
            v.push_back(m);
        return v;
    }
    workloads::byName(s);  // validates (fatal on unknown)
    return {s};
}

} // namespace

int
main(int argc, char **argv)
{
    std::string l2_arg = "nurapid";
    std::string wl_arg = "oltp";
    // Every option that shapes a cell lands in this template; the grid
    // loop below fills in each cell's organization, workload and files.
    farm::CellSpec base;
    base.warmup = 6'000'000;
    base.measure = 10'000'000;
    unsigned jobs = ParallelRunner::defaultWorkers();
    std::string cache_dir;
    std::string ckpt_save_path;
    std::string ckpt_load_path;
    std::string trace_capture_path;
    std::string stats_csv_path;
    std::string binlog_out;
    std::string metrics_out;
    // The last sampling-only flag given; it means nothing without
    // --sample-windows.
    const char *sample_flag = nullptr;

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("missing value for %s", a.c_str());
            return argv[++i];
        };
        auto number = [&](std::uint64_t lo = 0,
                          std::uint64_t hi = UINT64_MAX) {
            return parseUnsignedFlag(a, next(), lo, hi);
        };
        if (a == "--l2") {
            l2_arg = next();
        } else if (a == "--workload") {
            wl_arg = next();
        } else if (a == "--cores") {
            base.cores = static_cast<std::uint32_t>(number(1, 64));
        } else if (a == "--interconnect") {
            base.interconnect =
                static_cast<std::uint32_t>(parseInterconnect(next()));
        } else if (a == "--warmup") {
            base.warmup = number();
        } else if (a == "--measure") {
            base.measure = number(1);
        } else if (a == "--seed") {
            base.seed = number();
        } else if (a == "--jobs") {
            jobs = static_cast<unsigned>(
                number(1, std::numeric_limits<unsigned>::max()));
        } else if (a == "--cache-dir") {
            cache_dir = next();
        } else if (a == "--stats") {
            base.collect_stats_dump = 1;
        } else if (a == "--stats-csv") {
            stats_csv_path = next();
        } else if (a == "--binlog-out") {
            binlog_out = next();
        } else if (a == "--metrics-interval") {
            base.metrics_interval = number();
        } else if (a == "--metrics-out") {
            metrics_out = next();
        } else if (a == "--audit") {
            base.audit = 1;
        } else if (a == "--no-cr") {
            base.enable_cr = 0;
        } else if (a == "--no-isc") {
            base.enable_isc = 0;
        } else if (a == "--promotion") {
            base.promotion =
                static_cast<std::uint32_t>(parsePromotion(next()));
        } else if (a == "--tag-factor") {
            std::uint64_t tf = number();
            if (tf != 1 && tf != 2 && tf != 4)
                fatal("--tag-factor must be 1, 2 or 4, got '%s'",
                      argv[i]);
            base.tag_factor = static_cast<std::uint32_t>(tf);
        } else if (a == "--sample-windows") {
            base.sample_windows = static_cast<std::uint32_t>(
                number(1, std::numeric_limits<std::uint32_t>::max()));
        } else if (a == "--sample-detail") {
            base.sample_detail = number();
            sample_flag = "--sample-detail";
        } else if (a == "--sample-warmup") {
            base.sample_warmup = number();
            sample_flag = "--sample-warmup";
        } else if (a == "--ckpt-save") {
            ckpt_save_path = next();
        } else if (a == "--ckpt-load") {
            ckpt_load_path = next();
        } else if (a == "--trace-capture") {
            trace_capture_path = next();
        } else if (a == "--trace-replay") {
            base.trace_file = next();
        } else if (a == "--list") {
            std::printf("workloads (Table 3): ");
            for (const auto &w : workloads::multithreadedNames())
                std::printf("%s ", w.c_str());
            std::printf("\nworkloads (Table 2): ");
            for (const auto &w : workloads::multiprogrammedNames())
                std::printf("%s ", w.c_str());
            std::printf("\nL2 organizations:    ");
            for (const auto &kv : kinds)
                std::printf("%s ", kv.first.c_str());
            std::printf("\n");
            return 0;
        } else if (a == "--help" || a == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            usage(argv[0]);
            fatal("unknown option '%s'", a.c_str());
        }
    }

    base.collect_stats_csv = stats_csv_path.empty() ? 0 : 1;
    // A metrics file without an explicit interval gets a usable default.
    if (!metrics_out.empty() && base.metrics_interval == 0)
        base.metrics_interval = 100'000;

    if (sample_flag && base.sample_windows == 0)
        fatal("%s shapes interval sampling, which needs --sample-windows",
              sample_flag);
    if (!ckpt_save_path.empty() && !ckpt_load_path.empty())
        fatal("--ckpt-save and --ckpt-load are mutually exclusive");
    if (!trace_capture_path.empty() && !base.trace_file.empty())
        fatal("--trace-capture and --trace-replay are mutually "
              "exclusive");
    if (!trace_capture_path.empty() && !cache_dir.empty())
        fatal("--trace-capture saves the streams the cells consume, and "
              "a cell read back from the cache consumes none; drop "
              "--cache-dir");

    // Build the (L2 kind x workload) grid in print order.
    const std::vector<L2Kind> kind_list = parseKinds(l2_arg);
    const std::vector<std::string> wl_list = parseWorkloads(wl_arg);
    const bool multi = kind_list.size() * wl_list.size() > 1;

    // A captured trace replays one workload's stream; a grid over
    // several workloads has no single stream to replay.
    if (!base.trace_file.empty() && wl_list.size() > 1)
        fatal("--trace-replay drives a single workload (got %zu)",
              wl_list.size());

    // A replayed trace file is decoded once: every cell's buildJob
    // acquires this same instance while the handle lives.
    std::shared_ptr<RecordedTrace> frozen;
    if (!base.trace_file.empty()) {
        frozen = TraceCache::global().acquireFile(base.trace_file);
        inform("replaying '%s': %d cores, %llu records/core published",
               base.trace_file.c_str(), frozen->cores(),
               static_cast<unsigned long long>(
                   frozen->recordsPublished(0)));
        if (frozen->cores() != static_cast<int>(base.cores))
            fatal("trace '%s' has %d cores but the system has %u",
                  base.trace_file.c_str(), frozen->cores(), base.cores);
    }

    std::vector<farm::CellSpec> cells;
    for (L2Kind kind : kind_list) {
        for (const std::string &w : wl_list) {
            // Grid sweeps write one file per cell, tagged by cell;
            // checkpoints are config-strict, so they are per cell too.
            auto per_cell = [&](const std::string &path) {
                if (!multi || path.empty())
                    return path;
                return tagPath(path,
                               std::string(toString(kind)) + "-" + w);
            };
            farm::CellSpec spec = base;
            spec.l2_kind = static_cast<std::uint32_t>(kind);
            spec.workload = w;
            spec.binlog_out = per_cell(binlog_out);
            spec.ckpt_save = per_cell(ckpt_save_path);
            spec.ckpt_load = per_cell(ckpt_load_path);
            cells.push_back(std::move(spec));
        }
    }

    // Capture saves exactly the stream prefix the grid consumed, so hold
    // each workload's materialized trace until the sweep is done: every
    // cell of that workload, shared or not, reads this instance. The
    // grid's first row has one cell per workload.
    std::vector<std::pair<std::string, std::shared_ptr<RecordedTrace>>>
        captured;
    if (!trace_capture_path.empty()) {
        for (std::size_t i = 0; i < wl_list.size(); ++i) {
            ParallelJob job = farm::buildJob(cells[i]);
            captured.emplace_back(wl_list[i], Runner::acquireSharedTrace(
                                                  job.workload, job.run_cfg));
        }
    }

    const farm::Cache cache(cache_dir);
    const std::vector<RunResult> results =
        farm::runSweep(cells, cache, jobs).results;

    const bool any_sampled = base.sample_windows > 0;
    std::printf("%-8s %-10s %8s %s%8s %8s %8s %8s %9s\n", "l2",
                "workload", "IPC", any_sampled ? "  +/-ci95 " : "",
                "hit%", "ros%", "rws%", "cap%", "cycles");
    for (const RunResult &r : results) {
        std::printf("%-8s %-10s %8.3f ", r.l2_kind.c_str(),
                    r.workload.c_str(), r.ipc);
        if (any_sampled)
            std::printf("+/-%6.3f ", r.ipc_ci95);
        std::printf("%7.1f%% %7.1f%% %7.1f%% %7.1f%% %9llu\n",
                    100 * r.frac_hit, 100 * r.frac_ros,
                    100 * r.frac_rws, 100 * r.frac_cap,
                    static_cast<unsigned long long>(r.cycles));
        if (base.collect_stats_dump)
            std::printf("%s\n", r.stats_dump.c_str());
        if (base.audit || !binlog_out.empty())
            inform("%s/%s: %llu trace events, %llu audited transitions",
                   r.l2_kind.c_str(), r.workload.c_str(),
                   static_cast<unsigned long long>(r.trace_events),
                   static_cast<unsigned long long>(
                       r.audited_transitions));
    }

    if (!stats_csv_path.empty()) {
        // Merge the per-run CSVs into one file keyed by grid cell.
        std::string csv = "l2,workload,name,value\n";
        for (const RunResult &r : results) {
            std::size_t pos = r.stats_csv.find('\n');  // skip header
            pos = pos == std::string::npos ? r.stats_csv.size() : pos + 1;
            while (pos < r.stats_csv.size()) {
                std::size_t end = r.stats_csv.find('\n', pos);
                if (end == std::string::npos)
                    end = r.stats_csv.size();
                csv += r.l2_kind + "," + r.workload + "," +
                       r.stats_csv.substr(pos, end - pos) + "\n";
                pos = end + 1;
            }
        }
        writeTextFile(stats_csv_path, csv);
    }
    if (!metrics_out.empty()) {
        for (const RunResult &r : results)
            writeTextFile(multi ? tagPath(metrics_out,
                                          r.l2_kind + "-" + r.workload)
                                : metrics_out,
                          r.metrics_csv);
    }
    for (const auto &ct : captured) {
        std::string path = wl_list.size() > 1
                               ? tagPath(trace_capture_path, ct.first)
                               : trace_capture_path;
        ct.second->saveTrf(path);
        inform("captured %s: %llu records/core, %.1f MB resident "
               "(packed on disk by the CNTRF001 codec)",
               path.c_str(),
               static_cast<unsigned long long>(
                   ct.second->recordsPublished(0)),
               static_cast<double>(ct.second->bytesPublished()) /
                   (1024.0 * 1024.0));
    }
    return 0;
}
