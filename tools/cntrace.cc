/**
 * @file
 * cntrace: offline inspector for cnsim's on-disk logs.
 *
 * Reads a CNBLG002 binary log written with `cnsim --binlog-out run.blg`
 * and rebuilds the event stream from the message registry embedded in
 * its header. It summarizes the events, dumps them (filtered) as text,
 * converts them to Chrome trace_event JSON, or renders the streamed
 * metrics snapshots as a time-series CSV:
 *
 *   cntrace summary run.blg
 *   cntrace dump run.blg --kind transition --core 2 --limit 50
 *   cntrace dump run.blg --addr 0x1f40 --component l2.nurapid
 *   cntrace json run.blg out.json
 *   cntrace csv run.blg [out.csv]
 *
 * Filters intersect; --component matches any track whose registered
 * path contains the given substring.
 *
 * Packed reference traces (CNTRF001, from `cnsim --trace-capture`)
 * are detected by magic and get their own summary/dump:
 *
 *   cntrace summary oltp.trf
 *   cntrace dump oltp.trf --core 1 --limit 20
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/bytes.hh"
#include "common/logging.hh"
#include "mem/packet.hh"
#include "obs/binlog.hh"
#include "obs/event.hh"
#include "obs/trace_sink.hh"
#include "trace/replay.hh"
#include "trace/trace_file.hh"

using namespace cnsim;

namespace
{

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s <command> <run.blg> [options]\n"
        "commands:\n"
        "  summary <run.blg>               per-kind/component/cause "
        "breakdown\n"
        "  dump <run.blg> [filters]        print events, one per line\n"
        "  json <run.blg> <out.json>       convert to Chrome "
        "trace_event JSON\n"
        "  csv <run.blg> [out.csv]         metrics time series\n"
        "summary and dump also read CNTRF001 packed traces (dump: "
        "--core, --limit)\n"
        "dump filters:\n"
        "  --kind <k>        busTx|transition|dgroup|l1BackInval|"
        "resource|coreStall|\n"
        "                    directory\n"
        "  --core <N>        events initiated by/affecting core N\n"
        "  --addr <A>        events for block address A (hex ok)\n"
        "  --component <s>   track path contains substring s\n"
        "  --limit <N>       stop after N matching events\n",
        argv0);
}

/** True when @p path starts with the CNTRF001 packed-trace magic. */
bool
isPackedTrace(const std::string &path)
{
    std::FILE *fp = std::fopen(path.c_str(), "rb");
    if (!fp)
        return false;
    char m[8];
    bool ok = std::fread(m, 1, 8, fp) == 8 &&
              std::memcmp(m, "CNTRF001", 8) == 0;
    std::fclose(fp);
    return ok;
}

void
packedSummary(const std::string &path)
{
    PackedTrace t = readTrf(path);
    std::printf("CNTRF001 packed reference trace: %s\n", path.c_str());
    std::printf("cores: %zu  params-hash: %016llx  seed: %llu\n",
                t.cores.size(),
                static_cast<unsigned long long>(t.params_hash),
                static_cast<unsigned long long>(t.seed));
    std::printf("%-5s %12s %12s %9s %10s %8s %8s\n", "core", "records",
                "bytes", "B/record", "mean gap", "load%", "store%");
    for (std::size_t c = 0; c < t.cores.size(); ++c) {
        const PackedCoreTrace &ct = t.cores[c];
        PackedStreamReader reader(ct.bytes.data(), ct.bytes.size());
        TraceRecord rec;
        std::uint64_t loads = 0, stores = 0, gap_sum = 0;
        while (reader.next(rec)) {
            gap_sum += rec.gap;
            if (rec.op == MemOp::Store)
                ++stores;
            else
                ++loads;
        }
        if (reader.error() || reader.decoded() != ct.n_records)
            fatal("corrupt packed stream for core %zu (%llu of %llu "
                  "records decode)",
                  c, static_cast<unsigned long long>(reader.decoded()),
                  static_cast<unsigned long long>(ct.n_records));
        double n = static_cast<double>(ct.n_records);
        std::printf("%-5zu %12llu %12zu %9.2f %10.1f %7.1f%% %7.1f%%\n",
                    c, static_cast<unsigned long long>(ct.n_records),
                    ct.bytes.size(),
                    static_cast<double>(ct.bytes.size()) / n,
                    static_cast<double>(gap_sum) / n, 100.0 * loads / n,
                    100.0 * stores / n);
    }
}

void
packedDump(const std::string &path, int core, std::uint64_t limit)
{
    PackedTrace t = readTrf(path);
    for (std::size_t c = 0; c < t.cores.size(); ++c) {
        if (core >= 0 && static_cast<std::size_t>(core) != c)
            continue;
        const PackedCoreTrace &ct = t.cores[c];
        PackedStreamReader reader(ct.bytes.data(), ct.bytes.size());
        TraceRecord rec;
        std::uint64_t shown = 0;
        while (shown < limit && reader.next(rec)) {
            std::printf("core%zu #%llu gap=%u %s iaddr=0x%llx "
                        "addr=0x%llx\n",
                        c,
                        static_cast<unsigned long long>(reader.decoded() -
                                                        1),
                        rec.gap,
                        rec.op == MemOp::Store   ? "st"
                        : rec.op == MemOp::Ifetch ? "if"
                                                  : "ld",
                        static_cast<unsigned long long>(rec.iaddr),
                        static_cast<unsigned long long>(rec.addr));
            ++shown;
        }
        if (reader.error())
            fatal("corrupt packed stream for core %zu", c);
    }
}

bool
parseKind(const std::string &s, obs::EventKind &out)
{
    for (int k = 0; k < obs::num_event_kinds; ++k) {
        auto kind = static_cast<obs::EventKind>(k);
        if (s == obs::toString(kind)) {
            out = kind;
            return true;
        }
    }
    return false;
}

/** The tool proper; main() then checks that its output arrived. */
int
runTool(int argc, char **argv)
{
    if (argc >= 2 && (std::strcmp(argv[1], "--help") == 0 ||
                      std::strcmp(argv[1], "-h") == 0)) {
        usage(argv[0]);
        return 0;
    }
    if (argc < 3) {
        usage(argv[0]);
        return 2;
    }

    const std::string cmd = argv[1];
    const std::string path = argv[2];

    if (isPackedTrace(path)) {
        if (cmd == "summary") {
            packedSummary(path);
            return 0;
        }
        if (cmd == "dump") {
            int trf_core = -1;
            std::uint64_t trf_limit = ~std::uint64_t{0};
            for (int i = 3; i < argc; ++i) {
                std::string a = argv[i];
                auto next = [&]() -> const char * {
                    if (i + 1 >= argc)
                        fatal("missing value for %s", a.c_str());
                    return argv[++i];
                };
                if (a == "--core") {
                    trf_core = static_cast<int>(parseUnsignedFlag(
                        a, next(), 0, std::numeric_limits<int>::max()));
                } else if (a == "--limit") {
                    trf_limit = parseUnsignedFlag(a, next());
                } else {
                    fatal("packed-trace dump supports --core/--limit, "
                          "not '%s'",
                          a.c_str());
                }
            }
            packedDump(path, trf_core, trf_limit);
            return 0;
        }
        fatal("command '%s' does not apply to CNTRF001 packed traces "
              "(use summary or dump)",
              cmd.c_str());
    }

    obs::BinlogData data;
    std::string error;
    if (!obs::readBinlog(path, data, &error))
        fatal("%s: %s", path.c_str(), error.c_str());
    if (cmd == "csv") {
        std::string csv = obs::binlogMetricsCsv(data);
        if (argc >= 4) {
            if (FileStatus s = writeFile(argv[3], csv); !s.ok())
                fatal("cannot write '%s': %s", argv[3], s.error.c_str());
            inform("%zu metric columns -> %s", data.metrics.size(),
                   argv[3]);
        } else {
            std::printf("%s", csv.c_str());
        }
        return 0;
    }
    const std::vector<obs::TraceEvent> events = obs::binlogEvents(data);
    const std::vector<std::string> &components = data.components;
    const std::uint64_t dropped = data.dropped;
    if (dropped)
        warn("%s: incomplete capture -- %llu events dropped before they "
             "reached the log",
             path.c_str(), static_cast<unsigned long long>(dropped));

    if (cmd == "summary") {
        std::printf("%s",
                    obs::summarize(events, components, dropped).c_str());
        return 0;
    }

    if (cmd == "json") {
        if (argc < 4)
            fatal("json needs an output path");
        obs::writeChromeJson(argv[3], events, components, dropped);
        inform("%zu events -> %s", events.size(), argv[3]);
        return 0;
    }

    if (cmd != "dump") {
        usage(argv[0]);
        fatal("unknown command '%s'", cmd.c_str());
    }

    bool have_kind = false;
    obs::EventKind kind = obs::EventKind::BusTx;
    int core = -1;
    bool have_addr = false;
    Addr addr = 0;
    std::string comp_substr;
    std::uint64_t limit = ~std::uint64_t{0};

    for (int i = 3; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("missing value for %s", a.c_str());
            return argv[++i];
        };
        if (a == "--kind") {
            if (!parseKind(next(), kind))
                fatal("unknown event kind '%s'", argv[i]);
            have_kind = true;
        } else if (a == "--core") {
            core = static_cast<int>(parseUnsignedFlag(
                a, next(), 0, std::numeric_limits<int>::max()));
        } else if (a == "--addr") {
            addr = parseUnsignedFlag(a, next(), 0, UINT64_MAX, 0);
            have_addr = true;
        } else if (a == "--component") {
            comp_substr = next();
        } else if (a == "--limit") {
            limit = parseUnsignedFlag(a, next());
        } else {
            usage(argv[0]);
            fatal("unknown option '%s'", a.c_str());
        }
    }

    std::uint64_t shown = 0;
    for (const obs::TraceEvent &ev : events) {
        if (shown >= limit)
            break;
        if (have_kind && ev.kind != kind)
            continue;
        if (core >= 0 && ev.core != core)
            continue;
        if (have_addr && ev.addr != addr)
            continue;
        if (!comp_substr.empty()) {
            if (ev.component < 0 ||
                ev.component >= static_cast<int>(components.size()))
                continue;
            if (components[ev.component].find(comp_substr) ==
                std::string::npos)
                continue;
        }
        std::printf("%s\n", obs::formatEvent(ev, components).c_str());
        ++shown;
    }
    std::fprintf(stderr, "%llu of %zu events shown\n",
                 static_cast<unsigned long long>(shown), events.size());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const int rc = runTool(argc, argv);
    finishStdout();
    return rc;
}
