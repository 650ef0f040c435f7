/**
 * @file
 * cnsim_ledger: runs one ledger workload and prints its metrics.
 *
 *   cnsim_ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *                [--run-dir <dir>] [--git-commit <id>]
 *                [--source-digest <hex>]
 *
 * --trace 0 is the timed pass (end-to-end metrics, tracing off);
 * --trace 1 is the traced pass (per-layer metrics). Human-readable
 * lines come first: the host fingerprint, every metric with its unit
 * (and, for end-to-end metrics, its direction), and any failed check.
 * The last line is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 */

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/logging.hh"
#include "ledger.hh"

namespace
{

using namespace ledger;

/** Direction of each end-to-end metric. */
const char *
direction(const std::string &metric)
{
    if (metric == "sim_mips" || metric == "events_per_s")
        return "higher";
    return "lower";
}

bool
isEndToEnd(const std::string &metric)
{
    return metric.find('.') == std::string::npos;
}

/** CPU brand string from CPUID (no file access needed). */
std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        std::size_t b = s.find_first_not_of(' ');
        return b == std::string::npos ? "unknown" : s.substr(b);
    }
#endif
    return "unknown";
}

/** CPUs this process may run on. */
int
usableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return static_cast<int>(std::thread::hardware_concurrency());
    return CPU_COUNT(&set);
}

/** JSON string literal for @p s (ASCII-only inputs). */
std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "cnsim_ledger: %s\nusage: cnsim_ledger --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> [--run-dir <dir>] "
                 "[--git-commit <id>] [--source-digest <hex>]\nworkloads:",
                 msg);
    for (const Workload &w : allWorkloads())
        std::fprintf(stderr, " %s", w.name.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

std::uint64_t
parseUnsigned(const char *flag, const std::string &v)
{
    char *end = nullptr;
    unsigned long long n = std::strtoull(v.c_str(), &end, 10);
    if (v.empty() || *end != '\0' || v[0] == '-')
        usage((std::string(flag) + " takes an unsigned integer").c_str());
    return n;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, git_commit = "unknown", source_digest = "unknown";
    Options opt;
    opt.run_dir = ".bench_build/ledger-run";
    int trace = -1;
    bool have_seed = false, have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        std::string v = argv[++i];
        if (flag == "--workload") {
            workload = v;
        } else if (flag == "--seed") {
            opt.seed = parseUnsigned("--seed", v);
            have_seed = true;
        } else if (flag == "--seconds") {
            opt.seconds =
                static_cast<double>(parseUnsigned("--seconds", v));
            have_seconds = true;
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            trace = v == "1";
        } else if (flag == "--run-dir") {
            opt.run_dir = v;
        } else if (flag == "--git-commit") {
            git_commit = v;
        } else if (flag == "--source-digest") {
            source_digest = v;
        } else {
            usage(("unknown option " + flag).c_str());
        }
    }
    opt.workload = findWorkload(workload);
    if (!opt.workload)
        usage(("unknown workload '" + workload + "'").c_str());
    if (!have_seed || !have_seconds || trace < 0)
        usage("--seed, --seconds and --trace are required");
    if (opt.seconds < 1)
        usage("--seconds must be at least 1");
    cnsim::setQuiet(true);

    const Workload &w = *opt.workload;
    Tally tally;
    Metrics metrics = trace ? tracedPass(opt, tally) : timedPass(opt, tally);
    for (auto &[name, m] : metrics) {
        if (!std::isfinite(m.value)) {
            tally.check(false, name + " is not a finite number");
            m.value = 0.0;
        }
    }

    std::printf(
        "fingerprint {\"workload\": %s, \"trace\": %d, \"seed\": %llu, "
        "\"seconds\": %g, \"nproc\": %d, \"hardware_threads\": %u, "
        "\"cpu\": %s, \"compiler\": %s, \"build_type\": %s, \"lto\": %s, "
        "\"git_commit\": %s, \"source_digest\": %s, \"workers\": %u, "
        "\"cores\": %d, \"warmup\": %llu, \"measure\": %llu}\n",
        quoted(w.name).c_str(), trace,
        static_cast<unsigned long long>(opt.seed), opt.seconds, usableCpus(),
        std::thread::hardware_concurrency(), quoted(cpuModel()).c_str(),
        quoted(LEDGER_COMPILER).c_str(), quoted(LEDGER_BUILD_TYPE).c_str(),
        LEDGER_LTO ? "true" : "false", quoted(git_commit).c_str(),
        quoted(source_digest).c_str(), w.workers, w.cores,
        static_cast<unsigned long long>(w.warmup),
        static_cast<unsigned long long>(w.measure));
    for (const auto &[name, m] : metrics) {
        auto [lo, hi] = std::minmax_element(m.samples.begin(), m.samples.end());
        std::printf("metric %-34s %16.6g %-9s median of %zu [%.6g .. %.6g]",
                    name.c_str(), m.value, m.unit.c_str(), m.samples.size(),
                    m.samples.empty() ? 0.0 : *lo,
                    m.samples.empty() ? 0.0 : *hi);
        if (isEndToEnd(name))
            std::printf(" %s is better", direction(name));
        std::printf("\n");
    }
    for (const std::string &f : tally.failures)
        std::printf("FAILED %s\n", f.c_str());

    std::string json = "{\"correct\": ";
    json += tally.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(tally.attempted);
    json += ", \"failed\": " + std::to_string(tally.failed);
    json += ", \"metrics\": {";
    bool sep = false;
    for (const auto &[name, m] : metrics) {
        char num[64];
        std::snprintf(num, sizeof(num), "%.12g", m.value);
        json += (sep ? ", " : "") + quoted(name) + ": {\"value\": " + num +
                ", \"unit\": " + quoted(m.unit) + "}";
        sep = true;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
