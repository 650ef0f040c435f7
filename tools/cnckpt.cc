/**
 * @file
 * cnckpt: inspector for CNCKPT01 machine checkpoints.
 *
 * Reads a checkpoint written with `cnsim --ckpt-save c.ckpt` (or by
 * Runner::runVariability's in-memory path dumped to disk) and prints
 * what a user needs to decide whether a file is resumable: the machine
 * shape (cores, L2 organization, interconnect), the instant it was
 * taken at, the trace provenance the resuming run must replay, the
 * behaviour settings a NuRAPID resume must match, the per-core stream
 * cursors, and the occupancy summary the saving System recorded:
 *
 *   cnckpt summary c.ckpt
 *   cnckpt cores c.ckpt
 *
 * All validation (magic, version, checksum, truncation) happens in
 * Checkpoint::loadFile, so a corrupt file dies with the same message a
 * resuming run would print.
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "common/logging.hh"
#include "mem/interconnect.hh"
#include "sample/checkpoint.hh"
#include "sim/system.hh"

using namespace cnsim;

namespace
{

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s <command> <file.ckpt>\n"
        "commands:\n"
        "  summary <file.ckpt>   machine shape, tick, trace provenance,\n"
        "                        occupancy meta\n"
        "  cores <file.ckpt>     per-core retirement counters, stream\n"
        "                        cursors and pending step events\n",
        argv0);
}

const char *
l2KindName(std::uint32_t k)
{
    // The checkpoint stores the raw enum value; an out-of-range value
    // would have failed validateConfig on resume, but the inspector
    // must not crash on it either.
    if (k > static_cast<std::uint32_t>(L2Kind::Dnuca))
        return "<unknown>";
    return toString(static_cast<L2Kind>(k));
}

const char *
interconnectName(std::uint32_t k)
{
    if (k > static_cast<std::uint32_t>(InterconnectKind::Ring))
        return "<unknown>";
    return toString(static_cast<InterconnectKind>(k));
}

const char *
promotionName(std::uint32_t p)
{
    if (p > static_cast<std::uint32_t>(PromotionPolicy::None))
        return "<unknown>";
    switch (static_cast<PromotionPolicy>(p)) {
      case PromotionPolicy::Fastest: return "fastest";
      case PromotionPolicy::NextFastest: return "next-fastest";
      case PromotionPolicy::None: return "none";
    }
    return "<unknown>";
}

const char *
replicationName(std::uint32_t r)
{
    if (r > static_cast<std::uint32_t>(ReplicationPolicy::Never))
        return "<unknown>";
    switch (static_cast<ReplicationPolicy>(r)) {
      case ReplicationPolicy::OnSecondUse: return "on-second-use";
      case ReplicationPolicy::OnFirstUse: return "on-first-use";
      case ReplicationPolicy::Never: return "never";
    }
    return "<unknown>";
}

void
summary(const sample::Checkpoint &ck, const std::string &path)
{
    std::printf("%s: CNCKPT01 version %u\n", path.c_str(), ck.version);
    std::printf("  machine     %u cores, %s L2, %s interconnect\n",
                ck.num_cores, l2KindName(ck.l2_kind),
                interconnectName(ck.interconnect));
    std::printf("  taken at    tick %llu, %llu events executed\n",
                static_cast<unsigned long long>(ck.tick),
                static_cast<unsigned long long>(ck.events_executed));
    std::printf("  trace       params hash %016llx, seed %llu\n",
                static_cast<unsigned long long>(ck.trace_params_hash),
                static_cast<unsigned long long>(ck.trace_seed));
    std::printf("  warm-up     %llu instructions per core\n",
                static_cast<unsigned long long>(ck.warmup_instructions));
    std::printf("  settings    CR %s, ISC %s, promotion %s, replication "
                "%s (checked on a nurapid resume)\n",
                ck.settings.enable_cr ? "on" : "off",
                ck.settings.enable_isc ? "on" : "off",
                promotionName(ck.settings.promotion),
                replicationName(ck.settings.replication));
    std::printf("  arch bytes  %zu\n", ck.arch.size());
    for (const auto &m : ck.meta)
        std::printf("  %-18s %llu\n", m.first.c_str(),
                    static_cast<unsigned long long>(m.second));
}

void
cores(const sample::Checkpoint &ck)
{
    std::printf("%-5s %14s %14s %14s %12s %10s\n", "core",
                "instructions", "data refs", "records", "step@tick",
                "step seq");
    for (std::size_t c = 0; c < ck.cores.size(); ++c) {
        const sample::CoreState &cs = ck.cores[c];
        std::printf("%-5zu %14llu %14llu %14llu %12llu %10llu\n", c,
                    static_cast<unsigned long long>(cs.instructions),
                    static_cast<unsigned long long>(cs.data_refs),
                    static_cast<unsigned long long>(cs.consumed),
                    static_cast<unsigned long long>(cs.step_when),
                    static_cast<unsigned long long>(cs.step_seq));
    }
}

/** The tool proper; main() then checks that its output arrived. */
int
runTool(int argc, char **argv)
{
    if (argc != 3) {
        usage(argv[0]);
        return argc == 1 ? 0 : 1;
    }
    std::string cmd = argv[1];
    if (cmd == "--help" || cmd == "-h") {
        usage(argv[0]);
        return 0;
    }
    if (cmd != "summary" && cmd != "cores") {
        usage(argv[0]);
        fatal("unknown command '%s'", cmd.c_str());
    }
    sample::Checkpoint ck = sample::Checkpoint::loadFile(argv[2]);
    if (cmd == "summary")
        summary(ck, argv[2]);
    else
        cores(ck);
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
