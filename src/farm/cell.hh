/**
 * @file
 * The unit of a sweep (DESIGN.md 3l).
 *
 * A CellSpec is one grid cell of an experiment sweep -- the complete,
 * self-describing recipe for one Runner::run call: system shape (L2
 * organization, core count, interconnect, NuRAPID knobs), workload
 * name, run budgets, sampling plan, observability outputs, checkpoint
 * files, and the trace-stream source. It carries *names and
 * parameters*, never pointers or materialized streams, and buildJob()
 * expands equal specs into runs with byte-identical results (the
 * canonical-trace guarantee of trace/replay.hh), so a spec can name
 * its result.
 *
 * Two FNV-1a content keys derive from a spec:
 *  - cellKey(): the *result* identity -- every field plus
 *    the effective trace hash and the farm/checkpoint format versions.
 *    Two specs with equal keys produce byte-identical RunResults, so
 *    the key addresses the result cache.
 *  - ckptKey(): the *post-warm-up state* identity -- only the fields
 *    that shape the warmed machine (organization, workload, warm-up
 *    budget, quantum, warm mode, seed, trace hash). Cells differing
 *    only in measurement-side parameters share one warmed CNCKPT01
 *    blob, which is what lets a modified sweep resume instead of
 *    re-warming.
 */

#ifndef CNSIM_FARM_CELL_HH
#define CNSIM_FARM_CELL_HH

#include <cstdint>
#include <string>

#include "sim/parallel_runner.hh"
#include "sim/runner.hh"

namespace cnsim
{
namespace farm
{

/** Bumped whenever a change anywhere in the simulator can alter
 *  results or checkpoint state for an unchanged CellSpec, or the cache
 *  entry format changes; stale cache entries then miss instead of
 *  serving bytes from an older binary. */
constexpr std::uint32_t farm_format_version = 4;

/** One sweep grid cell; see the file comment. */
struct CellSpec
{
    // System shape.
    std::uint32_t l2_kind = 0;
    std::uint32_t cores = 4;
    std::uint32_t interconnect = 0;
    std::uint8_t enable_cr = 1;
    std::uint8_t enable_isc = 1;
    std::uint32_t promotion = 0;
    std::uint32_t tag_factor = 2;

    // Observability.
    std::uint8_t audit = 0;
    std::uint64_t metrics_interval = 0;
    std::string binlog_out;

    // Workload and budgets.
    std::string workload = "oltp";
    std::uint64_t warmup = 3'000'000;
    std::uint64_t measure = 5'000'000;
    std::uint64_t quantum = 20'000;
    std::uint64_t seed = 1;
    std::uint32_t sample_windows = 0;
    std::uint64_t sample_detail = 0;
    std::uint64_t sample_warmup = 0;

    // Result content switches.
    std::uint8_t collect_stats_dump = 0;
    std::uint8_t collect_stats_csv = 0;

    // Stream source and checkpoint files.
    /** Drive the cell from this CNTRF001 file instead of its
     *  workload's canonical stream ("" = the workload's stream); the
     *  workload then only labels the cell. */
    std::string trace_file;
    /** Save the post-warm-up machine state here ("" = none). */
    std::string ckpt_save;
    /** Resume from this checkpoint file instead of warming up. */
    std::string ckpt_load;

    /** "l2/workload" label for progress and error messages. */
    [[nodiscard]] std::string label() const;

    /** True when a result-cache entry may stand in for running this
     *  cell: it writes no file, and reads none whose content its key
     *  cannot see. */
    [[nodiscard]] bool cacheable() const
    {
        return binlog_out.empty() && trace_file.empty() &&
               ckpt_save.empty() && ckpt_load.empty();
    }

    /** True when a cached warmed checkpoint may stand in for this
     *  cell's warm-up: its stream is the canonical one ckptKey names
     *  (a trace file's content is not in the key), it neither saves
     *  nor loads a checkpoint file of its own, and no observer watches
     *  the warm-up (the auditor tracks every block from its first
     *  access, and metrics rows sample the warm-up; a checkpoint
     *  restores neither). */
    [[nodiscard]] bool sharesWarmState() const
    {
        return trace_file.empty() && ckpt_save.empty() &&
               ckpt_load.empty() && audit == 0 && metrics_interval == 0;
    }
};

/** Content key addressing @p spec's RunResult in the cache. */
std::uint64_t cellKey(const CellSpec &spec);

/** Content key addressing @p spec's post-warm-up checkpoint blob. */
std::uint64_t ckptKey(const CellSpec &spec);

/** A cell key rendered as the canonical 16-digit hex string. */
std::string keyString(std::uint64_t key);

/** Materialize the Runner::run argument triple for @p spec. */
ParallelJob buildJob(const CellSpec &spec);

/** Serialize a RunResult for cache entries and result digests. */
std::string serializeResult(const RunResult &r);

/** Parse serializeResult bytes; fatal on truncation. */
RunResult deserializeResult(const std::string &bytes,
                            const std::string &what);

} // namespace farm
} // namespace cnsim

#endif // CNSIM_FARM_CELL_HH
