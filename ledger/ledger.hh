/**
 * @file
 * The cnsim performance ledger: named workloads, the timed (end-to-end)
 * and traced (per-layer) passes over them, and the correctness checks
 * every pass applies. README.md in this directory documents the
 * metrics, the workloads and how each layer metric maps onto an
 * end-to-end one.
 */

#ifndef CNSIM_LEDGER_LEDGER_HH
#define CNSIM_LEDGER_LEDGER_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/runner.hh"

namespace ledger
{

/** The optional layer a workload switches on around its simulations. */
enum class Instr
{
    None,   //!< observability off
    Obs,    //!< always-on binlog plus a metrics interval
    Audit,  //!< online protocol auditor
};

/** One named ledger workload: a grid of cells and how to run it. */
struct Workload
{
    std::string name;
    std::vector<cnsim::L2Kind> orgs;
    /** Simulated programs (cnsim workload names), one stream each. */
    std::vector<std::string> programs;
    int cores = 4;
    cnsim::InterconnectKind icn = cnsim::InterconnectKind::Bus;
    std::uint64_t warmup = 0;
    std::uint64_t measure = 0;
    /** ParallelRunner worker threads for the grid (1 = serial). */
    unsigned workers = 1;
    Instr instr = Instr::None;
};

/** Every ledger workload, in documentation order. */
const std::vector<Workload> &allWorkloads();

/** The workload called @p name, or null. */
const Workload *findWorkload(const std::string &name);

/** One (organization, program) cell of a workload's grid. */
struct Cell
{
    cnsim::L2Kind org;
    std::string program;
    cnsim::SystemConfig cfg;
    cnsim::WorkloadSpec spec;
};

/**
 * The workload's grid, program-major. With @p instrumented false the
 * cells are the plain twins: the same grid with the workload's
 * optional layer (Instr) switched off.
 */
std::vector<Cell> cellsOf(const Workload &w, bool instrumented);

/** Canonical streams of a workload, materialized for one seed. */
struct Streams
{
    std::map<std::string, std::shared_ptr<cnsim::RecordedTrace>> program;
    /** Host seconds the materialization took. */
    double seconds = 0.0;
};

/**
 * Generate every program's canonical stream up front, far enough for
 * the workload's warm-up plus measurement budget, so that stream
 * generation is set-up time rather than simulation time.
 */
Streams materialize(const Workload &w, std::uint64_t seed);

/** Run-directory file names and binlog clean-up for one invocation. */
class RunDir
{
  public:
    explicit RunDir(std::string dir);

    /** A fresh path for one binlog inside the run directory. */
    std::string binlogPath();

    /** Remove @p path (a file this invocation wrote). */
    static void remove(const std::string &path);

    const std::string &path() const { return dir; }

  private:
    std::string dir;
    unsigned next = 0;
};

/** The Runner::run configuration of @p cell over @p streams. */
cnsim::RunConfig runConfig(const Workload &w, const Cell &cell,
                           const Streams &streams, std::uint64_t seed);

/** One cell's result with its host time. */
struct CellRun
{
    cnsim::RunResult result;
    double seconds = 0.0;
};

/** One pass of a grid through a ParallelRunner. */
struct Sweep
{
    std::vector<CellRun> cells;
    /** Host seconds from submission to the last result. */
    double wall = 0.0;
    unsigned workers = 1;
};

/** Wall-clock seconds since an arbitrary epoch. */
inline double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Wall-clock timer that scales to a nominal-speed host (hostspeed.cc):
 * it times fixed reference work at the edges of an interval and at
 * poll() points inside it, and scales each stretch between two samples
 * by nominal_s over the mean reference time at its ends. Reference
 * sampling time is excluded from both the raw and the scaled interval.
 */
class HostSpeed
{
  public:
    /** Reference time on a quiet host; scaling is relative to it. */
    static constexpr double nominal_s = 0.017;

    /** @p threads: how many threads sample the reference at once (the
     *  worker count of the grid being timed). */
    explicit HostSpeed(unsigned threads = 1);

    /** Open an interval. */
    void start();

    /** Inside an interval: sample if ~0.25 s passed since the last one.
     *  Call only from the thread that called start(), between work. */
    void poll();

    /** Close the interval; @return its scaled seconds. */
    double stop();

    /** Unscaled seconds of the last closed interval. */
    double rawSeconds() const { return raw; }

    /** Every reference time measured so far. */
    const std::vector<double> &samples() const { return references; }

  private:
    void sample();
    void closeSegment();

    std::vector<std::vector<std::uint64_t>> tables;
    std::vector<double> references;
    double last_ref = 0.0;
    double last_at = 0.0;
    double seg_start = 0.0;
    double norm = 0.0;
    double raw = 0.0;
};

/**
 * Run @p cells on @p workers threads. Obs cells stream to a binlog in
 * @p dir, removed as soon as the cell finishes unless it is cell
 * @p keep_binlog, whose path is returned in @p kept. A serial sweep
 * polls @p host between cells.
 */
Sweep runSweep(const Workload &w, const std::vector<Cell> &cells,
               const Streams &streams, std::uint64_t seed,
               unsigned workers, RunDir &dir, HostSpeed *host = nullptr,
               long keep_binlog = -1, std::string *kept = nullptr);

/** Simulated instructions of a run, warm-up included, all cores. */
std::uint64_t totalInstructions(const cnsim::RunResult &r);

/** FNV-1a digest of everything a RunResult carries. */
std::uint64_t digest(const cnsim::RunResult &r);

/** Pass/fail tally: every cell run and every check is one attempt. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;

    /** Count one attempt; a false @p ok records @p what as failed. */
    void check(bool ok, const std::string &what);
};

/**
 * Sanity checks on one cell's result (budget retired, IPC positive,
 * the workload's optional layer actually active).
 */
void checkCell(const Workload &w, const Cell &cell,
               const cnsim::RunResult &r, Tally &tally);

/**
 * Conclusion-level checks on one pass over the grid (the paper's
 * orderings, see README.md), plus the paper-error ceiling.
 */
void checkConclusions(const Workload &w, const std::vector<Cell> &cells,
                      const std::vector<CellRun> &runs, Tally &tally);

/**
 * Largest absolute difference between the measured geomean IPC
 * relative to the shared L2 and the paper's Fig. 10 or Fig. 12
 * columns; 0 for workloads the paper has no column for.
 */
double paperError(const Workload &w, const std::vector<Cell> &cells,
                  const std::vector<CellRun> &runs);

/** One reported metric: the median of its samples, with its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
    /** Per-repetition values the median was taken over. */
    std::vector<double> samples;
};

/** A metric reported as the median of @p samples. */
Metric medianOf(std::vector<double> samples, std::string unit);

using Metrics = std::map<std::string, Metric>;

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Options shared by both passes. */
struct Options
{
    const Workload *workload = nullptr;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    std::string run_dir;
};

/** The timed pass: end-to-end metrics, tracing off. */
Metrics timedPass(const Options &opt, Tally &tally);

/** The traced pass: per-layer metrics from the harness-owned runner. */
Metrics tracedPass(const Options &opt, Tally &tally);

} // namespace ledger

#endif // CNSIM_LEDGER_LEDGER_HH
