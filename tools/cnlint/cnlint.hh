/**
 * @file
 * cnlint: cnsim's determinism-and-invariant static-analysis suite.
 *
 * cnlint is a token-level ("AST-lite") scanner built around a
 * whole-program project model: every file is loaded before any rule
 * runs, so the rules see a cross-TU include graph, a class/member
 * model, and a symbol index in addition to each file's token stream.
 * It enforces the project rules the C++ compiler cannot: determinism
 * hygiene in simulation code (D-rules), structural invariants
 * (S-rules), header hygiene (H-rules), architectural layering
 * (L-rules), concurrency annotation discipline (C-rules), and
 * lifetime/liveness properties (T-rules). It is deliberately not a
 * compiler plugin -- the rules are lexical and cross-file, the tool
 * builds in milliseconds, and it runs identically on every host the
 * simulator builds on. Where the compiler can enforce a rule exactly,
 * the build does it instead (DESIGN.md 3f): exhaustive enum switches,
 * self-contained headers, no std::function on the EventQueue, and no
 * unseeded Rng are build errors, not findings.
 *
 * Rule catalog (see DESIGN.md sections 3f and 3k for the rationale):
 *
 *   CNL-D001  banned random source (std::rand, random_device, mt19937,
 *             ...) in simulation code; use a seeded cnsim::Rng
 *   CNL-D002  banned wall-clock source (system_clock, steady_clock,
 *             time(), ...) in simulation code; simulated time comes
 *             from EventQueue::now()
 *   CNL-D003  iteration over a std::unordered_{map,set}; unordered
 *             iteration order leaks host ASLR/hash state into stats,
 *             traces, and event schedules -- use FlatMap + sort or a
 *             sorted container
 *   CNL-D004  pointer-keyed std::map/std::set; pointer order varies
 *             run to run
 *   CNL-S002  Counter/Distribution member never registered
 *             with a StatGroup/MetricsRegistry (invisible stat)
 *   CNL-H001  `using namespace` in a header
 *   CNL-H002  missing or malformed include guard (expects
 *             CNSIM_*_HH #ifndef/#define or #pragma once)
 *   CNL-L001  include edge not permitted by the committed layer DAG
 *             (src/<dir> dependencies; obs/ can never depend on l2/)
 *   CNL-L002  include cycle among the scanned files
 *   CNL-C001  mutable member of a mutex- or atomic-owning class with
 *             no thread-safety annotation (CNSIM_GUARDED_BY /
 *             CNSIM_PT_GUARDED_BY / CNSIM_SYNC_NOTE)
 *   CNL-C002  raw std::thread outside the blessed owners
 *             (ParallelRunner, BinlogWriter)
 *   CNL-C003  unannotated mutable static (file- or function-local)
 *   CNL-T001  EventQueue callable capturing a stack local by
 *             reference (may run after the frame is gone)
 *   CNL-T002  function defined in simulation code but never used
 *             anywhere in the scanned tree (opt-in: --dead-symbols)
 *   CNL-A001  malformed cnlint suppression comment
 *
 * Suppression syntax, placed on the offending line or on a
 * comment-only line directly above it:
 *
 *   // cnlint: allow(CNL-D002 wall-clock time is reporting-only here)
 *
 * The rule ID must name a real rule and the reason must be non-empty;
 * anything else is itself a finding (CNL-A001).
 *
 * Scope: D-rules, C-rules, T-rules and S002 apply only to simulation
 * code -- files under src/ -- because benches legitimately read wall
 * clocks, spawn threads, and keep local state unguarded. A file
 * outside src/ can opt in with a `// cnlint: scope(sim)` pragma (the
 * lint-fixture corpus uses this). L-rules key off the file's layer,
 * derived from its src/<dir>/ path or a `// cnlint: layer(<dir>)`
 * pragma. All other rules apply everywhere cnlint looks.
 */

#ifndef CNSIM_TOOLS_CNLINT_CNLINT_HH
#define CNSIM_TOOLS_CNLINT_CNLINT_HH

#include <string>
#include <vector>

namespace cnlint
{

/** One diagnostic: a rule violation at a source location. */
struct Finding
{
    std::string file; //!< path as given to the linter
    int line = 0;     //!< 1-based line number
    int col = 0;      //!< 1-based column number (0 if unknown)
    std::string rule; //!< rule ID, e.g. "CNL-D003"
    std::string message;
};

/** One catalog entry, for --list-rules and ID validation. */
struct RuleInfo
{
    std::string id;
    std::string summary;
    bool sim_scope_only;
};

/** @return the full rule catalog in ID order. */
const std::vector<RuleInfo> &ruleCatalog();

/** @return true if @p id names a cataloged rule. */
bool isKnownRule(const std::string &id);

/**
 * Render @p findings as a SARIF 2.1.0 document (one run, one tool,
 * rule metadata from the catalog). Paths are emitted as given.
 */
std::string renderSarif(const std::vector<Finding> &findings);

/**
 * The linter: add files, then run() once. Rules that need cross-file
 * context (stat registrations for CNL-S002, the include graph for the
 * L-rules, the symbol index for CNL-T002) see every added file, so a
 * whole-tree invocation must add the whole tree before running.
 */
class Linter
{
  public:
    /**
     * Load and pre-process @p path.
     * @return false (with a note on stderr) if the file is unreadable.
     */
    bool addFile(const std::string &path);

    /**
     * Enable CNL-T002 dead-symbol detection. Off by default: dead-code
     * findings only mean something when the whole tree (including the
     * tests that exercise a symbol) has been added.
     */
    void setDeadSymbols(bool enable);

    /** Run every rule over every added file. */
    void run();

    /** Findings sorted by (file, line, col, rule); valid after run(). */
    const std::vector<Finding> &findings() const { return results; }

    /** Number of files successfully added. */
    std::size_t fileCount() const;

    ~Linter();
    Linter();
    Linter(const Linter &) = delete;
    Linter &operator=(const Linter &) = delete;

  private:
    struct Impl;
    Impl *impl;
    std::vector<Finding> results;
};

} // namespace cnlint

#endif // CNSIM_TOOLS_CNLINT_CNLINT_HH
