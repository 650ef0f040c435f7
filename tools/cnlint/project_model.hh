/**
 * @file
 * cnlint's whole-program project model, built once over every scanned
 * file before the rules run. Three indexes live here:
 *
 *  - the include graph, keyed by the last two path components of each
 *    file ("obs/binlog.hh"), with the committed architectural layer
 *    DAG the CNL-L rules enforce against it;
 *  - the class model: every class/struct with its parsed member
 *    declarations (name, type classification, thread-safety
 *    annotations), feeding the CNL-C concurrency rules;
 *  - the symbol index: function definitions, declarations, and use
 *    counts across the tree and per file (including identifiers inside
 *    #define bodies), feeding CNL-T002 dead-symbol detection.
 *
 * The layer DAG is the committed architecture of src/ (DESIGN.md 3k):
 * each directory may include itself, plus exactly the directories
 * listed here. A small set of interface headers (events, packets,
 * coherence states, the warm-up scope) is universal -- includable from
 * any layer -- because they define the vocabulary types the layers
 * trade in; and four point exceptions are grandfathered where a
 * concrete type is needed across an otherwise-forbidden edge.
 */

#ifndef CNSIM_TOOLS_CNLINT_PROJECT_MODEL_HH
#define CNSIM_TOOLS_CNLINT_PROJECT_MODEL_HH

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cnlint/source_model.hh"

namespace cnlint
{

/**
 * @return the committed layer DAG: layer -> directories it may
 * include (besides itself; "common" appears explicitly).
 */
const std::map<std::string, std::set<std::string>> &layerDag();

/** @return interface headers includable from any layer. */
const std::set<std::string> &universalHeaders();

/** @return grandfathered (layer, include-target) point exceptions. */
const std::set<std::pair<std::string, std::string>> &layerExceptions();

/** @return the last two path components of @p path ("obs/binlog.hh"). */
std::string includeKey(const std::string &path);

/** One parsed member declaration of a class body. */
struct MemberDecl
{
    std::string name;
    int line = 0;
    int col = 0;
    bool is_function = false;
    bool is_static = false;
    bool is_const = false;  //!< const or constexpr
    bool is_mutex = false;  //!< type mentions mutex (std:: or cnsim::)
    bool is_atomic = false;
    bool is_cv = false;     //!< condition_variable[_any]
    bool is_thread = false; //!< std::thread / std::jthread
    bool annotated = false; //!< GUARDED_BY / PT_GUARDED_BY / SYNC_NOTE
};

/** One class/struct/union definition with its parsed members. */
struct ClassInfo
{
    std::string name;
    int line = 0;
    const SourceFile *file = nullptr;
    std::vector<MemberDecl> members;
    bool has_mutex = false;
    bool has_atomic = false;
};

/** One function definition found by the symbol index. */
struct SymbolDef
{
    std::string name;
    int line = 0;
    int col = 0;
    const SourceFile *file = nullptr;
    /** Internal linkage: a namespace-scope function of a source file,
     *  in an anonymous namespace or declared static. Only its own
     *  file can use it. */
    bool internal = false;
};

/** The cross-file model every project-level rule consumes. */
struct ProjectModel
{
    std::vector<ClassInfo> classes;

    /** Class names owning a mutex member (their statics are blessed). */
    std::set<std::string> mutex_owning_types;

    /** Function definitions in sim-scope files (CNL-T002 candidates). */
    std::vector<SymbolDef> function_defs;

    /** identifier -> number of *use* appearances across every file. */
    std::map<std::string, int> uses;

    /** The same count per file, for internal-linkage functions. */
    std::map<const SourceFile *, std::map<std::string, int>> file_uses;

    /** include key -> (target include key, line) edges between
     *  scanned files only. */
    std::map<std::string, std::vector<std::pair<std::string, int>>>
        include_graph;

    /** include key -> the scanned file behind it. */
    std::map<std::string, const SourceFile *> file_by_key;

    /** Build every index over @p files. */
    void build(const std::vector<SourceFile> &files);
};

} // namespace cnlint

#endif // CNSIM_TOOLS_CNLINT_PROJECT_MODEL_HH
