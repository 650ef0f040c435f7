/**
 * @file
 * The cnlint rule implementations.
 *
 * Each rule is a pass over a SourceFile's token stream (comments and
 * string literals already blanked). One piece of context is global
 * across every scanned file, so whole-tree invocations build it first:
 * the set of registered stat member names (CNL-S002 accepts
 * registration in the .cc even when the member is declared in the
 * .hh).
 *
 * Every rule is lexical and deliberately conservative: it flags the
 * patterns the codebase actually uses, and intentional exceptions are
 * recorded in-line with an allow directive (syntax in cnlint.hh)
 * rather than by weakening the rule.
 */

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "cnlint/cnlint.hh"
#include "cnlint/project_model.hh"
#include "cnlint/source_model.hh"

namespace cnlint
{

namespace
{

/** Cross-file context shared by all rules. */
struct Context
{
    /** Stat member names passed by address to add{Counter,
     *  Distribution} anywhere in the scanned set. */
    std::set<std::string> registered_stats;
};

using Tokens = std::vector<Token>;

bool
isPunct(const Token &t, const char *p)
{
    return t.kind == TokKind::Punct && t.text == p;
}

bool
isIdent(const Token &t, const char *name)
{
    return t.kind == TokKind::Ident && t.text == name;
}

/**
 * @return index of the matcher for the opener at @p i (tokens[i] must
 * be @p open), or tokens.size() if unbalanced.
 */
std::size_t
matchForward(const Tokens &ts, std::size_t i, const char *open,
             const char *close)
{
    int depth = 0;
    for (std::size_t k = i; k < ts.size(); ++k) {
        if (isPunct(ts[k], open))
            ++depth;
        else if (isPunct(ts[k], close) && --depth == 0)
            return k;
    }
    return ts.size();
}

void
emit(const SourceFile &f, std::vector<Finding> &out, int line, int col,
     const std::string &rule, const std::string &msg)
{
    if (f.isSuppressed(rule, line))
        return;
    out.push_back({f.path, line, col, rule, msg});
}

void
emit(const SourceFile &f, std::vector<Finding> &out, const Token &t,
     const std::string &rule, const std::string &msg)
{
    emit(f, out, t.line, t.col, rule, msg);
}

// --------------------------------------------------------------------
// Global context collection
// --------------------------------------------------------------------

void
collectStatRegistrations(const SourceFile &f, Context &ctx)
{
    static const std::set<std::string> regs = {
        "addCounter", "addDistribution"};
    const Tokens &ts = f.tokens;
    for (std::size_t i = 0; i + 1 < ts.size(); ++i) {
        if (ts[i].kind != TokKind::Ident || !regs.count(ts[i].text) ||
            !isPunct(ts[i + 1], "("))
            continue;
        std::size_t end = matchForward(ts, i + 1, "(", ")");
        for (std::size_t k = i + 2; k < end; ++k) {
            if (!isPunct(ts[k], "&"))
                continue;
            // &ident(.ident | ->ident | ::ident)* -- register the last
            // component ("&stats.n_hits" registers n_hits,
            // "&cls[1]" registers cls).
            std::size_t m = k + 1;
            std::string last;
            while (m < end) {
                if (ts[m].kind == TokKind::Ident) {
                    last = ts[m].text;
                    ++m;
                    if (m < end && isPunct(ts[m], ".")) {
                        ++m;
                    } else if (m + 1 < end &&
                               ((isPunct(ts[m], "-") &&
                                 isPunct(ts[m + 1], ">")) ||
                                (isPunct(ts[m], ":") &&
                                 isPunct(ts[m + 1], ":")))) {
                        m += 2;
                    } else {
                        break;
                    }
                } else {
                    break;
                }
            }
            if (!last.empty())
                ctx.registered_stats.insert(last);
        }
    }
}

// --------------------------------------------------------------------
// D-rules: determinism (sim scope)
// --------------------------------------------------------------------

void
ruleD001BannedRandom(const SourceFile &f, std::vector<Finding> &out)
{
    static const std::set<std::string> always = {
        "random_device", "mt19937",        "mt19937_64",
        "minstd_rand",   "minstd_rand0",   "default_random_engine",
        "ranlux24",      "ranlux48",       "knuth_b",
        "drand48",       "lrand48",        "mrand48",
        "random_shuffle"};
    const Tokens &ts = f.tokens;
    for (std::size_t i = 0; i < ts.size(); ++i) {
        if (ts[i].kind != TokKind::Ident)
            continue;
        bool qualified = i > 0 && isPunct(ts[i - 1], ":");
        bool called = i + 1 < ts.size() && isPunct(ts[i + 1], "(");
        if (always.count(ts[i].text) ||
            ((ts[i].text == "rand" || ts[i].text == "srand") &&
             (qualified || called))) {
            emit(f, out, ts[i], "CNL-D001",
                 "'" + ts[i].text +
                     "' is a nondeterministic/unseeded random source; "
                     "use a cnsim::Rng seeded from the run config");
        }
    }
}

void
ruleD002BannedClock(const SourceFile &f, std::vector<Finding> &out)
{
    static const std::set<std::string> always = {
        "system_clock",  "steady_clock", "high_resolution_clock",
        "gettimeofday",  "clock_gettime", "timespec_get",
        "localtime",     "gmtime",        "mktime"};
    const Tokens &ts = f.tokens;
    for (std::size_t i = 0; i < ts.size(); ++i) {
        if (ts[i].kind != TokKind::Ident)
            continue;
        if (always.count(ts[i].text)) {
            emit(f, out, ts[i], "CNL-D002",
                 "'" + ts[i].text +
                     "' reads host wall-clock state; simulated time "
                     "must come from EventQueue::now()");
            continue;
        }
        if (ts[i].text != "time" && ts[i].text != "clock")
            continue;
        bool member = i > 0 && (isPunct(ts[i - 1], ".") ||
                                (i > 1 && isPunct(ts[i - 1], ">") &&
                                 isPunct(ts[i - 2], "-")));
        if (member)
            continue;
        bool qualified = i > 0 && isPunct(ts[i - 1], ":");
        bool nullary_call =
            i + 2 < ts.size() && isPunct(ts[i + 1], "(") &&
            (isPunct(ts[i + 2], ")") || isIdent(ts[i + 2], "nullptr") ||
             isIdent(ts[i + 2], "NULL") ||
             (ts[i + 2].kind == TokKind::Number && ts[i + 2].text == "0"));
        if (qualified || nullary_call) {
            emit(f, out, ts[i], "CNL-D002",
                 "'" + ts[i].text +
                     "()' reads host wall-clock state; simulated time "
                     "must come from EventQueue::now()");
        }
    }
}

void
ruleD003UnorderedIteration(const SourceFile &f, std::vector<Finding> &out)
{
    const Tokens &ts = f.tokens;
    // Type names that denote unordered containers in this file: the
    // std templates themselves plus any `using X = std::unordered_*`
    // aliases declared here.
    std::set<std::string> unordered_types = {"unordered_map",
                                             "unordered_set",
                                             "unordered_multimap",
                                             "unordered_multiset"};
    for (std::size_t i = 0; i + 2 < ts.size(); ++i) {
        if (isIdent(ts[i], "using") && ts[i + 1].kind == TokKind::Ident &&
            isPunct(ts[i + 2], "=")) {
            for (std::size_t k = i + 3;
                 k < ts.size() && !isPunct(ts[k], ";"); ++k) {
                if (ts[k].kind == TokKind::Ident &&
                    unordered_types.count(ts[k].text)) {
                    unordered_types.insert(ts[i + 1].text);
                    break;
                }
            }
        }
    }
    // Variables declared with an unordered type.
    std::set<std::string> unordered_vars;
    for (std::size_t i = 0; i < ts.size(); ++i) {
        if (ts[i].kind != TokKind::Ident ||
            !unordered_types.count(ts[i].text))
            continue;
        std::size_t j = i + 1;
        if (j < ts.size() && isPunct(ts[j], "<")) {
            int depth = 0;
            for (; j < ts.size(); ++j) {
                if (isPunct(ts[j], "<"))
                    ++depth;
                else if (isPunct(ts[j], ">") && --depth == 0)
                    break;
            }
            ++j;
        }
        if (j < ts.size() && isPunct(ts[j], "&"))
            ++j; // reference parameters still expose unordered order
        if (j < ts.size() && ts[j].kind == TokKind::Ident &&
            !(j + 1 < ts.size() && isPunct(ts[j + 1], "(")))
            unordered_vars.insert(ts[j].text);
    }
    if (unordered_vars.empty())
        return;

    auto flag = [&](const Token &t, const std::string &var) {
        emit(f, out, t, "CNL-D003",
             "iteration over unordered container '" + var +
                 "' makes order depend on the host hash/allocator; use "
                 "FlatMap::forEach + sort, or a sorted container");
    };
    for (std::size_t i = 0; i < ts.size(); ++i) {
        // Range-for whose range expression names an unordered var.
        if (isIdent(ts[i], "for") && i + 1 < ts.size() &&
            isPunct(ts[i + 1], "(")) {
            std::size_t close = matchForward(ts, i + 1, "(", ")");
            std::size_t colon = ts.size();
            for (std::size_t k = i + 2; k < close; ++k) {
                if (isPunct(ts[k], ":") &&
                    !(k + 1 < close && isPunct(ts[k + 1], ":")) &&
                    !(k > 0 && isPunct(ts[k - 1], ":"))) {
                    colon = k;
                    break;
                }
            }
            for (std::size_t k = colon; k < close; ++k) {
                if (ts[k].kind == TokKind::Ident &&
                    unordered_vars.count(ts[k].text)) {
                    flag(ts[k], ts[k].text);
                    break;
                }
            }
        }
        // Explicit iterator walks: var.begin() / var.cbegin() / ...
        if (ts[i].kind == TokKind::Ident &&
            unordered_vars.count(ts[i].text) && i + 2 < ts.size() &&
            isPunct(ts[i + 1], ".") && ts[i + 2].kind == TokKind::Ident) {
            const std::string &m = ts[i + 2].text;
            if (m == "begin" || m == "cbegin" || m == "rbegin" ||
                m == "crbegin")
                flag(ts[i], ts[i].text);
        }
    }
}

void
ruleD004PointerKeyedMap(const SourceFile &f, std::vector<Finding> &out)
{
    static const std::set<std::string> ordered = {"map", "multimap", "set",
                                                  "multiset"};
    const Tokens &ts = f.tokens;
    for (std::size_t i = 2; i + 1 < ts.size(); ++i) {
        if (ts[i].kind != TokKind::Ident || !ordered.count(ts[i].text))
            continue;
        if (!(isPunct(ts[i - 1], ":") && isPunct(ts[i - 2], ":") &&
              i >= 3 && isIdent(ts[i - 3], "std")))
            continue;
        if (!isPunct(ts[i + 1], "<"))
            continue;
        // Scan the key type: the first template argument.
        int depth = 0;
        bool pointer_key = false;
        for (std::size_t k = i + 1; k < ts.size(); ++k) {
            if (isPunct(ts[k], "<")) {
                ++depth;
            } else if (isPunct(ts[k], ">")) {
                if (--depth == 0)
                    break;
            } else if (depth == 1 && isPunct(ts[k], ",")) {
                break;
            } else if (isPunct(ts[k], "*")) {
                pointer_key = true;
            }
        }
        if (pointer_key) {
            emit(f, out, ts[i], "CNL-D004",
                 "std::" + ts[i].text +
                     " keyed by a pointer orders entries by allocation "
                     "address, which varies run to run; key by a stable "
                     "ID instead");
        }
    }
}

// --------------------------------------------------------------------
// S-rules: structural invariants
// --------------------------------------------------------------------

void
ruleS002UnregisteredStat(const SourceFile &f, const Context &ctx,
                         std::vector<Finding> &out)
{
    static const std::set<std::string> stat_types = {"Counter",
                                                     "Distribution"};
    const Tokens &ts = f.tokens;
    for (std::size_t i = 0; i + 2 < ts.size(); ++i) {
        if (ts[i].kind != TokKind::Ident || !stat_types.count(ts[i].text))
            continue;
        if (ts[i].scope != ScopeKind::Class)
            continue;
        // Exclude pointers/references, template arguments, forward
        // declarations and method return types: the pattern is
        // `Counter name ;`, `Counter name [`, or `Counter name {`.
        if (i > 0 && (isIdent(ts[i - 1], "class") ||
                      isIdent(ts[i - 1], "struct") ||
                      isPunct(ts[i - 1], "<")))
            continue;
        const Token &name = ts[i + 1];
        const Token &after = ts[i + 2];
        if (name.kind != TokKind::Ident)
            continue;
        if (!(isPunct(after, ";") || isPunct(after, "[") ||
              isPunct(after, "{")))
            continue;
        if (!ctx.registered_stats.count(name.text)) {
            emit(f, out, name, "CNL-S002",
                 ts[i].text + " member '" + name.text +
                     "' is never registered via addCounter/"
                     "addDistribution, so it is invisible in every "
                     "stats dump");
        }
    }
}

// --------------------------------------------------------------------
// H-rules: header hygiene
// --------------------------------------------------------------------

void
ruleH001UsingNamespace(const SourceFile &f, std::vector<Finding> &out)
{
    const Tokens &ts = f.tokens;
    for (std::size_t i = 0; i + 1 < ts.size(); ++i) {
        if (isIdent(ts[i], "using") && isIdent(ts[i + 1], "namespace")) {
            emit(f, out, ts[i], "CNL-H001",
                 "'using namespace' in a header leaks the namespace "
                 "into every includer");
        }
    }
}

/** Split a directive into whitespace-separated words. */
std::vector<std::string>
words(const std::string &s)
{
    std::vector<std::string> w;
    std::size_t i = 0;
    while (i < s.size()) {
        while (i < s.size() &&
               std::isspace(static_cast<unsigned char>(s[i])))
            ++i;
        std::size_t j = i;
        while (j < s.size() &&
               !std::isspace(static_cast<unsigned char>(s[j])))
            ++j;
        if (j > i)
            w.push_back(s.substr(i, j - i));
        i = j;
    }
    // Normalize "# ifndef" to "#ifndef".
    if (w.size() >= 2 && w[0] == "#") {
        w.erase(w.begin());
        w[0] = "#" + w[0];
    }
    return w;
}

void
ruleH002IncludeGuard(const SourceFile &f, std::vector<Finding> &out)
{
    const auto &dirs = f.directives;
    if (dirs.empty()) {
        emit(f, out, 1, 1, "CNL-H002", "header has no include guard");
        return;
    }
    auto first = words(dirs.front().text);
    int line = dirs.front().line;
    if (first.size() >= 2 && first[0] == "#pragma" && first[1] == "once")
        return;
    if (first.size() < 2 || first[0] != "#ifndef") {
        emit(f, out, line, 1, "CNL-H002",
             "header must open with '#ifndef CNSIM_..._HH' (or #pragma "
             "once) before any other directive");
        return;
    }
    const std::string &guard = first[1];
    if (dirs.size() < 2) {
        emit(f, out, line, 1, "CNL-H002", "include guard is never #defined");
        return;
    }
    auto second = words(dirs[1].text);
    if (second.size() < 2 || second[0] != "#define" ||
        second[1] != guard) {
        emit(f, out, dirs[1].line, 1, "CNL-H002",
             "include-guard #define does not match #ifndef " + guard);
        return;
    }
    bool conforming = guard.rfind("CNSIM_", 0) == 0 &&
                      guard.size() > 9 &&
                      guard.compare(guard.size() - 3, 3, "_HH") == 0;
    if (!conforming) {
        emit(f, out, line, 1, "CNL-H002",
             "guard macro '" + guard +
                 "' does not follow the CNSIM_<PATH>_HH convention");
    }
}

// --------------------------------------------------------------------
// L-rules: architectural layering (whole-program include graph)
// --------------------------------------------------------------------

void
ruleL001LayerViolation(const SourceFile &f, std::vector<Finding> &out)
{
    if (f.layer.empty() || !layerDag().count(f.layer))
        return;
    const auto &allowed = layerDag().at(f.layer);
    for (const auto &inc : f.includes) {
        if (inc.angled)
            continue;
        std::size_t slash = inc.target.find('/');
        if (slash == std::string::npos)
            continue;
        std::string target_layer = inc.target.substr(0, slash);
        if (!layerDag().count(target_layer) || target_layer == f.layer)
            continue; // not a layered include, or intra-layer
        if (allowed.count(target_layer))
            continue;
        if (universalHeaders().count(includeKey(inc.target)))
            continue;
        if (layerExceptions().count({f.layer, includeKey(inc.target)}))
            continue;
        std::string deps;
        for (const auto &d : allowed)
            deps += deps.empty() ? d : ", " + d;
        emit(f, out, inc.line, inc.col, "CNL-L001",
             "include of '" + inc.target +
                 "' violates the committed layer DAG: " + f.layer +
                 " may only depend on {" + deps +
                 "} (plus the universal interface headers)");
    }
}

void
ruleL002IncludeCycle(const ProjectModel &pm, std::vector<Finding> &out)
{
    // Adjacency restricted to scanned files; detection is per-node
    // reachability back to itself (self-includes are 1-cycles).
    std::map<std::string, std::vector<std::string>> adj;
    for (const auto &[key, edges] : pm.include_graph) {
        for (const auto &[tkey, line] : edges) {
            (void)line;
            if (pm.file_by_key.count(tkey))
                adj[key].push_back(tkey);
        }
    }
    auto reaches = [&](const std::string &from, const std::string &to) {
        std::set<std::string> visited;
        std::vector<std::string> stack{from};
        while (!stack.empty()) {
            std::string n = stack.back();
            stack.pop_back();
            if (n == to)
                return true;
            if (!visited.insert(n).second)
                continue;
            auto it = adj.find(n);
            if (it != adj.end())
                for (const auto &m : it->second)
                    stack.push_back(m);
        }
        return false;
    };
    for (const auto &[key, edges] : pm.include_graph) {
        const SourceFile &f = *pm.file_by_key.at(key);
        // Report the first include edge that closes a cycle back to
        // this file; one finding per file keeps N-cycles readable.
        for (const auto &[tkey, line] : edges) {
            if (!pm.file_by_key.count(tkey) || !reaches(tkey, key))
                continue;
            int col = 1;
            for (const auto &inc : f.includes) {
                if (inc.line == line) {
                    col = inc.col;
                    break;
                }
            }
            emit(f, out, line, col, "CNL-L002",
                 "include of '" + tkey +
                     "' closes an include cycle back to '" + key +
                     "'; break the cycle with a forward declaration or "
                     "an interface header");
            break;
        }
    }
}

// --------------------------------------------------------------------
// C-rules: concurrency discipline (sim scope)
// --------------------------------------------------------------------

void
ruleC001UnannotatedMember(const ProjectModel &pm, std::vector<Finding> &out)
{
    for (const auto &ci : pm.classes) {
        if (!ci.file->sim_scope || (!ci.has_mutex && !ci.has_atomic))
            continue;
        for (const auto &m : ci.members) {
            if (m.is_function || m.is_static || m.is_const || m.is_mutex ||
                m.is_atomic || m.is_cv || m.is_thread || m.annotated)
                continue;
            emit(*ci.file, out, m.line, m.col, "CNL-C001",
                 "member '" + m.name + "' of lock/atomic-owning class '" +
                     ci.name +
                     "' has no thread-safety annotation; add "
                     "CNSIM_GUARDED_BY / CNSIM_PT_GUARDED_BY, or document "
                     "the synchronization protocol with CNSIM_SYNC_NOTE");
        }
    }
}

void
ruleC002RawThread(const SourceFile &f, std::vector<Finding> &out)
{
    // The only blessed std::thread owners: the experiment fan-out and
    // the binlog writer. Everything else routes through them.
    if (f.path.find("parallel_runner") != std::string::npos ||
        f.path.find("binlog") != std::string::npos)
        return;
    const Tokens &ts = f.tokens;
    for (std::size_t i = 3; i < ts.size(); ++i) {
        if (ts[i].kind != TokKind::Ident ||
            (ts[i].text != "thread" && ts[i].text != "jthread"))
            continue;
        if (!(isPunct(ts[i - 1], ":") && isPunct(ts[i - 2], ":") &&
              isIdent(ts[i - 3], "std")))
            continue;
        emit(f, out, ts[i], "CNL-C002",
             "raw std::thread outside the blessed owners "
             "(ParallelRunner, BinlogWriter); route concurrency through "
             "them so shutdown, affinity, and determinism stay in one "
             "place");
    }
}

void
ruleC003MutableStatic(const SourceFile &f, const ProjectModel &pm,
                      std::vector<Finding> &out)
{
    const Tokens &ts = f.tokens;
    for (std::size_t i = 0; i < ts.size(); ++i) {
        if (!isIdent(ts[i], "static"))
            continue;
        if (ts[i].scope == ScopeKind::Class ||
            ts[i].scope == ScopeKind::Enum)
            continue; // class statics are CNL-C001's problem
        bool exempt = false;
        bool is_func = false;
        int adepth = 0;
        const Token *name = nullptr;
        for (std::size_t j = i + 1; j < ts.size(); ++j) {
            const Token &t = ts[j];
            if (t.kind == TokKind::Punct) {
                if (t.text == "<") {
                    ++adepth;
                } else if (t.text == ">") {
                    adepth = std::max(0, adepth - 1);
                } else if (adepth == 0) {
                    if (t.text == "(") {
                        is_func = true;
                        break;
                    }
                    if (t.text == ";" || t.text == "=" || t.text == "{" ||
                        t.text == "[")
                        break;
                }
                continue;
            }
            if (t.kind != TokKind::Ident)
                continue;
            if (t.text == "const" || t.text == "constexpr" ||
                t.text == "thread_local")
                exempt = true;
            else if (t.text.rfind("atomic", 0) == 0 ||
                     t.text == "Mutex" ||
                     t.text.find("mutex") != std::string::npos)
                exempt = true;
            else if (pm.mutex_owning_types.count(t.text))
                exempt = true; // a type that locks all its state
            if (adepth == 0)
                name = &t;
        }
        if (is_func || exempt || !name)
            continue;
        emit(f, out, *name, "CNL-C003",
             "mutable static '" + name->text +
                 "' is shared unsynchronized state; make it "
                 "const/constexpr, std::atomic, or wrap it in a type "
                 "whose mutex guards every member");
    }
}

// --------------------------------------------------------------------
// T-rules: lifetime and liveness
// --------------------------------------------------------------------

void
ruleT001DanglingCapture(const SourceFile &f, std::vector<Finding> &out)
{
    const Tokens &ts = f.tokens;
    for (std::size_t i = 1; i + 1 < ts.size(); ++i) {
        bool member_call =
            isIdent(ts[i], "schedule") && isPunct(ts[i + 1], "(") &&
            (isPunct(ts[i - 1], ".") ||
             (i >= 2 && isPunct(ts[i - 1], ">") && isPunct(ts[i - 2], "-")));
        if (!member_call)
            continue;
        // The receiver (the queue itself) outlives its events, so
        // capturing it by reference is the one blessed '&' capture.
        std::string receiver;
        std::size_t r = isPunct(ts[i - 1], ".") ? i - 2 : i - 3;
        if (r < ts.size() && ts[r].kind == TokKind::Ident)
            receiver = ts[r].text;
        std::size_t close = matchForward(ts, i + 1, "(", ")");
        for (std::size_t k = i + 2; k < close; ++k) {
            if (!isPunct(ts[k], "["))
                continue;
            std::size_t rb = matchForward(ts, k, "[", "]");
            if (rb >= close || rb + 1 >= ts.size() ||
                !(isPunct(ts[rb + 1], "(") || isPunct(ts[rb + 1], "{"))) {
                k = rb;
                continue; // subscript, not a lambda introducer
            }
            for (std::size_t m = k + 1; m < rb; ++m) {
                if (!isPunct(ts[m], "&"))
                    continue;
                const Token &n = ts[m + 1];
                if (n.kind == TokKind::Ident && n.text != receiver) {
                    emit(f, out, ts[m], "CNL-T001",
                         "EventQueue callable captures '&" + n.text +
                             "'; the event may run after the capturing "
                             "frame is gone -- capture by value or "
                             "capture a long-lived owner");
                } else if (isPunct(n, "]") || isPunct(n, ",")) {
                    emit(f, out, ts[m], "CNL-T001",
                         "EventQueue callable uses a default "
                         "by-reference capture '[&]'; events outlive "
                         "frames, so captures must be explicit and "
                         "by value (or the queue itself)");
                }
            }
            k = rb;
        }
    }
}

void
ruleT002DeadSymbol(const ProjectModel &pm, std::vector<Finding> &out)
{
    std::set<std::pair<const SourceFile *, int>> seen;
    for (const auto &d : pm.function_defs) {
        // An internal-linkage function is reachable only from its own
        // file, so a same-named use elsewhere does not keep it alive.
        const auto &uses = d.internal ? pm.file_uses.at(d.file) : pm.uses;
        auto it = uses.find(d.name);
        if (it != uses.end() && it->second > 0)
            continue;
        if (!seen.insert({d.file, d.line}).second)
            continue;
        emit(*d.file, out, d.line, d.col, "CNL-T002",
             "function '" + d.name + "' is defined but never used " +
                 (d.internal ? "in its own file (it has internal linkage)"
                             : "anywhere in the scanned tree") +
                 "; delete it or add the caller that was meant to exist");
    }
}

void
ruleA001MalformedDirective(const SourceFile &f, std::vector<Finding> &out)
{
    for (const auto &a : f.allows) {
        if (a.malformed)
            emit(f, out, a.line, 1, "CNL-A001",
                 "malformed cnlint directive: " + a.error);
    }
}

} // namespace

// --------------------------------------------------------------------
// Catalog and Linter driver
// --------------------------------------------------------------------

const std::vector<RuleInfo> &
ruleCatalog()
{
    static const std::vector<RuleInfo> catalog = {
        {"CNL-A001", "malformed cnlint suppression comment", false},
        {"CNL-C001",
         "mutable member of a lock/atomic-owning class lacks a "
         "thread-safety annotation",
         true},
        {"CNL-C002",
         "raw std::thread outside ParallelRunner/BinlogWriter", true},
        {"CNL-C003", "unannotated mutable static", true},
        {"CNL-D001",
         "banned random source; use a seeded cnsim::Rng", true},
        {"CNL-D002",
         "banned wall-clock source; use EventQueue::now()", true},
        {"CNL-D003",
         "iteration over std::unordered_{map,set} leaks hash order",
         true},
        {"CNL-D004", "pointer-keyed std::map/std::set", true},
        {"CNL-S002", "Counter/Distribution member never "
                     "registered with a StatGroup",
         true},
        {"CNL-H001", "'using namespace' in a header", false},
        {"CNL-H002", "missing or malformed include guard", false},
        {"CNL-L001",
         "include edge not permitted by the committed layer DAG", false},
        {"CNL-L002", "include cycle among the scanned files", false},
        {"CNL-T001",
         "EventQueue callable captures a stack local by reference", true},
        {"CNL-T002",
         "function defined but never used in the scanned tree, or in its "
         "own file when internal (--dead-symbols)",
         true},
    };
    return catalog;
}

bool
isKnownRule(const std::string &id)
{
    for (const auto &r : ruleCatalog())
        if (r.id == id)
            return true;
    return false;
}

struct Linter::Impl
{
    std::vector<SourceFile> files;
    Context ctx;
    ProjectModel pm;
    bool dead_symbols = false;
};

void
Linter::setDeadSymbols(bool enable)
{
    impl->dead_symbols = enable;
}

Linter::Linter() : impl(new Impl) {}

Linter::~Linter()
{
    delete impl;
}

std::size_t
Linter::fileCount() const
{
    return impl->files.size();
}

bool
Linter::addFile(const std::string &path)
{
    SourceFile f;
    if (!f.load(path))
        return false;
    impl->files.push_back(std::move(f));
    return true;
}

void
Linter::run()
{
    results.clear();
    impl->ctx = Context{};
    impl->pm.build(impl->files);
    for (const auto &f : impl->files)
        collectStatRegistrations(f, impl->ctx);
    for (const auto &f : impl->files) {
        ruleA001MalformedDirective(f, results);
        if (f.sim_scope) {
            ruleD001BannedRandom(f, results);
            ruleD002BannedClock(f, results);
            ruleD003UnorderedIteration(f, results);
            ruleD004PointerKeyedMap(f, results);
            ruleS002UnregisteredStat(f, impl->ctx, results);
            ruleC002RawThread(f, results);
            ruleC003MutableStatic(f, impl->pm, results);
            ruleT001DanglingCapture(f, results);
        }
        if (f.header) {
            ruleH001UsingNamespace(f, results);
            ruleH002IncludeGuard(f, results);
        }
        ruleL001LayerViolation(f, results);
    }
    ruleL002IncludeCycle(impl->pm, results);
    ruleC001UnannotatedMember(impl->pm, results);
    if (impl->dead_symbols)
        ruleT002DeadSymbol(impl->pm, results);
    std::sort(results.begin(), results.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  if (a.col != b.col)
                      return a.col < b.col;
                  return a.rule < b.rule;
              });
}

} // namespace cnlint
