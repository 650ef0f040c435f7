#include "cnlint/project_model.hh"

#include <algorithm>
#include <cctype>

namespace cnlint
{

namespace
{

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

bool
isAnnotationIdent(const std::string &t)
{
    return t == "CNSIM_GUARDED_BY" || t == "CNSIM_PT_GUARDED_BY" ||
           t == "CNSIM_SYNC_NOTE";
}

bool
isClassKeyword(const std::string &t)
{
    return t == "class" || t == "struct" || t == "union";
}

/**
 * Parse one member statement (token indices into @p ts, nested brace
 * groups already excluded) into a MemberDecl. @p brace_marker is the
 * position within @p stmt where a brace group was skipped, or -1.
 * @return false for statements that declare no member (nested types,
 * using-declarations, access labels, ...).
 */
bool
parseMemberStatement(const Tokens &ts, std::vector<std::size_t> &stmt,
                     long brace_marker, MemberDecl &m)
{
    // Strip access-specifier labels.
    while (stmt.size() >= 2 && ts[stmt[0]].kind == TokKind::Ident &&
           (ts[stmt[0]].text == "public" || ts[stmt[0]].text == "private" ||
            ts[stmt[0]].text == "protected") &&
           isPunct(ts[stmt[1]], ":")) {
        stmt.erase(stmt.begin(), stmt.begin() + 2);
        if (brace_marker >= 0)
            brace_marker -= 2;
    }
    if (stmt.empty())
        return false;
    const Token &first = ts[stmt[0]];
    if (first.kind == TokKind::Ident &&
        (first.text == "using" || first.text == "typedef" ||
         first.text == "friend" || first.text == "template" ||
         first.text == "static_assert" || first.text == "enum"))
        return false;
    for (std::size_t s : stmt) {
        if (ts[s].kind == TokKind::Ident &&
            (isClassKeyword(ts[s].text) || ts[s].text == "operator"))
            return false; // nested type or operator overload
    }

    // Locate the first top-level annotation macro, '(', '=' and '['
    // (template angle brackets don't nest parens in member decls often
    // enough to matter, but track them anyway).
    std::size_t n = stmt.size();
    std::size_t annot = n, paren = n, eq = n, bracket = n;
    int adepth = 0;
    for (std::size_t s = 0; s < n; ++s) {
        const Token &t = ts[stmt[s]];
        if (t.kind == TokKind::Ident && isAnnotationIdent(t.text)) {
            if (annot == n)
                annot = s;
        } else if (t.kind == TokKind::Punct) {
            if (t.text == "<") {
                ++adepth;
            } else if (t.text == ">") {
                adepth = std::max(0, adepth - 1);
            } else if (adepth == 0) {
                if (t.text == "(" && paren == n)
                    paren = s;
                else if (t.text == "=" && eq == n)
                    eq = s;
                else if (t.text == "[" && bracket == n)
                    bracket = s;
            }
        }
    }

    // Function (or constructor) if a top-level '(' appears before any
    // annotation macro and before any initializer: `void f() REQ(m);`
    // is a function, `T x GUARDED(m);` and `int x = f();` are members.
    if (paren < n && paren < annot && paren < eq) {
        m.is_function = true;
        if (paren > 0 && ts[stmt[paren - 1]].kind == TokKind::Ident) {
            const Token &nt = ts[stmt[paren - 1]];
            m.name = nt.text;
            m.line = nt.line;
            m.col = nt.col;
        }
        return !m.name.empty();
    }

    // Member: the declared name is the last identifier before the
    // initializer / array bound / annotation / skipped brace group.
    std::size_t limit = std::min({annot, eq, bracket, n});
    if (brace_marker >= 0)
        limit = std::min(limit, static_cast<std::size_t>(brace_marker));
    std::size_t name_pos = n;
    for (std::size_t s = 0; s < limit; ++s) {
        if (ts[stmt[s]].kind == TokKind::Ident)
            name_pos = s;
    }
    if (name_pos == n)
        return false;
    const Token &nt = ts[stmt[name_pos]];
    m.name = nt.text;
    m.line = nt.line;
    m.col = nt.col;
    m.annotated = annot < n;
    for (std::size_t s = 0; s < name_pos; ++s) {
        const Token &t = ts[stmt[s]];
        if (t.kind != TokKind::Ident)
            continue;
        if (t.text == "static")
            m.is_static = true;
        else if (t.text == "const" || t.text == "constexpr")
            m.is_const = true;
        else if (t.text == "Mutex" ||
                 t.text.find("mutex") != std::string::npos)
            m.is_mutex = true;
        else if (t.text.rfind("atomic", 0) == 0)
            m.is_atomic = true;
        else if (t.text.rfind("condition_variable", 0) == 0)
            m.is_cv = true;
        else if (t.text == "thread" || t.text == "jthread")
            m.is_thread = true;
    }
    return true;
}

void
parseClassBody(const SourceFile &f, std::size_t open, std::size_t close,
               ClassInfo &ci)
{
    const Tokens &ts = f.tokens;
    std::vector<std::size_t> stmt;
    long brace_marker = -1;
    auto flush = [&]() {
        MemberDecl m;
        if (parseMemberStatement(ts, stmt, brace_marker, m))
            ci.members.push_back(std::move(m));
        stmt.clear();
        brace_marker = -1;
    };
    for (std::size_t k = open + 1; k < close; ++k) {
        const Token &t = ts[k];
        if (isPunct(t, "{")) {
            std::size_t end = matchForward(ts, k, "{", "}");
            if (brace_marker < 0)
                brace_marker = static_cast<long>(stmt.size());
            if (!(end + 1 < close && isPunct(ts[end + 1], ";"))) {
                // Function body or nested definition without a
                // trailing ';' -- the statement ends here.
                flush();
            }
            k = end;
            continue;
        }
        if (isPunct(t, ";")) {
            flush();
            continue;
        }
        stmt.push_back(k);
    }
    if (!stmt.empty())
        flush();
    for (const auto &m : ci.members) {
        if (m.is_function)
            continue;
        ci.has_mutex = ci.has_mutex || m.is_mutex;
        ci.has_atomic = ci.has_atomic || m.is_atomic;
    }
}

void
collectClasses(const SourceFile &f, ProjectModel &pm)
{
    const Tokens &ts = f.tokens;
    for (std::size_t i = 0; i < ts.size(); ++i) {
        if (ts[i].kind != TokKind::Ident || !isClassKeyword(ts[i].text))
            continue;
        if (i > 0 && (isPunct(ts[i - 1], "<") || isPunct(ts[i - 1], ",") ||
                      isIdent(ts[i - 1], "enum")))
            continue; // template parameter or scoped enum
        std::size_t j = i + 1;
        // Skip attribute macros between the keyword and the name:
        // `class CNSIM_CAPABILITY("mutex") Mutex`.
        while (j < ts.size() && ts[j].kind == TokKind::Ident &&
               ts[j].text.rfind("CNSIM_", 0) == 0) {
            if (j + 1 < ts.size() && isPunct(ts[j + 1], "("))
                j = matchForward(ts, j + 1, "(", ")") + 1;
            else
                ++j;
        }
        if (j >= ts.size() || ts[j].kind != TokKind::Ident)
            continue; // anonymous
        ClassInfo ci;
        ci.name = ts[j].text;
        ci.line = ts[j].line;
        ci.file = &f;
        ++j;
        if (j < ts.size() && isIdent(ts[j], "final"))
            ++j;
        // Scan past a base clause to the body; ';', '(' or '=' first
        // means forward declaration / elaborated type / alias.
        while (j < ts.size() && !isPunct(ts[j], "{") &&
               !isPunct(ts[j], ";") && !isPunct(ts[j], "(") &&
               !isPunct(ts[j], "="))
            ++j;
        if (j >= ts.size() || !isPunct(ts[j], "{"))
            continue;
        std::size_t end = matchForward(ts, j, "{", "}");
        parseClassBody(f, j, end, ci);
        if (ci.has_mutex)
            pm.mutex_owning_types.insert(ci.name);
        pm.classes.push_back(std::move(ci));
    }
}

/** Keywords that look like calls but never name project symbols. */
const std::set<std::string> &
symbolKeywords()
{
    static const std::set<std::string> kw = {
        "if",        "for",      "while",    "switch",    "return",
        "sizeof",    "alignof",  "alignas",  "decltype",  "catch",
        "throw",     "new",      "delete",   "operator",  "assert",
        "defined",   "int",      "char",     "bool",      "float",
        "double",    "void",     "unsigned", "signed",    "long",
        "short",     "auto",     "constexpr", "const",    "static",
        "noexcept",  "explicit", "inline",    "virtual",  "override",
        "final",     "typename", "template",  "typeid",
        "static_cast",           "dynamic_cast",
        "const_cast",            "reinterpret_cast",
        "static_assert",
    };
    return kw;
}

/**
 * Per token of @p ts: does it sit inside an anonymous namespace? A
 * namespace-scope function there has internal linkage.
 */
std::vector<bool>
anonymousNamespaceTokens(const Tokens &ts)
{
    std::vector<bool> anon(ts.size(), false);
    std::vector<bool> opens; // per open brace: an anonymous namespace?
    int depth = 0;
    for (std::size_t i = 0; i < ts.size(); ++i) {
        anon[i] = depth > 0;
        if (isPunct(ts[i], "{")) {
            bool a = i > 0 && isIdent(ts[i - 1], "namespace");
            opens.push_back(a);
            depth += a;
        } else if (isPunct(ts[i], "}") && !opens.empty()) {
            depth -= opens.back();
            opens.pop_back();
        }
    }
    return anon;
}

/** True when the declaration whose name is token @p i says `static`. */
bool
declaredStatic(const Tokens &ts, std::size_t i)
{
    while (i > 0) {
        const Token &t = ts[--i];
        if (isPunct(t, ";") || isPunct(t, "{") || isPunct(t, "}"))
            return false;
        if (isIdent(t, "static"))
            return true;
    }
    return false;
}

void
indexSymbols(const SourceFile &f, ProjectModel &pm)
{
    const Tokens &ts = f.tokens;
    std::map<std::string, int> &local = pm.file_uses[&f];
    const std::vector<bool> anon = anonymousNamespaceTokens(ts);
    for (std::size_t i = 0; i < ts.size(); ++i) {
        const Token &t = ts[i];
        if (t.kind != TokKind::Ident)
            continue;
        if (symbolKeywords().count(t.text))
            continue;
        if (t.text.rfind("CNSIM_", 0) == 0)
            continue; // annotation macro between ')' and '{', not a def
        if (i > 0 && isPunct(ts[i - 1], "~"))
            continue; // destructor
        auto use = [&]() {
            ++pm.uses[t.text];
            ++local[t.text];
        };
        if (i + 1 >= ts.size() || !isPunct(ts[i + 1], "(")) {
            use();
            continue;
        }
        bool member_access =
            i > 0 && (isPunct(ts[i - 1], ".") ||
                      (i > 1 && isPunct(ts[i - 1], ">") &&
                       isPunct(ts[i - 2], "-")));
        if (member_access || t.scope == ScopeKind::Block ||
            t.scope == ScopeKind::Enum) {
            use();
            continue;
        }
        // File/Class scope `ident(...)`: a declaration, a definition,
        // or (in an initializer) a call. Calls are recognized by the
        // expression context on the left.
        if (i > 0 && ts[i - 1].kind == TokKind::Punct) {
            const std::string &p = ts[i - 1].text;
            if (p == "=" || p == "," || p == "(" || p == "!" ||
                p == "?" || p == "+" || p == "/" || p == "%" ||
                p == "|" || p == "^") {
                use();
                continue;
            }
        }
        if (i > 0 && isIdent(ts[i - 1], "return")) {
            use();
            continue;
        }
        std::size_t close = matchForward(ts, i + 1, "(", ")");
        bool definition = false;
        for (std::size_t k = close + 1; k < ts.size(); ++k) {
            if (isPunct(ts[k], "{")) {
                definition = true;
                break;
            }
            if (isPunct(ts[k], ";") || isPunct(ts[k], ",") ||
                isPunct(ts[k], "="))
                break;
            // Trailing specifiers, attribute macros, constructor
            // initializer lists: skip their parenthesized groups.
            if (isPunct(ts[k], "("))
                k = matchForward(ts, k, "(", ")");
        }
        if (definition && f.sim_scope && t.text != "main") {
            // A header's internal functions serve every includer, so
            // only a source file's are counted file-locally.
            bool internal = !f.header && t.scope == ScopeKind::File &&
                            (anon[i] || declaredStatic(ts, i));
            pm.function_defs.push_back({t.text, t.line, t.col, &f,
                                        internal});
        }
        // Declarations and definitions are not uses.
    }

    // Identifiers inside #define bodies are uses too (cnsim_assert's
    // body is the only caller panic() needs). The macro's own
    // parameters are counted as well -- harmlessly conservative.
    for (const auto &d : f.directives) {
        std::size_t w0 = d.text.find_first_not_of("# \t");
        if (w0 == std::string::npos ||
            d.text.compare(w0, 6, "define") != 0)
            continue;
        std::size_t p = w0 + 6;
        // Skip the macro's own name.
        while (p < d.text.size() && d.text[p] == ' ')
            ++p;
        while (p < d.text.size() &&
               (std::isalnum(static_cast<unsigned char>(d.text[p])) ||
                d.text[p] == '_'))
            ++p;
        while (p < d.text.size()) {
            char c = d.text[p];
            if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
                std::size_t q = p;
                while (q < d.text.size() &&
                       (std::isalnum(
                            static_cast<unsigned char>(d.text[q])) ||
                        d.text[q] == '_'))
                    ++q;
                std::string name = d.text.substr(p, q - p);
                ++pm.uses[name];
                ++local[name];
                p = q;
            } else {
                ++p;
            }
        }
    }
}

} // namespace

const std::map<std::string, std::set<std::string>> &
layerDag()
{
    // The committed architecture of src/ (DESIGN.md 3k). Keys are the
    // layer directories; values are the directories each may include
    // besides itself. Every layer may use common; only sim may use
    // everything (it owns composition).
    static const std::map<std::string, std::set<std::string>> dag = {
        {"common", {}},
        {"cache", {"common", "mem"}},
        {"core", {"common", "trace"}},
        {"l2", {"common", "cache", "mem"}},
        {"mem", {"common"}},
        {"nurapid", {"common", "cache", "l2", "mem"}},
        {"cactilite", {"common"}},
        {"trace", {"common"}},
        {"sample", {"common"}},
        {"obs", {"common"}},
        {"sim",
         {"common", "cache", "core", "l2", "mem", "nurapid", "cactilite",
          "trace", "sample", "obs"}},
        // The sweep layer sits above sim: it composes whole runs into
        // sweeps, so it may use the composition layer itself (and
        // reaches trace/workload vocabulary through sim's headers).
        {"farm", {"common", "sim", "sample"}},
    };
    return dag;
}

const std::set<std::string> &
universalHeaders()
{
    // Interface vocabulary: plain-data types every layer trades in.
    static const std::set<std::string> uni = {
        "cache/coh_state.hh", "mem/packet.hh",     "trace/trace.hh",
        "obs/event.hh",       "obs/trace_sink.hh", "obs/metrics.hh",
        "sample/warm.hh",
    };
    return uni;
}

const std::set<std::pair<std::string, std::string>> &
layerExceptions()
{
    // Grandfathered point edges; add here only with a DESIGN.md note.
    static const std::set<std::pair<std::string, std::string>> ex = {
        {"core", "sim/event_queue.hh"},
        {"core", "sim/system.hh"},
        {"core", "sample/checkpoint.hh"},
        {"cactilite", "nurapid/pref_table.hh"},
    };
    return ex;
}

std::string
includeKey(const std::string &path)
{
    std::size_t last = path.rfind('/');
    if (last == std::string::npos)
        return path;
    std::size_t prev = path.rfind('/', last - 1);
    return prev == std::string::npos ? path : path.substr(prev + 1);
}

void
ProjectModel::build(const std::vector<SourceFile> &files)
{
    classes.clear();
    mutex_owning_types.clear();
    function_defs.clear();
    uses.clear();
    file_uses.clear();
    include_graph.clear();
    file_by_key.clear();
    for (const auto &f : files) {
        std::string key = includeKey(f.path);
        if (!file_by_key.count(key))
            file_by_key.emplace(key, &f);
        auto &edges = include_graph[key];
        for (const auto &inc : f.includes)
            edges.emplace_back(includeKey(inc.target), inc.line);
    }
    for (const auto &f : files) {
        collectClasses(f, *this);
        indexSymbols(f, *this);
    }
}

} // namespace cnlint
