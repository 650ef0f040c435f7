#include "cnlint/source_model.hh"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

#include "cnlint/cnlint.hh"

namespace cnlint
{

namespace
{

bool
identChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool
identStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

/** @return true if @p s ends with @p suffix. */
bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/** @return the path component following "src/", or "". */
std::string
layerFromPath(const std::string &p)
{
    std::size_t pos = p.rfind("/src/");
    std::size_t start;
    if (pos != std::string::npos)
        start = pos + 5;
    else if (p.rfind("src/", 0) == 0)
        start = 4;
    else
        return "";
    std::size_t slash = p.find('/', start);
    if (slash == std::string::npos)
        return ""; // a file directly under src/ has no layer directory
    return p.substr(start, slash - start);
}

} // namespace

bool
SourceFile::load(const std::string &p)
{
    path = p;
    std::ifstream in(p, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    raw = ss.str();

    header = endsWith(p, ".hh") || endsWith(p, ".h") || endsWith(p, ".hpp");
    // Simulation scope: anything under a src/ directory. The path may
    // be given relative ("src/...") or absolute ("/x/repo/src/...").
    sim_scope = raw.npos != p.find("/src/") || p.rfind("src/", 0) == 0;
    layer = layerFromPath(p);

    line_starts.clear();
    line_starts.push_back(0);
    for (std::size_t i = 0; i < raw.size(); ++i)
        if (raw[i] == '\n')
            line_starts.push_back(i + 1);

    blankCommentsAndStrings();
    tokenize();
    assignScopes();
    collectDirectives();
    parseDirectives();
    return true;
}

int
SourceFile::lineOf(std::size_t off) const
{
    auto it = std::upper_bound(line_starts.begin(), line_starts.end(), off);
    return static_cast<int>(it - line_starts.begin());
}

int
SourceFile::colOf(std::size_t off) const
{
    int line = lineOf(off);
    return static_cast<int>(off - line_starts[line - 1]) + 1;
}

bool
SourceFile::isSuppressed(const std::string &rule, int line) const
{
    auto it = suppressed.find(rule);
    return it != suppressed.end() && it->second.count(line) != 0;
}

bool
SourceFile::lineIsCodeFree(int line) const
{
    if (line < 1 || static_cast<std::size_t>(line) > line_starts.size())
        return true;
    std::size_t begin = line_starts[line - 1];
    std::size_t end = static_cast<std::size_t>(line) < line_starts.size()
                          ? line_starts[line]
                          : code.size();
    for (std::size_t i = begin; i < end && i < code.size(); ++i) {
        char c = code[i];
        if (!std::isspace(static_cast<unsigned char>(c)))
            return false;
    }
    return true;
}

void
SourceFile::blankCommentsAndStrings()
{
    code = raw;
    enum class St
    {
        Code,
        LineComment,
        BlockComment,
        String,
        Char,
        RawString,
    };
    St st = St::Code;
    std::string raw_delim; // for R"delim( ... )delim"
    for (std::size_t i = 0; i < code.size(); ++i) {
        char c = code[i];
        char n = i + 1 < code.size() ? code[i + 1] : '\0';
        switch (st) {
        case St::Code:
            if (c == '/' && n == '/') {
                st = St::LineComment;
                code[i] = code[i + 1] = ' ';
                ++i;
            } else if (c == '/' && n == '*') {
                st = St::BlockComment;
                code[i] = code[i + 1] = ' ';
                ++i;
            } else if (c == 'R' && n == '"' &&
                       (i == 0 || !identChar(code[i - 1]))) {
                // Raw string: capture the delimiter up to '('.
                std::size_t j = i + 2;
                raw_delim.clear();
                while (j < code.size() && code[j] != '(' &&
                       raw_delim.size() < 16)
                    raw_delim.push_back(code[j++]);
                st = St::RawString;
                for (std::size_t k = i; k <= j && k < code.size(); ++k)
                    code[k] = ' ';
                i = j;
            } else if (c == '"') {
                st = St::String;
                code[i] = ' ';
            } else if (c == '\'' && !(i > 0 && identChar(code[i - 1]))) {
                // Exclude digit separators (1'000'000).
                st = St::Char;
                code[i] = ' ';
            }
            break;
        case St::LineComment:
            if (c == '\n')
                st = St::Code;
            else
                code[i] = ' ';
            break;
        case St::BlockComment:
            if (c == '*' && n == '/') {
                code[i] = code[i + 1] = ' ';
                ++i;
                st = St::Code;
            } else if (c != '\n') {
                code[i] = ' ';
            }
            break;
        case St::String:
            if (c == '\\' && n != '\0') {
                code[i] = ' ';
                if (n != '\n')
                    code[i + 1] = ' ';
                ++i;
            } else if (c == '"') {
                code[i] = ' ';
                st = St::Code;
            } else if (c != '\n') {
                code[i] = ' ';
            }
            break;
        case St::Char:
            if (c == '\\' && n != '\0') {
                code[i] = code[i + 1] = ' ';
                ++i;
            } else if (c == '\'') {
                code[i] = ' ';
                st = St::Code;
            } else if (c != '\n') {
                code[i] = ' ';
            }
            break;
        case St::RawString: {
            std::string close = ")" + raw_delim + "\"";
            if (code.compare(i, close.size(), close) == 0) {
                for (std::size_t k = 0; k < close.size(); ++k)
                    code[i + k] = ' ';
                i += close.size() - 1;
                st = St::Code;
            } else if (c != '\n') {
                code[i] = ' ';
            }
            break;
        }
        }
    }
}

void
SourceFile::tokenize()
{
    tokens.clear();
    bool line_continues = false; // previous line ended with backslash
    bool in_directive = false;   // inside a preprocessor line
    for (std::size_t i = 0; i < code.size();) {
        char c = code[i];
        if (c == '\n') {
            if (!line_continues)
                in_directive = false;
            line_continues = false;
            ++i;
            continue;
        }
        if (c == '\\' && i + 1 < code.size() && code[i + 1] == '\n') {
            line_continues = true;
            i += 2;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
            continue;
        }
        // Preprocessor lines are not code tokens for the rules (an
        // #include <unordered_map> must not trip CNL-D003); H-rules
        // and the symbol index read the cached directive lines.
        if (c == '#') {
            in_directive = true;
            ++i;
            continue;
        }
        if (in_directive) {
            ++i;
            continue;
        }
        int line = lineOf(i);
        int col = colOf(i);
        if (identStart(c)) {
            std::size_t j = i;
            while (j < code.size() && identChar(code[j]))
                ++j;
            tokens.push_back(
                {TokKind::Ident, code.substr(i, j - i), line, col,
                 ScopeKind::File});
            i = j;
        } else if (std::isdigit(static_cast<unsigned char>(c))) {
            std::size_t j = i;
            while (j < code.size() &&
                   (identChar(code[j]) || code[j] == '.' || code[j] == '\''))
                ++j;
            tokens.push_back(
                {TokKind::Number, code.substr(i, j - i), line, col,
                 ScopeKind::File});
            i = j;
        } else {
            tokens.push_back({TokKind::Punct, std::string(1, c), line, col,
                              ScopeKind::File});
            ++i;
        }
    }
}

void
SourceFile::assignScopes()
{
    // A pending class/struct/union or enum keyword turns the next `{`
    // into a Class/Enum scope; a `;`, `(` or `=` before the brace
    // cancels it (forward declarations, elaborated parameter types,
    // alias initializers). Base-clause `:` and template `<...>` pass
    // through, so `class X : public A, public B {` still opens a Class
    // scope. Attribute macros between the keyword and the name --
    // `class CNSIM_CAPABILITY("mutex") Mutex {` -- are skipped so
    // their parentheses don't read as a cancellation.
    enum class Pending
    {
        None,
        Class,
        Enum,
        Namespace,
    };
    Pending pending = Pending::None;
    std::vector<ScopeKind> stack;
    for (std::size_t idx = 0; idx < tokens.size(); ++idx) {
        Token &t = tokens[idx];
        t.scope = stack.empty() ? ScopeKind::File : stack.back();
        if (t.kind == TokKind::Ident) {
            if (pending != Pending::None &&
                t.text.rfind("CNSIM_", 0) == 0 && idx + 1 < tokens.size() &&
                tokens[idx + 1].kind == TokKind::Punct &&
                tokens[idx + 1].text == "(") {
                // Skip the attribute macro's argument list.
                int depth = 0;
                std::size_t k = idx + 1;
                for (; k < tokens.size(); ++k) {
                    tokens[k].scope = t.scope;
                    if (tokens[k].kind != TokKind::Punct)
                        continue;
                    if (tokens[k].text == "(")
                        ++depth;
                    else if (tokens[k].text == ")" && --depth == 0)
                        break;
                }
                idx = k;
                continue;
            }
            if (t.text == "class" || t.text == "struct" ||
                t.text == "union") {
                // `enum class` stays an enum; `template <class T>`'s
                // keyword (preceded by '<' or ',') is a type
                // parameter, not a definition.
                const Token *prev = idx > 0 ? &tokens[idx - 1] : nullptr;
                bool tparam = prev && prev->kind == TokKind::Punct &&
                              (prev->text == "<" || prev->text == ",");
                if (pending != Pending::Enum && !tparam)
                    pending = Pending::Class;
            } else if (t.text == "enum") {
                pending = Pending::Enum;
            } else if (t.text == "namespace") {
                pending = Pending::Namespace;
            }
        } else if (t.kind == TokKind::Punct) {
            if (t.text == "{") {
                stack.push_back(pending == Pending::Class ? ScopeKind::Class
                                : pending == Pending::Enum
                                    ? ScopeKind::Enum
                                : pending == Pending::Namespace
                                    ? ScopeKind::File
                                    : ScopeKind::Block);
                pending = Pending::None;
            } else if (t.text == "}") {
                if (!stack.empty())
                    stack.pop_back();
            } else if (t.text == ";" || t.text == "(" || t.text == "=") {
                pending = Pending::None;
            }
        }
    }
}

void
SourceFile::collectDirectives()
{
    directives.clear();
    includes.clear();
    std::size_t start = 0;
    int line = 1;
    while (start <= code.size()) {
        std::size_t end = code.find('\n', start);
        if (end == std::string::npos)
            end = code.size();
        std::size_t s = start;
        while (s < end && std::isspace(static_cast<unsigned char>(code[s])))
            ++s;
        if (s < end && code[s] == '#') {
            Directive d;
            d.line = line;
            // Join backslash continuations into one logical line so
            // multi-line #define bodies stay visible to the symbol
            // index (the H-rules only read the leading words).
            std::size_t lstart = s;
            std::size_t lend = end;
            std::string text;
            for (;;) {
                std::size_t e = lend;
                bool continues = false;
                while (e > lstart &&
                       std::isspace(
                           static_cast<unsigned char>(code[e - 1])))
                    --e;
                if (e > lstart && code[e - 1] == '\\') {
                    continues = true;
                    --e;
                }
                text.append(code, lstart, e - lstart);
                text.push_back(' ');
                if (!continues || lend >= code.size())
                    break;
                ++line;
                lstart = lend + 1;
                lend = code.find('\n', lstart);
                if (lend == std::string::npos)
                    lend = code.size();
                end = lend;
            }
            d.text = text;
            directives.push_back(std::move(d));

            // #include targets are read from the raw text: the blanked
            // view erases quoted targets along with every other string
            // literal.
            auto w0 = text.find_first_not_of("# \t");
            if (w0 != std::string::npos &&
                text.compare(w0, 7, "include") == 0) {
                std::size_t rs = raw.find_first_of("<\"", s);
                if (rs != std::string::npos && rs < raw.find('\n', s)) {
                    char open = raw[rs];
                    char close = open == '<' ? '>' : '"';
                    std::size_t re = raw.find(close, rs + 1);
                    if (re != std::string::npos) {
                        Include inc;
                        inc.line = lineOf(rs);
                        inc.col = colOf(rs);
                        inc.target = raw.substr(rs + 1, re - rs - 1);
                        inc.angled = open == '<';
                        includes.push_back(std::move(inc));
                    }
                }
            }
        }
        if (end >= code.size())
            break;
        start = end + 1;
        ++line;
    }
}

void
SourceFile::parseDirectives()
{
    allows.clear();
    suppressed.clear();
    static const std::string key = "cnlint:";
    std::size_t pos = 0;
    while ((pos = raw.find(key, pos)) != raw.npos) {
        std::size_t dstart = pos;
        pos += key.size();
        // Skip whitespace, read the directive word.
        while (pos < raw.size() && raw[pos] == ' ')
            ++pos;
        std::size_t wend = pos;
        while (wend < raw.size() && identChar(raw[wend]))
            ++wend;
        std::string word = raw.substr(pos, wend - pos);
        int line = lineOf(dstart);

        if (word == "scope" || word == "layer") {
            std::size_t open = raw.find('(', wend);
            std::size_t close = open == raw.npos ? raw.npos
                                                 : raw.find(')', open);
            if (open != raw.npos && close != raw.npos) {
                std::string value = raw.substr(open + 1, close - open - 1);
                if (word == "scope" && value == "sim")
                    sim_scope = true;
                else if (word == "layer" && !value.empty())
                    layer = value;
            }
            pos = wend;
            continue;
        }
        if (word == "allow") {
            Allow a;
            a.line = line;
            a.next_line = false;
            a.malformed = false;
            std::size_t open = wend;
            while (open < raw.size() && raw[open] == ' ')
                ++open;
            std::size_t close =
                open < raw.size() && raw[open] == '('
                    ? raw.find(')', open)
                    : raw.npos;
            if (close == raw.npos) {
                a.malformed = true;
                a.error = "expected allow(RULE-ID reason)";
            } else {
                std::string body = raw.substr(open + 1, close - open - 1);
                std::size_t sp = body.find(' ');
                a.rule = sp == body.npos ? body : body.substr(0, sp);
                a.reason = sp == body.npos ? "" : body.substr(sp + 1);
                while (!a.reason.empty() && a.reason.front() == ' ')
                    a.reason.erase(a.reason.begin());
                if (!isKnownRule(a.rule)) {
                    a.malformed = true;
                    a.error = "unknown rule ID '" + a.rule + "'";
                } else if (a.reason.empty()) {
                    a.malformed = true;
                    a.error = "allow(" + a.rule +
                              ") needs a reason string";
                }
            }
            if (!a.malformed) {
                suppressed[a.rule].insert(a.line);
                // A directive on a comment-only line (possibly part of
                // a multi-line comment) covers every following
                // comment-only line and the first code line after it.
                if (lineIsCodeFree(a.line)) {
                    a.next_line = true;
                    int l = a.line + 1;
                    int last = lineOf(raw.size() ? raw.size() - 1 : 0);
                    while (l <= last && lineIsCodeFree(l))
                        suppressed[a.rule].insert(l++);
                    suppressed[a.rule].insert(l);
                }
            }
            allows.push_back(a);
            pos = wend;
            continue;
        }
        // "cnlint:" with any other word is not a directive cnlint
        // understands (fixture-expect markers are parsed by the test
        // harness, not here).
        pos = wend;
    }
}

} // namespace cnlint
