/**
 * @file
 * Fixture-driven tests for cnlint, the determinism-and-invariant
 * linter in tools/cnlint.
 *
 * Every rule in the catalog has a `<rule>_bad` fixture carrying seeded
 * violations and a `<rule>_good` twin showing the compliant form. Each
 * seeded violation is marked in-line with
 *
 *     // cnlint-fixture-expect: CNL-XXXX
 *
 * on the exact line the finding must land on. Each fixture is linted
 * in isolation (a fresh Linter, so cross-file context such as stat
 * registrations comes only from the fixture itself)
 * and the (line, rule) multiset of findings must match the markers
 * exactly: a rule that misses its seeded violation, fires on the good
 * twin, or drifts to a neighboring line fails here.
 */

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cnlint/cnlint.hh"

namespace
{

using LineRule = std::pair<int, std::string>;

std::string
fixturePath(const std::string &name)
{
    return std::string(CNSIM_LINT_FIXTURE_DIR) + "/" + name;
}

/** Parse every `cnlint-fixture-expect: CNL-XXXX` marker in @p path. */
std::vector<LineRule>
expectedFindings(const std::string &path)
{
    static const std::string key = "cnlint-fixture-expect:";
    std::ifstream in(path);
    EXPECT_TRUE(in.is_open()) << "cannot open fixture " << path;
    std::vector<LineRule> expected;
    std::string text;
    int line = 0;
    while (std::getline(in, text)) {
        ++line;
        std::size_t pos = 0;
        while ((pos = text.find(key, pos)) != std::string::npos) {
            pos += key.size();
            while (pos < text.size() && text[pos] == ' ')
                ++pos;
            std::size_t end = pos;
            while (end < text.size() &&
                   (std::isalnum(static_cast<unsigned char>(text[end])) ||
                    text[end] == '-'))
                ++end;
            expected.emplace_back(line, text.substr(pos, end - pos));
            pos = end;
        }
    }
    std::sort(expected.begin(), expected.end());
    return expected;
}

/** Lint one fixture in isolation and return its sorted (line, rule)s. */
std::vector<LineRule>
actualFindings(const std::string &path)
{
    cnlint::Linter linter;
    // CNL-T002 is opt-in (it needs whole-tree context to mean
    // anything); the t002 fixtures are self-contained trees.
    linter.setDeadSymbols(path.find("t002") != std::string::npos);
    EXPECT_TRUE(linter.addFile(path)) << "cannot lint fixture " << path;
    linter.run();
    std::vector<LineRule> actual;
    for (const auto &f : linter.findings())
        actual.emplace_back(f.line, f.rule);
    std::sort(actual.begin(), actual.end());
    return actual;
}

std::string
describe(const std::vector<LineRule> &v)
{
    std::ostringstream os;
    for (const auto &[line, rule] : v)
        os << "  line " << line << ": " << rule << "\n";
    return v.empty() ? "  (none)\n" : os.str();
}

/** Fixture base names per rule ID; H-rules are headers by necessity. */
std::map<std::string, std::string>
fixtureStems()
{
    std::map<std::string, std::string> stems;
    for (const auto &rule : cnlint::ruleCatalog()) {
        // "CNL-D001" -> "d001"
        std::string stem = rule.id.substr(4);
        for (auto &c : stem)
            c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        stems.emplace(rule.id, stem);
    }
    return stems;
}

std::string
extensionFor(const std::string &rule_id)
{
    // H-rules are about headers by definition; the L002 fixture is a
    // header because include cycles are a header disease.
    if (rule_id.rfind("CNL-H", 0) == 0 || rule_id == "CNL-L002")
        return ".hh";
    return ".cc";
}

class CnlintFixtureTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(CnlintFixtureTest, BadFixtureFiresExactlyTheMarkedFindings)
{
    const std::string &rule = GetParam();
    std::string path =
        fixturePath(fixtureStems().at(rule) + "_bad" + extensionFor(rule));
    auto expected = expectedFindings(path);
    auto actual = actualFindings(path);

    ASSERT_FALSE(expected.empty())
        << path << " seeds no violations; a bad fixture must mark at "
        << "least one line with cnlint-fixture-expect";
    bool fires_own_rule = false;
    for (const auto &[line, r] : expected) {
        (void)line;
        EXPECT_TRUE(cnlint::isKnownRule(r))
            << path << " marker names unknown rule " << r;
        fires_own_rule = fires_own_rule || r == rule;
    }
    EXPECT_TRUE(fires_own_rule)
        << path << " never seeds its own rule " << rule;
    EXPECT_EQ(expected, actual)
        << path << "\nexpected findings:\n" << describe(expected)
        << "actual findings:\n" << describe(actual);
}

TEST_P(CnlintFixtureTest, GoodFixtureLintsClean)
{
    const std::string &rule = GetParam();
    std::string path =
        fixturePath(fixtureStems().at(rule) + "_good" + extensionFor(rule));
    auto expected = expectedFindings(path);
    auto actual = actualFindings(path);

    EXPECT_TRUE(expected.empty())
        << path << " is a good fixture; it must not carry expect markers";
    EXPECT_TRUE(actual.empty())
        << path << " must lint clean but fired:\n" << describe(actual);
}

std::vector<std::string>
allRuleIds()
{
    std::vector<std::string> ids;
    for (const auto &rule : cnlint::ruleCatalog())
        ids.push_back(rule.id);
    return ids;
}

std::string
paramName(const ::testing::TestParamInfo<std::string> &info)
{
    std::string name = info.param;
    std::replace(name.begin(), name.end(), '-', '_');
    return name;
}

INSTANTIATE_TEST_SUITE_P(AllRules, CnlintFixtureTest,
                         ::testing::ValuesIn(allRuleIds()), paramName);

// ---------------------------------------------------------------------
// Non-parameterized properties of the linter itself.
// ---------------------------------------------------------------------

TEST(Cnlint, CatalogCoversEveryRuleFamily)
{
    std::set<char> families;
    for (const auto &rule : cnlint::ruleCatalog()) {
        ASSERT_GE(rule.id.size(), 8u);
        EXPECT_EQ(rule.id.substr(0, 4), "CNL-");
        EXPECT_FALSE(rule.summary.empty()) << rule.id;
        families.insert(rule.id[4]);
    }
    EXPECT_EQ(families,
              (std::set<char>{'A', 'C', 'D', 'H', 'L', 'S', 'T'}));
    EXPECT_TRUE(cnlint::isKnownRule("CNL-D001"));
    EXPECT_FALSE(cnlint::isKnownRule("CNL-9999"));
}

TEST(Cnlint, SuppressionRequiresKnownRuleAndReason)
{
    // a001_bad seeds exactly the three malformed-directive shapes; all
    // must surface as CNL-A001 rather than silently suppressing.
    auto actual = actualFindings(fixturePath("a001_bad.cc"));
    ASSERT_EQ(actual.size(), 3u);
    for (const auto &[line, rule] : actual) {
        (void)line;
        EXPECT_EQ(rule, "CNL-A001");
    }
}

TEST(Cnlint, SuppressionCoversSameLineAndFollowingCodeLine)
{
    // a001_good commits real CNL-D001/CNL-D002 violations and
    // suppresses both: one with a same-line directive, one with a
    // directive on the comment block above. Zero findings proves the
    // allow machinery actually reaches the rules.
    auto actual = actualFindings(fixturePath("a001_good.cc"));
    EXPECT_TRUE(actual.empty()) << describe(actual);
}

TEST(Cnlint, TwoFileIncludeCycleIsReportedInBothFiles)
{
    // l002_bad.hh covers the degenerate self-include; this is the real
    // shape: two headers that include each other. Each file reports
    // the edge that closes the cycle from its side.
    cnlint::Linter linter;
    ASSERT_TRUE(linter.addFile(fixturePath("l002_cycle_a.hh")));
    ASSERT_TRUE(linter.addFile(fixturePath("l002_cycle_b.hh")));
    linter.run();
    std::set<std::string> files_with_cycle;
    for (const auto &f : linter.findings()) {
        EXPECT_EQ(f.rule, "CNL-L002") << f.file << ":" << f.line;
        files_with_cycle.insert(f.file);
    }
    EXPECT_EQ(files_with_cycle.size(), 2u);

    // Alone, each half is acyclic: the cycle only exists in company.
    auto solo = actualFindings(fixturePath("l002_cycle_a.hh"));
    EXPECT_TRUE(solo.empty()) << describe(solo);
}

TEST(Cnlint, DeadInternalFunctionIsNotKeptAliveByAnotherFile)
{
    // t002_internal_b.cc uses internal functions of its own named like
    // t002_internal_a.cc's dead ones. A tree-wide use count would let
    // a's escape; internal linkage means only a's own uses count.
    const std::string a = fixturePath("t002_internal_a.cc");
    cnlint::Linter linter;
    linter.setDeadSymbols(true);
    ASSERT_TRUE(linter.addFile(a));
    ASSERT_TRUE(linter.addFile(fixturePath("t002_internal_b.cc")));
    linter.run();
    std::vector<LineRule> actual;
    for (const auto &f : linter.findings()) {
        EXPECT_EQ(f.file, a) << f.line << ": " << f.rule;
        actual.emplace_back(f.line, f.rule);
    }
    std::sort(actual.begin(), actual.end());
    EXPECT_EQ(actual, expectedFindings(a)) << describe(actual);
}

TEST(Cnlint, FindingsCarryColumnNumbers)
{
    cnlint::Linter linter;
    ASSERT_TRUE(linter.addFile(fixturePath("d001_bad.cc")));
    linter.run();
    ASSERT_FALSE(linter.findings().empty());
    for (const auto &f : linter.findings())
        EXPECT_GE(f.col, 1) << f.file << ":" << f.line << " " << f.rule;
}

TEST(Cnlint, SarifRenderingIsWellFormed)
{
    cnlint::Linter linter;
    ASSERT_TRUE(linter.addFile(fixturePath("d001_bad.cc")));
    linter.run();
    ASSERT_FALSE(linter.findings().empty());
    std::string sarif = cnlint::renderSarif(linter.findings());

    // Structural smoke checks (no JSON parser in this repo by design):
    // version marker, every catalog rule listed, every finding's rule
    // and location present, and balanced braces/brackets.
    EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
    EXPECT_NE(sarif.find("\"name\": \"cnlint\""), std::string::npos);
    for (const auto &rule : cnlint::ruleCatalog())
        EXPECT_NE(sarif.find("\"id\": \"" + rule.id + "\""),
                  std::string::npos)
            << rule.id;
    EXPECT_NE(sarif.find("\"ruleId\": \"CNL-D001\""), std::string::npos);
    EXPECT_NE(sarif.find("\"startLine\": "), std::string::npos);
    EXPECT_NE(sarif.find("\"startColumn\": "), std::string::npos);
    long depth = 0;
    for (char c : sarif) {
        if (c == '{' || c == '[')
            ++depth;
        if (c == '}' || c == ']')
            --depth;
        EXPECT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);

    // Empty-findings document is still a valid run.
    std::string empty = cnlint::renderSarif({});
    EXPECT_NE(empty.find("\"results\": ["), std::string::npos);
}

TEST(Cnlint, FindingsAreSortedAndDeterministic)
{
    auto keys = [](const std::vector<cnlint::Finding> &fs) {
        std::vector<std::tuple<std::string, int, std::string>> out;
        for (const auto &f : fs)
            out.emplace_back(f.file, f.line, f.rule);
        return out;
    };
    cnlint::Linter linter;
    ASSERT_TRUE(linter.addFile(fixturePath("d001_bad.cc")));
    ASSERT_TRUE(linter.addFile(fixturePath("d002_bad.cc")));
    linter.run();
    auto first = keys(linter.findings());
    ASSERT_FALSE(first.empty());
    linter.run();
    EXPECT_EQ(first, keys(linter.findings()));
    auto sorted = first;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(first, sorted);
}

} // namespace
