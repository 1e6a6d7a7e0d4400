// Fixture tests for tools/ebs_lint: every rule must fire on its committed
// bad-example file, stay quiet on the good examples, and honor per-line
// suppressions. The fixtures live in tests/lint_fixtures/ and double as the
// human-readable catalog of what the linter enforces.
#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "tools/ebs_lint/coverage.h"
#include "tools/ebs_lint/graph.h"
#include "tools/ebs_lint/linter.h"

namespace ebslint {
namespace {

std::string ReadFixture(const std::string& name) {
  const std::string path = std::string(EBS_LINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Lints one fixture in isolation, with the src/ determinism rules on (the
// fixtures document the full contract regardless of where they live).
std::vector<Finding> LintFixture(const std::string& name) {
  const std::string content = ReadFixture(name);
  Linter linter;
  linter.CollectDeclarations(name, content);
  std::vector<Finding> findings;
  Options options;
  options.determinism_rules = true;
  linter.LintFile(name, content, options, &findings);
  return findings;
}

std::vector<std::string> Rules(const std::vector<Finding>& findings) {
  std::vector<std::string> rules;
  rules.reserve(findings.size());
  for (const Finding& f : findings) {
    rules.push_back(f.rule);
  }
  return rules;
}

TEST(LintFixtureTest, WallClockSourcesFlaggedSteadyClockAllowed) {
  const auto findings = LintFixture("wall_clock_bad.cc");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "wall-clock");
  EXPECT_EQ(findings[0].line, 7u);  // system_clock
  EXPECT_EQ(findings[1].rule, "wall-clock");
  EXPECT_EQ(findings[1].line, 13u);  // gettimeofday
  // The steady_clock use on line 19 must not appear.
  for (const Finding& f : findings) {
    EXPECT_NE(f.line, 19u);
  }
}

TEST(LintFixtureTest, RawRandomnessFlagged) {
  const auto findings = LintFixture("raw_rand_bad.cc");
  EXPECT_EQ(Rules(findings),
            (std::vector<std::string>{"raw-rand", "raw-rand", "raw-rand"}));
  // rand(), random_device, mt19937 in declaration order.
  ASSERT_EQ(findings.size(), 3u);
  EXPECT_EQ(findings[0].line, 6u);
  EXPECT_EQ(findings[1].line, 9u);
  EXPECT_EQ(findings[2].line, 10u);
}

TEST(LintFixtureTest, UncheckedFcloseFlagged) {
  const auto findings = LintFixture("fclose_bad.cc");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "unchecked-fclose");
  EXPECT_EQ(findings[0].line, 12u);
}

TEST(LintFixtureTest, CheckedFcloseWithoutFerrorFlagged) {
  const auto findings = LintFixture("fclose_no_ferror.cc");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "fclose-no-ferror");
}

TEST(LintFixtureTest, FullIoContractIsClean) {
  EXPECT_TRUE(LintFixture("fclose_good.cc").empty());
}

TEST(LintFixtureTest, UncheckedFflushFlagged) {
  const auto findings = LintFixture("fflush_bad.cc");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "unchecked-fflush");
}

TEST(LintFixtureTest, UnorderedIterationFlagged) {
  const auto findings = LintFixture("unordered_iter_bad.cc");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "unordered-iter");
  EXPECT_EQ(findings[0].line, 12u);
  EXPECT_NE(findings[0].message.find("bytes_by_segment"), std::string::npos);
}

TEST(LintFixtureTest, SortedKeyCollectionWithAllowIsClean) {
  EXPECT_TRUE(LintFixture("unordered_iter_allowed.cc").empty());
}

TEST(LintFixtureTest, FloatMapKeysFlagged) {
  const auto findings = LintFixture("float_key_bad.cc");
  EXPECT_EQ(Rules(findings),
            (std::vector<std::string>{"float-key", "float-key"}));
}

TEST(LintFixtureTest, BannedIdentifiersFlaggedOnlyInCallPosition) {
  const auto findings = LintFixture("banned_ident_bad.cc");
  ASSERT_EQ(findings.size(), 3u);
  EXPECT_EQ(findings[0].rule, "banned-identifier");  // strtok(line, " ")
  EXPECT_EQ(findings[1].rule, "banned-identifier");  // strtok(nullptr, " ")
  EXPECT_EQ(findings[2].rule, "banned-identifier");  // tmpnam(nullptr)
  // The variable named strtok_result (lines 9, 10, 12) is never flagged as an
  // identifier use — only the two call sites on 9 and 12 fire.
  EXPECT_EQ(findings[0].line, 9u);
  EXPECT_EQ(findings[1].line, 12u);
  EXPECT_EQ(findings[2].line, 17u);
}

TEST(LintFixtureTest, QmodelVirtualTimeContract) {
  // The fixture documents the stricter src/qmodel/ scope, so lint it with
  // the virtual-time rules on (as OptionsForPath would for src/qmodel/).
  const std::string content = ReadFixture("qmodel_virtual_time_bad.cc");
  Linter linter;
  linter.CollectDeclarations("qmodel_virtual_time_bad.cc", content);
  std::vector<Finding> findings;
  Options options;
  options.determinism_rules = true;
  options.virtual_time_rules = true;
  linter.LintFile("qmodel_virtual_time_bad.cc", content, options, &findings);
  EXPECT_EQ(Rules(findings),
            (std::vector<std::string>{"qmodel-virtual-time", "qmodel-virtual-time",
                                      "qmodel-virtual-time", "qmodel-virtual-time"}));
  ASSERT_EQ(findings.size(), 4u);
  EXPECT_EQ(findings[0].line, 10u);  // steady_clock
  EXPECT_EQ(findings[1].line, 15u);  // this_thread
  EXPECT_EQ(findings[2].line, 15u);  // sleep_for
  EXPECT_EQ(findings[3].line, 19u);  // std::thread
  // The allow() line and the merge_thread_count identifier never fire.
  for (const Finding& f : findings) {
    EXPECT_NE(f.line, 24u);
    EXPECT_NE(f.line, 29u);
  }
}

TEST(LintFixtureTest, ControlDeterminismContract) {
  // The fixture documents the src/control/ scope, so lint it with the control
  // rules on (as OptionsForPath would for src/control/).
  const std::string content = ReadFixture("control_determinism_bad.cc");
  Linter linter;
  linter.CollectDeclarations("control_determinism_bad.cc", content);
  std::vector<Finding> findings;
  Options options;
  options.determinism_rules = true;
  options.control_rules = true;
  linter.LintFile("control_determinism_bad.cc", content, options, &findings);
  EXPECT_EQ(Rules(findings),
            (std::vector<std::string>{"control-determinism", "control-determinism",
                                      "control-determinism"}));
  ASSERT_EQ(findings.size(), 3u);
  EXPECT_EQ(findings[0].line, 12u);  // steady_clock
  EXPECT_EQ(findings[1].line, 17u);  // std::thread
  EXPECT_EQ(findings[2].line, 22u);  // std::async
  // The allow() line and the future_period_count identifier never fire.
  for (const Finding& f : findings) {
    EXPECT_NE(f.line, 27u);
    EXPECT_NE(f.line, 32u);
  }
}

TEST(LintFixtureTest, ControlFixtureCleanOutsideControlScope) {
  // The same file linted as ordinary src/ code only keeps the src/-wide
  // rules, none of which it violates (steady_clock and async are legal there).
  EXPECT_TRUE(LintFixture("control_determinism_bad.cc").empty());
}

TEST(LintFixtureTest, QmodelFixtureCleanOutsideQmodelScope) {
  // The same file linted as ordinary src/ code only keeps the src/-wide
  // rules, none of which it violates (steady_clock is legal there).
  EXPECT_TRUE(LintFixture("qmodel_virtual_time_bad.cc").empty());
}

TEST(LintFixtureTest, SuppressionIsPerLineAndPerRule) {
  const auto findings = LintFixture("suppressed.cc");
  ASSERT_EQ(findings.size(), 2u);
  // Line 9's allow(wall-clock) holds; the identical call on 14 still fires.
  EXPECT_EQ(findings[0].rule, "wall-clock");
  EXPECT_EQ(findings[0].line, 14u);
  // An allow() naming the wrong rule does not silence raw-rand.
  EXPECT_EQ(findings[1].rule, "raw-rand");
  EXPECT_EQ(findings[1].line, 19u);
}

TEST(LintFixtureTest, CleanFileHasNoFindings) {
  EXPECT_TRUE(LintFixture("clean_good.cc").empty());
}

TEST(LintScopingTest, DeterminismRulesOnlyUnderSrc) {
  EXPECT_TRUE(Linter::OptionsForPath("src/core/simulation.cc").determinism_rules);
  EXPECT_TRUE(Linter::OptionsForPath("/root/repo/src/obs/metrics.cc").determinism_rules);
  EXPECT_FALSE(Linter::OptionsForPath("bench/bench_store.cc").determinism_rules);
  EXPECT_FALSE(Linter::OptionsForPath("tools/store_tool.cc").determinism_rules);
}

TEST(LintScopingTest, VirtualTimeRulesOnlyUnderQmodel) {
  EXPECT_TRUE(Linter::OptionsForPath("src/qmodel/queue_model.cc").virtual_time_rules);
  EXPECT_TRUE(Linter::OptionsForPath("/root/repo/src/qmodel/sink.h").virtual_time_rules);
  // qmodel files still carry the whole src/ determinism contract.
  EXPECT_TRUE(Linter::OptionsForPath("src/qmodel/queue_model.cc").determinism_rules);
  EXPECT_FALSE(Linter::OptionsForPath("src/core/simulation.cc").virtual_time_rules);
  EXPECT_FALSE(Linter::OptionsForPath("bench/bench_latency.cc").virtual_time_rules);
}

TEST(LintScopingTest, ControlRulesOnlyUnderControl) {
  EXPECT_TRUE(Linter::OptionsForPath("src/control/plane.cc").control_rules);
  EXPECT_TRUE(Linter::OptionsForPath("/root/repo/src/control/policies.cc").control_rules);
  // control files still carry the whole src/ determinism contract.
  EXPECT_TRUE(Linter::OptionsForPath("src/control/plane.cc").determinism_rules);
  EXPECT_FALSE(Linter::OptionsForPath("src/control/plane.cc").virtual_time_rules);
  EXPECT_FALSE(Linter::OptionsForPath("src/core/simulation.cc").control_rules);
  EXPECT_FALSE(Linter::OptionsForPath("bench/bench_latency.cc").control_rules);
}

TEST(LintScopingTest, OnlyCxxSourcesScanned) {
  EXPECT_TRUE(Linter::IsSourcePath("src/trace/store.cc"));
  EXPECT_TRUE(Linter::IsSourcePath("src/util/thread_annotations.h"));
  EXPECT_FALSE(Linter::IsSourcePath("scripts/ci_smoke.sh"));
  EXPECT_FALSE(Linter::IsSourcePath("README.md"));
}

TEST(LintScopingTest, HeaderDeclarationsVisibleAcrossFiles) {
  // A member declared unordered in a header is recognized when a .cc range-
  // fors it, while a .cc-local declaration stays private to its own file.
  Linter linter;
  linter.CollectDeclarations("src/widget.h",
                             "#include <unordered_map>\n"
                             "struct Widget { std::unordered_map<int, int> parts_; };\n");
  const std::string user =
      "void Drain(Widget& w) {\n"
      "  for (const auto& [id, n] : w.parts_) {\n"
      "    (void)id;\n"
      "    (void)n;\n"
      "  }\n"
      "}\n";
  std::vector<Finding> findings;
  Options options;
  options.determinism_rules = true;
  linter.LintFile("src/use.cc", user, options, &findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "unordered-iter");
}

TEST(LintTokenizerTest, StringsCommentsAndPreprocessorAreInvisible) {
  const std::string content =
      "#define CALL_RAND rand()\n"
      "// rand() in a comment\n"
      "/* fclose(file); */\n"
      "const char* kText = \"system_clock and rand()\";\n"
      "const char* kRaw = R\"(gettimeofday(nullptr, nullptr))\";\n";
  Linter linter;
  linter.CollectDeclarations("src/strings.cc", content);
  std::vector<Finding> findings;
  Options options;
  options.determinism_rules = true;
  linter.LintFile("src/strings.cc", content, options, &findings);
  EXPECT_TRUE(findings.empty()) << FormatText(findings.empty() ? Finding{} : findings[0]);
}

TEST(LintOutputTest, TextFormatIsFileLineColRule) {
  Finding finding;
  finding.file = "src/a.cc";
  finding.line = 3;
  finding.col = 7;
  finding.rule = "wall-clock";
  finding.message = "no clocks";
  EXPECT_EQ(FormatText(finding), "src/a.cc:3:7: error: [wall-clock] no clocks");
}

TEST(LintOutputTest, JsonFormatRoundTripsFields) {
  const auto findings = LintFixture("fflush_bad.cc");
  ASSERT_EQ(findings.size(), 1u);
  const std::string json = FormatJson(findings);
  EXPECT_NE(json.find("\"rule\": \"unchecked-fflush\""), std::string::npos);
  EXPECT_NE(json.find("\"file\": \"fflush_bad.cc\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": 6"), std::string::npos);
}

TEST(LintOutputTest, JsonEscapesQuotesBackslashesAndControlBytes) {
  Finding finding;
  finding.file = "src/we\"ird\\path.cc";
  finding.line = 1;
  finding.col = 2;
  finding.rule = "wall-clock";
  finding.message = "tab\tnl\ncr\rbs\bff\fesc\x1b[0m bell\x07 done";
  const std::string json = FormatJson({finding});
  // Exact escaping contract: shorthands for the JSON two-character escapes,
  // \u00XX for every other control byte, nothing raw below 0x20.
  EXPECT_NE(json.find("\"file\": \"src/we\\\"ird\\\\path.cc\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"message\": "
                      "\"tab\\tnl\\ncr\\rbs\\bff\\fesc\\u001b[0m bell\\u0007 done\""),
            std::string::npos)
      << json;
  // Inside the string literals nothing below 0x20 survives raw: every byte of
  // the message was either shorthand-escaped or \u-escaped above.
}

// --- v2 cross-file passes -------------------------------------------------

TEST(LintTaintTest, AliasAndHelperLaunderingFlagged) {
  const auto findings = LintFixture("taint/laundered_bad.cc");
  EXPECT_EQ(Rules(findings),
            (std::vector<std::string>{"unordered-taint", "unordered-taint"}));
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].line, 17u);  // for (... : alias)
  EXPECT_EQ(findings[1].line, 25u);  // for (... : LiveSet())
  EXPECT_NE(findings[0].message.find("alias"), std::string::npos);
}

TEST(LintTaintTest, TaintedValueReachingExportSinkFlagged) {
  const auto findings = LintFixture("taint/sink_bad.cc");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "tainted-sink");
  EXPECT_EQ(findings[0].line, 12u);  // std::fprintf(out, ..., key, count)
  EXPECT_NE(findings[0].message.find("fprintf"), std::string::npos);
}

TEST(LintTaintTest, CollectSortExportIdiomIsClean) {
  EXPECT_TRUE(LintFixture("taint/sorted_good.cc").empty());
}

// Loads committed fixture-tree files as (path, content) pairs; the graph pass
// normalizes each path to its trailing src/... component, so the fixture tree
// prefix disappears exactly like a build-dir prefix would in CI.
std::vector<std::pair<std::string, std::string>> LoadTree(
    const std::vector<std::string>& names) {
  std::vector<std::pair<std::string, std::string>> files;
  files.reserve(names.size());
  for (const std::string& name : names) {
    files.emplace_back(name, ReadFixture(name));
  }
  return files;
}

LayerMap FixtureLayerMap(const std::string& name) {
  LayerMap map;
  std::string error;
  EXPECT_TRUE(ParseLayerMap(ReadFixture(name), &map, &error)) << error;
  return map;
}

const std::vector<std::string> kGoodTree = {
    "layering/good/src/base/log.h",
    "layering/good/src/mid/engine.h",
    "layering/good/src/app/main.cc",
};
const std::vector<std::string> kBadTree = {
    "layering/bad/src/base/log.h",
    "layering/bad/src/app/ui.h",
    "layering/bad/src/mid/engine.h",
    "layering/bad/src/zoo/keeper.h",
};

TEST(LintLayeringTest, GoodTreeIsClean) {
  const IncludeGraph graph = BuildIncludeGraph(LoadTree(kGoodTree));
  std::vector<Finding> findings;
  CheckLayering(graph, FixtureLayerMap("layering/layers.txt"), "layers.txt",
                &findings);
  EXPECT_TRUE(findings.empty())
      << (findings.empty() ? "" : FormatText(findings[0]));
}

TEST(LintLayeringTest, BadTreePinsEachDiagnostic) {
  const IncludeGraph graph = BuildIncludeGraph(LoadTree(kBadTree));
  std::vector<Finding> findings;
  CheckLayering(graph, FixtureLayerMap("layering/layers.txt"), "layers.txt",
                &findings);
  std::vector<std::string> rules = Rules(findings);
  std::sort(rules.begin(), rules.end());
  // base->app and mid->app reach up; base/log.h <-> app/ui.h is a file cycle;
  // zoo/ is not placed by the map.
  EXPECT_EQ(rules, (std::vector<std::string>{"include-cycle", "layer-map",
                                             "layer-violation",
                                             "layer-violation"}));
  for (const Finding& f : findings) {
    if (f.rule == "layer-map") {
      EXPECT_NE(f.message.find("zoo"), std::string::npos) << f.message;
    }
  }
}

TEST(LintLayeringTest, DeclaredExceptionSilencesExactlyItsEdge) {
  const IncludeGraph graph = BuildIncludeGraph(LoadTree(kBadTree));
  std::vector<Finding> findings;
  CheckLayering(graph, FixtureLayerMap("layering/layers_exception.txt"),
                "layers_exception.txt", &findings);
  std::vector<std::string> rules = Rules(findings);
  std::sort(rules.begin(), rules.end());
  // The mid->app violation is excepted; base->app, the cycle, and the
  // unmapped module still stand, and the exception is used (not stale).
  EXPECT_EQ(rules, (std::vector<std::string>{"include-cycle", "layer-map",
                                             "layer-violation"}));
  for (const Finding& f : findings) {
    if (f.rule == "layer-violation") {
      EXPECT_NE(f.file.find("base/log.h"), std::string::npos) << f.file;
    }
  }
}

TEST(LintLayeringTest, UnmatchedExceptionGoesStale) {
  const IncludeGraph graph = BuildIncludeGraph(LoadTree(kGoodTree));
  std::vector<Finding> findings;
  CheckLayering(graph, FixtureLayerMap("layering/layers_exception.txt"),
                "layers_exception.txt", &findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "stale-suppression");
  EXPECT_EQ(findings[0].file, "layers_exception.txt");
  EXPECT_EQ(findings[0].line, 7u);  // the allow line
}

TEST(LintLayeringTest, DotRendersLayersAndFlagsUpwardEdgesRed) {
  const IncludeGraph graph = BuildIncludeGraph(LoadTree(kBadTree));
  const std::string dot =
      FormatDot(graph, FixtureLayerMap("layering/layers.txt"));
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("\"base\""), std::string::npos);
  EXPECT_NE(dot.find("red"), std::string::npos) << dot;  // upward edge marked
}

TEST(LintCoverageTest, UncoveredEnumeratorFlaggedCoveredOneIsNot) {
  const std::vector<std::pair<std::string, std::string>> files = {
      {"src/foo/codes.h",
       "enum class FooErrorCode {\n  kGood,\n  kNeverAsserted,\n};\n"}};
  const std::vector<ErrorEnum> enums = ExtractErrorEnums(files);
  ASSERT_EQ(enums.size(), 1u);
  EXPECT_EQ(enums[0].name, "FooErrorCode");
  ASSERT_EQ(enums[0].enumerators.size(), 2u);
  const std::vector<std::pair<std::string, std::string>> test_files = {
      {"tests/foo_test.cc", "EXPECT_EQ(code, FooErrorCode::kGood);\n"}};
  std::vector<Finding> findings;
  std::map<std::string, std::map<size_t, std::set<std::string>>> used_allows;
  CheckErrorCodeCoverage(enums, files, test_files, &findings, &used_allows);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "error-code-coverage");
  EXPECT_EQ(findings[0].file, "src/foo/codes.h");
  EXPECT_EQ(findings[0].line, 3u);  // kNeverAsserted
  EXPECT_NE(findings[0].message.find("FooErrorCode::kNeverAsserted"),
            std::string::npos);
}

TEST(LintStaleSuppressionTest, DeadAndUnknownAllowsFlaggedUsedOneIsNot) {
  const std::string content =
      "#include <chrono>\n"
      "auto t = std::chrono::system_clock::now();  // ebs-lint: allow(wall-clock) "
      "boot stamp\n"
      "int x = 0;  // ebs-lint: allow(wall-clock) nothing fires here\n"
      "int y = 0;  // ebs-lint: allow(no-such-rule) typo\n";
  Linter linter;
  linter.CollectDeclarations("src/a.cc", content);
  Options options;
  options.determinism_rules = true;
  std::vector<Finding> findings;
  std::map<size_t, std::set<std::string>> used_allows;
  linter.LintFile("src/a.cc", content, options, &findings, &used_allows);
  EXPECT_TRUE(findings.empty());  // line 2's allow absorbed the only finding
  AuditSuppressions("src/a.cc", content, ActiveRules(options, false),
                    used_allows, &findings);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "stale-suppression");
  EXPECT_EQ(findings[0].line, 3u);  // dead allow
  EXPECT_EQ(findings[1].rule, "stale-suppression");
  EXPECT_EQ(findings[1].line, 4u);  // unknown rule
  EXPECT_NE(findings[1].message.find("no-such-rule"), std::string::npos);
}

TEST(LintStaleSuppressionTest, DormantRuleAllowIsNotStale) {
  // bench/ never runs the determinism rules, so an allow(unordered-iter)
  // there is dormant — the audit must skip it, not flag it.
  const std::string content =
      "int n = 0;  // ebs-lint: allow(unordered-iter) dormant outside src/\n";
  const Options options = Linter::OptionsForPath("bench/b.cc");
  std::vector<Finding> findings;
  AuditSuppressions("bench/b.cc", content, ActiveRules(options, false), {},
                    &findings);
  EXPECT_TRUE(findings.empty());
}

TEST(LintSelfCheckTest, BuiltInFixturesPass) {
  EXPECT_EQ(SelfCheck(), "");
}

}  // namespace
}  // namespace ebslint
