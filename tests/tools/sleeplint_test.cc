// sleeplint's own tests: every rule must fire on its known-bad fixture
// at the exact line, path scoping must exempt the sanctioned
// directories, and the allow/baseline escapes must suppress precisely
// what they name. The fixture tree under SLEEPLINT_FIXTURE_DIR mirrors
// the real src/sleepwalk/ layout because rules scope by path substring.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "jsonl.h"
#include "sleeplint.h"

namespace {

const std::string kFixtures = SLEEPLINT_FIXTURE_DIR;

std::string Fixture(const std::string& relative) {
  return kFixtures + "/" + relative;
}

/// All diagnostics for one fixture file, via the public Run() API.
sleeplint::Result RunOn(const std::string& relative,
                        std::vector<std::string> only_rules = {}) {
  sleeplint::Options options;
  options.roots = {Fixture(relative)};
  options.only_rules = std::move(only_rules);
  return sleeplint::Run(options);
}

bool HasDiagnostic(const sleeplint::Result& result, const std::string& rule,
                   int line) {
  return std::any_of(result.diagnostics.begin(), result.diagnostics.end(),
                     [&](const sleeplint::Diagnostic& d) {
                       return d.rule == rule && d.line == line;
                     });
}

TEST(Sleeplint, RuleCatalogue) {
  const auto& rules = sleeplint::AllRules();
  const std::vector<std::string> expected = {
      "no-wallclock", "no-ambient-rng", "no-raw-io", "no-raw-fs",
      "no-raw-socket", "no-raw-thread", "no-unchecked-narrowing",
      "header-hygiene",
      "bad-allow", "layering", "include-cycle", "lock-order",
      "throwing-destructor", "throw-in-noexcept", "crash-containment"};
  EXPECT_EQ(rules, expected);
}

TEST(Sleeplint, NoWallclockFlagsEverySpelling) {
  const auto result = RunOn("src/sleepwalk/core/wallclock_bad.cc");
  EXPECT_TRUE(HasDiagnostic(result, "no-wallclock", 8));   // system_clock
  EXPECT_TRUE(HasDiagnostic(result, "no-wallclock", 9));   // steady_clock
  EXPECT_TRUE(HasDiagnostic(result, "no-wallclock", 10));  // high_resolution
  EXPECT_TRUE(HasDiagnostic(result, "no-wallclock", 11));  // std::time(
  // Comment and string-literal mentions are stripped before matching.
  EXPECT_FALSE(HasDiagnostic(result, "no-wallclock", 12));
  EXPECT_FALSE(HasDiagnostic(result, "no-wallclock", 13));
  EXPECT_EQ(result.diagnostics.size(), 4u);
}

TEST(Sleeplint, NoAmbientRngFlagsDeviceEngineAndRand) {
  const auto result = RunOn("src/sleepwalk/core/rng_bad.cc");
  EXPECT_TRUE(HasDiagnostic(result, "no-ambient-rng", 8));   // random_device
  EXPECT_TRUE(HasDiagnostic(result, "no-ambient-rng", 9));   // mt19937
  EXPECT_TRUE(HasDiagnostic(result, "no-ambient-rng", 10));  // rand(
  EXPECT_EQ(result.diagnostics.size(), 3u);
}

TEST(Sleeplint, NoRawIoFlagsConsoleButNotSnprintf) {
  const auto result = RunOn("src/sleepwalk/core/raw_io_bad.cc");
  EXPECT_TRUE(HasDiagnostic(result, "no-raw-io", 8));   // std::cout
  EXPECT_TRUE(HasDiagnostic(result, "no-raw-io", 9));   // std::cerr
  EXPECT_TRUE(HasDiagnostic(result, "no-raw-io", 10));  // printf(
  EXPECT_FALSE(HasDiagnostic(result, "no-raw-io", 12));  // snprintf is fine
  EXPECT_EQ(result.diagnostics.size(), 3u);
}

TEST(Sleeplint, NoRawFsFlagsFilesystemAccessOutsideStorage) {
  const auto result = RunOn("src/sleepwalk/core/raw_fs_bad.cc");
  EXPECT_TRUE(HasDiagnostic(result, "no-raw-fs", 8));   // std::ofstream
  EXPECT_TRUE(HasDiagnostic(result, "no-raw-fs", 9));   // fopen(
  EXPECT_TRUE(HasDiagnostic(result, "no-raw-fs", 10));  // std::rename
  // env.fsync() is a member of ours, not the libc call.
  EXPECT_FALSE(HasDiagnostic(result, "no-raw-fs", 12));
  EXPECT_EQ(result.diagnostics.size(), 3u);
}

TEST(Sleeplint, StorageLayerExemptFromRawFsRule) {
  // storage/ is the one sanctioned filesystem layer (it implements the
  // Env seam everything else must go through).
  const auto result = RunOn("src/sleepwalk/storage/storage_exempt.cc");
  EXPECT_TRUE(result.diagnostics.empty());
}

TEST(Sleeplint, NoUncheckedNarrowingInSerializationFiles) {
  const auto result = RunOn("src/sleepwalk/core/checkpoint_bad.cc");
  EXPECT_TRUE(HasDiagnostic(result, "no-unchecked-narrowing", 8));
  EXPECT_TRUE(HasDiagnostic(result, "no-unchecked-narrowing", 9));
  EXPECT_TRUE(HasDiagnostic(result, "no-unchecked-narrowing", 10));
  // Widening to uint64 is not narrowing.
  EXPECT_FALSE(HasDiagnostic(result, "no-unchecked-narrowing", 11));
  EXPECT_EQ(result.diagnostics.size(), 3u);
}

TEST(Sleeplint, NarrowingRuleOnlyAppliesToSerializationPaths) {
  // Same casts in a non-serialization file: out of scope by design —
  // the rule guards bytes that land in checkpoint/dataset files.
  const std::string content =
      "auto a = static_cast<std::uint8_t>(1000);\n";
  int allows = 0;
  const auto diagnostics = sleeplint::LintFile(
      "src/sleepwalk/core/pipeline.cc", content, {}, &allows);
  EXPECT_TRUE(diagnostics.empty());
  const auto flagged = sleeplint::LintFile(
      "src/sleepwalk/core/dataset.cc", content, {}, &allows);
  ASSERT_EQ(flagged.size(), 1u);
  EXPECT_EQ(flagged[0].rule, "no-unchecked-narrowing");
  EXPECT_EQ(flagged[0].line, 1);
}

TEST(Sleeplint, NoRawSocketFlagsSyscallsOutsideSanctionedLayers) {
  const auto result = RunOn("src/sleepwalk/core/raw_socket_bad.cc");
  EXPECT_TRUE(HasDiagnostic(result, "no-raw-socket", 8));   // socket(
  EXPECT_TRUE(HasDiagnostic(result, "no-raw-socket", 9));   // listen(
  EXPECT_TRUE(HasDiagnostic(result, "no-raw-socket", 10));  // epoll_create
  // transport.sendto() is a member of ours, not the libc syscall.
  EXPECT_FALSE(HasDiagnostic(result, "no-raw-socket", 11));
  EXPECT_EQ(result.diagnostics.size(), 3u);
  // Line 13's setsockopt is escaped by the preceding-line allow.
  EXPECT_EQ(result.suppressed_by_allow, 1);
}

TEST(Sleeplint, NoRawThreadFlagsThreadsOutsideThePool) {
  const auto result = RunOn("src/sleepwalk/core/raw_thread_bad.cc");
  EXPECT_TRUE(HasDiagnostic(result, "no-raw-thread", 10));  // std::thread
  EXPECT_TRUE(HasDiagnostic(result, "no-raw-thread", 11));  // std::jthread
  EXPECT_TRUE(HasDiagnostic(result, "no-raw-thread", 12));  // hw concurrency
  // std::this_thread is not a thread of ours.
  EXPECT_FALSE(HasDiagnostic(result, "no-raw-thread", 13));
  EXPECT_EQ(result.diagnostics.size(), 3u);
  // Line 15's std::thread is escaped by the preceding-line allow.
  EXPECT_FALSE(HasDiagnostic(result, "no-raw-thread", 15));
  EXPECT_EQ(result.suppressed_by_allow, 1);
}

TEST(Sleeplint, NoRawThreadGrantsOnlyThePoolAndLibraryScope) {
  const std::string content = "std::vector<std::thread> threads;\n";
  int allows = 0;
  // util/parallel is the one worker pool.
  EXPECT_TRUE(sleeplint::LintFile("src/sleepwalk/util/parallel.cc", content,
                                  {}, &allows)
                  .empty());
  // Binaries and tests may run their own threads.
  EXPECT_TRUE(
      sleeplint::LintFile("tools/sleeptop.cc", content, {}, &allows).empty());
  const auto flagged = sleeplint::LintFile("src/sleepwalk/util/rng.cc",
                                           content, {}, &allows);
  ASSERT_EQ(flagged.size(), 1u);
  EXPECT_EQ(flagged[0].rule, "no-raw-thread");
}

TEST(Sleeplint, ServePathExemptFromSocketAndWallclockRules) {
  // serve/ is the admin plane: raw sockets, epoll, clocks and its
  // listener thread are its job, so neither no-raw-socket, no-wallclock
  // nor no-raw-thread fires there.
  const auto result = RunOn("src/sleepwalk/serve/serve_exempt.cc");
  EXPECT_TRUE(result.diagnostics.empty());
}

TEST(Sleeplint, HeaderHygieneRequiresGuardOrPragmaOnce) {
  const auto result = RunOn("src/sleepwalk/core/hygiene_bad.h");
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(result.diagnostics[0].rule, "header-hygiene");

  int allows = 0;
  EXPECT_TRUE(sleeplint::LintFile("src/sleepwalk/core/ok.h",
                                  "#pragma once\nint x;\n", {}, &allows)
                  .empty());
  EXPECT_TRUE(sleeplint::LintFile("src/sleepwalk/core/ok2.h",
                                  "#ifndef OK2_H_\n#define OK2_H_\n"
                                  "int x;\n#endif\n",
                                  {}, &allows)
                  .empty());
}

TEST(Sleeplint, AllowCommentSuppressesOnlyItsRule) {
  const auto result = RunOn("src/sleepwalk/core/allow_escape.cc");
  // Lines 8 (same-line allow) and 10 (preceding-line allow) suppressed;
  // line 12's allow names a different rule so the diagnostic stands.
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(result.diagnostics[0].rule, "no-wallclock");
  EXPECT_EQ(result.diagnostics[0].line, 12);
  EXPECT_EQ(result.suppressed_by_allow, 2);
}

TEST(Sleeplint, NetSocketPathsExemptFromWallclockOnly) {
  const auto result = RunOn("src/sleepwalk/net/socket_fixture.cc");
  // steady_clock on line 9 is sanctioned by the path; random_device on
  // line 10 is still ambient RNG.
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(result.diagnostics[0].rule, "no-ambient-rng");
  EXPECT_EQ(result.diagnostics[0].line, 10);
}

TEST(Sleeplint, OnlyRulesFilterRestrictsScan) {
  const auto result =
      RunOn("src/sleepwalk/net/socket_fixture.cc", {"no-wallclock"});
  EXPECT_TRUE(result.diagnostics.empty());
}

TEST(Sleeplint, DirectoryWalkFindsEveryFixture) {
  sleeplint::Options options;
  // The per-line fixture tree; the whole-program fixtures live under
  // fixtures/wp and are covered by the WholeProgram tests below.
  options.roots = {kFixtures + "/src"};
  const auto result = sleeplint::Run(options);
  // 12 fixture files; per-file counts asserted above sum to 25.
  EXPECT_EQ(result.files_scanned, 12);
  EXPECT_EQ(result.diagnostics.size(), 25u);
  // Diagnostics are sorted by path then line for stable output.
  for (std::size_t i = 1; i < result.diagnostics.size(); ++i) {
    const auto& a = result.diagnostics[i - 1];
    const auto& b = result.diagnostics[i];
    EXPECT_TRUE(a.path < b.path || (a.path == b.path && a.line <= b.line));
  }
}

TEST(Sleeplint, BaselineSuppressesListedViolations) {
  const std::string baseline_path =
      testing::TempDir() + "/sleeplint_baseline_test.txt";
  {
    std::ofstream out{baseline_path};
    out << "# comment\n";
    // Whole-file suppression for one rule, line-exact for another.
    out << Fixture("src/sleepwalk/core/rng_bad.cc") << ":no-ambient-rng\n";
    out << Fixture("src/sleepwalk/core/wallclock_bad.cc")
        << ":8:no-wallclock\n";
  }
  sleeplint::Options options;
  options.roots = {Fixture("src/sleepwalk/core/rng_bad.cc"),
                   Fixture("src/sleepwalk/core/wallclock_bad.cc")};
  options.baseline_path = baseline_path;
  const auto result = sleeplint::Run(options);
  EXPECT_EQ(result.suppressed_by_baseline, 4);  // 3 rng + 1 wallclock
  EXPECT_EQ(result.diagnostics.size(), 3u);     // wallclock lines 9-11
  EXPECT_FALSE(HasDiagnostic(result, "no-wallclock", 8));
  std::remove(baseline_path.c_str());
}

TEST(Sleeplint, MissingBaselineIsAnError) {
  sleeplint::Options options;
  options.roots = {Fixture("src/sleepwalk/core/rng_bad.cc")};
  options.baseline_path = kFixtures + "/does_not_exist.txt";
  EXPECT_TRUE(sleeplint::Run(options).baseline_error);
}

// ---------------------------------------------------------------------------
// Whole-program analyses (fixtures/wp mirrors the real layout)
// ---------------------------------------------------------------------------

sleeplint::Result RunWholeProgram() {
  sleeplint::Options options;
  options.roots = {kFixtures + "/wp"};
  options.whole_program = true;
  return sleeplint::Run(options);
}

const sleeplint::Diagnostic* Find(const sleeplint::Result& result,
                                  const std::string& rule) {
  for (const auto& diagnostic : result.diagnostics) {
    if (diagnostic.rule == rule) return &diagnostic;
  }
  return nullptr;
}

TEST(SleeplintWp, LayeringViolationNamesBothRanks) {
  const auto result = RunWholeProgram();
  const auto* diagnostic = Find(result, "layering");
  ASSERT_NE(diagnostic, nullptr);
  EXPECT_NE(diagnostic->path.find("ts/layer_bad.h"), std::string::npos);
  EXPECT_EQ(diagnostic->line, 6);
  EXPECT_NE(diagnostic->message.find("sleepwalk/core/engine.h"),
            std::string::npos);
  EXPECT_NE(diagnostic->message.find("ts rank 1"), std::string::npos);
  EXPECT_NE(diagnostic->message.find("core rank 5"), std::string::npos);
  // Downward includes (core/engine.h -> util/base.h) never fire.
  int layering_count = 0;
  for (const auto& d : result.diagnostics) {
    if (d.rule == "layering") ++layering_count;
  }
  EXPECT_EQ(layering_count, 1);
}

TEST(SleeplintWp, IncludeCycleReportedOnceWithChain) {
  const auto result = RunWholeProgram();
  int cycles = 0;
  for (const auto& diagnostic : result.diagnostics) {
    if (diagnostic.rule != "include-cycle") continue;
    ++cycles;
    EXPECT_NE(diagnostic.message.find("cycle_a.h:5"), std::string::npos);
    EXPECT_NE(diagnostic.message.find("cycle_b.h:5"), std::string::npos);
  }
  EXPECT_EQ(cycles, 1);  // one cycle, reported once, not once per entry
}

TEST(SleeplintWp, CrossTuLockCycleIsDetected) {
  // lock_one.cc acquires Alpha then Beta; lock_two.cc acquires Beta
  // then Alpha. Each TU alone is fine; the merged graph has the cycle.
  const auto result = RunWholeProgram();
  const auto* diagnostic = Find(result, "lock-order");
  ASSERT_NE(diagnostic, nullptr);
  EXPECT_NE(diagnostic->message.find("Alpha::mu_alpha -> Beta::mu_beta"),
            std::string::npos);
  EXPECT_NE(diagnostic->message.find("Beta::mu_beta -> Alpha::mu_alpha"),
            std::string::npos);
  EXPECT_NE(diagnostic->message.find("lock_one.cc:8"), std::string::npos);
  EXPECT_NE(diagnostic->message.find("lock_two.cc:9"), std::string::npos);
}

TEST(SleeplintWp, LockGraphRendersAsDeterministicDot) {
  const auto first = RunWholeProgram();
  const auto second = RunWholeProgram();
  EXPECT_EQ(first.lock_dot, second.lock_dot);
  EXPECT_NE(first.lock_dot.find("digraph lock_order"), std::string::npos);
  EXPECT_NE(first.lock_dot.find(
                "\"Alpha::mu_alpha\" -> \"Beta::mu_beta\""),
            std::string::npos);
  EXPECT_NE(first.lock_dot.find(
                "\"Beta::mu_beta\" -> \"Alpha::mu_alpha\""),
            std::string::npos);
}

TEST(SleeplintWp, ExceptionSafetyRules) {
  const auto result = RunWholeProgram();
  EXPECT_TRUE(HasDiagnostic(result, "throwing-destructor", 8));
  EXPECT_TRUE(HasDiagnostic(result, "throw-in-noexcept", 13));
  EXPECT_TRUE(HasDiagnostic(result, "crash-containment", 18));
  // noexcept(false) opts out; the throw on line 22 is legal.
  EXPECT_FALSE(HasDiagnostic(result, "throw-in-noexcept", 22));
}

TEST(SleeplintWp, RawStringContentsAreBlanked) {
  // R"(...)" and R"doc(...)doc" bodies mention half the banned tokens;
  // none may fire (the old per-line scanner could not blank these).
  const auto result = RunWholeProgram();
  for (const auto& diagnostic : result.diagnostics) {
    EXPECT_EQ(diagnostic.path.find("raw_string_ok.cc"), std::string::npos)
        << diagnostic.rule << " fired inside a raw string at line "
        << diagnostic.line;
  }
}

TEST(SleeplintWp, AllowFileWaivesOneRuleForTheWholeFile) {
  const auto result = RunWholeProgram();
  for (const auto& diagnostic : result.diagnostics) {
    if (diagnostic.path.find("allow_file.cc") == std::string::npos) continue;
    // Both wallclock hits are waived; the rng hit still stands.
    EXPECT_EQ(diagnostic.rule, "no-ambient-rng");
    EXPECT_EQ(diagnostic.line, 10);
  }
  EXPECT_TRUE(HasDiagnostic(result, "no-ambient-rng", 10));
}

TEST(SleeplintWp, UnknownRuleInAllowMarkerIsAnError) {
  const auto result = RunWholeProgram();
  EXPECT_TRUE(HasDiagnostic(result, "bad-allow", 6));   // allow(no-wallclok)
  EXPECT_TRUE(HasDiagnostic(result, "bad-allow", 8));   // allow-file typo
}

TEST(SleeplintWp, FixtureTreeTotals) {
  // The seeded defects, one finding each: layering, include-cycle,
  // lock-order, throwing-destructor, throw-in-noexcept,
  // crash-containment, 2x bad-allow, plus allow_file.cc's rng hit.
  const auto result = RunWholeProgram();
  EXPECT_EQ(result.diagnostics.size(), 9u);
  EXPECT_EQ(result.suppressed_by_allow, 2);  // allow-file(no-wallclock) x2
}

TEST(SleeplintWp, FactsRoundTripMatchesDirectAnalysis) {
  // Shard mode: dump facts for the wp tree, then analyze from the dump
  // alone. The merge run must reproduce the direct run exactly.
  const std::string facts_path =
      testing::TempDir() + "/sleeplint_facts_test.txt";
  {
    sleeplint::Options shard;
    shard.roots = {kFixtures + "/wp"};
    shard.facts_out = facts_path;
    const auto dumped = sleeplint::Run(shard);
    ASSERT_FALSE(dumped.facts_error) << dumped.facts_error_message;
    EXPECT_TRUE(dumped.diagnostics.empty());  // shard reports nothing
  }
  sleeplint::Options merge;
  merge.whole_program = true;
  merge.facts_in = {facts_path};
  const auto merged = sleeplint::Run(merge);
  ASSERT_FALSE(merged.facts_error) << merged.facts_error_message;

  const auto direct = RunWholeProgram();
  ASSERT_EQ(merged.diagnostics.size(), direct.diagnostics.size());
  for (std::size_t i = 0; i < merged.diagnostics.size(); ++i) {
    EXPECT_EQ(merged.diagnostics[i].path, direct.diagnostics[i].path);
    EXPECT_EQ(merged.diagnostics[i].line, direct.diagnostics[i].line);
    EXPECT_EQ(merged.diagnostics[i].rule, direct.diagnostics[i].rule);
    EXPECT_EQ(merged.diagnostics[i].message, direct.diagnostics[i].message);
  }
  EXPECT_EQ(merged.lock_dot, direct.lock_dot);
  std::remove(facts_path.c_str());
}

TEST(SleeplintWp, CorruptFactsFileIsAnError) {
  const std::string facts_path =
      testing::TempDir() + "/sleeplint_facts_corrupt.txt";
  {
    std::ofstream out{facts_path};
    out << "sleeplint-facts v1\n";
    out << "edge 0 1\n";  // record before any file
  }
  sleeplint::Options options;
  options.whole_program = true;
  options.facts_in = {facts_path};
  const auto result = sleeplint::Run(options);
  EXPECT_TRUE(result.facts_error);
  EXPECT_NE(result.facts_error_message.find("record before any file"),
            std::string::npos);
  std::remove(facts_path.c_str());
}

// ---------------------------------------------------------------------------
// Machine-readable output
// ---------------------------------------------------------------------------

TEST(SleeplintOutput, JsonIsOneWellFormedObject) {
  const auto result = RunWholeProgram();
  std::ostringstream out;
  sleeplint::RenderJson(out, result);
  std::string text = out.str();
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
  text.pop_back();
  EXPECT_TRUE(jsonl::IsJsonObjectLine(text)) << text;
  EXPECT_NE(text.find("\"tool\":\"sleeplint\""), std::string::npos);
  EXPECT_NE(text.find("\"rule\":\"lock-order\""), std::string::npos);
}

TEST(SleeplintOutput, SarifIsValidAndCarriesEveryFinding) {
  const auto result = RunWholeProgram();
  std::ostringstream out;
  sleeplint::RenderSarif(out, result);
  std::string text = out.str();
  ASSERT_FALSE(text.empty());
  text.pop_back();
  // Validated with the same strict parser jsonl_check --sarif uses.
  EXPECT_TRUE(jsonl::IsJsonObjectLine(text)) << text;
  EXPECT_NE(text.find("\"version\":\"2.1.0\""), std::string::npos);
  for (const auto& diagnostic : result.diagnostics) {
    EXPECT_NE(text.find("\"ruleId\":\"" + diagnostic.rule + "\""),
              std::string::npos);
  }
  // Every catalogued rule is declared in the driver block.
  for (const auto& rule : sleeplint::AllRules()) {
    EXPECT_NE(text.find("\"id\":\"" + rule + "\""), std::string::npos);
  }
}

TEST(SleeplintOutput, SarifEscapesMessageText) {
  sleeplint::Result result;
  result.diagnostics.push_back(sleeplint::Diagnostic{
      "src/a \"b\".cc", 3, "layering", "quote \" backslash \\ tab \t"});
  std::ostringstream out;
  sleeplint::RenderSarif(out, result);
  std::string text = out.str();
  text.pop_back();
  EXPECT_TRUE(jsonl::IsJsonObjectLine(text)) << text;
}

}  // namespace
