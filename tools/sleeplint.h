// sleeplint — project-invariant lint for the sleepwalk tree.
//
// The pipeline is only reproducible because every layer is deterministic
// under a seeded virtual clock (DESIGN.md §8): one stray
// `std::random_device` or `system_clock::now()` in core code silently
// breaks same-seed reproduction in ways no unit test notices until a
// checkpoint diff fails weeks later. sleeplint enforces those invariants
// *statically*, as named rules with file:line diagnostics, so the CI
// `static-analysis` job fails at the offending line instead.
//
// It is deliberately libclang-free — a single-pass lexer
// (sleeplint_lexer.h) feeds both token/substring rules and a heuristic
// fact extractor, so it builds everywhere the project builds. False
// positives have sanctioned escapes: `// sleeplint: allow(<rule>)` on
// the same or the immediately preceding line, and
// `// sleeplint: allow-file(<rule>)` anywhere in a file to waive one
// rule for the whole file — always with the justification in the
// surrounding comment. Naming an unknown rule in either marker is
// itself an error (`bad-allow`): a typoed escape must not silently
// suppress nothing.
//
// Per-line rules (DESIGN.md §8):
//   no-wallclock            wall/monotonic clock reads outside the paths
//                           granted Capability::kClock (live-probe
//                           sockets, the admin serve loop)
//   no-ambient-rng          rand()/random_device/mt19937 outside util/rng
//   no-raw-io               printf/std::cout/std::cerr in library code
//   no-raw-fs               fstream/fopen/... outside storage/
//   no-raw-socket           socket/epoll syscalls outside the granted
//                           network layers
//   no-raw-thread           std::thread/std::jthread in library code
//                           outside util/parallel (the one worker pool)
//                           and serve/ (the admin listener thread)
//   no-unchecked-narrowing  raw static_cast to a narrower integer in
//                           serialization files — use util::CheckedNarrow
//   header-hygiene          include guard or #pragma once in every header
//   bad-allow               allow/allow-file marker naming no known rule
//
// Whole-program rules (DESIGN.md §14), computed by the two-phase
// analyzer (`--wp`): per-file fact extraction (sleeplint_facts.h) then
// cross-file analyses over the merged database (sleeplint_wp.h):
//   layering             #include edges must descend the declarative
//                        layer map in sleeplint_policy.h
//   include-cycle        the include graph must be acyclic
//   lock-order           the global acquired-while-held graph over
//                        util::Mutex must be acyclic (deadlock freedom)
//   throwing-destructor  no throw inside a destructor
//   throw-in-noexcept    no throw inside a noexcept function
//   crash-containment    util::CrashInjected raised only by the
//                        failpoint/storage layers
//
// Fact extraction and analysis are separable for CI sharding:
// `--facts-out` dumps a deterministic fact database per shard,
// `--facts-in` merges shard dumps and runs the cross-file analyses
// once. Output renders as text (default), `--format=json`, or
// `--format=sarif` (GitHub code-scanning compatible).
#ifndef SLEEPWALK_TOOLS_SLEEPLINT_H_
#define SLEEPWALK_TOOLS_SLEEPLINT_H_

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace sleeplint {

/// Stable rule ids, shared by the per-line rules, the whole-program
/// analyses, allow markers, and baselines.
namespace rules {
inline constexpr std::string_view kWallclock = "no-wallclock";
inline constexpr std::string_view kRng = "no-ambient-rng";
inline constexpr std::string_view kRawIo = "no-raw-io";
inline constexpr std::string_view kRawFs = "no-raw-fs";
inline constexpr std::string_view kRawSocket = "no-raw-socket";
inline constexpr std::string_view kRawThread = "no-raw-thread";
inline constexpr std::string_view kNarrowing = "no-unchecked-narrowing";
inline constexpr std::string_view kHygiene = "header-hygiene";
inline constexpr std::string_view kBadAllow = "bad-allow";
inline constexpr std::string_view kLayering = "layering";
inline constexpr std::string_view kIncludeCycle = "include-cycle";
inline constexpr std::string_view kLockOrder = "lock-order";
inline constexpr std::string_view kThrowingDtor = "throwing-destructor";
inline constexpr std::string_view kThrowNoexcept = "throw-in-noexcept";
inline constexpr std::string_view kCrashContainment = "crash-containment";
}  // namespace rules

/// One violation. `path` is the file as passed/found; `line` is
/// 1-based; `rule` is the stable rule id used by baselines and allow
/// comments.
struct Diagnostic {
  std::string path;
  int line = 0;
  std::string rule;
  std::string message;
};

struct Options {
  /// Files and/or directories to scan. Directories are walked
  /// recursively for .h/.hpp/.cc/.cpp/.cxx; explicit files are scanned
  /// regardless of extension. May be empty when `facts_in` is set.
  std::vector<std::string> roots;
  /// Baseline file: one `path:rule` or `path:line:rule` entry per line,
  /// `#` comments. Matching diagnostics are counted, not reported.
  std::string baseline_path;
  /// When non-empty, only these rule ids run/report.
  std::vector<std::string> only_rules;
  /// Run the phase-2 whole-program analyses (layering, include-cycle,
  /// lock-order, exception safety) over scanned + loaded facts.
  bool whole_program = false;
  /// When non-empty, dump the extracted fact database (including this
  /// shard's per-line diagnostics) to this path and report nothing —
  /// the CI extraction-shard mode.
  std::string facts_out;
  /// Fact-database dumps to merge before analysis.
  std::vector<std::string> facts_in;
};

struct Result {
  std::vector<Diagnostic> diagnostics;  ///< violations after baseline
  int files_scanned = 0;
  int suppressed_by_allow = 0;  ///< `// sleeplint: allow(...)` hits
  int suppressed_by_baseline = 0;
  bool baseline_error = false;  ///< baseline path given but unreadable
  bool facts_error = false;     ///< facts load/dump failed
  std::string facts_error_message;
  /// Whole-program mode: the global lock-order graph as Graphviz DOT
  /// (deterministic, byte-stable — committed into DESIGN.md §14).
  std::string lock_dot;
};

/// All rule ids, in reporting order.
const std::vector<std::string>& AllRules();

/// Lints one file's content with the per-line rules. `path` drives the
/// per-rule scoping (see sleeplint_policy.h), so fixture trees mirror
/// the real layout. Exposed for tests/tools/sleeplint_test.cc.
std::vector<Diagnostic> LintFile(const std::string& path,
                                 std::string_view content,
                                 const std::vector<std::string>& only_rules,
                                 int* suppressed_by_allow);

/// Walks roots, merges facts, applies the baseline, returns everything.
Result Run(const Options& options);

/// Renders `path:line: [rule] message` lines.
void PrintDiagnostics(std::ostream& out,
                      const std::vector<Diagnostic>& diagnostics);

/// Renders the result as one JSON object (machine-readable text form).
void RenderJson(std::ostream& out, const Result& result);

/// Renders the result as a SARIF 2.1.0 document for code scanning.
void RenderSarif(std::ostream& out, const Result& result);

}  // namespace sleeplint

#endif  // SLEEPWALK_TOOLS_SLEEPLINT_H_
