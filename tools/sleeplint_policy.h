// The declarative layering & capability policy for the sleepwalk tree.
//
// Before the whole-program pass existed, every rule carried its own
// ad-hoc path carve-out (IsClockExemptPath, IsSocketExemptPath, ...).
// This header replaces them with one declarative table, used by both
// the per-line rules (sleeplint.cc) and the layer-DAG analysis
// (sleeplint_wp.cc):
//
//   * a LAYER MAP assigning every top-level directory under
//     src/sleepwalk/ a rank:
//
//         util                                  (0, foundation)
//       < fft, ts, stats                        (1, math)
//       < net, geo, asn, rdns, sim, world      (2, domain)
//       < faults, storage, probing             (3, mechanisms)
//       < obs                                  (4, telemetry)
//       < report, core                         (5, orchestration)
//       < serve                                (6, observers)
//
//     A file may include headers of its own rank or below; an include
//     that climbs the map is a `layering` violation unless a *named
//     exemption* below covers it. The umbrella header
//     src/sleepwalk/sleepwalk.h is exempt by definition (it re-exports
//     everything).
//
//   * CAPABILITY GRANTS naming which paths may perform which ambient
//     effects (clock reads, raw sockets, raw filesystem, RNG
//     construction, CrashInjected throws, raw threads). The per-line
//     rules consult Grants() instead of hardcoded path predicates, so
//     the entire escape-hatch surface of the linter is visible in one
//     table.
//
// Paths are matched by substring (directories) or suffix (named
// exemptions), after normalizing '\' to '/'; fixture trees therefore
// exercise the same policy as the real tree.
#ifndef SLEEPWALK_TOOLS_SLEEPLINT_POLICY_H_
#define SLEEPWALK_TOOLS_SLEEPLINT_POLICY_H_

#include <string>
#include <string_view>
#include <vector>

namespace sleeplint::policy {

/// Ambient effects a path may be granted.
enum class Capability {
  kClock,       ///< wall/monotonic clock reads
  kSocket,      ///< raw socket/epoll syscalls
  kFilesystem,  ///< direct filesystem access (everyone else via storage::Env)
  kRng,         ///< constructing non-seeded randomness
  kCrashThrow,  ///< throwing util::CrashInjected (failpoint machinery)
  kThreads,     ///< naming std::thread/std::jthread (the worker pool)
};

struct LayerEntry {
  std::string_view dir;  ///< top-level directory under src/sleepwalk/
  int rank;              ///< higher may include lower or equal
};

/// A sanctioned upward include edge. `from_suffix` matches the end of
/// the including file's normalized path; `to_dir` is the layer dir of
/// the included header.
struct IncludeExemption {
  std::string_view name;
  std::string_view from_suffix;
  std::string_view to_dir;
  std::string_view reason;
};

/// The layer map, ascending rank. Order is the documentation.
const std::vector<LayerEntry>& Layers();

/// Rank for a layer dir; -1 when the dir is not in the map.
int RankOf(std::string_view dir);

/// The named exemption table.
const std::vector<IncludeExemption>& IncludeExemptions();

/// The exemption covering `from_path` including into `to_dir`, or
/// nullptr. `from_path` must already be normalized.
const IncludeExemption* FindExemption(const std::string& from_path,
                                      std::string_view to_dir);

/// Layer directory of a normalized path ("core", "util", ...), or ""
/// when the path is not under a src/sleepwalk/ root (tools, tests,
/// examples are unlayered) or is the umbrella header.
std::string LayerDirOf(const std::string& path);

/// True when `path` (normalized) is granted `capability`.
bool Grants(const std::string& path, Capability capability);

/// Library code: the obs::Logger / layering / storage disciplines apply.
bool IsLibraryPath(const std::string& path);

/// Binary serialization layers whose fixed-width narrowing must go
/// through util::CheckedNarrow.
bool IsSerializationPath(const std::string& path);

}  // namespace sleeplint::policy

#endif  // SLEEPWALK_TOOLS_SLEEPLINT_POLICY_H_
