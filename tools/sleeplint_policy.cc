#include "sleeplint_policy.h"

#include <algorithm>

namespace sleeplint::policy {

namespace {

bool PathContains(const std::string& path, std::string_view needle) {
  return path.find(needle) != std::string::npos;
}

bool EndsWith(const std::string& path, std::string_view suffix) {
  return path.size() >= suffix.size() &&
         path.compare(path.size() - suffix.size(), suffix.size(), suffix) ==
             0;
}

/// One grant row: a capability and the path substring that carries it.
struct Grant {
  Capability capability;
  std::string_view path_substring;
};

// Live-probe networking and the admin plane time real sockets and run a
// serving loop (wall phenomena); storage/ is the single filesystem
// layer; util/rng is the one sanctioned RNG implementation; the
// failpoint machinery and the storage envs that execute its crash
// actions are the only CrashInjected throwers; util/parallel is the one
// worker pool and the admin server's listener is the one other thread.
constexpr Grant kGrants[] = {
    {Capability::kClock, "net/socket"},
    {Capability::kClock, "net/icmp"},
    {Capability::kClock, "/serve/"},
    {Capability::kSocket, "net/socket"},
    {Capability::kSocket, "net/icmp"},
    {Capability::kSocket, "rdns/dns_resolver"},
    {Capability::kSocket, "/serve/"},
    {Capability::kFilesystem, "/storage/"},
    {Capability::kRng, "util/rng"},
    {Capability::kCrashThrow, "util/failpoint"},
    {Capability::kCrashThrow, "/storage/"},
    {Capability::kThreads, "util/parallel"},
    {Capability::kThreads, "/serve/"},
};

}  // namespace

const std::vector<LayerEntry>& Layers() {
  static const std::vector<LayerEntry> kLayers = {
      {"util", 0},                                          // foundation
      {"fft", 1},     {"ts", 1},      {"stats", 1},         // math
      {"net", 2},     {"geo", 2},     {"asn", 2},           // domain
      {"rdns", 2},    {"sim", 2},     {"world", 2},
      {"faults", 3},  {"storage", 3}, {"probing", 3},       // mechanisms
      {"obs", 4},                                           // telemetry
      {"report", 5},  {"core", 5},                          // orchestration
      {"serve", 6},                                         // observers
  };
  return kLayers;
}

int RankOf(std::string_view dir) {
  for (const auto& entry : Layers()) {
    if (entry.dir == dir) return entry.rank;
  }
  return -1;
}

const std::vector<IncludeExemption>& IncludeExemptions() {
  // Every entry is an intentional upward edge, named so diagnostics and
  // DESIGN.md §14 can cite it. Keep this list painful to grow: each row
  // is a hole in the layer DAG.
  static const std::vector<IncludeExemption> kExemptions = {
      {"obs-context-threading", "net/instrumented_transport.h", "obs",
       "the obs::Context null-object seam is threaded through the "
       "transport decorators by design (DESIGN.md §7)"},
      {"obs-context-threading", "faults/faulty_transport.h", "obs",
       "fault attribution reports through the same obs::Context seam"},
      {"obs-context-threading", "probing/prober.h", "obs",
       "per-probe telemetry flows through the obs::Context seam"},
      {"obs-context-threading", "storage/instrumented_env.h", "obs",
       "storage op counters feed the obs registry through the seam"},
      {"probe-accounting-pod", "net/instrumented_transport.h", "report",
       "report::ProbeAccounting is the shared accounting POD the "
       "instrumented transport fills in"},
      {"probe-accounting-pod", "faults/faulty_transport.h", "report",
       "fault attribution reconciles against report::ProbeAccounting"},
      {"round-scheduler-shared", "sim/survey.h", "probing",
       "the simulated survey replays probing::RoundScheduler's cadence "
       "so sim ground truth and campaign rounds stay aligned"},
  };
  return kExemptions;
}

const IncludeExemption* FindExemption(const std::string& from_path,
                                      std::string_view to_dir) {
  for (const auto& exemption : IncludeExemptions()) {
    if (exemption.to_dir == to_dir &&
        EndsWith(from_path, exemption.from_suffix)) {
      return &exemption;
    }
  }
  return nullptr;
}

std::string LayerDirOf(const std::string& path) {
  static constexpr std::string_view kRoot = "src/sleepwalk/";
  const std::size_t at = path.rfind(kRoot);
  if (at == std::string::npos) return "";
  const std::size_t begin = at + kRoot.size();
  const std::size_t slash = path.find('/', begin);
  if (slash == std::string::npos) return "";  // umbrella sleepwalk.h
  return path.substr(begin, slash - begin);
}

bool Grants(const std::string& path, Capability capability) {
  for (const auto& grant : kGrants) {
    if (grant.capability == capability &&
        PathContains(path, grant.path_substring)) {
      return true;
    }
  }
  return false;
}

bool IsLibraryPath(const std::string& path) {
  return PathContains(path, "src/sleepwalk/");
}

bool IsSerializationPath(const std::string& path) {
  return PathContains(path, "core/checkpoint") ||
         PathContains(path, "core/dataset");
}

}  // namespace sleeplint::policy
