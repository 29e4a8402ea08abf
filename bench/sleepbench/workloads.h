// The four sleepbench workloads behind one interface, plus the pieces
// two of them share: the campaign's probe chain and the re-composed
// (traced) store campaign and classify sweep.
#ifndef SLEEPBENCH_WORKLOADS_H_
#define SLEEPBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "harness.h"
#include "sleepwalk/core/block_store.h"
#include "sleepwalk/core/parallel_executor.h"
#include "sleepwalk/core/store_campaign.h"
#include "sleepwalk/core/supervisor.h"
#include "sleepwalk/sim/world.h"

namespace sleepbench {

inline constexpr std::string_view kWorkloadNames[] = {
    "probe_campaign", "store_campaign", "reanalyze", "checkpoint_resume"};

struct Options {
  std::uint64_t seed = 1;
  int workers = 1;
  bool smoke = false;  ///< tiny sizes, same code paths and checks
};

/// Aggregate verdicts; equal counts are how a traced re-composition
/// proves it classified the same program as the untraced run.
struct Verdicts {
  std::uint64_t strict = 0;
  std::uint64_t relaxed = 0;
  std::uint64_t non_diurnal = 0;
  std::uint64_t skipped = 0;
  bool operator==(const Verdicts&) const = default;
};

/// What one rep measured and checked. Times are wall seconds; a traced
/// rep sets rep_wall_s, work_s and classify_s too, so its phases' shares
/// of the rep can be held against the untraced rep's.
struct RepOutcome {
  double rep_wall_s = 0.0;      ///< everything the traced run re-composes
  double work_s = 0.0;          ///< wall of the block_rounds phase
  double block_rounds = 0.0;
  double classify_s = 0.0;      ///< wall of the verdict-producing phase
  double classify_blocks = 0.0;
  double resume_s = 0.0;        ///< median reopen latency of the artifact
  std::uint64_t artifact_bytes = 0;
  std::uint64_t digest = 0;
  Verdicts verdicts;
  std::uint64_t blocks = 0;       ///< operations: blocks processed
  std::uint64_t quarantined = 0;  ///< blocks the campaign quarantined
  std::vector<std::string> errors;  ///< failed in-rep checks

  void Check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
};

/// Diurnal verdicts scored against the simulator's ground truth.
struct Truth {
  std::uint64_t true_positive = 0;
  std::uint64_t false_positive = 0;
  std::uint64_t false_negative = 0;
  double precision() const;
  double recall() const;
};

/// A named structural expectation of a workload's traced stage shares.
struct Gate {
  std::string name;
  double value = 0.0;
  double min = 0.0;
  double max = 1.0;
  bool ok() const { return value >= min && value <= max; }
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// The sizes actually run, as a JSON object.
  virtual std::string SizesJson() const = 0;
  /// Builds the inputs from the seed; `worker`, when set, is charged the
  /// set-up's traced stages. Repeatable: every call rebuilds from scratch.
  virtual void Setup(Worker* worker) = 0;
  /// Digest of what Setup() built (must not change across set-ups).
  virtual std::uint64_t SetupDigest() const = 0;
  /// One untraced rep on all blocks, or on the first quarter of them.
  virtual RepOutcome Run(bool quarter, int workers) = 0;
  /// The full rep re-composed from the same public calls under `trace`.
  virtual RepOutcome RunTraced(Trace& trace) = 0;
  /// Ground-truth scoring of the verdicts, where the input has truth.
  virtual std::optional<Truth> ScoreTruth() { return std::nullopt; }
  /// The stage-share expectations the traced run asserts.
  virtual std::vector<Gate> ShapeGates(const Trace& trace) const = 0;
  /// 1 - (bare per-block loop wall / parallel executor wall), both
  /// untraced, for the workload that runs the executor; 0 elsewhere.
  virtual double ExecutorOverheadFrac(int /*workers*/) { return 0.0; }
};

std::unique_ptr<Workload> MakeProbeCampaign(const Options& options);
std::unique_ptr<Workload> MakeStoreCampaign(const Options& options);
std::unique_ptr<Workload> MakeReanalyze(const Options& options);
std::unique_ptr<Workload> MakeCheckpointResume(const Options& options);

// --- shared by probe_campaign and reanalyze ----------------------------------

/// The campaign `sleepwalk_cli measure` runs: world seed = benchmark
/// seed, observer site 1, SimTransport behind an InstrumentedTransport.
std::vector<sleepwalk::core::BlockTarget> CampaignTargets(
    const sleepwalk::sim::SimWorld& world);
sleepwalk::core::SupervisorConfig CampaignConfig();
sleepwalk::core::ShardFactory CampaignChains(
    const sleepwalk::sim::SimWorld& world);
std::uint64_t CampaignSiteSeed();
Verdicts VerdictsOf(const sleepwalk::core::DiurnalCounts& counts);
/// Folds verdict counts into a digest.
std::uint64_t WithVerdicts(std::uint64_t digest, const Verdicts& verdicts);
/// Scores one counted (probed, long enough, not quarantined) block.
void Score(bool truly_diurnal, bool classified_diurnal, Truth& truth);
/// Re-opens are cheap, so most workloads time a few and take the median.
inline constexpr int kReopens = 5;

// --- shared by store_campaign and checkpoint_resume ---------------------------
//
// SeedStoreLikeCampaign, TracedStoreCampaign and TracedAnalyzeStore (and
// the traced loops in probe_campaign.cc and reanalyze.cc) are interim
// copies of the library's orchestration, kept only until the obs/ stage
// ledger of ROADMAP item 1 times these stages from inside the program;
// they are to be deleted then. The digest and verdict checks catch a
// copy that computes something else; the trace.phase_share_drift gate
// catches one whose phases no longer take the share of the rep that the
// library's do.

/// A rep's copy of a store workload's config: all blocks or the first
/// quarter, `workers` threads, snapshots into `env`.
sleepwalk::core::StoreCampaignConfig RepConfig(
    sleepwalk::core::StoreCampaignConfig config, bool quarter, int workers,
    sleepwalk::storage::Env& env);

/// SeedStore() of core/store_campaign.cc, through the store's public API.
void SeedStoreLikeCampaign(sleepwalk::core::BlockStore& store,
                           const sleepwalk::core::StoreCampaignConfig& config);

/// RunStoreCampaign() re-composed under `trace`: the snapshot at
/// config.checkpoint_path is mapped and decoded when it exists (else the
/// store is seeded fresh), rounds run on config.workers threads in the
/// campaign's contiguous ranges, the classify sweep runs before the
/// final snapshot when configured, and each segment ends in an encoded,
/// atomically written snapshot. config.env and config.checkpoint_path
/// must be set: every benchmark store campaign checkpoints.
sleepwalk::core::StoreCampaignOutcome TracedStoreCampaign(
    sleepwalk::core::BlockStore& store,
    const sleepwalk::core::StoreCampaignConfig& config, Trace& trace);

/// AnalyzeStore() re-composed under `trace`, one lap per stage per block.
sleepwalk::core::StoreAnalyzeStats TracedAnalyzeStore(
    sleepwalk::core::BlockStore& store,
    const sleepwalk::core::StoreAnalyzerConfig& config, int threads,
    Trace& trace);

/// Verdict counts read back from the store's flag and class columns.
Verdicts StoreVerdicts(const sleepwalk::core::BlockStore& store);

}  // namespace sleepbench

#endif  // SLEEPBENCH_WORKLOADS_H_
