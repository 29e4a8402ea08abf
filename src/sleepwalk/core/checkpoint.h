// Campaign checkpoint persistence.
//
// A killed A_12w-style campaign used to lose everything; a checkpoint
// makes the campaign resumable *bit-identically*: it captures the
// completed per-block analyses at full double precision, the in-flight
// block's mutable state (estimator EWMAs, prober cursor/belief, raw
// A-hat_s observations, outage bookkeeping), the aggregate counts,
// resilience statistics, and the transport's serialized state (for
// stateful/simulated transports).
//
// Format "SLCK" v3: a storage/columnar.h container of kind
// kCheckpointKind (page-aligned, every column CRC32C-framed, loaded
// through storage::Env::Map). Columns:
//   META        format version (mixed-version refusal), diurnal counts,
//               resilience stats, next_block
//   COMPLETED   finished BlockAnalysis records shredded into fixed-width
//               per-record columns plus concatenated series/outage blobs,
//               with each block's final estimator state
//   QUARANTINED abandoned prefix indices
//   INFLIGHT    the open block's BlockAnalyzerState, if any
//   TRANSPORT   serialized transport state
// DESIGN.md §15 has the full column table. v3 is the only version
// written or read: v1 and v2 files, left by older builds, are refused
// with their version reported.
//
// A torn write, a truncation, or a bit flip is *detected* — and the
// CheckpointStore below *recovers*: it rotates generation-numbered
// hard-linked snapshots (<path>.g<N>, keep last K) and falls back to
// the newest intact generation when the primary file is damaged,
// quarantining the corrupt file as <name>.corrupt for post-mortem.
//
// The fingerprint binds a checkpoint to its campaign:
// resuming with different targets, rounds, seed, or schedule is refused
// rather than silently producing a franken-dataset. The generation
// number is the checkpoint's own checkpoints_written count, so crashed
// and uninterrupted timelines number their snapshots identically.
#ifndef SLEEPWALK_CORE_CHECKPOINT_H_
#define SLEEPWALK_CORE_CHECKPOINT_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sleepwalk/core/block_analyzer.h"
#include "sleepwalk/core/pipeline.h"
#include "sleepwalk/report/resilience.h"
#include "sleepwalk/storage/file.h"

namespace sleepwalk::core {

/// Checkpoint format version (the storage/columnar.h container version,
/// repeated in the META column); bump on any layout change.
inline constexpr std::uint32_t kCheckpointVersionColumnar = 3;

/// Everything a resumed campaign needs.
struct Checkpoint {
  std::uint64_t fingerprint = 0;
  DiurnalCounts counts;
  report::ResilienceStats stats;
  std::vector<BlockAnalysis> completed;
  /// Final estimator state per completed block, parallel to `completed`.
  /// Feeds the outcome's columnar BlockStore so a resumed campaign
  /// reproduces the estimator columns exactly.
  std::vector<AvailabilityState> estimators;
  std::vector<std::uint32_t> quarantined;  ///< prefix indices abandoned
  std::uint64_t next_block = 0;  ///< index of the first unfinished target

  bool has_inflight = false;
  std::int64_t inflight_next_round = 0;
  int inflight_consecutive_failures = 0;
  BlockAnalyzerState inflight;

  std::vector<std::uint8_t> transport_state;
};

/// What a decode attempt saw — the forensic record slck_fsck prints and
/// the recovery metrics count.
struct CheckpointLoadReport {
  bool found = false;          ///< file existed and was readable
  bool bad_magic = false;
  std::uint32_t version = 0;   ///< header version, when readable
  bool version_refused = false;  ///< unknown or mixed version
  int corrupt_sections = 0;    ///< CRC failures, truncations, framing
  std::uint64_t generation = 0;
  std::string detail;          ///< first failure, human-readable
};

/// Recovery accounting for one campaign start (exported on
/// CampaignOutcome and as supervisor_checkpoint_* metrics).
struct RecoveryEvents {
  std::uint64_t recoveries = 0;  ///< resumed from a fallback generation
  std::uint64_t corrupt_sections = 0;
  std::uint64_t generations_discarded = 0;
};

/// Identity of a campaign: seed, rounds, schedule, and the target list.
/// Two campaigns share a fingerprint iff a checkpoint from one is a valid
/// resume point for the other.
std::uint64_t CampaignFingerprint(const std::vector<BlockTarget>& targets,
                                  std::int64_t n_rounds, std::uint64_t seed,
                                  const AnalyzerConfig& config);

/// Serializes `checkpoint` as SLCK v3 (generation =
/// stats.checkpoints_written). Deterministic: two equal checkpoints
/// encode byte-identically, so resumed and uninterrupted timelines
/// still converge to the same file.
std::vector<std::uint8_t> EncodeCheckpoint(const Checkpoint& checkpoint);

/// Decodes SLCK v3 bytes; nullopt on bad magic, any other version
/// (`version_refused`, with the version in `report`), truncation, or
/// any CRC failure (details in `report`).
std::optional<Checkpoint> DecodeCheckpoint(
    std::span<const std::uint8_t> bytes,
    CheckpointLoadReport* report = nullptr);

/// Reads one checkpoint file; nullopt on any I/O or decode failure.
std::optional<Checkpoint> ReadCheckpoint(
    storage::Env& env, const std::string& path,
    CheckpointLoadReport* report = nullptr);

/// Generation-rotating checkpoint store.
///
/// The newest checkpoint always lives at exactly `path` (so external
/// tooling and byte-equality tests see one canonical file); the last
/// `keep` generations additionally survive as hard links `path.g<N>`.
/// Load() prefers the primary file and walks generations newest-first
/// when it is corrupt — the self-healing path.
class CheckpointStore {
 public:
  /// `keep` <= 1 disables rotation (primary file only).
  CheckpointStore(storage::Env& env, std::string path, int keep);

  /// Durably persists `checkpoint` and rotates generations.
  storage::Error Save(const Checkpoint& checkpoint);

  /// Newest intact checkpoint whose fingerprint matches. Corrupt
  /// candidates are quarantined (renamed *.corrupt) and counted in
  /// `events`; a fallback hit counts as a recovery. When the primary
  /// file is absent the campaign is considered deliberately fresh and
  /// stale generations are discarded rather than resurrected.
  std::optional<Checkpoint> Load(std::uint64_t fingerprint,
                                 RecoveryEvents& events);

  /// Removes every retained generation (and quarantined remnants).
  void DiscardGenerations();

  const std::string& path() const noexcept { return path_; }

 private:
  /// (generation, full path) of retained generation files, ascending.
  std::vector<std::pair<std::uint64_t, std::string>> Generations();

  storage::Env& env_;
  std::string path_;
  std::string dir_;
  std::string base_;  ///< file name of `path_` within `dir_`
  int keep_;
};

}  // namespace sleepwalk::core

#endif  // SLEEPWALK_CORE_CHECKPOINT_H_
