// Paper-scale campaign runner over the columnar BlockStore.
//
// The full measurement pipeline (core/parallel_executor.h) carries a
// prober, retry machinery, and per-block analysis — right for 400
// blocks, far too heavy to size the system at the paper's 3.7M. This
// runner drives ONLY the per-round estimator + probe-accounting state
// through BlockStore::ObserveRound, the batched kernel, which is the
// load that actually dominates at scale.
//
// Determinism is structural: each block's observation for round r is a
// pure function of (seed, prefix_index, r), and blocks are independent,
// so any partition of the block range across workers produces the same
// final columns byte-for-byte. Workers own contiguous ranges (no
// stealing, no false sharing: ranges are long and columns are
// 64-byte-aligned); the only synchronization is the join at each
// checkpoint-segment boundary. Within a segment a worker runs its range
// in tiles of 128 blocks, every round of the segment on one tile before
// the next, so a tile's columns and ring lines stay in L1d across
// rounds (store_campaign.cc, kTileBlocks). Each block still sees its
// rounds in order, so the tile order is as invisible as the partition.
//
// Checkpoint/resume: at every segment boundary the store serializes as
// an SLCK v3 snapshot (block_store.h) written via storage::AtomicWrite
// and re-loaded by mapping it (storage::Env::Map) and copying each
// column once into a fresh arena. A run
// killed at a boundary and resumed — at ANY worker count — finishes
// with columns byte-identical to an uninterrupted run, which
// bench/parallel_scaling and the block_store tests verify by digest
// and by final-snapshot byte equality.
#ifndef SLEEPWALK_CORE_STORE_CAMPAIGN_H_
#define SLEEPWALK_CORE_STORE_CAMPAIGN_H_

#include <cstdint>
#include <string>

#include "sleepwalk/core/block_store.h"
#include "sleepwalk/core/store_analyzer.h"
#include "sleepwalk/storage/file.h"
#include "sleepwalk/util/rng.h"

namespace sleepwalk::core {

/// Scale-runner knobs. Defaults: serial, no checkpointing.
struct StoreCampaignConfig {
  std::size_t n_blocks = 0;
  std::int64_t n_rounds = 0;
  std::uint64_t seed = 0x51ee9;
  int workers = 1;
  AvailabilityConfig availability;

  /// Snapshot path; empty disables checkpointing (and resume).
  std::string checkpoint_path;
  /// Rounds per checkpoint segment (<= 0: only the final snapshot).
  std::int64_t checkpoint_every_rounds = 0;
  /// Storage seam; null = the real POSIX filesystem.
  storage::Env* env = nullptr;

  /// Stop (as if SIGKILLed) at the first segment boundary at or after
  /// this many rounds, leaving the boundary snapshot on disk;
  /// 0 = run to completion. The crash/resume tests' kill switch.
  std::int64_t stop_after_rounds = 0;

  /// Per-block A-hat_s ring capacity (samples retained for the
  /// end-of-campaign classify sweep). 0 = estimator-only (PR 9
  /// behaviour): no series columns, no classification possible.
  std::int32_t series_capacity = 0;
  /// Run the full analyze+classify sweep (core/store_analyzer.h) over
  /// the columns when the last round completes, before the final
  /// checkpoint — so the final snapshot carries the verdicts and a
  /// killed+resumed run stays byte-identical to an uninterrupted one.
  bool classify = false;
  /// Sweep knobs (schedule/diurnal/stationarity).
  StoreAnalyzerConfig analyzer;
};

/// What a (possibly resumed, possibly killed) store campaign reports.
struct StoreCampaignOutcome {
  bool resumed = false;
  bool stopped_early = false;
  std::int64_t rounds_done = 0;
  std::uint64_t checkpoints_written = 0;
  std::uint64_t digest = 0;  ///< BlockStore::Digest() of the final state
  std::string error;         ///< first storage failure, empty when clean
  /// Classify-sweep outcome (all zero unless config.classify ran this
  /// process; a resumed-complete campaign's verdicts live in the
  /// snapshot columns, not here).
  StoreAnalyzeStats analyze;
};

/// The deterministic synthetic observation for (seed, block, round):
/// what a Trinocular round against a simulated block would report, as a
/// pure hash so scale benches never pay transport costs. Exposed for
/// tests (the resume proof replays it).
inline RoundSample SyntheticRoundSample(std::uint64_t seed,
                                        std::uint32_t prefix_index,
                                        std::int64_t round) noexcept {
  const std::uint64_t hash =
      MixHash(seed, prefix_index, static_cast<std::uint64_t>(round));
  // 1..8 probes; positives biased by a per-block "availability" nibble
  // plus a coarse diurnal swing so estimator trajectories look like
  // the paper's rather than white noise.
  const auto total = static_cast<std::int32_t>(1 + (hash & 0x7));
  const auto level = static_cast<std::int32_t>((hash >> 3) & 0xf);
  const auto day_phase = static_cast<std::int32_t>(
      (static_cast<std::uint64_t>(round) + (hash >> 7)) % 131);
  std::int32_t positives =
      (level + (day_phase < 66 ? 4 : 0)) * total / 24;
  if (positives > total) positives = total;
  return {positives, total};
}

/// Per-block seed-time attributes, exposed so the scalar reference in
/// tests/benches can reconstruct exactly what SeedStore planted.
inline double SyntheticInitialAvailability(std::uint64_t seed,
                                           std::uint32_t prefix_index) noexcept {
  const std::uint64_t hash = MixHash(seed ^ 0xb10c5eedULL, prefix_index);
  return static_cast<double>(hash & 0xffff) / 65536.0;
}

/// Synthetic E(b) size: 16..79 ever-active addresses, comfortably past
/// the Trinocular probing floor and varied enough to exercise the
/// stationarity scale factor.
inline std::int32_t SyntheticEverActive(std::uint64_t seed,
                                        std::uint32_t prefix_index) noexcept {
  const std::uint64_t hash = MixHash(seed ^ 0xb10c5eedULL, prefix_index);
  return 16 + static_cast<std::int32_t>((hash >> 16) & 0x3f);
}

/// Identity of a store campaign; snapshots from a different identity
/// are refused on resume.
std::uint64_t StoreCampaignFingerprint(const StoreCampaignConfig& config);

/// Runs (or resumes) the campaign, leaving the final state in `store`.
StoreCampaignOutcome RunStoreCampaign(BlockStore& store,
                                      const StoreCampaignConfig& config);

}  // namespace sleepwalk::core

#endif  // SLEEPWALK_CORE_STORE_CAMPAIGN_H_
