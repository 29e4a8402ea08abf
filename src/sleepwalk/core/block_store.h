// Columnar (SoA) per-block campaign state with arena allocation.
//
// A campaign's mutable per-block state — the three-EWMA availability
// estimator (§2.1), probe accounting, and classification verdicts —
// used to live scattered across AvailabilityEstimator objects,
// BlockAnalyzer members, and the ledger's vector<BlockAnalysis>. At
// paper scale (the A_12w dataset covers 3.7M /24s) that layout touches
// one cache line per block per field and serializes a checkpoint one
// field at a time. The BlockStore flips the layout: one arena, one
// fixed-width column per field, blocks contiguous within each column,
// so the estimator update batches across blocks in a tight loop
// (ObserveRound) and a checkpoint is one memcpy per column into the
// mmap-able SLCK v3 container (storage/columnar.h).
//
// The store also carries the analyzer's input: fixed-capacity ring
// buffers of per-round A-hat_s samples, one f64 column (block i's ring
// at [i*capacity, (i+1)*capacity)) with per-block length, head and
// last-round columns. A sample costs 8 bytes: its round is not stored
// but derived, because a block's samples are consecutive rounds, so the
// k-th oldest of `len` samples is round last - (len - 1) + k. That
// contract is the callers' to keep; the scale campaign appends every
// round of a block range in order. RecordSeriesRound appends a whole
// round across a block range in one pass; core/store_analyzer.h sweeps
// the rings through regularize/trim/stationarity/classify at the end
// of a campaign, writing the verdict columns in place.
//
// Equivalence contract: the batched kernel calls the exact
// AvailabilityObserve step AvailabilityEstimator delegates to
// (core/availability.h) — scalar-object and columnar trajectories are
// bitwise identical, which the block_store tests prove sample-for-
// sample against AvailabilityEstimator.
//
// The store is the substrate for two consumers:
//   * the campaign ledger records every committed block's verdict and
//     final estimator state here (columnar mirror of the outcome);
//   * the scale runner (core/store_campaign.h) drives 100k-1M block
//     campaigns directly on the columns, checkpointing through the v3
//     snapshot below (gathered from the arena on write, one copy per
//     column on decode).
#ifndef SLEEPWALK_CORE_BLOCK_STORE_H_
#define SLEEPWALK_CORE_BLOCK_STORE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sleepwalk/core/availability.h"
#include "sleepwalk/storage/columnar.h"
#include "sleepwalk/storage/file.h"
#include "sleepwalk/ts/series.h"

namespace sleepwalk::core {

/// One round's biased sample for one block: `positives` of `total`
/// probes answered (stop-on-first-positive semantics upstream).
struct RoundSample {
  std::int32_t positives = 0;
  std::int32_t total = 0;
};

/// A finished block's classification verdict, flattened from
/// BlockAnalysis (the mapping lives in campaign_ledger.cc so this
/// header stays below block_analyzer in the include DAG).
struct BlockVerdict {
  std::uint32_t prefix_index = 0;
  bool probed = false;
  bool quarantined = false;
  bool stationary = false;
  std::uint8_t classification = 0;  ///< Diurnality enum value
  std::int32_t ever_active = 0;
  std::int32_t observed_days = 0;
  std::int32_t down_rounds = 0;
  double mean_short = 0.0;
  double final_operational = 0.0;
  double mean_probes_per_round = 0.0;
};

/// BlockVerdict flag bits (the `flags` column).
inline constexpr std::uint8_t kBlockFlagProbed = 1u << 0;
inline constexpr std::uint8_t kBlockFlagQuarantined = 1u << 1;
inline constexpr std::uint8_t kBlockFlagStationary = 1u << 2;

/// The SoA store. Movable; not copyable (the arena is owned).
class BlockStore {
 public:
  BlockStore() = default;
  BlockStore(BlockStore&&) = default;
  BlockStore& operator=(BlockStore&&) = default;
  BlockStore(const BlockStore&) = delete;
  BlockStore& operator=(const BlockStore&) = delete;

  /// Sizes the arena for `n_blocks` and zero-initializes every column
  /// (estimator columns get the AvailabilityState defaults: t = 1.0,
  /// deviation = config.initial_deviation). `series_capacity` samples of
  /// per-block A-hat_s ring-buffer series are carved per block (0 keeps
  /// the store estimator-only). The arena is an anonymous mapping, so
  /// pages the kernel hands out already zeroed are not written until a
  /// column first uses them, whatever the arena's size. The ring-value
  /// column's 2 MiB-aligned interior is advised onto transparent huge
  /// pages (see Allocate); the per-block columns stay on base pages.
  void Reset(std::size_t n_blocks, const AvailabilityConfig& config = {},
             std::int32_t series_capacity = 0);

  std::size_t size() const noexcept { return n_; }
  const AvailabilityConfig& config() const noexcept { return config_; }
  std::int32_t series_capacity() const noexcept { return series_capacity_; }

  /// Seeds block `i`'s estimator exactly like the
  /// AvailabilityEstimator constructor ("based on historical data").
  void SeedBlock(std::size_t i, std::uint32_t prefix_index,
                 double initial_availability) noexcept;

  /// Scalar estimator step for one block (the shared
  /// AvailabilityObserve arithmetic) plus probe accounting.
  void Observe(std::size_t i, std::int32_t positives,
               std::int32_t total) noexcept;

  /// The batched kernel: one round's samples for the contiguous block
  /// range [begin, end), samples[i - begin] belonging to block i. Tight
  /// loop over the columns; trajectories are bitwise identical to
  /// per-block Observe() calls.
  void ObserveRound(std::size_t begin, std::size_t end,
                    std::span<const RoundSample> samples) noexcept;

  /// Appends one A-hat_s sample to block i's ring and makes `round` the
  /// block's last round. Contract: a block's samples are consecutive
  /// rounds, so `round` is the previous call's round + 1 (any round for
  /// the first sample); the ring keeps no per-sample stamps and derives
  /// them from the last round. When the ring is full the oldest sample
  /// is overwritten; the ring always holds the most recent
  /// `series_capacity` samples in round order. No-op when the store was
  /// Reset without series columns.
  void AppendSeriesSample(std::size_t i, std::int64_t round,
                          double value) noexcept;

  /// The batched series kernel: records round `round`'s A-hat_s (derived
  /// from the estimator columns, same arithmetic as ShortTerm) for every
  /// block in [begin, end) and makes `round` their last round. Same
  /// contract as AppendSeriesSample: each block's previous sample, if
  /// any, is round - 1. Runs right after ObserveRound in the scale
  /// campaign's inner loop; per-block trajectories are bitwise identical
  /// to AppendSeriesSample(i, round, ShortTerm(i)) calls.
  void RecordSeriesRound(std::size_t begin, std::size_t end,
                         std::int64_t round) noexcept;

  /// Number of valid samples in block i's ring (<= series_capacity).
  std::int32_t SeriesLength(std::size_t i) const noexcept;

  /// Copies block i's ring oldest-to-newest into `out` (capacity
  /// reused), the k-th oldest of `len` samples stamped round
  /// last - (len - 1) + k. The analysis sweep's bridge to
  /// ts::Regularize.
  void CopySeriesOrdered(std::size_t i,
                         std::vector<ts::Observation>& out) const;

  /// Sets the block's ever-active address count (the stationarity
  /// test's scale factor), recorded at seed time — before any verdict
  /// exists — by the scale campaign.
  void SetEverActive(std::size_t i, std::int32_t count) noexcept;

  /// Estimator state round-trip (checkpoint/resume and the ledger's
  /// commit path).
  AvailabilityState ExportEstimator(std::size_t i) const noexcept;
  void RestoreEstimator(std::size_t i,
                        const AvailabilityState& state) noexcept;

  /// Derived estimates for block `i` (same arithmetic as
  /// AvailabilityEstimator's accessors).
  double ShortTerm(std::size_t i) const noexcept;
  double Operational(std::size_t i) const noexcept;

  /// Records a finished block's verdict and final estimator state.
  void RecordVerdict(std::size_t i, const BlockVerdict& verdict,
                     const AvailabilityState& estimator) noexcept;

  // Column views (tests, reports, and the snapshot encoder). Spans are
  // invalidated by Reset().
  std::span<const std::uint32_t> prefix_index() const noexcept;
  std::span<const double> p_short() const noexcept;
  std::span<const double> t_short() const noexcept;
  std::span<const double> p_long() const noexcept;
  std::span<const double> t_long() const noexcept;
  std::span<const double> deviation() const noexcept;
  std::span<const std::int32_t> rounds() const noexcept;
  std::span<const std::uint64_t> probes() const noexcept;
  std::span<const std::uint64_t> positives() const noexcept;
  std::span<const std::int32_t> down_rounds() const noexcept;
  std::span<const std::uint8_t> flags() const noexcept;
  std::span<const std::uint8_t> classification() const noexcept;
  std::span<const std::int32_t> ever_active() const noexcept;
  std::span<const std::int32_t> observed_days() const noexcept;
  std::span<const double> mean_short() const noexcept;
  std::span<const double> final_operational() const noexcept;
  std::span<const double> mean_probes_per_round() const noexcept;
  // Series ring columns: values are n * series_capacity (block i's
  // ring occupies [i * capacity, (i+1) * capacity)); len/head/last are
  // per-block, last being the round of the newest sample. Empty spans
  // when the store has no series columns.
  std::span<const double> series_values() const noexcept;
  std::span<const std::int32_t> series_len() const noexcept;
  std::span<const std::int32_t> series_head() const noexcept;
  std::span<const std::int32_t> series_last() const noexcept;

  /// Order-sensitive digest over every column — the cheap byte-identity
  /// probe the scale bench compares across worker counts and resumes.
  /// The ring's round stamps enter as the n * capacity column they
  /// derive to (0 in unfilled slots), so the value is independent of
  /// whether stamps are stored or derived.
  std::uint64_t Digest() const noexcept;

  /// Atomically writes the store to `path` as an SLCK v3 container
  /// (kind = kStoreSnapshotKind), gathered straight from the arena
  /// columns: each snapshot byte is copied once, into the file.
  /// `rounds_done` and `checkpoints_written` ride in the META column so
  /// a resumed campaign continues both counters exactly (generation =
  /// checkpoints_written, like a campaign checkpoint).
  storage::Error WriteSnapshot(storage::Env& env, const std::string& path,
                               std::uint64_t fingerprint,
                               std::uint64_t rounds_done,
                               std::uint64_t checkpoints_written) const;

  /// The bytes WriteSnapshot writes, as one in-memory image (tests, and
  /// callers that move the buffer themselves, like sleepbench's traced
  /// campaign).
  std::vector<std::uint8_t> EncodeSnapshot(
      std::uint64_t fingerprint, std::uint64_t rounds_done,
      std::uint64_t checkpoints_written) const;

  /// Parses + validates a v3 snapshot (typically over a
  /// storage::MappedRegion) and adopts its columns — one memcpy per
  /// column into a fresh zeroed arena, no per-field decode. The ring
  /// cursors are checked before adoption: len in [0, capacity], head in
  /// [0, capacity) and 0 unless the ring is full, and no derived round
  /// below 0. On failure the store is left untouched; the Error names
  /// the violated invariant.
  storage::Error DecodeSnapshot(std::span<const std::uint8_t> file,
                                std::uint64_t expect_fingerprint,
                                std::uint64_t& rounds_done,
                                std::uint64_t& checkpoints_written,
                                const std::string& path = "<memory>");

 private:
  /// Carves the column layout for `n_blocks` and takes a zeroed arena
  /// for it; Reset adds the estimator defaults, DecodeSnapshot
  /// overwrites every column instead. madvise(MADV_HUGEPAGE) covers the
  /// 2 MiB-aligned interior of the ring-value column only: the decode
  /// copy into a fresh ring is bound by 4 KiB first-touch faults, while
  /// advising the per-block columns too made store seeding slower (a
  /// first huge fault zeroes 2 MiB for a few hundred KB of seeded
  /// columns). Where THP is off the advice is a no-op.
  void Allocate(std::size_t n_blocks, const AvailabilityConfig& config,
                std::int32_t series_capacity);

  /// The snapshot as columns borrowed from the arena (META is owned).
  storage::ColumnarWriter SnapshotWriter(
      std::uint64_t fingerprint, std::uint64_t rounds_done,
      std::uint64_t checkpoints_written) const;

  template <typename T>
  T* Column(std::size_t offset) noexcept {
    return reinterpret_cast<T*>(arena_.get() + offset);
  }
  template <typename T>
  const T* Column(std::size_t offset) const noexcept {
    return reinterpret_cast<const T*>(arena_.get() + offset);
  }

  /// Unmaps the arena's anonymous mapping of `bytes` bytes.
  struct ArenaDelete {
    constexpr ArenaDelete() noexcept : bytes(0) {}
    explicit constexpr ArenaDelete(std::size_t length) noexcept
        : bytes(length) {}
    void operator()(std::uint8_t* p) const noexcept;
    std::size_t bytes;
  };

  std::size_t n_ = 0;
  std::int32_t series_capacity_ = 0;
  AvailabilityConfig config_;
  std::unique_ptr<std::uint8_t[], ArenaDelete> arena_;

  // Column byte offsets into the arena (64-byte aligned each).
  std::size_t prefix_off_ = 0;
  std::size_t p_short_off_ = 0;
  std::size_t t_short_off_ = 0;
  std::size_t p_long_off_ = 0;
  std::size_t t_long_off_ = 0;
  std::size_t deviation_off_ = 0;
  std::size_t rounds_off_ = 0;
  std::size_t probes_off_ = 0;
  std::size_t positives_off_ = 0;
  std::size_t down_rounds_off_ = 0;
  std::size_t flags_off_ = 0;
  std::size_t classification_off_ = 0;
  std::size_t ever_active_off_ = 0;
  std::size_t observed_days_off_ = 0;
  std::size_t mean_short_off_ = 0;
  std::size_t final_operational_off_ = 0;
  std::size_t mean_probes_off_ = 0;
  std::size_t series_value_off_ = 0;
  std::size_t series_len_off_ = 0;
  std::size_t series_head_off_ = 0;
  std::size_t series_last_off_ = 0;
};

/// Container `kind` discriminators for files carrying the SLCK magic:
/// a v3 campaign checkpoint (core/checkpoint.h) vs a raw store
/// snapshot (this header). Readers refuse the wrong kind.
inline constexpr std::uint32_t kCheckpointKind = 1;
inline constexpr std::uint32_t kStoreSnapshotKind = 2;

}  // namespace sleepwalk::core

#endif  // SLEEPWALK_CORE_BLOCK_STORE_H_
