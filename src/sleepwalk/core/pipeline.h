// Dataset-scale measurement pipeline: the A_12w-style campaign over many
// blocks, producing per-block analyses and aggregate diurnal counts.
#ifndef SLEEPWALK_CORE_PIPELINE_H_
#define SLEEPWALK_CORE_PIPELINE_H_

#include <cstdint>
#include <cstddef>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "sleepwalk/core/block_analyzer.h"
#include "sleepwalk/net/transport.h"

namespace sleepwalk::core {

/// One block to measure: its ever-active history and prior availability.
struct BlockTarget {
  net::Prefix24 block;
  std::vector<std::uint8_t> ever_active;
  double initial_availability = 0.5;
};

/// Aggregate counts over a dataset.
struct DiurnalCounts {
  std::int64_t strict = 0;
  std::int64_t relaxed = 0;  ///< relaxed but not strict
  std::int64_t non_diurnal = 0;
  std::int64_t skipped = 0;  ///< sparse-policy or too-short blocks

  std::int64_t probed() const noexcept {
    return strict + relaxed + non_diurnal;
  }
  double StrictFraction() const noexcept {
    const auto total = probed();
    return total > 0 ? static_cast<double>(strict) /
                           static_cast<double>(total)
                     : 0.0;
  }
  double EitherFraction() const noexcept {
    const auto total = probed();
    return total > 0 ? static_cast<double>(strict + relaxed) /
                           static_cast<double>(total)
                     : 0.0;
  }
};

/// A full campaign's results.
struct DatasetResult {
  std::vector<BlockAnalysis> analyses;  ///< one per target, in order
  DiurnalCounts counts;
};

/// Campaign heartbeat payload, emitted after every finished block. The
/// deterministic fields (blocks/rounds/quarantined) also flow into the
/// obs log and metrics; the wall-derived rate and ETA only reach the
/// progress consumer (a live status line), never a deterministic sink.
struct CampaignProgress {
  std::size_t blocks_done = 0;
  std::size_t blocks_total = 0;
  std::int64_t rounds_done = 0;         ///< this process, incl. gaps
  std::uint64_t quarantined = 0;        ///< blocks abandoned so far
  double rounds_per_sec = 0.0;          ///< wall-clock rate; 0 if unknown
  /// Rounds until the next periodic checkpoint; -1 when checkpointing is
  /// off or only block-boundary snapshots are taken.
  std::int64_t rounds_to_checkpoint = -1;

  /// Wall-clock seconds until the next checkpoint at the current rate;
  /// -1 when unknown.
  double CheckpointEtaSec() const noexcept {
    return rounds_to_checkpoint >= 0 && rounds_per_sec > 0.0
               ? static_cast<double>(rounds_to_checkpoint) / rounds_per_sec
               : -1.0;
  }
};

/// Progress callback wrapper. New consumers take the full
/// CampaignProgress; legacy `(blocks_done, blocks_total)` callables are
/// adapted transparently so existing callers keep compiling.
class ProgressFn {
 public:
  ProgressFn() = default;
  ProgressFn(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            std::enable_if_t<
                std::is_invocable_v<F&, const CampaignProgress&>, int> = 0>
  ProgressFn(F fn)  // NOLINT(google-explicit-constructor)
      : fn_(std::move(fn)) {}

  /// Shim for the pre-telemetry callback shape.
  template <typename F,
            std::enable_if_t<
                !std::is_invocable_v<F&, const CampaignProgress&> &&
                    std::is_invocable_v<F&, std::size_t, std::size_t>,
                int> = 0>
  ProgressFn(F fn) {  // NOLINT(google-explicit-constructor)
    fn_ = [legacy = std::move(fn)](const CampaignProgress& p) mutable {
      legacy(p.blocks_done, p.blocks_total);
    };
  }

  /// std::function overloads preserve emptiness instead of wrapping an
  /// empty target (which would crash on call).
  ProgressFn(  // NOLINT(google-explicit-constructor)
      std::function<void(const CampaignProgress&)> fn)
      : fn_(std::move(fn)) {}
  ProgressFn(  // NOLINT(google-explicit-constructor)
      std::function<void(std::size_t, std::size_t)> fn) {
    if (fn) {
      fn_ = [legacy = std::move(fn)](const CampaignProgress& p) {
        legacy(p.blocks_done, p.blocks_total);
      };
    }
  }

  explicit operator bool() const noexcept { return static_cast<bool>(fn_); }
  void operator()(const CampaignProgress& progress) const { fn_(progress); }

 private:
  std::function<void(const CampaignProgress&)> fn_;
};

/// Runs an `n_rounds`-round campaign over every target through
/// `transport`. Blocks are measured one at a time (memory stays O(1
/// block)); `progress`, when set, is called after each block.
DatasetResult RunCampaign(std::vector<BlockTarget> targets,
                          net::Transport& transport, std::int64_t n_rounds,
                          const AnalyzerConfig& config = {},
                          std::uint64_t seed = 0x51ee9,
                          const ProgressFn& progress = {});

struct Dataset;  // core/dataset.h

/// Re-analyzes every stored series of `dataset` (stationarity screen +
/// FFT diurnal classification), fanning the independent blocks across
/// `workers` threads (<= 0 = HardwareWorkers()). Block i's analysis
/// lands at index i and classification is a pure per-block function, so
/// the result is identical for any worker count.
std::vector<BlockAnalysis> ReanalyzeDataset(const Dataset& dataset,
                                            const AnalyzerConfig& config = {},
                                            int workers = 0);

struct ColumnarDatasetView;  // core/dataset_columnar.h

/// Re-analyzes an SLPW v3 dataset straight off its mapped view and
/// aggregates DiurnalCounts — no per-block vectors or output analyses
/// are materialized, so a 1M-block sweep stays O(workers) in memory.
/// Counts match ReanalyzeDataset + ClassifyAnalysis of the same data
/// loaded through ReadDataset exactly.
DiurnalCounts ReanalyzeDatasetColumnar(const ColumnarDatasetView& view,
                                       const AnalyzerConfig& config = {},
                                       int workers = 0);

}  // namespace sleepwalk::core

#endif  // SLEEPWALK_CORE_PIPELINE_H_
