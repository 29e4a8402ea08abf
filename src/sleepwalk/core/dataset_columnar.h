// SLPW v3: the dataset format, built for zero-copy re-analysis.
//
// It reuses the SLCK/SLPW v3 container engine (storage/columnar.h): per-block
// attributes are fixed-width columns, every cleaned A-hat_s series is
// concatenated into ONE f32 values column addressed by per-block
// offset/count columns, and the whole file is CRC'd per column. A
// reader maps the file (storage::Env::Map) and re-analyzes straight
// off the mapping — no per-block vectors are ever materialized.
//
// Layout (SLPW magic, version 3, kind kDatasetColumnarKind):
//   META        u64[4]  round_seconds | epoch_sec | blocks | samples
//   PREFIX      u32[n]  /24 index
//   EVER_ACTIVE i32[n]  |E(b)|
//   PROBED      u8[n]   0 = skipped by the sparse-block policy
//   FIRST_ROUND i64[n]  series start round (midnight-trimmed)
//   COUNT       u32[n]  samples in block i's series
//   OFFSET      u64[n]  start index into VALUES (must be the exact
//                       prefix sum of COUNT — validated, so hostile
//                       overlap/misalignment fails closed)
//   VALUES      f32[samples]  all series, concatenated
//
// Values are stored as f32. Re-analysis straight off the mapping and
// through the per-block Dataset (DecodeDataset/ReadDataset, which
// materialize a v3 file) is bitwise identical (dataset_columnar_test).
// v3 is the only version written or read: a v1 or v2 file from an older
// build is refused.
#ifndef SLEEPWALK_CORE_DATASET_COLUMNAR_H_
#define SLEEPWALK_CORE_DATASET_COLUMNAR_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sleepwalk/core/dataset.h"
#include "sleepwalk/storage/columnar.h"

namespace sleepwalk::core {

/// SLPW-magic container kind for columnar datasets (the SLCK kinds in
/// block_store.h live under a different magic; the discriminator still
/// keeps any cross-wired file from parsing).
inline constexpr std::uint32_t kDatasetColumnarKind = 1;

/// Zero-copy view over a parsed v3 dataset. Spans point into the
/// caller's buffer or mapping, which must outlive the view.
struct ColumnarDatasetView {
  std::int64_t round_seconds = 660;
  std::int64_t epoch_sec = 0;
  std::span<const std::uint32_t> prefix;
  std::span<const std::int32_t> ever_active;
  std::span<const std::uint8_t> probed;
  std::span<const std::int64_t> first_round;
  std::span<const std::uint32_t> count;
  std::span<const std::uint64_t> offset;
  std::span<const float> values;

  std::size_t size() const noexcept { return prefix.size(); }

  /// Block i's cleaned series, straight out of the file.
  std::span<const float> SeriesOf(std::size_t i) const noexcept {
    return values.subspan(static_cast<std::size_t>(offset[i]), count[i]);
  }
};

/// Serializes analyses as an SLPW v3 image (column payloads borrowed,
/// one f32 conversion pass).
std::vector<std::uint8_t> EncodeDatasetColumnar(
    std::span<const BlockAnalysis> analyses, std::int64_t round_seconds = 660,
    std::int64_t epoch_sec = 0);

/// Full-strictness parse + cross-column validation (offsets must be the
/// exact prefix sum of counts and exhaust VALUES). On failure the view
/// is unusable and the Error names the violated invariant.
storage::Error ParseDatasetColumnar(std::span<const std::uint8_t> file,
                                    ColumnarDatasetView& view,
                                    const std::string& path = "<memory>");

/// Atomically writes the v3 encoding through `env`.
storage::Error WriteDatasetColumnar(storage::Env& env, const std::string& path,
                                    std::span<const BlockAnalysis> analyses,
                                    std::int64_t round_seconds = 660,
                                    std::int64_t epoch_sec = 0);

/// Zero-copy open: maps the file and parses a view over the mapping.
/// `region` owns the bytes and must outlive `view`.
storage::Error MapDatasetColumnar(storage::Env& env, const std::string& path,
                                  storage::MappedRegion& region,
                                  ColumnarDatasetView& view);

/// Re-analyzes block i straight off the view (f32 samples widened into
/// `scratch.samples`, then the exact Reanalyze stage chain). Bitwise
/// identical to Reanalyze() of the same block's materialized series.
void ReanalyzeColumnar(const ColumnarDatasetView& view, std::size_t i,
                       const AnalyzerConfig& config, AnalysisScratch& scratch,
                       BlockAnalysis& out);

/// Materializes a view into the per-block Dataset struct (for consumers
/// that want per-block vectors; the scale path should sweep the view
/// directly instead).
Dataset MaterializeDataset(const ColumnarDatasetView& view);

}  // namespace sleepwalk::core

#endif  // SLEEPWALK_CORE_DATASET_COLUMNAR_H_
