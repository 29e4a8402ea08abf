// Dataset persistence.
//
// The paper's datasets (surveys and A_12w-style campaigns) are published
// through USC/LANDER [37]; this module gives the reproduction the same
// property: a measured campaign can be written to a compact binary file
// and re-analyzed later without re-probing.
//
// The file format is SLPW v3 (core/dataset_columnar.h), the only
// version written or read; v1 and v2 files, left by older builds, are
// refused with their version reported. This header holds the per-block
// view of a loaded dataset and the stored-series analysis chain that
// both the per-block and the mapped (zero-copy) reader share.
#ifndef SLEEPWALK_CORE_DATASET_H_
#define SLEEPWALK_CORE_DATASET_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sleepwalk/core/block_analyzer.h"
#include "sleepwalk/net/ipv4.h"
#include "sleepwalk/storage/file.h"
#include "sleepwalk/ts/series.h"

namespace sleepwalk::core {

/// One block's stored measurement.
struct StoredSeries {
  net::Prefix24 block;
  int ever_active = 0;
  bool probed = false;
  ts::EvenSeries series;  ///< cleaned, midnight-trimmed A-hat_s
};

/// A loaded dataset.
struct Dataset {
  std::int64_t round_seconds = 660;
  std::int64_t epoch_sec = 0;
  std::vector<StoredSeries> blocks;
};

/// What a dataset decode saw (mirrors CheckpointLoadReport; asserted by
/// the robustness tests).
struct DatasetLoadReport {
  bool found = false;          ///< file existed and was readable
  bool bad_magic = false;
  std::uint32_t version = 0;   ///< header version, when readable
  bool version_refused = false;
  int corrupt_records = 0;     ///< 1 when the container failed to parse
  std::uint64_t records_expected = 0;  ///< blocks in an intact file
  std::string detail;          ///< first failure, human-readable
};

/// Decodes SLPW v3 bytes into per-block vectors (ParseDatasetColumnar
/// + MaterializeDataset). Strict: any damage fails the whole load, and
/// any other version is refused (details in `report`).
std::optional<Dataset> DecodeDataset(std::span<const std::uint8_t> bytes,
                                     DatasetLoadReport* report = nullptr);

/// Strict read through `env`; nullopt on any I/O or decode failure.
std::optional<Dataset> ReadDataset(storage::Env& env, const std::string& path,
                                   DatasetLoadReport* report = nullptr);

/// ReadDataset over the process-wide real filesystem.
std::optional<Dataset> ReadDataset(const std::string& path);

/// Re-analyzes a stored series: stationarity + diurnal classification,
/// as Finish() would have produced (probing statistics are not stored).
BlockAnalysis Reanalyze(const StoredSeries& stored,
                        const AnalyzerConfig& config = {});

/// Hot-loop variant for bulk reanalysis: all intermediates live in
/// `scratch` and the result is written into `out` (capacity reused), so
/// warm calls perform zero heap allocations. Output is identical to the
/// allocating Reanalyze().
void Reanalyze(const StoredSeries& stored, const AnalyzerConfig& config,
               AnalysisScratch& scratch, BlockAnalysis& out);

/// THE stored-series analysis chain (WholeDays -> mean -> stationarity
/// -> classify) over caller-owned samples. Both dataset readers
/// delegate here — the loaded Dataset from its widened vectors, the
/// mapped view straight off the f32 column — which is what makes their
/// re-analyses bitwise identical.
void ReanalyzeSeries(net::Prefix24 block, int ever_active, bool probed,
                     std::int64_t first_round, std::span<const double> values,
                     const AnalyzerConfig& config, AnalysisScratch& scratch,
                     BlockAnalysis& out);

}  // namespace sleepwalk::core

#endif  // SLEEPWALK_CORE_DATASET_H_
