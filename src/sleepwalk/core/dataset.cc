#include "sleepwalk/core/dataset.h"

#include <cstring>
#include <numeric>

#include "sleepwalk/core/dataset_columnar.h"
#include "sleepwalk/storage/columnar.h"

namespace sleepwalk::core {

std::optional<Dataset> DecodeDataset(std::span<const std::uint8_t> bytes,
                                     DatasetLoadReport* report) {
  DatasetLoadReport scratch;
  DatasetLoadReport& out = report != nullptr ? *report : scratch;
  out.found = true;
  if (bytes.size() < 4 || std::memcmp(bytes.data(), "SLPW", 4) != 0) {
    out.bad_magic = true;
    out.detail = "bad magic";
    return std::nullopt;
  }
  const auto version = storage::PeekContainerVersion(bytes, "SLPW");
  if (!version) {
    out.corrupt_records = 1;
    out.detail = "truncated before version";
    return std::nullopt;
  }
  out.version = *version;
  if (out.version != storage::kColumnarVersion) {
    // v1 and v2 files, left by older builds, and any future version.
    out.version_refused = true;
    out.detail = "unsupported version " + std::to_string(out.version);
    return std::nullopt;
  }
  ColumnarDatasetView view;
  if (auto error = ParseDatasetColumnar(bytes, view); !error.ok()) {
    out.corrupt_records = 1;
    out.detail = error.detail;
    return std::nullopt;
  }
  out.records_expected = view.size();
  return MaterializeDataset(view);
}

std::optional<Dataset> ReadDataset(storage::Env& env, const std::string& path,
                                   DatasetLoadReport* report) {
  std::vector<std::uint8_t> bytes;
  if (auto error = env.ReadAll(path, bytes); !error.ok()) {
    if (report != nullptr) {
      report->found = false;
      report->detail = error.ToString();
    }
    return std::nullopt;
  }
  return DecodeDataset(bytes, report);
}

std::optional<Dataset> ReadDataset(const std::string& path) {
  return ReadDataset(storage::RealEnvInstance(), path, nullptr);
}

BlockAnalysis Reanalyze(const StoredSeries& stored,
                        const AnalyzerConfig& config) {
  AnalysisScratch scratch;
  BlockAnalysis analysis;
  Reanalyze(stored, config, scratch, analysis);
  return analysis;
}

void Reanalyze(const StoredSeries& stored, const AnalyzerConfig& config,
               AnalysisScratch& scratch, BlockAnalysis& out) {
  ReanalyzeSeries(stored.block, stored.ever_active, stored.probed,
                  stored.series.first_round, stored.series.values, config,
                  scratch, out);
}

void ReanalyzeSeries(net::Prefix24 block, int ever_active, bool probed,
                     std::int64_t first_round, std::span<const double> values,
                     const AnalyzerConfig& config, AnalysisScratch& scratch,
                     BlockAnalysis& out) {
  // Reset in place; clear()/assign keep capacities warm across the
  // reanalysis loop (see BlockAnalyzer::Finish).
  out.block = block;
  out.ever_active = ever_active;
  out.probed = probed;
  out.short_series.first_round = first_round;
  out.short_series.values.assign(values.begin(), values.end());
  out.observed_days = 0;
  out.diurnal = DiurnalResult{};
  out.stationarity = ts::StationarityResult{};
  out.mean_short = 0.0;
  out.final_operational = 0.0;
  out.mean_probes_per_round = 0.0;
  out.down_rounds = 0;
  out.outage_starts.clear();
  out.outages.clear();
  if (!probed || values.empty()) return;

  out.observed_days = ts::WholeDays(values.size(),
                                    config.schedule.round_seconds);
  out.mean_short = std::accumulate(values.begin(), values.end(), 0.0) /
                   static_cast<double>(values.size());
  out.stationarity = ts::TestStationarity(
      values, ever_active, config.max_trend_addresses_per_day,
      config.schedule.round_seconds, scratch.index);
  out.diurnal = ClassifyDiurnal(values, out.observed_days, config.diurnal,
                                nullptr, scratch);
}

}  // namespace sleepwalk::core
