#include "sleepwalk/core/dataset_columnar.h"

#include <cstddef>
#include <utility>

#include "sleepwalk/util/narrow.h"

namespace sleepwalk::core {

namespace {

// Column ids inside the SLPW v3 container (file-format constants: never
// renumber, only append).
constexpr std::uint32_t kColMeta = 1;         // u64[4]
constexpr std::uint32_t kColPrefix = 2;       // u32[n]
constexpr std::uint32_t kColEverActive = 3;   // i32[n]
constexpr std::uint32_t kColProbed = 4;       // u8[n]
constexpr std::uint32_t kColFirstRound = 5;   // i64[n]
constexpr std::uint32_t kColCount = 6;        // u32[n]
constexpr std::uint32_t kColOffset = 7;       // u64[n]
constexpr std::uint32_t kColValues = 8;       // f32[samples]

// Sanity bound on the META counts: a corrupt header must not drive a
// multi-GB reservation.
constexpr std::uint64_t kMaxCount = 1ull << 32;

storage::Error DatasetError(const std::string& path, std::string detail) {
  storage::Error error;
  error.op = "parse-dataset";
  error.path = path;
  error.detail = std::move(detail);
  return error;
}

/// Flattens `analyses` into the dataset's columns and hands `use` a
/// writer borrowing them; returns what `use` returns (an image or a
/// write's Error) while the columns are still alive.
template <typename Use>
auto WithDatasetWriter(std::span<const BlockAnalysis> analyses,
                       std::int64_t round_seconds, std::int64_t epoch_sec,
                       Use&& use) {
  const std::size_t n = analyses.size();
  std::vector<std::uint32_t> prefix(n);
  std::vector<std::int32_t> ever_active(n);
  std::vector<std::uint8_t> probed(n);
  std::vector<std::int64_t> first_round(n);
  std::vector<std::uint32_t> count(n);
  std::vector<std::uint64_t> offset(n);
  std::uint64_t samples = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& a = analyses[i];
    prefix[i] = a.block.Index();
    ever_active[i] = util::CheckedNarrow<std::int32_t>(a.ever_active);
    probed[i] = util::BoolByte(a.probed);
    first_round[i] = a.short_series.first_round;
    count[i] = util::CheckedNarrow<std::uint32_t>(a.short_series.size());
    offset[i] = samples;
    samples += count[i];
  }
  // One f32 conversion pass: every reader widens these same bits back.
  std::vector<float> values;
  values.reserve(samples);
  for (const auto& a : analyses) {
    for (const double v : a.short_series.values) {
      values.push_back(static_cast<float>(v));
    }
  }
  const std::uint64_t meta[4] = {static_cast<std::uint64_t>(round_seconds),
                                 static_cast<std::uint64_t>(epoch_sec),
                                 static_cast<std::uint64_t>(n), samples};

  storage::ColumnarWriter writer("SLPW", kDatasetColumnarKind,
                                 /*fingerprint=*/0, /*generation=*/0);
  writer.AddTypedBorrowed<std::uint64_t>(kColMeta, meta);
  writer.AddTypedBorrowed<std::uint32_t>(kColPrefix, prefix);
  writer.AddTypedBorrowed<std::int32_t>(kColEverActive, ever_active);
  writer.AddTypedBorrowed<std::uint8_t>(kColProbed, probed);
  writer.AddTypedBorrowed<std::int64_t>(kColFirstRound, first_round);
  writer.AddTypedBorrowed<std::uint32_t>(kColCount, count);
  writer.AddTypedBorrowed<std::uint64_t>(kColOffset, offset);
  writer.AddTypedBorrowed<float>(kColValues, values);
  return use(writer);
}

}  // namespace

std::vector<std::uint8_t> EncodeDatasetColumnar(
    std::span<const BlockAnalysis> analyses, std::int64_t round_seconds,
    std::int64_t epoch_sec) {
  return WithDatasetWriter(
      analyses, round_seconds, epoch_sec,
      [](const storage::ColumnarWriter& writer) { return writer.Finish(); });
}

storage::Error ParseDatasetColumnar(std::span<const std::uint8_t> file,
                                    ColumnarDatasetView& view,
                                    const std::string& path) {
  view = ColumnarDatasetView{};
  storage::ColumnarReader reader;
  if (auto error = reader.Parse(file, "SLPW", path); !error.ok()) {
    return error;
  }
  if (reader.kind() != kDatasetColumnarKind) {
    return DatasetError(path, "not a columnar dataset (kind " +
                                  std::to_string(reader.kind()) + ")");
  }
  std::span<const std::uint64_t> meta;
  if (!reader.FetchTyped(kColMeta, 4, meta)) {
    return DatasetError(path, "META column missing or malformed");
  }
  const std::uint64_t blocks = meta[2];
  const std::uint64_t samples = meta[3];
  if (blocks > kMaxCount || samples > kMaxCount) {
    return DatasetError(path, "implausible block or sample count");
  }
  if (!reader.FetchTyped(kColPrefix, blocks, view.prefix) ||
      !reader.FetchTyped(kColEverActive, blocks, view.ever_active) ||
      !reader.FetchTyped(kColProbed, blocks, view.probed) ||
      !reader.FetchTyped(kColFirstRound, blocks, view.first_round) ||
      !reader.FetchTyped(kColCount, blocks, view.count) ||
      !reader.FetchTyped(kColOffset, blocks, view.offset) ||
      !reader.FetchTyped(kColValues, samples, view.values)) {
    view = ColumnarDatasetView{};
    return DatasetError(path, "column set incomplete or row counts differ");
  }
  // OFFSET must be the exact prefix sum of COUNT and exhaust VALUES.
  // Anything else — overlapping series, gaps, an offset past the end —
  // is a forged or damaged directory; fail closed before SeriesOf() can
  // hand out a span crossing block boundaries.
  std::uint64_t running = 0;
  for (std::uint64_t i = 0; i < blocks; ++i) {
    if (view.offset[i] != running) {
      view = ColumnarDatasetView{};
      return DatasetError(path, "offset column is not the prefix sum of "
                                "counts (block " +
                                    std::to_string(i) + ")");
    }
    running += view.count[i];
  }
  if (running != samples) {
    view = ColumnarDatasetView{};
    return DatasetError(path, "counts do not exhaust the values column");
  }
  view.round_seconds = static_cast<std::int64_t>(meta[0]);
  view.epoch_sec = static_cast<std::int64_t>(meta[1]);
  return {};
}

storage::Error WriteDatasetColumnar(storage::Env& env, const std::string& path,
                                    std::span<const BlockAnalysis> analyses,
                                    std::int64_t round_seconds,
                                    std::int64_t epoch_sec) {
  return WithDatasetWriter(analyses, round_seconds, epoch_sec,
                           [&](const storage::ColumnarWriter& writer) {
                             return writer.Write(env, path);
                           });
}

storage::Error MapDatasetColumnar(storage::Env& env, const std::string& path,
                                  storage::MappedRegion& region,
                                  ColumnarDatasetView& view) {
  if (auto error = env.Map(path, region); !error.ok()) return error;
  return ParseDatasetColumnar(region.bytes(), view, path);
}

void ReanalyzeColumnar(const ColumnarDatasetView& view, std::size_t i,
                       const AnalyzerConfig& config, AnalysisScratch& scratch,
                       BlockAnalysis& out) {
  const auto series = view.SeriesOf(i);
  scratch.samples.resize(series.size());
  for (std::size_t k = 0; k < series.size(); ++k) {
    scratch.samples[k] = static_cast<double>(series[k]);
  }
  ReanalyzeSeries(net::Prefix24::FromIndex(view.prefix[i]),
                  view.ever_active[i], view.probed[i] != 0,
                  view.first_round[i], scratch.samples, config, scratch, out);
}

Dataset MaterializeDataset(const ColumnarDatasetView& view) {
  Dataset dataset;
  dataset.round_seconds = view.round_seconds;
  dataset.epoch_sec = view.epoch_sec;
  dataset.blocks.resize(view.size());
  for (std::size_t i = 0; i < view.size(); ++i) {
    auto& stored = dataset.blocks[i];
    stored.block = net::Prefix24::FromIndex(view.prefix[i]);
    stored.ever_active = view.ever_active[i];
    stored.probed = view.probed[i] != 0;
    stored.series.first_round = view.first_round[i];
    const auto series = view.SeriesOf(i);
    stored.series.values.resize(series.size());
    for (std::size_t k = 0; k < series.size(); ++k) {
      stored.series.values[k] = static_cast<double>(series[k]);
    }
  }
  return dataset;
}

}  // namespace sleepwalk::core
