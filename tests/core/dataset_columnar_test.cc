// SLPW v3 columnar datasets (core/dataset_columnar.h): the format must
// round-trip the f32-rounded series exactly, re-analyze bitwise
// identically to the same series held in memory, map zero-copy through
// storage::Env, and fail closed on every forged byte, truncation, wrong
// kind, and hostile offset table.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sleepwalk/core/dataset.h"
#include "sleepwalk/core/dataset_columnar.h"
#include "sleepwalk/core/campaign_ledger.h"
#include "sleepwalk/core/pipeline.h"
#include "sleepwalk/storage/columnar.h"
#include "sleepwalk/storage/file.h"
#include "wrapped_rows_forgery.h"

namespace sleepwalk::core {
namespace {

// Mirror of the file-format column ids in dataset_columnar.cc (frozen
// constants; the hostile-file tests below forge containers with them).
constexpr std::uint32_t kColMeta = 1;
constexpr std::uint32_t kColPrefix = 2;
constexpr std::uint32_t kColEverActive = 3;
constexpr std::uint32_t kColProbed = 4;
constexpr std::uint32_t kColFirstRound = 5;
constexpr std::uint32_t kColCount = 6;
constexpr std::uint32_t kColOffset = 7;
constexpr std::uint32_t kColValues = 8;

// A classifiable block: >= 2 whole days of 660-second rounds with a
// clear daily cycle, plus per-block phase/jitter so blocks differ.
BlockAnalysis MakeAnalysis(std::uint32_t index, int samples,
                           bool diurnal) {
  BlockAnalysis analysis;
  analysis.block = net::Prefix24::FromIndex(index);
  analysis.ever_active = 20 + static_cast<int>(index % 50);
  analysis.probed = true;
  analysis.short_series.first_round = 2;
  analysis.short_series.values.resize(static_cast<std::size_t>(samples));
  constexpr double kRoundsPerDay = 86400.0 / 660.0;
  for (int k = 0; k < samples; ++k) {
    const double phase =
        2.0 * 3.14159265358979323846 *
        (static_cast<double>(k) / kRoundsPerDay + 0.01 * index);
    const double jitter =
        0.02 * static_cast<double>((k * 37 + static_cast<int>(index)) % 100) /
        100.0;
    analysis.short_series.values[static_cast<std::size_t>(k)] =
        diurnal ? 0.55 + 0.3 * std::sin(phase) + jitter : 0.6 + jitter;
  }
  return analysis;
}

std::vector<BlockAnalysis> TestAnalyses() {
  std::vector<BlockAnalysis> analyses;
  analyses.push_back(MakeAnalysis(100, 280, true));
  analyses.push_back(MakeAnalysis(207, 290, false));
  analyses.push_back(MakeAnalysis(314, 280, true));
  // Too short to classify, and a policy-skipped block with no series.
  analyses.push_back(MakeAnalysis(421, 10, false));
  BlockAnalysis skipped;
  skipped.block = net::Prefix24::FromIndex(528);
  skipped.ever_active = 3;
  skipped.probed = false;
  analyses.push_back(skipped);
  return analyses;
}

/// The samples a dataset stores: each value narrowed to f32, widened
/// back. The format-independent reference for everything read back.
std::vector<double> F32Rounded(const std::vector<double>& values) {
  std::vector<double> rounded;
  rounded.reserve(values.size());
  for (const double value : values) {
    rounded.push_back(static_cast<double>(static_cast<float>(value)));
  }
  return rounded;
}

TEST(DatasetColumnar, RoundTripMaterializesTheSeriesExactly) {
  const auto analyses = TestAnalyses();
  const auto v3 = EncodeDatasetColumnar(analyses, 660, 4242);

  ColumnarDatasetView view;
  ASSERT_TRUE(ParseDatasetColumnar(v3, view).ok());
  ASSERT_EQ(view.size(), analyses.size());
  EXPECT_EQ(view.round_seconds, 660);
  EXPECT_EQ(view.epoch_sec, 4242);

  const auto dataset = MaterializeDataset(view);
  ASSERT_EQ(dataset.blocks.size(), analyses.size());
  EXPECT_EQ(dataset.round_seconds, 660);
  EXPECT_EQ(dataset.epoch_sec, 4242);
  for (std::size_t i = 0; i < analyses.size(); ++i) {
    const auto& a = dataset.blocks[i];
    const auto& b = analyses[i];
    EXPECT_EQ(a.block.Index(), b.block.Index()) << "block " << i;
    EXPECT_EQ(a.ever_active, b.ever_active) << "block " << i;
    EXPECT_EQ(a.probed, b.probed) << "block " << i;
    EXPECT_EQ(a.series.first_round, b.short_series.first_round)
        << "block " << i;
    // Bitwise: the stored samples are exactly the f32-rounded inputs.
    EXPECT_EQ(a.series.values, F32Rounded(b.short_series.values))
        << "block " << i;
  }
}

TEST(DatasetColumnar, DecodeDatasetSniffsV3) {
  const auto analyses = TestAnalyses();
  const auto v3 = EncodeDatasetColumnar(analyses, 660, 7);
  DatasetLoadReport report;
  const auto dataset = DecodeDataset(v3, &report);
  ASSERT_TRUE(dataset.has_value()) << report.detail;
  EXPECT_EQ(report.version, storage::kColumnarVersion);
  EXPECT_EQ(report.corrupt_records, 0);
  EXPECT_EQ(report.records_expected, analyses.size());
  EXPECT_EQ(dataset->blocks.size(), analyses.size());
  EXPECT_EQ(dataset->round_seconds, 660);
  EXPECT_EQ(dataset->epoch_sec, 7);
}

TEST(DatasetColumnar, ReanalysisIsBitwiseIdenticalAcrossFormats) {
  // The mapped f32 column against the same series held in memory.
  const auto analyses = TestAnalyses();
  const auto v3 = EncodeDatasetColumnar(analyses, 660, 0);
  ColumnarDatasetView view;
  ASSERT_TRUE(ParseDatasetColumnar(v3, view).ok());

  AnalysisScratch scratch;
  BlockAnalysis from_view;
  BlockAnalysis from_memory;
  for (std::size_t i = 0; i < analyses.size(); ++i) {
    const auto& a = analyses[i];
    ReanalyzeColumnar(view, i, {}, scratch, from_view);
    ReanalyzeSeries(a.block, a.ever_active, a.probed,
                    a.short_series.first_round,
                    F32Rounded(a.short_series.values), {}, scratch,
                    from_memory);
    EXPECT_EQ(from_view.probed, from_memory.probed) << "block " << i;
    EXPECT_EQ(from_view.observed_days, from_memory.observed_days)
        << "block " << i;
    EXPECT_EQ(from_view.mean_short, from_memory.mean_short) << "block " << i;
    EXPECT_EQ(from_view.stationarity.stationary,
              from_memory.stationarity.stationary)
        << "block " << i;
    EXPECT_EQ(from_view.diurnal.classification,
              from_memory.diurnal.classification)
        << "block " << i;
    EXPECT_EQ(from_view.diurnal.strongest_cycles_per_day,
              from_memory.diurnal.strongest_cycles_per_day)
        << "block " << i;
  }
}

TEST(DatasetColumnar, EverySingleByteCorruptionFailsTheParse) {
  // Small blocks keep this O(bytes^2) sweep quick while still covering
  // header, directory, every column payload, and the padding.
  std::vector<BlockAnalysis> analyses;
  analyses.push_back(MakeAnalysis(1, 24, true));
  analyses.push_back(MakeAnalysis(2, 30, false));
  const auto bytes = EncodeDatasetColumnar(analyses, 660, 1);
  auto bent = bytes;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bent[i] = bytes[i] ^ 0xA5;
    ColumnarDatasetView view;
    EXPECT_FALSE(ParseDatasetColumnar(bent, view).ok())
        << "flip at byte " << i << " went undetected";
    bent[i] = bytes[i];
  }
}

TEST(DatasetColumnar, EveryTruncationFailsTheParse) {
  std::vector<BlockAnalysis> analyses;
  analyses.push_back(MakeAnalysis(1, 24, true));
  const auto bytes = EncodeDatasetColumnar(analyses, 660, 1);
  for (std::size_t length = 0; length < bytes.size(); ++length) {
    const std::span<const std::uint8_t> prefix{bytes.data(), length};
    ColumnarDatasetView view;
    EXPECT_FALSE(ParseDatasetColumnar(prefix, view).ok())
        << "truncation to " << length << " bytes went undetected";
  }
}

TEST(DatasetColumnar, WrongKindAndMagicAreRefused) {
  // Right magic, foreign kind: a hypothetical future SLPW container
  // must not parse as a dataset.
  storage::ColumnarWriter writer("SLPW", /*kind=*/9, 0, 0);
  const std::uint64_t meta[4] = {660, 0, 0, 0};
  writer.AddTypedBorrowed<std::uint64_t>(kColMeta, meta);
  const auto foreign_kind = writer.Finish();
  ColumnarDatasetView view;
  const auto kind_error = ParseDatasetColumnar(foreign_kind, view);
  EXPECT_FALSE(kind_error.ok());
  EXPECT_NE(kind_error.detail.find("kind"), std::string::npos)
      << kind_error.ToString();

  // SLCK magic (a checkpoint-family container) must be refused before
  // any column is read.
  storage::ColumnarWriter checkpoint("SLCK", 1, 0, 0);
  checkpoint.AddTypedBorrowed<std::uint64_t>(kColMeta, meta);
  const auto wrong_magic = checkpoint.Finish();
  EXPECT_FALSE(ParseDatasetColumnar(wrong_magic, view).ok());
}

// Builds a structurally valid container whose OFFSET column the test
// can bend: CRCs are all correct, so only the cross-column validation
// stands between a hostile table and out-of-bounds series spans.
std::vector<std::uint8_t> ForgeDataset(
    const std::vector<std::uint64_t>& offset,
    const std::vector<std::uint32_t>& count, std::uint64_t meta_samples,
    std::size_t n_values) {
  const auto n = static_cast<std::uint64_t>(offset.size());
  const std::uint64_t meta[4] = {660, 0, n, meta_samples};
  std::vector<std::uint32_t> prefix(offset.size(), 7);
  std::vector<std::int32_t> ever_active(offset.size(), 20);
  std::vector<std::uint8_t> probed(offset.size(), 1);
  std::vector<std::int64_t> first_round(offset.size(), 0);
  std::vector<float> values(n_values, 0.5F);
  storage::ColumnarWriter writer("SLPW", kDatasetColumnarKind, 0, 0);
  writer.AddTypedBorrowed<std::uint64_t>(kColMeta, meta);
  writer.AddTypedBorrowed<std::uint32_t>(kColPrefix, prefix);
  writer.AddTypedBorrowed<std::int32_t>(kColEverActive, ever_active);
  writer.AddTypedBorrowed<std::uint8_t>(kColProbed, probed);
  writer.AddTypedBorrowed<std::int64_t>(kColFirstRound, first_round);
  writer.AddTypedBorrowed<std::uint32_t>(kColCount, count);
  writer.AddTypedBorrowed<std::uint64_t>(kColOffset, offset);
  writer.AddTypedBorrowed<float>(kColValues, values);
  return writer.Finish();
}

TEST(DatasetColumnar, HostileOffsetTableIsRefused) {
  // The honest layout: counts {4, 6}, offsets {0, 4}, 10 values.
  ColumnarDatasetView view;
  EXPECT_TRUE(ParseDatasetColumnar(ForgeDataset({0, 4}, {4, 6}, 10, 10), view)
                  .ok());

  // Overlapping series (offset[1] rewinds into block 0's samples).
  const auto overlap =
      ParseDatasetColumnar(ForgeDataset({0, 2}, {4, 6}, 10, 10), view);
  EXPECT_FALSE(overlap.ok());
  EXPECT_NE(overlap.detail.find("prefix sum"), std::string::npos)
      << overlap.ToString();

  // Counts stop short of the values column: 2 trailing samples would
  // be reachable through a forged SeriesOf() span.
  const auto short_counts =
      ParseDatasetColumnar(ForgeDataset({0, 4}, {4, 4}, 10, 10), view);
  EXPECT_FALSE(short_counts.ok());

  // META sample count disagrees with the values column outright.
  EXPECT_FALSE(
      ParseDatasetColumnar(ForgeDataset({0, 4}, {4, 6}, 12, 10), view).ok());
}

TEST(DatasetColumnar, WrappedRowCountColumnIsRefused) {
  const auto forged = testing_support::WithWrappedRowsColumn(
      EncodeDatasetColumnar(TestAnalyses(), 660, 0), "SLPW");
  ASSERT_FALSE(forged.empty());
  ColumnarDatasetView view;
  const auto error = ParseDatasetColumnar(forged, view);
  EXPECT_FALSE(error.ok()) << "a column claiming 2^62 rows over 8 bytes "
                              "parsed";
  EXPECT_NE(error.detail.find("rows * width"), std::string::npos)
      << error.ToString();
}

TEST(DatasetColumnar, MapsZeroCopyThroughAnEnv) {
  storage::MemEnv env;
  const auto analyses = TestAnalyses();
  ASSERT_TRUE(WriteDatasetColumnar(env, "/data/a.slpw", analyses, 660, 9)
                  .ok());

  storage::MappedRegion region;
  ColumnarDatasetView view;
  ASSERT_TRUE(MapDatasetColumnar(env, "/data/a.slpw", region, view).ok());
  EXPECT_EQ(view.size(), analyses.size());
  EXPECT_EQ(view.epoch_sec, 9);
  // The spans alias the mapping, not a per-block copy.
  const auto* base = region.bytes().data();
  const auto* end = base + region.bytes().size();
  const auto* series = reinterpret_cast<const std::uint8_t*>(view.values.data());
  EXPECT_TRUE(series >= base && series < end)
      << "values column was copied out of the mapping";

  EXPECT_FALSE(
      MapDatasetColumnar(env, "/data/missing.slpw", region, view).ok());
}

TEST(DatasetColumnar, ParallelReanalysisCountsMatchTheDatasetPipeline) {
  // ReanalyzeDatasetColumnar (O(workers) memory, claim-counter sweep)
  // must report exactly the counts of the per-block path over the
  // materialized Dataset: ReanalyzeDataset + ClassifyAnalysis per block
  // — at any worker count.
  std::vector<BlockAnalysis> analyses;
  for (std::uint32_t i = 0; i < 12; ++i) {
    analyses.push_back(MakeAnalysis(1000 + 13 * i, 270 + static_cast<int>(i),
                                    i % 3 != 2));
  }
  analyses.push_back(MakeAnalysis(9000, 8, true));  // too short: skipped
  const auto v3 = EncodeDatasetColumnar(analyses, 660, 0);
  ColumnarDatasetView view;
  ASSERT_TRUE(ParseDatasetColumnar(v3, view).ok());

  DiurnalCounts expect;
  for (const auto& analysis :
       ReanalyzeDataset(MaterializeDataset(view), {}, 1)) {
    ClassifyAnalysis(analysis, false, expect);
  }
  ASSERT_GT(expect.probed(), 0);
  ASSERT_GT(expect.strict + expect.relaxed, 0);

  for (const int workers : {1, 4}) {
    const DiurnalCounts counts = ReanalyzeDatasetColumnar(view, {}, workers);
    EXPECT_EQ(counts.strict, expect.strict) << "workers " << workers;
    EXPECT_EQ(counts.relaxed, expect.relaxed) << "workers " << workers;
    EXPECT_EQ(counts.non_diurnal, expect.non_diurnal) << "workers " << workers;
    EXPECT_EQ(counts.skipped, expect.skipped) << "workers " << workers;
  }
}

}  // namespace
}  // namespace sleepwalk::core
