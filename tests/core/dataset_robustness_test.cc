// SLPW robustness: every single-byte corruption and truncation must
// fail the loader; v1 and v2 files from older builds and foreign
// versions must be refused, never misread.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sleepwalk/core/dataset.h"
#include "sleepwalk/core/dataset_columnar.h"
#include "sleepwalk/net/checksum.h"
#include "sleepwalk/storage/bytes.h"

namespace sleepwalk::core {
namespace {

BlockAnalysis MakeAnalysis(std::uint32_t index, int samples) {
  BlockAnalysis analysis;
  analysis.block = net::Prefix24::FromIndex(index);
  analysis.ever_active = 100 + static_cast<int>(index % 100);
  analysis.probed = true;
  analysis.short_series.first_round = 3;
  analysis.short_series.values.resize(static_cast<std::size_t>(samples));
  for (int i = 0; i < samples; ++i) {
    analysis.short_series.values[static_cast<std::size_t>(i)] =
        0.25 + 0.5 * static_cast<double>((i * 37 + index) % 100) / 100.0;
  }
  return analysis;
}

std::vector<BlockAnalysis> TestAnalyses() {
  std::vector<BlockAnalysis> analyses;
  for (std::uint32_t i = 0; i < 5; ++i) {
    analyses.push_back(MakeAnalysis(1000 + 7 * i, 24 + static_cast<int>(i)));
  }
  analyses[3].probed = false;
  return analyses;
}

/// An SLPW file as older builds wrote it, laid out as `version` (1: the
/// unframed stream; 2: a CRC'd header and one CRC-framed record) with
/// `version_word` in the header's version field. The record is block
/// 4242, |E(b)| 77, probed, first round 2, samples {0.25, 0.5, 0.75}.
std::vector<std::uint8_t> PreV3Dataset(std::uint32_t version,
                                       std::uint32_t version_word) {
  storage::ByteWriter header;
  header.Put(version_word);
  header.Put(std::int64_t{660});  // round_seconds
  header.Put(std::int64_t{99});   // epoch_sec
  header.Put(std::uint64_t{1});   // block_count
  storage::ByteWriter record;
  record.Put(std::uint32_t{4242});  // block index
  record.Put(std::uint16_t{77});    // ever_active
  record.Put(std::uint8_t{1});      // probed
  record.Put(std::int64_t{2});      // first_round
  record.Put(std::uint32_t{3});     // n_samples
  record.Put(0.25F);
  record.Put(0.5F);
  record.Put(0.75F);

  storage::ByteWriter out;
  const char magic[4] = {'S', 'L', 'P', 'W'};
  out.PutBytes(std::span{reinterpret_cast<const std::uint8_t*>(magic), 4});
  out.PutBytes(header.bytes());
  if (version == 1) {
    out.PutBytes(record.bytes());
  } else {
    out.Put(net::Crc32cOf(header.bytes()));
    out.Put(static_cast<std::uint32_t>(record.size()));
    out.Put(net::Crc32cOf(record.bytes()));
    out.PutBytes(record.bytes());
  }
  return out.Take();
}

// The name dates from the record-framed v2 format; the case now checks
// that a clean file in the only format (v3) decodes with a clean report.
TEST(DatasetRobustness, StrictDecodeReportsCleanV2) {
  const auto analyses = TestAnalyses();
  const auto bytes = EncodeDatasetColumnar(analyses, 660, 42);
  DatasetLoadReport report;
  const auto dataset = DecodeDataset(bytes, &report);
  ASSERT_TRUE(dataset.has_value()) << report.detail;
  EXPECT_EQ(report.version, storage::kColumnarVersion);
  EXPECT_FALSE(report.bad_magic);
  EXPECT_FALSE(report.version_refused);
  EXPECT_EQ(report.corrupt_records, 0);
  EXPECT_EQ(report.records_expected, 5u);
  EXPECT_TRUE(report.detail.empty()) << report.detail;
  EXPECT_EQ(dataset->round_seconds, 660);
  EXPECT_EQ(dataset->epoch_sec, 42);
  ASSERT_EQ(dataset->blocks.size(), analyses.size());
  for (std::size_t i = 0; i < analyses.size(); ++i) {
    EXPECT_EQ(dataset->blocks[i].block.Index(), analyses[i].block.Index());
    EXPECT_EQ(dataset->blocks[i].ever_active, analyses[i].ever_active);
    EXPECT_EQ(dataset->blocks[i].probed, analyses[i].probed);
    EXPECT_EQ(dataset->blocks[i].series.first_round,
              analyses[i].short_series.first_round);
    EXPECT_EQ(dataset->blocks[i].series.size(),
              analyses[i].short_series.size());
  }
}

TEST(DatasetRobustness, EverySingleByteCorruptionFailsStrictDecode) {
  const auto bytes = EncodeDatasetColumnar(TestAnalyses(), 660, 42);
  auto corrupted = bytes;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    corrupted[i] = bytes[i] ^ 0xA5;
    DatasetLoadReport report;
    EXPECT_FALSE(DecodeDataset(corrupted, &report).has_value())
        << "flip at byte " << i << " went undetected";
    EXPECT_TRUE(report.bad_magic || report.version_refused ||
                report.corrupt_records > 0)
        << "flip at byte " << i << " reported nothing";
    corrupted[i] = bytes[i];
  }
}

TEST(DatasetRobustness, EveryTruncationFailsStrictDecode) {
  const auto bytes = EncodeDatasetColumnar(TestAnalyses(), 660, 42);
  for (std::size_t length = 0; length < bytes.size(); ++length) {
    const std::span<const std::uint8_t> prefix{bytes.data(), length};
    EXPECT_FALSE(DecodeDataset(prefix).has_value())
        << "truncation to " << length << " bytes went undetected";
  }
}

TEST(DatasetRobustness, ForeignVersionIsRefusedNotMisread) {
  auto bytes = EncodeDatasetColumnar(TestAnalyses(), 660, 42);
  bytes[4] = 9;  // version u32 LSB: 3 -> 9 (no such format)
  DatasetLoadReport report;
  EXPECT_FALSE(DecodeDataset(bytes, &report).has_value());
  EXPECT_TRUE(report.version_refused);
  EXPECT_EQ(report.version, 9u);
}

TEST(DatasetRobustness, V2BodyMasqueradingAsV3IsRefused) {
  // Version says columnar, the body is framed v2: the columnar parser
  // must fail closed, never misread frames as a column directory.
  const auto bytes = PreV3Dataset(2, storage::kColumnarVersion);
  DatasetLoadReport report;
  EXPECT_FALSE(DecodeDataset(bytes, &report).has_value());
  EXPECT_GE(report.corrupt_records, 1);
}

TEST(DatasetRobustness, PreV3FilesAreRefused) {
  for (const std::uint32_t version : {1u, 2u}) {
    SCOPED_TRACE("SLPW v" + std::to_string(version));
    DatasetLoadReport report;
    EXPECT_FALSE(
        DecodeDataset(PreV3Dataset(version, version), &report).has_value());
    EXPECT_TRUE(report.version_refused);
    EXPECT_FALSE(report.bad_magic);
    EXPECT_EQ(report.version, version);
    EXPECT_NE(report.detail.find(std::to_string(version)), std::string::npos)
        << report.detail;
  }
}

}  // namespace
}  // namespace sleepwalk::core
