#include "sleepwalk/core/dataset.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "sleepwalk/core/dataset_columnar.h"
#include "sleepwalk/sim/block.h"
#include "sleepwalk/storage/file.h"

namespace sleepwalk::core {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

bool WriteFile(const std::string& path,
               std::span<const BlockAnalysis> analyses,
               std::int64_t round_seconds = 660, std::int64_t epoch_sec = 0) {
  return WriteDatasetColumnar(storage::RealEnvInstance(), path, analyses,
                              round_seconds, epoch_sec)
      .ok();
}

BlockAnalysis MakeAnalysis(std::uint32_t index, int samples) {
  BlockAnalysis analysis;
  analysis.block = net::Prefix24::FromIndex(index);
  analysis.ever_active = 120;
  analysis.probed = true;
  analysis.short_series.first_round = 5;
  analysis.short_series.values.resize(static_cast<std::size_t>(samples));
  for (int i = 0; i < samples; ++i) {
    analysis.short_series.values[static_cast<std::size_t>(i)] =
        0.5 + 0.25 * std::sin(i * 0.01);
  }
  return analysis;
}

TEST(Dataset, WriteReadRoundTrip) {
  const auto path = TempPath("roundtrip.slpw");
  std::vector<BlockAnalysis> analyses = {MakeAnalysis(100, 300),
                                         MakeAnalysis(200, 150)};
  analyses[1].probed = false;
  ASSERT_TRUE(WriteFile(path, analyses, 660, 12345));

  const auto dataset = ReadDataset(path);
  ASSERT_TRUE(dataset.has_value());
  EXPECT_EQ(dataset->round_seconds, 660);
  EXPECT_EQ(dataset->epoch_sec, 12345);
  ASSERT_EQ(dataset->blocks.size(), 2u);

  const auto& first = dataset->blocks[0];
  EXPECT_EQ(first.block.Index(), 100u);
  EXPECT_EQ(first.ever_active, 120);
  EXPECT_TRUE(first.probed);
  EXPECT_EQ(first.series.first_round, 5);
  ASSERT_EQ(first.series.size(), 300u);
  for (std::size_t i = 0; i < 300; ++i) {
    EXPECT_NEAR(first.series.values[i],
                analyses[0].short_series.values[i], 1e-6)
        << i;  // float32 storage: ~7 significant digits
  }
  EXPECT_FALSE(dataset->blocks[1].probed);
  std::remove(path.c_str());
}

TEST(Dataset, EmptyDataset) {
  const auto path = TempPath("empty.slpw");
  ASSERT_TRUE(WriteFile(path, {}));
  const auto dataset = ReadDataset(path);
  ASSERT_TRUE(dataset.has_value());
  EXPECT_TRUE(dataset->blocks.empty());
  std::remove(path.c_str());
}

TEST(Dataset, MissingFileRejected) {
  EXPECT_FALSE(ReadDataset("/nonexistent/nowhere.slpw").has_value());
}

TEST(Dataset, BadMagicRejected) {
  const auto path = TempPath("badmagic.slpw");
  {
    std::ofstream out{path, std::ios::binary};
    out << "NOPE and some more bytes to get past the header";
  }
  EXPECT_FALSE(ReadDataset(path).has_value());
  std::remove(path.c_str());
}

TEST(Dataset, TruncationRejected) {
  const auto path = TempPath("trunc.slpw");
  const std::vector<BlockAnalysis> analyses = {MakeAnalysis(7, 400)};
  ASSERT_TRUE(WriteFile(path, analyses));

  // Read the bytes, rewrite truncated versions: all must be rejected.
  std::ifstream in{path, std::ios::binary};
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  for (const std::size_t keep :
       {bytes.size() / 4, bytes.size() / 2, bytes.size() - 1}) {
    std::ofstream out{path, std::ios::binary | std::ios::trunc};
    out.write(bytes.data(), static_cast<std::streamsize>(keep));
    out.close();
    EXPECT_FALSE(ReadDataset(path).has_value()) << "kept " << keep;
  }
  std::remove(path.c_str());
}

TEST(Dataset, ReanalyzeRecoversClassification) {
  // Measure a diurnal block, persist, reload, re-classify: the verdict
  // must survive the float32 round trip.
  sim::BlockSpec spec;
  spec.block = net::Prefix24::FromIndex(555);
  spec.seed = 3;
  spec.n_always = 30;
  spec.n_diurnal = 120;
  spec.response_prob = 0.9F;
  spec.on_duration_sec = 9.0F * 3600.0F;
  spec.phase_spread_sec = 1.5F * 3600.0F;

  sim::SimTransport transport{8};
  transport.AddBlock(&spec);
  AnalyzerConfig config;
  BlockAnalyzer analyzer{spec.block, sim::EverActiveOctets(spec), 0.8, 2,
                         config};
  const probing::RoundScheduler scheduler{config.schedule};
  analyzer.RunCampaign(transport, scheduler.RoundsForDays(10));
  const auto original = analyzer.Finish();
  ASSERT_TRUE(original.diurnal.IsDiurnal());

  const auto path = TempPath("reanalyze.slpw");
  const std::vector<BlockAnalysis> analyses = {original};
  ASSERT_TRUE(WriteFile(path, analyses));
  const auto dataset = ReadDataset(path);
  ASSERT_TRUE(dataset.has_value());
  const auto reloaded = Reanalyze(dataset->blocks.front(), config);

  EXPECT_EQ(reloaded.diurnal.classification,
            original.diurnal.classification);
  EXPECT_EQ(reloaded.observed_days, original.observed_days);
  EXPECT_NEAR(reloaded.mean_short, original.mean_short, 1e-6);
  EXPECT_NEAR(reloaded.diurnal.phase, original.diurnal.phase, 1e-4);
  std::remove(path.c_str());
}

TEST(Dataset, ReanalyzeUnprobedBlockStaysEmpty) {
  StoredSeries stored;
  stored.block = net::Prefix24::FromIndex(1);
  stored.probed = false;
  const auto analysis = Reanalyze(stored);
  EXPECT_FALSE(analysis.probed);
  EXPECT_FALSE(analysis.diurnal.IsDiurnal());
}

}  // namespace
}  // namespace sleepwalk::core
