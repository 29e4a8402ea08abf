// Golden byte-identity test for the v3 snapshot and dataset writers
// (core/block_store.h, core/dataset_columnar.h, storage/columnar.h).
//
// The hashes below are FNV-1a and CRC32C over the exact file bytes of a
// BlockStore snapshot (with and without series rings) and of an SLPW v3
// dataset, built from fixed seeded state, and of the checkpoint a store
// campaign leaves behind. They were recorded from the whole-image
// encoder that assembled every file in one buffer, before the writer
// learned to gather borrowed column spans straight into the file. Any mismatch means the on-disk bytes moved: every checkpoint and
// dataset a campaign ever wrote would stop resuming or comparing equal.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sleepwalk/core/block_store.h"
#include "sleepwalk/core/dataset_columnar.h"
#include "sleepwalk/core/store_campaign.h"
#include "sleepwalk/net/checksum.h"
#include "sleepwalk/storage/file.h"

namespace sleepwalk::core {
namespace {

struct Golden {
  std::size_t size;
  std::uint64_t fnv;
  std::uint32_t crc;
};

constexpr Golden kStoreGolden{31304, 0x6242de1256dce953ULL, 0x8f0e6f1dU};
constexpr Golden kSeriesStoreGolden{181508, 0x1cae1fe13d63294fULL,
                                    0x6d6caaf1U};
constexpr Golden kDatasetGolden{11840, 0x37df60221e86322bULL, 0x4c10f0acU};
constexpr Golden kCampaignGolden{73424, 0xf0357dcadcd24484ULL, 0x20b85f7aU};

constexpr std::uint64_t kFingerprint = 0x51ee9b0ddeadbeefULL;
constexpr std::uint64_t kRoundsDone = 60;
constexpr std::uint64_t kCheckpoints = 3;

std::uint64_t Fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

void ExpectGolden(std::span<const std::uint8_t> bytes, const Golden& golden) {
  EXPECT_EQ(bytes.size(), golden.size);
  EXPECT_EQ(Fnv1a(bytes), golden.fnv)
      << std::hex << "fnv 0x" << Fnv1a(bytes) << " crc 0x"
      << net::Crc32cOf(bytes) << std::dec << " size " << bytes.size();
  EXPECT_EQ(net::Crc32cOf(bytes), golden.crc);
}

/// 257 blocks (not a multiple of any column alignment), 60 rounds of
/// synthetic samples, rings wrapped when `capacity` < 60, and verdicts
/// on every third block so the flag/verdict columns are not all zero.
BlockStore SeededStore(std::int32_t capacity) {
  constexpr std::size_t kBlocks = 257;
  constexpr std::uint64_t kSeed = 17;
  BlockStore store;
  store.Reset(kBlocks, {}, capacity);
  for (std::size_t i = 0; i < kBlocks; ++i) {
    const auto prefix = static_cast<std::uint32_t>(i * 3 + 1);
    store.SeedBlock(i, prefix, SyntheticInitialAvailability(kSeed, prefix));
    store.SetEverActive(i, SyntheticEverActive(kSeed, prefix));
  }
  std::vector<RoundSample> samples(kBlocks);
  const auto prefixes = store.prefix_index();
  for (std::int64_t round = 0; round < static_cast<std::int64_t>(kRoundsDone);
       ++round) {
    for (std::size_t i = 0; i < kBlocks; ++i) {
      samples[i] = SyntheticRoundSample(kSeed, prefixes[i], round);
    }
    store.ObserveRound(0, kBlocks, samples);
    store.RecordSeriesRound(0, kBlocks, round);
  }
  for (std::size_t i = 0; i < kBlocks; i += 3) {
    BlockVerdict verdict;
    verdict.prefix_index = prefixes[i];
    verdict.probed = true;
    verdict.stationary = i % 2 == 0;
    verdict.quarantined = i % 7 == 0;
    verdict.classification = static_cast<std::uint8_t>(i % 3);
    verdict.ever_active = store.ever_active()[i];
    verdict.observed_days = static_cast<std::int32_t>(i % 5);
    verdict.down_rounds = store.down_rounds()[i];
    verdict.mean_short = store.ShortTerm(i);
    verdict.final_operational = store.Operational(i);
    verdict.mean_probes_per_round = 1.0 + static_cast<double>(i) / 256.0;
    store.RecordVerdict(i, verdict, store.ExportEstimator(i));
  }
  return store;
}

std::vector<BlockAnalysis> SeededAnalyses() {
  std::vector<BlockAnalysis> analyses;
  for (std::uint32_t b = 0; b < 9; ++b) {
    BlockAnalysis analysis;
    analysis.block = net::Prefix24::FromIndex(1000 + 37 * b);
    analysis.ever_active = 10 + static_cast<int>(b);
    analysis.probed = b != 4;
    analysis.short_series.first_round = b;
    const int samples = b == 4 ? 0 : 100 + 31 * static_cast<int>(b);
    for (int k = 0; k < samples; ++k) {
      analysis.short_series.values.push_back(
          static_cast<double>((k * 131 + static_cast<int>(b) * 17) % 1000) /
          1000.0);
    }
    analyses.push_back(analysis);
  }
  return analyses;
}

/// EncodeSnapshot's image and the file WriteSnapshot gathers must both
/// be the recorded bytes.
void ExpectSnapshotGolden(const BlockStore& store, const Golden& golden) {
  ExpectGolden(store.EncodeSnapshot(kFingerprint, kRoundsDone, kCheckpoints),
               golden);
  storage::MemEnv env;
  ASSERT_TRUE(store
                  .WriteSnapshot(env, "/golden.slck", kFingerprint,
                                 kRoundsDone, kCheckpoints)
                  .ok());
  std::vector<std::uint8_t> written;
  ASSERT_TRUE(env.ReadAll("/golden.slck", written).ok());
  ExpectGolden(written, golden);
}

TEST(SnapshotGolden, StoreSnapshotBytesAreUnchanged) {
  ExpectSnapshotGolden(SeededStore(0), kStoreGolden);
}

TEST(SnapshotGolden, SeriesStoreSnapshotBytesAreUnchanged) {
  ExpectSnapshotGolden(SeededStore(48), kSeriesStoreGolden);
}

TEST(SnapshotGolden, DatasetBytesAreUnchanged) {
  const auto analyses = SeededAnalyses();
  ExpectGolden(EncodeDatasetColumnar(analyses, 660, 1234), kDatasetGolden);
  storage::MemEnv env;
  ASSERT_TRUE(
      WriteDatasetColumnar(env, "/golden.slpw", analyses, 660, 1234).ok());
  std::vector<std::uint8_t> written;
  ASSERT_TRUE(env.ReadAll("/golden.slpw", written).ok());
  ExpectGolden(written, kDatasetGolden);
}

TEST(SnapshotGolden, StoreCampaignCheckpointBytesAreUnchanged) {
  StoreCampaignConfig config;
  config.n_blocks = 100;
  config.n_rounds = 96;
  config.seed = 5;
  config.series_capacity = 48;
  config.checkpoint_every_rounds = 32;
  config.checkpoint_path = "/golden.slck";
  storage::MemEnv env;
  config.env = &env;
  BlockStore store;
  const auto outcome = RunStoreCampaign(store, config);
  ASSERT_TRUE(outcome.error.empty()) << outcome.error;
  ASSERT_EQ(outcome.checkpoints_written, 3u);
  std::vector<std::uint8_t> written;
  ASSERT_TRUE(env.ReadAll(config.checkpoint_path, written).ok());
  ExpectGolden(written, kCampaignGolden);
}

}  // namespace
}  // namespace sleepwalk::core
