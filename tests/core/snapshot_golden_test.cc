// Golden byte-identity test for the v3 snapshot and dataset writers
// (core/block_store.h, core/dataset_columnar.h, storage/columnar.h).
//
// The hashes below are FNV-1a and CRC32C over the exact file bytes of a
// BlockStore snapshot (with and without series rings) and of an SLPW v3
// dataset, built from fixed seeded state, of the checkpoint a store
// campaign leaves behind, and of the checkpoint a per-block campaign
// (RunResilientCampaign, RunParallelCampaign) leaves behind. The store
// and dataset hashes were recorded from the whole-image encoder that
// assembled every file in one buffer, before the writer learned to
// gather borrowed column spans straight into the file; the per-block
// campaign hashes before the pre-v3 encoders were removed. The two
// files that carry series rings (the ring store snapshot and the store
// campaign checkpoint) were re-recorded once, when the ring's per-slot
// round column gave way to a per-block last-round cursor; the logical
// goldens, recorded before that change, prove the content they encode
// did not move. Any other mismatch means the on-disk bytes moved: every
// checkpoint and dataset a campaign ever wrote would stop resuming or
// comparing equal.
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sleepwalk/core/block_store.h"
#include "sleepwalk/core/dataset_columnar.h"
#include "sleepwalk/core/parallel_executor.h"
#include "sleepwalk/core/store_campaign.h"
#include "sleepwalk/core/supervisor.h"
#include "sleepwalk/net/checksum.h"
#include "sleepwalk/sim/world.h"
#include "sleepwalk/storage/file.h"
#include "sleepwalk/ts/series.h"

namespace sleepwalk::core {
namespace {

struct Golden {
  std::size_t size;
  std::uint64_t fnv;
  std::uint32_t crc;
};

constexpr Golden kStoreGolden{31304, 0x6242de1256dce953ULL, 0x8f0e6f1dU};
constexpr Golden kSeriesStoreGolden{133252, 0x10e0d61149ac072fULL,
                                    0x12b7a0b5U};
constexpr Golden kDatasetGolden{11840, 0x37df60221e86322bULL, 0x4c10f0acU};
constexpr Golden kCampaignGolden{54672, 0xba89256a73b45432ULL, 0x192bc392U};
constexpr Golden kSupervisorGolden{20032, 0xe8f0264b2368fe7eULL,
                                   0x7e085ce5U};
constexpr Golden kStatelessSupervisorGolden{19968, 0x821fa9cb4a5e232dULL,
                                            0x47d869daU};

/// The logical store content, independent of how the arena lays it
/// out: Digest() and an FNV-1a over every block's CopySeriesOrdered
/// (round, value) pairs. Recorded before the ring's round column gave
/// way to a per-block last-round cursor; the byte goldens above may be
/// re-recorded for a layout change, these may not.
struct LogicalGolden {
  std::uint64_t digest;
  std::uint64_t series_fnv;
};

constexpr LogicalGolden kSeriesStoreLogical{0x8ec7cc82e962fd09ULL,
                                            0xd02ae9cf1b5e9d6bULL};
constexpr LogicalGolden kCampaignLogical{0xcf2c5c6636f9e6acULL,
                                         0x5b3fb0a799b27fd7ULL};

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

std::uint64_t SeriesFnv(const BlockStore& store) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto fold = [&hash](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  };
  std::vector<ts::Observation> series;
  for (std::size_t i = 0; i < store.size(); ++i) {
    store.CopySeriesOrdered(i, series);
    fold(series.size());
    for (const auto& sample : series) {
      fold(static_cast<std::uint64_t>(sample.round));
      fold(std::bit_cast<std::uint64_t>(sample.value));
    }
  }
  return hash;
}

void ExpectLogicalGolden(const BlockStore& store,
                         const LogicalGolden& golden) {
  EXPECT_EQ(store.Digest(), golden.digest)
      << std::hex << "digest 0x" << store.Digest() << " series 0x"
      << SeriesFnv(store);
  EXPECT_EQ(SeriesFnv(store), golden.series_fnv);
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

TEST(SnapshotGolden, SeriesStoreLogicalContentIsUnchanged) {
  const BlockStore store = SeededStore(48);
  ExpectLogicalGolden(store, kSeriesStoreLogical);
  BlockStore restored;
  std::uint64_t rounds_done = 0;
  std::uint64_t checkpoints_written = 0;
  ASSERT_TRUE(restored
                  .DecodeSnapshot(store.EncodeSnapshot(kFingerprint,
                                                       kRoundsDone,
                                                       kCheckpoints),
                                  kFingerprint, rounds_done,
                                  checkpoints_written)
                  .ok());
  ExpectLogicalGolden(restored, kSeriesStoreLogical);
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
  ExpectLogicalGolden(store, kCampaignLogical);
}

/// Worker chain owning a private identically-seeded sim transport, so
/// the 8-worker campaign sees exactly what the sequential one does.
class OwningSimChain final : public ShardChain {
 public:
  OwningSimChain(const sim::SimWorld& world, std::uint64_t site_seed)
      : transport_{world.MakeTransport(site_seed)} {}
  net::Transport& transport() override { return *transport_; }

 private:
  std::unique_ptr<sim::SimTransport> transport_;
};

/// Forwards to a sim transport without exposing its state, the way the
/// parallel executor's per-worker chains leave TRANSPORT empty.
class StatelessTransport final : public net::Transport {
 public:
  explicit StatelessTransport(net::Transport& inner) : inner_(inner) {}
  net::ProbeStatus Probe(net::Ipv4Addr target,
                         std::int64_t when_sec) override {
    return inner_.Probe(target, when_sec);
  }

 private:
  net::Transport& inner_;
};

/// The kCheckpointKind file a per-block campaign leaves behind: written
/// by RunResilientCampaign over a stateful sim transport (TRANSPORT
/// column filled) and over a stateless one, and, byte for byte with the
/// stateless file, by an 8-worker RunParallelCampaign.
TEST(SnapshotGolden, SupervisorCheckpointBytesAreUnchanged) {
  constexpr char kPath[] = "/campaign/golden.slck";
  constexpr std::int64_t kRounds = 30;
  sim::WorldConfig world_config;
  world_config.total_blocks = 8;
  world_config.seed = 0xc0ffee;
  const auto world = sim::SimWorld::Generate(world_config);
  std::vector<BlockTarget> targets;
  for (const auto& block : world.blocks()) {
    targets.push_back({block.spec.block, sim::EverActiveOctets(block.spec),
                       sim::TrueAvailability(block.spec, 13 * 3600)});
  }
  SupervisorConfig config;
  config.checkpoint_path = kPath;
  const auto file_of = [&](storage::MemEnv& env) {
    std::vector<std::uint8_t> written;
    EXPECT_TRUE(env.ReadAll(kPath, written).ok());
    return written;
  };

  storage::MemEnv stateful_env;
  config.env = &stateful_env;
  auto transport = world.MakeTransport(3);
  ASSERT_GT(RunResilientCampaign(targets, *transport, kRounds, config)
                .stats.checkpoints_written,
            0u);
  ExpectGolden(file_of(stateful_env), kSupervisorGolden);

  storage::MemEnv stateless_env;
  config.env = &stateless_env;
  auto inner = world.MakeTransport(3);
  StatelessTransport stateless{*inner};
  RunResilientCampaign(targets, stateless, kRounds, config);
  ExpectGolden(file_of(stateless_env), kStatelessSupervisorGolden);

  storage::MemEnv parallel_env;
  config.env = &parallel_env;
  ParallelConfig parallel;
  parallel.workers = 8;
  const ShardFactory factory = [&world](std::size_t) {
    return std::make_unique<OwningSimChain>(world, 3);
  };
  RunParallelCampaign(targets, factory, kRounds, config, parallel);
  ExpectGolden(file_of(parallel_env), kStatelessSupervisorGolden);
}

}  // namespace
}  // namespace sleepwalk::core
