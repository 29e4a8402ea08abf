// The columnar BlockStore and the paper-scale store campaign
// (core/block_store.h, core/store_campaign.h): the batched estimator
// kernel must be bitwise identical to the scalar AvailabilityEstimator,
// v3 snapshots must round-trip byte-exactly and refuse hostile or
// mismatched files, and a killed store campaign must resume — at any
// worker count — to columns byte-identical to an uninterrupted run.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "sleepwalk/core/availability.h"
#include "sleepwalk/core/block_store.h"
#include "sleepwalk/core/checkpoint.h"
#include "sleepwalk/core/store_campaign.h"
#include "sleepwalk/storage/columnar.h"
#include "sleepwalk/storage/file.h"
#include "sleepwalk/ts/series.h"
#include "sleepwalk/util/rng.h"
#include "wrapped_rows_forgery.h"

namespace sleepwalk {
namespace {

using core::AvailabilityConfig;
using core::AvailabilityEstimator;
using core::AvailabilityState;
using core::BlockStore;
using core::BlockVerdict;
using core::RoundSample;
using core::StoreCampaignConfig;
using core::SyntheticRoundSample;
using storage::MemEnv;

TEST(BlockStore, BatchedKernelMatchesScalarEstimatorBitwise) {
  // 64 blocks, 500 rounds, deliberately varied priors. The SoA batched
  // loop must reproduce AvailabilityEstimator's doubles bit-for-bit —
  // same expressions, same order (the shared AvailabilityObserve body).
  constexpr std::size_t kBlocks = 64;
  constexpr std::int64_t kRounds = 500;
  AvailabilityConfig config;
  config.initial_deviation = 0.07;

  BlockStore store;
  store.Reset(kBlocks, config);
  std::vector<AvailabilityEstimator> scalars;
  for (std::size_t i = 0; i < kBlocks; ++i) {
    const double prior = 0.1 + 0.8 * static_cast<double>(i) / kBlocks;
    store.SeedBlock(i, static_cast<std::uint32_t>(i * 7), prior);
    scalars.emplace_back(prior, config);
  }

  std::vector<RoundSample> round(kBlocks);
  for (std::int64_t r = 0; r < kRounds; ++r) {
    for (std::size_t i = 0; i < kBlocks; ++i) {
      round[i] = SyntheticRoundSample(0xabc, static_cast<std::uint32_t>(i * 7),
                                      r);
      scalars[i].Observe(round[i].positives, round[i].total);
    }
    store.ObserveRound(0, kBlocks, round);
  }

  for (std::size_t i = 0; i < kBlocks; ++i) {
    const AvailabilityState state = store.ExportEstimator(i);
    const AvailabilityState expect = scalars[i].ExportState();
    // EXPECT_EQ, not EXPECT_DOUBLE_EQ: the contract is bitwise.
    EXPECT_EQ(state.p_short, expect.p_short) << "block " << i;
    EXPECT_EQ(state.t_short, expect.t_short) << "block " << i;
    EXPECT_EQ(state.p_long, expect.p_long) << "block " << i;
    EXPECT_EQ(state.t_long, expect.t_long) << "block " << i;
    EXPECT_EQ(state.deviation, expect.deviation) << "block " << i;
    EXPECT_EQ(state.rounds, expect.rounds) << "block " << i;
    EXPECT_EQ(store.ShortTerm(i), scalars[i].ShortTerm()) << "block " << i;
    EXPECT_EQ(store.Operational(i), scalars[i].Operational()) << "block " << i;
  }
}

TEST(BlockStore, ScalarObserveMatchesBatchedRound) {
  AvailabilityConfig config;
  BlockStore batched;
  BlockStore scalar;
  batched.Reset(8, config);
  scalar.Reset(8, config);
  for (std::size_t i = 0; i < 8; ++i) {
    batched.SeedBlock(i, static_cast<std::uint32_t>(i), 0.5);
    scalar.SeedBlock(i, static_cast<std::uint32_t>(i), 0.5);
  }
  std::vector<RoundSample> round(8);
  for (std::int64_t r = 0; r < 50; ++r) {
    for (std::size_t i = 0; i < 8; ++i) {
      round[i] = SyntheticRoundSample(1, static_cast<std::uint32_t>(i), r);
      scalar.Observe(i, round[i].positives, round[i].total);
    }
    batched.ObserveRound(0, 8, round);
  }
  EXPECT_EQ(batched.Digest(), scalar.Digest());
}

TEST(BlockStore, RecordVerdictSetsFlagsAndColumns) {
  BlockStore store;
  store.Reset(4);
  BlockVerdict verdict;
  verdict.prefix_index = 1234;
  verdict.probed = true;
  verdict.quarantined = false;
  verdict.stationary = true;
  verdict.classification = 2;
  verdict.ever_active = 99;
  verdict.observed_days = 14;
  verdict.down_rounds = 3;
  verdict.mean_short = 0.625;
  verdict.final_operational = 0.5;
  verdict.mean_probes_per_round = 4.25;
  AvailabilityState estimator;
  estimator.p_short = 0.25;
  estimator.rounds = 77;
  store.RecordVerdict(2, verdict, estimator);

  EXPECT_EQ(store.prefix_index()[2], 1234u);
  EXPECT_EQ(store.flags()[2],
            core::kBlockFlagProbed | core::kBlockFlagStationary);
  EXPECT_EQ(store.classification()[2], 2);
  EXPECT_EQ(store.ever_active()[2], 99);
  EXPECT_EQ(store.observed_days()[2], 14);
  EXPECT_EQ(store.down_rounds()[2], 3);
  EXPECT_EQ(store.mean_short()[2], 0.625);
  EXPECT_EQ(store.final_operational()[2], 0.5);
  EXPECT_EQ(store.mean_probes_per_round()[2], 4.25);
  EXPECT_EQ(store.ExportEstimator(2).p_short, 0.25);
  EXPECT_EQ(store.ExportEstimator(2).rounds, 77);
  // Neighbours untouched.
  EXPECT_EQ(store.flags()[1], 0);
  EXPECT_EQ(store.prefix_index()[3], 0u);
}

TEST(BlockStore, SnapshotRoundTripsByteIdentically) {
  BlockStore store;
  store.Reset(300);
  std::vector<RoundSample> round(300);
  for (std::size_t i = 0; i < 300; ++i) {
    store.SeedBlock(i, static_cast<std::uint32_t>(i), 0.4);
  }
  for (std::int64_t r = 0; r < 40; ++r) {
    for (std::size_t i = 0; i < 300; ++i) {
      round[i] = SyntheticRoundSample(9, static_cast<std::uint32_t>(i), r);
    }
    store.ObserveRound(0, 300, round);
  }

  const auto image = store.EncodeSnapshot(0xf00d, 40, 2);
  EXPECT_EQ(image, store.EncodeSnapshot(0xf00d, 40, 2))
      << "snapshot encode must be deterministic";

  BlockStore restored;
  std::uint64_t rounds_done = 0;
  std::uint64_t checkpoints_written = 0;
  ASSERT_TRUE(restored
                  .DecodeSnapshot(image, 0xf00d, rounds_done,
                                  checkpoints_written)
                  .ok());
  EXPECT_EQ(rounds_done, 40u);
  EXPECT_EQ(checkpoints_written, 2u);
  EXPECT_EQ(restored.size(), 300u);
  EXPECT_EQ(restored.Digest(), store.Digest());
  EXPECT_EQ(restored.EncodeSnapshot(0xf00d, 40, 2), image);
}

TEST(BlockStore, SeriesSnapshotRoundTripsThroughWraparound) {
  // Rings mid-wraparound (60 rounds through 48-slot rings): the
  // snapshot must carry values, rounds, len, AND head so the restored
  // store replays CopySeriesOrdered identically.
  BlockStore store;
  store.Reset(40, {}, 48);
  std::vector<RoundSample> round(40);
  for (std::size_t i = 0; i < 40; ++i) {
    store.SeedBlock(i, static_cast<std::uint32_t>(i), 0.4);
  }
  for (std::int64_t r = 0; r < 60; ++r) {
    for (std::size_t i = 0; i < 40; ++i) {
      round[i] = SyntheticRoundSample(3, static_cast<std::uint32_t>(i), r);
    }
    store.ObserveRound(0, 40, round);
    store.RecordSeriesRound(0, 40, r);
  }

  const auto image = store.EncodeSnapshot(0xbeef, 60, 1);
  BlockStore restored;
  std::uint64_t rounds_done = 0;
  std::uint64_t checkpoints_written = 0;
  ASSERT_TRUE(
      restored.DecodeSnapshot(image, 0xbeef, rounds_done, checkpoints_written)
          .ok());
  EXPECT_EQ(restored.series_capacity(), 48);
  EXPECT_EQ(restored.Digest(), store.Digest());
  std::vector<ts::Observation> a;
  std::vector<ts::Observation> b;
  store.CopySeriesOrdered(17, a);
  restored.CopySeriesOrdered(17, b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].round, b[k].round) << "slot " << k;
    EXPECT_EQ(a[k].value, b[k].value) << "slot " << k;
  }
  EXPECT_EQ(restored.EncodeSnapshot(0xbeef, 60, 1), image);

  // Byte-flip coverage over the series columns too.
  for (std::size_t i = 0; i < image.size(); i += 97) {
    auto bent = image;
    bent[i] ^= 0x01;
    BlockStore scratch;
    EXPECT_FALSE(
        scratch.DecodeSnapshot(bent, 0xbeef, rounds_done, checkpoints_written)
            .ok())
        << "flipped byte " << i;
  }
}

TEST(BlockStore, LegacyTwoWordMetaSnapshotIsRefused) {
  // An early estimator-only snapshot carried META {rounds_done,
  // checkpoints_written} and no series columns. Forge one from a live
  // store's column views (ids are frozen file-format constants): the
  // decoder reads one META layout, three words, and refuses this one.
  BlockStore src;
  src.Reset(6);
  for (std::size_t i = 0; i < 6; ++i) {
    src.SeedBlock(i, static_cast<std::uint32_t>(100 + i), 0.3);
    src.Observe(i, 2, 5);
  }
  const std::uint64_t meta[2] = {1, 1};
  storage::ColumnarWriter writer("SLCK", core::kStoreSnapshotKind, 0x1e6a, 1);
  writer.AddTypedBorrowed<std::uint64_t>(1, meta);
  writer.AddTypedBorrowed(2, src.prefix_index());
  writer.AddTypedBorrowed(3, src.p_short());
  writer.AddTypedBorrowed(4, src.t_short());
  writer.AddTypedBorrowed(5, src.p_long());
  writer.AddTypedBorrowed(6, src.t_long());
  writer.AddTypedBorrowed(7, src.deviation());
  writer.AddTypedBorrowed(8, src.rounds());
  writer.AddTypedBorrowed(9, src.probes());
  writer.AddTypedBorrowed(10, src.positives());
  writer.AddTypedBorrowed(11, src.down_rounds());
  writer.AddTypedBorrowed(12, src.flags());
  writer.AddTypedBorrowed(13, src.classification());
  writer.AddTypedBorrowed(14, src.ever_active());
  writer.AddTypedBorrowed(15, src.observed_days());
  writer.AddTypedBorrowed(16, src.mean_short());
  writer.AddTypedBorrowed(17, src.final_operational());
  writer.AddTypedBorrowed(18, src.mean_probes_per_round());
  const auto legacy = writer.Finish();

  BlockStore restored;
  std::uint64_t rounds_done = 0;
  std::uint64_t checkpoints_written = 0;
  const auto error =
      restored.DecodeSnapshot(legacy, 0x1e6a, rounds_done, checkpoints_written);
  EXPECT_FALSE(error.ok());
  EXPECT_NE(error.detail.find("META"), std::string::npos) << error.ToString();
}

TEST(BlockStore, SnapshotRefusesWrongFingerprintAndKind) {
  BlockStore store;
  store.Reset(10);
  const auto image = store.EncodeSnapshot(111, 0, 0);

  BlockStore other;
  std::uint64_t rounds_done = 0;
  std::uint64_t checkpoints_written = 0;
  const auto mismatch =
      other.DecodeSnapshot(image, 222, rounds_done, checkpoints_written);
  EXPECT_FALSE(mismatch.ok());
  EXPECT_NE(mismatch.detail.find("fingerprint"), std::string::npos)
      << mismatch.ToString();

  // A v3 *checkpoint* (kind 1) must not parse as a store snapshot even
  // though it shares the SLCK magic.
  core::Checkpoint checkpoint;
  checkpoint.fingerprint = 111;
  const auto ckpt_image = core::EncodeCheckpoint(checkpoint);
  const auto wrong_kind =
      other.DecodeSnapshot(ckpt_image, 111, rounds_done, checkpoints_written);
  EXPECT_FALSE(wrong_kind.ok());
  EXPECT_NE(wrong_kind.detail.find("kind"), std::string::npos)
      << wrong_kind.ToString();
}

TEST(BlockStore, SnapshotWithWrappedRowCountColumnIsRefused) {
  BlockStore store;
  store.Reset(6, {}, 4);
  for (std::size_t i = 0; i < 6; ++i) {
    store.SeedBlock(i, static_cast<std::uint32_t>(i), 0.5);
  }
  const auto forged = testing_support::WithWrappedRowsColumn(
      store.EncodeSnapshot(0xabc, 1, 1), "SLCK");
  ASSERT_FALSE(forged.empty());
  BlockStore restored;
  std::uint64_t rounds_done = 0;
  std::uint64_t checkpoints_written = 0;
  const auto error =
      restored.DecodeSnapshot(forged, 0xabc, rounds_done, checkpoints_written);
  EXPECT_FALSE(error.ok()) << "a column claiming 2^62 rows over 8 bytes "
                              "decoded";
  EXPECT_NE(error.detail.find("rows * width"), std::string::npos)
      << error.ToString();
}

/// Re-emits every column of a store snapshot through ColumnarWriter, in
/// file order, with `edit` applied to the i32 column `id` (no column is
/// edited when the file has none with that id). The writer recomputes
/// every CRC, so only DecodeSnapshot's own checks can refuse the result.
std::vector<std::uint8_t> ReemitWithColumn(
    std::span<const std::uint8_t> image, std::uint32_t id,
    const std::function<void(std::vector<std::int32_t>&)>& edit) {
  storage::ColumnarReader reader;
  EXPECT_TRUE(reader.Parse(image, "SLCK").ok());
  storage::ColumnarWriter writer("SLCK", core::kStoreSnapshotKind,
                                 reader.fingerprint(), reader.generation());
  for (const auto& column : reader.columns()) {
    if (column.id != id) {
      writer.Add(column.id, column.elem_width, column.bytes);
      continue;
    }
    const auto typed = column.As<std::int32_t>();
    std::vector<std::int32_t> values(typed.begin(), typed.end());
    edit(values);
    writer.AddTyped<std::int32_t>(id, values);
  }
  return writer.Finish();
}

/// 4 blocks through 8-slot rings for `rounds` consecutive rounds.
std::vector<std::uint8_t> RingSnapshot(std::int64_t rounds) {
  BlockStore store;
  store.Reset(4, {}, 8);
  for (std::size_t i = 0; i < 4; ++i) {
    store.SeedBlock(i, static_cast<std::uint32_t>(i), 0.5);
  }
  std::vector<RoundSample> samples(4);
  for (std::int64_t r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < 4; ++i) {
      samples[i] = SyntheticRoundSample(9, static_cast<std::uint32_t>(i), r);
    }
    store.ObserveRound(0, 4, samples);
    store.RecordSeriesRound(0, 4, r);
  }
  return store.EncodeSnapshot(0x51de, static_cast<std::uint64_t>(rounds), 1);
}

TEST(BlockStore, SnapshotWithImpossibleRingCursorsIsRefused) {
  // Column ids are frozen file-format constants: 21 series_len,
  // 22 series_head, 23 series_last. Each forgery is CRC-valid, so the
  // decoder's cursor checks are all that stands between it and a ring
  // indexed outside its slots.
  constexpr std::uint32_t kLen = 21;
  constexpr std::uint32_t kHead = 22;
  constexpr std::uint32_t kLast = 23;
  const auto wrapped = RingSnapshot(12);  // every ring full, head 4
  const auto partial = RingSnapshot(5);   // len 5 of 8, head 0
  struct Forgery {
    const char* what;
    const std::vector<std::uint8_t>* image;
    std::uint32_t id;
    std::function<void(std::vector<std::int32_t>&)> edit;
    const char* detail;
  };
  const Forgery forgeries[] = {
      {"len above capacity", &wrapped, kLen,
       [](auto& v) { v[0] = 1'000'000; }, "series length"},
      {"negative len", &wrapped, kLen, [](auto& v) { v[2] = -1; },
       "series length"},
      {"negative head", &wrapped, kHead, [](auto& v) { v[1] = -7; },
       "series head"},
      {"head at capacity", &wrapped, kHead, [](auto& v) { v[3] = 8; },
       "series head"},
      {"head on a ring that is not full", &partial, kHead,
       [](auto& v) { v[2] = 3; }, "not full"},
      {"oldest stamp below round 0", &wrapped, kLast,
       [](auto& v) { v[1] = 6; }, "before round 0"},
  };
  std::uint64_t rounds_done = 0;
  std::uint64_t checkpoints_written = 0;
  for (const auto* image : {&wrapped, &partial}) {
    BlockStore control;
    EXPECT_TRUE(control
                    .DecodeSnapshot(ReemitWithColumn(*image, 0, [](auto&) {}),
                                    0x51de, rounds_done, checkpoints_written)
                    .ok())
        << "an unedited re-emit must decode";
  }
  for (const auto& forgery : forgeries) {
    BlockStore restored;
    const auto error = restored.DecodeSnapshot(
        ReemitWithColumn(*forgery.image, forgery.id, forgery.edit), 0x51de,
        rounds_done, checkpoints_written);
    EXPECT_FALSE(error.ok()) << forgery.what << " decoded";
    EXPECT_NE(error.detail.find(forgery.detail), std::string::npos)
        << forgery.what << ": " << error.ToString();
  }
}

TEST(BlockStore, SnapshotPaysEightBytesPerRingSample) {
  // The memory contract of the series rings: an f64 value per sample
  // plus three i32 cursors per block (length, head, last round). The
  // slack covers the container's extra META word, directory entries
  // and column alignment padding.
  constexpr std::size_t kBlocks = 1000;
  constexpr std::int32_t kCapacity = 64;
  BlockStore rings;
  rings.Reset(kBlocks, {}, kCapacity);
  BlockStore bare;
  bare.Reset(kBlocks);
  const std::size_t with_rings = rings.EncodeSnapshot(1, 0, 0).size();
  const std::size_t without = bare.EncodeSnapshot(1, 0, 0).size();
  const std::size_t slack =
      storage::kColumnarPageBytes + 4 * storage::kColumnarAlignBytes;
  ASSERT_GT(with_rings, without);
  EXPECT_LE(with_rings - without, kBlocks * (8 * kCapacity + 12) + slack);
}

TEST(BlockStore, EverySingleByteCorruptionOfSnapshotIsDetected) {
  BlockStore store;
  store.Reset(3);
  store.SeedBlock(0, 5, 0.5);
  store.Observe(0, 1, 4);
  const auto image = store.EncodeSnapshot(77, 1, 1);
  for (std::size_t i = 0; i < image.size(); ++i) {
    auto bent = image;
    bent[i] ^= 0x01;
    BlockStore scratch;
    std::uint64_t rounds_done = 0;
    std::uint64_t checkpoints_written = 0;
    EXPECT_FALSE(
        scratch.DecodeSnapshot(bent, 77, rounds_done, checkpoints_written)
            .ok())
        << "flipped byte " << i;
  }
}

StoreCampaignConfig ScaleConfig(storage::Env& env, const std::string& path) {
  StoreCampaignConfig config;
  config.n_blocks = 10'000;
  config.n_rounds = 60;
  config.seed = 0x9e1;
  config.checkpoint_path = path;
  config.checkpoint_every_rounds = 16;
  config.env = &env;
  return config;
}

TEST(StoreCampaign, WorkerCountIsInvisibleInTheColumns) {
  MemEnv env;
  std::uint64_t digest1 = 0;
  for (const int workers : {1, 3, 8}) {
    auto config = ScaleConfig(env, "");
    config.workers = workers;
    BlockStore store;
    const auto outcome = core::RunStoreCampaign(store, config);
    ASSERT_TRUE(outcome.error.empty()) << outcome.error;
    EXPECT_EQ(outcome.rounds_done, 60);
    if (workers == 1) {
      digest1 = outcome.digest;
    } else {
      EXPECT_EQ(outcome.digest, digest1) << "workers " << workers;
    }
  }
}

/// FNV-1a over every block's CopySeriesOrdered: length, then each
/// sample's derived round and value bits.
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

// The store campaign runs each worker's range tile by tile, every round
// of a segment on one tile before the next. That order must be
// invisible: rings, Digest() and the final snapshot bytes all equal a
// round-major pass over every block, built here from the same public
// kernels. 1,000 blocks leave a partial last tile, and at 3 workers the
// ranges end mid-tile; 150 rounds wrap every 48-slot ring; a stride of
// 37 puts the segment joins off any tile or ring boundary.
TEST(BlockStore, TileOrderIsInvisibleInRingsDigestAndSnapshot) {
  constexpr std::size_t kBlocks = 1'000;
  constexpr std::int64_t kRounds = 150;
  const std::string path = "/ckpt/tiles.slck";
  const auto configure = [&path](storage::Env& env) {
    StoreCampaignConfig config;
    config.n_blocks = kBlocks;
    config.n_rounds = kRounds;
    config.seed = 0x711e;
    config.checkpoint_path = path;
    config.checkpoint_every_rounds = 37;
    config.env = &env;
    config.series_capacity = 48;
    return config;
  };

  // Round-major reference over [0, n), seeded like the campaign.
  MemEnv unused;
  const auto reference_config = configure(unused);
  BlockStore reference;
  reference.Reset(kBlocks, reference_config.availability, 48);
  for (std::size_t i = 0; i < kBlocks; ++i) {
    const auto prefix = static_cast<std::uint32_t>(i);
    reference.SeedBlock(
        i, prefix,
        core::SyntheticInitialAvailability(reference_config.seed, prefix));
    reference.SetEverActive(
        i, core::SyntheticEverActive(reference_config.seed, prefix));
  }
  std::vector<RoundSample> samples(kBlocks);
  for (std::int64_t round = 0; round < kRounds; ++round) {
    for (std::size_t i = 0; i < kBlocks; ++i) {
      samples[i] = SyntheticRoundSample(reference_config.seed,
                                        static_cast<std::uint32_t>(i), round);
    }
    reference.ObserveRound(0, kBlocks, samples);
    reference.RecordSeriesRound(0, kBlocks, round);
  }
  ASSERT_EQ(reference.SeriesLength(0), 48);
  // Segments end at 37, 74, 111, 148 and 150: five snapshots.
  const auto reference_file = reference.EncodeSnapshot(
      core::StoreCampaignFingerprint(reference_config), kRounds, 5);
  const std::uint64_t reference_series = SeriesFnv(reference);

  const auto expect_reference = [&](const BlockStore& store,
                                     MemEnv& env,
                                     const std::string& label) {
    EXPECT_EQ(store.Digest(), reference.Digest()) << label;
    EXPECT_EQ(SeriesFnv(store), reference_series) << label;
    std::vector<std::uint8_t> file;
    ASSERT_TRUE(env.ReadAll(path, file).ok()) << label;
    EXPECT_EQ(file == reference_file, true)
        << "final snapshot diverged from the round-major pass (" << label
        << ")";
  };

  for (const int workers : {1, 3, 4}) {
    MemEnv env;
    auto config = configure(env);
    config.workers = workers;
    BlockStore store;
    const auto outcome = core::RunStoreCampaign(store, config);
    ASSERT_TRUE(outcome.error.empty()) << outcome.error;
    EXPECT_EQ(outcome.rounds_done, kRounds);
    EXPECT_EQ(outcome.checkpoints_written, 5u);
    expect_reference(store, env, std::to_string(workers) + " workers");
  }

  // Killed at the round-74 boundary on 4 workers, resumed on 3.
  MemEnv env;
  auto config = configure(env);
  config.workers = 4;
  config.stop_after_rounds = 60;
  BlockStore first;
  const auto killed = core::RunStoreCampaign(first, config);
  ASSERT_TRUE(killed.error.empty()) << killed.error;
  EXPECT_TRUE(killed.stopped_early);
  EXPECT_EQ(killed.rounds_done, 74);

  config.stop_after_rounds = 0;
  config.workers = 3;
  BlockStore second;
  const auto resumed = core::RunStoreCampaign(second, config);
  ASSERT_TRUE(resumed.error.empty()) << resumed.error;
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.rounds_done, kRounds);
  expect_reference(second, env, "4 -> 3 workers after a kill");
}

// The paper-scale durability claim, in miniature: kill a 10k-block
// campaign mid-run at a checkpoint boundary, resume at a DIFFERENT
// worker count, and demand the final snapshot be byte-identical to an
// uninterrupted run's.
TEST(StoreCampaign, KillAndResumeIsByteIdenticalAcrossWorkerCounts) {
  const std::string path = "/ckpt/store.slck";

  // Uninterrupted reference at 1 worker.
  MemEnv clean_env;
  auto clean_config = ScaleConfig(clean_env, path);
  clean_config.workers = 1;
  BlockStore clean_store;
  const auto clean = core::RunStoreCampaign(clean_store, clean_config);
  ASSERT_TRUE(clean.error.empty()) << clean.error;
  std::vector<std::uint8_t> clean_file;
  ASSERT_TRUE(clean_env.ReadAll(path, clean_file).ok());

  for (const int first_workers : {1, 8}) {
    for (const int second_workers : {1, 8}) {
      MemEnv env;
      auto config = ScaleConfig(env, path);
      config.workers = first_workers;
      config.stop_after_rounds = 30;  // killed at the round-32 boundary
      BlockStore first;
      const auto killed = core::RunStoreCampaign(first, config);
      ASSERT_TRUE(killed.error.empty()) << killed.error;
      EXPECT_TRUE(killed.stopped_early);
      EXPECT_LT(killed.rounds_done, 60);

      config.stop_after_rounds = 0;
      config.workers = second_workers;
      BlockStore second;
      const auto resumed = core::RunStoreCampaign(second, config);
      ASSERT_TRUE(resumed.error.empty()) << resumed.error;
      EXPECT_TRUE(resumed.resumed);
      EXPECT_EQ(resumed.rounds_done, 60);
      EXPECT_EQ(resumed.digest, clean.digest)
          << first_workers << " -> " << second_workers << " workers";

      std::vector<std::uint8_t> resumed_file;
      ASSERT_TRUE(env.ReadAll(path, resumed_file).ok());
      EXPECT_EQ(resumed_file == clean_file, true)
          << "final snapshot diverged after kill/resume ("
          << first_workers << " -> " << second_workers << " workers)";
    }
  }
}

// Same durability claim with the FULL pipeline: series rings recorded
// every round and the classify sweep run before the final checkpoint.
// The resumed run must classify, and its snapshot — verdict columns
// and rings included — must match the uninterrupted run's bytes.
TEST(StoreCampaign, KillAndResumeWithSeriesAndClassifyIsByteIdentical) {
  const std::string path = "/ckpt/classify.slck";
  const auto configure = [&path](storage::Env& env) {
    StoreCampaignConfig config;
    config.n_blocks = 600;
    config.n_rounds = 500;  // ring keeps ~3 days; >= 2 survive the trim
    config.seed = 0xc1a5;
    config.checkpoint_path = path;
    config.checkpoint_every_rounds = 128;
    config.env = &env;
    config.series_capacity = 400;
    config.classify = true;
    return config;
  };

  MemEnv clean_env;
  auto clean_config = configure(clean_env);
  clean_config.workers = 1;
  BlockStore clean_store;
  const auto clean = core::RunStoreCampaign(clean_store, clean_config);
  ASSERT_TRUE(clean.error.empty()) << clean.error;
  EXPECT_EQ(clean.analyze.analyzed, 600u);
  EXPECT_EQ(clean.analyze.classified, 600u);
  EXPECT_GT(clean.analyze.diurnal, 0u);
  std::vector<std::uint8_t> clean_file;
  ASSERT_TRUE(clean_env.ReadAll(path, clean_file).ok());

  MemEnv env;
  auto config = configure(env);
  config.workers = 8;
  config.stop_after_rounds = 150;  // killed before any classification
  BlockStore first;
  const auto killed = core::RunStoreCampaign(first, config);
  ASSERT_TRUE(killed.error.empty()) << killed.error;
  EXPECT_TRUE(killed.stopped_early);
  EXPECT_EQ(killed.analyze.classified, 0u);

  config.stop_after_rounds = 0;
  config.workers = 3;
  BlockStore second;
  const auto resumed = core::RunStoreCampaign(second, config);
  ASSERT_TRUE(resumed.error.empty()) << resumed.error;
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.analyze.classified, 600u);
  EXPECT_EQ(resumed.digest, clean.digest);

  std::vector<std::uint8_t> resumed_file;
  ASSERT_TRUE(env.ReadAll(path, resumed_file).ok());
  EXPECT_EQ(resumed_file == clean_file, true)
      << "final snapshot (with verdicts + rings) diverged after kill/resume";
}

// The ring-value column is the one column advised onto transparent
// huge pages, over its 2 MiB-aligned interior. 2,000 blocks x 400 slots
// is a 6.4 MB ring, so that interior holds at least one whole huge page
// wherever the column starts; the smaller rings above hold none. Where
// THP is on, the resumed arena's ring, the fresh arena after Reset and
// the decoded store all run on huge pages; where it is off, the same
// assertions hold on base pages.
TEST(BlockStore, HugePageRingKillResumeResetAndDecode) {
  const std::string path = "/ckpt/huge_ring.slck";
  const auto configure = [&path](storage::Env& env) {
    StoreCampaignConfig config;
    config.n_blocks = 2'000;
    config.n_rounds = 420;  // the rings wrap before the end
    config.seed = 0x2a1b;
    config.checkpoint_path = path;
    config.checkpoint_every_rounds = 140;
    config.env = &env;
    config.series_capacity = 400;
    return config;
  };

  MemEnv clean_env;
  auto clean_config = configure(clean_env);
  clean_config.workers = 2;
  BlockStore clean_store;
  const auto clean = core::RunStoreCampaign(clean_store, clean_config);
  ASSERT_TRUE(clean.error.empty()) << clean.error;
  ASSERT_GE(clean_store.series_values().size_bytes(),
            std::size_t{3} * (std::size_t{2} << 20));
  std::vector<std::uint8_t> clean_file;
  ASSERT_TRUE(clean_env.ReadAll(path, clean_file).ok());

  MemEnv env;
  auto config = configure(env);
  config.workers = 3;
  config.stop_after_rounds = 200;  // killed at the round-280 boundary
  BlockStore first;
  const auto killed = core::RunStoreCampaign(first, config);
  ASSERT_TRUE(killed.error.empty()) << killed.error;
  EXPECT_TRUE(killed.stopped_early);

  config.stop_after_rounds = 0;
  config.workers = 1;
  BlockStore second;
  const auto resumed = core::RunStoreCampaign(second, config);
  ASSERT_TRUE(resumed.error.empty()) << resumed.error;
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.digest, clean.digest);
  std::vector<std::uint8_t> resumed_file;
  ASSERT_TRUE(env.ReadAll(path, resumed_file).ok());
  EXPECT_EQ(resumed_file == clean_file, true)
      << "final snapshot diverged after kill/resume over a huge-page ring";

  // The writer's digest survives a decode into a fresh arena.
  BlockStore decoded;
  std::uint64_t rounds_done = 0;
  std::uint64_t checkpoints_written = 0;
  ASSERT_TRUE(decoded
                  .DecodeSnapshot(clean_file,
                                  core::StoreCampaignFingerprint(clean_config),
                                  rounds_done, checkpoints_written)
                  .ok());
  EXPECT_EQ(rounds_done, 420u);
  EXPECT_EQ(decoded.Digest(), clean_store.Digest());

  // A Reset maps a fresh arena: no sample of the old ring shows through.
  clean_store.Reset(2'000, {}, 400);
  const auto values = clean_store.series_values();
  ASSERT_EQ(values.size(), std::size_t{2'000} * 400);
  std::size_t nonzero = 0;
  for (const double value : values) nonzero += value != 0.0 ? 1 : 0;
  EXPECT_EQ(nonzero, 0u);
}

// A snapshot in the ring layout from before the last-round cursor:
// column 20 carries every slot's i32 round stamp (n * capacity rows)
// and column 23 is absent. It must be refused, and a campaign finding it
// at its checkpoint path must start fresh and end where a clean run
// ends.
TEST(StoreCampaign, PreCursorSnapshotIsRefusedAndTheCampaignStartsFresh) {
  const std::string path = "/ckpt/pre_cursor.slck";
  const auto configure = [&path](storage::Env& env) {
    StoreCampaignConfig config;
    config.n_blocks = 300;
    config.n_rounds = 120;
    config.seed = 0x01d;
    config.checkpoint_path = path;
    config.checkpoint_every_rounds = 40;
    config.env = &env;
    config.series_capacity = 48;
    return config;
  };
  MemEnv clean_env;
  BlockStore clean_store;
  const auto clean =
      core::RunStoreCampaign(clean_store, configure(clean_env));
  ASSERT_TRUE(clean.error.empty()) << clean.error;

  MemEnv env;
  auto config = configure(env);
  config.stop_after_rounds = 60;
  BlockStore killed_store;
  ASSERT_TRUE(core::RunStoreCampaign(killed_store, config).error.empty());
  std::vector<std::uint8_t> current;
  ASSERT_TRUE(env.ReadAll(path, current).ok());
  const std::uint64_t fingerprint = core::StoreCampaignFingerprint(config);
  BlockStore killed;
  std::uint64_t rounds_done = 0;
  std::uint64_t checkpoints_written = 0;
  ASSERT_TRUE(killed
                  .DecodeSnapshot(current, fingerprint, rounds_done,
                                  checkpoints_written)
                  .ok());
  ASSERT_GT(rounds_done, 48u) << "the rings should have wrapped";

  // Every slot's stamp, where the old layout kept it.
  const auto cap = static_cast<std::size_t>(config.series_capacity);
  std::vector<std::int32_t> stamps(killed.size() * cap, 0);
  std::vector<ts::Observation> ordered;
  for (std::size_t i = 0; i < killed.size(); ++i) {
    killed.CopySeriesOrdered(i, ordered);
    const auto head = static_cast<std::size_t>(killed.series_head()[i]);
    for (std::size_t k = 0; k < ordered.size(); ++k) {
      stamps[i * cap + (head + k) % cap] =
          static_cast<std::int32_t>(ordered[k].round);
    }
  }
  storage::ColumnarReader reader;
  ASSERT_TRUE(reader.Parse(current, "SLCK").ok());
  storage::ColumnarWriter writer("SLCK", core::kStoreSnapshotKind,
                                 reader.fingerprint(), reader.generation());
  for (const auto& column : reader.columns()) {
    if (column.id == 23) continue;
    writer.Add(column.id, column.elem_width, column.bytes);
    if (column.id == 19) writer.AddTyped<std::int32_t>(20, stamps);
  }
  const auto pre_cursor = writer.Finish();

  BlockStore refused;
  const auto error = refused.DecodeSnapshot(pre_cursor, fingerprint,
                                            rounds_done, checkpoints_written);
  EXPECT_FALSE(error.ok()) << "a pre-cursor ring snapshot decoded";
  EXPECT_NE(error.detail.find("column 20"), std::string::npos)
      << error.ToString();

  ASSERT_TRUE(storage::AtomicWrite(env, path, pre_cursor).ok());
  config.stop_after_rounds = 0;
  BlockStore store;
  const auto outcome = core::RunStoreCampaign(store, config);
  ASSERT_TRUE(outcome.error.empty()) << outcome.error;
  EXPECT_FALSE(outcome.resumed);
  EXPECT_EQ(outcome.rounds_done, config.n_rounds);
  EXPECT_EQ(outcome.digest, clean.digest);
}

TEST(StoreCampaign, ForeignSnapshotIsIgnoredOnResume) {
  const std::string path = "/ckpt/store.slck";
  MemEnv env;

  // Leave a snapshot from a DIFFERENT campaign identity at the path.
  auto foreign = ScaleConfig(env, path);
  foreign.n_blocks = 500;
  foreign.n_rounds = 10;
  foreign.seed = 0xdead;
  BlockStore foreign_store;
  ASSERT_TRUE(core::RunStoreCampaign(foreign_store, foreign).error.empty());

  auto config = ScaleConfig(env, path);
  config.n_blocks = 500;
  config.n_rounds = 10;
  BlockStore store;
  const auto outcome = core::RunStoreCampaign(store, config);
  ASSERT_TRUE(outcome.error.empty()) << outcome.error;
  EXPECT_FALSE(outcome.resumed)
      << "a fingerprint-mismatched snapshot must not be adopted";
  EXPECT_EQ(outcome.rounds_done, 10);
}

}  // namespace
}  // namespace sleepwalk
