// The columnar analysis sweep (core/store_analyzer.h): for identical
// recorded samples, the verdict columns AnalyzeStore writes must be
// bitwise identical to the scalar BlockAnalyzer::Finish output
// projected through VerdictOf — including after the series ring has
// wrapped, at any worker count. The Goertzel screen mode may only ever
// downgrade a verdict to non-diurnal, never invent a diurnal one.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "sleepwalk/core/availability.h"
#include "sleepwalk/core/block_analyzer.h"
#include "sleepwalk/core/block_store.h"
#include "sleepwalk/core/campaign_ledger.h"
#include "sleepwalk/core/store_analyzer.h"
#include "sleepwalk/core/store_campaign.h"

namespace sleepwalk {
namespace {

using core::AnalyzerConfig;
using core::AvailabilityEstimator;
using core::BlockAnalyzer;
using core::BlockAnalyzerState;
using core::BlockStore;
using core::BlockVerdict;
using core::RoundSample;
using core::StoreAnalyzerConfig;
using core::SyntheticEverActive;
using core::SyntheticInitialAvailability;
using core::SyntheticRoundSample;
using core::VerdictOf;

// Drives `store` (already Reset with a series capacity) and returns,
// per block, the scalar BlockAnalyzer that saw the exact same samples:
// estimator trajectory from the scalar AvailabilityEstimator, raw
// series limited to what the ring retained (the newest `capacity`
// samples), probe/down accounting over the full run.
std::vector<BlockAnalyzer> DriveBoth(BlockStore& store, std::size_t n_blocks,
                                     std::int64_t n_rounds,
                                     std::int32_t capacity,
                                     std::uint64_t seed) {
  std::vector<BlockAnalyzer> scalars;
  std::vector<AvailabilityEstimator> estimators;
  scalars.reserve(n_blocks);
  estimators.reserve(n_blocks);
  std::vector<std::vector<ts::Observation>> raw(n_blocks);
  std::vector<std::int64_t> total_probes(n_blocks, 0);
  std::vector<int> down_rounds(n_blocks, 0);

  for (std::size_t i = 0; i < n_blocks; ++i) {
    const auto prefix = static_cast<std::uint32_t>(i);
    const double prior = SyntheticInitialAvailability(seed, prefix);
    const std::int32_t active = SyntheticEverActive(seed, prefix);
    store.SeedBlock(i, prefix, prior);
    store.SetEverActive(i, active);
    estimators.emplace_back(prior, store.config());
    std::vector<std::uint8_t> octets(static_cast<std::size_t>(active));
    std::iota(octets.begin(), octets.end(), std::uint8_t{1});
    scalars.emplace_back(net::Prefix24::FromIndex(prefix), std::move(octets),
                         prior, seed, AnalyzerConfig{});
  }

  std::vector<RoundSample> round(n_blocks);
  for (std::int64_t r = 0; r < n_rounds; ++r) {
    for (std::size_t i = 0; i < n_blocks; ++i) {
      round[i] =
          SyntheticRoundSample(seed, static_cast<std::uint32_t>(i), r);
      estimators[i].Observe(round[i].positives, round[i].total);
      raw[i].push_back({r, estimators[i].ShortTerm()});
      total_probes[i] += round[i].total;
      if (round[i].positives <= 0) ++down_rounds[i];
    }
    store.ObserveRound(0, n_blocks, round);
    store.RecordSeriesRound(0, n_blocks, r);
  }

  for (std::size_t i = 0; i < n_blocks; ++i) {
    BlockAnalyzerState state;
    state.estimator = estimators[i].ExportState();
    // The ring holds the newest `capacity` samples; the scalar
    // reference analyzes exactly that window.
    const std::size_t keep =
        std::min(raw[i].size(), static_cast<std::size_t>(capacity));
    state.raw.assign(raw[i].end() - static_cast<std::ptrdiff_t>(keep),
                     raw[i].end());
    state.total_probes = total_probes[i];
    state.rounds_run = n_rounds;
    state.down_rounds = down_rounds[i];
    scalars[i].RestoreState(std::move(state));
  }
  return scalars;
}

void ExpectVerdictColumnsMatch(const BlockStore& store,
                               std::vector<BlockAnalyzer>& scalars) {
  core::AnalysisScratch scratch;
  core::BlockAnalysis analysis;
  for (std::size_t i = 0; i < scalars.size(); ++i) {
    scalars[i].Finish(scratch, analysis);
    const BlockVerdict expect = VerdictOf(analysis, false);
    EXPECT_EQ(store.prefix_index()[i], expect.prefix_index) << "block " << i;
    EXPECT_EQ((store.flags()[i] & core::kBlockFlagProbed) != 0, expect.probed)
        << "block " << i;
    EXPECT_EQ((store.flags()[i] & core::kBlockFlagStationary) != 0,
              expect.stationary)
        << "block " << i;
    EXPECT_EQ(store.classification()[i], expect.classification)
        << "block " << i;
    EXPECT_EQ(store.ever_active()[i], expect.ever_active) << "block " << i;
    EXPECT_EQ(store.observed_days()[i], expect.observed_days) << "block " << i;
    EXPECT_EQ(store.down_rounds()[i], expect.down_rounds) << "block " << i;
    // EXPECT_EQ, not EXPECT_DOUBLE_EQ: the contract is bitwise.
    EXPECT_EQ(store.mean_short()[i], expect.mean_short) << "block " << i;
    EXPECT_EQ(store.final_operational()[i], expect.final_operational)
        << "block " << i;
    EXPECT_EQ(store.mean_probes_per_round()[i], expect.mean_probes_per_round)
        << "block " << i;
  }
}

TEST(StoreAnalyzer, SweepMatchesScalarFinishBitwise) {
  // 280 rounds fit in a 300-slot ring: the sweep sees every sample the
  // scalar analyzer recorded, so every verdict column must agree to
  // the bit.
  constexpr std::size_t kBlocks = 32;
  constexpr std::int32_t kCapacity = 300;
  BlockStore store;
  store.Reset(kBlocks, {}, kCapacity);
  auto scalars = DriveBoth(store, kBlocks, 280, kCapacity, 0x5eed);

  const auto stats = core::AnalyzeStore(store, StoreAnalyzerConfig{}, 1);
  EXPECT_EQ(stats.analyzed, kBlocks);
  EXPECT_EQ(stats.classified, kBlocks);
  EXPECT_EQ(stats.screened_out, 0u);
  ExpectVerdictColumnsMatch(store, scalars);
}

TEST(StoreAnalyzer, WraparoundSweepEqualsScalarOverTheRetainedWindow) {
  // 400 rounds through a 300-slot ring: the oldest 100 samples are
  // overwritten. The sweep must analyze exactly the retained window —
  // the scalar reference is Finish() over the newest 300 samples with
  // full-campaign probe accounting.
  constexpr std::size_t kBlocks = 24;
  constexpr std::int32_t kCapacity = 300;
  BlockStore store;
  store.Reset(kBlocks, {}, kCapacity);
  auto scalars = DriveBoth(store, kBlocks, 400, kCapacity, 0x1196);

  const auto stats = core::AnalyzeStore(store, StoreAnalyzerConfig{}, 1);
  EXPECT_EQ(stats.analyzed, kBlocks);
  ExpectVerdictColumnsMatch(store, scalars);
}

TEST(StoreAnalyzer, RingWraparoundKeepsTheNewestSamplesInOrder) {
  BlockStore store;
  store.Reset(2, {}, 8);
  for (std::int64_t r = 0; r < 20; ++r) {
    store.AppendSeriesSample(0, r, 0.01 * static_cast<double>(r));
  }
  EXPECT_EQ(store.SeriesLength(0), 8);
  EXPECT_EQ(store.SeriesLength(1), 0);

  std::vector<ts::Observation> ordered;
  store.CopySeriesOrdered(0, ordered);
  ASSERT_EQ(ordered.size(), 8u);
  for (std::size_t k = 0; k < 8; ++k) {
    const auto round = static_cast<std::int64_t>(12 + k);
    EXPECT_EQ(ordered[k].round, round) << "slot " << k;
    EXPECT_EQ(ordered[k].value, 0.01 * static_cast<double>(round))
        << "slot " << k;
  }
}

TEST(StoreAnalyzer, BatchedSeriesKernelMatchesPerBlockAppends) {
  // RecordSeriesRound must record, per block, exactly what
  // AppendSeriesSample(i, round, ShortTerm(i)) would — including after
  // wraparound (48 rounds through 16-slot rings).
  constexpr std::size_t kBlocks = 16;
  BlockStore batched;
  BlockStore scalar;
  batched.Reset(kBlocks, {}, 16);
  scalar.Reset(kBlocks, {}, 16);
  for (std::size_t i = 0; i < kBlocks; ++i) {
    batched.SeedBlock(i, static_cast<std::uint32_t>(i), 0.5);
    scalar.SeedBlock(i, static_cast<std::uint32_t>(i), 0.5);
  }
  std::vector<RoundSample> round(kBlocks);
  for (std::int64_t r = 0; r < 48; ++r) {
    for (std::size_t i = 0; i < kBlocks; ++i) {
      round[i] = SyntheticRoundSample(7, static_cast<std::uint32_t>(i), r);
    }
    batched.ObserveRound(0, kBlocks, round);
    batched.RecordSeriesRound(0, kBlocks, r);
    scalar.ObserveRound(0, kBlocks, round);
    for (std::size_t i = 0; i < kBlocks; ++i) {
      scalar.AppendSeriesSample(i, r, scalar.ShortTerm(i));
    }
  }
  EXPECT_EQ(batched.Digest(), scalar.Digest());
}

TEST(StoreAnalyzer, WorkerCountIsInvisibleInTheVerdictColumns) {
  constexpr std::size_t kBlocks = 64;
  std::uint64_t digest1 = 0;
  core::StoreAnalyzeStats stats1;
  for (const int workers : {1, 5}) {
    BlockStore store;
    store.Reset(kBlocks, {}, 300);
    DriveBoth(store, kBlocks, 280, 300, 0xabc);
    const auto stats = core::AnalyzeStore(store, StoreAnalyzerConfig{},
                                          workers);
    if (workers == 1) {
      digest1 = store.Digest();
      stats1 = stats;
    } else {
      EXPECT_EQ(store.Digest(), digest1);
      EXPECT_EQ(stats.analyzed, stats1.analyzed);
      EXPECT_EQ(stats.classified, stats1.classified);
      EXPECT_EQ(stats.diurnal, stats1.diurnal);
    }
  }
}

TEST(StoreAnalyzer, UnprobedBlocksAreSkippedNotClassified) {
  BlockStore store;
  store.Reset(3, {}, 16);
  store.SeedBlock(0, 10, 0.5);
  store.SeedBlock(1, 11, 0.5);  // never observed: no rounds
  store.SeedBlock(2, 12, 0.5);
  for (std::int64_t r = 0; r < 8; ++r) {
    store.Observe(0, 1, 2);
    store.Observe(2, 0, 2);
    store.AppendSeriesSample(0, r, store.ShortTerm(0));
    store.AppendSeriesSample(2, r, store.ShortTerm(2));
  }
  const auto stats = core::AnalyzeStore(store, StoreAnalyzerConfig{}, 1);
  EXPECT_EQ(stats.analyzed, 2u);
  EXPECT_EQ(stats.classified, 0u) << "8 samples is far short of 2 days";
  EXPECT_EQ(store.flags()[1] & core::kBlockFlagProbed, 0);
  EXPECT_NE(store.flags()[0] & core::kBlockFlagProbed, 0);
}

}  // namespace
}  // namespace sleepwalk
