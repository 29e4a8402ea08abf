#include "sleepwalk/core/store_campaign.h"

#include <algorithm>
#include <array>
#include <vector>

#include "sleepwalk/util/parallel.h"

namespace sleepwalk::core {

namespace {

/// Seeds every block: prefix indices are just 0..n-1 (the synthetic
/// world), initial availability a per-block hash in [0, 1).
void SeedStore(BlockStore& store, const StoreCampaignConfig& config) {
  store.Reset(config.n_blocks, config.availability, config.series_capacity);
  for (std::size_t i = 0; i < config.n_blocks; ++i) {
    const auto prefix = static_cast<std::uint32_t>(i);
    store.SeedBlock(i, prefix,
                    SyntheticInitialAvailability(config.seed, prefix));
    store.SetEverActive(i, SyntheticEverActive(config.seed, prefix));
  }
}

/// Blocks per tile of a worker's range. One round of one tile touches
/// ~150 bytes per block: 64 of estimator and probe-accounting columns,
/// 12 of ring cursors, 8 of sample, 4 of prefix and the one 64-byte ring
/// line the round writes. At 128 blocks that is ~19 KiB, inside a
/// 48 KiB L1d with room to spare, so the next round finds the whole
/// tile still in cache. Measured on one worker of a 4-vCPU Xeon with
/// 400-slot rings: a ring append costs 2.4-2.7 ns per sample at up to
/// 256 blocks per call and ~12 ns from 2,048 blocks on, once the lines
/// written per round outgrow L1d. At 2,000 blocks tiles of 32 to 128 ran equally
/// fast and 256 or more gave part of the gain back.
constexpr std::size_t kTileBlocks = 128;

/// One worker's share of a segment: rounds [first, last) over blocks
/// [begin, end), one tile at a time: every round of the segment runs on
/// one tile (the last may be partial) before the next, so the tile's
/// columns and ring lines stay in L1d across rounds. Each block still
/// sees its rounds in order and blocks are independent, so the store
/// ends byte-identical to a round-major pass over [begin, end)
/// (DESIGN.md §15, segment loop, has the measurements).
void RunWorker(BlockStore& store, const StoreCampaignConfig& config,
               std::size_t begin, std::size_t end, std::int64_t first,
               std::int64_t last) {
  std::array<RoundSample, kTileBlocks> samples;
  const auto prefixes = store.prefix_index();
  const bool record_series = store.series_capacity() > 0;
  for (std::size_t tile = begin; tile < end; tile += kTileBlocks) {
    const std::size_t tile_end = std::min(end, tile + kTileBlocks);
    for (std::int64_t round = first; round < last; ++round) {
      for (std::size_t i = tile; i < tile_end; ++i) {
        samples[i - tile] =
            SyntheticRoundSample(config.seed, prefixes[i], round);
      }
      store.ObserveRound(tile, tile_end, samples);
      // Record the post-round A-hat_s like the scalar analyzer's
      // raw_.Add(round, estimator.ShortTerm()) — one batched pass.
      if (record_series) store.RecordSeriesRound(tile, tile_end, round);
    }
  }
}

/// Runs rounds [first, last) across all blocks with `workers` threads
/// owning contiguous ranges (util::SplitRange; one inline worker when
/// workers <= 1).
void RunSegment(BlockStore& store, const StoreCampaignConfig& config,
                std::int64_t first, std::int64_t last) {
  const auto ranges = util::SplitRange(
      store.size(), static_cast<std::size_t>(std::max(config.workers, 1)));
  util::ParallelFor(ranges.size(), [&](std::size_t w) {
    RunWorker(store, config, ranges[w].begin, ranges[w].end, first, last);
  });
}

}  // namespace

std::uint64_t StoreCampaignFingerprint(const StoreCampaignConfig& config) {
  // Worker count and checkpoint cadence are deliberately excluded: a
  // snapshot is a valid resume point for any parallelism or stride.
  // Series capacity and the schedule ARE included: a snapshot without
  // the rings (or with a different round length) cannot seed the same
  // classify sweep.
  std::uint64_t hash =
      MixHash(config.seed, config.n_blocks,
              static_cast<std::uint64_t>(config.n_rounds));
  const auto& a = config.availability;
  hash = MixHash(hash, static_cast<std::uint64_t>(a.alpha_short * 1e9),
                 static_cast<std::uint64_t>(a.alpha_long * 1e9));
  hash = MixHash(hash,
                 static_cast<std::uint64_t>(a.operational_floor * 1e9),
                 static_cast<std::uint64_t>(a.initial_deviation * 1e9));
  if (config.series_capacity > 0) {
    hash = MixHash(
        hash, static_cast<std::uint64_t>(config.series_capacity),
        static_cast<std::uint64_t>(config.analyzer.schedule.round_seconds));
    hash = MixHash(
        hash, static_cast<std::uint64_t>(config.analyzer.schedule.epoch_sec),
        static_cast<std::uint64_t>(config.classify ? 1 : 0));
  }
  return hash;
}

StoreCampaignOutcome RunStoreCampaign(BlockStore& store,
                                      const StoreCampaignConfig& config) {
  StoreCampaignOutcome outcome;
  storage::Env& env =
      config.env != nullptr ? *config.env : storage::RealEnvInstance();
  const std::uint64_t fingerprint = StoreCampaignFingerprint(config);
  const bool checkpointing = !config.checkpoint_path.empty();

  std::int64_t rounds_done = 0;
  std::uint64_t checkpoints_written = 0;

  if (checkpointing && env.Exists(config.checkpoint_path)) {
    // Resume: map the snapshot (no read copy) and decode it, which
    // copies each column once from the mapping into a fresh arena. A
    // mismatched fingerprint or corrupt file means a fresh start (the
    // snapshot belongs to some other campaign), never a franken-resume.
    storage::MappedRegion region;
    if (auto error = env.Map(config.checkpoint_path, region); error.ok()) {
      store.Reset(0, config.availability);
      std::uint64_t done = 0;
      std::uint64_t written = 0;
      if (store
              .DecodeSnapshot(region.bytes(), fingerprint, done, written,
                              config.checkpoint_path)
              .ok() &&
          store.size() == config.n_blocks) {
        rounds_done = static_cast<std::int64_t>(done);
        checkpoints_written = written;
        outcome.resumed = true;
      }
    }
  }
  if (!outcome.resumed) SeedStore(store, config);

  const std::int64_t stride = config.checkpoint_every_rounds > 0
                                  ? config.checkpoint_every_rounds
                                  : config.n_rounds;
  while (rounds_done < config.n_rounds) {
    const std::int64_t last =
        std::min(config.n_rounds,
                 stride > 0 ? rounds_done + stride : config.n_rounds);
    RunSegment(store, config, rounds_done, last);
    rounds_done = last;

    // The classify sweep runs when the final round completes, BEFORE
    // the final checkpoint: the snapshot then carries the verdict
    // columns, so a resume of a completed campaign (and the byte-
    // identity proof across kill points) sees classified state.
    if (config.classify && rounds_done >= config.n_rounds) {
      const int workers = std::max(1, config.workers);
      outcome.analyze = AnalyzeStore(store, config.analyzer, workers);
    }

    if (checkpointing) {
      ++checkpoints_written;  // write-ahead self-count, like a checkpoint
      if (auto error = store.WriteSnapshot(env, config.checkpoint_path,
                                           fingerprint, rounds_done,
                                           checkpoints_written);
          !error.ok()) {
        --checkpoints_written;
        if (outcome.error.empty()) outcome.error = error.ToString();
      }
    }
    if (config.stop_after_rounds > 0 &&
        rounds_done >= config.stop_after_rounds &&
        rounds_done < config.n_rounds) {
      outcome.stopped_early = true;
      break;
    }
  }

  outcome.rounds_done = rounds_done;
  outcome.checkpoints_written = checkpoints_written;
  outcome.digest = store.Digest();
  return outcome;
}

}  // namespace sleepwalk::core
