// store_campaign: the paper-scale columnar path. RunStoreCampaign drives
// the synthetic hash source through the batched estimator and series
// kernels for 4096 rounds, classifies every block from its 400-slot ring
// before the final snapshot, and snapshots every 2048 rounds into memory.
// A separately timed AnalyzeStore() then re-runs the classify sweep on
// the finished store. No sim, probing or transport runs, and only two
// snapshots are written, so compute is isolated from I/O.
#include <algorithm>
#include <numeric>

#include "sleepwalk/core/store_analyzer.h"
#include "sleepwalk/ts/clean.h"
#include "sleepwalk/ts/stationarity.h"
#include "workloads.h"

namespace sleepbench {

namespace core = sleepwalk::core;
namespace storage = sleepwalk::storage;
namespace ts = sleepwalk::ts;

namespace {

constexpr const char* kSnapshotPath = "/store_campaign.slck";

/// The contiguous block ranges RunSegment and AnalyzeStore give their
/// threads: up to `threads` of them, empty ones dropped, and one range
/// (run on the calling thread) when a single thread is used.
std::vector<std::pair<std::size_t, std::size_t>> Ranges(std::size_t n,
                                                        int threads) {
  const auto used = static_cast<std::size_t>(
      std::max(1, std::min(threads, static_cast<int>(n == 0 ? 1 : n))));
  if (used == 1) return {{0, n}};
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  const std::size_t chunk = (n + used - 1) / used;
  for (std::size_t w = 0; w < used; ++w) {
    const std::size_t begin = std::min(n, w * chunk);
    const std::size_t end = std::min(n, begin + chunk);
    if (begin >= end) break;
    ranges.emplace_back(begin, end);
  }
  return ranges;
}

/// AnalyzeStoreRange() with a lap after each stage of each block.
core::StoreAnalyzeStats TracedAnalyzeRange(
    core::BlockStore& store, std::size_t begin, std::size_t end,
    const core::StoreAnalyzerConfig& config, core::AnalysisScratch& scratch,
    Worker& worker) {
  core::StoreAnalyzeStats stats;
  const auto prefixes = store.prefix_index();
  const auto rounds = store.rounds();
  const auto probes = store.probes();
  const auto down_rounds = store.down_rounds();
  const auto flags = store.flags();
  const auto ever_active = store.ever_active();
  for (std::size_t i = begin; i < end; ++i) {
    core::BlockVerdict verdict;
    verdict.prefix_index = prefixes[i];
    verdict.quarantined = (flags[i] & core::kBlockFlagQuarantined) != 0;
    verdict.ever_active = ever_active[i];
    verdict.probed = rounds[i] > 0;
    const auto estimator = store.ExportEstimator(i);
    if (!verdict.probed) {
      store.RecordVerdict(i, verdict, estimator);
      worker.Mark(Stage::kAnalyzeCopy);
      continue;
    }
    ++stats.analyzed;
    verdict.final_operational =
        core::AvailabilityOperational(estimator, store.config());
    verdict.mean_probes_per_round = static_cast<double>(probes[i]) /
                                    static_cast<double>(rounds[i]);
    verdict.down_rounds = down_rounds[i];
    store.CopySeriesOrdered(i, scratch.observations);
    worker.Mark(Stage::kAnalyzeCopy);

    bool ok = ts::Regularize(
        std::span<const ts::Observation>(scratch.observations),
        scratch.regularize, scratch.even);
    worker.Mark(Stage::kAnalyzeRegularize);
    if (ok) {
      ok = ts::TrimToMidnightUtc(scratch.even, config.schedule.epoch_sec,
                                 config.schedule.round_seconds,
                                 scratch.trimmed);
    }
    if (!ok) {
      store.RecordVerdict(i, verdict, estimator);
      worker.Mark(Stage::kAnalyzeTrim);
      continue;
    }
    verdict.observed_days = ts::WholeDays(scratch.trimmed.size(),
                                          config.schedule.round_seconds);
    worker.Mark(Stage::kAnalyzeTrim);

    verdict.mean_short =
        std::accumulate(scratch.trimmed.values.begin(),
                        scratch.trimmed.values.end(), 0.0) /
        static_cast<double>(scratch.trimmed.values.size());
    verdict.stationary =
        ts::TestStationarity(scratch.trimmed.values, ever_active[i],
                             config.max_trend_addresses_per_day,
                             config.schedule.round_seconds, scratch.index)
            .stationary;
    worker.Mark(Stage::kAnalyzeStationarity);

    ++stats.classified;
    // The benchmark runs the default sweep (no Goertzel screen), the one
    // that is bitwise equal to the scalar analyzer.
    const auto diurnal = core::ClassifyDiurnal(
        scratch.trimmed.values, verdict.observed_days, config.diurnal,
        nullptr, scratch);
    verdict.classification = static_cast<std::uint8_t>(diurnal.classification);
    if (diurnal.IsDiurnal()) ++stats.diurnal;
    store.RecordVerdict(i, verdict, estimator);
    worker.Mark(Stage::kAnalyzeFft);
  }
  return stats;
}

class StoreCampaign final : public Workload {
 public:
  explicit StoreCampaign(const Options& options) {
    config_.n_blocks = options.smoke ? 800 : 8000;
    config_.n_rounds = 4096;
    config_.seed = options.seed;
    config_.series_capacity = 400;
    config_.classify = true;
    config_.checkpoint_path = kSnapshotPath;
    config_.checkpoint_every_rounds = 2048;
  }

  std::string SizesJson() const override {
    return JsonObject{}
        .Add("blocks", static_cast<std::uint64_t>(config_.n_blocks))
        .Add("rounds", static_cast<std::uint64_t>(config_.n_rounds))
        .Add("series_capacity", config_.series_capacity)
        .Add("checkpoint_every_rounds",
             static_cast<std::uint64_t>(config_.checkpoint_every_rounds))
        .Add("classify", config_.classify)
        .str();
  }

  // Set-up times the store seeding RunStoreCampaign starts with; its store
  // is released before each rep, which runs on a fresh store of its own
  // (see checkpoint_resume.cc).
  void Setup(Worker* worker) override {
    store_ = core::BlockStore{};
    SeedStoreLikeCampaign(store_, config_);
    if (worker != nullptr) worker->Mark(Stage::kStoreSeed);
  }

  std::uint64_t SetupDigest() const override { return store_.Digest(); }

  RepOutcome Run(bool quarter, int workers) override {
    store_ = core::BlockStore{};
    core::BlockStore store;
    storage::MemEnv env;
    const auto config = RepConfig(config_, quarter, workers, env);
    RepOutcome rep;

    const auto t0 = Clock::now();
    const auto outcome = core::RunStoreCampaign(store, config);
    const auto t1 = Clock::now();
    const auto stats = core::AnalyzeStore(store, config.analyzer, workers);
    const auto t2 = Clock::now();
    std::vector<double> reopen_s;
    std::uint64_t reopened_digest = 0;
    for (int k = 0; k < kReopens; ++k) {
      core::BlockStore restarted;
      const auto begin = Clock::now();
      const auto restart = core::RunStoreCampaign(restarted, config);
      reopen_s.push_back(Seconds(begin, Clock::now()));
      rep.Check(restart.resumed && restart.rounds_done == config.n_rounds,
                "restart did not resume the completed snapshot");
      reopened_digest = restart.digest;
    }
    rep.rep_wall_s = Seconds(t0, Clock::now());

    rep.work_s = Seconds(t0, t1);
    rep.classify_s = Seconds(t1, t2);
    rep.resume_s = Median(reopen_s);
    rep.blocks = config.n_blocks;
    rep.classify_blocks = static_cast<double>(config.n_blocks);
    rep.block_rounds = static_cast<double>(config.n_blocks) *
                       static_cast<double>(config.n_rounds);
    rep.Check(outcome.error.empty(), "snapshot write: " + outcome.error);
    rep.Check(outcome.rounds_done == config.n_rounds &&
                  outcome.checkpoints_written == 2,
              "campaign incomplete");
    rep.Check(store.Digest() == outcome.digest,
              "AnalyzeStore changed a classified store");
    rep.Check(stats.analyzed == outcome.analyze.analyzed &&
                  stats.diurnal == outcome.analyze.diurnal,
              "AnalyzeStore disagrees with the campaign's sweep");
    rep.Check(reopened_digest == outcome.digest,
              "restarted store digest differs");
    rep.verdicts = StoreVerdicts(store);
    rep.artifact_bytes = SnapshotBytes(env);
    rep.digest = outcome.digest;
    return rep;
  }

  RepOutcome RunTraced(Trace& trace) override {
    store_ = core::BlockStore{};
    core::BlockStore store;
    storage::MemEnv env;
    const int workers = trace.workers();
    const auto config = RepConfig(config_, false, workers, env);
    RepOutcome rep;

    trace.Start();
    const auto t0 = Clock::now();
    const auto outcome = TracedStoreCampaign(store, config, trace);
    const auto t1 = Clock::now();
    TracedAnalyzeStore(store, config.analyzer, workers, trace);
    const auto t2 = Clock::now();
    std::uint64_t reopened_digest = 0;
    for (int k = 0; k < kReopens; ++k) {
      core::BlockStore restarted;
      const auto restart = TracedStoreCampaign(restarted, config, trace);
      reopened_digest = restart.digest;
      rep.Check(restart.resumed, "restart did not resume");
    }
    trace.Stop();

    rep.rep_wall_s = trace.wall_s();
    rep.work_s = Seconds(t0, t1);
    rep.classify_s = Seconds(t1, t2);
    rep.blocks = config.n_blocks;
    rep.block_rounds = static_cast<double>(config.n_blocks) *
                       static_cast<double>(config.n_rounds);
    rep.Check(outcome.error.empty(), "snapshot write: " + outcome.error);
    rep.Check(store.Digest() == outcome.digest && reopened_digest == outcome.digest,
              "traced store digests disagree");
    rep.verdicts = StoreVerdicts(store);
    rep.artifact_bytes = SnapshotBytes(env);
    rep.digest = outcome.digest;
    return rep;
  }

  std::vector<Gate> ShapeGates(const Trace& trace) const override {
    return {{"store.checkpoint.busy_share",
             trace.BusyShare({Stage::kCheckpointEncode,
                              Stage::kCheckpointWrite}),
             0.0, 0.10}};
  }

 private:
  static std::uint64_t SnapshotBytes(storage::Env& env) {
    storage::MappedRegion region;
    return env.Map(kSnapshotPath, region).ok() ? region.size() : 0;
  }

  core::StoreCampaignConfig config_;
  core::BlockStore store_;
};

}  // namespace

core::StoreCampaignConfig RepConfig(core::StoreCampaignConfig config,
                                    bool quarter, int workers,
                                    storage::Env& env) {
  if (quarter) config.n_blocks = std::max<std::size_t>(1, config.n_blocks / 4);
  config.workers = workers;
  config.env = &env;
  return config;
}

void SeedStoreLikeCampaign(core::BlockStore& store,
                           const core::StoreCampaignConfig& config) {
  store.Reset(config.n_blocks, config.availability, config.series_capacity);
  for (std::size_t i = 0; i < config.n_blocks; ++i) {
    const auto prefix = static_cast<std::uint32_t>(i);
    store.SeedBlock(i, prefix,
                    core::SyntheticInitialAvailability(config.seed, prefix));
    store.SetEverActive(i, core::SyntheticEverActive(config.seed, prefix));
  }
}

core::StoreCampaignOutcome TracedStoreCampaign(
    core::BlockStore& store, const core::StoreCampaignConfig& config,
    Trace& trace) {
  core::StoreCampaignOutcome outcome;
  storage::Env& env = *config.env;
  const std::uint64_t fingerprint = core::StoreCampaignFingerprint(config);
  std::int64_t rounds_done = 0;
  std::uint64_t checkpoints_written = 0;

  if (env.Exists(config.checkpoint_path)) {
    storage::MappedRegion region;
    bool mapped = false;
    trace.Serial(Stage::kCheckpointMap, [&] {
      mapped = env.Map(config.checkpoint_path, region).ok();
    });
    if (mapped) {
      trace.Serial(Stage::kCheckpointDecode, [&] {
        store.Reset(0, config.availability);
        std::uint64_t done = 0;
        std::uint64_t written = 0;
        if (store.DecodeSnapshot(region.bytes(), fingerprint, done, written,
                                 config.checkpoint_path)
                .ok() &&
            store.size() == config.n_blocks) {
          rounds_done = static_cast<std::int64_t>(done);
          checkpoints_written = written;
          outcome.resumed = true;
        }
      });
    }
  }
  if (!outcome.resumed) {
    trace.Serial(Stage::kStoreSeed,
                 [&] { SeedStoreLikeCampaign(store, config); });
  }

  const std::size_t n = store.size();
  const std::int64_t stride = config.checkpoint_every_rounds > 0
                                  ? config.checkpoint_every_rounds
                                  : config.n_rounds;
  const auto ranges = Ranges(n, config.workers);
  const auto prefixes = store.prefix_index();
  while (rounds_done < config.n_rounds) {
    const std::int64_t first = rounds_done;
    const std::int64_t last = std::min(config.n_rounds, first + stride);
    trace.Parallel(static_cast<int>(ranges.size()), [&](Worker& worker, int w) {
      const auto [begin, end] = ranges[static_cast<std::size_t>(w)];
      std::vector<core::RoundSample> samples(end - begin);
      const bool record_series = store.series_capacity() > 0;
      worker.Mark(Stage::kSimRound);
      for (std::int64_t round = first; round < last; ++round) {
        for (std::size_t i = begin; i < end; ++i) {
          samples[i - begin] =
              core::SyntheticRoundSample(config.seed, prefixes[i], round);
        }
        worker.Mark(Stage::kSimRound);
        store.ObserveRound(begin, end, samples);
        worker.Mark(Stage::kEstimatorObserve);
        if (record_series) {
          store.RecordSeriesRound(begin, end, round);
          worker.Mark(Stage::kSeriesAppend);
        }
      }
    });
    rounds_done = last;

    if (config.classify && rounds_done >= config.n_rounds) {
      outcome.analyze = TracedAnalyzeStore(store, config.analyzer,
                                           std::max(1, config.workers), trace);
    }
    ++checkpoints_written;
    std::vector<std::uint8_t> image;
    trace.Serial(Stage::kCheckpointEncode, [&] {
      image = store.EncodeSnapshot(fingerprint, rounds_done,
                                   checkpoints_written);
    });
    trace.Count("checkpoint.bytes", static_cast<double>(image.size()));
    storage::Error error;
    trace.Serial(Stage::kCheckpointWrite, [&] {
      error = storage::AtomicWrite(env, config.checkpoint_path, image);
    });
    if (!error.ok()) {
      --checkpoints_written;
      if (outcome.error.empty()) outcome.error = error.ToString();
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
  trace.Serial(Stage::kStoreDigest, [&] { outcome.digest = store.Digest(); });
  return outcome;
}

core::StoreAnalyzeStats TracedAnalyzeStore(
    core::BlockStore& store, const core::StoreAnalyzerConfig& config,
    int threads, Trace& trace) {
  const auto ranges = Ranges(store.size(), threads);
  std::vector<core::StoreAnalyzeStats> partial(ranges.size());
  trace.Parallel(static_cast<int>(ranges.size()), [&](Worker& worker, int w) {
    const auto [begin, end] = ranges[static_cast<std::size_t>(w)];
    core::AnalysisScratch scratch;
    worker.Mark(Stage::kAnalyzeCopy);
    partial[static_cast<std::size_t>(w)] =
        TracedAnalyzeRange(store, begin, end, config, scratch, worker);
  });
  core::StoreAnalyzeStats stats;
  for (const auto& p : partial) {
    stats.analyzed += p.analyzed;
    stats.classified += p.classified;
    stats.diurnal += p.diurnal;
    stats.screened_out += p.screened_out;
  }
  return stats;
}

Verdicts StoreVerdicts(const core::BlockStore& store) {
  Verdicts verdicts;
  const auto flags = store.flags();
  const auto classes = store.classification();
  for (std::size_t i = 0; i < store.size(); ++i) {
    if ((flags[i] & core::kBlockFlagProbed) == 0) {
      ++verdicts.skipped;
      continue;
    }
    switch (static_cast<core::Diurnality>(classes[i])) {
      case core::Diurnality::kStrictlyDiurnal: ++verdicts.strict; break;
      case core::Diurnality::kRelaxedDiurnal: ++verdicts.relaxed; break;
      case core::Diurnality::kNonDiurnal: ++verdicts.non_diurnal; break;
    }
  }
  return verdicts;
}

std::unique_ptr<Workload> MakeStoreCampaign(const Options& options) {
  return std::make_unique<StoreCampaign>(options);
}

}  // namespace sleepbench
