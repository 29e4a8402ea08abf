// reanalyze: the analyst's read path. Set-up generates a world, runs a
// 14-day campaign over it and writes the SLPW v3 dataset into memory.
// Each rep then maps the dataset and re-classifies every block with
// ReanalyzeDatasetColumnar, eight times over. Only the storage map and
// ts/fft/analysis run, so campaign-side changes must not move it; it
// reads through the storage layer where checkpoint_resume writes.
#include <atomic>
#include <numeric>

#include "sleepwalk/core/campaign_ledger.h"
#include "sleepwalk/core/dataset_columnar.h"
#include "sleepwalk/core/pipeline.h"
#include "sleepwalk/probing/scheduler.h"
#include "sleepwalk/storage/file.h"
#include "sleepwalk/ts/clean.h"
#include "sleepwalk/ts/stationarity.h"
#include "workloads.h"

namespace sleepbench {

namespace core = sleepwalk::core;
namespace net = sleepwalk::net;
namespace sim = sleepwalk::sim;
namespace storage = sleepwalk::storage;
namespace ts = sleepwalk::ts;

namespace {

constexpr int kDays = 14;
constexpr int kSweeps = 8;
constexpr const char* kDatasetPath = "/reanalyze.slpw";

/// The first `blocks` blocks of a view (offsets stay valid: they index
/// the shared values column).
core::ColumnarDatasetView Head(const core::ColumnarDatasetView& view,
                               std::size_t blocks) {
  auto head = view;
  head.prefix = view.prefix.first(blocks);
  head.ever_active = view.ever_active.first(blocks);
  head.probed = view.probed.first(blocks);
  head.first_round = view.first_round.first(blocks);
  head.count = view.count.first(blocks);
  head.offset = view.offset.first(blocks);
  return head;
}

class Reanalyze final : public Workload {
 public:
  explicit Reanalyze(const Options& options)
      : options_(options), requested_blocks_(options.smoke ? 120 : 2000) {}

  std::string SizesJson() const override {
    return JsonObject{}
        .Add("blocks_requested", requested_blocks_)
        .Add("blocks", static_cast<std::uint64_t>(world_.blocks().size()))
        .Add("source_days", kDays)
        .Add("sweeps", kSweeps)
        .str();
  }

  void Setup(Worker* worker) override {
    sim::WorldConfig world_config;
    world_config.total_blocks = requested_blocks_;
    world_config.seed = options_.seed;
    world_ = sim::SimWorld::Generate(world_config);
    if (worker != nullptr) worker->Mark(Stage::kSimGenerate);

    const auto config = CampaignConfig();
    core::ParallelConfig parallel;
    parallel.workers = options_.workers;
    const auto outcome = core::RunParallelCampaign(
        CampaignTargets(world_), CampaignChains(world_),
        sleepwalk::probing::RoundScheduler{config.analyzer.schedule}
            .RoundsForDays(kDays),
        config, parallel);
    env_ = std::make_unique<storage::MemEnv>();
    const auto error = core::WriteDatasetColumnar(
        *env_, kDatasetPath, outcome.result.analyses,
        config.analyzer.schedule.round_seconds,
        config.analyzer.schedule.epoch_sec);
    setup_error_ = error.ok() ? "" : error.ToString();
  }

  std::uint64_t SetupDigest() const override {
    storage::MappedRegion region;
    if (!env_->Map(kDatasetPath, region).ok()) return 0;
    return HashBytes(region.bytes());
  }

  RepOutcome Run(bool quarter, int workers) override {
    RepOutcome rep;
    rep.Check(setup_error_.empty(), "dataset write: " + setup_error_);
    storage::MappedRegion region;
    std::vector<Verdicts> sweeps;
    std::size_t blocks = 0;
    double samples = 0.0;

    const auto t0 = Clock::now();
    for (int sweep = 0; sweep < kSweeps; ++sweep) {
      core::ColumnarDatasetView view;
      const auto error = core::MapDatasetColumnar(*env_, kDatasetPath, region, view);
      rep.Check(error.ok(), "dataset map: " + error.ToString());
      const auto head = Head(view, Blocks(view, quarter));
      sweeps.push_back(VerdictsOf(
          core::ReanalyzeDatasetColumnar(head, analyzer_, workers)));
      blocks = head.size();
      samples = std::accumulate(head.count.begin(), head.count.end(), 0.0);
    }
    const auto t1 = Clock::now();
    std::vector<double> reopen_s;
    for (int k = 0; k < kReopens; ++k) {
      const auto begin = Clock::now();
      core::ColumnarDatasetView view;
      rep.Check(core::MapDatasetColumnar(*env_, kDatasetPath, region, view).ok(),
                "dataset reopen");
      reopen_s.push_back(Seconds(begin, Clock::now()));
    }
    rep.rep_wall_s = Seconds(t0, Clock::now());

    rep.work_s = rep.classify_s = Seconds(t0, t1);
    rep.resume_s = Median(reopen_s);
    rep.blocks = blocks * kSweeps;
    rep.classify_blocks = static_cast<double>(blocks * kSweeps);
    rep.block_rounds = samples * kSweeps;
    for (const auto& v : sweeps) {
      rep.Check(v == sweeps.front(), "sweeps disagree");
    }
    rep.verdicts = sweeps.front();
    rep.artifact_bytes = region.size();
    rep.digest = WithVerdicts(HashBytes(region.bytes()), rep.verdicts);
    return rep;
  }

  RepOutcome RunTraced(Trace& trace) override {
    RepOutcome rep;
    storage::MappedRegion region;
    std::vector<Verdicts> sweeps;
    const int workers = trace.workers();

    trace.Start();
    const auto t0 = Clock::now();
    for (int sweep = 0; sweep < kSweeps; ++sweep) {
      core::ColumnarDatasetView view;
      trace.Serial(Stage::kDatasetMap, [&] {
        rep.Check(core::MapDatasetColumnar(*env_, kDatasetPath, region, view)
                      .ok(),
                  "dataset map");
      });
      sweeps.push_back(TracedSweep(view, workers, trace));
      rep.blocks += view.size();
    }
    rep.work_s = rep.classify_s = Seconds(t0, Clock::now());
    for (int k = 0; k < kReopens; ++k) {
      trace.Serial(Stage::kDatasetMap, [&] {
        core::ColumnarDatasetView view;
        rep.Check(core::MapDatasetColumnar(*env_, kDatasetPath, region, view)
                      .ok(),
                  "dataset reopen");
      });
    }
    trace.Stop();

    rep.rep_wall_s = trace.wall_s();
    for (const auto& v : sweeps) {
      rep.Check(v == sweeps.front(), "traced sweeps disagree");
    }
    rep.verdicts = sweeps.front();
    rep.artifact_bytes = region.size();
    rep.digest = WithVerdicts(HashBytes(region.bytes()), rep.verdicts);
    return rep;
  }

  std::optional<Truth> ScoreTruth() override {
    storage::MappedRegion region;
    core::ColumnarDatasetView view;
    if (!core::MapDatasetColumnar(*env_, kDatasetPath, region, view).ok()) {
      return std::nullopt;
    }
    Truth truth;
    core::AnalysisScratch scratch;
    core::BlockAnalysis analysis;
    for (std::size_t i = 0; i < view.size(); ++i) {
      core::ReanalyzeColumnar(view, i, analyzer_, scratch, analysis);
      core::DiurnalCounts counts;
      core::ClassifyAnalysis(analysis, /*quarantined=*/false, counts);
      const auto* block = world_.Find(net::Prefix24::FromIndex(view.prefix[i]));
      if (counts.skipped > 0 || block == nullptr) continue;
      Score(block->truly_diurnal, analysis.diurnal.IsDiurnal(), truth);
    }
    return truth;
  }

  std::vector<Gate> ShapeGates(const Trace& trace) const override {
    return {{"reanalyze.analyze.busy_share",
             trace.BusyShare({Stage::kAnalyzeCopy, Stage::kAnalyzeRegularize,
                              Stage::kAnalyzeTrim, Stage::kAnalyzeStationarity,
                              Stage::kAnalyzeFft}),
             0.9, 1.0}};
  }

 private:
  static std::size_t Blocks(const core::ColumnarDatasetView& view,
                            bool quarter) {
    return quarter ? std::max<std::size_t>(1, view.size() / 4) : view.size();
  }

  /// ReanalyzeDatasetColumnar() re-composed: ReanalyzeColumnar's widening
  /// and ReanalyzeSeries' stage chain, one lap per stage per block.
  Verdicts TracedSweep(const core::ColumnarDatasetView& view, int workers,
                       Trace& trace) const {
    const std::size_t n = view.size();
    std::atomic<std::size_t> next{0};
    std::vector<core::DiurnalCounts> partial(static_cast<std::size_t>(workers));
    trace.Parallel(workers, [&](Worker& worker, int w) {
      core::AnalysisScratch scratch;
      core::BlockAnalysis out;
      auto& counts = partial[static_cast<std::size_t>(w)];
      worker.Mark(Stage::kAnalyzeCopy);
      for (std::size_t i = next++; i < n; i = next++) {
        const auto series = view.SeriesOf(i);
        scratch.samples.resize(series.size());
        for (std::size_t k = 0; k < series.size(); ++k) {
          scratch.samples[k] = static_cast<double>(series[k]);
        }
        const std::span<const double> values = scratch.samples;
        out.block = net::Prefix24::FromIndex(view.prefix[i]);
        out.ever_active = view.ever_active[i];
        out.probed = view.probed[i] != 0;
        out.short_series.first_round = view.first_round[i];
        out.short_series.values.assign(values.begin(), values.end());
        out.observed_days = 0;
        out.diurnal = core::DiurnalResult{};
        worker.Mark(Stage::kAnalyzeCopy);
        if (out.probed && !values.empty()) {
          out.observed_days = ts::WholeDays(
              values.size(), analyzer_.schedule.round_seconds);
          out.mean_short = std::accumulate(values.begin(), values.end(), 0.0) /
                           static_cast<double>(values.size());
          out.stationarity = ts::TestStationarity(
              values, out.ever_active, analyzer_.max_trend_addresses_per_day,
              analyzer_.schedule.round_seconds, scratch.index);
          worker.Mark(Stage::kAnalyzeStationarity);
          out.diurnal = core::ClassifyDiurnal(values, out.observed_days,
                                              analyzer_.diurnal, nullptr,
                                              scratch);
        }
        core::ClassifyAnalysis(out, /*quarantined=*/false, counts);
        worker.Mark(Stage::kAnalyzeFft);
      }
    });
    core::DiurnalCounts counts;
    for (const auto& p : partial) {
      counts.strict += p.strict;
      counts.relaxed += p.relaxed;
      counts.non_diurnal += p.non_diurnal;
      counts.skipped += p.skipped;
    }
    return VerdictsOf(counts);
  }

  Options options_;
  int requested_blocks_;
  core::AnalyzerConfig analyzer_ = CampaignConfig().analyzer;
  sim::SimWorld world_;
  std::unique_ptr<storage::MemEnv> env_;
  std::string setup_error_;
};

}  // namespace

std::unique_ptr<Workload> MakeReanalyze(const Options& options) {
  return std::make_unique<Reanalyze>(options);
}

}  // namespace sleepbench
