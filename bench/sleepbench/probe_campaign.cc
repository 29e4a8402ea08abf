// probe_campaign: the real measurement pipeline. A simulated world is
// probed for 7 days (917 rounds) by the parallel executor through the
// simnet -> prober -> transport -> BlockAnalyzer chain, and the verdicts
// and series are written as an SLPW v3 dataset into memory. This is what
// `sleepwalk_cli measure --dataset-format v3` does. It is the only
// workload where sim, transport, probing and the executor do most of the
// work; store kernels, the classify sweep and checkpoints sit idle.
#include <algorithm>
#include <atomic>
#include <cstring>

#include "sleepwalk/core/block_analyzer.h"
#include "sleepwalk/core/campaign_ledger.h"
#include "sleepwalk/core/dataset_columnar.h"
#include "sleepwalk/net/instrumented_transport.h"
#include "sleepwalk/probing/scheduler.h"
#include "sleepwalk/sim/block.h"
#include "sleepwalk/storage/file.h"
#include "sleepwalk/util/rng.h"
#include "workloads.h"

namespace sleepbench {

namespace core = sleepwalk::core;
namespace net = sleepwalk::net;
namespace sim = sleepwalk::sim;
namespace storage = sleepwalk::storage;

namespace {

constexpr std::uint64_t kSite = 1;
constexpr int kDays = 7;
constexpr const char* kDatasetPath = "/probe_campaign.slpw";

/// One worker's chain, as the CLI builds it for a fault-free campaign.
class ProbeChain final : public core::ShardChain {
 public:
  explicit ProbeChain(const sim::SimWorld& world)
      : transport_{world.MakeTransport(CampaignSiteSeed())},
        instrumented_{*transport_, sleepwalk::obs::Context{}} {}

  net::Transport& transport() override { return instrumented_; }
  void AttachObs(const sleepwalk::obs::Context& context) override {
    instrumented_.AttachObs(context);
  }
  sleepwalk::report::ProbeAccounting accounting() const override {
    return instrumented_.accounting();
  }

 private:
  std::unique_ptr<sim::SimTransport> transport_;
  net::InstrumentedTransport instrumented_;
};

/// The traced chain's outermost link: times every Probe() call.
class TimedTransport final : public net::Transport {
 public:
  explicit TimedTransport(net::Transport& inner) : inner_(inner) {}

  net::ProbeStatus Probe(net::Ipv4Addr target, std::int64_t when_sec) override {
    const auto begin = Clock::now();
    const auto status = inner_.Probe(target, when_sec);
    seconds += Seconds(begin, Clock::now());
    ++calls;
    return status;
  }

  double seconds = 0.0;
  std::uint64_t calls = 0;

 private:
  net::Transport& inner_;
};

class ProbeCampaign final : public Workload {
 public:
  explicit ProbeCampaign(const Options& options)
      : options_(options),
        requested_blocks_(options.smoke ? 120 : 12000),
        rounds_(sleepwalk::probing::RoundScheduler{config_.analyzer.schedule}
                    .RoundsForDays(kDays)) {}

  std::string SizesJson() const override {
    return JsonObject{}
        .Add("blocks_requested", requested_blocks_)
        .Add("blocks", static_cast<std::uint64_t>(targets_.size()))
        .Add("days", kDays)
        .Add("rounds", static_cast<std::uint64_t>(rounds_))
        .Add("site", kSite)
        .str();
  }

  void Setup(Worker* worker) override {
    sim::WorldConfig world_config;
    world_config.total_blocks = requested_blocks_;
    world_config.seed = options_.seed;
    world_ = sim::SimWorld::Generate(world_config);
    targets_ = CampaignTargets(world_);
    if (worker != nullptr) worker->Mark(Stage::kSimGenerate);
  }

  std::uint64_t SetupDigest() const override {
    std::uint64_t digest = targets_.size();
    for (std::size_t i = 0; i < targets_.size(); ++i) {
      std::uint64_t prior = 0;
      std::memcpy(&prior, &targets_[i].initial_availability, sizeof prior);
      digest = sleepwalk::MixHash(digest, targets_[i].block.Index(),
                                  prior ^ targets_[i].ever_active.size());
      digest = sleepwalk::MixHash(digest, world_.blocks()[i].truly_diurnal);
    }
    return digest;
  }

  RepOutcome Run(bool quarter, int workers) override {
    const std::size_t n = Blocks(quarter);
    std::vector<core::BlockTarget> targets(targets_.begin(),
                                           targets_.begin() + n);
    storage::MemEnv env;
    const auto factory = CampaignChains(world_);
    core::ParallelConfig parallel;
    parallel.workers = workers;
    RepOutcome rep;

    const auto t0 = Clock::now();
    const auto outcome = core::RunParallelCampaign(
        std::move(targets), factory, rounds_, config_, parallel);
    const auto write_error = core::WriteDatasetColumnar(
        env, kDatasetPath, outcome.result.analyses, RoundSeconds(),
        config_.analyzer.schedule.epoch_sec);
    const auto t1 = Clock::now();
    storage::MappedRegion region;
    std::vector<double> reopen_s;
    for (int k = 0; k < kReopens; ++k) {
      const auto begin = Clock::now();
      core::ColumnarDatasetView view;
      const auto error = core::MapDatasetColumnar(env, kDatasetPath, region, view);
      reopen_s.push_back(Seconds(begin, Clock::now()));
      rep.Check(error.ok() && view.size() == n, "dataset reopen");
    }
    rep.rep_wall_s = Seconds(t0, Clock::now());

    rep.work_s = rep.classify_s = Seconds(t0, t1);
    rep.resume_s = Median(reopen_s);
    rep.Check(write_error.ok(), "dataset write: " + write_error.ToString());
    rep.Check(!outcome.stopped_early && outcome.result.analyses.size() == n,
              "campaign incomplete");
    Account(outcome.result.analyses, rep);
    rep.verdicts = VerdictsOf(outcome.result.counts);
    rep.quarantined = outcome.quarantined.size();
    rep.artifact_bytes = region.size();
    rep.digest = WithVerdicts(HashBytes(region.bytes()), rep.verdicts);
    if (!quarter) truth_ = ScoreAnalyses(outcome.result.analyses, outcome.quarantined);
    return rep;
  }

  RepOutcome RunTraced(Trace& trace) override {
    std::vector<core::BlockTarget> targets = targets_;
    std::vector<core::BlockAnalysis> analyses;
    storage::MemEnv env;
    RepOutcome rep;

    trace.Start();
    const auto t0 = Clock::now();
    const std::uint64_t probes =
        ProbeAll(std::move(targets), analyses, /*timed=*/true, trace);
    storage::Error write_error;
    trace.Serial(Stage::kDatasetWrite, [&] {
      write_error = core::WriteDatasetColumnar(
          env, kDatasetPath, analyses, RoundSeconds(),
          config_.analyzer.schedule.epoch_sec);
    });
    rep.work_s = rep.classify_s = Seconds(t0, Clock::now());
    storage::MappedRegion region;
    for (int k = 0; k < kReopens; ++k) {
      trace.Serial(Stage::kDatasetMap, [&] {
        core::ColumnarDatasetView view;
        rep.Check(core::MapDatasetColumnar(env, kDatasetPath, region, view)
                      .ok(),
                  "dataset reopen");
      });
    }
    trace.Stop();

    rep.rep_wall_s = trace.wall_s();
    rep.Check(write_error.ok(), "dataset write: " + write_error.ToString());
    core::DiurnalCounts counts;
    for (const auto& analysis : analyses) {
      core::ClassifyAnalysis(analysis, /*quarantined=*/false, counts);
    }
    Account(analyses, rep);
    rep.verdicts = VerdictsOf(counts);
    rep.artifact_bytes = region.size();
    rep.digest = WithVerdicts(HashBytes(region.bytes()), rep.verdicts);
    trace.Count("transport.calls", static_cast<double>(probes));
    trace.Count("dataset.bytes", static_cast<double>(region.size()));
    trace.Count("block_rounds", rep.block_rounds);
    return rep;
  }

  std::optional<Truth> ScoreTruth() override { return truth_; }

  std::vector<Gate> ShapeGates(const Trace& trace) const override {
    return {{"probe.transport_and_round.busy_share",
             trace.BusyShare({Stage::kTransport, Stage::kProbeRound}), 0.5,
             1.0}};
  }

  // The executor and the bare loop alternate over all blocks; each pair
  // gives one ratio and the median is reported.
  double ExecutorOverheadFrac(int workers) override {
    std::vector<double> fracs;
    for (int k = 0; k < kOverheadPairs; ++k) {
      std::vector<core::BlockTarget> targets = targets_;
      core::ParallelConfig parallel;
      parallel.workers = workers;
      const auto t0 = Clock::now();
      const auto outcome = core::RunParallelCampaign(
          std::move(targets), CampaignChains(world_), rounds_, config_,
          parallel);
      const double executor_s = Seconds(t0, Clock::now());

      targets = targets_;
      std::vector<core::BlockAnalysis> analyses;
      Trace bare(workers);
      const auto t1 = Clock::now();
      ProbeAll(std::move(targets), analyses, /*timed=*/false, bare);
      fracs.push_back(1.0 - Seconds(t1, Clock::now()) / executor_s);
    }
    return Median(fracs);
  }

 private:
  static constexpr int kOverheadPairs = 3;

  /// RunParallelCampaign's per-block work without its ledger, ordered
  /// commit or obs buffers: each worker pulls the next block, runs all
  /// its rounds through a chain of its own and finishes it into
  /// `analyses`. With `timed`, every Probe() call is timed as well.
  /// Returns the probes sent (counted only when timed).
  std::uint64_t ProbeAll(std::vector<core::BlockTarget> targets,
                         std::vector<core::BlockAnalysis>& analyses,
                         bool timed, Trace& trace) const {
    const std::size_t n = targets.size();
    analyses.assign(n, {});
    std::atomic<std::size_t> next{0};
    std::atomic<std::uint64_t> probes{0};
    trace.Parallel(trace.workers(), [&](Worker& worker, int) {
      ProbeChain chain{world_};
      TimedTransport timed_transport{chain.transport()};
      net::Transport& transport =
          timed ? timed_transport : chain.transport();
      core::AnalysisScratch scratch;
      worker.Mark(Stage::kTransport);
      for (std::size_t i = next++; i < n; i = next++) {
        auto& target = targets[i];
        core::BlockAnalyzer analyzer{
            target.block, std::move(target.ever_active),
            target.initial_availability,
            sleepwalk::StreamSeed(config_.seed, target.block.Index()),
            config_.analyzer};
        for (std::int64_t round = 0; round < rounds_; ++round) {
          analyzer.RunRound(transport, round);
        }
        worker.Mark(Stage::kProbeRound);
        analyzer.Finish(scratch, analyses[i]);
        worker.Mark(Stage::kAnalyzeFinish);
      }
      worker.Rebook(Stage::kProbeRound, Stage::kTransport,
                    timed_transport.seconds);
      probes += timed_transport.calls;
    });
    return probes;
  }

  std::size_t Blocks(bool quarter) const {
    return quarter ? std::max<std::size_t>(1, targets_.size() / 4)
                   : targets_.size();
  }
  std::int64_t RoundSeconds() const {
    return config_.analyzer.schedule.round_seconds;
  }

  void Account(const std::vector<core::BlockAnalysis>& analyses,
               RepOutcome& rep) const {
    std::uint64_t probed = 0;
    for (const auto& analysis : analyses) probed += analysis.probed ? 1 : 0;
    rep.blocks = analyses.size();
    rep.classify_blocks = static_cast<double>(analyses.size());
    rep.block_rounds = static_cast<double>(probed) * static_cast<double>(rounds_);
  }

  Truth ScoreAnalyses(const std::vector<core::BlockAnalysis>& analyses,
                      const std::vector<net::Prefix24>& quarantined) const {
    Truth truth;
    for (std::size_t i = 0; i < analyses.size(); ++i) {
      core::DiurnalCounts counts;
      const bool dropped =
          std::find(quarantined.begin(), quarantined.end(),
                    analyses[i].block) != quarantined.end();
      core::ClassifyAnalysis(analyses[i], dropped, counts);
      if (counts.skipped > 0) continue;
      Score(world_.blocks()[i].truly_diurnal, analyses[i].diurnal.IsDiurnal(),
            truth);
    }
    return truth;
  }

  Options options_;
  core::SupervisorConfig config_ = CampaignConfig();
  int requested_blocks_;
  std::int64_t rounds_;
  sim::SimWorld world_;
  std::vector<core::BlockTarget> targets_;
  std::optional<Truth> truth_;
};

}  // namespace

std::vector<core::BlockTarget> CampaignTargets(const sim::SimWorld& world) {
  std::vector<core::BlockTarget> targets;
  targets.reserve(world.blocks().size());
  for (const auto& block : world.blocks()) {
    targets.push_back({block.spec.block, sim::EverActiveOctets(block.spec),
                       sim::TrueAvailability(block.spec, 13 * 3600)});
  }
  return targets;
}

core::SupervisorConfig CampaignConfig() {
  core::SupervisorConfig config;
  config.seed = kSite;
  return config;
}

core::ShardFactory CampaignChains(const sim::SimWorld& world) {
  return [&world](std::size_t) { return std::make_unique<ProbeChain>(world); };
}

std::uint64_t CampaignSiteSeed() { return kSite * 0x9e3779b9ULL + 1; }

Verdicts VerdictsOf(const core::DiurnalCounts& counts) {
  return {static_cast<std::uint64_t>(counts.strict),
          static_cast<std::uint64_t>(counts.relaxed),
          static_cast<std::uint64_t>(counts.non_diurnal),
          static_cast<std::uint64_t>(counts.skipped)};
}

std::uint64_t WithVerdicts(std::uint64_t digest, const Verdicts& verdicts) {
  digest = sleepwalk::MixHash(digest, verdicts.strict, verdicts.relaxed);
  return sleepwalk::MixHash(digest, verdicts.non_diurnal, verdicts.skipped);
}

void Score(bool truly_diurnal, bool classified_diurnal, Truth& truth) {
  if (classified_diurnal && truly_diurnal) ++truth.true_positive;
  if (classified_diurnal && !truly_diurnal) ++truth.false_positive;
  if (!classified_diurnal && truly_diurnal) ++truth.false_negative;
}

double Truth::precision() const {
  const auto flagged = true_positive + false_positive;
  return flagged > 0 ? static_cast<double>(true_positive) /
                           static_cast<double>(flagged)
                     : 0.0;
}

double Truth::recall() const {
  const auto actual = true_positive + false_negative;
  return actual > 0 ? static_cast<double>(true_positive) /
                          static_cast<double>(actual)
                    : 0.0;
}

std::unique_ptr<Workload> MakeProbeCampaign(const Options& options) {
  return std::make_unique<ProbeCampaign>(options);
}

}  // namespace sleepbench
