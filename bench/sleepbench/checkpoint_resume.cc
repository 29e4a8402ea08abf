// checkpoint_resume: the durability path. A store campaign with 400-slot
// rings snapshots every 128 of its 1024 rounds (8 snapshots) through an
// InstrumentedEnv over memory; a separately timed AnalyzeStore() then
// classifies the finished store. Each rep also kills a second run at
// round 512, resumes it at one worker and requires its final snapshot to
// be byte-identical to the clean run's, then restarts 20 times against
// the completed snapshot (map, decode, digest; no rounds left to run).
// Snapshot encode and write dominate and compute is light: the
// counterweight to store_campaign, where a change that speeds the kernels
// by fattening the columns would not show.
#include "sleepwalk/core/store_analyzer.h"
#include "sleepwalk/obs/metrics.h"
#include "sleepwalk/storage/instrumented_env.h"
#include "workloads.h"

namespace sleepbench {

namespace core = sleepwalk::core;
namespace obs = sleepwalk::obs;
namespace storage = sleepwalk::storage;

namespace {

constexpr const char* kSnapshotPath = "/checkpoint_resume.slck";
constexpr std::int64_t kKillRound = 512;
constexpr int kRestarts = 20;

/// An in-memory disk whose every operation is counted.
struct CountedDisk {
  storage::MemEnv mem;
  obs::Registry registry;
  storage::InstrumentedEnv env{mem, obs::Context{nullptr, &registry, nullptr}};

  double bytes_written() const {
    const auto* counter = registry.counter("storage_bytes_written_total");
    return counter != nullptr ? counter->value() : 0.0;
  }
  std::vector<std::uint8_t> Read() {
    std::vector<std::uint8_t> bytes;
    static_cast<void>(mem.ReadAll(kSnapshotPath, bytes));
    return bytes;
  }
};

class CheckpointResume final : public Workload {
 public:
  explicit CheckpointResume(const Options& options) {
    config_.n_blocks = options.smoke ? 800 : 8000;
    config_.n_rounds = 1024;
    config_.seed = options.seed;
    config_.series_capacity = 400;
    config_.checkpoint_path = kSnapshotPath;
    config_.checkpoint_every_rounds = 128;
  }

  std::string SizesJson() const override {
    return JsonObject{}
        .Add("blocks", static_cast<std::uint64_t>(config_.n_blocks))
        .Add("rounds", static_cast<std::uint64_t>(config_.n_rounds))
        .Add("series_capacity", config_.series_capacity)
        .Add("checkpoint_every_rounds",
             static_cast<std::uint64_t>(config_.checkpoint_every_rounds))
        .Add("kill_round", static_cast<std::uint64_t>(kKillRound))
        .Add("restarts", kRestarts)
        .str();
  }

  // Set-up times the store seeding RunStoreCampaign starts with; its store
  // is only checked for determinism and is released before each rep, so
  // it does not weigh on the rep's peak RSS. Each rep runs on a fresh
  // store of its own: re-seeding a live store allocates the new arena
  // before freeing the old one, and consecutive reps would alternate
  // between two memory placements and two speeds.
  void Setup(Worker* worker) override {
    store_ = core::BlockStore{};
    SeedStoreLikeCampaign(store_, config_);
    if (worker != nullptr) worker->Mark(Stage::kStoreSeed);
  }

  std::uint64_t SetupDigest() const override { return store_.Digest(); }

  RepOutcome Run(bool quarter, int workers) override {
    store_ = core::BlockStore{};
    core::BlockStore store;
    CountedDisk clean_disk;
    CountedDisk killed_disk;
    const auto config = RepConfig(config_, quarter, workers, clean_disk.env);
    RepOutcome rep;

    const auto t0 = Clock::now();
    const auto clean = core::RunStoreCampaign(store, config);
    const auto t1 = Clock::now();
    core::AnalyzeStore(store, config.analyzer, workers);
    const auto t2 = Clock::now();
    core::StoreCampaignOutcome killed;
    core::StoreCampaignOutcome resumed;
    {
      core::BlockStore killed_store;
      killed = core::RunStoreCampaign(killed_store, KillConfig(config, killed_disk));
      resumed =
          core::RunStoreCampaign(killed_store, ResumeConfig(config, killed_disk));
    }
    std::vector<double> restart_s;
    std::uint64_t restarted_digest = 0;
    for (int k = 0; k < kRestarts; ++k) {
      core::BlockStore restarted;
      const auto begin = Clock::now();
      const auto restart = core::RunStoreCampaign(restarted, config);
      restart_s.push_back(Seconds(begin, Clock::now()));
      rep.Check(restart.resumed && restart.rounds_done == config.n_rounds &&
                    restart.checkpoints_written == clean.checkpoints_written,
                "restart did not resume the completed snapshot");
      restarted_digest = restart.digest;
    }
    rep.rep_wall_s = Seconds(t0, Clock::now());

    rep.work_s = Seconds(t0, t1);
    rep.classify_s = Seconds(t1, t2);
    rep.resume_s = Median(restart_s);
    Account(config, rep);
    rep.Check(clean.error.empty() && killed.error.empty() &&
                  resumed.error.empty(),
              "snapshot write failed");
    rep.Check(clean.checkpoints_written == 8, "expected 8 snapshots");
    rep.Check(killed.stopped_early && killed.rounds_done == kKillRound,
              "kill did not stop at round 512");
    rep.Check(resumed.resumed && resumed.rounds_done == config.n_rounds,
              "killed run did not resume to completion");
    const auto clean_bytes = clean_disk.Read();
    rep.Check(!clean_bytes.empty() && clean_bytes == killed_disk.Read(),
              "resumed final snapshot differs from the clean run's");
    rep.Check(restarted_digest == clean.digest && resumed.digest == clean.digest,
              "restarted store digest differs");
    rep.verdicts = StoreVerdicts(store);
    rep.artifact_bytes = clean_bytes.size();
    rep.digest = sleepwalk::MixHash(clean.digest, store.Digest());
    return rep;
  }

  RepOutcome RunTraced(Trace& trace) override {
    store_ = core::BlockStore{};
    core::BlockStore store;
    CountedDisk clean_disk;
    CountedDisk killed_disk;
    const int workers = trace.workers();
    const auto config = RepConfig(config_, false, workers, clean_disk.env);
    RepOutcome rep;

    trace.Start();
    const auto t0 = Clock::now();
    const auto clean = TracedStoreCampaign(store, config, trace);
    trace.Mark("campaign");
    const auto t1 = Clock::now();
    TracedAnalyzeStore(store, config.analyzer, workers, trace);
    const auto t2 = Clock::now();
    {
      core::BlockStore killed_store;
      TracedStoreCampaign(killed_store, KillConfig(config, killed_disk), trace);
      TracedStoreCampaign(killed_store, ResumeConfig(config, killed_disk), trace);
    }
    std::uint64_t restarted_digest = 0;
    for (int k = 0; k < kRestarts; ++k) {
      core::BlockStore restarted;
      restarted_digest = TracedStoreCampaign(restarted, config, trace).digest;
    }
    trace.Stop();

    rep.rep_wall_s = trace.wall_s();
    rep.work_s = Seconds(t0, t1);
    rep.classify_s = Seconds(t1, t2);
    Account(config, rep);
    const auto clean_bytes = clean_disk.Read();
    rep.Check(!clean_bytes.empty() && clean_bytes == killed_disk.Read(),
              "traced resumed final snapshot differs from the clean run's");
    rep.Check(restarted_digest == clean.digest, "restarted digest differs");
    rep.verdicts = StoreVerdicts(store);
    rep.artifact_bytes = clean_bytes.size();
    rep.digest = sleepwalk::MixHash(clean.digest, store.Digest());
    trace.Count("storage.bytes_written",
                clean_disk.bytes_written() + killed_disk.bytes_written());
    return rep;
  }

  std::vector<Gate> ShapeGates(const Trace& trace) const override {
    // The claim is about what block_rounds_per_s times: the clean
    // campaign, where snapshots are written while every worker waits.
    return {{"checkpoint.encode_write.campaign_wall_share",
             trace.WallShareBetween(
                 {Stage::kCheckpointEncode, Stage::kCheckpointWrite}, "start",
                 "campaign"),
             0.5, 1.0}};
  }

 private:
  static core::StoreCampaignConfig KillConfig(core::StoreCampaignConfig config,
                                              CountedDisk& disk) {
    config.env = &disk.env;
    config.stop_after_rounds = kKillRound;
    return config;
  }
  static core::StoreCampaignConfig ResumeConfig(
      core::StoreCampaignConfig config, CountedDisk& disk) {
    config.env = &disk.env;
    config.workers = 1;
    return config;
  }
  static void Account(const core::StoreCampaignConfig& config,
                      RepOutcome& rep) {
    rep.blocks = config.n_blocks;
    rep.classify_blocks = static_cast<double>(config.n_blocks);
    rep.block_rounds = static_cast<double>(config.n_blocks) *
                       static_cast<double>(config.n_rounds);
  }

  core::StoreCampaignConfig config_;
  core::BlockStore store_;
};

}  // namespace

std::unique_ptr<Workload> MakeCheckpointResume(const Options& options) {
  return std::make_unique<CheckpointResume>(options);
}

}  // namespace sleepbench
