// Determinism contract of the parallel sharded executor: an N-worker run
// must be byte-identical to a single-worker run — datasets, checkpoints,
// resilience stats, and buffered telemetry — because workers only compute
// per-block results and the coordinator commits them in block order.
// DESIGN.md §9 states the argument; these tests enforce it.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sleepwalk/core/dataset_columnar.h"
#include "sleepwalk/core/parallel_executor.h"
#include "sleepwalk/core/supervisor.h"
#include "sleepwalk/faults/faulty_transport.h"
#include "sleepwalk/obs/context.h"
#include "sleepwalk/obs/log.h"
#include "sleepwalk/obs/metrics.h"
#include "sleepwalk/obs/trace.h"
#include "sleepwalk/sim/world.h"

namespace sleepwalk {
namespace {

sim::SimWorld TestWorld(int blocks = 40) {
  sim::WorldConfig config;
  config.total_blocks = blocks;
  config.seed = 0x9a11e1;
  return sim::SimWorld::Generate(config);
}

std::vector<core::BlockTarget> TargetsOf(const sim::SimWorld& world) {
  std::vector<core::BlockTarget> targets;
  for (const auto& block : world.blocks()) {
    targets.push_back({block.spec.block, sim::EverActiveOctets(block.spec),
                       sim::TrueAvailability(block.spec, 13 * 3600)});
  }
  return targets;
}

faults::FaultPlan TestFaults(const sim::SimWorld& world) {
  faults::FaultPlan plan;
  plan.iid_loss = 0.05;
  plan.burst.enabled = true;
  plan.dead_blocks = {world.blocks()[3].spec.block.Index()};
  return plan;
}

core::SupervisorConfig TestConfig() {
  core::SupervisorConfig config;
  config.seed = 11;
  config.forced_restart_rounds = {40, 130};
  config.gap_round_windows = {{60, 70}};
  return config;
}

/// Worker chain mirroring the CLI's: every worker gets an identically
/// seeded simulated transport behind the same fault plan, so chains are
/// interchangeable and results independent of block-to-worker placement.
class SimShardChain final : public core::ShardChain {
 public:
  SimShardChain(const sim::SimWorld& world, std::uint64_t site_seed,
                const faults::FaultPlan& plan)
      : transport_{world.MakeTransport(site_seed)},
        faulty_{*transport_, plan} {}

  net::Transport& transport() override { return faulty_; }
  void AttachObs(const obs::Context& context) override {
    faulty_.AttachObs(context);
  }
  report::ProbeAccounting accounting() const override {
    return faulty_.accounting();
  }

 private:
  std::unique_ptr<sim::SimTransport> transport_;
  faults::FaultyTransport faulty_;
};

core::ShardFactory FactoryFor(const sim::SimWorld& world,
                              const faults::FaultPlan& plan,
                              std::uint64_t site_seed = 9) {
  return [&world, plan, site_seed](std::size_t) {
    return std::make_unique<SimShardChain>(world, site_seed, plan);
  };
}

std::string FileBytes(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<std::uint8_t> DatasetBytes(
    const core::CampaignOutcome& outcome,
    const core::SupervisorConfig& config) {
  return core::EncodeDatasetColumnar(outcome.result.analyses,
                                     config.analyzer.schedule.round_seconds,
                                     config.analyzer.schedule.epoch_sec);
}

void ExpectStatsEqual(const report::ResilienceStats& a,
                      const report::ResilienceStats& b,
                      bool include_checkpoint_fields = true) {
  EXPECT_EQ(a.probes.attempts, b.probes.attempts);
  EXPECT_EQ(a.probes.errors, b.probes.errors);
  EXPECT_EQ(a.probes.answered, b.probes.answered);
  EXPECT_EQ(a.probes.lost, b.probes.lost);
  EXPECT_EQ(a.probes.rate_limited, b.probes.rate_limited);
  EXPECT_EQ(a.probes.unreachable, b.probes.unreachable);
  EXPECT_EQ(a.rounds_attempted, b.rounds_attempted);
  EXPECT_EQ(a.rounds_failed, b.rounds_failed);
  EXPECT_EQ(a.rounds_gapped, b.rounds_gapped);
  EXPECT_EQ(a.retries, b.retries);
  // Bitwise, not approximate: commit-ordered folding makes even the
  // floating-point backoff sum order-independent of worker count.
  EXPECT_EQ(a.backoff_seconds, b.backoff_seconds);
  EXPECT_EQ(a.forced_restarts, b.forced_restarts);
  EXPECT_EQ(a.quarantined_blocks, b.quarantined_blocks);
  if (include_checkpoint_fields) {
    EXPECT_EQ(a.checkpoints_written, b.checkpoints_written);
  }
}

TEST(ParallelExecutor, HardwareWorkersIsPositive) {
  EXPECT_GE(core::HardwareWorkers(), 1);
}

TEST(ParallelExecutor, WorkersOneVsEightByteIdentical) {
  const auto world = TestWorld();
  const auto plan = TestFaults(world);

  auto run = [&](int workers, const std::string& tag) {
    auto config = TestConfig();
    config.checkpoint_path =
        testing::TempDir() + "/pexec_ck_" + tag + ".ck";
    std::remove(config.checkpoint_path.c_str());
    core::ParallelConfig parallel;
    parallel.workers = workers;
    auto outcome =
        core::RunParallelCampaign(TargetsOf(world), FactoryFor(world, plan),
                                  220, config, parallel);
    auto dataset = DatasetBytes(outcome, config);
    auto checkpoint = FileBytes(config.checkpoint_path);
    std::remove(config.checkpoint_path.c_str());
    return std::tuple{std::move(outcome), std::move(dataset),
                      std::move(checkpoint)};
  };

  const auto [one, dataset_one, ckpt_one] = run(1, "w1");
  const auto [eight, dataset_eight, ckpt_eight] = run(8, "w8");

  ASSERT_FALSE(dataset_one.empty());
  EXPECT_EQ(dataset_one, dataset_eight);
  ASSERT_FALSE(ckpt_one.empty());
  EXPECT_EQ(ckpt_one, ckpt_eight);
  ExpectStatsEqual(one.stats, eight.stats);
  ASSERT_EQ(one.quarantined.size(), eight.quarantined.size());
  for (std::size_t i = 0; i < one.quarantined.size(); ++i) {
    EXPECT_EQ(one.quarantined[i], eight.quarantined[i]);
  }
}

TEST(ParallelExecutor, MatchesSequentialSupervisor) {
  const auto world = TestWorld();
  const auto plan = TestFaults(world);
  const auto config = TestConfig();

  auto inner = world.MakeTransport(9);
  faults::FaultyTransport sequential_chain{*inner, plan};
  const auto sequential = core::RunResilientCampaign(
      TargetsOf(world), sequential_chain, 220, config);

  core::ParallelConfig parallel;
  parallel.workers = 3;
  const auto threaded = core::RunParallelCampaign(
      TargetsOf(world), FactoryFor(world, plan), 220, config, parallel);

  EXPECT_EQ(DatasetBytes(sequential, config),
            DatasetBytes(threaded, config));
  ASSERT_EQ(sequential.quarantined.size(), threaded.quarantined.size());
  // The sequential supervisor leaves stats.probes to the caller (it only
  // sees a Transport&); compare the supervisor-owned counters and check
  // probes against the sequential chain's own accounting.
  EXPECT_EQ(sequential.stats.rounds_attempted,
            threaded.stats.rounds_attempted);
  EXPECT_EQ(sequential.stats.rounds_failed, threaded.stats.rounds_failed);
  EXPECT_EQ(sequential.stats.rounds_gapped, threaded.stats.rounds_gapped);
  EXPECT_EQ(sequential.stats.retries, threaded.stats.retries);
  EXPECT_EQ(sequential.stats.backoff_seconds,
            threaded.stats.backoff_seconds);
  EXPECT_EQ(sequential.stats.forced_restarts,
            threaded.stats.forced_restarts);
  EXPECT_EQ(sequential.stats.quarantined_blocks,
            threaded.stats.quarantined_blocks);
  EXPECT_EQ(sequential_chain.accounting().attempts,
            threaded.stats.probes.attempts);
  EXPECT_EQ(sequential_chain.accounting().answered,
            threaded.stats.probes.answered);
  EXPECT_EQ(sequential_chain.accounting().lost, threaded.stats.probes.lost);
}

TEST(ParallelExecutor, TelemetryByteIdenticalAcrossWorkerCounts) {
  const auto world = TestWorld(24);
  const auto plan = TestFaults(world);

  struct Telemetry {
    std::string text;
    std::string jsonl;
    std::string trace;
    std::string prom;
  };
  auto run = [&](int workers) {
    obs::Logger logger{obs::LogConfig{obs::Level::kTrace,
                                      /*deterministic=*/true}};
    std::ostringstream text;
    std::ostringstream jsonl;
    logger.AddTextSink(&text);
    logger.AddJsonlSink(&jsonl);
    obs::Registry registry;
    obs::Tracer tracer;
    auto config = TestConfig();
    config.obs.log = &logger;
    config.obs.metrics = &registry;
    config.obs.tracer = &tracer;
    core::ParallelConfig parallel;
    parallel.workers = workers;
    core::RunParallelCampaign(TargetsOf(world), FactoryFor(world, plan),
                              160, config, parallel);
    Telemetry telemetry;
    telemetry.text = text.str();
    telemetry.jsonl = jsonl.str();
    std::ostringstream trace;
    tracer.WriteJsonl(trace);
    telemetry.trace = trace.str();
    std::ostringstream prom;
    registry.WritePrometheus(prom);
    telemetry.prom = prom.str();
    return telemetry;
  };

  const auto one = run(1);
  const auto eight = run(8);
  ASSERT_FALSE(one.jsonl.empty());
  ASSERT_FALSE(one.trace.empty());
  EXPECT_EQ(one.text, eight.text);
  EXPECT_EQ(one.jsonl, eight.jsonl);
  EXPECT_EQ(one.trace, eight.trace);
  EXPECT_EQ(one.prom, eight.prom);
}

TEST(ParallelExecutor, KillAndResumeAtEightWorkersIsByteIdentical) {
  const auto world = TestWorld();
  const auto plan = TestFaults(world);
  core::ParallelConfig parallel;
  parallel.workers = 8;

  // Uninterrupted 8-worker reference.
  auto reference_config = TestConfig();
  const auto reference =
      core::RunParallelCampaign(TargetsOf(world), FactoryFor(world, plan),
                                220, reference_config, parallel);

  // The same campaign killed repeatedly: stop_after_rounds ends each
  // slice early, the next slice resumes from the block-prefix checkpoint
  // with a fresh set of worker chains (as a restarted process would).
  auto config = TestConfig();
  config.checkpoint_path = testing::TempDir() + "/pexec_resume.ck";
  std::remove(config.checkpoint_path.c_str());
  config.stop_after_rounds = 2500;  // 40 blocks x 220 rounds total

  core::CampaignOutcome outcome;
  int slices = 0;
  do {
    outcome = core::RunParallelCampaign(
        TargetsOf(world), FactoryFor(world, plan), 220, config, parallel);
    ++slices;
    ASSERT_LE(slices, 12) << "campaign did not converge";
  } while (outcome.stopped_early);

  EXPECT_GE(slices, 3);
  EXPECT_TRUE(outcome.resumed);
  EXPECT_TRUE(outcome.stats.resumed_from_checkpoint);
  EXPECT_EQ(DatasetBytes(reference, config),
            DatasetBytes(outcome, config));
  // Only commits mutate stats and every slice commits an exact block
  // prefix, so the sliced totals match the uninterrupted run except for
  // the checkpoint writes the reference never performed.
  ExpectStatsEqual(reference.stats, outcome.stats,
                   /*include_checkpoint_fields=*/false);
  std::remove(config.checkpoint_path.c_str());
}

TEST(ParallelExecutor, RefusesMidBlockSequentialCheckpoint) {
  // A sequential run killed mid-block leaves a checkpoint with in-flight
  // state; the parallel executor only understands block prefixes, so it
  // must restart from scratch — and still converge on the same dataset.
  const auto world = TestWorld(12);
  const auto plan = TestFaults(world);
  auto config = TestConfig();
  config.checkpoint_path = testing::TempDir() + "/pexec_midblock.ck";
  std::remove(config.checkpoint_path.c_str());
  config.checkpoint_every_rounds = 50;
  config.stop_after_rounds = 330;  // mid-block at 220 rounds per block

  auto inner = world.MakeTransport(9);
  faults::FaultyTransport chain{*inner, plan};
  const auto partial =
      core::RunResilientCampaign(TargetsOf(world), chain, 220, config);
  ASSERT_TRUE(partial.stopped_early);

  config.stop_after_rounds = 0;
  core::ParallelConfig parallel;
  parallel.workers = 4;
  const auto outcome = core::RunParallelCampaign(
      TargetsOf(world), FactoryFor(world, plan), 220, config, parallel);
  EXPECT_FALSE(outcome.resumed);

  auto clean_config = TestConfig();
  const auto reference = core::RunParallelCampaign(
      TargetsOf(world), FactoryFor(world, plan), 220, clean_config,
      parallel);
  EXPECT_EQ(DatasetBytes(reference, clean_config),
            DatasetBytes(outcome, config));
  std::remove(config.checkpoint_path.c_str());
}

TEST(ParallelExecutor, MoreWorkersThanBlocksIsClamped) {
  const auto world = TestWorld(5);
  const auto plan = TestFaults(world);
  core::ParallelConfig parallel;
  parallel.workers = 64;
  const auto n_targets = TargetsOf(world).size();
  const auto outcome =
      core::RunParallelCampaign(TargetsOf(world), FactoryFor(world, plan),
                                120, TestConfig(), parallel);
  EXPECT_EQ(outcome.result.analyses.size(), n_targets);
}

}  // namespace
}  // namespace sleepwalk
