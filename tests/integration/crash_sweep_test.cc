// Exhaustive crash-point sweep. A dry run through an inert failpoint
// set counts every storage operation an uninterrupted campaign performs
// (and doubles as the baseline); the sweep then kills the process — a
// thrown util::CrashInjected, caught here like a power cut — at each of
// those operations in turn, restarts on the same "disk", and requires
// the resumed campaign to converge on byte-identical artifacts: the
// primary checkpoint file and the encoded dataset. Runs at 1 worker
// (RunResilientCampaign) and 8 workers (RunParallelCampaign).
//
// A second matrix injects non-fatal I/O failures (EIO, ENOSPC, short
// write): saves fail and are logged, but the campaign completes and the
// dataset must not change by a single byte. Both matrices run at 1 and 8
// workers over SLCK v3 checkpoints, resumed through the zero-copy
// Env::Map seam, with three rotated generations; the *Columnar cases
// (named for the v3 format when v2 still existed beside it) run the same
// sweeps with rotation off, where the primary file is the only copy.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sleepwalk/core/dataset_columnar.h"
#include "sleepwalk/core/parallel_executor.h"
#include "sleepwalk/core/supervisor.h"
#include "sleepwalk/sim/world.h"
#include "sleepwalk/storage/faulty_env.h"
#include "sleepwalk/storage/file.h"
#include "sleepwalk/util/failpoint.h"

namespace sleepwalk {
namespace {

constexpr char kPath[] = "/campaign/ck.slck";
constexpr std::int64_t kRounds = 20;
/// Generations retained by the rotating sweeps; the *Columnar sweeps
/// keep only the primary file.
constexpr int kRotatingKeep = 3;
constexpr int kPrimaryOnlyKeep = 1;

sim::SimWorld SweepWorld() {
  sim::WorldConfig config;
  config.total_blocks = 6;
  config.seed = 0x5eed;
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

core::SupervisorConfig ConfigFor(storage::Env& env, int keep) {
  core::SupervisorConfig config;
  config.checkpoint_path = kPath;
  config.checkpoint_keep = keep;
  config.env = &env;
  return config;
}

/// Worker chain owning its private identically-seeded sim transport, so
/// chains are interchangeable (DESIGN.md §9) and the 8-worker run is
/// deterministic.
class OwningSimChain final : public core::ShardChain {
 public:
  OwningSimChain(const sim::SimWorld& world, std::uint64_t site_seed)
      : transport_{world.MakeTransport(site_seed)} {}
  net::Transport& transport() override { return *transport_; }

 private:
  std::unique_ptr<sim::SimTransport> transport_;
};

core::CampaignOutcome RunSequentialKeeping(const sim::SimWorld& world,
                                           storage::Env& env, int keep) {
  auto transport = world.MakeTransport(5);
  return core::RunResilientCampaign(TargetsOf(world), *transport, kRounds,
                                    ConfigFor(env, keep));
}

core::CampaignOutcome RunParallelKeeping(const sim::SimWorld& world,
                                         storage::Env& env, int keep) {
  core::ParallelConfig parallel;
  parallel.workers = 8;
  const core::ShardFactory factory = [&world](std::size_t) {
    return std::make_unique<OwningSimChain>(world, 5);
  };
  return core::RunParallelCampaign(TargetsOf(world), factory, kRounds,
                                   ConfigFor(env, keep), parallel);
}

core::CampaignOutcome RunSequential(const sim::SimWorld& world,
                                    storage::Env& env) {
  return RunSequentialKeeping(world, env, kRotatingKeep);
}

core::CampaignOutcome RunParallel(const sim::SimWorld& world,
                                  storage::Env& env) {
  return RunParallelKeeping(world, env, kRotatingKeep);
}

core::CampaignOutcome RunSequentialPrimaryOnly(const sim::SimWorld& world,
                                               storage::Env& env) {
  return RunSequentialKeeping(world, env, kPrimaryOnlyKeep);
}

core::CampaignOutcome RunParallelPrimaryOnly(const sim::SimWorld& world,
                                             storage::Env& env) {
  return RunParallelKeeping(world, env, kPrimaryOnlyKeep);
}

using Runner =
    std::function<core::CampaignOutcome(const sim::SimWorld&, storage::Env&)>;

std::vector<std::uint8_t> FileBytes(storage::Env& env,
                                    const std::string& path) {
  std::vector<std::uint8_t> bytes;
  const auto error = env.ReadAll(path, bytes);
  EXPECT_TRUE(error.ok()) << path << ": " << error.ToString();
  return bytes;
}

std::vector<std::uint8_t> DatasetBytesOf(const core::CampaignOutcome& outcome) {
  const core::SupervisorConfig defaults;
  return core::EncodeDatasetColumnar(outcome.result.analyses,
                                     defaults.analyzer.schedule.round_seconds,
                                     defaults.analyzer.schedule.epoch_sec);
}

/// Counts the storage operations of one uninterrupted run, then crashes
/// at every single one of them and proves restart convergence.
void CrashSweep(const Runner& run) {
  const auto world = SweepWorld();

  util::FailpointSet counter;  // inert: counts hits, never fires
  storage::MemEnv clean;
  storage::FaultyEnv counted{clean, counter};
  const auto baseline = run(world, counted);
  const auto n_ops = counter.total_hits();
  ASSERT_GT(n_ops, 0u) << "campaign performed no storage operations";

  const auto want_checkpoint = FileBytes(clean, kPath);
  const auto want_dataset = DatasetBytesOf(baseline);
  ASSERT_FALSE(want_checkpoint.empty());

  for (std::uint64_t ordinal = 1; ordinal <= n_ops; ++ordinal) {
    SCOPED_TRACE("crash at storage op " + std::to_string(ordinal) + " of " +
                 std::to_string(n_ops));
    util::FailpointSet failpoints;
    ASSERT_TRUE(util::FailpointSet::Parse(
        "*=crash@" + std::to_string(ordinal), failpoints));
    storage::MemEnv disk;
    storage::FaultyEnv env{disk, failpoints};

    bool crashed = false;
    try {
      run(world, env);
    } catch (const util::CrashInjected&) {
      crashed = true;
    }
    // Every ordinal up to n_ops replays the same op prefix, so the
    // crash always fires.
    ASSERT_TRUE(crashed);

    // "Restart": same disk — tmp litter, half-rotated generations and
    // all — with the failpoints disarmed.
    failpoints.Reset();
    const auto resumed = run(world, env);
    EXPECT_EQ(FileBytes(disk, kPath), want_checkpoint)
        << "primary checkpoint diverged after crash/restart";
    EXPECT_EQ(DatasetBytesOf(resumed), want_dataset)
        << "dataset diverged after crash/restart";
    ASSERT_EQ(resumed.result.analyses.size(),
              baseline.result.analyses.size());
  }
}

TEST(CrashSweep, EveryStorageOpSingleWorker) { CrashSweep(RunSequential); }

TEST(CrashSweep, EveryStorageOpEightWorkers) { CrashSweep(RunParallel); }

TEST(CrashSweep, EveryStorageOpSingleWorkerColumnar) {
  CrashSweep(RunSequentialPrimaryOnly);
}

TEST(CrashSweep, EveryStorageOpEightWorkersColumnar) {
  CrashSweep(RunParallelPrimaryOnly);
}

/// Non-fatal I/O failure matrix: a failed checkpoint save is logged and
/// rolled back, never measured. The dataset must be byte-identical to
/// the failure-free run (checkpoint generation counts legitimately
/// differ — a failed save is a save not written).
void ErrorMatrix(const Runner& run) {
  const auto world = SweepWorld();

  util::FailpointSet counter;
  storage::MemEnv clean;
  storage::FaultyEnv counted{clean, counter};
  const auto baseline = run(world, counted);
  const auto n_ops = counter.total_hits();
  ASSERT_GT(n_ops, 2u);
  const auto want_dataset = DatasetBytesOf(baseline);

  for (const char* action : {"eio", "enospc", "short"}) {
    for (const std::uint64_t ordinal :
         {std::uint64_t{1}, n_ops / 2, n_ops - 1}) {
      SCOPED_TRACE(std::string{action} + " at storage op " +
                   std::to_string(ordinal));
      util::FailpointSet failpoints;
      ASSERT_TRUE(util::FailpointSet::Parse(
          "*=" + std::string{action} + "@" + std::to_string(ordinal),
          failpoints));
      storage::MemEnv disk;
      storage::FaultyEnv env{disk, failpoints};
      const auto outcome = run(world, env);
      EXPECT_FALSE(outcome.resumed);
      EXPECT_EQ(DatasetBytesOf(outcome), want_dataset)
          << "an I/O error leaked into the measurement";
      ASSERT_EQ(outcome.result.analyses.size(),
                baseline.result.analyses.size());
      for (std::size_t i = 0; i < baseline.result.analyses.size(); ++i) {
        EXPECT_EQ(baseline.result.analyses[i].short_series.values,
                  outcome.result.analyses[i].short_series.values);
      }
    }
  }
}

TEST(CrashSweep, IoErrorMatrixSingleWorker) { ErrorMatrix(RunSequential); }

TEST(CrashSweep, IoErrorMatrixEightWorkers) { ErrorMatrix(RunParallel); }

TEST(CrashSweep, IoErrorMatrixSingleWorkerColumnar) {
  ErrorMatrix(RunSequentialPrimaryOnly);
}

}  // namespace
}  // namespace sleepwalk
