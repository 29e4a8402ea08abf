// SLCK v3 columnar checkpoints (core/checkpoint.h): deterministic
// encode, decode→re-encode byte identity, every single-byte corruption
// and truncation detected, estimator columns persisted per completed
// block, and kill/resume byte identity through the zero-copy Env::Map
// load path.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sleepwalk/core/checkpoint.h"
#include "sleepwalk/core/supervisor.h"
#include "sleepwalk/obs/context.h"
#include "sleepwalk/obs/metrics.h"
#include "sleepwalk/sim/world.h"
#include "sleepwalk/storage/file.h"
#include "sleepwalk/storage/instrumented_env.h"

namespace sleepwalk {
namespace {

constexpr char kPath[] = "/campaign/ck.slck";

sim::SimWorld SmallWorld() {
  sim::WorldConfig config;
  config.total_blocks = 8;
  config.seed = 0xc0ffee;
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

core::SupervisorConfig ConfigFor(storage::Env& env) {
  core::SupervisorConfig config;
  config.checkpoint_path = kPath;
  config.env = &env;
  return config;
}

core::CampaignOutcome RunOnce(const sim::SimWorld& world,
                              core::SupervisorConfig config) {
  auto transport = world.MakeTransport(3);
  return core::RunResilientCampaign(TargetsOf(world), *transport, 30, config);
}

std::vector<std::uint8_t> FileBytes(storage::Env& env,
                                    const std::string& path) {
  std::vector<std::uint8_t> bytes;
  const auto error = env.ReadAll(path, bytes);
  EXPECT_TRUE(error.ok()) << error.ToString();
  return bytes;
}

TEST(CheckpointColumnar, DecodeReencodeIsByteIdentical) {
  storage::MemEnv env;
  const auto outcome = RunOnce(SmallWorld(), ConfigFor(env));
  ASSERT_GT(outcome.stats.checkpoints_written, 0u);

  const auto bytes = FileBytes(env, kPath);
  core::CheckpointLoadReport report;
  const auto checkpoint = core::DecodeCheckpoint(bytes, &report);
  ASSERT_TRUE(checkpoint.has_value()) << report.detail;
  EXPECT_EQ(report.version, core::kCheckpointVersionColumnar);
  EXPECT_EQ(report.corrupt_sections, 0);
  EXPECT_EQ(report.generation, checkpoint->stats.checkpoints_written);
  EXPECT_EQ(core::EncodeCheckpoint(*checkpoint), bytes);

  // The file carries per-completed-block estimator state, parallel to
  // `completed`.
  EXPECT_EQ(checkpoint->estimators.size(), checkpoint->completed.size());
  ASSERT_FALSE(checkpoint->completed.empty());
  bool any_rounds = false;
  for (const auto& estimator : checkpoint->estimators) {
    any_rounds = any_rounds || estimator.rounds > 0;
  }
  EXPECT_TRUE(any_rounds) << "estimator columns decoded as defaults";
}

TEST(CheckpointColumnar, EverySingleByteCorruptionIsDetected) {
  storage::MemEnv env;
  RunOnce(SmallWorld(), ConfigFor(env));
  const auto bytes = FileBytes(env, kPath);
  ASSERT_FALSE(bytes.empty());

  auto corrupted = bytes;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    corrupted[i] = bytes[i] ^ 0xA5;
    core::CheckpointLoadReport report;
    EXPECT_FALSE(core::DecodeCheckpoint(corrupted, &report).has_value())
        << "flip at byte " << i << " went undetected";
    EXPECT_TRUE(report.bad_magic || report.version_refused ||
                report.corrupt_sections > 0)
        << "flip at byte " << i << " reported nothing";
    corrupted[i] = bytes[i];
  }
}

TEST(CheckpointColumnar, EveryTruncationIsDetected) {
  storage::MemEnv env;
  RunOnce(SmallWorld(), ConfigFor(env));
  const auto bytes = FileBytes(env, kPath);
  ASSERT_FALSE(bytes.empty());

  for (std::size_t length = 0; length < bytes.size(); ++length) {
    const std::span<const std::uint8_t> cut{bytes.data(), length};
    EXPECT_FALSE(core::DecodeCheckpoint(cut).has_value())
        << "truncation to " << length << " bytes went undetected";
  }
}

TEST(CheckpointColumnar, KilledCampaignResumesByteIdentically) {
  const auto world = SmallWorld();

  storage::MemEnv clean_env;
  const auto clean = RunOnce(world, ConfigFor(clean_env));
  const auto clean_file = FileBytes(clean_env, kPath);

  storage::MemEnv env;
  auto config = ConfigFor(env);
  config.stop_after_rounds = 100;
  const auto killed = RunOnce(world, config);
  EXPECT_TRUE(killed.stopped_early);

  config.stop_after_rounds = 0;
  const auto resumed = RunOnce(world, config);
  EXPECT_TRUE(resumed.resumed);
  EXPECT_FALSE(resumed.stopped_early);

  ASSERT_EQ(resumed.result.analyses.size(), clean.result.analyses.size());

  // The graceful kill writes one checkpoint the uninterrupted timeline
  // never does, so checkpoints_written (and with it the generation
  // header) runs one ahead; everything else in the final file must be
  // byte-identical. Normalize that one counter and compare bytes.
  auto final_ckpt = core::DecodeCheckpoint(FileBytes(env, kPath));
  const auto clean_ckpt = core::DecodeCheckpoint(clean_file);
  ASSERT_TRUE(final_ckpt.has_value());
  ASSERT_TRUE(clean_ckpt.has_value());
  EXPECT_EQ(final_ckpt->stats.checkpoints_written,
            clean_ckpt->stats.checkpoints_written + 1);
  final_ckpt->stats.checkpoints_written =
      clean_ckpt->stats.checkpoints_written;
  EXPECT_EQ(core::EncodeCheckpoint(*final_ckpt), clean_file);

  // The columnar outcome mirror must also converge: estimator columns
  // for blocks finished before the kill came back through the
  // checkpoint's estimator columns, not defaults.
  EXPECT_EQ(resumed.store.Digest(), clean.store.Digest());
}

TEST(CheckpointColumnar, LoadGoesThroughTheMapSeam) {
  storage::MemEnv mem;
  obs::Registry registry;
  obs::Context context;
  context.metrics = &registry;
  storage::InstrumentedEnv env{mem, context};
  auto config = ConfigFor(env);
  config.stop_after_rounds = 100;
  RunOnce(SmallWorld(), config);

  const auto* maps = registry.counter("storage_maps_total");
  ASSERT_NE(maps, nullptr);
  const double maps_before = maps->value();
  config.stop_after_rounds = 0;
  const auto resumed = RunOnce(SmallWorld(), config);
  EXPECT_TRUE(resumed.resumed);
  EXPECT_GT(maps->value(), maps_before)
      << "checkpoint resume no longer uses the zero-copy Map path";
}

}  // namespace
}  // namespace sleepwalk
