// SLCK robustness: every single-byte corruption and every truncation
// of a mid-block checkpoint (one carrying INFLIGHT analyzer state, which
// a campaign's final checkpoint does not) must be detected, and its
// decode must re-encode byte-identically; the CheckpointStore must
// self-heal from retained generations; mixed-version splices must be
// refused; v1 and v2 files from older builds must be refused, and a
// campaign that finds one starts fresh.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "sleepwalk/core/checkpoint.h"
#include "sleepwalk/core/supervisor.h"
#include "sleepwalk/net/checksum.h"
#include "sleepwalk/sim/world.h"
#include "sleepwalk/storage/bytes.h"
#include "sleepwalk/storage/columnar.h"
#include "sleepwalk/storage/file.h"

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

core::SupervisorConfig ConfigFor(storage::Env& env, int keep = 3) {
  core::SupervisorConfig config;
  config.checkpoint_path = kPath;
  config.checkpoint_keep = keep;
  config.env = &env;
  return config;
}

core::CampaignOutcome RunOnce(const sim::SimWorld& world, storage::Env& env,
                              int keep = 3) {
  auto transport = world.MakeTransport(3);
  return core::RunResilientCampaign(TargetsOf(world), *transport, 30,
                                    ConfigFor(env, keep));
}

std::vector<std::uint8_t> FileBytes(storage::Env& env,
                                    const std::string& path) {
  std::vector<std::uint8_t> bytes;
  const auto error = env.ReadAll(path, bytes);
  EXPECT_TRUE(error.ok()) << error.ToString();
  return bytes;
}

/// Retained generation files (names) under the campaign directory.
std::vector<std::string> GenerationFiles(storage::Env& env) {
  std::vector<std::string> names;
  for (const auto& name : env.List("/campaign")) {
    if (name.find(".slck.g") != std::string::npos) names.push_back(name);
  }
  return names;
}

void PatchU32(std::vector<std::uint8_t>& bytes, std::size_t offset,
              std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    bytes[offset + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(value >> (8 * i));
  }
}

/// The checkpoint a campaign stopped mid-block leaves behind: completed
/// analyses plus the open block's analyzer state in INFLIGHT.
std::vector<std::uint8_t> MidBlockCheckpoint() {
  const auto world = SmallWorld();
  storage::MemEnv env;
  auto config = ConfigFor(env);
  config.stop_after_rounds = 100;  // 30 rounds per block: inside block 3
  auto transport = world.MakeTransport(3);
  const auto outcome =
      core::RunResilientCampaign(TargetsOf(world), *transport, 30, config);
  EXPECT_TRUE(outcome.stopped_early);
  return FileBytes(env, kPath);
}

TEST(CheckpointRobustness, DecodeReencodeIsByteIdentical) {
  const auto bytes = MidBlockCheckpoint();
  core::CheckpointLoadReport report;
  const auto checkpoint = core::DecodeCheckpoint(bytes, &report);
  ASSERT_TRUE(checkpoint.has_value()) << report.detail;
  EXPECT_EQ(report.version, core::kCheckpointVersionColumnar);
  EXPECT_EQ(report.corrupt_sections, 0);
  EXPECT_EQ(report.generation, checkpoint->stats.checkpoints_written);
  EXPECT_TRUE(checkpoint->has_inflight);
  EXPECT_FALSE(checkpoint->inflight.raw.empty());
  EXPECT_FALSE(checkpoint->completed.empty());
  EXPECT_EQ(core::EncodeCheckpoint(*checkpoint), bytes);
}

TEST(CheckpointRobustness, EverySingleByteCorruptionIsDetected) {
  const auto bytes = MidBlockCheckpoint();
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

TEST(CheckpointRobustness, EveryTruncationIsDetected) {
  const auto bytes = MidBlockCheckpoint();
  ASSERT_FALSE(bytes.empty());

  for (std::size_t length = 0; length < bytes.size(); ++length) {
    const std::span<const std::uint8_t> prefix{bytes.data(), length};
    EXPECT_FALSE(core::DecodeCheckpoint(prefix).has_value())
        << "truncation to " << length << " bytes went undetected";
  }
}

TEST(CheckpointRobustness, MixedVersionMetaPayloadIsRefused) {
  storage::MemEnv env;
  RunOnce(SmallWorld(), env);
  const auto bytes = FileBytes(env, kPath);

  // Splice: re-emit the container, column for column, with the META
  // column's format version rewritten to 2. The writer computes every
  // CRC, so only the META version check can object.
  constexpr std::uint32_t kMetaColumn = 1;
  storage::ColumnarReader reader;
  ASSERT_TRUE(reader.Parse(bytes, "SLCK").ok());
  storage::ColumnarWriter writer("SLCK", reader.kind(), reader.fingerprint(),
                                 reader.generation());
  std::vector<std::uint8_t> meta;
  for (const auto& column : reader.columns()) {
    if (column.id != kMetaColumn) {
      writer.AddBorrowed(column.id, column.elem_width, column.bytes);
      continue;
    }
    meta.assign(column.bytes.begin(), column.bytes.end());
    std::uint32_t version = 0;
    ASSERT_GE(meta.size(), sizeof(version));
    std::memcpy(&version, meta.data(), sizeof(version));
    ASSERT_EQ(version, core::kCheckpointVersionColumnar);
    PatchU32(meta, 0, 2);  // META format version := 2
    writer.AddBorrowed(column.id, column.elem_width, meta);
  }
  ASSERT_FALSE(meta.empty()) << "no META column";
  const auto spliced = writer.Finish();

  core::CheckpointLoadReport report;
  EXPECT_FALSE(core::DecodeCheckpoint(spliced, &report).has_value());
  EXPECT_TRUE(report.version_refused);
  EXPECT_FALSE(report.bad_magic);
  EXPECT_EQ(report.detail, "META format version mismatch");
}

TEST(CheckpointRobustness, CorruptPrimaryHealsFromNewestGeneration) {
  storage::MemEnv env;
  const auto world = SmallWorld();
  const auto baseline = RunOnce(world, env);
  ASSERT_FALSE(baseline.resumed);

  // Damage the primary file; the newest retained generation holds the
  // same (final) checkpoint, so the resume is still idempotent.
  auto bytes = FileBytes(env, kPath);
  bytes[bytes.size() / 2] ^= 0x01;
  ASSERT_TRUE(storage::AtomicWrite(env, kPath, bytes).ok());

  const auto healed = RunOnce(world, env);
  EXPECT_TRUE(healed.resumed);
  EXPECT_EQ(healed.recovery.recoveries, 1u);
  EXPECT_EQ(healed.recovery.generations_discarded, 1u);
  EXPECT_GE(healed.recovery.corrupt_sections, 1u);
  // The damaged file was quarantined for post-mortem.
  EXPECT_TRUE(env.Exists(std::string{kPath} + ".corrupt"));
  ASSERT_EQ(healed.result.analyses.size(), baseline.result.analyses.size());
  for (std::size_t i = 0; i < baseline.result.analyses.size(); ++i) {
    EXPECT_EQ(baseline.result.analyses[i].short_series.values,
              healed.result.analyses[i].short_series.values);
  }
}

TEST(CheckpointRobustness, WalksGenerationsNewestFirstPastMultipleCorrupt) {
  storage::MemEnv env;
  const auto world = SmallWorld();
  const auto baseline = RunOnce(world, env);

  // Damage the primary AND the newest generation: recovery must land on
  // the second-newest, which is one block short of final — the resumed
  // campaign redoes that block and still matches the baseline.
  auto generations = GenerationFiles(env);
  ASSERT_GE(generations.size(), 2u);
  const std::string newest = "/campaign/" + generations.back();
  for (const auto& victim : {std::string{kPath}, newest}) {
    auto bytes = FileBytes(env, victim);
    bytes[bytes.size() - 1] ^= 0x80;
    ASSERT_TRUE(storage::AtomicWrite(env, victim, bytes).ok());
  }

  const auto healed = RunOnce(world, env);
  EXPECT_TRUE(healed.resumed);
  EXPECT_EQ(healed.recovery.recoveries, 1u);
  EXPECT_EQ(healed.recovery.generations_discarded, 2u);
  ASSERT_EQ(healed.result.analyses.size(), baseline.result.analyses.size());
  for (std::size_t i = 0; i < baseline.result.analyses.size(); ++i) {
    EXPECT_EQ(baseline.result.analyses[i].short_series.values,
              healed.result.analyses[i].short_series.values);
  }
}

TEST(CheckpointRobustness, AllCopiesCorruptMeansFreshStart) {
  storage::MemEnv env;
  const auto world = SmallWorld();
  const auto baseline = RunOnce(world, env);

  std::vector<std::string> victims{kPath};
  for (const auto& name : GenerationFiles(env)) {
    victims.push_back("/campaign/" + name);
  }
  for (const auto& victim : victims) {
    auto bytes = FileBytes(env, victim);
    bytes[10] ^= 0xFF;
    ASSERT_TRUE(storage::AtomicWrite(env, victim, bytes).ok());
  }

  const auto fresh = RunOnce(world, env);
  EXPECT_FALSE(fresh.resumed);
  EXPECT_EQ(fresh.recovery.recoveries, 0u);
  EXPECT_EQ(fresh.recovery.generations_discarded, victims.size());
  ASSERT_EQ(fresh.result.analyses.size(), baseline.result.analyses.size());
  for (std::size_t i = 0; i < baseline.result.analyses.size(); ++i) {
    EXPECT_EQ(baseline.result.analyses[i].short_series.values,
              fresh.result.analyses[i].short_series.values);
  }
}

TEST(CheckpointRobustness, KeepKRetainsExactlyTheNewestGenerations) {
  storage::MemEnv env;
  const auto outcome = RunOnce(SmallWorld(), env, /*keep=*/3);
  const auto written = outcome.stats.checkpoints_written;
  ASSERT_GT(written, 3u);

  const auto generations = GenerationFiles(env);
  ASSERT_EQ(generations.size(), 3u);
  // Exactly generations written-2 .. written survive the pruning, and
  // each one still decodes.
  for (std::uint64_t gen = written - 2; gen <= written; ++gen) {
    const std::string path =
        std::string{kPath} + ".g" + std::to_string(gen);
    ASSERT_TRUE(env.Exists(path)) << path;
    EXPECT_TRUE(core::ReadCheckpoint(env, path).has_value()) << path;
  }
}

TEST(CheckpointRobustness, KeepOneDisablesRotation) {
  storage::MemEnv env;
  RunOnce(SmallWorld(), env, /*keep=*/1);
  EXPECT_TRUE(env.Exists(kPath));
  EXPECT_TRUE(GenerationFiles(env).empty());
}

TEST(CheckpointRobustness, MissingPrimaryDiscardsStaleGenerations) {
  storage::MemEnv env;
  const auto world = SmallWorld();
  RunOnce(world, env);
  ASSERT_FALSE(GenerationFiles(env).empty());

  // Deleting the primary declares the campaign fresh; stale generations
  // must not resurrect it behind the caller's back.
  ASSERT_TRUE(env.Remove(kPath).ok());
  const auto fresh = RunOnce(world, env);
  EXPECT_FALSE(fresh.resumed);
  EXPECT_EQ(fresh.recovery.recoveries, 0u);
}

TEST(CheckpointRobustness, FingerprintMismatchIsSilentlySkipped) {
  storage::MemEnv env;
  RunOnce(SmallWorld(), env);
  core::CheckpointStore store{env, kPath, 3};
  core::RecoveryEvents events;
  EXPECT_FALSE(store.Load(0xdeadbeef, events).has_value());
  EXPECT_EQ(events.recoveries, 0u);
  EXPECT_EQ(events.generations_discarded, 0u);
  // The intact-but-foreign file was not quarantined.
  EXPECT_TRUE(env.Exists(kPath));
  EXPECT_FALSE(env.Exists(std::string{kPath} + ".corrupt"));
}

/// An SLCK v1 file as older builds wrote it: the unframed stream.
std::vector<std::uint8_t> V1Checkpoint() {
  storage::ByteWriter out;
  const char magic[4] = {'S', 'L', 'C', 'K'};
  out.PutBytes(std::span{reinterpret_cast<const std::uint8_t*>(magic), 4});
  out.Put(std::uint32_t{1});        // version
  out.Put(std::uint64_t{0xfeed});   // fingerprint
  out.Put(std::int64_t{3});         // counts.strict
  out.Put(std::int64_t{1});         // counts.relaxed
  out.Put(std::int64_t{2});         // counts.non_diurnal
  out.Put(std::int64_t{0});         // counts.skipped
  out.Put(std::uint64_t{10});       // probes.attempts
  out.Put(std::uint64_t{1});        // probes.errors
  out.Put(std::uint64_t{7});        // probes.answered
  out.Put(std::uint64_t{2});        // probes.lost
  out.Put(std::uint64_t{0});        // probes.rate_limited
  out.Put(std::uint64_t{0});        // probes.unreachable
  out.Put(std::uint64_t{40});       // rounds_attempted
  out.Put(std::uint64_t{0});        // rounds_failed
  out.Put(std::uint64_t{0});        // rounds_gapped
  out.Put(std::uint64_t{0});        // retries
  out.Put(double{0.0});             // backoff_seconds
  out.Put(std::uint64_t{0});        // forced_restarts
  out.Put(std::uint64_t{0});        // quarantined_blocks
  out.Put(std::uint64_t{7});        // checkpoints_written
  out.Put(std::uint8_t{1});         // resumed flag (v1 persisted it)
  out.Put(std::uint64_t{0});        // completed count
  out.Put(std::uint64_t{0});        // quarantined count
  out.Put(std::uint64_t{6});        // next_block
  out.Put(std::uint8_t{0});         // has_inflight
  out.Put(std::uint64_t{0});        // transport bytes
  return out.Take();
}

/// An SLCK v2 header as older builds wrote it: magic | u32 version
/// | u64 fingerprint | u64 generation | u32 n_sections | u32 CRC32C of
/// the 24 bytes after the magic.
std::vector<std::uint8_t> V2Checkpoint(std::uint64_t fingerprint) {
  storage::ByteWriter header;
  header.Put(std::uint32_t{2});  // version
  header.Put(fingerprint);
  header.Put(std::uint64_t{4});  // generation
  header.Put(std::uint32_t{0});  // n_sections
  storage::ByteWriter out;
  const char magic[4] = {'S', 'L', 'C', 'K'};
  out.PutBytes(std::span{reinterpret_cast<const std::uint8_t*>(magic), 4});
  out.PutBytes(header.bytes());
  out.Put(net::Crc32cOf(header.bytes()));
  return out.Take();
}

TEST(CheckpointRobustness, PreV3FilesAreRefused) {
  for (const auto& [version, bytes] :
       {std::pair{1u, V1Checkpoint()}, std::pair{2u, V2Checkpoint(0xfeed)}}) {
    SCOPED_TRACE("SLCK v" + std::to_string(version));
    core::CheckpointLoadReport report;
    EXPECT_FALSE(core::DecodeCheckpoint(bytes, &report).has_value());
    EXPECT_TRUE(report.version_refused);
    EXPECT_FALSE(report.bad_magic);
    EXPECT_EQ(report.version, version);
    EXPECT_NE(report.detail.find(std::to_string(version)), std::string::npos)
        << report.detail;
  }
}

TEST(CheckpointRobustness, PreV3PrimaryIsQuarantinedAndTheCampaignStartsFresh) {
  // A v2 primary checkpoint left by an older build of the same campaign:
  // it is refused like any undecodable file — renamed .corrupt with its
  // bytes intact, counted as a discarded generation — and the campaign
  // runs from scratch to the same result as a clean run.
  const auto world = SmallWorld();
  storage::MemEnv clean_env;
  const auto baseline = RunOnce(world, clean_env);

  storage::MemEnv env;
  const auto fingerprint = core::CampaignFingerprint(
      TargetsOf(world), 30, ConfigFor(env).seed, ConfigFor(env).analyzer);
  const auto old_file = V2Checkpoint(fingerprint);
  ASSERT_TRUE(storage::AtomicWrite(env, kPath, old_file).ok());

  const auto fresh = RunOnce(world, env);
  EXPECT_FALSE(fresh.resumed);
  EXPECT_EQ(fresh.recovery.recoveries, 0u);
  EXPECT_EQ(fresh.recovery.generations_discarded, 1u);
  EXPECT_EQ(FileBytes(env, std::string{kPath} + ".corrupt"), old_file);
  EXPECT_EQ(FileBytes(env, kPath), FileBytes(clean_env, kPath));
  ASSERT_EQ(fresh.result.analyses.size(), baseline.result.analyses.size());
  for (std::size_t i = 0; i < baseline.result.analyses.size(); ++i) {
    EXPECT_EQ(baseline.result.analyses[i].short_series.values,
              fresh.result.analyses[i].short_series.values);
  }
}

}  // namespace
}  // namespace sleepwalk
