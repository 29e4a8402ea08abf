// Durable-storage cost of the crash-safe checkpoint layer.
//
// Two measurements:
//   * raw SLCK v3 throughput — encode / decode / rotated store-save of a
//     synthetic checkpoint at 10k and 100k completed blocks (the paper's
//     survey is 3.7M blocks; per-record cost is flat, so these sizes
//     extrapolate);
//   * durability overhead — the same simulated campaign run with and
//     without checkpointing (storage::MemEnv, so the number isolates
//     serialization + store cost from disk variance). The contract is
//     that durability costs < 10% of campaign wall time.
//
// Writes BENCH_ckpt.json (override with SLEEPWALK_BENCH_CKPT_OUT, empty
// to skip). The committed copy at the repo root is the baseline
// scripts/bench_gate.sh checks in CI; regenerate on quiet hardware with
//   SLEEPWALK_BENCH_CKPT_OUT=BENCH_ckpt.json build/bench/checkpoint_io
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common.h"
#include "sleepwalk/core/checkpoint.h"
#include "sleepwalk/core/supervisor.h"
#include "sleepwalk/probing/scheduler.h"
#include "sleepwalk/sim/world.h"
#include "sleepwalk/storage/file.h"

namespace sleepwalk {
namespace {

constexpr double kBudgetPct = 10.0;  // durability may cost < 10% wall time

double Seconds(const std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// A checkpoint shaped like a campaign `records` blocks in: every
/// completed analysis carries a week of 660 s availability samples.
core::Checkpoint SyntheticCheckpoint(int records) {
  core::Checkpoint checkpoint;
  checkpoint.fingerprint = 0xbe7c;
  checkpoint.next_block = static_cast<std::uint64_t>(records);
  checkpoint.completed.reserve(static_cast<std::size_t>(records));
  for (int i = 0; i < records; ++i) {
    core::BlockAnalysis analysis;
    analysis.block = net::Prefix24::FromIndex(static_cast<std::uint32_t>(i));
    analysis.ever_active = 64 + i % 128;
    analysis.probed = true;
    analysis.short_series.first_round = 0;
    analysis.short_series.values.resize(36);
    for (std::size_t s = 0; s < analysis.short_series.values.size(); ++s) {
      analysis.short_series.values[s] =
          0.5 + 0.4 * static_cast<double>((s * 131 + static_cast<std::size_t>(
                                                         i)) %
                                          100) /
                    100.0;
    }
    checkpoint.completed.push_back(std::move(analysis));
  }
  checkpoint.stats.checkpoints_written = 1;
  return checkpoint;
}

struct Throughput {
  int records = 0;
  std::size_t bytes = 0;
  double encode_mb_per_sec = 0.0;
  double decode_mb_per_sec = 0.0;
  double save_mb_per_sec = 0.0;  // EncodeCheckpoint + rotated store save
};

Throughput MeasureThroughput(int records) {
  Throughput result;
  result.records = records;
  auto checkpoint = SyntheticCheckpoint(records);

  constexpr int kRepeats = 3;  // best-of to damp scheduler noise
  std::vector<std::uint8_t> bytes;
  double best = 0.0;
  for (int repeat = 0; repeat < kRepeats; ++repeat) {
    const auto start = std::chrono::steady_clock::now();
    bytes = core::EncodeCheckpoint(checkpoint);
    const double sec = Seconds(start);
    if (repeat == 0 || sec < best) best = sec;
  }
  result.bytes = bytes.size();
  const double mb = static_cast<double>(bytes.size()) / (1024.0 * 1024.0);
  result.encode_mb_per_sec = best > 0.0 ? mb / best : 0.0;

  best = 0.0;
  for (int repeat = 0; repeat < kRepeats; ++repeat) {
    const auto start = std::chrono::steady_clock::now();
    const auto decoded = core::DecodeCheckpoint(bytes);
    const double sec = Seconds(start);
    if (!decoded.has_value()) {
      std::cerr << "checkpoint_io: synthetic checkpoint failed to decode\n";
      std::exit(1);
    }
    if (repeat == 0 || sec < best) best = sec;
  }
  result.decode_mb_per_sec = best > 0.0 ? mb / best : 0.0;

  storage::MemEnv env;
  core::CheckpointStore store{env, "/bench/ck.slck", 3};
  best = 0.0;
  for (int repeat = 0; repeat < kRepeats; ++repeat) {
    checkpoint.stats.checkpoints_written =
        static_cast<std::uint64_t>(repeat + 1);  // exercises rotation
    const auto start = std::chrono::steady_clock::now();
    const auto error = store.Save(checkpoint);
    const double sec = Seconds(start);
    if (!error.ok()) {
      std::cerr << "checkpoint_io: save failed: " << error.ToString() << "\n";
      std::exit(1);
    }
    if (repeat == 0 || sec < best) best = sec;
  }
  result.save_mb_per_sec = best > 0.0 ? mb / best : 0.0;
  return result;
}

/// Campaign wall time with checkpointing on (saves into a MemEnv
/// through the rotating store, at the documented stride) vs off,
/// best-of-2 each. A simulated campaign compresses 660 s probing rounds
/// into microseconds, so per-block saves would be measured against an
/// unrealistically fast denominator; the stride is the knob the budget
/// contract is stated for (see checkpoint_every_blocks in supervisor.h).
double DurabilityOverheadPct(const sim::SimWorld& world,
                             std::int64_t n_rounds, int stride) {
  std::vector<core::BlockTarget> targets;
  targets.reserve(world.blocks().size());
  for (const auto& block : world.blocks()) {
    targets.push_back(bench::TargetFor(block));
  }

  auto run = [&](bool durable) {
    double best = 0.0;
    constexpr int kRepeats = 2;
    for (int repeat = 0; repeat < kRepeats; ++repeat) {
      storage::MemEnv env;
      core::SupervisorConfig config;
      config.seed = 7;
      if (durable) {
        config.checkpoint_path = "/bench/campaign.slck";
        config.checkpoint_keep = 3;
        config.checkpoint_every_blocks = stride;
        config.env = &env;
      }
      auto transport = world.MakeTransport(11);
      auto copy = targets;
      const auto start = std::chrono::steady_clock::now();
      const auto outcome = core::RunResilientCampaign(std::move(copy),
                                                      *transport, n_rounds,
                                                      config);
      const double sec = Seconds(start);
      if (durable && outcome.stats.checkpoints_written == 0) {
        std::cerr << "checkpoint_io: durable campaign wrote no checkpoints\n";
        std::exit(1);
      }
      if (repeat == 0 || sec < best) best = sec;
    }
    return best;
  };

  const double plain_sec = run(false);
  const double durable_sec = run(true);
  return plain_sec > 0.0 ? (durable_sec - plain_sec) / plain_sec * 100.0
                         : 0.0;
}

int Run() {
  const int unit = bench::BlocksScale(10'000);
  const int campaign_blocks = std::min(400, std::max(50, unit / 25));
  const int days = bench::DaysScale(6);

  bench::PrintHeader(
      "checkpoint_io: SLCK v3 encode/decode/save throughput + durability tax",
      "internal CI gate (not a paper figure): crash safety must cost < 10% "
      "of campaign wall time");

  const Throughput small = MeasureThroughput(unit);
  const Throughput large = MeasureThroughput(10 * unit);
  for (const auto& t : {small, large}) {
    std::cout << "records " << t.records << ": " << t.bytes << " bytes, "
              << "encode " << t.encode_mb_per_sec << " MB/s, decode "
              << t.decode_mb_per_sec << " MB/s, store-save "
              << t.save_mb_per_sec << " MB/s\n";
  }

  sim::WorldConfig world_config;
  world_config.total_blocks = campaign_blocks;
  world_config.seed = 23;
  const auto world = sim::SimWorld::Generate(world_config);
  core::AnalyzerConfig analyzer;
  const probing::RoundScheduler scheduler{analyzer.schedule};
  const auto n_rounds = scheduler.RoundsForDays(days);

  const int stride = std::max(1, campaign_blocks / 2);
  const double overhead_pct =
      DurabilityOverheadPct(world, n_rounds, stride);
  const bool within_budget = overhead_pct < kBudgetPct;
  std::cout << "durability overhead: " << overhead_pct << "% of campaign "
            << "wall time (" << campaign_blocks << " blocks, " << n_rounds
            << " rounds/block, save stride " << stride
            << " blocks; budget < " << kBudgetPct << "%)\n";

  std::string path = "BENCH_ckpt.json";
  if (const char* env = std::getenv("SLEEPWALK_BENCH_CKPT_OUT")) {
    path = env;
  }
  if (!path.empty()) {
    std::ofstream out{path, std::ios::trunc};
    out << "{\n"
        << "  \"bench\": \"checkpoint_io\",\n"
        << "  \"records_small\": " << small.records << ",\n"
        << "  \"records_large\": " << large.records << ",\n"
        << "  \"checkpoint_bytes_large\": " << large.bytes << ",\n"
        << "  \"encode_mb_per_sec_large\": " << large.encode_mb_per_sec
        << ",\n"
        << "  \"decode_mb_per_sec_large\": " << large.decode_mb_per_sec
        << ",\n"
        << "  \"save_mb_per_sec_large\": " << large.save_mb_per_sec << ",\n"
        << "  \"campaign_blocks\": " << campaign_blocks << ",\n"
        << "  \"checkpoint_every_blocks\": " << stride << ",\n"
        << "  \"durability_overhead_pct\": " << overhead_pct << ",\n"
        << "  \"durability_budget_pct\": " << kBudgetPct << ",\n"
        << "  \"durability_within_budget\": "
        << (within_budget ? "true" : "false") << "\n"
        << "}\n";
    if (!out) {
      std::cerr << "checkpoint_io: cannot write " << path << "\n";
      return 1;
    }
    std::cout << "wrote " << path << "\n";
  }
  // The budget is a contract about full-scale runs on quiet hardware
  // (scripts/bench_gate.sh reads durability_within_budget from the
  // JSON). A scaled-down smoke run shares the machine with the rest of
  // the test suite, so its timing ratio is noise — report but don't
  // fail on it.
  const bool scaled_down = std::getenv("SLEEPWALK_BLOCKS") != nullptr;
  return (within_budget || scaled_down) ? 0 : 1;
}

}  // namespace
}  // namespace sleepwalk

int main() { return sleepwalk::Run(); }
