// util::ParallelFor, the library's one worker pool, and the store and
// reanalysis stages that fan out through it. Built into the
// parallel_stress_test binary so the CI `tsan` job runs every case here
// under -fsanitize=thread; thread counts stay at 8 or fewer.
#include "sleepwalk/util/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sleepwalk/core/block_store.h"
#include "sleepwalk/core/dataset_columnar.h"
#include "sleepwalk/core/pipeline.h"
#include "sleepwalk/core/store_campaign.h"
#include "sleepwalk/storage/file.h"

namespace sleepwalk {
namespace {

TEST(ParallelFor, OneWorkerRunsInlineOnTheCaller) {
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> calls;
  std::thread::id ran_on;
  util::ParallelFor(1, [&](std::size_t w) {
    calls.push_back(w);
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(calls, std::vector<std::size_t>{0});
  EXPECT_EQ(ran_on, caller);
}

TEST(ParallelFor, ZeroWorkersRunNothing) {
  bool ran = false;
  util::ParallelFor(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelFor, EveryWorkerRunsExactlyOnce) {
  const auto caller = std::this_thread::get_id();
  for (std::size_t workers = 2; workers <= 8; ++workers) {
    std::vector<std::atomic<int>> runs(workers);
    std::mutex mutex;
    std::set<std::thread::id> threads;
    bool body0_on_caller = false;
    util::ParallelFor(workers, [&](std::size_t w) {
      runs[w].fetch_add(1, std::memory_order_relaxed);
      const auto id = std::this_thread::get_id();
      std::lock_guard<std::mutex> lock{mutex};
      threads.insert(id);
      if (w == 0) body0_on_caller = id == caller;
    });
    for (std::size_t w = 0; w < workers; ++w) {
      EXPECT_EQ(runs[w].load(), 1) << "worker " << w << " of " << workers;
    }
    EXPECT_TRUE(body0_on_caller) << workers << " workers";
    EXPECT_EQ(threads.size(), workers) << "each body on a thread of its own";
  }
}

/// Not derived from std::exception, like util::CrashInjected.
struct PowerCut {};

TEST(ParallelFor, BodyZeroExceptionIsRethrownAfterEveryBodyFinished) {
  constexpr std::size_t kWorkers = 4;
  std::vector<std::atomic<bool>> finished(kWorkers);
  const auto body = [&](std::size_t w) {
    if (w == 0) throw PowerCut{};
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    finished[w].store(true);
  };
  bool caught = false;
  try {
    util::ParallelFor(kWorkers, body);
  } catch (const PowerCut&) {
    caught = true;
    for (std::size_t w = 1; w < kWorkers; ++w) {
      EXPECT_TRUE(finished[w].load()) << "worker " << w << " still running";
    }
  }
  EXPECT_TRUE(caught);

  EXPECT_THROW(util::ParallelFor(3,
                                 [](std::size_t w) {
                                   if (w == 0) {
                                     throw std::runtime_error("commit");
                                   }
                                 }),
               std::runtime_error);
}

TEST(SplitRange, TilesTheRangeWithNoGapOrOverlap) {
  for (const std::size_t parts : {1u, 3u, 4u, 8u}) {
    for (const std::size_t n :
         {std::size_t{0}, parts - 1, parts, parts + 1, 10 * parts + 3}) {
      const auto ranges = util::SplitRange(n, parts);
      const std::size_t chunk = (n + parts - 1) / parts;
      EXPECT_LE(ranges.size(), parts) << "n " << n << " parts " << parts;
      std::size_t next = 0;
      for (std::size_t r = 0; r < ranges.size(); ++r) {
        EXPECT_EQ(ranges[r].begin, next) << "n " << n << " parts " << parts;
        EXPECT_GT(ranges[r].end, ranges[r].begin) << "empty range " << r;
        if (r + 1 < ranges.size()) {
          EXPECT_EQ(ranges[r].end - ranges[r].begin, chunk);
        }
        next = ranges[r].end;
      }
      EXPECT_EQ(next, n) << "n " << n << " parts " << parts;
    }
  }
  // parts <= 0 is one part.
  ASSERT_EQ(util::SplitRange(5, 0).size(), 1u);
  EXPECT_EQ(util::SplitRange(5, 0)[0].end, 5u);
}

// The store campaign's segment workers and classify sweep at 4 workers,
// rings on and two checkpoints on an in-memory Env: the snapshot bytes
// and digest must equal a 1-worker run's.
TEST(ParallelStores, FourWorkerStoreCampaignMatchesOneWorker) {
  const auto run = [](int workers, storage::MemEnv& env,
                      core::StoreCampaignOutcome& outcome) {
    core::StoreCampaignConfig config;
    config.n_blocks = 256;
    config.n_rounds = 400;  // >= 2 whole days survive the midnight trim
    config.seed = 0x9a11;
    config.workers = workers;
    config.checkpoint_path = "/ckpt/pool.slck";
    config.checkpoint_every_rounds = 200;
    config.env = &env;
    config.series_capacity = 400;
    config.classify = true;
    core::BlockStore store;
    outcome = core::RunStoreCampaign(store, config);
    std::vector<std::uint8_t> file;
    EXPECT_TRUE(env.ReadAll(config.checkpoint_path, file).ok());
    return file;
  };
  storage::MemEnv serial_env;
  storage::MemEnv parallel_env;
  core::StoreCampaignOutcome serial;
  core::StoreCampaignOutcome parallel;
  const auto serial_file = run(1, serial_env, serial);
  const auto parallel_file = run(4, parallel_env, parallel);

  ASSERT_TRUE(parallel.error.empty()) << parallel.error;
  EXPECT_EQ(parallel.checkpoints_written, 2u);
  EXPECT_EQ(parallel.analyze.classified, 256u);
  EXPECT_GT(parallel.analyze.diurnal, 0u);
  EXPECT_EQ(parallel.analyze.diurnal, serial.analyze.diurnal);
  EXPECT_EQ(parallel.digest, serial.digest);
  EXPECT_EQ(parallel_file == serial_file, true)
      << "4-worker snapshot diverged from the 1-worker one";
}

core::BlockAnalysis SineAnalysis(std::uint32_t index, bool diurnal) {
  core::BlockAnalysis analysis;
  analysis.block = net::Prefix24::FromIndex(index);
  analysis.ever_active = 20 + static_cast<int>(index % 50);
  analysis.probed = true;
  analysis.short_series.first_round = 2;
  constexpr int kSamples = 300;
  constexpr double kRoundsPerDay = 86400.0 / 660.0;
  for (int k = 0; k < kSamples; ++k) {
    const double phase = 2.0 * 3.14159265358979323846 *
                         (static_cast<double>(k) / kRoundsPerDay +
                          0.01 * static_cast<double>(index));
    const double jitter =
        0.02 * static_cast<double>((k * 37 + static_cast<int>(index)) % 100) /
        100.0;
    analysis.short_series.values.push_back(
        diurnal ? 0.55 + 0.3 * std::sin(phase) + jitter : 0.6 + jitter);
  }
  return analysis;
}

// Dataset reanalysis's claim counter at 4 workers over a mapped v3
// dataset: the counts must equal a 1-worker sweep's.
TEST(ParallelStores, FourWorkerColumnarReanalysisMatchesOneWorker) {
  std::vector<core::BlockAnalysis> analyses;
  for (std::uint32_t i = 0; i < 48; ++i) {
    analyses.push_back(SineAnalysis(1000 + 13 * i, i % 3 != 2));
  }
  const auto bytes = core::EncodeDatasetColumnar(analyses, 660, 0);
  core::ColumnarDatasetView view;
  ASSERT_TRUE(core::ParseDatasetColumnar(bytes, view).ok());

  const core::DiurnalCounts serial =
      core::ReanalyzeDatasetColumnar(view, {}, 1);
  const core::DiurnalCounts parallel =
      core::ReanalyzeDatasetColumnar(view, {}, 4);
  ASSERT_GT(serial.strict + serial.relaxed, 0);
  EXPECT_EQ(parallel.strict, serial.strict);
  EXPECT_EQ(parallel.relaxed, serial.relaxed);
  EXPECT_EQ(parallel.non_diurnal, serial.non_diurnal);
  EXPECT_EQ(parallel.skipped, serial.skipped);
}

}  // namespace
}  // namespace sleepwalk
