#include "sleepwalk/core/pipeline.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "sleepwalk/core/campaign_ledger.h"
#include "sleepwalk/core/dataset.h"
#include "sleepwalk/core/dataset_columnar.h"
#include "sleepwalk/core/parallel_executor.h"
#include "sleepwalk/core/supervisor.h"
#include "sleepwalk/util/parallel.h"

namespace sleepwalk::core {

DatasetResult RunCampaign(std::vector<BlockTarget> targets,
                          net::Transport& transport, std::int64_t n_rounds,
                          const AnalyzerConfig& config, std::uint64_t seed,
                          const ProgressFn& progress) {
  // The plain campaign is the resilient one with recovery switched off:
  // no checkpointing, no injected faults, and on a well-behaved transport
  // the retry/quarantine paths never trigger.
  SupervisorConfig supervisor;
  supervisor.analyzer = config;
  supervisor.seed = seed;
  supervisor.progress = progress;
  return RunResilientCampaign(std::move(targets), transport, n_rounds,
                              supervisor)
      .result;
}

std::vector<BlockAnalysis> ReanalyzeDataset(const Dataset& dataset,
                                            const AnalyzerConfig& config,
                                            int workers) {
  const std::size_t n = dataset.blocks.size();
  std::vector<BlockAnalysis> analyses(n);
  if (n == 0) return analyses;
  const std::size_t n_workers = std::min<std::size_t>(
      static_cast<std::size_t>(workers > 0 ? workers : HardwareWorkers()), n);
  // Classification is a pure function of one stored series, so a shared
  // claim counter plus by-index writes into the pre-sized vector needs
  // no further synchronization and keeps the output order fixed. Each
  // worker owns one AnalysisScratch for its whole run, so the loop
  // allocates only while buffer capacities warm up.
  std::atomic<std::size_t> next{0};
  util::ParallelFor(n_workers, [&](std::size_t) {
    AnalysisScratch scratch;
    while (true) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      Reanalyze(dataset.blocks[i], config, scratch, analyses[i]);
    }
  });
  return analyses;
}

DiurnalCounts ReanalyzeDatasetColumnar(const ColumnarDatasetView& view,
                                       const AnalyzerConfig& config,
                                       int workers) {
  const std::size_t n = view.size();
  DiurnalCounts counts;
  if (n == 0) return counts;
  const std::size_t n_workers = std::min<std::size_t>(
      static_cast<std::size_t>(workers > 0 ? workers : HardwareWorkers()), n);
  // Same claim-counter fan-out as ReanalyzeDataset, but each worker
  // folds into a private DiurnalCounts and reuses ONE BlockAnalysis —
  // nothing per-block is ever materialized, which is what lets the
  // 1M-block sweep run in O(workers) memory over the mapping.
  std::atomic<std::size_t> next{0};
  std::vector<DiurnalCounts> partial(n_workers);
  util::ParallelFor(n_workers, [&](std::size_t w) {
    AnalysisScratch scratch;
    BlockAnalysis analysis;
    while (true) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      ReanalyzeColumnar(view, i, config, scratch, analysis);
      ClassifyAnalysis(analysis, /*quarantined=*/false, partial[w]);
    }
  });
  for (const auto& p : partial) {
    counts.strict += p.strict;
    counts.relaxed += p.relaxed;
    counts.non_diurnal += p.non_diurnal;
    counts.skipped += p.skipped;
  }
  return counts;
}

}  // namespace sleepwalk::core
