#include "sleepwalk/core/store_analyzer.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "sleepwalk/ts/clean.h"
#include "sleepwalk/ts/stationarity.h"
#include "sleepwalk/util/parallel.h"

namespace sleepwalk::core {

StoreAnalyzeStats AnalyzeStoreRange(BlockStore& store, std::size_t begin,
                                    std::size_t end,
                                    const StoreAnalyzerConfig& config,
                                    AnalysisScratch& scratch) {
  StoreAnalyzeStats stats;
  end = std::min(end, store.size());
  const auto prefixes = store.prefix_index();
  const auto rounds = store.rounds();
  const auto probes = store.probes();
  const auto down_rounds = store.down_rounds();
  const auto flags = store.flags();
  const auto ever_active = store.ever_active();

  for (std::size_t i = begin; i < end; ++i) {
    // Mirror of BlockAnalyzer::Finish + VerdictOf, field for field. The
    // verdict starts from the Finish() reset state (all zero) with the
    // identity/bookkeeping fields the sweep does not compute preserved.
    BlockVerdict verdict;
    verdict.prefix_index = prefixes[i];
    verdict.quarantined = (flags[i] & kBlockFlagQuarantined) != 0;
    verdict.ever_active = ever_active[i];
    verdict.probed = rounds[i] > 0;
    const AvailabilityState estimator = store.ExportEstimator(i);
    if (!verdict.probed) {
      store.RecordVerdict(i, verdict, estimator);
      continue;
    }
    ++stats.analyzed;

    // Accounting stage (set even when the series is too short to
    // classify, exactly like the scalar path).
    verdict.final_operational =
        AvailabilityOperational(estimator, store.config());
    verdict.mean_probes_per_round = static_cast<double>(probes[i]) /
                                    static_cast<double>(rounds[i]);
    verdict.down_rounds = down_rounds[i];

    store.CopySeriesOrdered(i, scratch.observations);
    bool ok = ts::Regularize(
        std::span<const ts::Observation>(scratch.observations),
        scratch.regularize, scratch.even);
    if (ok) {
      ok = ts::TrimToMidnightUtc(scratch.even, config.schedule.epoch_sec,
                                 config.schedule.round_seconds,
                                 scratch.trimmed);
    }
    if (!ok) {
      store.RecordVerdict(i, verdict, estimator);
      continue;
    }

    verdict.observed_days = ts::WholeDays(scratch.trimmed.size(),
                                          config.schedule.round_seconds);
    verdict.mean_short =
        std::accumulate(scratch.trimmed.values.begin(),
                        scratch.trimmed.values.end(), 0.0) /
        static_cast<double>(scratch.trimmed.values.size());
    verdict.stationary =
        ts::TestStationarity(scratch.trimmed.values, ever_active[i],
                             config.max_trend_addresses_per_day,
                             config.schedule.round_seconds, scratch.index)
            .stationary;

    ++stats.classified;
    const DiurnalResult diurnal =
        ClassifyDiurnal(scratch.trimmed.values, verdict.observed_days,
                        config.diurnal, nullptr, scratch);
    verdict.classification =
        static_cast<std::uint8_t>(diurnal.classification);
    if (diurnal.IsDiurnal()) ++stats.diurnal;
    store.RecordVerdict(i, verdict, estimator);
  }
  return stats;
}

StoreAnalyzeStats AnalyzeStore(BlockStore& store,
                               const StoreAnalyzerConfig& config,
                               int workers) {
  // Contiguous ranges like the campaign's RunSegment: every verdict is
  // index-local, so the columns come out byte-identical at any width.
  const auto ranges = util::SplitRange(
      store.size(), static_cast<std::size_t>(std::max(workers, 1)));
  std::vector<StoreAnalyzeStats> partial(ranges.size());
  util::ParallelFor(ranges.size(), [&](std::size_t w) {
    AnalysisScratch scratch;
    partial[w] = AnalyzeStoreRange(store, ranges[w].begin, ranges[w].end,
                                   config, scratch);
  });
  StoreAnalyzeStats stats;
  for (const auto& p : partial) {
    stats.analyzed += p.analyzed;
    stats.classified += p.classified;
    stats.diurnal += p.diurnal;
  }
  return stats;
}

}  // namespace sleepwalk::core
