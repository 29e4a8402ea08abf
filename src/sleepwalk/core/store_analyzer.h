// End-of-campaign analysis as a batch sweep over BlockStore columns.
//
// The scalar path (BlockAnalyzer::Finish) finalizes one block at a
// time from per-block heap state. At paper scale the analyzer input
// lives in the store's series ring columns instead, and this sweep
// runs the identical stage chain — copy the ring in round order,
// ts::Regularize, ts::TrimToMidnightUtc, mean, ts::TestStationarity,
// ClassifyDiurnal through the plan cache — over contiguous block
// ranges, reusing ONE AnalysisScratch (and thus one FftScratch) per
// worker. Results land in the store's existing verdict columns.
//
// Equivalence contract: for the same recorded samples the verdict
// columns are bitwise identical to projecting the scalar
// BlockAnalyzer::Finish output through VerdictOf (campaign_ledger.cc)
// — same ts::/core:: calls, same doubles, same order; proven by
// tests/core/store_analyzer_test.cc and re-checked at scale by
// bench/parallel_scaling.
#ifndef SLEEPWALK_CORE_STORE_ANALYZER_H_
#define SLEEPWALK_CORE_STORE_ANALYZER_H_

#include <cstdint>

#include "sleepwalk/core/analysis_scratch.h"
#include "sleepwalk/core/block_store.h"
#include "sleepwalk/core/diurnal.h"
#include "sleepwalk/probing/scheduler.h"

namespace sleepwalk::core {

/// Sweep knobs: the analysis-stage subset of AnalyzerConfig.
struct StoreAnalyzerConfig {
  probing::ScheduleConfig schedule;  ///< round_seconds + epoch_sec
  DiurnalConfig diurnal;
  /// Stationarity threshold: address changes per day (§2.2).
  double max_trend_addresses_per_day = 1.0;
};

/// What a sweep saw (summed across workers; deterministic).
struct StoreAnalyzeStats {
  std::uint64_t analyzed = 0;      ///< blocks with any recorded rounds
  std::uint64_t classified = 0;    ///< reached the classify stage
  std::uint64_t diurnal = 0;       ///< classified != non-diurnal
  /// Always 0: every classified block runs the full FFT test. Kept
  /// only because bench/sleepbench's traced copy of the sweep still sums
  /// it; it goes when ROADMAP item 1 deletes that copy.
  std::uint64_t screened_out = 0;
};

/// Analyzes blocks [begin, end) in place, one block at a time through
/// `scratch`. Single-threaded; the unit of work AnalyzeStore shards.
StoreAnalyzeStats AnalyzeStoreRange(BlockStore& store, std::size_t begin,
                                    std::size_t end,
                                    const StoreAnalyzerConfig& config,
                                    AnalysisScratch& scratch);

/// Full-store sweep with `workers` threads owning contiguous ranges
/// (util::SplitRange; one inline worker when <= 1). Block verdicts are
/// index-local, so any worker count produces byte-identical columns.
StoreAnalyzeStats AnalyzeStore(BlockStore& store,
                               const StoreAnalyzerConfig& config,
                               int workers = 1);

}  // namespace sleepwalk::core

#endif  // SLEEPWALK_CORE_STORE_ANALYZER_H_
