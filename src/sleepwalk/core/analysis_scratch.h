// Per-worker working memory for the analysis hot loop.
//
// The steady-state pipeline — resample -> trim -> stationarity -> FFT ->
// classify — runs once per block, millions of times per campaign. Every
// stage used to allocate its working vectors per call; at scale that
// malloc traffic (and the cross-thread contention inside the allocator)
// is pure overhead, since consecutive blocks need identically-sized
// buffers. AnalysisScratch bundles each stage's buffers into one arena a
// worker owns for its whole shard: after the first block warms the
// capacities, BlockAnalyzer::Finish(scratch, out) performs zero heap
// allocations (enforced by tests/core/zero_alloc_test.cc).
//
// Not thread-safe — one AnalysisScratch per worker, by construction of
// the sharded executor. Sharing the immutable fft::Plan tables across
// workers while keeping all mutable state here is what preserves the
// N-worker byte-identity invariant (DESIGN.md §9, §10).
#ifndef SLEEPWALK_CORE_ANALYSIS_SCRATCH_H_
#define SLEEPWALK_CORE_ANALYSIS_SCRATCH_H_

#include <vector>

#include "sleepwalk/fft/plan.h"
#include "sleepwalk/ts/clean.h"
#include "sleepwalk/ts/series.h"

namespace sleepwalk::core {

/// One worker's reusable buffers for BlockAnalyzer::Finish and friends.
struct AnalysisScratch {
  fft::FftScratch fft;            ///< transform buffers + memoized plan
  std::vector<double> amplitude;  ///< one-sided |X_k| the classifier scans
  ts::RegularizeScratch regularize;  ///< per-round slot tables
  ts::EvenSeries even;            ///< regularized series
  std::vector<double> index;      ///< stationarity regressor (0, 1, ...)
  // Columnar sweep buffers (core/store_analyzer.h, dataset reanalysis):
  std::vector<ts::Observation> observations;  ///< ring copy, round order
  ts::EvenSeries trimmed;         ///< midnight-trimmed series (no out.)
  std::vector<double> samples;    ///< f32 -> f64 widening (SLPW v3)
};

}  // namespace sleepwalk::core

#endif  // SLEEPWALK_CORE_ANALYSIS_SCRATCH_H_
