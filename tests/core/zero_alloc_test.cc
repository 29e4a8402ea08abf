// Allocation-count tests for the analysis hot loop: once scratch and
// output capacities are warm, BlockAnalyzer::Finish / Reanalyze /
// ComputeSpectrum must perform ZERO heap allocations (DESIGN.md §10).
// Built as its own binary because it replaces the global operator
// new/delete with counting versions — that replacement is process-wide
// and must not leak into other suites.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include "sleepwalk/core/block_analyzer.h"
#include "sleepwalk/core/dataset.h"
#include "sleepwalk/fft/plan.h"
#include "sleepwalk/fft/spectrum.h"
#include "sleepwalk/probing/scheduler.h"
#include "sleepwalk/sim/block.h"
#include "sleepwalk/sim/survey.h"
#include "sleepwalk/util/rng.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

void* CountedAllocate(std::size_t size, std::size_t alignment) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  void* ptr = nullptr;
  if (alignment > alignof(std::max_align_t)) {
    // aligned_alloc requires size to be a multiple of the alignment.
    const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
    ptr = std::aligned_alloc(alignment, rounded);
  } else {
    ptr = std::malloc(size > 0 ? size : 1);
  }
  if (ptr == nullptr) throw std::bad_alloc{};
  return ptr;
}

/// Counts global operator new hits (all variants) while alive.
class AllocationCounter {
 public:
  AllocationCounter() {
    g_allocations.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
  }
  ~AllocationCounter() { g_counting.store(false, std::memory_order_relaxed); }
  AllocationCounter(const AllocationCounter&) = delete;
  AllocationCounter& operator=(const AllocationCounter&) = delete;

  std::size_t count() const {
    return g_allocations.load(std::memory_order_relaxed);
  }
};

}  // namespace

void* operator new(std::size_t size) {
  return CountedAllocate(size, 0);
}
void* operator new[](std::size_t size) {
  return CountedAllocate(size, 0);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAllocate(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAllocate(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAllocate(size, 0);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAllocate(size, 0);
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}

namespace sleepwalk::core {
namespace {

sim::BlockSpec DiurnalSpec() {
  sim::BlockSpec spec;
  spec.block = net::Prefix24::FromIndex(500);
  spec.seed = 0x11;
  spec.n_always = 30;
  spec.n_diurnal = 120;
  spec.response_prob = 0.95F;
  spec.on_start_sec = 8.0F * 3600.0F;
  spec.on_duration_sec = 9.0F * 3600.0F;
  spec.phase_spread_sec = 2.0F * 3600.0F;
  return spec;
}

TEST(ZeroAlloc, BlockAnalyzerFinishSteadyState) {
  const auto spec = DiurnalSpec();
  AnalyzerConfig config;
  config.schedule.epoch_sec = 0;
  sim::SimTransport transport{3};
  transport.AddBlock(&spec);
  probing::RoundScheduler scheduler{config.schedule};
  BlockAnalyzer analyzer{spec.block, sim::EverActiveOctets(spec),
                         sim::TrueAvailability(spec, 12 * 3600), 3, config};
  analyzer.RunCampaign(transport, scheduler.RoundsForDays(14));

  AnalysisScratch scratch;
  BlockAnalysis analysis;
  // Two warm-up calls: the first grows every buffer to its high-water
  // mark, the second proves the marks are stable.
  analyzer.Finish(scratch, analysis);
  analyzer.Finish(scratch, analysis);
  ASSERT_TRUE(analysis.probed);
  ASSERT_TRUE(analysis.diurnal.IsDiurnal());

  AllocationCounter counter;
  analyzer.Finish(scratch, analysis);
  EXPECT_EQ(counter.count(), 0u)
      << "Finish() allocated on a warm scratch/output pair";
}

TEST(ZeroAlloc, ReanalyzeSteadyState) {
  const auto spec = DiurnalSpec();
  AnalyzerConfig config;
  config.schedule.epoch_sec = 0;
  sim::SimTransport transport{3};
  transport.AddBlock(&spec);
  probing::RoundScheduler scheduler{config.schedule};
  BlockAnalyzer analyzer{spec.block, sim::EverActiveOctets(spec),
                         sim::TrueAvailability(spec, 12 * 3600), 3, config};
  analyzer.RunCampaign(transport, scheduler.RoundsForDays(14));
  const BlockAnalysis finished = analyzer.Finish();

  StoredSeries stored;
  stored.block = finished.block;
  stored.ever_active = finished.ever_active;
  stored.probed = finished.probed;
  stored.series = finished.short_series;

  AnalysisScratch scratch;
  BlockAnalysis analysis;
  Reanalyze(stored, config, scratch, analysis);
  Reanalyze(stored, config, scratch, analysis);
  ASSERT_TRUE(analysis.probed);

  AllocationCounter counter;
  Reanalyze(stored, config, scratch, analysis);
  EXPECT_EQ(counter.count(), 0u)
      << "Reanalyze() allocated on a warm scratch/output pair";
}

TEST(ZeroAlloc, ComputeSpectrumSteadyState) {
  Rng rng{42};
  std::vector<double> series(1834);
  for (auto& value : series) value = rng.NextDouble();

  const fft::SpectrumOptions options;
  fft::FftScratch scratch;
  fft::Spectrum spectrum;
  fft::ComputeSpectrum(series, options, scratch, spectrum);
  fft::ComputeSpectrum(series, options, scratch, spectrum);

  AllocationCounter counter;
  fft::ComputeSpectrum(series, options, scratch, spectrum);
  EXPECT_EQ(counter.count(), 0u)
      << "ComputeSpectrum allocated on warm scratch";

  // Odd length exercises the Bluestein path's scratch reuse too.
  series.resize(1833);
  fft::ComputeSpectrum(series, options, scratch, spectrum);
  fft::ComputeSpectrum(series, options, scratch, spectrum);
  AllocationCounter bluestein_counter;
  fft::ComputeSpectrum(series, options, scratch, spectrum);
  EXPECT_EQ(bluestein_counter.count(), 0u)
      << "Bluestein ComputeSpectrum allocated on warm scratch";
}

}  // namespace
}  // namespace sleepwalk::core
