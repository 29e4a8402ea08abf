// Spectral-kernel benchmarks (google-benchmark): plan-based transforms
// vs the plan-free reference kernels at campaign-realistic sizes, plus
// the Goertzel-vs-FFT crossover.
//
// The custom main additionally writes BENCH_fft.json (override the path
// with SLEEPWALK_BENCH_FFT_OUT, empty string to skip) for
// scripts/bench_gate.sh:
//   * plan vs planless ns/transform and blocks/sec at
//       - 1834 samples (14 days x 131 rounds/day, even -> real-packed),
//       - 1833 samples (trimmed 14-day series, odd -> Bluestein only),
//       - 2048 samples (power of two),
//       - 4583 samples (prime, Bluestein's worst case);
//   * the campaign-realistic non-power-of-two speedup the acceptance
//     gate requires to stay >= 2x (plan + real-input vs the planless
//     ForwardReal the analyzer used before the plan cache);
//   * the bin count at which a planned full FFT beats per-bin Goertzel —
//     below the crossover a few O(n) Goertzel bins are cheaper, above
//     it the full FFT is.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <complex>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "sleepwalk/fft/fft.h"
#include "sleepwalk/fft/goertzel.h"
#include "sleepwalk/fft/plan.h"
#include "sleepwalk/fft/spectrum.h"
#include "sleepwalk/util/rng.h"

namespace sleepwalk {
namespace {

// Same synthetic diurnal-ish series generator as micro_perf: ~131
// rounds/day square wave plus noise.
std::vector<double> MakeSeries(std::size_t n) {
  Rng rng{42};
  std::vector<double> series(n);
  for (std::size_t i = 0; i < n; ++i) {
    series[i] = 0.5 + 0.3 * ((i % 131) < 50 ? 1.0 : -1.0) +
                0.05 * rng.NextGaussian();
  }
  return series;
}

void BM_ForwardRealPlanless(benchmark::State& state) {
  const auto series = MakeSeries(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fft::ForwardRealPlanless(series));
  }
}
BENCHMARK(BM_ForwardRealPlanless)->Arg(1834)->Arg(1833)->Arg(2048)->Arg(4583);

void BM_ForwardRealPlanned(benchmark::State& state) {
  const auto series = MakeSeries(static_cast<std::size_t>(state.range(0)));
  const auto plan = fft::GetPlan(series.size());
  fft::FftScratch scratch;
  std::vector<fft::Complex> out;
  plan->ForwardReal(series, scratch, out);  // warm scratch + output
  for (auto _ : state) {
    plan->ForwardReal(series, scratch, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ForwardRealPlanned)->Arg(1834)->Arg(1833)->Arg(2048)->Arg(4583);

void BM_InversePlanless(benchmark::State& state) {
  const auto series = MakeSeries(1834);
  const auto coeffs = fft::ForwardReal(series);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fft::InversePlanless(coeffs));
  }
}
BENCHMARK(BM_InversePlanless);

void BM_InversePlanned(benchmark::State& state) {
  const auto series = MakeSeries(1834);
  const auto coeffs = fft::ForwardReal(series);
  const auto plan = fft::GetPlan(coeffs.size());
  fft::FftScratch scratch;
  std::vector<fft::Complex> out;
  plan->Inverse(coeffs, scratch, out);
  for (auto _ : state) {
    plan->Inverse(coeffs, scratch, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_InversePlanned);

// --- plan ablation -> BENCH_fft.json -----------------------------------

/// ns/call of `fn` for one batch of `iters` calls.
template <typename Fn>
double BatchNsPerCall(Fn&& fn, int iters) {
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) fn();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double, std::nano>(elapsed).count() / iters;
}

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

std::string FormatFixed(double value, int decimals) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(decimals);
  out << value;
  return out.str();
}

struct SizeResult {
  std::size_t n = 0;
  const char* label = "";
  double planless_ns = 0.0;
  double plan_ns = 0.0;

  double Speedup() const { return plan_ns > 0.0 ? planless_ns / plan_ns : 0.0; }
};

/// Interleaved plan-vs-planless timing of ForwardReal at size n (the
/// same discipline as micro_perf's obs ablation: warm first, alternate
/// variants within each repeat so machine drift cancels).
SizeResult MeasureSize(std::size_t n, const char* label, int repeats,
                       int iters) {
  SizeResult result;
  result.n = n;
  result.label = label;

  const auto series = MakeSeries(n);
  const auto plan = fft::GetPlan(n);
  fft::FftScratch scratch;
  std::vector<fft::Complex> out;

  const auto planless = [&] {
    benchmark::DoNotOptimize(fft::ForwardRealPlanless(series));
  };
  const auto planned = [&] {
    plan->ForwardReal(series, scratch, out);
    benchmark::DoNotOptimize(out.data());
  };

  planless();
  planned();
  std::vector<double> planless_samples;
  std::vector<double> plan_samples;
  for (int r = 0; r < repeats; ++r) {
    planless_samples.push_back(BatchNsPerCall(planless, iters));
    plan_samples.push_back(BatchNsPerCall(planned, iters));
  }
  result.planless_ns = Median(std::move(planless_samples));
  result.plan_ns = Median(std::move(plan_samples));
  return result;
}

int WriteFftPerf(const std::string& path) {
  const int repeats = 15;
  const int iters = 30;
  constexpr double kSpeedupTarget = 2.0;

  // 14 days x 131 rounds/day = 1834 (even, real-packed path) is the
  // campaign-realistic non-power-of-two size the acceptance gate is
  // pinned to; 1833 is its odd midnight-trimmed sibling, 4583 is prime.
  const std::array<SizeResult, 4> sizes = {
      MeasureSize(1834, "campaign_14day_even", repeats, iters),
      MeasureSize(1833, "campaign_14day_trimmed", repeats, iters),
      MeasureSize(2048, "power_of_two", repeats, iters),
      MeasureSize(4583, "prime", repeats, iters),
  };
  const SizeResult& campaign = sizes[0];

  // Goertzel-vs-FFT crossover at the campaign size: per-bin cost of the
  // single-pass multi-bin evaluator against one planned full transform.
  const auto series = MakeSeries(1834);
  const auto plan = fft::GetPlan(series.size());
  fft::FftScratch scratch;
  std::vector<fft::Complex> out;
  plan->ForwardReal(series, scratch, out);
  constexpr std::size_t kProbeBins = 8;
  std::array<std::size_t, kProbeBins> bins{};
  for (std::size_t i = 0; i < kProbeBins; ++i) bins[i] = 14 + i;
  std::array<std::complex<double>, kProbeBins> coeffs{};
  const auto goertzel = [&] {
    fft::GoertzelMany(series, bins, coeffs);
    benchmark::DoNotOptimize(coeffs.data());
  };
  goertzel();
  std::vector<double> goertzel_samples;
  for (int r = 0; r < repeats; ++r) {
    goertzel_samples.push_back(BatchNsPerCall(goertzel, iters));
  }
  const double goertzel_per_bin_ns =
      Median(std::move(goertzel_samples)) / static_cast<double>(kProbeBins);
  const double crossover_bins =
      goertzel_per_bin_ns > 0.0 ? campaign.plan_ns / goertzel_per_bin_ns
                                : 0.0;

  std::ofstream file{path, std::ios::trunc};
  if (!file) {
    std::cerr << "fft_perf: cannot write " << path << "\n";
    return 1;
  }
  file << "{\n"
       << "  \"bench\": \"fft_plan_vs_planless\",\n"
       << "  \"repeats\": " << repeats << ",\n"
       << "  \"iters_per_repeat\": " << iters << ",\n"
       << "  \"sizes\": [\n";
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const auto& s = sizes[i];
    const double plan_bps = s.plan_ns > 0.0 ? 1e9 / s.plan_ns : 0.0;
    const double planless_bps =
        s.planless_ns > 0.0 ? 1e9 / s.planless_ns : 0.0;
    file << "    {\"n\": " << s.n << ", \"label\": \"" << s.label
         << "\", \"planless_ns\": " << FormatFixed(s.planless_ns, 1)
         << ", \"plan_ns\": " << FormatFixed(s.plan_ns, 1)
         << ", \"planless_blocks_per_sec\": " << FormatFixed(planless_bps, 0)
         << ", \"plan_blocks_per_sec\": " << FormatFixed(plan_bps, 0)
         << ", \"speedup\": " << FormatFixed(s.Speedup(), 3) << "}"
         << (i + 1 < sizes.size() ? "," : "") << "\n";
  }
  file << "  ],\n"
       << "  \"campaign_even_speedup\": "
       << FormatFixed(campaign.Speedup(), 3) << ",\n"
       << "  \"speedup_target\": " << FormatFixed(kSpeedupTarget, 1) << ",\n"
       << "  \"campaign_speedup_within_target\": "
       << (campaign.Speedup() >= kSpeedupTarget ? "true" : "false") << ",\n"
       << "  \"goertzel_ns_per_bin\": " << FormatFixed(goertzel_per_bin_ns, 1)
       << ",\n"
       << "  \"goertzel_fft_crossover_bins\": "
       << FormatFixed(crossover_bins, 1) << "\n"
       << "}\n";

  for (const auto& s : sizes) {
    std::cout << "fft_perf n=" << s.n << " (" << s.label << "): planless "
              << FormatFixed(s.planless_ns, 0) << " ns, plan "
              << FormatFixed(s.plan_ns, 0) << " ns, speedup "
              << FormatFixed(s.Speedup(), 2) << "x\n";
  }
  std::cout << "fft_perf goertzel/bin " << FormatFixed(goertzel_per_bin_ns, 0)
            << " ns, FFT==Goertzel at ~" << FormatFixed(crossover_bins, 1)
            << " bins -> " << path << "\n";
  return 0;
}

}  // namespace
}  // namespace sleepwalk

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::string path = "BENCH_fft.json";
  if (const char* env = std::getenv("SLEEPWALK_BENCH_FFT_OUT")) path = env;
  if (path.empty()) return 0;  // ablation disabled
  return sleepwalk::WriteFftPerf(path);
}
