// Micro-benchmarks (google-benchmark): throughput of the hot paths —
// FFT variants vs Goertzel, the availability estimator, the adaptive
// prober, and end-to-end block analysis. Quantifies the Goertzel-vs-FFT
// tradeoff called out in DESIGN.md §5.
//
// The custom main additionally runs the observability ablation and
// writes BENCH_obs.json (override the path with SLEEPWALK_BENCH_OBS_OUT,
// empty string to skip): classify throughput with (a) no obs touchpoints
// compiled in the call, (b) a null obs::Context (the one-branch
// configuration every campaign without sinks pays), (c) full sinks. The
// contract in obs/context.h is (b) within 2% of (a) on this hot path.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sleepwalk/core/block_analyzer.h"
#include "sleepwalk/core/diurnal.h"
#include "sleepwalk/core/status.h"
#include "sleepwalk/fft/fft.h"
#include "sleepwalk/fft/goertzel.h"
#include "sleepwalk/fft/spectrum.h"
#include "sleepwalk/obs/context.h"
#include "sleepwalk/serve/admin_server.h"
#include "sleepwalk/serve/routes.h"
#include "sleepwalk/sim/block.h"
#include "sleepwalk/util/rng.h"

namespace sleepwalk {
namespace {

std::vector<double> MakeSeries(std::size_t n) {
  Rng rng{42};
  std::vector<double> series(n);
  for (std::size_t i = 0; i < n; ++i) {
    series[i] = 0.5 + 0.3 * ((i % 131) < 50 ? 1.0 : -1.0) +
                0.05 * rng.NextGaussian();
  }
  return series;
}

void BM_FftPowerOfTwo(benchmark::State& state) {
  const auto series = MakeSeries(2048);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fft::ForwardReal(series));
  }
}
BENCHMARK(BM_FftPowerOfTwo);

void BM_FftBluestein14Day(benchmark::State& state) {
  const auto series = MakeSeries(1833);  // 14 days of 11-min rounds
  for (auto _ : state) {
    benchmark::DoNotOptimize(fft::ForwardReal(series));
  }
}
BENCHMARK(BM_FftBluestein14Day);

void BM_FftBluestein35Day(benchmark::State& state) {
  const auto series = MakeSeries(4582);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fft::ForwardReal(series));
  }
}
BENCHMARK(BM_FftBluestein35Day);

void BM_GoertzelDailyBinOnly(benchmark::State& state) {
  const auto series = MakeSeries(4582);
  for (auto _ : state) {
    // Detection-only workload: daily bin + neighbour + first harmonic.
    benchmark::DoNotOptimize(fft::Goertzel(series, 35));
    benchmark::DoNotOptimize(fft::Goertzel(series, 36));
    benchmark::DoNotOptimize(fft::Goertzel(series, 70));
  }
}
BENCHMARK(BM_GoertzelDailyBinOnly);

void BM_SpectrumAndClassify(benchmark::State& state) {
  const auto series = MakeSeries(1833);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ClassifyDiurnal(series, 14));
  }
}
BENCHMARK(BM_SpectrumAndClassify);

void BM_SpectrumAndClassifyNullObs(benchmark::State& state) {
  // Same workload through the instrumentation seam with no sinks: the
  // delta vs BM_SpectrumAndClassify is the null-context overhead.
  const auto series = MakeSeries(1833);
  const obs::Context context;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ClassifyDiurnal(series, 14, {}, &context));
  }
}
BENCHMARK(BM_SpectrumAndClassifyNullObs);

void BM_SpectrumAndClassifyInstrumented(benchmark::State& state) {
  const auto series = MakeSeries(1833);
  obs::Registry registry;
  obs::Tracer tracer;
  obs::Logger logger;  // no sinks: logging is off, tracing is live
  const obs::Context context{&logger, &registry, &tracer};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ClassifyDiurnal(series, 14, {}, &context));
  }
}
BENCHMARK(BM_SpectrumAndClassifyInstrumented);

void BM_AvailabilityEstimatorObserve(benchmark::State& state) {
  core::AvailabilityEstimator estimator{0.5};
  Rng rng{7};
  for (auto _ : state) {
    estimator.Observe(rng.NextBool(0.6) ? 1 : 0,
                      1 + static_cast<int>(rng.NextBelow(15)));
    benchmark::DoNotOptimize(estimator.Operational());
  }
}
BENCHMARK(BM_AvailabilityEstimatorObserve);

void BM_ProberRound(benchmark::State& state) {
  sim::BlockSpec spec;
  spec.block = net::Prefix24::FromIndex(100);
  spec.seed = 0x1;
  spec.n_always = 30;
  spec.n_diurnal = 100;
  spec.response_prob = 0.9F;
  sim::SimTransport transport{3};
  transport.AddBlock(&spec);
  probing::AdaptiveProber prober{spec.block, sim::EverActiveOctets(spec),
                                 0x2};
  std::int64_t round = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        prober.RunRound(transport, round, round * 660, 0.6));
    ++round;
  }
}
BENCHMARK(BM_ProberRound);

void BM_BlockCampaign14Days(benchmark::State& state) {
  sim::BlockSpec spec;
  spec.block = net::Prefix24::FromIndex(100);
  spec.seed = 0x1;
  spec.n_always = 30;
  spec.n_diurnal = 100;
  spec.response_prob = 0.9F;
  for (auto _ : state) {
    sim::SimTransport transport{3};
    transport.AddBlock(&spec);
    core::BlockAnalyzer analyzer{spec.block, sim::EverActiveOctets(spec),
                                 0.7, 0x5eed, {}};
    analyzer.RunCampaign(transport, 1833);
    benchmark::DoNotOptimize(analyzer.Finish());
  }
}
BENCHMARK(BM_BlockCampaign14Days);

// --- observability ablation -> BENCH_obs.json --------------------------

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

/// One loopback GET /metrics against the admin server, response drained
/// and discarded. Returns false when the connection fails.
bool ScrapeMetricsOnce(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  bool ok = false;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    constexpr char kRequest[] =
        "GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n";
    ok = ::write(fd, kRequest, sizeof(kRequest) - 1) ==
         static_cast<ssize_t>(sizeof(kRequest) - 1);
    char buf[4096];
    while (::read(fd, buf, sizeof(buf)) > 0) {
    }
  }
  ::close(fd);
  return ok;
}

/// Times ClassifyDiurnal (the analyze hot path: Bluestein FFT + spectral
/// classification of a 14-day series) bare, through a null obs::Context,
/// and fully instrumented, and writes the ablation as JSON.
int WriteObsAblation(const std::string& path) {
  const auto series = MakeSeries(1833);
  const int repeats = 15;
  const int iters = 40;

  const obs::Context null_context;
  obs::Registry registry;
  obs::Tracer tracer;
  obs::Logger logger;
  const obs::Context full_context{&logger, &registry, &tracer};

  const auto bare = [&] {
    benchmark::DoNotOptimize(core::ClassifyDiurnal(series, 14));
  };
  const auto with_null = [&] {
    benchmark::DoNotOptimize(
        core::ClassifyDiurnal(series, 14, {}, &null_context));
  };
  const auto with_sinks = [&] {
    benchmark::DoNotOptimize(
        core::ClassifyDiurnal(series, 14, {}, &full_context));
  };

  // Warm-up, then interleave the three variants within every repeat so
  // slow machine-level drift (thermal, noisy neighbours) cancels out of
  // the comparison instead of biasing whichever variant ran last.
  bare();
  with_null();
  with_sinks();
  std::vector<double> baseline_samples;
  std::vector<double> null_samples;
  std::vector<double> instrumented_samples;
  for (int r = 0; r < repeats; ++r) {
    baseline_samples.push_back(BatchNsPerCall(bare, iters));
    null_samples.push_back(BatchNsPerCall(with_null, iters));
    instrumented_samples.push_back(BatchNsPerCall(with_sinks, iters));
  }
  const double baseline_ns = Median(std::move(baseline_samples));
  const double null_ns = Median(std::move(null_samples));
  const double instrumented_ns = Median(std::move(instrumented_samples));

  // Admin-attached variant: the same fully instrumented workload while
  // an AdminServer over the same registry/tracer is scraped from another
  // thread every ~1 ms — orders of magnitude harder than any real
  // Prometheus cadence, so this bounds what attaching the admin plane
  // can cost the hot path without degenerating into a pure scheduler
  // interference bench.
  core::StatusHub status_hub;
  serve::AdminServer admin;
  serve::AdminPlane plane;
  plane.metrics = &registry;
  plane.tracer = &tracer;
  plane.status = &status_hub;
  serve::InstallAdminRoutes(admin, plane);
  const bool admin_attached = admin.Start(0, nullptr);
  double admin_ns = 0.0;
  std::uint64_t admin_scrapes = 0;
  if (admin_attached) {
    std::atomic<bool> stop_scraper{false};
    std::thread scraper{[&] {
      while (!stop_scraper.load(std::memory_order_relaxed)) {
        if (ScrapeMetricsOnce(admin.port())) ++admin_scrapes;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }};
    with_sinks();  // warm again under contention
    std::vector<double> admin_samples;
    for (int r = 0; r < repeats; ++r) {
      admin_samples.push_back(BatchNsPerCall(with_sinks, iters));
    }
    admin_ns = Median(std::move(admin_samples));
    stop_scraper.store(true, std::memory_order_relaxed);
    scraper.join();
    admin.Stop();
  }

  const auto overhead_pct = [&](double ns) {
    return baseline_ns > 0.0 ? (ns - baseline_ns) / baseline_ns * 100.0 : 0.0;
  };
  const double null_overhead = overhead_pct(null_ns);
  const double instrumented_overhead = overhead_pct(instrumented_ns);
  const double admin_overhead = admin_attached ? overhead_pct(admin_ns) : 0.0;
  // Scrape interference is scheduler-dominated and noisy on shared
  // runners, so the admin contract is a coarse same-machine budget (like
  // checkpoint_io's durability gate), not a drift bound: being watched
  // this hard may not cost the hot path more than half its throughput.
  constexpr double kAdminBudgetPct = 50.0;

  std::ofstream out{path, std::ios::trunc};
  if (!out) {
    std::cerr << "micro_perf: cannot write " << path << "\n";
    return 1;
  }
  out << "{\n"
      << "  \"bench\": \"classify_diurnal_14day_1833_samples\",\n"
      << "  \"repeats\": " << repeats << ",\n"
      << "  \"iters_per_repeat\": " << iters << ",\n"
      << "  \"baseline_ns_per_call\": " << FormatFixed(baseline_ns, 1)
      << ",\n"
      << "  \"null_context_ns_per_call\": " << FormatFixed(null_ns, 1)
      << ",\n"
      << "  \"instrumented_ns_per_call\": "
      << FormatFixed(instrumented_ns, 1) << ",\n"
      << "  \"null_context_overhead_pct\": "
      << FormatFixed(null_overhead, 2) << ",\n"
      << "  \"instrumented_overhead_pct\": "
      << FormatFixed(instrumented_overhead, 2) << ",\n"
      << "  \"admin_attached\": " << (admin_attached ? "true" : "false")
      << ",\n"
      << "  \"admin_attached_ns_per_call\": " << FormatFixed(admin_ns, 1)
      << ",\n"
      << "  \"admin_attached_overhead_pct\": "
      << FormatFixed(admin_overhead, 2) << ",\n"
      << "  \"admin_scrapes_during_bench\": " << admin_scrapes << ",\n"
      << "  \"admin_overhead_budget_pct\": "
      << FormatFixed(kAdminBudgetPct, 1) << ",\n"
      << "  \"admin_within_budget\": "
      << (!admin_attached || admin_overhead < kAdminBudgetPct ? "true"
                                                              : "false")
      << ",\n"
      << "  \"budget_pct\": 2.0,\n"
      << "  \"null_context_within_budget\": "
      << (null_overhead < 2.0 ? "true" : "false") << "\n"
      << "}\n";
  std::cout << "obs ablation: baseline " << FormatFixed(baseline_ns, 0)
            << " ns, null-context " << FormatFixed(null_ns, 0) << " ns ("
            << FormatFixed(null_overhead, 2) << "%), instrumented "
            << FormatFixed(instrumented_ns, 0) << " ns ("
            << FormatFixed(instrumented_overhead, 2) << "%), admin-attached "
            << FormatFixed(admin_ns, 0) << " ns ("
            << FormatFixed(admin_overhead, 2) << "%, " << admin_scrapes
            << " scrapes) -> " << path << "\n";
  return 0;
}

}  // namespace
}  // namespace sleepwalk

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::string path = "BENCH_obs.json";
  if (const char* env = std::getenv("SLEEPWALK_BENCH_OBS_OUT")) path = env;
  if (path.empty()) return 0;  // ablation disabled
  return sleepwalk::WriteObsAblation(path);
}
