#include "sleepwalk/fft/spectrum.h"

#include <cmath>
#include <numbers>
#include <numeric>

#include "sleepwalk/fft/fft.h"

namespace sleepwalk::fft {

namespace {

void RemoveMean(std::vector<double>& series) {
  const double mean = std::accumulate(series.begin(), series.end(), 0.0) /
                      static_cast<double>(series.size());
  for (auto& value : series) value -= mean;
}

// Least-squares removal of a + b*i (closed form over the index grid).
void Detrend(std::vector<double>& series) {
  const auto n = static_cast<double>(series.size());
  if (series.size() < 2) return;
  const double mean_x = (n - 1.0) / 2.0;
  double mean_y = 0.0;
  for (const double v : series) mean_y += v;
  mean_y /= n;
  double sxy = 0.0;
  double sxx = 0.0;
  for (std::size_t i = 0; i < series.size(); ++i) {
    const double dx = static_cast<double>(i) - mean_x;
    sxy += dx * (series[i] - mean_y);
    sxx += dx * dx;
  }
  const double slope = sxx > 0.0 ? sxy / sxx : 0.0;
  for (std::size_t i = 0; i < series.size(); ++i) {
    series[i] -= mean_y + slope * (static_cast<double>(i) - mean_x);
  }
}

void ApplyHann(std::vector<double>& series) {
  const auto n = static_cast<double>(series.size());
  if (series.size() < 2) return;
  for (std::size_t i = 0; i < series.size(); ++i) {
    const double w = 0.5 * (1.0 - std::cos(2.0 * std::numbers::pi *
                                           static_cast<double>(i) /
                                           (n - 1.0)));
    series[i] *= w;
  }
}

}  // namespace

std::span<const Complex> ComputeCoefficients(std::span<const double> series,
                                             const SpectrumOptions& options,
                                             FftScratch& scratch) {
  const std::size_t n = series.size();
  scratch.coeffs.clear();
  if (n == 0) return {};

  scratch.real.assign(series.begin(), series.end());
  if (options.detrend) {
    Detrend(scratch.real);
  } else if (options.remove_mean) {
    RemoveMean(scratch.real);
  }
  if (options.hann_window) ApplyHann(scratch.real);

  // The scratch memoizes the last plan so a worker grinding through
  // same-length blocks never touches the PlanCache mutex.
  if (scratch.plan == nullptr || scratch.plan->size() != n) {
    scratch.plan = GetPlan(n);
  }
  scratch.plan->ForwardRealOneSided(scratch.real, scratch, scratch.coeffs);
  return scratch.coeffs;
}

void ComputeSpectrum(std::span<const double> series,
                     const SpectrumOptions& options, FftScratch& scratch,
                     Spectrum& out) {
  const auto coeffs = ComputeCoefficients(series, options, scratch);
  out.input_size = series.size();
  out.amplitude.resize(coeffs.size());
  out.phase.resize(coeffs.size());
  for (std::size_t k = 0; k < coeffs.size(); ++k) {
    out.amplitude[k] = std::abs(coeffs[k]);
    out.phase[k] = std::arg(coeffs[k]);
  }
}

Spectrum ComputeSpectrum(std::span<const double> series,
                         const SpectrumOptions& options) {
  FftScratch scratch;
  Spectrum spectrum;
  ComputeSpectrum(series, options, scratch, spectrum);
  return spectrum;
}

Spectrum ComputeSpectrum(std::span<const double> series, bool remove_mean) {
  SpectrumOptions options;
  options.remove_mean = remove_mean;
  return ComputeSpectrum(series, options);
}

std::size_t StrongestBin(const Spectrum& spectrum) noexcept {
  std::size_t best = 0;
  double best_amp = -1.0;
  for (std::size_t k = 1; k < spectrum.size(); ++k) {
    if (spectrum.amplitude[k] > best_amp) {
      best_amp = spectrum.amplitude[k];
      best = k;
    }
  }
  return best;
}

}  // namespace sleepwalk::fft
