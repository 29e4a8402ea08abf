#include "sleepwalk/core/diurnal.h"

#include <algorithm>
#include <complex>

namespace sleepwalk::core {

namespace {

bool InDailySet(std::size_t bin, std::size_t daily, int neighbors) noexcept {
  return bin >= daily && bin <= daily + static_cast<std::size_t>(neighbors);
}

bool InHarmonicSet(std::size_t bin, std::size_t daily, int neighbors,
                   int max_harmonic) noexcept {
  for (int m = 2; m <= max_harmonic; ++m) {
    const std::size_t h = daily * static_cast<std::size_t>(m);
    if (bin >= h && bin <= h + static_cast<std::size_t>(neighbors)) {
      return true;
    }
  }
  return false;
}

// The §2.2 test on one-sided amplitudes; `phase_at(bin)` supplies the
// phase of the chosen daily bin, the only phase the result carries.
template <typename PhaseAt>
DiurnalResult ClassifyAmplitudes(std::span<const double> amplitude,
                                 int n_days, const DiurnalConfig& config,
                                 const PhaseAt& phase_at) {
  DiurnalResult result;
  result.n_days = n_days;
  if (n_days < 2) return result;
  const auto daily = static_cast<std::size_t>(n_days);
  // Need at least the first harmonic in range for a meaningful test.
  if (amplitude.size() <= 2 * daily + 1) return result;

  // Daily component: the stronger of bins N_d and N_d + neighbor_bins.
  result.daily_bin = daily;
  result.daily_amplitude = amplitude[daily];
  for (int j = 1; j <= config.neighbor_bins; ++j) {
    const std::size_t bin = daily + static_cast<std::size_t>(j);
    if (bin < amplitude.size() && amplitude[bin] > result.daily_amplitude) {
      result.daily_amplitude = amplitude[bin];
      result.daily_bin = bin;
    }
  }
  result.phase = phase_at(result.daily_bin);

  // Scan all non-DC bins for the overall winner, the strongest
  // non-harmonic competitor, and the strongest harmonic.
  double best = -1.0;
  std::size_t best_bin = 0;
  double best_other = 0.0;   // outside daily AND harmonic sets
  double best_harmonic = 0.0;
  for (std::size_t k = 1; k < amplitude.size(); ++k) {
    const double amp = amplitude[k];
    if (amp > best) {
      best = amp;
      best_bin = k;
    }
    if (InDailySet(k, daily, config.neighbor_bins)) continue;
    if (InHarmonicSet(k, daily, config.neighbor_bins, config.max_harmonic)) {
      best_harmonic = std::max(best_harmonic, amp);
    } else {
      best_other = std::max(best_other, amp);
    }
  }
  result.strongest_bin = best_bin;
  result.strongest_amplitude = best;
  result.strongest_cycles_per_day =
      static_cast<double>(best_bin) / static_cast<double>(daily);

  const bool strongest_is_daily =
      InDailySet(best_bin, daily, config.neighbor_bins);
  const bool strongest_is_first_harmonic =
      best_bin >= 2 * daily &&
      best_bin <= 2 * daily + static_cast<std::size_t>(config.neighbor_bins);

  if (strongest_is_daily &&
      result.daily_amplitude >= config.strict_dominance * best_other &&
      result.daily_amplitude > best_harmonic) {
    result.classification = Diurnality::kStrictlyDiurnal;
  } else if (strongest_is_daily || strongest_is_first_harmonic) {
    result.classification = Diurnality::kRelaxedDiurnal;
  }
  return result;
}

}  // namespace

DiurnalResult ClassifySpectrum(const fft::Spectrum& spectrum, int n_days,
                               const DiurnalConfig& config) {
  return ClassifyAmplitudes(
      spectrum.amplitude, n_days, config,
      [&](std::size_t bin) { return spectrum.phase[bin]; });
}

DiurnalResult ClassifyDiurnal(std::span<const double> series, int n_days,
                              const DiurnalConfig& config,
                              const obs::Context* obs) {
  AnalysisScratch scratch;
  return ClassifyDiurnal(series, n_days, config, obs, scratch);
}

DiurnalResult ClassifyDiurnal(std::span<const double> series, int n_days,
                              const DiurnalConfig& config,
                              const obs::Context* obs,
                              AnalysisScratch& scratch) {
  DiurnalResult result;
  result.n_days = n_days;
  if (n_days < 2 || series.size() < 4) return result;
  std::span<const fft::Complex> coeffs;
  {
    const auto span = obs != nullptr ? obs->Span("analyze.fft")
                                     : obs::ScopedSpan{};
    const fft::SpectrumOptions options;  // remove_mean, like ComputeSpectrum
    coeffs = fft::ComputeCoefficients(series, options, scratch.fft);
    scratch.amplitude.resize(coeffs.size());
    for (std::size_t k = 0; k < coeffs.size(); ++k) {
      scratch.amplitude[k] = std::abs(coeffs[k]);
    }
  }
  // The classifier reads one phase, so only the daily bin pays for atan2.
  return ClassifyAmplitudes(
      scratch.amplitude, n_days, config,
      [&](std::size_t bin) { return std::arg(coeffs[bin]); });
}

}  // namespace sleepwalk::core
