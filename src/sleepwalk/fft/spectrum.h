// Amplitude/phase spectrum helpers on top of the raw transforms.
#ifndef SLEEPWALK_FFT_SPECTRUM_H_
#define SLEEPWALK_FFT_SPECTRUM_H_

#include <complex>
#include <span>
#include <vector>

#include "sleepwalk/fft/plan.h"

namespace sleepwalk::fft {

/// One-sided spectrum of a real series: amplitude and phase for bins
/// k in [0, n/2]. Bin 0 is DC.
struct Spectrum {
  std::vector<double> amplitude;  ///< |alpha_k| for k in [0, n/2].
  std::vector<double> phase;      ///< arg(alpha_k), radians in [-pi, pi].
  std::size_t input_size = 0;     ///< n, the number of time samples.

  /// Number of one-sided bins (n/2 + 1).
  std::size_t size() const noexcept { return amplitude.size(); }

  /// Frequency of bin k in cycles per full observation window.
  /// With N_d observation days, bin N_d is 1 cycle/day.
  double CyclesPerWindow(std::size_t k) const noexcept {
    return static_cast<double>(k);
  }

  /// Frequency of bin k in Hz given the sampling period in seconds
  /// (paper: k / (R*n) with R = 660 s).
  double FrequencyHz(std::size_t k, double sample_period_sec) const noexcept {
    return static_cast<double>(k) /
           (sample_period_sec * static_cast<double>(input_size));
  }
};

/// Preprocessing applied before the transform.
struct SpectrumOptions {
  /// Subtract the series mean so DC leakage does not mask nearby bins
  /// (the detector always excludes bin 0; this also suppresses leakage
  /// from a large constant offset).
  bool remove_mean = true;
  /// Subtract the least-squares linear trend as well. §2.2 screens
  /// non-stationary blocks out; detrending is the milder alternative
  /// for slightly-trending series.
  bool detrend = false;
  /// Apply a Hann window. Reduces leakage from non-integer-period
  /// components at the cost of widening each peak (amplitudes shrink by
  /// the window's coherent gain, 0.5).
  bool hann_window = false;
};

/// The shared first half of every spectral classification: preprocesses
/// `series` per `options` and transforms it through the scratch's
/// memoized plan into the one-sided DFT bins [0, n/2] (empty for an
/// empty series). The returned span views `scratch.coeffs`; callers take
/// the amplitude and phase of just the bins they read. With warm scratch
/// capacity the call performs no heap allocation.
std::span<const Complex> ComputeCoefficients(std::span<const double> series,
                                             const SpectrumOptions& options,
                                             FftScratch& scratch);

/// Computes the one-sided spectrum of a real series into `out`,
/// transforming through the plan cache with caller-owned scratch. With
/// warm scratch/output capacity the call performs no heap allocation —
/// this is the analysis hot loop's entry point.
void ComputeSpectrum(std::span<const double> series,
                     const SpectrumOptions& options, FftScratch& scratch,
                     Spectrum& out);

/// Allocating convenience wrapper.
Spectrum ComputeSpectrum(std::span<const double> series,
                         const SpectrumOptions& options);

/// Back-compatible overload: mean removal only.
Spectrum ComputeSpectrum(std::span<const double> series,
                         bool remove_mean = true);

/// Index of the largest amplitude among bins [1, n/2] (DC excluded).
/// Returns 0 for series with fewer than 2 bins.
std::size_t StrongestBin(const Spectrum& spectrum) noexcept;

}  // namespace sleepwalk::fft

#endif  // SLEEPWALK_FFT_SPECTRUM_H_
