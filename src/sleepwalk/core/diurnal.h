// Spectral diurnal-block detection (paper §2.2 — the second contribution).
//
// The cleaned A-hat_s timeseries (one sample per 11-minute round, trimmed
// to midnight UTC boundaries) is Fourier-transformed. For an observation
// of N_d days, 1 cycle/day lives in bin k = N_d; bin N_d + 1 is also
// considered "to account for noise".
//
//   strictly diurnal: the strongest non-DC bin is the daily bin, its
//     amplitude is at least twice the next strongest non-harmonic bin,
//     and greater than every harmonic;
//   relaxed diurnal: the strongest bin is the daily bin or its first
//     harmonic, with no dominance requirement.
//
// The daily bin's complex phase says *when* the block wakes relative to
// the (midnight-UTC-aligned) observation start; §5.2 shows it tracks
// longitude. Phase is only meaningful for diurnal blocks — for the rest
// it is effectively random.
#ifndef SLEEPWALK_CORE_DIURNAL_H_
#define SLEEPWALK_CORE_DIURNAL_H_

#include <span>

#include "sleepwalk/core/analysis_scratch.h"
#include "sleepwalk/fft/spectrum.h"
#include "sleepwalk/obs/context.h"

namespace sleepwalk::core {

/// Classification outcome, ordered by strength.
enum class Diurnality {
  kNonDiurnal,
  kRelaxedDiurnal,
  kStrictlyDiurnal,
};

/// Detector thresholds (defaults are the paper's).
struct DiurnalConfig {
  /// Strict test: daily amplitude must be at least this multiple of the
  /// next strongest non-harmonic bin.
  double strict_dominance = 2.0;
  /// Bins k = N_d .. N_d + neighbor_bins count as the daily component.
  int neighbor_bins = 1;
  /// Harmonics 2*N_d, 3*N_d, ... up to this multiple are compared
  /// against (and excluded from the "non-harmonic" competitor set).
  int max_harmonic = 6;
};

/// Everything the detector extracts from one block's spectrum.
struct DiurnalResult {
  Diurnality classification = Diurnality::kNonDiurnal;
  int n_days = 0;
  std::size_t daily_bin = 0;        ///< the stronger of {N_d, N_d+1}
  double daily_amplitude = 0.0;
  double phase = 0.0;               ///< arg of the daily coefficient
  std::size_t strongest_bin = 0;    ///< argmax over non-DC bins
  double strongest_amplitude = 0.0;
  double strongest_cycles_per_day = 0.0;  ///< strongest_bin / N_d

  bool IsDiurnal() const noexcept {
    return classification != Diurnality::kNonDiurnal;
  }
  bool IsStrict() const noexcept {
    return classification == Diurnality::kStrictlyDiurnal;
  }
};

/// Classifies a cleaned, midnight-aligned availability series spanning
/// `n_days` whole days. Series shorter than 2 days are non-diurnal by
/// definition ("FFT over data too short ... can distort analysis").
/// A non-null `obs` wraps the transform in an "analyze.fft" tracer span
/// (per-phase timing for the analyze hot path); classification output
/// is independent of it.
DiurnalResult ClassifyDiurnal(std::span<const double> series, int n_days,
                              const DiurnalConfig& config = {},
                              const obs::Context* obs = nullptr);

/// Hot-loop variant: the one-sided coefficients are computed through the
/// plan cache into `scratch` (transform buffers + reused amplitude
/// vector), so a warm call performs no heap allocation. Only the chosen
/// daily bin's phase is evaluated. Output is bit-identical to
/// ClassifySpectrum(ComputeSpectrum(series), ...); the allocating
/// overload is this one with a fresh scratch.
DiurnalResult ClassifyDiurnal(std::span<const double> series, int n_days,
                              const DiurnalConfig& config,
                              const obs::Context* obs,
                              AnalysisScratch& scratch);

/// Same classification applied to an already-computed spectrum.
DiurnalResult ClassifySpectrum(const fft::Spectrum& spectrum, int n_days,
                               const DiurnalConfig& config = {});

}  // namespace sleepwalk::core

#endif  // SLEEPWALK_CORE_DIURNAL_H_
