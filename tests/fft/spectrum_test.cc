#include "sleepwalk/fft/spectrum.h"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <numbers>
#include <vector>

namespace sleepwalk::fft {
namespace {

std::vector<double> Cosine(std::size_t n, std::size_t k0, double amplitude,
                           double phase, double offset = 0.0) {
  std::vector<double> signal(n);
  for (std::size_t m = 0; m < n; ++m) {
    const double angle = 2.0 * std::numbers::pi *
                             static_cast<double>(k0 * m) /
                             static_cast<double>(n) +
                         phase;
    signal[m] = offset + amplitude * std::cos(angle);
  }
  return signal;
}

TEST(Spectrum, CoefficientsAreTheBinsComputeSpectrumReports) {
  FftScratch scratch;
  EXPECT_TRUE(ComputeCoefficients({}, SpectrumOptions{}, scratch).empty());
  for (const std::size_t n : {1u, 2u, 3u, 8u, 261u, 916u}) {
    const auto signal = Cosine(n, n / 4, 1.5, 0.3, 2.0);
    const std::vector<Complex> coeffs = [&] {
      const auto view = ComputeCoefficients(signal, SpectrumOptions{}, scratch);
      return std::vector<Complex>(view.begin(), view.end());
    }();
    ASSERT_EQ(coeffs.size(), n / 2 + 1) << "n=" << n;
    Spectrum spectrum;
    ComputeSpectrum(signal, SpectrumOptions{}, scratch, spectrum);
    ASSERT_EQ(spectrum.size(), coeffs.size());
    for (std::size_t k = 0; k < coeffs.size(); ++k) {
      EXPECT_EQ(spectrum.amplitude[k], std::abs(coeffs[k])) << n << "/" << k;
      EXPECT_EQ(spectrum.phase[k], std::arg(coeffs[k])) << n << "/" << k;
    }
  }
}

TEST(Spectrum, EmptyInput) {
  const auto spectrum = ComputeSpectrum({});
  EXPECT_EQ(spectrum.size(), 0u);
  EXPECT_EQ(spectrum.input_size, 0u);
}

TEST(Spectrum, SizeIsHalfPlusOne) {
  const std::vector<double> signal(100, 1.0);
  EXPECT_EQ(ComputeSpectrum(signal).size(), 51u);
  const std::vector<double> odd(101, 1.0);
  EXPECT_EQ(ComputeSpectrum(odd).size(), 51u);
}

TEST(Spectrum, CosineAmplitudeAndPhase) {
  const std::size_t n = 256;
  const std::size_t k0 = 7;
  const double phase = 0.9;
  const auto spectrum = ComputeSpectrum(Cosine(n, k0, 2.0, phase));
  // One-sided: cos with amplitude 2 puts n/2 * 2 = n into bin k0.
  EXPECT_NEAR(spectrum.amplitude[k0], static_cast<double>(n), 1e-8);
  EXPECT_NEAR(spectrum.phase[k0], phase, 1e-9);
  EXPECT_EQ(StrongestBin(spectrum), k0);
}

TEST(Spectrum, MeanRemovalKillsDc) {
  const auto signal = Cosine(128, 4, 1.0, 0.0, /*offset=*/5.0);
  const auto with_removal = ComputeSpectrum(signal, /*remove_mean=*/true);
  EXPECT_NEAR(with_removal.amplitude[0], 0.0, 1e-8);
  const auto without = ComputeSpectrum(signal, /*remove_mean=*/false);
  EXPECT_NEAR(without.amplitude[0], 5.0 * 128.0, 1e-7);
  // The signal bin is unaffected by mean removal.
  EXPECT_NEAR(with_removal.amplitude[4], without.amplitude[4], 1e-8);
}

TEST(Spectrum, FrequencyHzMatchesPaperFormula) {
  // Paper: bin k corresponds to k/(R*n) Hz with R = 660 s.
  const std::vector<double> signal(1834, 0.0);  // 14 days of 11-min rounds
  const auto spectrum = ComputeSpectrum(signal);
  const double f14 = spectrum.FrequencyHz(14, 660.0);
  // Bin N_d=14 over a 14-day window must be 1 cycle/day.
  EXPECT_NEAR(f14, 1.0 / 86400.0, 1e-9 / 86400.0 * 660.0 * 1834.0);
}

TEST(Spectrum, StrongestBinIgnoresDc) {
  // Large offset + small ripple: without DC exclusion bin 0 would win.
  const auto signal = Cosine(64, 3, 0.1, 0.0, /*offset=*/10.0);
  const auto spectrum = ComputeSpectrum(signal, /*remove_mean=*/false);
  EXPECT_EQ(StrongestBin(spectrum), 3u);
}

TEST(Spectrum, TwoTonesStrongestWins) {
  auto signal = Cosine(512, 5, 1.0, 0.0);
  const auto second = Cosine(512, 19, 2.5, 0.3);
  for (std::size_t i = 0; i < signal.size(); ++i) signal[i] += second[i];
  const auto spectrum = ComputeSpectrum(signal);
  EXPECT_EQ(StrongestBin(spectrum), 19u);
}

TEST(Spectrum, CyclesPerWindowIsBinIndex) {
  const std::vector<double> signal(200, 0.0);
  const auto spectrum = ComputeSpectrum(signal);
  EXPECT_DOUBLE_EQ(spectrum.CyclesPerWindow(14), 14.0);
}

}  // namespace
}  // namespace sleepwalk::fft
