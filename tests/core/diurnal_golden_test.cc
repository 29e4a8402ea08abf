// Golden bit-exactness test for the §2.2 classifier (core/diurnal.h).
//
// ClassifyDiurnal is where every spectral kernel change lands: the
// verdict, the daily bin, its amplitude and the phase that §5.2 maps to
// longitude. Each hash below is FNV-1a over every DiurnalResult field
// (the doubles as raw bytes, phase included) from both ClassifyDiurnal
// overloads on fixed seeded inputs, and was recorded before the
// classify path stopped computing the spectrum bins it never reads. A
// mismatch means a kernel change moved a verdict or a phase bit.
//
// Like plan_golden_test, the pinned bytes assume a baseline x86-64
// build (no FMA) and glibc's libm.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "sleepwalk/core/analysis_scratch.h"
#include "sleepwalk/core/diurnal.h"
#include "sleepwalk/fft/spectrum.h"
#include "sleepwalk/ts/clean.h"
#include "sleepwalk/util/rng.h"

namespace sleepwalk::core {
namespace {

struct Golden {
  std::size_t n;
  std::uint64_t hash;
};

// Campaign lengths: 261 (2 days, odd), 916/917 (7 days, even/odd),
// 1833/1834 (14 days), 4581 (35 days, the paper's window).
constexpr Golden kGolden[] = {
    {261, 0x9345ecbf9692f421},  {916, 0xe25409e50f40ecd9},
    {917, 0xc4e58d387e928a61},  {1833, 0xcaec7f7ca7c1b1d1},
    {1834, 0x243efb79980de8c9}, {4581, 0xc8ac981817e1308d},
};

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::uint64_t HashRaw(const void* data, std::size_t size,
                      std::uint64_t hash) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

template <typename T>
std::uint64_t HashValue(const T& value, std::uint64_t hash) {
  return HashRaw(&value, sizeof(value), hash);
}

// Field by field, so struct padding never enters the hash.
std::uint64_t HashResult(const DiurnalResult& r, std::uint64_t hash) {
  hash = HashValue(static_cast<int>(r.classification), hash);
  hash = HashValue(r.n_days, hash);
  hash = HashValue(static_cast<std::uint64_t>(r.daily_bin), hash);
  hash = HashValue(r.daily_amplitude, hash);
  hash = HashValue(r.phase, hash);
  hash = HashValue(static_cast<std::uint64_t>(r.strongest_bin), hash);
  hash = HashValue(r.strongest_amplitude, hash);
  hash = HashValue(r.strongest_cycles_per_day, hash);
  return hash;
}

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectBitEqual(const DiurnalResult& a, const DiurnalResult& b,
                    std::size_t n) {
  EXPECT_EQ(a.classification, b.classification) << "n=" << n;
  EXPECT_EQ(a.n_days, b.n_days) << "n=" << n;
  EXPECT_EQ(a.daily_bin, b.daily_bin) << "n=" << n;
  EXPECT_TRUE(BitEqual(a.daily_amplitude, b.daily_amplitude)) << "n=" << n;
  EXPECT_TRUE(BitEqual(a.phase, b.phase)) << "n=" << n;
  EXPECT_EQ(a.strongest_bin, b.strongest_bin) << "n=" << n;
  EXPECT_TRUE(BitEqual(a.strongest_amplitude, b.strongest_amplitude))
      << "n=" << n;
  EXPECT_TRUE(BitEqual(a.strongest_cycles_per_day, b.strongest_cycles_per_day))
      << "n=" << n;
}

// Seeded noise drives every bit of the arithmetic; the 0/1 day-night
// series with flips is what an availability series looks like; the
// constant turns into all zeros under mean removal (sign-of-zero phase).
enum class Input { kNoise, kDayNight, kConstant };
constexpr Input kInputs[] = {Input::kNoise, Input::kDayNight,
                             Input::kConstant};

std::vector<double> SeededSeries(std::size_t n, Input kind) {
  Rng rng{0xD1A1ULL + n};
  std::vector<double> series(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (kind) {
      case Input::kNoise:
        series[i] = rng.NextDouble();
        break;
      case Input::kDayNight: {
        const bool awake = (i % 131) < 50;
        series[i] = (rng.NextDouble() < 0.1) != awake ? 1.0 : 0.0;
        break;
      }
      case Input::kConstant:
        series[i] = 0.75;
        break;
    }
  }
  return series;
}

TEST(DiurnalGolden, ResultBytesMatchRecordedHashes) {
#if !defined(__x86_64__) || defined(__FMA__)
  GTEST_SKIP() << "hashes are pinned for baseline x86-64 (no FMA)";
#endif
  AnalysisScratch scratch;
  for (const Golden& golden : kGolden) {
    const std::size_t n = golden.n;
    const int n_days = ts::WholeDays(n);
    std::uint64_t hash = kFnvBasis;
    for (const Input kind : kInputs) {
      const auto series = SeededSeries(n, kind);
      hash = HashResult(ClassifyDiurnal(series, n_days), hash);
      hash = HashResult(
          ClassifyDiurnal(series, n_days, {}, nullptr, scratch), hash);
    }
    EXPECT_EQ(hash, golden.hash) << "ClassifyDiurnal n=" << n << " hash 0x"
                                 << std::hex << hash;
  }
}

TEST(DiurnalGolden, ScratchPathMatchesFullSpectrumPath) {
  AnalysisScratch scratch;
  for (const Golden& golden : kGolden) {
    const std::size_t n = golden.n;
    const int n_days = ts::WholeDays(n);
    for (const Input kind : kInputs) {
      const auto series = SeededSeries(n, kind);
      const auto via_spectrum =
          ClassifySpectrum(fft::ComputeSpectrum(series), n_days);
      ExpectBitEqual(ClassifyDiurnal(series, n_days, {}, nullptr, scratch),
                     via_spectrum, n);
      ExpectBitEqual(ClassifyDiurnal(series, n_days), via_spectrum, n);
    }
  }
}

}  // namespace
}  // namespace sleepwalk::core
