// Golden bit-exactness test for the plan kernels (plan.h, spectrum.h).
//
// plan.cc spells every complex multiply out as real arithmetic instead
// of `std::complex<double>::operator*` (DESIGN.md §10.1a). The rewrite is
// only admissible because it reproduces the std::complex results bit for
// bit on finite input; this test pins that. Each hash below is FNV-1a
// over the raw output bytes of Plan::Forward, Plan::ForwardReal,
// Plan::Inverse and ComputeSpectrum (amplitude then phase) on fixed
// seeded inputs, and was recorded with the std::complex kernels. A
// mismatch means a kernel change moved output bits — and with them
// every verdict, phase, dataset and checkpoint byte downstream. The
// same loop pins Plan::ForwardRealOneSided to ForwardReal's leading
// n/2 + 1 bins byte for byte.
//
// The pinned bytes assume a baseline x86-64 build (no FMA, so no product
// is fused into a sum) and glibc's libm for the cos/sin/atan2/hypot that
// build the tables and the spectrum.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "sleepwalk/fft/plan.h"
#include "sleepwalk/fft/spectrum.h"
#include "sleepwalk/util/rng.h"

namespace sleepwalk::fft {
namespace {

struct Golden {
  std::size_t n;
  std::uint64_t forward;
  std::uint64_t forward_real;
  std::uint64_t inverse;
  std::uint64_t spectrum;
};

// Power-of-two, even Bluestein (packed real path), odd Bluestein, the
// campaign lengths (1833/1834 = 14 days; 917 = 7 days; 4583 prime), and
// the tiny sizes that skip real packing.
constexpr Golden kGolden[] = {
    {1, 0x224e4c13e4ca5521, 0xc794b49cfb01ad24, 0x224e4c13e4ca5521,
     0xa09d945a1cd8d6e5},
    {2, 0x3984d27e1418ecee, 0xcbbed50adbfbd7d7, 0x47a642cb14947fae,
     0xd7a7082f1ba33a5f},
    {3, 0x70a69d7151727900, 0xaf07fe20d2386db9, 0x0f504bc3f31ba326,
     0x1cc2a3679abf3e57},
    {4, 0x2fc6653082dc478d, 0xbbec3ff804c84941, 0xb4a1c7d8923410bc,
     0xa6adf90f569f0ffe},
    {5, 0xc5532cf4b4294a21, 0x77041dbe7d35f128, 0xe802c38998a2baa3,
     0x6ab7219b0146b7f2},
    {8, 0x8b202decab3249e9, 0xab80c02caa594eee, 0x1362b12fe651732c,
     0xc58df52dfb9ea9d9},
    {130, 0x9da44f8350ef1a7b, 0x1908e5d49de36dc4, 0xceadeee18a2e35eb,
     0xcca0b9b70d7c95b8},
    {917, 0xd03723cdda4693a6, 0xb4b3f4e6d6fb0cac, 0x2774b3b6ef0391fe,
     0x89b462fe6839728d},
    {1024, 0x7983a7bd3bd7da55, 0x10fbd3d52d414c0e, 0x78d31b99df01b492,
     0xc90c3d164ebb8703},
    {1701, 0xa06a7692c85a717b, 0xf1dbb4644641538d, 0x4ef2d81bf64027ec,
     0xdaa3ec6b443f637f},
    {1702, 0xd93ce9dab14f7321, 0x66bf8c836c7ab0ef, 0x072f383fb3cc35b8,
     0xae8b016487b31f7e},
    {1833, 0x78b36bfabd5c929c, 0x839a1146a54a4cea, 0x344455480d64753a,
     0x34a764ccc53fa73f},
    {1834, 0x98eb67e7e4bb59ac, 0x3198e6a8f6a0375d, 0x21081ae2045944c5,
     0xcaa7658d8966f38c},
    {2048, 0xf87c72aff52805ad, 0xd0ed89db71976172, 0x74d2e1215e1645b1,
     0x3d9f32dd4285a19b},
    {4583, 0x32c6047fc7a9e96c, 0xf45c7f17a0020803, 0xd7361978cab0065b,
     0x633114c001a791a8},
};

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

// FNV-1a over the object bytes of `values`, continuing from `hash`.
template <typename T>
std::uint64_t HashBytes(const std::vector<T>& values, std::uint64_t hash) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  for (std::size_t i = 0; i < values.size() * sizeof(T); ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// Three inputs per size. Seeded noise drives every bit of the
// arithmetic; random input almost never makes an exact zero, though, so
// two degenerate inputs pin the sign-of-zero behaviour as well: a
// quantized input drawn from {-1, -0, +0, 1} (real: a 0/1 day-night
// square wave with flips, like an availability series), and a constant
// input that mean removal turns into all zeros.
enum class Input { kNoise, kQuantized, kConstant };
constexpr Input kInputs[] = {Input::kNoise, Input::kQuantized,
                             Input::kConstant};

std::vector<Complex> SeededComplex(std::size_t n, Input kind) {
  constexpr double kLevels[] = {-1.0, -0.0, 0.0, 1.0};
  Rng rng{0x601DE7ULL + n};
  std::vector<Complex> signal(n);
  for (auto& value : signal) {
    switch (kind) {
      case Input::kNoise:
        value = Complex{rng.NextDouble() * 2.0 - 1.0,
                        rng.NextDouble() * 2.0 - 1.0};
        break;
      case Input::kQuantized:
        value = Complex{kLevels[rng.NextBelow(4)], kLevels[rng.NextBelow(4)]};
        break;
      case Input::kConstant:
        value = Complex{0.75, -0.25};
        break;
    }
  }
  return signal;
}

std::vector<double> SeededReal(std::size_t n, Input kind) {
  Rng rng{0x5EA1ULL + n};
  std::vector<double> signal(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (kind) {
      case Input::kNoise:
        signal[i] = rng.NextDouble();
        break;
      case Input::kQuantized: {
        const bool awake = (i % 131) < 50;
        signal[i] = (rng.NextDouble() < 0.1) != awake ? 1.0 : 0.0;
        break;
      }
      case Input::kConstant:
        signal[i] = 0.75;
        break;
    }
  }
  return signal;
}

TEST(PlanGolden, OutputBytesMatchRecordedHashes) {
#if !defined(__x86_64__) || defined(__FMA__)
  GTEST_SKIP() << "hashes are pinned for baseline x86-64 (no FMA)";
#endif
  for (const Golden& golden : kGolden) {
    const std::size_t n = golden.n;
    const Plan plan{n};
    FftScratch scratch;
    std::uint64_t forward_hash = kFnvBasis;
    std::uint64_t forward_real_hash = kFnvBasis;
    std::uint64_t inverse_hash = kFnvBasis;
    std::uint64_t spectrum_hash = kFnvBasis;
    for (const Input kind : kInputs) {
      const auto complex_in = SeededComplex(n, kind);
      const auto real_in = SeededReal(n, kind);

      std::vector<Complex> out;
      plan.Forward(complex_in, scratch, out);
      forward_hash = HashBytes(out, forward_hash);
      plan.ForwardReal(real_in, scratch, out);
      forward_real_hash = HashBytes(out, forward_real_hash);
      // The one-sided transform computes only bins [0, n/2]; they must be
      // ForwardReal's bytes exactly.
      std::vector<Complex> one_sided;
      plan.ForwardRealOneSided(real_in, scratch, one_sided);
      ASSERT_EQ(one_sided.size(), n / 2 + 1) << "n=" << n;
      EXPECT_EQ(std::memcmp(one_sided.data(), out.data(),
                            one_sided.size() * sizeof(Complex)),
                0)
          << "ForwardRealOneSided n=" << n;
      plan.Inverse(complex_in, scratch, out);
      inverse_hash = HashBytes(out, inverse_hash);
      Spectrum spectrum;
      ComputeSpectrum(real_in, SpectrumOptions{}, scratch, spectrum);
      spectrum_hash = HashBytes(spectrum.amplitude, spectrum_hash);
      spectrum_hash = HashBytes(spectrum.phase, spectrum_hash);
    }

    EXPECT_EQ(forward_hash, golden.forward) << "Forward n=" << n;
    EXPECT_EQ(forward_real_hash, golden.forward_real)
        << "ForwardReal n=" << n;
    EXPECT_EQ(inverse_hash, golden.inverse) << "Inverse n=" << n;
    EXPECT_EQ(spectrum_hash, golden.spectrum) << "ComputeSpectrum n=" << n;
  }
}

}  // namespace
}  // namespace sleepwalk::fft
