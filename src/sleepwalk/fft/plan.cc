#include "sleepwalk/fft/plan.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>
#include <utility>

#include "sleepwalk/util/narrow.h"

namespace sleepwalk::fft {

namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

void CheckSize(std::size_t got, std::size_t want) {
  if (got != want) {
    throw std::invalid_argument("fft::Plan: input size does not match plan");
  }
}

// a * b in real arithmetic: the ac - bd, ad + bc that std::complex's
// operator* computes inline, without the NaN test and __muldc3 fallback
// GCC attaches to it. Bit-identical on finite input (DESIGN.md §10.1a).
// Every complex multiply in this file goes through here except the
// radix-2 butterfly, which spells the same products out on components.
Complex Mul(Complex a, Complex b) noexcept {
  return {a.real() * b.real() - a.imag() * b.imag(),
          a.real() * b.imag() + a.imag() * b.real()};
}

}  // namespace

Plan::Radix2Kernel Plan::MakeKernel(std::size_t n) {
  Radix2Kernel kernel;
  kernel.n = n;
  if (n <= 1) return kernel;
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("fft::Plan: kernel size exceeds bitrev range");
  }

  // Bit-reversal permutation, tabulated once with the same incremental
  // carry walk the in-place kernel used per call.
  kernel.bitrev.resize(n);
  kernel.bitrev[0] = 0;
  std::size_t j = 0;
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    kernel.bitrev[i] = util::CheckedNarrow<std::uint32_t>(j);
  }

  // Per-stage twiddles, every factor from its own cos/sin evaluation —
  // no `w *= wlen` recurrence, so stage len's last factor is as accurate
  // as its first. Stage with butterfly span `len` owns len/2 entries at
  // offset len/2 - 1 (= 1 + 2 + ... + len/4); total n - 1.
  kernel.twiddles.resize(n - 1);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    Complex* stage = kernel.twiddles.data() + (len / 2 - 1);
    const double step = -kTwoPi / static_cast<double>(len);
    for (std::size_t k = 0; k < len / 2; ++k) {
      const double angle = step * static_cast<double>(k);
      stage[k] = Complex{std::cos(angle), std::sin(angle)};
    }
  }
  return kernel;
}

void Plan::Radix2Kernel::Transform(std::span<Complex> data,
                                   bool inverse) const {
  const std::size_t size = n;
  if (size <= 1) return;

  for (std::size_t i = 1; i < size; ++i) {
    const std::size_t j = bitrev[i];
    if (i < j) std::swap(data[i], data[j]);
  }

  // Inverse twiddles are the conjugates: one sign on the imaginary part
  // (an exact negation) instead of a branch per butterfly.
  const double sign = inverse ? -1.0 : 1.0;
  for (std::size_t len = 2; len <= size; len <<= 1) {
    Stage(data, len, size, sign);
  }
}

void Plan::Radix2Kernel::Stage(std::span<Complex> data, std::size_t len,
                               std::size_t need, double sign) const {
  const Complex* stage = twiddles.data() + (len / 2 - 1);
  const std::size_t half = len / 2;
  // Each block keeps positions [0, keep). Butterfly k writes positions k
  // (top) and k + half (bottom): below `full` both are kept, from there
  // up to `top` only the top is. Two loops rather than a branch per
  // butterfly, which costs as much as the pruning saves.
  const std::size_t keep = std::min(len, need);
  const std::size_t full = keep > half ? keep - half : 0;
  const std::size_t top = std::min(keep, half);
  // The butterfly works on components, not Complex temporaries: copying
  // `u` out as a value made GCC spill it through the stack and stall on
  // the reload.
  for (std::size_t i = 0; i < n; i += len) {
    Complex* block = data.data() + i;
    for (std::size_t k = 0; k < full; ++k) {
      const double wr = stage[k].real();
      const double wi = sign * stage[k].imag();
      Complex& upper = block[k];
      Complex& lower = block[k + half];
      const double vr = lower.real() * wr - lower.imag() * wi;
      const double vi = lower.real() * wi + lower.imag() * wr;
      const double ur = upper.real();
      const double ui = upper.imag();
      upper = {ur + vr, ui + vi};
      lower = {ur - vr, ui - vi};
    }
    for (std::size_t k = full; k < top; ++k) {
      const double wr = stage[k].real();
      const double wi = sign * stage[k].imag();
      const Complex& lower = block[k + half];
      const double vr = lower.real() * wr - lower.imag() * wi;
      const double vi = lower.real() * wi + lower.imag() * wr;
      block[k] = {block[k].real() + vr, block[k].imag() + vi};
    }
  }
}

Plan::Plan(std::size_t n) : n_(n) {
  if (n == 0) {
    throw std::invalid_argument("fft::Plan: size must be positive");
  }

  if (IsPowerOfTwo(n)) {
    kernel_ = MakeKernel(n);
  } else {
    if (n > std::numeric_limits<std::size_t>::max() / 2) {
      throw std::length_error(
          "fft::Plan: Bluestein extension 2n-1 overflows size_t");
    }
    const std::size_t m = detail::NextPowerOfTwoChecked(2 * n - 1);
    kernel_ = MakeKernel(m);

    // Chirp factors w_k = exp(-i*pi*k^2/n); the widened k^2 mod 2n keeps
    // the angle small (accuracy) and unwrapped (correctness at large n).
    chirp_.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      const auto k2 = static_cast<double>(detail::ChirpIndex(k, n));
      const double angle = std::numbers::pi * k2 / static_cast<double>(n);
      chirp_[k] = Complex{std::cos(angle), -std::sin(angle)};
    }

    // Frequency-domain Bluestein kernel FFT(b), computed once here and
    // reused by every transform (the plan-free path recomputes it each
    // call — one of its three size-m FFTs).
    fft_b_.assign(m, Complex{});
    fft_b_[0] = std::conj(chirp_[0]);
    for (std::size_t k = 1; k < n; ++k) {
      fft_b_[k] = std::conj(chirp_[k]);
      fft_b_[m - k] = fft_b_[k];  // circular symmetry for negative lags
    }
    kernel_.Transform(fft_b_, /*inverse=*/false);
  }

  // Packed real-input path: even n folds into one n/2 complex transform
  // plus an O(n) twiddle unpack. n == 2 gains nothing over complexifying.
  if (n % 2 == 0 && n >= 4) {
    const std::size_t h = n / 2;
    real_twiddles_.resize(h);
    for (std::size_t k = 0; k < h; ++k) {
      const double angle = -kTwoPi * static_cast<double>(k) /
                           static_cast<double>(n);
      real_twiddles_[k] = Complex{std::cos(angle), std::sin(angle)};
    }
    half_ = std::make_unique<const Plan>(h);
  }
}

template <typename Load>
void Plan::Bluestein(const Load& load, bool inverse, std::size_t outputs,
                     FftScratch& scratch, std::vector<Complex>& out) const {
  const std::size_t m = kernel_.n;
  const std::size_t half = m / 2;
  const std::uint32_t* bitrev = kernel_.bitrev.data();
  const double sign = inverse ? -1.0 : 1.0;

  // Load, bit reversal and the span-2 forward stage in one pass. m >= 2n,
  // so input j < n lands at even slot p = bitrev[j] and its partner slot
  // p + 1 = bitrev[j + m/2] holds zero padding. Against a +0 partner the
  // butterfly (w = 1 - 0i) reduces exactly to top = u + 0.0 (which maps
  // -0 to +0, as the full butterfly did) and bottom = u.
  std::vector<Complex>& conv = scratch.conv;
  conv.resize(m);
  for (std::size_t j = 0; j < n_; ++j) {
    const Complex u = load(j);
    const std::uint32_t p = bitrev[j];
    conv[p] = {u.real() + 0.0, u.imag() + 0.0};
    conv[p + 1] = u;
  }
  for (std::size_t j = n_; j < half; ++j) {
    const std::uint32_t p = bitrev[j];
    conv[p] = Complex{};
    conv[p + 1] = Complex{};
  }
  for (std::size_t len = 4; len <= m; len <<= 1) {
    kernel_.Stage(conv, len, m, /*sign=*/1.0);
  }

  // Pointwise product with FFT(b), bit reversal and the span-2 inverse
  // stage in one out-of-place pass: slot pair (p, p + 1) takes products
  // j and j + m/2. b is index-symmetric, so FFT(b) is even and
  // FFT(conj(b))[k] is simply conj(FFT(b)[k]) — the forward table serves
  // both directions.
  std::vector<Complex>& work = scratch.work;
  work.resize(m);
  const double wr = kernel_.twiddles[0].real();
  const double wi = -kernel_.twiddles[0].imag();  // inverse: conjugate
  for (std::size_t j = 0; j < half; ++j) {
    const Complex b_top{fft_b_[j].real(), sign * fft_b_[j].imag()};
    const Complex b_bottom{fft_b_[j + half].real(),
                           sign * fft_b_[j + half].imag()};
    const Complex upper = Mul(conv[j], b_top);
    const Complex lower = Mul(conv[j + half], b_bottom);
    const double vr = lower.real() * wr - lower.imag() * wi;
    const double vi = lower.real() * wi + lower.imag() * wr;
    const std::uint32_t p = bitrev[j];
    work[p] = {upper.real() + vr, upper.imag() + vi};
    work[p + 1] = {upper.real() - vr, upper.imag() - vi};
  }
  // Only outputs [0, outputs) are read, so every later stage computes
  // just the slots they depend on (Radix2Kernel::Stage).
  for (std::size_t len = 4; len <= m; len <<= 1) {
    kernel_.Stage(work, len, outputs, /*sign=*/-1.0);
  }

  const double scale =
      inverse ? 1.0 / (static_cast<double>(m) * static_cast<double>(n_))
              : 1.0 / static_cast<double>(m);
  out.resize(outputs);
  for (std::size_t k = 0; k < outputs; ++k) {
    const Complex chirp{chirp_[k].real(), sign * chirp_[k].imag()};
    out[k] = Mul(work[k] * scale, chirp);
  }
}

void Plan::Forward(std::span<const Complex> in, FftScratch& scratch,
                   std::vector<Complex>& out) const {
  CheckSize(in.size(), n_);
  if (radix2()) {
    out.assign(in.begin(), in.end());
    kernel_.Transform(out, /*inverse=*/false);
    return;
  }
  Bluestein([&](std::size_t k) { return Mul(in[k], chirp_[k]); },
            /*inverse=*/false, n_, scratch, out);
}

void Plan::Inverse(std::span<const Complex> in, FftScratch& scratch,
                   std::vector<Complex>& out) const {
  CheckSize(in.size(), n_);
  if (radix2()) {
    out.assign(in.begin(), in.end());
    kernel_.Transform(out, /*inverse=*/true);
    const double scale = 1.0 / static_cast<double>(n_);
    for (auto& value : out) value *= scale;
    return;
  }
  Bluestein([&](std::size_t k) { return Mul(in[k], std::conj(chirp_[k])); },
            /*inverse=*/true, n_, scratch, out);
}

void Plan::ForwardReal(std::span<const double> in, FftScratch& scratch,
                       std::vector<Complex>& out) const {
  ForwardRealBins(in, n_, scratch, out);
}

void Plan::ForwardRealOneSided(std::span<const double> in,
                               FftScratch& scratch,
                               std::vector<Complex>& out) const {
  ForwardRealBins(in, n_ / 2 + 1, scratch, out);
}

void Plan::ForwardRealBins(std::span<const double> in, std::size_t bins,
                           FftScratch& scratch,
                           std::vector<Complex>& out) const {
  CheckSize(in.size(), n_);
  if (half_ == nullptr) {
    if (radix2()) {
      // n <= 2 (bins == n): complexify and take the radix-2 path.
      scratch.packed.resize(n_);
      for (std::size_t k = 0; k < n_; ++k) {
        scratch.packed[k] = Complex{in[k], 0.0};
      }
      Forward(scratch.packed, scratch, out);
      return;
    }
    // Odd n: the chirp multiply of the complexified input, x + 0i, done
    // on load instead of through a complex copy.
    Bluestein(
        [&](std::size_t k) { return Mul(Complex{in[k], 0.0}, chirp_[k]); },
        /*inverse=*/false, bins, scratch, out);
    return;
  }

  // Fold x[2j], x[2j+1] into z[j] = x[2j] + i*x[2j+1] and transform at
  // half size; the even/odd sub-spectra then separate algebraically:
  //   E[k] = (Z[k] + conj(Z[h-k])) / 2,  O[k] = -i*(Z[k] - conj(Z[h-k])) / 2,
  //   X[k] = E[k] + W^k O[k],  X[k+h] = E[k] - W^k O[k].
  // Bins past `bins` are never computed (one-sided: only X[h] of the
  // upper half).
  const std::size_t h = n_ / 2;
  scratch.packed.resize(h);
  for (std::size_t j = 0; j < h; ++j) {
    scratch.packed[j] = Complex{in[2 * j], in[2 * j + 1]};
  }
  half_->Forward(scratch.packed, scratch, scratch.half);

  out.resize(bins);
  for (std::size_t k = 0; k < h; ++k) {
    const Complex z_k = scratch.half[k];
    const Complex z_mirror = std::conj(scratch.half[(h - k) % h]);
    const Complex even = 0.5 * (z_k + z_mirror);
    const Complex odd = Mul(Complex{0.0, -0.5}, z_k - z_mirror);
    const Complex cross = Mul(real_twiddles_[k], odd);
    out[k] = even + cross;
    if (k + h < bins) out[k + h] = even - cross;
  }
}

PlanCache& PlanCache::Global() {
  static PlanCache* const cache = new PlanCache;
  return *cache;
}

std::shared_ptr<const Plan> PlanCache::Get(std::size_t n) {
  {
    util::MutexLock lock(mutex_);
    auto it = plans_.find(n);
    if (it != plans_.end()) return it->second;
  }
  // Build outside the lock: construction is trig-heavy and would
  // otherwise serialize every worker behind the first cold size. A
  // racing duplicate is bitwise identical (construction is
  // deterministic), so first-insert-wins loses nothing.
  auto built = std::make_shared<const Plan>(n);
  util::MutexLock lock(mutex_);
  auto [it, inserted] = plans_.emplace(n, std::move(built));
  return it->second;
}

std::size_t PlanCache::cached_plans() const {
  util::MutexLock lock(mutex_);
  return plans_.size();
}

std::shared_ptr<const Plan> GetPlan(std::size_t n) {
  return PlanCache::Global().Get(n);
}

}  // namespace sleepwalk::fft
