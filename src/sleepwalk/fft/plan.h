// Plan-based spectral kernels: precompute everything a transform of one
// size ever needs, once, and reuse it for every block in the campaign.
//
// Every /24 in a campaign ends in the same §2.2 spectral classification,
// and all blocks share one series length N (the trimmed whole-day grid).
// The plan-free kernels in fft.h rebuild the Bluestein chirp, recompute
// FFT(b), derive twiddles through an error-accumulating `w *= wlen`
// recurrence, and heap-allocate three size-m buffers on every call. A
// `Plan` hoists all of that into construction:
//   * the bit-reversal permutation and per-stage twiddle tables (each
//     factor evaluated directly by cos/sin, no recurrence drift),
//   * for non-power-of-two N, the Bluestein chirp w_k = exp(-i*pi*k^2/N)
//     and the frequency-domain kernel FFT(b) — so each transform costs
//     two size-m FFTs instead of three plus a chirp recomputation,
//   * for even N, a packed real-input path: N reals fold into an N/2
//     complex transform plus an O(N) twiddle unpack, halving the
//     dominant cost of `ForwardReal`.
//
// Plans are immutable after construction; all per-call working memory
// lives in a caller-owned FftScratch, so one shared plan serves any
// number of threads while each worker reuses its own scratch and the
// steady-state transform performs zero heap allocations. The process-
// wide PlanCache hands out shared_ptr<const Plan> under a mutex; plan
// construction is deterministic, so every thread observes bitwise-
// identical tables regardless of who built them (the byte-identity
// invariant of DESIGN.md §9 is preserved — see §10 for the argument).
#ifndef SLEEPWALK_FFT_PLAN_H_
#define SLEEPWALK_FFT_PLAN_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "sleepwalk/fft/fft.h"
#include "sleepwalk/util/sync.h"

namespace sleepwalk::fft {

class Plan;

/// Per-caller working memory for plan execution. Buffers grow to the
/// high-water mark of the sizes they serve and are then reused, so a
/// worker that analyzes same-length series allocates only on its first
/// block. Not thread-safe: one FftScratch per worker thread.
struct FftScratch {
  std::vector<Complex> conv;    ///< Bluestein forward buffer (size m)
  std::vector<Complex> work;    ///< Bluestein inverse buffer (size m)
  std::vector<Complex> packed;  ///< real-input packing / complexified input
  std::vector<Complex> half;    ///< half-size transform output (real path)
  std::vector<Complex> coeffs;  ///< one-sided DFT bins (spectrum pipeline)
  std::vector<double> real;     ///< preprocessed real series (spectrum)
  /// Last plan this scratch executed with; callers that loop over
  /// same-length series skip the PlanCache mutex entirely.
  std::shared_ptr<const Plan> plan;
};

/// An immutable transform plan for one size N. Thread-safe to share:
/// execution only reads the tables and writes caller-owned buffers.
class Plan {
 public:
  /// Builds every table needed for size-n transforms. Throws
  /// std::invalid_argument for n == 0 and std::length_error when the
  /// Bluestein extension 2n-1 (or its power-of-two ceiling) would
  /// overflow std::size_t.
  explicit Plan(std::size_t n);

  std::size_t size() const noexcept { return n_; }

  /// True when n is a power of two (direct radix-2, no Bluestein).
  bool radix2() const noexcept { return chirp_.empty(); }

  /// Size of the underlying radix-2 kernel: n for power-of-two plans,
  /// the Bluestein convolution length m otherwise.
  std::size_t kernel_size() const noexcept { return kernel_.n; }

  /// Forward DFT (paper convention, unnormalized) of `in` into `out`.
  /// in.size() must equal size(). `out` is resized; with warm capacity
  /// the call performs no heap allocation.
  void Forward(std::span<const Complex> in, FftScratch& scratch,
               std::vector<Complex>& out) const;

  /// Forward DFT of real input. Even sizes fold into one size-n/2
  /// complex transform plus an O(n) unpack; the output is the full
  /// n-point spectrum with exact conjugate symmetry.
  void ForwardReal(std::span<const double> in, FftScratch& scratch,
                   std::vector<Complex>& out) const;

  /// Bins [0, n/2] of ForwardReal, bit for bit, and nothing else: the
  /// one-sided spectrum of a real series. Odd sizes prune the Bluestein
  /// inverse to the n/2 + 1 outputs; even sizes unpack only those bins.
  void ForwardRealOneSided(std::span<const double> in, FftScratch& scratch,
                           std::vector<Complex>& out) const;

  /// Normalized inverse DFT (Inverse(Forward(x)) == x up to rounding).
  /// Single-pass: inverse twiddles are conjugated table reads and the
  /// Bluestein kernel conjugates in place — no conjugate-copy round
  /// trip like the plan-free fft::InversePlanless.
  void Inverse(std::span<const Complex> in, FftScratch& scratch,
               std::vector<Complex>& out) const;

 private:
  /// Radix-2 machinery for one power-of-two size: precomputed
  /// bit-reversal permutation and per-stage twiddle tables (stage with
  /// butterfly span `len` owns len/2 factors at offset len/2 - 1).
  struct Radix2Kernel {
    std::size_t n = 0;
    std::vector<std::uint32_t> bitrev;
    std::vector<Complex> twiddles;

    void Transform(std::span<Complex> data, bool inverse) const;

    /// One butterfly stage of span `len` over every block of `data`
    /// (already in bit-reversed order), writing only positions
    /// [0, min(len, need)) of each block; need >= n runs the full stage.
    /// `sign` is +1 forward, -1 inverse (conjugated twiddles).
    void Stage(std::span<Complex> data, std::size_t len, std::size_t need,
               double sign) const;
  };

  static Radix2Kernel MakeKernel(std::size_t n);

  /// Bluestein transform shared by Forward, Inverse and odd ForwardReal,
  /// computing only `outputs` (<= n) leading bins. `load(k)` returns the
  /// chirp-premultiplied input k in [0, n); it is consumed by the fused
  /// load / bit-reversal / first-stage pass (DESIGN.md §10.1).
  template <typename Load>
  void Bluestein(const Load& load, bool inverse, std::size_t outputs,
                 FftScratch& scratch, std::vector<Complex>& out) const;

  /// ForwardReal restricted to bins [0, bins), bins in {n, n/2 + 1}.
  void ForwardRealBins(std::span<const double> in, std::size_t bins,
                       FftScratch& scratch, std::vector<Complex>& out) const;

  std::size_t n_ = 0;
  Radix2Kernel kernel_;            ///< size n (radix2) or m (Bluestein)
  std::vector<Complex> chirp_;     ///< exp(-i*pi*k^2/n); empty when radix2
  std::vector<Complex> fft_b_;     ///< FFT of the Bluestein kernel (size m)
  std::vector<Complex> real_twiddles_;  ///< exp(-2*pi*i*k/n), k in [0, n/2]
  std::unique_ptr<const Plan> half_;    ///< size-n/2 sub-plan (even n >= 4)
};

/// Process-wide, thread-safe plan registry keyed by transform size.
/// Plans are built outside the lock (construction is trig-heavy) and
/// published under it; when two threads race to build the same size the
/// first insert wins and the duplicate is discarded — construction is
/// deterministic, so the discarded plan was bitwise identical anyway.
class PlanCache {
 public:
  /// The singleton used by the fft:: convenience entry points.
  static PlanCache& Global();

  /// Returns the shared plan for size n, building it on first request.
  std::shared_ptr<const Plan> Get(std::size_t n);

  /// Number of distinct sizes currently cached (test/diagnostic hook).
  std::size_t cached_plans() const;

 private:
  mutable util::Mutex mutex_;
  std::unordered_map<std::size_t, std::shared_ptr<const Plan>> plans_
      SLEEPWALK_GUARDED_BY(mutex_);
};

/// Shorthand for PlanCache::Global().Get(n).
std::shared_ptr<const Plan> GetPlan(std::size_t n);

}  // namespace sleepwalk::fft

#endif  // SLEEPWALK_FFT_PLAN_H_
