// Per-address behaviour models for the simulated Internet.
//
// Address state must be a *pure function of time* (plus a noise key):
// multiple observer sites and the ground-truth survey all evaluate the
// same world independently, so no mutable per-address state is kept.
// Day-to-day variation comes from hashing (block, address, day) into
// uniform/Gaussian deviates.
#ifndef SLEEPWALK_SIM_BEHAVIOR_H_
#define SLEEPWALK_SIM_BEHAVIOR_H_

#include <cstdint>

namespace sleepwalk::sim {

/// Seconds per day.
inline constexpr std::int64_t kDaySeconds = 86400;

/// Uniform [0,1) deviate from a hash key.
double HashUniform(std::uint64_t key) noexcept;

/// Standard normal deviate from a hash key (Box-Muller over two hashed
/// uniforms).
double HashGaussian(std::uint64_t key) noexcept;

/// Parameters of one diurnal address: up for `on_duration_sec` starting
/// at `on_start_sec` within each UTC day, with per-day Gaussian jitter on
/// start (sigma_start_sec) and duration (sigma_duration_sec) — exactly
/// the paper's §3.2.2 controlled model (phi, sigma_s, sigma_d).
struct DiurnalParams {
  double on_start_sec = 8.0 * 3600.0;
  double on_duration_sec = 8.0 * 3600.0;
  double sigma_start_sec = 0.0;
  double sigma_duration_sec = 0.0;
};

/// Floor-division day index of `when_sec` (robust to negative times).
constexpr std::int64_t DayIndex(std::int64_t when_sec) noexcept {
  std::int64_t day = when_sec / kDaySeconds;
  if (when_sec < 0 && when_sec % kDaySeconds != 0) --day;
  return day;
}

/// One day's jittered up-window [start, end), in seconds since the epoch.
struct DiurnalWindow {
  double start = 0.0;
  double end = 0.0;

  bool Contains(std::int64_t when_sec) const noexcept {
    const auto t = static_cast<double>(when_sec);
    return t >= start && t < end;
  }
};

/// Day `day`'s window of the diurnal address `noise_key`. The start and
/// duration jitter are drawn once per (address, day), so the window is a
/// pure function of its arguments; callers may cache it per day.
DiurnalWindow DiurnalWindowOfDay(const DiurnalParams& params, std::int64_t day,
                                 std::uint64_t noise_key) noexcept;

/// The diurnal on-rule over any source of day windows: up when
/// `when_sec` falls in its own day's window or in the previous day's
/// (windows may cross midnight). `window_of_day(day)` must return
/// DiurnalWindowOfDay's value for that day; SimTransport passes a memo.
template <typename WindowOfDay>
bool InDiurnalWindow(std::int64_t when_sec, WindowOfDay&& window_of_day) {
  const std::int64_t day = DayIndex(when_sec);
  return window_of_day(day).Contains(when_sec) ||
         window_of_day(day - 1).Contains(when_sec);
}

/// True when a diurnal address is up at `when_sec`. `noise_key`
/// identifies the address; jitter is drawn once per (address, day).
bool DiurnalIsOn(const DiurnalParams& params, std::int64_t when_sec,
                 std::uint64_t noise_key) noexcept;

/// Intermittent (always-erratic) address: time is cut into
/// `chunk_sec`-long chunks and the address is up in a chunk with
/// probability `duty`, independently per chunk. Produces the dense
/// low-availability pattern of the paper's Figure 2 without any 24-hour
/// periodicity.
bool IntermittentIsOn(double duty, std::int64_t chunk_sec,
                      std::int64_t when_sec,
                      std::uint64_t noise_key) noexcept;

}  // namespace sleepwalk::sim

#endif  // SLEEPWALK_SIM_BEHAVIOR_H_
