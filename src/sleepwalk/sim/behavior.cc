#include "sleepwalk/sim/behavior.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "sleepwalk/util/rng.h"

namespace sleepwalk::sim {

double HashUniform(std::uint64_t key) noexcept {
  std::uint64_t state = key;
  return static_cast<double>(SplitMix64(state) >> 11) * 0x1.0p-53;
}

double HashGaussian(std::uint64_t key) noexcept {
  // Box-Muller over two hashed uniforms; keep u1 away from 0.
  const double u1 = HashUniform(MixHash(key, 0x9e37u)) + 1e-12;
  const double u2 = HashUniform(MixHash(key, 0x79b9u));
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

DiurnalWindow DiurnalWindowOfDay(const DiurnalParams& params, std::int64_t day,
                                 std::uint64_t noise_key) noexcept {
  const auto day_key = MixHash(noise_key, static_cast<std::uint64_t>(day));
  const double start_jitter =
      params.sigma_start_sec > 0.0
          ? params.sigma_start_sec * HashGaussian(MixHash(day_key, 1))
          : 0.0;
  const double duration_jitter =
      params.sigma_duration_sec > 0.0
          ? params.sigma_duration_sec * HashGaussian(MixHash(day_key, 2))
          : 0.0;
  const double start = static_cast<double>(day * kDaySeconds) +
                       params.on_start_sec + start_jitter;
  const double duration =
      std::max(params.on_duration_sec + duration_jitter, 0.0);
  return {start, start + duration};
}

bool DiurnalIsOn(const DiurnalParams& params, std::int64_t when_sec,
                 std::uint64_t noise_key) noexcept {
  return InDiurnalWindow(when_sec, [&](std::int64_t day) {
    return DiurnalWindowOfDay(params, day, noise_key);
  });
}

bool IntermittentIsOn(double duty, std::int64_t chunk_sec,
                      std::int64_t when_sec,
                      std::uint64_t noise_key) noexcept {
  if (chunk_sec <= 0) return false;
  std::int64_t chunk = when_sec / chunk_sec;
  if (when_sec < 0 && when_sec % chunk_sec != 0) --chunk;
  return HashUniform(MixHash(noise_key, static_cast<std::uint64_t>(chunk),
                             0xc4a1u)) < duty;
}

}  // namespace sleepwalk::sim
