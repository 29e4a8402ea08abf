// Compact /24 block model and the simulated probing transport.
//
// A BlockSpec describes a whole /24 in ~100 bytes: how many addresses are
// always-on, diurnal, or intermittent, and the shared behaviour
// parameters. Per-address variation (diurnal phase within the block,
// day-to-day jitter) is derived by hashing, so worlds of hundreds of
// thousands of blocks stay cheap and every observer site sees the same
// underlying truth.
//
// Address layout within the block: octets [1, 1+n_always) are always-on,
// then n_diurnal diurnal, then n_intermittent intermittent; everything
// else (including .0 and .255) never responds.
#ifndef SLEEPWALK_SIM_BLOCK_H_
#define SLEEPWALK_SIM_BLOCK_H_

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sleepwalk/net/ipv4.h"
#include "sleepwalk/net/transport.h"
#include "sleepwalk/sim/behavior.h"
#include "sleepwalk/util/rng.h"

namespace sleepwalk::sim {

/// Full description of one simulated /24.
struct BlockSpec {
  net::Prefix24 block;
  std::uint64_t seed = 0;  ///< per-block noise key

  std::uint8_t n_always = 0;
  std::uint8_t n_diurnal = 0;
  std::uint8_t n_intermittent = 0;

  /// Response probability of an up address to a single probe.
  float response_prob = 0.95F;

  // Diurnal behaviour (shared by the block's diurnal addresses).
  float on_start_sec = 8.0F * 3600.0F;   ///< earliest daily start, UTC.
  float phase_spread_sec = 0.0F;         ///< Phi: per-address uniform shift.
  float on_duration_sec = 8.0F * 3600.0F;
  float sigma_start_sec = 0.0F;          ///< per-day start jitter.
  float sigma_duration_sec = 0.0F;       ///< per-day duration jitter.

  // Intermittent behaviour.
  float intermittent_duty = 0.5F;
  std::int32_t intermittent_chunk_sec = 7200;

  // Optional block-wide outage window [start, end) in seconds; -1 = none.
  std::int64_t outage_start_sec = -1;
  std::int64_t outage_end_sec = -1;

  /// Number of ever-active addresses |E(b)|.
  int EverActiveCount() const noexcept {
    return n_always + n_diurnal + n_intermittent;
  }
};

/// Deterministic on/off state of one address (before response loss).
bool AddressIsOn(const BlockSpec& spec, std::uint8_t octet,
                 std::int64_t when_sec) noexcept;

/// Stochastic probe outcome for one address (on-state AND response draw).
bool AddressResponds(const BlockSpec& spec, std::uint8_t octet,
                     std::int64_t when_sec, Rng& rng) noexcept;

/// Ground truth availability A(t): the expected fraction of ever-active
/// addresses that would answer a probe at `when_sec` (paper §2.1: "the
/// fraction of addresses that respond when all are probed", restricted
/// to E(b) as Trinocular's denominator is).
double TrueAvailability(const BlockSpec& spec, std::int64_t when_sec) noexcept;

/// Last-octets of the ever-active set E(b), in address order.
std::vector<std::uint8_t> EverActiveOctets(const BlockSpec& spec);

/// The diurnal window start (seconds within the UTC day) of one diurnal
/// address, including its hashed phase offset — exposed for tests.
double DiurnalStartOf(const BlockSpec& spec, std::uint8_t octet) noexcept;

/// net::Transport over a set of BlockSpecs. Each site gets its own
/// SimTransport (own RNG seed): response-loss draws are independent
/// across sites while the underlying world state is shared.
///
/// Response-loss randomness is *stateless*: each probe draws from the
/// keyed stream (site_seed, target, when, attempt) via Rng::ForStream,
/// where `attempt` counts repeated probes of the same address at the
/// same instant (retried rounds re-draw, as a real network would). No
/// draw depends on probe order, so two transports with the same site
/// seed agree probe-for-probe even when different workers probe
/// different subsets of blocks — the property the parallel executor's
/// N-thread == 1-thread byte-identity rests on. The only mutable state
/// is the probes_sent accounting; checkpoints persist just that.
///
/// Everything else the transport holds is derived cache, rebuilt on
/// demand and never saved, so the SaveState format is unchanged by it
/// (DESIGN.md §9.2):
///   - the last resolved block, so a driver probing one block per
///     round does one map lookup per block switch, not per probe;
///   - a memo of diurnal windows, one slot per (octet, day parity)
///     stamped with (block index, day): DiurnalWindowOfDay is pure, so
///     a slot holds exactly what recomputing it would return, and an
///     address costs about one window draw per day instead of two per
///     probe;
///   - per-instant attempt counters in a 256-entry table keyed by the
///     low octet and stamped with an epoch that every new instant and
///     every RestoreState bumps, with an exact overflow map for two
///     addresses sharing an octet at one instant.
/// A registered spec must therefore not change while it is registered;
/// re-registering its block with AddBlock drops the caches.
class SimTransport final : public net::StatefulTransport {
 public:
  explicit SimTransport(std::uint64_t site_seed) : site_seed_(site_seed) {}

  /// Registers a block, replacing any spec registered for it before.
  /// The spec must outlive the transport.
  void AddBlock(const BlockSpec* spec);

  net::ProbeStatus Probe(net::Ipv4Addr target, std::int64_t when_sec) override;

  void SaveState(std::vector<std::uint8_t>& out) const override;
  bool RestoreState(std::span<const std::uint8_t> in) override;

  std::uint64_t probes_sent() const noexcept { return probes_sent_; }

 private:
  // No real block has this index (indices are 24-bit).
  static constexpr std::uint32_t kNoBlock = 0xffffffffu;

  struct WindowSlot {
    std::uint32_t block = kNoBlock;
    std::int64_t day = 0;
    DiurnalWindow window;
  };
  struct AttemptSlot {
    std::uint64_t epoch = 0;
    std::uint32_t target = 0;
    std::uint32_t count = 0;
  };

  // The memoized DiurnalWindowOfDay of `octet` (a diurnal address of
  // `spec`, registered as `block`) for `day`.
  const DiurnalWindow& WindowOf(const BlockSpec& spec, std::uint32_t block,
                                std::uint8_t octet, std::int64_t day) noexcept;
  // Attempt index of this probe of `target` at the current instant.
  std::uint32_t NextAttempt(net::Ipv4Addr target);

  std::unordered_map<std::uint32_t, const BlockSpec*> blocks_;
  std::uint64_t site_seed_;
  std::uint64_t probes_sent_ = 0;

  std::uint32_t cached_block_ = kNoBlock;
  const BlockSpec* cached_spec_ = nullptr;
  std::array<std::array<WindowSlot, 2>, net::kBlockSize> windows_{};

  // Per-instant attempt transients (same idiom as FaultyTransport):
  // reset whenever the probed instant changes, so a campaign resumed at
  // a round boundary starts the instant with fresh counters exactly as
  // an uninterrupted run did. The stamp is an epoch, not the instant:
  // instants may recur out of order (t1, t2, t1), and the second t1
  // restarts its counts.
  std::int64_t current_when_ = -1;
  std::uint64_t epoch_ = 1;
  std::array<AttemptSlot, net::kBlockSize> attempts_{};
  std::unordered_map<std::uint32_t, std::uint32_t> attempt_overflow_;
};

}  // namespace sleepwalk::sim

#endif  // SLEEPWALK_SIM_BLOCK_H_
