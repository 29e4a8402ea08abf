#include "sleepwalk/sim/block.h"

#include <algorithm>

namespace sleepwalk::sim {

namespace {

enum class Category { kNone, kAlways, kDiurnal, kIntermittent };

Category CategoryOf(const BlockSpec& spec, std::uint8_t octet) noexcept {
  // Ever-active addresses occupy octets [1, 1 + EverActiveCount()).
  if (octet < 1) return Category::kNone;
  int index = octet - 1;
  if (index < spec.n_always) return Category::kAlways;
  index -= spec.n_always;
  if (index < spec.n_diurnal) return Category::kDiurnal;
  index -= spec.n_diurnal;
  if (index < spec.n_intermittent) return Category::kIntermittent;
  return Category::kNone;
}

bool InOutage(const BlockSpec& spec, std::int64_t when_sec) noexcept {
  return spec.outage_start_sec >= 0 && when_sec >= spec.outage_start_sec &&
         when_sec < spec.outage_end_sec;
}

DiurnalParams DiurnalParamsOf(const BlockSpec& spec,
                              std::uint8_t octet) noexcept {
  DiurnalParams params;
  params.on_start_sec = DiurnalStartOf(spec, octet);
  params.on_duration_sec = spec.on_duration_sec;
  params.sigma_start_sec = spec.sigma_start_sec;
  params.sigma_duration_sec = spec.sigma_duration_sec;
  return params;
}

// The one on-state rule, shared by AddressIsOn and SimTransport.
// `window_of_day(day)` yields the address's DiurnalWindowOfDay for a
// day; it is called only for diurnal addresses.
template <typename WindowOfDay>
bool IsOnWith(const BlockSpec& spec, std::uint8_t octet, std::int64_t when_sec,
              WindowOfDay&& window_of_day) {
  if (InOutage(spec, when_sec)) return false;
  switch (CategoryOf(spec, octet)) {
    case Category::kNone:
      return false;
    case Category::kAlways:
      return true;
    case Category::kDiurnal:
      return InDiurnalWindow(when_sec, window_of_day);
    case Category::kIntermittent:
      return IntermittentIsOn(spec.intermittent_duty,
                              spec.intermittent_chunk_sec, when_sec,
                              MixHash(spec.seed, octet, 0x17u));
  }
  return false;
}

}  // namespace

double DiurnalStartOf(const BlockSpec& spec, std::uint8_t octet) noexcept {
  const double offset =
      spec.phase_spread_sec > 0.0F
          ? HashUniform(MixHash(spec.seed, octet, 0x9a5eu)) *
                static_cast<double>(spec.phase_spread_sec)
          : 0.0;
  return static_cast<double>(spec.on_start_sec) + offset;
}

bool AddressIsOn(const BlockSpec& spec, std::uint8_t octet,
                 std::int64_t when_sec) noexcept {
  return IsOnWith(spec, octet, when_sec, [&](std::int64_t day) {
    return DiurnalWindowOfDay(DiurnalParamsOf(spec, octet), day,
                              MixHash(spec.seed, octet));
  });
}

bool AddressResponds(const BlockSpec& spec, std::uint8_t octet,
                     std::int64_t when_sec, Rng& rng) noexcept {
  if (!AddressIsOn(spec, octet, when_sec)) return false;
  return rng.NextBool(static_cast<double>(spec.response_prob));
}

double TrueAvailability(const BlockSpec& spec,
                        std::int64_t when_sec) noexcept {
  const int ever_active = spec.EverActiveCount();
  if (ever_active == 0) return 0.0;
  int up = 0;
  for (int octet = 1; octet <= ever_active; ++octet) {
    if (AddressIsOn(spec, static_cast<std::uint8_t>(octet), when_sec)) ++up;
  }
  return static_cast<double>(up) * static_cast<double>(spec.response_prob) /
         static_cast<double>(ever_active);
}

std::vector<std::uint8_t> EverActiveOctets(const BlockSpec& spec) {
  const int count = spec.EverActiveCount();
  std::vector<std::uint8_t> octets;
  octets.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    octets.push_back(static_cast<std::uint8_t>(1 + i));
  }
  return octets;
}

void SimTransport::AddBlock(const BlockSpec* spec) {
  const std::uint32_t block = spec->block.Index();
  if (blocks_.insert_or_assign(block, spec).second) return;
  // Replaced a spec: whatever was derived from the old one is stale.
  cached_block_ = kNoBlock;
  windows_.fill({});
}

const DiurnalWindow& SimTransport::WindowOf(const BlockSpec& spec,
                                            std::uint32_t block,
                                            std::uint8_t octet,
                                            std::int64_t day) noexcept {
  WindowSlot& slot = windows_[octet][static_cast<std::size_t>(day & 1)];
  if (slot.block != block || slot.day != day) {
    slot.block = block;
    slot.day = day;
    slot.window = DiurnalWindowOfDay(DiurnalParamsOf(spec, octet), day,
                                     MixHash(spec.seed, octet));
  }
  return slot.window;
}

std::uint32_t SimTransport::NextAttempt(net::Ipv4Addr target) {
  AttemptSlot& slot = attempts_[target.value() & 0xffu];
  if (slot.epoch != epoch_) {
    slot = {epoch_, target.value(), 1};
    return 0;
  }
  if (slot.target == target.value()) return slot.count++;
  // Another address with this low octet was probed at this instant.
  return attempt_overflow_[target.value()]++;
}

net::ProbeStatus SimTransport::Probe(net::Ipv4Addr target,
                                     std::int64_t when_sec) {
  ++probes_sent_;
  const std::uint32_t block = net::Prefix24{target}.Index();
  if (block != cached_block_) {
    const auto it = blocks_.find(block);
    if (it == blocks_.end()) return net::ProbeStatus::kUnreachable;
    cached_block_ = block;
    cached_spec_ = it->second;
  }
  if (when_sec != current_when_) {
    current_when_ = when_sec;
    ++epoch_;
    attempt_overflow_.clear();
  }
  const std::uint32_t attempt = NextAttempt(target);
  const BlockSpec& spec = *cached_spec_;
  const auto octet = static_cast<std::uint8_t>(target.value() & 0xffu);
  const bool on = IsOnWith(spec, octet, when_sec, [&](std::int64_t day) {
    return WindowOf(spec, block, octet, day);
  });
  if (!on) return net::ProbeStatus::kTimeout;
  // Keyed stream, not a sequenced one: the draw for (target, when,
  // attempt) is identical whatever was probed before it, so drawing it
  // only for addresses that are up is exact.
  Rng stream = Rng::ForStream(
      site_seed_, (static_cast<std::uint64_t>(target.value()) << 16) | attempt,
      static_cast<std::uint64_t>(when_sec));
  return stream.NextBool(static_cast<double>(spec.response_prob))
             ? net::ProbeStatus::kEchoReply
             : net::ProbeStatus::kTimeout;
}

void SimTransport::SaveState(std::vector<std::uint8_t>& out) const {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&probes_sent_);
  out.insert(out.end(), p, p + sizeof(probes_sent_));
}

bool SimTransport::RestoreState(std::span<const std::uint8_t> in) {
  if (in.size() != sizeof(probes_sent_)) return false;
  std::copy_n(in.data(), sizeof(probes_sent_),
              reinterpret_cast<std::uint8_t*>(&probes_sent_));
  current_when_ = -1;
  ++epoch_;
  attempt_overflow_.clear();
  return true;
}

}  // namespace sleepwalk::sim
