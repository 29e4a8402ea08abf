// Differential test: the memoized SimTransport against a memo-free
// reference.
//
// SimTransport caches the last resolved block, a per-(octet, day parity)
// memo of diurnal windows, and epoch-stamped attempt counters. All of it
// is derived state, so on any probe sequence the transport must return
// exactly what per-probe evaluation returns. The reference below is that
// evaluation spelled out: a map lookup per probe, AddressResponds on the
// keyed (site seed, target, when, attempt) stream, and an attempt map
// cleared whenever the probed instant changes. The sequences aim at the
// places a cache could go stale: blocks interleaved at one instant, two
// blocks' same octet at one instant (the attempt table's overflow path),
// revisited instants, a spec replaced under the same block, RestoreState
// in the middle of an instant, and negative days.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "sleepwalk/net/ipv4.h"
#include "sleepwalk/sim/block.h"
#include "sleepwalk/util/rng.h"

namespace sleepwalk::sim {
namespace {

class ReferenceTransport {
 public:
  explicit ReferenceTransport(std::uint64_t site_seed)
      : site_seed_(site_seed) {}

  void AddBlock(const BlockSpec* spec) {
    blocks_.insert_or_assign(spec->block.Index(), spec);
  }

  net::ProbeStatus Probe(net::Ipv4Addr target, std::int64_t when_sec) {
    ++probes_sent_;
    const auto it = blocks_.find(net::Prefix24{target}.Index());
    if (it == blocks_.end()) return net::ProbeStatus::kUnreachable;
    if (when_sec != current_when_) {
      current_when_ = when_sec;
      attempt_counts_.clear();
    }
    const std::uint32_t attempt = attempt_counts_[target.value()]++;
    Rng stream = Rng::ForStream(
        site_seed_,
        (static_cast<std::uint64_t>(target.value()) << 16) | attempt,
        static_cast<std::uint64_t>(when_sec));
    return AddressResponds(*it->second, target.Octets()[3], when_sec, stream)
               ? net::ProbeStatus::kEchoReply
               : net::ProbeStatus::kTimeout;
  }

  void Restore(std::uint64_t probes_sent) {
    probes_sent_ = probes_sent;
    current_when_ = -1;
    attempt_counts_.clear();
  }

  std::uint64_t probes_sent() const noexcept { return probes_sent_; }

 private:
  std::unordered_map<std::uint32_t, const BlockSpec*> blocks_;
  std::uint64_t site_seed_;
  std::uint64_t probes_sent_ = 0;
  std::int64_t current_when_ = -1;
  std::unordered_map<std::uint32_t, std::uint32_t> attempt_counts_;
};

// A block whose every category is present and whose statuses are far
// from constant: response_prob 0.5 makes each attempt's draw visible,
// heavy jitter makes each day's window differ.
BlockSpec JitteredSpec(std::uint32_t index, std::uint64_t seed) {
  BlockSpec spec;
  spec.block = net::Prefix24::FromIndex(index);
  spec.seed = seed;
  spec.n_always = 6;
  spec.n_diurnal = 30;
  spec.n_intermittent = 8;
  spec.response_prob = 0.5F;
  spec.on_start_sec = 19.0F * 3600.0F;
  spec.on_duration_sec = 8.0F * 3600.0F;
  spec.phase_spread_sec = 3.0F * 3600.0F;
  spec.sigma_start_sec = 2.0F * 3600.0F;
  spec.sigma_duration_sec = 2.0F * 3600.0F;
  spec.intermittent_chunk_sec = 1800;
  return spec;
}

// Drives the transport under test and the reference in lockstep.
class Lockstep {
 public:
  explicit Lockstep(std::uint64_t site_seed)
      : memo_(site_seed), reference_(site_seed) {}

  void AddBlock(const BlockSpec* spec) {
    memo_.AddBlock(spec);
    reference_.AddBlock(spec);
  }

  // Probes both and expects equal statuses; returns the status.
  net::ProbeStatus Probe(net::Ipv4Addr target, std::int64_t when_sec) {
    const auto got = memo_.Probe(target, when_sec);
    const auto want = reference_.Probe(target, when_sec);
    EXPECT_EQ(got, want) << "probe #" << probes_ << " of "
                         << target.ToString() << " at " << when_sec;
    ++probes_;
    return got;
  }

  // Saves the memoized transport and restores it into itself, as a
  // resumed campaign does; the reference drops its transients likewise.
  void SaveAndRestore() {
    std::vector<std::uint8_t> state;
    memo_.SaveState(state);
    ASSERT_TRUE(memo_.RestoreState(state));
    reference_.Restore(memo_.probes_sent());
  }

  void ExpectSameAccounting() const {
    EXPECT_EQ(memo_.probes_sent(), reference_.probes_sent());
  }

  int probes() const noexcept { return probes_; }

 private:
  SimTransport memo_;
  ReferenceTransport reference_;
  int probes_ = 0;
};

TEST(TransportMemo, InterleavedBlocksAtOneInstant) {
  const auto a = JitteredSpec(0x0a0001, 0x11);
  const auto b = JitteredSpec(0x0a0002, 0x22);
  Lockstep lockstep{7};
  lockstep.AddBlock(&a);
  lockstep.AddBlock(&b);
  for (std::int64_t when = -3 * kDaySeconds; when < 3 * kDaySeconds;
       when += 1357) {
    for (int octet = 1; octet <= a.EverActiveCount(); ++octet) {
      const auto o = static_cast<std::uint8_t>(octet);
      lockstep.Probe(a.block.Address(o), when);
      lockstep.Probe(b.block.Address(o), when);
    }
  }
  lockstep.ExpectSameAccounting();
}

TEST(TransportMemo, SameOctetOfTwoBlocksTakesOverflowPath) {
  const auto a = JitteredSpec(0x0a0001, 0x11);
  const auto b = JitteredSpec(0x0a0002, 0x22);
  Lockstep lockstep{9};
  lockstep.AddBlock(&a);
  lockstep.AddBlock(&b);
  // Octet 3 is always-on, so each status is one response draw and the
  // attempt index decides it. Alternating blocks puts b's .3 in the
  // overflow map behind a's .3 in the table.
  int replies = 0;
  for (std::int64_t when = 0; when < 50 * 660; when += 660) {
    for (int repeat = 0; repeat < 6; ++repeat) {
      for (const auto* spec : {&a, &b, &b, &a}) {
        if (lockstep.Probe(spec->block.Address(3), when) ==
            net::ProbeStatus::kEchoReply) {
          ++replies;
        }
      }
    }
  }
  // Both outcomes occur, so the draws really depend on the attempt.
  EXPECT_GT(replies, 0);
  EXPECT_LT(replies, lockstep.probes());
  lockstep.ExpectSameAccounting();
}

TEST(TransportMemo, RevisitedInstantRestartsAttempts) {
  const auto a = JitteredSpec(0x0a0001, 0x11);
  Lockstep lockstep{3};
  lockstep.AddBlock(&a);
  const std::int64_t t1 = 5 * 3600;
  const std::int64_t t2 = t1 + 660;
  for (const std::int64_t when : {t1, t1, t2, t1, t1, t2, t2, t1}) {
    for (int octet = 1; octet <= 10; ++octet) {
      lockstep.Probe(a.block.Address(static_cast<std::uint8_t>(octet)), when);
    }
  }
  lockstep.ExpectSameAccounting();
}

TEST(TransportMemo, UnreachableProbeDoesNotEndTheInstant) {
  const auto a = JitteredSpec(0x0a0001, 0x11);
  Lockstep lockstep{4};
  lockstep.AddBlock(&a);
  const auto unknown = net::Prefix24::FromIndex(0x0b0000).Address(1);
  const std::int64_t t1 = 12 * 3600;
  for (int round = 0; round < 20; ++round) {
    lockstep.Probe(a.block.Address(2), t1);
    EXPECT_EQ(lockstep.Probe(unknown, t1 + 1),
              net::ProbeStatus::kUnreachable);
  }
  lockstep.ExpectSameAccounting();
}

TEST(TransportMemo, ReplacedSpecDropsTheMemo) {
  auto first = JitteredSpec(0x0a0001, 0x11);
  auto second = JitteredSpec(0x0a0001, 0x99);
  second.on_start_sec = 7.0F * 3600.0F;
  second.response_prob = 0.9F;
  Lockstep lockstep{5};
  lockstep.AddBlock(&first);
  const auto sweep = [&](const BlockSpec& spec) {
    for (std::int64_t when = 0; when < 2 * kDaySeconds; when += 2400) {
      for (int octet = 1; octet <= spec.EverActiveCount(); ++octet) {
        lockstep.Probe(spec.block.Address(static_cast<std::uint8_t>(octet)),
                       when);
      }
    }
  };
  sweep(first);
  lockstep.AddBlock(&second);
  sweep(second);
  lockstep.AddBlock(&first);
  sweep(first);
  lockstep.ExpectSameAccounting();
}

TEST(TransportMemo, RestoreStateMidInstantRestartsAttempts) {
  const auto a = JitteredSpec(0x0a0001, 0x11);
  Lockstep lockstep{6};
  lockstep.AddBlock(&a);
  // -1 is also the "no instant yet" value a restore resets to, so a
  // restore in the middle of instant -1 must still restart its counts.
  const std::int64_t instants[] = {-kDaySeconds + 7, -1, 0, -1, 12 * 3600};
  for (const std::int64_t when : instants) {
    for (int repeat = 0; repeat < 3; ++repeat) {
      for (int octet = 1; octet <= a.EverActiveCount(); ++octet) {
        lockstep.Probe(a.block.Address(static_cast<std::uint8_t>(octet)),
                       when);
      }
      lockstep.SaveAndRestore();
    }
  }
  lockstep.ExpectSameAccounting();
}

// Random operation sequences over three blocks sharing octets, a small
// pool of instants (so instants recur out of order), unregistered
// blocks, spec replacements and restores.
TEST(TransportMemo, RandomSequencesMatchReference) {
  const BlockSpec specs[] = {
      JitteredSpec(0x0a0001, 0x11), JitteredSpec(0x0a0002, 0x22),
      JitteredSpec(0x0a0003, 0x33), JitteredSpec(0x0a0001, 0x44)};
  std::vector<std::int64_t> instants;
  for (std::int64_t day = -2; day <= 2; ++day) {
    for (const std::int64_t second : {0, 1, 3 * 3600, 20 * 3600, 86399}) {
      instants.push_back(day * kDaySeconds + second);
    }
  }
  for (std::uint64_t trial = 0; trial < 20; ++trial) {
    Rng rng{0xd1ffULL + trial};
    Lockstep lockstep{trial};
    for (int i = 0; i < 3; ++i) lockstep.AddBlock(&specs[i]);
    std::int64_t when = instants[0];
    for (int step = 0; step < 4000; ++step) {
      const std::uint64_t roll = rng.NextBelow(1000);
      if (roll < 2) {
        lockstep.AddBlock(&specs[rng.NextBelow(4)]);
      } else if (roll < 4) {
        lockstep.SaveAndRestore();
      } else if (roll < 60) {
        when = instants[rng.NextBelow(instants.size())];
      } else {
        const std::uint32_t index = 0x0a0001 + rng.NextBelow(4);
        const auto octet = static_cast<std::uint8_t>(rng.NextBelow(48));
        lockstep.Probe(net::Prefix24::FromIndex(index).Address(octet), when);
      }
    }
    lockstep.ExpectSameAccounting();
  }
}

}  // namespace
}  // namespace sleepwalk::sim
