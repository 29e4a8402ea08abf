// Golden bit-exactness test for the simulated world (block.h, behavior.h).
//
// Every probe status a SimTransport returns and every TrueAvailability
// value is a pure function of (world seed, site seed, target, instant,
// attempt). Datasets, checkpoints and the survey ground truth behind
// Table 1 all inherit those bits, so any change to how the transport
// evaluates the world (caching, reordering, refactoring the window
// math) must reproduce them exactly. The hashes below are FNV-1a over
// the status bytes and the raw TrueAvailability doubles on a fixed
// grid, and were recorded with the original per-probe evaluation
// (per-probe window draws and a per-instant attempt map). Never
// re-record them to make a change pass: a mismatch means the change
// moved the simulated world.
//
// The grid: a seeded SimWorld (every third block, all ever-active
// octets) plus hand-built blocks that force the corner cases — windows
// crossing midnight, start jitter pushing a window into the previous
// day, duration jitter clamped to zero, outages spanning a day boundary
// — probed at instants spanning five days, negative times and exact
// day boundaries included, with repeated probes at one instant.
//
// The pinned bytes assume a build without FMA (no product fused into
// the window sums) and glibc's libm for the log/sqrt/cos of the
// Gaussian jitter draws.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sleepwalk/net/ipv4.h"
#include "sleepwalk/sim/block.h"
#include "sleepwalk/sim/world.h"

namespace sleepwalk::sim {
namespace {

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::uint64_t HashByte(std::uint64_t hash, std::uint8_t byte) {
  hash ^= byte;
  return hash * 0x100000001b3ULL;
}

template <typename T>
std::uint64_t HashValue(std::uint64_t hash, const T& value) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(&value);
  for (std::size_t i = 0; i < sizeof(T); ++i) hash = HashByte(hash, bytes[i]);
  return hash;
}

// Hand-built blocks covering the window corner cases the generated
// world may or may not draw. Indices sit far from the world's blocks
// (the test asserts they do not collide).
std::vector<BlockSpec> CornerSpecs() {
  std::vector<BlockSpec> specs;
  BlockSpec base;
  base.response_prob = 0.9F;
  base.n_always = 4;
  base.n_diurnal = 40;
  base.n_intermittent = 10;
  base.intermittent_duty = 0.3F;
  base.intermittent_chunk_sec = 3300;

  // Window crossing midnight with heavy start and duration jitter.
  BlockSpec spec = base;
  spec.block = net::Prefix24::FromIndex(0xfe0001);
  spec.seed = 0x6a11;
  spec.on_start_sec = 20.0F * 3600.0F;
  spec.on_duration_sec = 9.0F * 3600.0F;
  spec.phase_spread_sec = 3.0F * 3600.0F;
  spec.sigma_start_sec = 2.0F * 3600.0F;
  spec.sigma_duration_sec = 1.5F * 3600.0F;
  specs.push_back(spec);

  // Start near 00:00, so jitter moves some windows into the previous day.
  spec = base;
  spec.block = net::Prefix24::FromIndex(0xfe0002);
  spec.seed = 0x6a12;
  spec.on_start_sec = 0.2F * 3600.0F;
  spec.on_duration_sec = 6.0F * 3600.0F;
  spec.sigma_start_sec = 1.0F * 3600.0F;
  spec.sigma_duration_sec = 0.5F * 3600.0F;
  specs.push_back(spec);

  // Short window with a duration jitter large enough to clamp at zero.
  spec = base;
  spec.block = net::Prefix24::FromIndex(0xfe0003);
  spec.seed = 0x6a13;
  spec.on_start_sec = 12.0F * 3600.0F;
  spec.on_duration_sec = 0.5F * 3600.0F;
  spec.phase_spread_sec = 1.0F * 3600.0F;
  spec.sigma_duration_sec = 2.0F * 3600.0F;
  specs.push_back(spec);

  // Outage spanning the day-1 midnight, on an unjittered crossing window.
  spec = base;
  spec.block = net::Prefix24::FromIndex(0xfe0004);
  spec.seed = 0x6a14;
  spec.on_start_sec = 18.0F * 3600.0F;
  spec.on_duration_sec = 10.0F * 3600.0F;
  spec.outage_start_sec = kDaySeconds - 3 * 3600;
  spec.outage_end_sec = kDaySeconds + 2 * 3600;
  specs.push_back(spec);

  // A full block: octets up to .254 (the last ever-active octet).
  spec = base;
  spec.block = net::Prefix24::FromIndex(0xfe0005);
  spec.seed = 0x6a15;
  spec.n_always = 54;
  spec.n_diurnal = 150;
  spec.n_intermittent = 50;
  spec.on_start_sec = 7.0F * 3600.0F;
  spec.on_duration_sec = 11.0F * 3600.0F;
  spec.phase_spread_sec = 4.0F * 3600.0F;
  spec.sigma_start_sec = 0.5F * 3600.0F;
  spec.sigma_duration_sec = 1.0F * 3600.0F;
  specs.push_back(spec);
  return specs;
}

// Instants from day -2 to day +3: a coarse step that lands on varied
// times of day, plus the exact day boundaries and their neighbours.
std::vector<std::int64_t> Instants() {
  std::vector<std::int64_t> instants;
  for (std::int64_t t = -2 * kDaySeconds; t < 3 * kDaySeconds; t += 2999) {
    instants.push_back(t);
  }
  for (std::int64_t day = -2; day <= 3; ++day) {
    for (const std::int64_t delta : {-1, 0, 1}) {
      instants.push_back(day * kDaySeconds + delta);
    }
  }
  return instants;
}

TEST(TransportGolden, StatusesAndTruthMatchRecordedHashes) {
#if defined(__FMA__)
  GTEST_SKIP() << "hashes are pinned for a build without FMA contraction";
#endif
  WorldConfig config;
  config.total_blocks = 150;
  config.seed = 0x601d;
  config.outage_fraction = 0.3;
  config.duration_days = 3;
  const SimWorld world = SimWorld::Generate(config);

  std::vector<const BlockSpec*> specs;
  for (std::size_t i = 0; i < world.blocks().size(); i += 3) {
    specs.push_back(&world.blocks()[i].spec);
  }
  const auto corners = CornerSpecs();
  for (const auto& spec : corners) {
    ASSERT_EQ(world.Find(spec.block), nullptr);
    specs.push_back(&spec);
  }
  const auto instants = Instants();

  // Pass 1: blocks outer, instants inner (the campaign drivers' order);
  // every third instant probes each address twice (attempts 0 and 1).
  std::uint64_t block_major = kFnvBasis;
  {
    SimTransport transport{0x5173};
    for (const auto* spec : specs) transport.AddBlock(spec);
    for (const auto* spec : specs) {
      const auto octets = EverActiveOctets(*spec);
      for (std::size_t i = 0; i < instants.size(); ++i) {
        const int repeats = i % 3 == 0 ? 2 : 1;
        for (int r = 0; r < repeats; ++r) {
          for (const auto octet : octets) {
            const auto status =
                transport.Probe(spec->block.Address(octet), instants[i]);
            block_major =
                HashByte(block_major, static_cast<std::uint8_t>(status));
          }
        }
      }
    }
  }

  // Pass 2: instants outer, blocks inner, on another site seed; each
  // instant also probes one unregistered block and .0/.255.
  std::uint64_t instant_major = kFnvBasis;
  {
    SimTransport transport{0xa11e};
    for (const auto* spec : specs) transport.AddBlock(spec);
    for (const auto when : instants) {
      for (const auto* spec : specs) {
        for (const int octet : {0, 255}) {
          const auto status = transport.Probe(
              spec->block.Address(static_cast<std::uint8_t>(octet)), when);
          instant_major =
              HashByte(instant_major, static_cast<std::uint8_t>(status));
        }
        for (const auto octet : EverActiveOctets(*spec)) {
          const auto status = transport.Probe(spec->block.Address(octet), when);
          instant_major =
              HashByte(instant_major, static_cast<std::uint8_t>(status));
        }
      }
      const auto unknown = transport.Probe(
          net::Prefix24::FromIndex(0xfeffff).Address(7), when);
      instant_major =
          HashByte(instant_major, static_cast<std::uint8_t>(unknown));
    }
  }

  std::uint64_t truth = kFnvBasis;
  for (const auto* spec : specs) {
    for (const auto when : instants) {
      truth = HashValue(truth, TrueAvailability(*spec, when));
    }
  }

  EXPECT_EQ(block_major, 0x0b2a24cd25f17076ULL) << std::hex << block_major;
  EXPECT_EQ(instant_major, 0xc8453f148451abc6ULL) << std::hex << instant_major;
  EXPECT_EQ(truth, 0x8b4e9f1982f71cd5ULL) << std::hex << truth;
}

}  // namespace
}  // namespace sleepwalk::sim
