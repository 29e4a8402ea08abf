#include "sleepwalk/net/checksum.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "sleepwalk/util/rng.h"

namespace sleepwalk::net {
namespace {

TEST(Checksum, EmptyBufferIsAllOnes) {
  EXPECT_EQ(Checksum({}), 0xffff);
}

TEST(Checksum, KnownRfc1071Example) {
  // The classic example from RFC 1071 §3: data 00 01 f2 03 f4 f5 f6 f7
  // sums to 0xddf2 (with carry folding); checksum is its complement.
  const std::array<std::uint8_t, 8> data = {0x00, 0x01, 0xf2, 0x03,
                                            0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(Checksum(data), static_cast<std::uint16_t>(~0xddf2 & 0xffff));
}

TEST(Checksum, OddLengthPadsWithZero) {
  const std::array<std::uint8_t, 3> data = {0x01, 0x02, 0x03};
  // Words: 0x0102, 0x0300 -> sum 0x0402 -> ~ = 0xfbfd.
  EXPECT_EQ(Checksum(data), 0xfbfd);
}

TEST(Checksum, VerificationOfValidPacketYieldsZero) {
  // A buffer whose checksum field is filled correctly re-checksums to 0.
  std::vector<std::uint8_t> packet = {0x08, 0x00, 0x00, 0x00,
                                      0x12, 0x34, 0x00, 0x01};
  const std::uint16_t sum = Checksum(packet);
  packet[2] = static_cast<std::uint8_t>(sum >> 8);
  packet[3] = static_cast<std::uint8_t>(sum & 0xff);
  EXPECT_EQ(Checksum(packet), 0);
}

TEST(InternetChecksum, IncrementalMatchesOneShot) {
  std::vector<std::uint8_t> data(57);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  const std::uint16_t expected = Checksum(data);

  // Feed in every possible two-way split, including odd splits that
  // leave a byte pending across the boundary.
  for (std::size_t split = 0; split <= data.size(); ++split) {
    InternetChecksum acc;
    acc.Add(std::span{data.data(), split});
    acc.Add(std::span{data.data() + split, data.size() - split});
    EXPECT_EQ(acc.Finish(), expected) << "split at " << split;
  }
}

TEST(InternetChecksum, ManySmallChunksMatchOneShot) {
  std::vector<std::uint8_t> data(101);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(255 - i);
  }
  InternetChecksum acc;
  for (const auto byte : data) acc.Add(std::span{&byte, 1});
  EXPECT_EQ(acc.Finish(), Checksum(data));
}

TEST(Checksum, CarryFolding) {
  // All-0xff data forces repeated carry folds.
  const std::vector<std::uint8_t> data(64, 0xff);
  EXPECT_EQ(Checksum(data), 0x0000);
}

// CRC32C one bit at a time, straight from the reflected polynomial: no
// tables, no instruction, no lanes. Every fast path must agree with it.
std::uint32_t BitSerialCrc32c(std::span<const std::uint8_t> data) {
  std::uint32_t crc = 0xffffffffU;
  for (const std::uint8_t byte : data) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1U) != 0 ? (crc >> 1) ^ 0x82F63B78U : crc >> 1;
    }
  }
  return crc ^ 0xffffffffU;
}

// Deterministic bytes with no period a lane length divides.
std::vector<std::uint8_t> NoiseBytes(std::size_t n) {
  Rng rng(0xc4c32c);
  std::vector<std::uint8_t> out(n);
  for (auto& byte : out) byte = static_cast<std::uint8_t>(rng() >> 56);
  return out;
}

TEST(Crc32c, Rfc3720Vectors) {
  // RFC 3720 appendix B.4, and the catalogue check value.
  std::array<std::uint8_t, 32> bytes{};
  EXPECT_EQ(Crc32cOf(bytes), 0x8A9136AAU);
  bytes.fill(0xff);
  EXPECT_EQ(Crc32cOf(bytes), 0x62A8AB43U);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(i);
  }
  EXPECT_EQ(Crc32cOf(bytes), 0x46DD794EU);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(31 - i);
  }
  EXPECT_EQ(Crc32cOf(bytes), 0x113FDB5CU);
  constexpr std::string_view kCheck = "123456789";
  EXPECT_EQ(Crc32cOf({reinterpret_cast<const std::uint8_t*>(kCheck.data()),
                      kCheck.size()}),
            0xE3069283U);
}

TEST(Crc32c, MatchesBitSerialAtEveryLengthUpTo1024AndEveryOffset) {
  const auto data = NoiseBytes(1024 + 8);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 1024; ++length) {
      const std::span<const std::uint8_t> view{data.data() + offset, length};
      ASSERT_EQ(Crc32cOf(view), BitSerialCrc32c(view))
          << "length " << length << " offset " << offset;
    }
  }
}

TEST(Crc32c, MatchesBitSerialAroundEachLaneThreshold) {
  // The hardware path switches at 3 x 256 B and 3 x 8 KiB blocks; the
  // lengths above 100 KB run several large blocks, then small blocks,
  // then a tail, so every fold meets every other.
  std::vector<std::size_t> lengths;
  for (const std::size_t threshold : {std::size_t{768}, std::size_t{24'576}}) {
    for (std::size_t length = threshold - 8; length <= threshold + 8;
         ++length) {
      lengths.push_back(length);
    }
  }
  for (const std::size_t length :
       {std::size_t{24'576 + 768 + 7}, std::size_t{100'003},
        std::size_t{4 * 24'576 + 2 * 768 + 255}, std::size_t{131'072}}) {
    lengths.push_back(length);
  }
  const auto data = NoiseBytes(131'072 + 8);
  for (const std::size_t length : lengths) {
    for (std::size_t offset = 0; offset < 8; ++offset) {
      const std::span<const std::uint8_t> view{data.data() + offset, length};
      ASSERT_EQ(Crc32cOf(view), BitSerialCrc32c(view))
          << "length " << length << " offset " << offset;
    }
  }
}

TEST(Crc32c, ChunkedAddMatchesOneShot) {
  // Split points at seeded random places. Chunk sizes are log-uniform
  // up to 64 KiB, past the large-lane block, so a lane run may start at
  // any alignment and a chunk may be empty.
  const auto data = NoiseBytes(200'000);
  const std::uint32_t expected = Crc32cOf(data);
  Rng rng(0x5b117);
  for (int trial = 0; trial < 50; ++trial) {
    Crc32c acc;
    std::size_t at = 0;
    while (at < data.size()) {
      const std::size_t limit = std::size_t{1} << (rng() % 17);
      const std::size_t chunk = std::min<std::size_t>(
          data.size() - at, static_cast<std::size_t>(rng() % limit));
      acc.Add({data.data() + at, chunk});
      at += chunk;
    }
    ASSERT_EQ(acc.Finish(), expected) << "trial " << trial;
  }
}

}  // namespace
}  // namespace sleepwalk::net
