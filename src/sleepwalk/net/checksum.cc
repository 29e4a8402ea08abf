#include "sleepwalk/net/checksum.h"

#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#include <nmmintrin.h>
#define SLEEPWALK_CRC32C_X86 1
#endif

namespace sleepwalk::net {

void InternetChecksum::Add(std::span<const std::uint8_t> data) noexcept {
  std::size_t i = 0;
  if (odd_ && !data.empty()) {
    // Complete the previously half-filled 16-bit word: the pending byte
    // was already added as the high half, this one is the low half.
    sum_ += data[0];
    odd_ = false;
    i = 1;
  }
  for (; i + 1 < data.size(); i += 2) {
    sum_ += (static_cast<std::uint32_t>(data[i]) << 8) | data[i + 1];
  }
  if (i < data.size()) {
    sum_ += static_cast<std::uint32_t>(data[i]) << 8;
    odd_ = true;
  }
}

std::uint16_t InternetChecksum::Finish() const noexcept {
  std::uint64_t sum = sum_;
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum & 0xffff);
}

std::uint16_t Checksum(std::span<const std::uint8_t> data) noexcept {
  InternetChecksum acc;
  acc.Add(data);
  return acc.Finish();
}

namespace {

/// The Castagnoli polynomial 0x1EDC6F41, reflected.
constexpr std::uint32_t kCrc32cPoly = 0x82F63B78U;

/// Slicing-by-8 tables for the Castagnoli polynomial 0x1EDC6F41
/// (reversed: 0x82F63B78), built at compile time. Table 0 is the
/// classic byte-at-a-time table; table k advances a byte's influence k
/// further positions, so the hot loop folds 8 input bytes per
/// iteration — checkpoint saves and resume loads CRC megabytes of
/// section payload, and the byte-wise loop was a measurable share of
/// the durability tax (bench/checkpoint_io).
struct Crc32cTables {
  constexpr Crc32cTables() : entries{} {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1U) != 0 ? (crc >> 1) ^ kCrc32cPoly : crc >> 1;
      }
      entries[0][i] = crc;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = entries[0][i];
      for (int slice = 1; slice < 8; ++slice) {
        crc = (crc >> 8) ^ entries[0][crc & 0xffU];
        entries[slice][i] = crc;
      }
    }
  }
  std::uint32_t entries[8][256];
};

constexpr Crc32cTables kCrc32c{};

/// Little-endian 64-bit load (host is LE on every supported target, see
/// storage/bytes.h); the CRC state folds into the low word.
std::uint64_t Load64(const std::uint8_t* p) noexcept {
  std::uint64_t chunk = 0;
  std::memcpy(&chunk, p, sizeof(chunk));
  return chunk;
}

#if SLEEPWALK_CRC32C_X86
/// a * b modulo the polynomial, both in the reflected representation a
/// CRC register uses (bit 31 is the x^0 coefficient): 32 shift-and-add
/// steps, the multiply behind zlib's crc32_combine.
constexpr std::uint32_t MultModP(std::uint32_t a, std::uint32_t b) noexcept {
  std::uint32_t product = 0;
  for (std::uint32_t m = 1U << 31; m != 0; m >>= 1) {
    if ((a & m) != 0) product ^= b;
    b = (b & 1U) != 0 ? (b >> 1) ^ kCrc32cPoly : b >> 1;
  }
  return product;
}

/// x^(8 * bytes) modulo the polynomial, by square-and-multiply. A raw
/// CRC register multiplied by it is the register after `bytes` zero
/// bytes: the shift that moves a lane's CRC past the lanes after it.
constexpr std::uint32_t ShiftBytes(std::size_t bytes) noexcept {
  std::uint32_t result = 1U << 31;  // x^0
  std::uint32_t square = 1U << 30;  // x^1, then x^2, x^4, ...
  for (std::size_t bits = bytes * 8; bits != 0; bits >>= 1) {
    if ((bits & 1U) != 0) result = MultModP(square, result);
    square = MultModP(square, square);
  }
  return result;
}

static_assert(ShiftBytes(0) == 1U << 31);
static_assert(ShiftBytes(1) == 1U << 23);  // x^8

/// Runs the CRC over whole 3 * kLane-byte blocks of [p, p + n) as three
/// independent `crc32q` chains, one per kLane-byte third. One chain
/// waits for each instruction's ~3-cycle latency; three keep the unit
/// busy every cycle. The thirds' CRCs fold into one by linearity:
/// crc(c, A B C) = crc(c, A)·x^(16·kLane) + crc(0, B)·x^(8·kLane) +
/// crc(0, C). Advances p and n past the blocks consumed. Its own
/// target("sse4.2") function: GCC refuses to inline the intrinsic into
/// a lambda, which does not inherit the attribute.
template <std::size_t kLane>
__attribute__((target("sse4.2"))) std::uint32_t AddHwLanes(
    std::uint32_t crc, const std::uint8_t*& p, std::size_t& n) noexcept {
  static_assert(kLane % 8 == 0);
  constexpr std::uint32_t kShift1 = ShiftBytes(kLane);
  constexpr std::uint32_t kShift2 = ShiftBytes(2 * kLane);
  while (n >= 3 * kLane) {
    std::uint64_t a = crc;
    std::uint64_t b = 0;
    std::uint64_t c = 0;
    for (std::size_t k = 0; k < kLane; k += 8) {
      a = _mm_crc32_u64(a, Load64(p + k));
      b = _mm_crc32_u64(b, Load64(p + kLane + k));
      c = _mm_crc32_u64(c, Load64(p + 2 * kLane + k));
    }
    crc = MultModP(kShift2, static_cast<std::uint32_t>(a)) ^
          MultModP(kShift1, static_cast<std::uint32_t>(b)) ^
          static_cast<std::uint32_t>(c);
    p += 3 * kLane;
    n -= 3 * kLane;
  }
  return crc;
}

/// SSE4.2 CRC32 instruction path: three lanes over 3 × 8 KiB blocks,
/// then over 3 × 256 B blocks, then one `crc32q` per 8 bytes and one
/// `crc32b` per byte for the tail. It runs an order of magnitude ahead
/// of the table fold, and every v3 snapshot encode, parse and store
/// digest is a pass of it over the whole image. Same polynomial, same
/// result — only the throughput changes. Selected once at startup via
/// cpuid.
__attribute__((target("sse4.2"))) std::uint32_t AddHw(
    std::uint32_t crc, const std::uint8_t* p, std::size_t n) noexcept {
  crc = AddHwLanes<8192>(crc, p, n);
  crc = AddHwLanes<256>(crc, p, n);
  std::uint64_t state = crc;
  while (n >= 8) {
    state = _mm_crc32_u64(state, Load64(p));
    p += 8;
    n -= 8;
  }
  crc = static_cast<std::uint32_t>(state);
  for (; n > 0; ++p, --n) {
    crc = _mm_crc32_u8(crc, *p);
  }
  return crc;
}

bool HaveHwCrc() noexcept {
  static const bool have = __builtin_cpu_supports("sse4.2");
  return have;
}
#endif

}  // namespace

void Crc32c::Add(std::span<const std::uint8_t> data) noexcept {
  std::uint32_t crc = state_;
#if SLEEPWALK_CRC32C_X86
  if (HaveHwCrc()) {
    state_ = AddHw(crc, data.data(), data.size());
    return;
  }
#endif
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  while (n >= 8) {
    const std::uint64_t chunk = Load64(p) ^ crc;
    crc = kCrc32c.entries[7][chunk & 0xffU] ^
          kCrc32c.entries[6][(chunk >> 8) & 0xffU] ^
          kCrc32c.entries[5][(chunk >> 16) & 0xffU] ^
          kCrc32c.entries[4][(chunk >> 24) & 0xffU] ^
          kCrc32c.entries[3][(chunk >> 32) & 0xffU] ^
          kCrc32c.entries[2][(chunk >> 40) & 0xffU] ^
          kCrc32c.entries[1][(chunk >> 48) & 0xffU] ^
          kCrc32c.entries[0][(chunk >> 56) & 0xffU];
    p += 8;
    n -= 8;
  }
  for (; n > 0; ++p, --n) {
    crc = (crc >> 8) ^ kCrc32c.entries[0][(crc ^ *p) & 0xffU];
  }
  state_ = crc;
}

std::uint32_t Crc32cOf(std::span<const std::uint8_t> data) noexcept {
  Crc32c acc;
  acc.Add(data);
  return acc.Finish();
}

}  // namespace sleepwalk::net
