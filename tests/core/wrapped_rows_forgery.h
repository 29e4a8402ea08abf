// Test helper: re-emits a v3 container with one extra column whose
// directory entry claims rows = 2^62 + 2 of width 4 over 8 bytes. In u64
// arithmetic rows * width wraps to exactly 8, so a reader that checks
// byte_len == rows * elem_width accepts the entry and As<uint32_t>()
// would then type a span of ~4.6e18 elements over 8 bytes. The
// directory CRC is resealed, so only the structural check can refuse it.
#ifndef SLEEPWALK_TESTS_CORE_WRAPPED_ROWS_FORGERY_H_
#define SLEEPWALK_TESTS_CORE_WRAPPED_ROWS_FORGERY_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>
#include <vector>

#include "sleepwalk/net/checksum.h"
#include "sleepwalk/storage/columnar.h"

namespace sleepwalk::testing_support {

inline constexpr std::uint64_t kWrappingRows = (1ull << 62) + 2;

/// `image` must parse; the copy gets every original column plus the
/// forged one (id 0xf0f0), with header fields unchanged.
inline std::vector<std::uint8_t> WithWrappedRowsColumn(
    std::span<const std::uint8_t> image, std::string_view magic) {
  storage::ColumnarReader reader;
  if (!reader.Parse(image, magic).ok()) return {};
  storage::ColumnarWriter writer(magic, reader.kind(), reader.fingerprint(),
                                 reader.generation());
  for (const auto& column : reader.columns()) {
    writer.AddBorrowed(column.id, column.elem_width, column.bytes);
  }
  const std::uint32_t two[2] = {1, 2};
  writer.AddTyped<std::uint32_t>(0xf0f0, two);
  std::vector<std::uint8_t> forged = writer.Finish();

  // Entry layout: u32 id | u32 elem_width | u64 rows | u64 offset
  // | u64 byte_len | u32 crc, after the 36-byte header.
  constexpr std::size_t kHeaderBytes = 36;
  constexpr std::size_t kEntryBytes = 36;
  const std::size_t n_columns = reader.columns().size() + 1;
  const std::size_t entry = kHeaderBytes + (n_columns - 1) * kEntryBytes;
  std::memcpy(forged.data() + entry + 8, &kWrappingRows,
              sizeof(kWrappingRows));
  const std::size_t dir_bytes = n_columns * kEntryBytes;
  const std::uint32_t crc =
      net::Crc32cOf({forged.data() + kHeaderBytes, dir_bytes});
  std::memcpy(forged.data() + kHeaderBytes + dir_bytes, &crc, sizeof(crc));
  return forged;
}

}  // namespace sleepwalk::testing_support

#endif  // SLEEPWALK_TESTS_CORE_WRAPPED_ROWS_FORGERY_H_
