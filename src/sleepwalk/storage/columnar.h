// Page-aligned columnar container: the SLCK/SLPW v3 on-disk engine.
//
// The container keeps a strict trust discipline — magic, version,
// CRC32C over every payload — and lays the state out as fixed-width
// columns so a reader can hand out *typed spans straight into the
// mapped file* (storage::Env::Map) and the block store
// (core/block_store.h) can adopt them with one memcpy per column
// instead of one decode per field per row.
//
// File layout (all integers little-endian):
//
//   header  (36 bytes)
//     0   magic[4]        caller-supplied ("SLCK", "SLPW")
//     4   u32 version     == 3
//     8   u64 fingerprint campaign/config identity (caller semantics)
//     16  u64 generation  monotone snapshot counter
//     24  u32 kind        caller-defined payload discriminator
//     28  u32 n_columns
//     32  u32 header_crc  CRC32C of bytes [0, 32)
//   directory  (n_columns x 36 bytes, then u32 directory_crc)
//     u32 id | u32 elem_width | u64 rows | u64 offset | u64 byte_len
//     | u32 column_crc
//   zero padding to the 4096-byte data region boundary
//   column payloads, each offset 64-byte aligned, zero padding between
//
// The reader validates *everything* before exposing a byte: magic,
// version (a v1 or v2 file from an older build is refused by name, not
// parsed as garbage), header CRC, directory CRC, and per column
// that byte_len is a whole number of elements and rows == byte_len /
// elem_width (division, so a forged row count cannot wrap a product
// into agreement), the offset is aligned and inside the file, and the
// payload CRC matches. Hostile inputs fail closed
// with an Error naming the first violated invariant.
#ifndef SLEEPWALK_STORAGE_COLUMNAR_H_
#define SLEEPWALK_STORAGE_COLUMNAR_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "sleepwalk/storage/file.h"

namespace sleepwalk::storage {

/// The shared SLCK/SLPW v3 container version.
inline constexpr std::uint32_t kColumnarVersion = 3;
/// Data region starts on a page boundary (mmap-friendly).
inline constexpr std::size_t kColumnarPageBytes = 4096;
/// Every column payload starts on a cache-line boundary; also the
/// alignment contract typed zero-copy views rely on.
inline constexpr std::size_t kColumnarAlignBytes = 64;

/// A v3 container as the byte spans that make up the file, in order: the
/// header and directory (owned here), zero padding (spans of a static
/// zero page), and the column payloads (borrowed from the writer, and
/// through it from whatever AddBorrowed spans it holds). Gathered
/// straight into a file by AtomicWrite, so no byte of a payload is
/// copied on the way to disk. Not copyable: the parts point into it.
class ColumnarParts {
 public:
  ColumnarParts() = default;
  ColumnarParts(ColumnarParts&&) = default;
  ColumnarParts& operator=(ColumnarParts&&) = default;
  ColumnarParts(const ColumnarParts&) = delete;
  ColumnarParts& operator=(const ColumnarParts&) = delete;

  ByteParts parts() const noexcept { return parts_; }
  /// File size: the sum of the parts.
  std::size_t size() const noexcept { return size_; }

 private:
  friend class ColumnarWriter;
  std::vector<std::uint8_t> head_;  ///< header + CRC'd directory
  std::vector<std::span<const std::uint8_t>> parts_;
  std::size_t size_ = 0;
};

/// Lays out a v3 container. Layout() hands the file out as parts for a
/// gathered write (Write); Finish() concatenates the same parts into one
/// image for callers that need the bytes in memory. Column ids are
/// caller-defined and must be unique; insertion order is preserved.
class ColumnarWriter {
 public:
  /// `magic` must be exactly 4 bytes.
  ColumnarWriter(std::string_view magic, std::uint32_t kind,
                 std::uint64_t fingerprint, std::uint64_t generation);

  /// Adds a raw column. `bytes.size()` must be a multiple of
  /// `elem_width` (elem_width >= 1); rows = size / width.
  void Add(std::uint32_t id, std::uint32_t elem_width,
           std::span<const std::uint8_t> bytes);

  /// Like Add, but borrows `bytes` instead of copying: the caller
  /// guarantees the span outlives every Layout(), Finish() and Write().
  /// The paper-scale encode path — megabytes of arena columns per
  /// snapshot — uses this to skip a full defensive pass over the
  /// payload.
  void AddBorrowed(std::uint32_t id, std::uint32_t elem_width,
                   std::span<const std::uint8_t> bytes);

  /// Adds a column of scalars (the fixed-width fast path).
  template <typename T>
  void AddTyped(std::uint32_t id, std::span<const T> values) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "columns hold plain scalar types");
    Add(id, sizeof(T),
        {reinterpret_cast<const std::uint8_t*>(values.data()),
         values.size_bytes()});
  }

  /// AddTyped over a borrowed span (see AddBorrowed for the lifetime
  /// contract).
  template <typename T>
  void AddTypedBorrowed(std::uint32_t id, std::span<const T> values) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "columns hold plain scalar types");
    AddBorrowed(id, sizeof(T),
                {reinterpret_cast<const std::uint8_t*>(values.data()),
                 values.size_bytes()});
  }

  /// THE layout: header, CRC'd directory, padded page-aligned payloads,
  /// as parts. The parts borrow the writer's columns, so the writer
  /// must outlive them. The writer may be reused after (columns stay;
  /// call again after more Add()s for a superset file).
  ColumnarParts Layout() const;

  /// The parts of Layout() concatenated into one file image.
  std::vector<std::uint8_t> Finish() const;

  /// AtomicWrite of Layout()'s parts: the file Finish() would build,
  /// gathered from the columns without an intermediate image.
  Error Write(Env& env, const std::string& path) const;

 private:
  struct Pending {
    std::uint32_t id;
    std::uint32_t elem_width;
    std::uint64_t rows;
    std::vector<std::uint8_t> owned;        // empty when borrowed
    std::span<const std::uint8_t> payload;  // into `owned` or borrowed
  };

  std::uint8_t magic_[4];
  std::uint32_t kind_;
  std::uint64_t fingerprint_;
  std::uint64_t generation_;
  std::vector<Pending> columns_;
};

/// A validated view of one column inside a parsed container. `bytes`
/// points into the caller's buffer/mapping (zero-copy).
struct ColumnarColumn {
  std::uint32_t id = 0;
  std::uint32_t elem_width = 0;
  std::uint64_t rows = 0;
  std::span<const std::uint8_t> bytes;

  /// Typed zero-copy view; empty span when the element width or the
  /// pointer alignment does not match T (callers must check rows).
  template <typename T>
  std::span<const T> As() const noexcept {
    static_assert(std::is_trivially_copyable_v<T>,
                  "columns hold plain scalar types");
    if (elem_width != sizeof(T)) return {};
    if (reinterpret_cast<std::uintptr_t>(bytes.data()) % alignof(T) != 0) {
      return {};
    }
    return {reinterpret_cast<const T*>(bytes.data()),
            static_cast<std::size_t>(rows)};
  }
};

/// Parses + validates a v3 container over a caller-owned byte range
/// (typically a MappedRegion's bytes; the range must outlive the
/// reader and every span it hands out).
class ColumnarReader {
 public:
  /// Full validation pass; on failure the reader is empty and the
  /// Error's detail names the violated invariant ("bad magic",
  /// "truncated", "misaligned column offset", "column crc mismatch",
  /// "v2 container refused", ...). `path` only labels errors.
  Error Parse(std::span<const std::uint8_t> file, std::string_view magic,
              const std::string& path = "<memory>");

  std::uint32_t kind() const noexcept { return kind_; }
  std::uint64_t fingerprint() const noexcept { return fingerprint_; }
  std::uint64_t generation() const noexcept { return generation_; }

  const std::vector<ColumnarColumn>& columns() const noexcept {
    return columns_;
  }
  /// Lookup by id; null when absent.
  const ColumnarColumn* Find(std::uint32_t id) const noexcept;

  /// Typed column fetch with a row-count demand — the decode-side
  /// workhorse: fails closed when the column is missing, mis-typed,
  /// misaligned, or the wrong length.
  template <typename T>
  bool FetchTyped(std::uint32_t id, std::uint64_t rows,
                  std::span<const T>& out) const noexcept {
    const ColumnarColumn* column = Find(id);
    if (column == nullptr || column->rows != rows) return false;
    out = column->As<T>();
    return out.size() == rows;
  }

 private:
  std::uint32_t kind_ = 0;
  std::uint64_t fingerprint_ = 0;
  std::uint64_t generation_ = 0;
  std::vector<ColumnarColumn> columns_;
};

/// Sniffs the container version at bytes [4, 8) when `file` starts with
/// `magic` (every SLCK/SLPW version put it there, so decoders and
/// slck_fsck use this to name a refused version). nullopt when the file
/// is too short or the magic differs.
std::optional<std::uint32_t> PeekContainerVersion(
    std::span<const std::uint8_t> file, std::string_view magic) noexcept;

}  // namespace sleepwalk::storage

#endif  // SLEEPWALK_STORAGE_COLUMNAR_H_
