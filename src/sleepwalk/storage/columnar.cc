#include "sleepwalk/storage/columnar.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "sleepwalk/net/checksum.h"
#include "sleepwalk/storage/bytes.h"

namespace sleepwalk::storage {

static_assert(std::endian::native == std::endian::little,
              "v3 containers are little-endian on disk and mapped "
              "zero-copy; a big-endian port must byte-swap in As<T>()");

namespace {

constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8 + 4 + 4 + 4;  // 36
constexpr std::size_t kDirEntryBytes = 4 + 4 + 8 + 8 + 8 + 4;    // 36

std::size_t AlignUp(std::size_t value, std::size_t alignment) {
  return (value + alignment - 1) / alignment * alignment;
}

Error Corrupt(const std::string& path, std::string detail) {
  Error error;
  error.op = "columnar";
  error.path = path;
  error.detail = std::move(detail);
  return error;
}

}  // namespace

ColumnarWriter::ColumnarWriter(std::string_view magic, std::uint32_t kind,
                               std::uint64_t fingerprint,
                               std::uint64_t generation)
    : kind_(kind), fingerprint_(fingerprint), generation_(generation) {
  // A short magic is a programming error; fail loudly in debug, pad in
  // release (the reader will refuse the file either way).
  std::memset(magic_, 0, sizeof(magic_));
  std::memcpy(magic_, magic.data(),
              magic.size() < sizeof(magic_) ? magic.size() : sizeof(magic_));
}

void ColumnarWriter::Add(std::uint32_t id, std::uint32_t elem_width,
                         std::span<const std::uint8_t> bytes) {
  Pending pending;
  pending.id = id;
  pending.elem_width = elem_width == 0 ? 1 : elem_width;
  pending.rows = bytes.size() / pending.elem_width;
  pending.owned.assign(bytes.begin(), bytes.end());
  pending.payload = pending.owned;
  columns_.push_back(std::move(pending));
}

void ColumnarWriter::AddBorrowed(std::uint32_t id, std::uint32_t elem_width,
                                 std::span<const std::uint8_t> bytes) {
  Pending pending;
  pending.id = id;
  pending.elem_width = elem_width == 0 ? 1 : elem_width;
  pending.rows = bytes.size() / pending.elem_width;
  pending.payload = bytes;
  columns_.push_back(std::move(pending));
}

ColumnarParts ColumnarWriter::Layout() const {
  // Lay out payload offsets first so the directory can be written in
  // one pass: data region starts at the next page boundary after the
  // directory, each payload cache-line aligned.
  const std::size_t dir_bytes = columns_.size() * kDirEntryBytes + 4;
  const std::size_t data_start =
      AlignUp(kHeaderBytes + dir_bytes, kColumnarPageBytes);
  std::vector<std::uint64_t> offsets(columns_.size());
  std::size_t cursor = data_start;
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    cursor = AlignUp(cursor, kColumnarAlignBytes);
    offsets[i] = cursor;
    cursor += columns_[i].payload.size();
  }

  ByteWriter writer;
  writer.Reserve(kHeaderBytes + dir_bytes);
  writer.PutBytes({magic_, sizeof(magic_)});
  writer.Put<std::uint32_t>(kColumnarVersion);
  writer.Put<std::uint64_t>(fingerprint_);
  writer.Put<std::uint64_t>(generation_);
  writer.Put<std::uint32_t>(kind_);
  writer.Put<std::uint32_t>(static_cast<std::uint32_t>(columns_.size()));
  writer.Put<std::uint32_t>(
      net::Crc32cOf({writer.bytes().data(), writer.size()}));

  const std::size_t dir_start = writer.size();
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    const Pending& column = columns_[i];
    writer.Put<std::uint32_t>(column.id);
    writer.Put<std::uint32_t>(column.elem_width);
    writer.Put<std::uint64_t>(column.rows);
    writer.Put<std::uint64_t>(offsets[i]);
    writer.Put<std::uint64_t>(column.payload.size());
    writer.Put<std::uint32_t>(net::Crc32cOf(column.payload));
  }
  writer.Put<std::uint32_t>(net::Crc32cOf(
      {writer.bytes().data() + dir_start, writer.size() - dir_start}));

  // Every gap is shorter than a page: the page-align after the
  // directory, and the cache-line gaps between payloads.
  alignas(kColumnarAlignBytes) static constexpr std::uint8_t
      kZeroPage[kColumnarPageBytes] = {};
  ColumnarParts out;
  out.head_ = writer.Take();
  out.parts_.reserve(2 * columns_.size() + 2);
  out.parts_.emplace_back(out.head_);
  std::size_t end = out.head_.size();
  const auto pad_to = [&](std::size_t offset) {
    if (offset > end) out.parts_.emplace_back(kZeroPage, offset - end);
    end = offset;
  };
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    pad_to(offsets[i]);
    if (!columns_[i].payload.empty()) {
      out.parts_.push_back(columns_[i].payload);
    }
    end += columns_[i].payload.size();
  }
  pad_to(cursor);  // zero-columns case: pad to the data start
  out.size_ = cursor;
  return out;
}

std::vector<std::uint8_t> ColumnarWriter::Finish() const {
  const ColumnarParts layout = Layout();
  std::vector<std::uint8_t> image;
  image.reserve(layout.size());
  for (const auto part : layout.parts()) {
    image.insert(image.end(), part.begin(), part.end());
  }
  return image;
}

Error ColumnarWriter::Write(Env& env, const std::string& path) const {
  return AtomicWrite(env, path, Layout().parts());
}

Error ColumnarReader::Parse(std::span<const std::uint8_t> file,
                            std::string_view magic, const std::string& path) {
  columns_.clear();
  if (file.size() < kHeaderBytes) {
    return Corrupt(path, "truncated: no room for a v3 header");
  }
  if (magic.size() != 4 || std::memcmp(file.data(), magic.data(), 4) != 0) {
    return Corrupt(path, "bad magic");
  }
  ByteReader reader(file);
  reader.Skip(4);
  std::uint32_t version = 0;
  std::uint32_t n_columns = 0;
  std::uint32_t header_crc = 0;
  reader.Get(version);
  reader.Get(fingerprint_);
  reader.Get(generation_);
  reader.Get(kind_);
  reader.Get(n_columns);
  reader.Get(header_crc);
  if (version != kColumnarVersion) {
    std::string detail;
    if (version >= 1 && version < kColumnarVersion) {
      detail = "v";
      detail += std::to_string(version);
      detail += " container refused: only v3 is readable";
    } else {
      detail = "unsupported version ";
      detail += std::to_string(version);
    }
    return Corrupt(path, std::move(detail));
  }
  if (net::Crc32cOf(file.first(kHeaderBytes - 4)) != header_crc) {
    return Corrupt(path, "header crc mismatch");
  }

  const std::size_t dir_bytes =
      static_cast<std::size_t>(n_columns) * kDirEntryBytes;
  if (file.size() < kHeaderBytes + dir_bytes + 4) {
    return Corrupt(path, "truncated: directory overruns file");
  }
  const auto directory = file.subspan(kHeaderBytes, dir_bytes);
  std::uint32_t dir_crc = 0;
  std::memcpy(&dir_crc, file.data() + kHeaderBytes + dir_bytes, 4);
  if (net::Crc32cOf(directory) != dir_crc) {
    return Corrupt(path, "directory crc mismatch");
  }

  columns_.reserve(n_columns);
  ByteReader entries(directory);
  for (std::uint32_t i = 0; i < n_columns; ++i) {
    std::uint32_t id = 0;
    std::uint32_t elem_width = 0;
    std::uint64_t rows = 0;
    std::uint64_t offset = 0;
    std::uint64_t byte_len = 0;
    std::uint32_t crc = 0;
    entries.Get(id);
    entries.Get(elem_width);
    entries.Get(rows);
    entries.Get(offset);
    entries.Get(byte_len);
    entries.Get(crc);
    const std::string label = "column " + std::to_string(id);
    // Divide, never multiply: rows * elem_width wraps in u64, and a
    // forged row count could wrap into agreement with a short byte_len
    // and then type a span far past the file.
    if (elem_width == 0 || byte_len % elem_width != 0 ||
        rows != byte_len / elem_width) {
      columns_.clear();
      return Corrupt(path, label + ": rows * width != byte length");
    }
    if (offset % kColumnarAlignBytes != 0) {
      columns_.clear();
      return Corrupt(path, label + ": misaligned column offset " +
                               std::to_string(offset));
    }
    if (offset < kHeaderBytes + dir_bytes + 4 || offset > file.size() ||
        byte_len > file.size() - offset) {
      columns_.clear();
      return Corrupt(path, label + ": truncated: payload overruns file");
    }
    ColumnarColumn column;
    column.id = id;
    column.elem_width = elem_width;
    column.rows = rows;
    column.bytes = file.subspan(offset, byte_len);
    if (net::Crc32cOf(column.bytes) != crc) {
      columns_.clear();
      return Corrupt(path, label + ": column crc mismatch");
    }
    for (const ColumnarColumn& existing : columns_) {
      if (existing.id == id) {
        columns_.clear();
        return Corrupt(path, label + ": duplicate column id");
      }
    }
    columns_.push_back(column);
  }

  // Strictness pass: payloads must not overlap, and every byte outside
  // the header, directory, and payloads must be zero padding ending
  // exactly where the last payload does. CRCs alone would leave padding
  // unprotected; this closes the gap so *any* single-byte corruption of
  // a well-formed file is detected (the contract the robustness and
  // hostile-input tests pin).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> extents;
  extents.reserve(columns_.size());
  for (const ColumnarColumn& column : columns_) {
    const auto offset = static_cast<std::uint64_t>(
        column.bytes.data() - file.data());
    extents.emplace_back(offset, offset + column.bytes.size());
  }
  std::sort(extents.begin(), extents.end());
  std::uint64_t cursor = kHeaderBytes + dir_bytes + 4;
  for (const auto& [begin, end] : extents) {
    if (begin < cursor) {
      columns_.clear();
      return Corrupt(path, "overlapping column payloads");
    }
    for (std::uint64_t i = cursor; i < begin; ++i) {
      if (file[i] != 0) {
        columns_.clear();
        return Corrupt(path, "nonzero padding byte at offset " +
                                 std::to_string(i));
      }
    }
    cursor = end;
  }
  const std::uint64_t expected_end =
      extents.empty()
          ? AlignUp(kHeaderBytes + dir_bytes + 4, kColumnarPageBytes)
          : extents.back().second;
  if (file.size() > expected_end) {
    for (std::uint64_t i = cursor; i < file.size(); ++i) {
      if (file[i] != 0) {
        columns_.clear();
        return Corrupt(path, "nonzero padding byte at offset " +
                                 std::to_string(i));
      }
    }
    columns_.clear();
    return Corrupt(path, "trailing bytes after last column");
  }
  if (file.size() < expected_end) {
    // Only reachable with zero columns (payload bounds were checked);
    // an empty container is still padded to the page boundary.
    columns_.clear();
    return Corrupt(path, "truncated: data region short of page boundary");
  }
  return {};
}

const ColumnarColumn* ColumnarReader::Find(std::uint32_t id) const noexcept {
  for (const ColumnarColumn& column : columns_) {
    if (column.id == id) return &column;
  }
  return nullptr;
}

std::optional<std::uint32_t> PeekContainerVersion(
    std::span<const std::uint8_t> file, std::string_view magic) noexcept {
  if (file.size() < 8 || magic.size() != 4) return std::nullopt;
  if (std::memcmp(file.data(), magic.data(), 4) != 0) return std::nullopt;
  std::uint32_t version = 0;
  std::memcpy(&version, file.data() + 4, 4);
  return version;
}

}  // namespace sleepwalk::storage
