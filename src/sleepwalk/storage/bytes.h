// Little-endian byte-buffer codec for the persistence formats.
//
// The SLCK/SLPW writers used to stream fields straight into an
// ofstream; that couples serialization to the filesystem and makes
// per-section checksums impossible (you cannot CRC bytes you have
// already flushed). ByteWriter/ByteReader split the concerns: encode
// and decode are pure in-memory transforms, and storage/file.h moves
// the finished buffer atomically. A reader never reads past its span —
// a truncated or hostile file fails closed instead of resizing vectors
// from garbage lengths.
//
// Host is little-endian on every supported target; a portable build
// would byte-swap here.
#ifndef SLEEPWALK_STORAGE_BYTES_H_
#define SLEEPWALK_STORAGE_BYTES_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

namespace sleepwalk::storage {

class ByteWriter {
 public:
  template <typename T>
  void Put(T value) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "Put() serializes plain scalar types");
    // Pointer-range insert, not resize+memcpy: identical codegen, but
    // the resize path's value-init trips GCC 12 -Wstringop-overflow
    // false positives when inlined into large encoders at -O3.
    const auto* raw = reinterpret_cast<const std::uint8_t*>(&value);
    buffer_.insert(buffer_.end(), raw, raw + sizeof(value));
  }

  void PutBytes(std::span<const std::uint8_t> data) {
    buffer_.insert(buffer_.end(), data.begin(), data.end());
  }

  /// Pre-sizes the buffer (capacity only). Encoders that know their
  /// rough output size avoid the geometric-regrowth copies that
  /// otherwise dominate multi-megabyte checkpoint assembly.
  void Reserve(std::size_t n) { buffer_.reserve(n); }

  std::size_t size() const noexcept { return buffer_.size(); }
  const std::vector<std::uint8_t>& bytes() const noexcept { return buffer_; }
  std::vector<std::uint8_t> Take() { return std::move(buffer_); }

 private:
  std::vector<std::uint8_t> buffer_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  template <typename T>
  bool Get(T& value) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "Get() deserializes plain scalar types");
    if (data_.size() - pos_ < sizeof(value)) {
      pos_ = data_.size();
      failed_ = true;
      return false;
    }
    std::memcpy(&value, data_.data() + pos_, sizeof(value));
    pos_ += sizeof(value);
    return true;
  }

  bool GetBytes(std::uint8_t* out, std::size_t n) {
    if (data_.size() - pos_ < n) {
      pos_ = data_.size();
      failed_ = true;
      return false;
    }
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  bool Skip(std::size_t n) {
    if (data_.size() - pos_ < n) {
      pos_ = data_.size();
      failed_ = true;
      return false;
    }
    pos_ += n;
    return true;
  }

  std::size_t position() const noexcept { return pos_; }
  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool ok() const noexcept { return !failed_; }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace sleepwalk::storage

#endif  // SLEEPWALK_STORAGE_BYTES_H_
