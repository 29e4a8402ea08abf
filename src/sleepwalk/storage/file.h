// Crash-safe storage seam.
//
// Every byte the measurement system persists — checkpoints, datasets,
// flushed telemetry — goes through this Env abstraction instead of raw
// iostream/POSIX calls (sleeplint's `no-raw-fs` rule bans those outside
// storage/). Three implementations share one contract:
//
//   * RealEnv — POSIX files with the full durability discipline:
//     write → fsync(file) → close → rename → fsync(directory). An
//     interrupted AtomicWrite leaves the previous file intact, never a
//     half-written one (O_TMPFILE-free, portable to any POSIX fs).
//   * MemEnv — an in-process filesystem for tests and benches; same
//     semantics, no disk. Files are shared immutable buffers: Map hands
//     out the buffer itself (MemEnv's mmap), and an append copies on
//     write only while a mapped region still holds the buffer.
//   * FaultyEnv (storage/faulty_env.h) — decorates either with
//     util/failpoint.h sites, so crash/ENOSPC/short-write behaviour is
//     provable rather than assumed.
//
// Errors carry (operation, path, errno): a campaign that loses its disk
// reports *which* syscall on *which* file said what, instead of a bare
// `false`.
#ifndef SLEEPWALK_STORAGE_FILE_H_
#define SLEEPWALK_STORAGE_FILE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace sleepwalk::storage {

/// Outcome of a storage operation. Default-constructed == success.
struct Error {
  std::string op;      ///< failing operation ("append", "rename", ...)
  std::string path;    ///< file the operation targeted
  int err = 0;         ///< errno when the OS supplied one
  std::string detail;  ///< extra context ("short write (3/6 bytes)")

  bool ok() const noexcept { return op.empty(); }
  /// "append /tmp/x.slck: Input/output error (short write)"
  std::string ToString() const;
};

/// An immutable byte buffer several owners can hold at once: a MemEnv
/// file and every region mapped over it.
using SharedBytes = std::shared_ptr<const std::vector<std::uint8_t>>;

/// The parts of a file written in one gathered append, in file order.
using ByteParts = std::span<const std::span<const std::uint8_t>>;

/// Length of the concatenated parts.
inline std::size_t TotalBytes(ByteParts parts) noexcept {
  std::size_t total = 0;
  for (const auto part : parts) total += part.size();
  return total;
}

/// A read-only view of a whole file, either zero-copy (mmap, RealEnv)
/// or a shared heap buffer (MemEnv's file itself, or the ReadAll copy
/// of the portable fallback). Movable, not copyable; unmaps/releases on
/// destruction. The bytes are immutable and stay valid for the region's
/// lifetime — columnar readers (storage/columnar.h) hand out typed spans
/// into them.
class MappedRegion {
 public:
  MappedRegion() = default;
  ~MappedRegion() { Reset(); }
  MappedRegion(MappedRegion&& other) noexcept { *this = std::move(other); }
  MappedRegion& operator=(MappedRegion&& other) noexcept;
  MappedRegion(const MappedRegion&) = delete;
  MappedRegion& operator=(const MappedRegion&) = delete;

  std::span<const std::uint8_t> bytes() const noexcept {
    return {data_, size_};
  }
  std::size_t size() const noexcept { return size_; }
  /// True when the bytes are a live mmap rather than a heap copy.
  bool zero_copy() const noexcept { return map_base_ != nullptr; }

  /// Releases the mapping / copy; bytes() becomes empty.
  void Reset() noexcept;

  /// Takes ownership of an existing mmap (munmap'd on Reset).
  void AdoptMapping(void* base, std::size_t length) noexcept;
  /// Shares a heap buffer (released on Reset; the last owner frees it).
  void AdoptShared(SharedBytes bytes) noexcept;
  /// Takes ownership of a heap copy (the ReadAll fallback).
  void AdoptCopy(std::vector<std::uint8_t> bytes);

 private:
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  void* map_base_ = nullptr;  ///< munmap target; null for heap buffers
  std::size_t map_length_ = 0;
  SharedBytes owned_;
};

/// An open file being written sequentially.
class WritableFile {
 public:
  virtual ~WritableFile() = default;
  /// Appends the parts back to back as ONE operation: RealEnv gathers
  /// them into writev calls, so a multi-megabyte snapshot goes from its
  /// borrowed column spans to the file without an assembled image. A
  /// failure may leave any prefix of the concatenation written.
  virtual Error AppendParts(ByteParts parts) = 0;
  /// A one-part AppendParts.
  Error Append(std::span<const std::uint8_t> data) {
    return AppendParts({&data, 1});
  }
  /// Flushes buffered bytes to stable storage (fsync for RealEnv).
  virtual Error Sync() = 0;
  /// Closes the descriptor; further calls are invalid. Idempotent.
  virtual Error Close() = 0;
};

/// The filesystem seam. All paths are plain strings; directories are
/// never created implicitly.
class Env {
 public:
  virtual ~Env() = default;

  /// Creates (truncating) `path` for writing.
  virtual std::unique_ptr<WritableFile> Create(const std::string& path,
                                               Error& error) = 0;
  /// Reads the whole file into `out` (replaced, not appended).
  virtual Error ReadAll(const std::string& path,
                        std::vector<std::uint8_t>& out) = 0;
  /// Atomically replaces `to` with `from` (POSIX rename semantics).
  virtual Error Rename(const std::string& from, const std::string& to) = 0;
  /// Makes `to` refer to `from`'s current bytes (hard link where the
  /// filesystem supports it, a copy otherwise). Fails if `to` exists.
  virtual Error Link(const std::string& from, const std::string& to) = 0;
  virtual Error Remove(const std::string& path) = 0;
  virtual bool Exists(const std::string& path) = 0;
  /// Durably commits a directory's entry table (fsync of the directory
  /// fd; a no-op where the concept does not apply).
  virtual Error SyncDir(const std::string& dir) = 0;
  /// Names (not paths) of the directory's entries, sorted.
  virtual std::vector<std::string> List(const std::string& dir) = 0;

  /// Maps the whole file read-only into `out`. RealEnv overrides this
  /// with a true zero-copy mmap and MemEnv by sharing the file's buffer;
  /// the base implementation degrades to ReadAll + an owned copy, so
  /// every Env satisfies the same contract and callers never branch on
  /// capability. The region's bytes reflect the file at call time and
  /// never change after: a rewrite of the same *path* by AtomicWrite
  /// renames a new file over it and the old bytes stay alive under the
  /// mapping, and MemEnv copies on write when a still-open file appends
  /// to a buffer a region holds.
  virtual Error Map(const std::string& path, MappedRegion& out);
};

/// The process-wide POSIX environment.
Env& RealEnvInstance();

/// In-memory Env for tests and benches: full paths as keys, rename and
/// link with POSIX semantics, SyncDir a no-op. Thread-safe.
///
/// A file is an inode holding a shared immutable buffer. An open file
/// writes to its inode, not its path (a rename or remove while it is
/// open behaves as on POSIX), and appends in place unless a mapped
/// region still shares the buffer, in which case it copies once and
/// leaves the region its old bytes. Map shares the buffer; ReadAll and
/// Link copy it.
class MemEnv final : public Env {
 public:
  MemEnv();
  ~MemEnv() override;

  std::unique_ptr<WritableFile> Create(const std::string& path,
                                       Error& error) override;
  Error ReadAll(const std::string& path,
                std::vector<std::uint8_t>& out) override;
  Error Rename(const std::string& from, const std::string& to) override;
  Error Link(const std::string& from, const std::string& to) override;
  Error Remove(const std::string& path) override;
  bool Exists(const std::string& path) override;
  Error SyncDir(const std::string& dir) override;
  std::vector<std::string> List(const std::string& dir) override;
  Error Map(const std::string& path, MappedRegion& out) override;

  struct Impl;  // public so the file handle implementation can reach it

 private:
  std::unique_ptr<Impl> impl_;
};

/// Everything up to the last '/', or "." for a bare filename.
std::string DirName(const std::string& path);

/// Durable atomic replacement of `path` with the concatenated `parts`:
///   create path.tmp → append → sync → close → rename → sync(dir).
/// On ANY failure the temp file is removed and the previous `path`
/// content is untouched; the returned Error names the failing step and
/// carries its errno (the .tmp-leak fix over the old checkpoint
/// writer). A CrashInjected from a faulty env propagates — that is the
/// simulated power cut, and the temp file deliberately stays behind
/// exactly as a real crash would leave it.
Error AtomicWrite(Env& env, const std::string& path, ByteParts parts);
/// The one-part AtomicWrite.
Error AtomicWrite(Env& env, const std::string& path,
                  std::span<const std::uint8_t> bytes);

}  // namespace sleepwalk::storage

#endif  // SLEEPWALK_STORAGE_FILE_H_
