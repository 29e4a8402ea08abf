#include "sleepwalk/storage/file.h"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>
#include <map>
#include <utility>

#include <dirent.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include "sleepwalk/util/sync.h"

namespace sleepwalk::storage {

namespace {

Error Fail(const char* op, const std::string& path, int err,
           std::string detail = {}) {
  Error error;
  error.op = op;
  error.path = path;
  error.err = err;
  error.detail = std::move(detail);
  return error;
}

/// POSIX file with explicit fsync. All writes go straight to the fd —
/// no user-space buffer to lose.
class RealFile final : public WritableFile {
 public:
  RealFile(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}
  ~RealFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  /// writev in batches of at most IOV_MAX parts, resuming mid-part
  /// after a short write.
  Error AppendParts(ByteParts parts) override {
    if (fd_ < 0) return Fail("append", path_, EBADF, "file closed");
    std::vector<iovec> iov;
    iov.reserve(parts.size());
    for (const auto part : parts) {
      if (part.empty()) continue;
      iov.push_back({const_cast<std::uint8_t*>(part.data()), part.size()});
    }
    std::size_t next = 0;
    while (next < iov.size()) {
      const auto count =
          static_cast<int>(std::min<std::size_t>(iov.size() - next, IOV_MAX));
      const ssize_t n = ::writev(fd_, iov.data() + next, count);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Fail("append", path_, errno);
      }
      auto written = static_cast<std::size_t>(n);
      while (written > 0 && written >= iov[next].iov_len) {
        written -= iov[next].iov_len;
        ++next;
      }
      if (written > 0) {
        iov[next].iov_base = static_cast<std::uint8_t*>(iov[next].iov_base) +
                             written;
        iov[next].iov_len -= written;
      }
    }
    return {};
  }

  Error Sync() override {
    if (fd_ < 0) return Fail("sync", path_, EBADF, "file closed");
    if (::fsync(fd_) != 0) return Fail("sync", path_, errno);
    return {};
  }

  Error Close() override {
    if (fd_ < 0) return {};
    const int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0) return Fail("close", path_, errno);
    return {};
  }

 private:
  int fd_;
  std::string path_;
};

class RealEnv final : public Env {
 public:
  std::unique_ptr<WritableFile> Create(const std::string& path,
                                       Error& error) override {
    const int fd =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
      error = Fail("create", path, errno);
      return nullptr;
    }
    error = {};
    return std::make_unique<RealFile>(fd, path);
  }

  Error ReadAll(const std::string& path,
                std::vector<std::uint8_t>& out) override {
    out.clear();
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return Fail("read", path, errno);
    std::uint8_t buffer[1 << 16];
    while (true) {
      const ssize_t n = ::read(fd, buffer, sizeof(buffer));
      if (n < 0) {
        if (errno == EINTR) continue;
        const int err = errno;
        ::close(fd);
        return Fail("read", path, err);
      }
      if (n == 0) break;
      out.insert(out.end(), buffer, buffer + n);
    }
    ::close(fd);
    return {};
  }

  Error Rename(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      return Fail("rename", from, errno, "to " + to);
    }
    return {};
  }

  Error Link(const std::string& from, const std::string& to) override {
    if (::link(from.c_str(), to.c_str()) == 0) return {};
    if (errno == EEXIST) return Fail("link", from, EEXIST, "to " + to);
    // Cross-device or no-hardlink filesystems: degrade to a copy.
    std::vector<std::uint8_t> bytes;
    if (auto error = ReadAll(from, bytes); !error.ok()) return error;
    Error error;
    auto file = Create(to, error);
    if (file == nullptr) return error;
    if (error = file->Append(bytes); !error.ok()) return error;
    if (error = file->Sync(); !error.ok()) return error;
    return file->Close();
  }

  Error Remove(const std::string& path) override {
    if (::unlink(path.c_str()) != 0) return Fail("remove", path, errno);
    return {};
  }

  bool Exists(const std::string& path) override {
    struct stat st{};
    return ::stat(path.c_str(), &st) == 0;
  }

  Error SyncDir(const std::string& dir) override {
    const int fd = ::open(dir.c_str(), O_RDONLY);
    if (fd < 0) return Fail("syncdir", dir, errno);
    const int rc = ::fsync(fd);
    const int err = errno;
    ::close(fd);
    // Some filesystems refuse directory fsync; the rename before it is
    // still ordered, so treat "unsupported" as best-effort success.
    if (rc != 0 && err != EINVAL && err != ENOTSUP && err != EBADF) {
      return Fail("syncdir", dir, err);
    }
    return {};
  }

  std::vector<std::string> List(const std::string& dir) override {
    std::vector<std::string> names;
    DIR* handle = ::opendir(dir.c_str());
    if (handle == nullptr) return names;
    while (const dirent* entry = ::readdir(handle)) {
      const std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      names.push_back(name);
    }
    ::closedir(handle);
    std::sort(names.begin(), names.end());
    return names;
  }

  Error Map(const std::string& path, MappedRegion& out) override {
    out.Reset();
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return Fail("map", path, errno);
    struct stat st{};
    if (::fstat(fd, &st) != 0) {
      const int err = errno;
      ::close(fd);
      return Fail("map", path, err, "fstat");
    }
    const auto length = static_cast<std::size_t>(st.st_size);
    if (length == 0) {  // mmap(0) is EINVAL; an empty file maps to empty
      ::close(fd);
      out.AdoptCopy({});
      return {};
    }
    void* base = ::mmap(nullptr, length, PROT_READ, MAP_PRIVATE, fd, 0);
    const int err = errno;
    ::close(fd);  // the mapping keeps the inode alive
    if (base == MAP_FAILED) return Fail("map", path, err, "mmap");
    out.AdoptMapping(base, length);
    return {};
  }
};

}  // namespace

MappedRegion& MappedRegion::operator=(MappedRegion&& other) noexcept {
  if (this == &other) return *this;
  Reset();
  data_ = other.data_;
  size_ = other.size_;
  map_base_ = other.map_base_;
  map_length_ = other.map_length_;
  owned_ = std::move(other.owned_);
  other.data_ = nullptr;
  other.size_ = 0;
  other.map_base_ = nullptr;
  other.map_length_ = 0;
  other.owned_.reset();
  return *this;
}

void MappedRegion::Reset() noexcept {
  if (map_base_ != nullptr) ::munmap(map_base_, map_length_);
  map_base_ = nullptr;
  map_length_ = 0;
  owned_.reset();
  data_ = nullptr;
  size_ = 0;
}

void MappedRegion::AdoptMapping(void* base, std::size_t length) noexcept {
  Reset();
  map_base_ = base;
  map_length_ = length;
  data_ = static_cast<const std::uint8_t*>(base);
  size_ = length;
}

void MappedRegion::AdoptShared(SharedBytes bytes) noexcept {
  Reset();
  owned_ = std::move(bytes);
  if (owned_ == nullptr) return;
  data_ = owned_->data();
  size_ = owned_->size();
}

void MappedRegion::AdoptCopy(std::vector<std::uint8_t> bytes) {
  AdoptShared(
      std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes)));
}

Error Env::Map(const std::string& path, MappedRegion& out) {
  out.Reset();
  std::vector<std::uint8_t> bytes;
  if (auto error = ReadAll(path, bytes); !error.ok()) {
    error.op = "map";  // callers see one op name whatever the transport
    return error;
  }
  out.AdoptCopy(std::move(bytes));
  return {};
}

std::string Error::ToString() const {
  if (ok()) return "ok";
  std::string text = op + " " + path + ": ";
  text += err != 0 ? std::strerror(err) : "error";
  if (!detail.empty()) text += " (" + detail + ")";
  return text;
}

Env& RealEnvInstance() {
  static RealEnv env;
  return env;
}

// ---------------------------------------------------------------------------
// MemEnv

namespace {

/// A MemEnv file. `bytes` is shared with every region mapped over the
/// file, so nothing may change it in place while another owner holds it;
/// the pointer itself is guarded by MemEnv::Impl::mutex.
struct MemInode {
  std::shared_ptr<std::vector<std::uint8_t>> bytes =
      std::make_shared<std::vector<std::uint8_t>>();
};

}  // namespace

struct MemEnv::Impl {
  util::Mutex mutex;
  std::map<std::string, std::shared_ptr<MemInode>> files
      SLEEPWALK_GUARDED_BY(mutex);
};

namespace {

/// Writes straight into its inode, so every append is published the
/// moment it returns and Sync/Close have nothing left to move — the
/// durability point RealFile::Sync establishes holds trivially.
class MemFile final : public WritableFile {
 public:
  MemFile(MemEnv::Impl* impl, std::shared_ptr<MemInode> inode,
          std::string path)
      : impl_(impl), inode_(std::move(inode)), path_(std::move(path)) {}

  Error AppendParts(ByteParts parts) override {
    if (closed_) return Fail("append", path_, EBADF, "file closed");
    if (TotalBytes(parts) == 0) return {};
    util::MutexLock lock{impl_->mutex};
    auto& bytes = inode_->bytes;
    const std::size_t need = bytes->size() + TotalBytes(parts);
    // Regions copy the shared_ptr only under the mutex, so a count of
    // one here cannot grow before the append below finishes; a stale
    // higher count only costs an unneeded copy.
    if (bytes.use_count() > 1) {
      auto copy = std::make_shared<std::vector<std::uint8_t>>();
      copy->reserve(need);
      copy->assign(bytes->begin(), bytes->end());
      bytes = std::move(copy);
    } else if (need > bytes->capacity()) {
      bytes->reserve(std::max(need, bytes->capacity() * 2));
    }
    for (const auto part : parts) {
      bytes->insert(bytes->end(), part.begin(), part.end());
    }
    return {};
  }

  Error Sync() override {
    if (closed_) return Fail("sync", path_, EBADF, "file closed");
    return {};
  }

  Error Close() override {
    closed_ = true;
    return {};
  }

 private:
  MemEnv::Impl* impl_;
  std::shared_ptr<MemInode> inode_;
  std::string path_;
  bool closed_ = false;
};

}  // namespace

MemEnv::MemEnv() : impl_(std::make_unique<Impl>()) {}
MemEnv::~MemEnv() = default;

std::unique_ptr<WritableFile> MemEnv::Create(const std::string& path,
                                             Error& error) {
  error = {};
  auto inode = std::make_shared<MemInode>();
  {
    util::MutexLock lock{impl_->mutex};
    impl_->files[path] = inode;  // truncates immediately, like O_TRUNC
  }
  return std::make_unique<MemFile>(impl_.get(), std::move(inode), path);
}

Error MemEnv::ReadAll(const std::string& path,
                      std::vector<std::uint8_t>& out) {
  util::MutexLock lock{impl_->mutex};
  const auto it = impl_->files.find(path);
  if (it == impl_->files.end()) return Fail("read", path, ENOENT);
  out = *it->second->bytes;
  return {};
}

Error MemEnv::Map(const std::string& path, MappedRegion& out) {
  out.Reset();
  util::MutexLock lock{impl_->mutex};
  const auto it = impl_->files.find(path);
  if (it == impl_->files.end()) return Fail("map", path, ENOENT);
  out.AdoptShared(it->second->bytes);
  return {};
}

Error MemEnv::Rename(const std::string& from, const std::string& to) {
  util::MutexLock lock{impl_->mutex};
  const auto it = impl_->files.find(from);
  if (it == impl_->files.end()) return Fail("rename", from, ENOENT);
  impl_->files[to] = std::move(it->second);
  impl_->files.erase(it);
  return {};
}

Error MemEnv::Link(const std::string& from, const std::string& to) {
  util::MutexLock lock{impl_->mutex};
  const auto it = impl_->files.find(from);
  if (it == impl_->files.end()) return Fail("link", from, ENOENT);
  if (impl_->files.count(to) != 0) {
    return Fail("link", from, EEXIST, "to " + to);
  }
  // A copy, not a second name for the inode: generation files must not
  // change if a still-open writer appends to the original.
  auto inode = std::make_shared<MemInode>();
  *inode->bytes = *it->second->bytes;
  impl_->files[to] = std::move(inode);
  return {};
}

Error MemEnv::Remove(const std::string& path) {
  util::MutexLock lock{impl_->mutex};
  if (impl_->files.erase(path) == 0) return Fail("remove", path, ENOENT);
  return {};
}

bool MemEnv::Exists(const std::string& path) {
  util::MutexLock lock{impl_->mutex};
  return impl_->files.count(path) != 0;
}

Error MemEnv::SyncDir(const std::string&) { return {}; }

std::vector<std::string> MemEnv::List(const std::string& dir) {
  std::vector<std::string> names;
  const std::string prefix = dir == "." ? "" : dir + "/";
  util::MutexLock lock{impl_->mutex};
  for (const auto& [path, inode] : impl_->files) {
    if (path.compare(0, prefix.size(), prefix) != 0) continue;
    const std::string rest = path.substr(prefix.size());
    if (rest.empty() || rest.find('/') != std::string::npos) continue;
    names.push_back(rest);  // map iteration is already sorted
  }
  return names;
}

// ---------------------------------------------------------------------------

std::string DirName(const std::string& path) {
  const auto slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

Error AtomicWrite(Env& env, const std::string& path, ByteParts parts) {
  const std::string tmp = path + ".tmp";
  Error error;
  auto file = env.Create(tmp, error);
  if (file == nullptr) return error;

  // Unlink the temp file on every error exit — the .tmp-leak fix: the
  // old writer returned early and left the orphan behind.
  const auto fail = [&](Error failed) {
    file->Close();  // best effort; the original error wins
    env.Remove(tmp);
    return failed;
  };

  if (error = file->AppendParts(parts); !error.ok()) return fail(error);
  if (error = file->Sync(); !error.ok()) return fail(error);
  if (error = file->Close(); !error.ok()) return fail(error);
  if (error = env.Rename(tmp, path); !error.ok()) return fail(error);
  return env.SyncDir(DirName(path));
}

Error AtomicWrite(Env& env, const std::string& path,
                  std::span<const std::uint8_t> bytes) {
  return AtomicWrite(env, path, ByteParts{&bytes, 1});
}

}  // namespace sleepwalk::storage
