#include "sleepwalk/storage/faulty_env.h"

#include <algorithm>
#include <cerrno>
#include <span>
#include <utility>
#include <vector>

namespace sleepwalk::storage {

namespace {

using util::CrashInjected;
using util::FailAction;

Error Injected(const char* op, const std::string& path, int err,
               std::string detail = "failpoint") {
  Error error;
  error.op = op;
  error.path = path;
  error.err = err;
  error.detail = std::move(detail);
  return error;
}

/// Evaluates a non-append site: returns an Error to report, throws on
/// crash actions, or returns success (meaning: perform the operation).
Error Consult(util::FailpointSet& failpoints, const std::string& site,
              const char* op, const std::string& path) {
  switch (failpoints.Hit(site)) {
    case FailAction::kNone:
      return {};
    case FailAction::kEio:
    case FailAction::kShortWrite:  // no bytes to tear here
      return Injected(op, path, EIO);
    case FailAction::kEnospc:
      return Injected(op, path, ENOSPC);
    case FailAction::kCrash:
    case FailAction::kCrashTorn:
      throw CrashInjected{site};
  }
  return {};
}

class FaultyFile final : public WritableFile {
 public:
  FaultyFile(std::unique_ptr<WritableFile> base,
             util::FailpointSet& failpoints, std::string path)
      : base_(std::move(base)),
        failpoints_(failpoints),
        path_(std::move(path)) {}

  /// One `storage.append` hit however many parts: a gathered snapshot
  /// write is one operation to the crash sweep, and a tear cuts the
  /// concatenation.
  Error AppendParts(ByteParts parts) override {
    switch (failpoints_.Hit("storage.append")) {
      case FailAction::kNone:
        break;
      case FailAction::kEio:
        return Injected("append", path_, EIO);
      case FailAction::kEnospc:
        return Injected("append", path_, ENOSPC);
      case FailAction::kShortWrite: {
        const std::size_t total = TotalBytes(parts);
        AppendFirstHalf(parts);
        Error error = Injected("append", path_, ENOSPC);
        error.detail = "short write (" + std::to_string(total / 2) + "/" +
                       std::to_string(total) + " bytes)";
        return error;
      }
      case FailAction::kCrash:
        throw CrashInjected{"storage.append"};
      case FailAction::kCrashTorn:
        AppendFirstHalf(parts);
        throw CrashInjected{"storage.append"};
    }
    return base_->AppendParts(parts);
  }

  Error Sync() override {
    if (auto error = Consult(failpoints_, "storage.sync", "sync", path_);
        !error.ok()) {
      return error;
    }
    return base_->Sync();
  }

  Error Close() override {
    if (auto error = Consult(failpoints_, "storage.close", "close", path_);
        !error.ok()) {
      return error;
    }
    return base_->Close();
  }

 private:
  /// Writes the first total / 2 bytes of the concatenated parts (the
  /// torn page); the base's own result is ignored, the injected one wins.
  void AppendFirstHalf(ByteParts parts) {
    std::vector<std::span<const std::uint8_t>> head;
    std::size_t left = TotalBytes(parts) / 2;
    for (const auto part : parts) {
      if (left == 0) break;
      head.push_back(part.first(std::min(left, part.size())));
      left -= head.back().size();
    }
    base_->AppendParts(head);
  }

  std::unique_ptr<WritableFile> base_;
  util::FailpointSet& failpoints_;
  std::string path_;
};

}  // namespace

std::unique_ptr<WritableFile> FaultyEnv::Create(const std::string& path,
                                                Error& error) {
  if (error = Consult(failpoints_, "storage.create", "create", path);
      !error.ok()) {
    return nullptr;
  }
  auto base = base_.Create(path, error);
  if (base == nullptr) return nullptr;
  return std::make_unique<FaultyFile>(std::move(base), failpoints_, path);
}

Error FaultyEnv::ReadAll(const std::string& path,
                         std::vector<std::uint8_t>& out) {
  if (auto error = Consult(failpoints_, "storage.read", "read", path);
      !error.ok()) {
    return error;
  }
  return base_.ReadAll(path, out);
}

Error FaultyEnv::Rename(const std::string& from, const std::string& to) {
  if (auto error = Consult(failpoints_, "storage.rename", "rename", from);
      !error.ok()) {
    return error;
  }
  return base_.Rename(from, to);
}

Error FaultyEnv::Link(const std::string& from, const std::string& to) {
  if (auto error = Consult(failpoints_, "storage.link", "link", from);
      !error.ok()) {
    return error;
  }
  return base_.Link(from, to);
}

Error FaultyEnv::Remove(const std::string& path) {
  if (auto error = Consult(failpoints_, "storage.remove", "remove", path);
      !error.ok()) {
    return error;
  }
  return base_.Remove(path);
}

bool FaultyEnv::Exists(const std::string& path) { return base_.Exists(path); }

Error FaultyEnv::SyncDir(const std::string& dir) {
  if (auto error = Consult(failpoints_, "storage.syncdir", "syncdir", dir);
      !error.ok()) {
    return error;
  }
  return base_.SyncDir(dir);
}

std::vector<std::string> FaultyEnv::List(const std::string& dir) {
  return base_.List(dir);
}

Error FaultyEnv::Map(const std::string& path, MappedRegion& out) {
  if (auto error = Consult(failpoints_, "storage.map", "map", path);
      !error.ok()) {
    return error;
  }
  return base_.Map(path, out);
}

}  // namespace sleepwalk::storage
