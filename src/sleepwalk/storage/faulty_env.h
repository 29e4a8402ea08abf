// Failpoint-driven storage decorator.
//
// FaultyEnv wraps any Env and consults a util::FailpointSet before
// every operation, under these site names:
//
//   storage.create   storage.append   storage.sync    storage.close
//   storage.rename   storage.link     storage.remove  storage.syncdir
//   storage.read     storage.map
//
// plus the `*` wildcard, whose ordinal counts every operation in
// sequence — the hook the exhaustive crash-point sweep uses: dry-run a
// campaign to count N storage operations, then re-run it N times with
// `*=crash@i` for i = 1..N and prove every recovery.
//
// Action semantics (util/failpoint.h):
//   eio / enospc  the operation does nothing and reports that errno;
//   short         Append writes the first half of the bytes, then
//                 reports ENOSPC (other operations degrade to eio);
//   crash         CrashInjected is thrown BEFORE the operation — the
//                 disk state is exactly "process died between ops";
//   torn          Append writes the first half, then throws — a torn
//                 page; for non-append operations same as crash.
//
// A gathered AppendParts is one `storage.append` operation, and its
// "first half" is the first half of the concatenated parts.
#ifndef SLEEPWALK_STORAGE_FAULTY_ENV_H_
#define SLEEPWALK_STORAGE_FAULTY_ENV_H_

#include <memory>
#include <string>
#include <vector>

#include "sleepwalk/storage/file.h"
#include "sleepwalk/util/failpoint.h"

namespace sleepwalk::storage {

class FaultyEnv final : public Env {
 public:
  FaultyEnv(Env& base, util::FailpointSet& failpoints)
      : base_(base), failpoints_(failpoints) {}

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

  util::FailpointSet& failpoints() noexcept { return failpoints_; }

 private:
  Env& base_;
  util::FailpointSet& failpoints_;
};

}  // namespace sleepwalk::storage

#endif  // SLEEPWALK_STORAGE_FAULTY_ENV_H_
