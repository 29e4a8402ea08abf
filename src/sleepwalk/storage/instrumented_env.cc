#include "sleepwalk/storage/instrumented_env.h"

#include <utility>

namespace sleepwalk::storage {

namespace {

/// Latency buckets: 10µs to 5s, log-spaced — covers MemEnv noise through
/// a slow spinning disk's fsync.
const std::vector<double> kLatencyBounds{1e-5, 1e-4, 1e-3, 1e-2,
                                         0.1,  0.5,  1.0,  5.0};

}  // namespace

/// Decorated write handle: counts appends/bytes/syncs, measures fsync
/// latency when a clock was injected. Errors and exceptions pass
/// through untouched.
class InstrumentedFile final : public WritableFile {
 public:
  InstrumentedFile(std::unique_ptr<WritableFile> inner, InstrumentedEnv& env)
      : inner_(std::move(inner)), env_(env) {}

  Error AppendParts(ByteParts parts) override {
    if (env_.appends_ != nullptr) env_.appends_->Inc();
    const Error error = inner_->AppendParts(parts);
    if (error.ok() && env_.bytes_written_ != nullptr) {
      env_.bytes_written_->Inc(static_cast<double>(TotalBytes(parts)));
    }
    env_.NoteError(error);
    return error;
  }

  Error Sync() override {
    if (env_.syncs_ != nullptr) env_.syncs_->Inc();
    const std::uint64_t start = env_.now_ns_ ? env_.now_ns_() : 0;
    const Error error = inner_->Sync();
    if (env_.now_ns_ && env_.sync_seconds_ != nullptr) {
      env_.sync_seconds_->Observe(
          static_cast<double>(env_.now_ns_() - start) * 1e-9);
    }
    env_.NoteError(error);
    return error;
  }

  Error Close() override {
    const Error error = inner_->Close();
    env_.NoteError(error);
    return error;
  }

 private:
  std::unique_ptr<WritableFile> inner_;
  InstrumentedEnv& env_;
};

InstrumentedEnv::InstrumentedEnv(Env& inner, const obs::Context& context,
                                 NowNsFn now_ns)
    : inner_(inner), now_ns_(std::move(now_ns)) {
  creates_ = context.CounterOrNull("storage_creates_total",
                                   "files opened for writing");
  appends_ = context.CounterOrNull("storage_appends_total",
                                   "WritableFile::Append calls");
  syncs_ = context.CounterOrNull("storage_syncs_total", "file fsyncs");
  reads_ = context.CounterOrNull("storage_reads_total", "whole-file reads");
  maps_ = context.CounterOrNull("storage_maps_total",
                                "whole-file read-only mappings");
  renames_ = context.CounterOrNull("storage_renames_total",
                                   "atomic rename commits");
  links_ = context.CounterOrNull("storage_links_total",
                                 "generation hard links");
  removes_ = context.CounterOrNull("storage_removes_total", "file removals");
  dir_syncs_ = context.CounterOrNull("storage_dir_syncs_total",
                                     "directory fsyncs");
  bytes_written_ = context.CounterOrNull("storage_bytes_written_total",
                                         "bytes appended to files");
  bytes_read_ = context.CounterOrNull("storage_bytes_read_total",
                                      "bytes read from files");
  errors_ = context.CounterOrNull("storage_errors_total",
                                  "storage operations that failed");
  // Latency instruments exist only when a clock was injected: a
  // deterministic run creates neither, so its exposition stays a pure
  // function of campaign state.
  if (now_ns_) {
    sync_seconds_ = context.HistogramOrNull(
        "storage_sync_seconds", kLatencyBounds,
        "fsync wall latency (live runs only)");
  }
}

std::unique_ptr<WritableFile> InstrumentedEnv::Create(const std::string& path,
                                                      Error& error) {
  if (creates_ != nullptr) creates_->Inc();
  auto file = inner_.Create(path, error);
  NoteError(error);
  if (file == nullptr) return nullptr;
  return std::make_unique<InstrumentedFile>(std::move(file), *this);
}

Error InstrumentedEnv::ReadAll(const std::string& path,
                               std::vector<std::uint8_t>& out) {
  if (reads_ != nullptr) reads_->Inc();
  const Error error = inner_.ReadAll(path, out);
  if (error.ok() && bytes_read_ != nullptr) {
    bytes_read_->Inc(static_cast<double>(out.size()));
  }
  NoteError(error);
  return error;
}

Error InstrumentedEnv::Rename(const std::string& from, const std::string& to) {
  if (renames_ != nullptr) renames_->Inc();
  const Error error = inner_.Rename(from, to);
  NoteError(error);
  return error;
}

Error InstrumentedEnv::Link(const std::string& from, const std::string& to) {
  if (links_ != nullptr) links_->Inc();
  const Error error = inner_.Link(from, to);
  NoteError(error);
  return error;
}

Error InstrumentedEnv::Remove(const std::string& path) {
  if (removes_ != nullptr) removes_->Inc();
  const Error error = inner_.Remove(path);
  NoteError(error);
  return error;
}

bool InstrumentedEnv::Exists(const std::string& path) {
  return inner_.Exists(path);
}

Error InstrumentedEnv::SyncDir(const std::string& dir) {
  if (dir_syncs_ != nullptr) dir_syncs_->Inc();
  const Error error = inner_.SyncDir(dir);
  NoteError(error);
  return error;
}

std::vector<std::string> InstrumentedEnv::List(const std::string& dir) {
  return inner_.List(dir);
}

Error InstrumentedEnv::Map(const std::string& path, MappedRegion& out) {
  if (maps_ != nullptr) maps_->Inc();
  const Error error = inner_.Map(path, out);
  if (error.ok() && bytes_read_ != nullptr) {
    bytes_read_->Inc(static_cast<double>(out.size()));
  }
  NoteError(error);
  return error;
}

}  // namespace sleepwalk::storage
