// slck_fsck: integrity checker / dumper for the persistence formats.
//
//   slck_fsck FILE...          check each file, print a one-line verdict
//   slck_fsck --verbose FILE   add per-file structural detail
//
// Understands SLCK v3 — campaign checkpoints (kind 1) and block-store
// snapshots (kind 2) — and SLPW v3 columnar datasets, by sniffing the
// magic and the kind discriminator. A v1 or v2 file from an older build
// is reported as refused. There is no partial salvage: a checkpoint
// recovers through its retained generations, a dataset fails closed, and
// the verdict names the first violated invariant (for a rotted column,
// its id). Exit status: 0 when every file decodes intact, 1 when any
// file is corrupt/truncated/refused/unreadable, 2 on usage errors.
// scripts/tier1.sh runs it over freshly written artifacts so a format
// regression (bad CRC, broken framing) fails the tier-1 gate, and
// operators can point it at a damaged campaign directory to see which
// generation files are still worth resuming from.
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "sleepwalk/core/block_store.h"
#include "sleepwalk/core/checkpoint.h"
#include "sleepwalk/core/dataset_columnar.h"
#include "sleepwalk/storage/columnar.h"
#include "sleepwalk/storage/file.h"

namespace {

using namespace sleepwalk;

int Usage() {
  std::cout << "usage: slck_fsck [--verbose] FILE...\n"
               "  checks SLCK (checkpoint) and SLPW (dataset) files;\n"
               "  exit 0 = all intact, 1 = any damage, 2 = usage\n";
  return 2;
}

bool CheckCheckpoint(const std::vector<std::uint8_t>& bytes,
                     const std::string& path, bool verbose) {
  core::CheckpointLoadReport report;
  const auto checkpoint = core::DecodeCheckpoint(bytes, &report);
  if (!checkpoint) {
    std::cout << path << ": SLCK v" << report.version << " CORRUPT ("
              << (report.detail.empty() ? "undecodable" : report.detail)
              << ", " << report.corrupt_sections << " bad section(s))\n";
    return false;
  }
  std::cout << path << ": SLCK v" << report.version << " ok, generation "
            << report.generation << ", " << checkpoint->completed.size()
            << " completed block(s)\n";
  if (verbose) {
    std::cout << "  fingerprint 0x" << std::hex << checkpoint->fingerprint
              << std::dec << "\n  next_block " << checkpoint->next_block
              << ", quarantined " << checkpoint->quarantined.size()
              << ", inflight " << (checkpoint->has_inflight ? "yes" : "no")
              << ", transport_state " << checkpoint->transport_state.size()
              << " byte(s)\n  checkpoints_written "
              << checkpoint->stats.checkpoints_written
              << ", rounds_attempted "
              << checkpoint->stats.rounds_attempted << "\n";
  }
  return true;
}

/// SLCK v3 containers carrying kind kStoreSnapshotKind are raw
/// block-store snapshots (core/block_store.h), not campaign
/// checkpoints; validate them with the store decoder so every column
/// CRC, width, and row-count invariant is exercised.
bool CheckStoreSnapshot(const std::vector<std::uint8_t>& bytes,
                        const std::string& path, bool verbose,
                        std::uint64_t fingerprint,
                        std::uint64_t generation) {
  core::BlockStore store;
  std::uint64_t rounds_done = 0;
  std::uint64_t checkpoints_written = 0;
  if (const auto error = store.DecodeSnapshot(bytes, fingerprint, rounds_done,
                                              checkpoints_written, path);
      !error.ok()) {
    std::cout << path << ": SLCK v3 store snapshot CORRUPT ("
              << error.ToString() << ")\n";
    return false;
  }
  std::cout << path << ": SLCK v3 store snapshot ok, generation "
            << generation << ", " << store.size() << " block row(s)\n";
  if (verbose) {
    std::cout << "  fingerprint 0x" << std::hex << fingerprint << std::dec
              << "\n  rounds_done " << rounds_done
              << ", checkpoints_written " << checkpoints_written << "\n";
  }
  return true;
}

/// True (with the verdict printed) when the header names a version other
/// than v3: a v1 or v2 file from an older build, or a future one.
bool RefusedVersion(const std::vector<std::uint8_t>& bytes,
                    const std::string& path, const char* magic) {
  const auto version = storage::PeekContainerVersion(bytes, magic);
  if (!version || *version == storage::kColumnarVersion) return false;
  std::cout << path << ": " << magic << " v" << *version
            << " REFUSED (only v3 is readable)\n";
  return true;
}

/// Dispatches an SLCK file on its v3 container kind: kCheckpointKind to
/// the checkpoint decoder, kStoreSnapshotKind to the store decoder. The
/// kind peek reuses the full ColumnarReader validation so a damaged
/// header is reported, never mis-dispatched.
bool CheckSlck(const std::vector<std::uint8_t>& bytes,
               const std::string& path, bool verbose) {
  if (RefusedVersion(bytes, path, "SLCK")) return false;
  storage::ColumnarReader reader;
  if (const auto error = reader.Parse(bytes, "SLCK", path); !error.ok()) {
    std::cout << path << ": SLCK v3 CORRUPT (" << error.ToString() << ")\n";
    return false;
  }
  if (reader.kind() == core::kStoreSnapshotKind) {
    return CheckStoreSnapshot(bytes, path, verbose, reader.fingerprint(),
                              reader.generation());
  }
  if (reader.kind() != core::kCheckpointKind) {
    std::cout << path << ": SLCK v3 CORRUPT (unknown container kind "
              << reader.kind() << ")\n";
    return false;
  }
  return CheckCheckpoint(bytes, path, verbose);
}

/// SLPW files get the full ColumnarReader strictness pass plus the
/// cross-column offset/count prefix-sum validation, with a per-column
/// directory walk under --verbose.
bool CheckDataset(const std::vector<std::uint8_t>& bytes,
                  const std::string& path, bool verbose) {
  if (RefusedVersion(bytes, path, "SLPW")) return false;
  core::ColumnarDatasetView view;
  if (const auto error = core::ParseDatasetColumnar(bytes, view, path);
      !error.ok()) {
    std::cout << path << ": SLPW v3 columnar dataset CORRUPT ("
              << error.ToString() << ")\n";
    return false;
  }
  std::cout << path << ": SLPW v3 columnar dataset ok, " << view.size()
            << " block(s), " << view.values.size() << " sample(s)\n";
  if (verbose) {
    std::cout << "  round_seconds " << view.round_seconds << ", epoch_sec "
              << view.epoch_sec << "\n";
    storage::ColumnarReader reader;
    if (reader.Parse(bytes, "SLPW", path).ok()) {
      for (const auto& column : reader.columns()) {
        std::cout << "  column id " << column.id << ": " << column.rows
                  << " row(s) x " << column.elem_width << " byte(s)\n";
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool verbose = false;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--verbose" || arg == "-v") {
      verbose = true;
    } else if (arg == "--help" || arg.rfind("--", 0) == 0) {
      return Usage();
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) return Usage();

  auto& env = storage::RealEnvInstance();
  bool all_ok = true;
  for (const auto& path : paths) {
    std::vector<std::uint8_t> bytes;
    if (const auto error = env.ReadAll(path, bytes); !error.ok()) {
      std::cout << path << ": UNREADABLE (" << error.ToString() << ")\n";
      all_ok = false;
      continue;
    }
    if (bytes.size() >= 4 && std::memcmp(bytes.data(), "SLCK", 4) == 0) {
      all_ok = CheckSlck(bytes, path, verbose) && all_ok;
    } else if (bytes.size() >= 4 &&
               std::memcmp(bytes.data(), "SLPW", 4) == 0) {
      all_ok = CheckDataset(bytes, path, verbose) && all_ok;
    } else {
      std::cout << path << ": UNRECOGNIZED (no SLCK/SLPW magic in "
                << bytes.size() << " byte(s))\n";
      all_ok = false;
    }
  }
  return all_ok ? 0 : 1;
}
