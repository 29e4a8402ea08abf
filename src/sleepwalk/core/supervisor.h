// Resilient campaign supervisor.
//
// RunCampaign assumes a perfect transport and an uninterrupted process;
// a real A_12w-style campaign gets neither. The supervisor hardens the
// same per-block measurement loop with:
//   * retry with exponential backoff — a round aborted by a
//     net::TransportError is rolled back (prober cursor + belief) and
//     re-run, with deterministic jittered delays, capped;
//   * quarantine — a block whose rounds keep failing after retries is
//     abandoned and accounted under DiurnalCounts::skipped; the campaign
//     degrades to partial results instead of aborting;
//   * checkpoint/resume — the full mutable state is periodically written
//     to a versioned snapshot (core/checkpoint.h); a killed campaign
//     resumed from its latest checkpoint produces a byte-identical
//     DatasetResult to an uninterrupted run;
//   * fault-plan hooks — scheduled prober restarts (the §4 artifact) and
//     clock-gap windows (rounds the prober sleeps through), which the
//     cleaning stage (§2.2) then has to repair.
// Every recovery action is counted in a report::ResilienceStats so
// experiments can state how much signal survived.
#ifndef SLEEPWALK_CORE_SUPERVISOR_H_
#define SLEEPWALK_CORE_SUPERVISOR_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sleepwalk/core/block_store.h"
#include "sleepwalk/core/checkpoint.h"
#include "sleepwalk/core/pipeline.h"
#include "sleepwalk/obs/context.h"
#include "sleepwalk/report/resilience.h"
#include "sleepwalk/storage/file.h"

namespace sleepwalk::core {

class StatusHub;  // core/status.h

/// Retry-with-backoff policy for transport errors.
struct RetryConfig {
  int max_attempts = 4;         ///< total tries per round (1 = no retry)
  double base_delay_sec = 0.5;  ///< first backoff delay
  double max_delay_sec = 30.0;  ///< exponential growth cap
  double jitter = 0.5;  ///< +/- fraction of the delay, deterministic
};

/// Supervisor knobs. Defaults: retries on, quarantine after 3
/// consecutively failed rounds, no checkpointing, no injected faults.
struct SupervisorConfig {
  AnalyzerConfig analyzer;
  std::uint64_t seed = 0x51ee9;
  RetryConfig retry;
  /// Consecutive failed rounds (after retries) before a block is
  /// quarantined; <= 0 disables quarantine.
  int quarantine_after_failures = 3;

  /// Checkpoint snapshot path; empty disables checkpointing. When the
  /// file already holds a checkpoint with a matching fingerprint, Run()
  /// resumes from it.
  std::string checkpoint_path;
  /// Global rounds between checkpoints (0 = only at block boundaries).
  std::int64_t checkpoint_every_rounds = 0;
  /// Block boundaries between checkpoints (<= 1 = every boundary). A
  /// checkpoint re-serializes every completed analysis, so per-block
  /// saves cost O(blocks^2) over a campaign; raising the stride trades
  /// redo-work after a crash for durability overhead (bench/
  /// checkpoint_io measures the trade). Campaign completion always
  /// writes a final checkpoint whatever the stride.
  int checkpoint_every_blocks = 1;
  /// Checkpoint generations retained as hard links <path>.g<N> alongside
  /// the primary file; when the primary is corrupt on resume, Run()
  /// self-heals from the newest intact generation. <= 1 keeps only the
  /// primary file (no rotation, no self-healing).
  int checkpoint_keep = 3;
  /// Filesystem seam all persistence goes through; null means the real
  /// POSIX filesystem. Tests inject storage::MemEnv or storage::FaultyEnv
  /// here to prove crash safety.
  storage::Env* env = nullptr;

  /// Injected prober restarts (fault plan) in campaign round numbers.
  std::vector<std::int64_t> forced_restart_rounds;
  /// Half-open round ranges [first, last) the prober sleeps through.
  std::vector<std::pair<std::int64_t, std::int64_t>> gap_round_windows;

  /// Stop (as if SIGKILLed at a round boundary) after this many globally
  /// processed rounds, writing a final checkpoint; 0 = run to completion.
  /// Exercised by crash/resume tests and usable for cooperative
  /// time-slicing.
  std::int64_t stop_after_rounds = 0;

  /// Called with each backoff delay; wire a real sleep for live probing,
  /// leave empty for simulation (delays are accounted, not slept).
  std::function<void(double)> sleeper;
  /// Heartbeat callback, invoked after each finished block with the full
  /// CampaignProgress; legacy (blocks_done, total) callables still bind
  /// (see core::ProgressFn).
  ProgressFn progress;

  /// Live-status rendezvous for the admin plane (serve/); null = no
  /// status publishing. The campaign attaches a snapshot provider for
  /// the duration of the run; the hub must outlive the call. Read-only
  /// observation: attaching a hub changes no campaign, checkpoint, or
  /// telemetry byte (enforced with the obs inertness tests).
  StatusHub* status = nullptr;

  /// Telemetry handle (null-object by default — a campaign without
  /// sinks pays one branch per instrumentation point). Every recovery
  /// action (retry, backoff, quarantine, checkpoint write/resume) is
  /// logged and counted; the campaign clock advances with virtual round
  /// time. Guaranteed inert: results and checkpoints are byte-identical
  /// whatever is attached here.
  obs::Context obs;
};

/// A campaign's results plus its resilience accounting. `stats.probes`
/// stays empty unless the caller merges transport-level accounting (for
/// example faults::FaultyTransport::accounting()).
struct CampaignOutcome {
  DatasetResult result;
  report::ResilienceStats stats;
  std::vector<net::Prefix24> quarantined;
  RecoveryEvents recovery;     ///< checkpoint corruption/self-heal events
  bool resumed = false;        ///< picked up from a checkpoint
  bool stopped_early = false;  ///< hit stop_after_rounds; result partial
  /// Columnar mirror of the outcome: row i is result.analyses[i]'s
  /// verdict and final estimator state (core/block_store.h), sized to
  /// the full target list (rows past analyses.size() are defaults when
  /// the campaign stopped early). Estimator columns for resumed blocks
  /// are exact: the checkpoint persists them.
  BlockStore store;
};

/// Runs (or resumes) a hardened campaign over `targets` through
/// `transport` for `n_rounds` rounds per block.
CampaignOutcome RunResilientCampaign(std::vector<BlockTarget> targets,
                                     net::Transport& transport,
                                     std::int64_t n_rounds,
                                     const SupervisorConfig& config = {});

}  // namespace sleepwalk::core

#endif  // SLEEPWALK_CORE_SUPERVISOR_H_
