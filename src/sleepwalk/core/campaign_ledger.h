// Shared campaign bookkeeping for the sequential supervisor and the
// parallel sharded executor.
//
// The ledger is the single synchronization point both runners agree on:
// completed analyses and diurnal counts, the resilience stats, the
// quarantine list, the processed-round counter that drives checkpoint
// cadence, and the early-stop/resume flags. Everything workers must
// agree on lives behind one capability so the clang -Wthread-safety
// build (scripts/static_analysis.sh, CI `static-analysis` job) rejects
// unlocked access at compile time. Per-block state — the analyzer, the
// retry counter, the round cursor — deliberately stays thread-local in
// the runners.
//
// The free helpers (backoff, gap/restart schedule checks, analysis
// classification, transport snapshotting) are the policy pieces the two
// runners must share byte-for-byte: a parallel run is only equivalent to
// a sequential one if every retry delay, every skipped round, and every
// classification decision is computed identically.
#ifndef SLEEPWALK_CORE_CAMPAIGN_LEDGER_H_
#define SLEEPWALK_CORE_CAMPAIGN_LEDGER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sleepwalk/core/block_analyzer.h"
#include "sleepwalk/core/block_store.h"
#include "sleepwalk/core/checkpoint.h"
#include "sleepwalk/core/status.h"
#include "sleepwalk/core/supervisor.h"
#include "sleepwalk/net/ipv4.h"
#include "sleepwalk/net/transport.h"
#include "sleepwalk/obs/context.h"
#include "sleepwalk/report/resilience.h"
#include "sleepwalk/util/sync.h"

namespace sleepwalk::core {

/// Supervisor-level instruments, resolved once per campaign (or once per
/// block against a shard-local registry). All null when the registry is
/// absent. The instruments themselves are internally synchronized
/// (obs/metrics.h), so workers update them without further locking.
struct SupervisorMetrics {
  explicit SupervisorMetrics(const obs::Context& context);

  obs::Counter* rounds;
  obs::Counter* rounds_failed;
  obs::Counter* rounds_gapped;
  obs::Counter* retries;
  obs::Counter* backoff_seconds;
  obs::Counter* forced_restarts;
  obs::Counter* quarantined;
  obs::Counter* checkpoints;
  obs::Counter* resumes;
  obs::Counter* checkpoint_recoveries;
  obs::Counter* corrupt_sections;
  obs::Counter* generations_discarded;
  obs::Gauge* blocks_done;
  obs::Gauge* blocks_total;
  obs::Gauge* rounds_per_sec;
  obs::Histogram* backoff_delay;
};

/// Deterministic jittered exponential backoff. The jitter draw is a
/// stateless hash of (seed, block, round, attempt), so retry timing never
/// perturbs any RNG stream a checkpoint would have to capture — and a
/// worker thread computes the exact delay the sequential loop would.
double BackoffDelay(const RetryConfig& retry, std::uint64_t seed,
                    std::uint32_t block, std::int64_t round, int attempt);

/// Whether `round` falls in one of the campaign's clock-gap windows.
bool InGap(const SupervisorConfig& config, std::int64_t round) noexcept;

/// Whether the fault plan schedules a prober restart at `round`.
bool IsForcedRestart(const SupervisorConfig& config,
                     std::int64_t round) noexcept;

/// Folds one finished block's analysis into the diurnal counts.
/// Quarantined blocks degrade to partial results: whatever was measured
/// is kept in the analysis record, but the aggregate counts treat the
/// block as skipped rather than classifying a truncated series.
void ClassifyAnalysis(const BlockAnalysis& analysis, bool quarantined,
                      DiurnalCounts& counts);

/// Serializes the current transport state when the transport supports it.
std::vector<std::uint8_t> SnapshotTransport(net::Transport& transport);

/// Everything one finished block contributes to the campaign: its
/// analysis, its quarantine verdict, and the resilience-stats delta it
/// accumulated off to the side (a parallel worker counts into a private
/// delta; the coordinator commits deltas strictly in block order so
/// double-valued sums fold identically for any worker count).
struct BlockCommit {
  BlockAnalysis analysis;
  net::Prefix24 block;
  bool quarantined = false;
  report::ResilienceStats delta;
  std::int64_t rounds_processed = 0;
  /// Final EWMA estimator state at block completion, recorded into the
  /// outcome's columnar BlockStore (and persisted by checkpoints).
  AvailabilityState estimator;
};

/// Maps a finished block's analysis to its fixed-width columnar verdict
/// (core/block_store.h). Pure projection: both runners and the resume
/// path must derive store rows from analyses through this one function
/// so the columnar mirror is runner-independent.
BlockVerdict VerdictOf(const BlockAnalysis& analysis, bool quarantined);

/// Shared mutable campaign state; see the file comment. All methods are
/// safe from any thread.
class CampaignLedger {
 public:
  explicit CampaignLedger(std::size_t n_targets,
                          const AvailabilityConfig& availability = {}) {
    outcome_.result.analyses.reserve(n_targets);
    outcome_.store.Reset(n_targets, availability);
  }

  /// Resume path: adopt everything a matching checkpoint carried. The
  /// columnar store rows for adopted blocks are rebuilt through the
  /// same VerdictOf projection a live commit uses, with the estimator
  /// state the checkpoint carried (one per completed analysis).
  void AdoptCheckpoint(Checkpoint& checkpoint) SLEEPWALK_EXCLUDES(mutex_) {
    util::MutexLock lock{mutex_};
    outcome_.result.analyses = std::move(checkpoint.completed);
    outcome_.result.counts = checkpoint.counts;
    outcome_.stats = checkpoint.stats;
    for (const auto index : checkpoint.quarantined) {
      outcome_.quarantined.push_back(net::Prefix24::FromIndex(index));
    }
    const auto& analyses = outcome_.result.analyses;
    for (std::size_t i = 0; i < analyses.size(); ++i) {
      if (i >= outcome_.store.size()) break;  // foreign-sized checkpoint
      const bool quarantined =
          std::find(checkpoint.quarantined.begin(),
                    checkpoint.quarantined.end(),
                    analyses[i].block.Index()) != checkpoint.quarantined.end();
      outcome_.store.RecordVerdict(i, VerdictOf(analyses[i], quarantined),
                                   checkpoint.estimators[i]);
    }
    outcome_.resumed = true;
    outcome_.stats.resumed_from_checkpoint = true;
  }

  void NoteGapped() SLEEPWALK_EXCLUDES(mutex_) {
    util::MutexLock lock{mutex_};
    ++outcome_.stats.rounds_gapped;
  }

  void NoteAttempted() SLEEPWALK_EXCLUDES(mutex_) {
    util::MutexLock lock{mutex_};
    ++outcome_.stats.rounds_attempted;
  }

  void NoteForcedRestart() SLEEPWALK_EXCLUDES(mutex_) {
    util::MutexLock lock{mutex_};
    ++outcome_.stats.forced_restarts;
  }

  void NoteRetry(double delay_sec) SLEEPWALK_EXCLUDES(mutex_) {
    util::MutexLock lock{mutex_};
    ++outcome_.stats.retries;
    outcome_.stats.backoff_seconds += delay_sec;
  }

  void NoteRoundFailed() SLEEPWALK_EXCLUDES(mutex_) {
    util::MutexLock lock{mutex_};
    ++outcome_.stats.rounds_failed;
  }

  void NoteQuarantined(net::Prefix24 block) SLEEPWALK_EXCLUDES(mutex_) {
    util::MutexLock lock{mutex_};
    ++outcome_.stats.quarantined_blocks;
    outcome_.quarantined.push_back(block);
  }

  /// Classifies and appends a finished block's analysis, mirroring it
  /// into the columnar store (row = position in the completion order).
  void FinishBlock(BlockAnalysis analysis, bool quarantined,
                   const AvailabilityState& estimator = {})
      SLEEPWALK_EXCLUDES(mutex_) {
    util::MutexLock lock{mutex_};
    ClassifyAnalysis(analysis, quarantined, outcome_.result.counts);
    const std::size_t row = outcome_.result.analyses.size();
    if (row < outcome_.store.size()) {
      outcome_.store.RecordVerdict(row, VerdictOf(analysis, quarantined),
                                   estimator);
    }
    outcome_.result.analyses.push_back(std::move(analysis));
  }

  /// Commits a whole finished block at once: classification + analysis
  /// append + quarantine list + the block's private stats delta + its
  /// processed-round count. The parallel executor's merge stage calls
  /// this in strict block-index order; returns the new global
  /// processed-round total so the coordinator can evaluate
  /// stop_after_rounds exactly where the sequential loop would have.
  std::int64_t CommitBlock(BlockCommit&& commit) SLEEPWALK_EXCLUDES(mutex_) {
    util::MutexLock lock{mutex_};
    ClassifyAnalysis(commit.analysis, commit.quarantined,
                     outcome_.result.counts);
    const std::size_t row = outcome_.result.analyses.size();
    if (row < outcome_.store.size()) {
      outcome_.store.RecordVerdict(
          row, VerdictOf(commit.analysis, commit.quarantined),
          commit.estimator);
    }
    outcome_.result.analyses.push_back(std::move(commit.analysis));
    if (commit.quarantined) outcome_.quarantined.push_back(commit.block);
    outcome_.stats.Merge(commit.delta);
    processed_rounds_ += commit.rounds_processed;
    return processed_rounds_;
  }

  /// Advances the global round counter, returning its new value.
  std::int64_t AdvanceRound() SLEEPWALK_EXCLUDES(mutex_) {
    util::MutexLock lock{mutex_};
    return ++processed_rounds_;
  }

  std::int64_t processed_rounds() const SLEEPWALK_EXCLUDES(mutex_) {
    util::MutexLock lock{mutex_};
    return processed_rounds_;
  }

  /// Builds a checkpoint snapshot of the current shared state. The
  /// write-ahead increment of checkpoints_written is part of the
  /// snapshot (it counts itself); a failed write is rolled back with
  /// NoteCheckpointWritten(false). File I/O happens outside the lock.
  Checkpoint BuildCheckpointSnapshot(std::uint64_t fingerprint,
                                     std::size_t next_block,
                                     bool has_inflight,
                                     std::int64_t next_round, int failures,
                                     const BlockAnalyzer* analyzer)
      SLEEPWALK_EXCLUDES(mutex_) {
    util::MutexLock lock{mutex_};
    Checkpoint checkpoint;
    checkpoint.fingerprint = fingerprint;
    checkpoint.counts = outcome_.result.counts;
    checkpoint.completed = outcome_.result.analyses;
    // Per-completed-block estimator state rides along.
    const std::size_t n_estimators =
        std::min(checkpoint.completed.size(), outcome_.store.size());
    checkpoint.estimators.reserve(n_estimators);
    for (std::size_t i = 0; i < n_estimators; ++i) {
      checkpoint.estimators.push_back(outcome_.store.ExportEstimator(i));
    }
    for (const auto& block : outcome_.quarantined) {
      checkpoint.quarantined.push_back(block.Index());
    }
    checkpoint.next_block = next_block;
    checkpoint.has_inflight = has_inflight;
    if (has_inflight) {
      checkpoint.inflight_next_round = next_round;
      checkpoint.inflight_consecutive_failures = failures;
      checkpoint.inflight = analyzer->ExportState();
    }
    ++outcome_.stats.checkpoints_written;  // the snapshot counts itself
    checkpoint.stats = outcome_.stats;
    return checkpoint;
  }

  void NoteCheckpointWritten(bool ok) SLEEPWALK_EXCLUDES(mutex_) {
    if (ok) return;
    util::MutexLock lock{mutex_};
    --outcome_.stats.checkpoints_written;
  }

  /// Records the checkpoint-recovery accounting from the resume attempt.
  void NoteRecovery(const RecoveryEvents& events) SLEEPWALK_EXCLUDES(mutex_) {
    util::MutexLock lock{mutex_};
    outcome_.recovery = events;
  }

  void NoteStoppedEarly() SLEEPWALK_EXCLUDES(mutex_) {
    util::MutexLock lock{mutex_};
    outcome_.stopped_early = true;
  }

  /// One locked read of everything /statusz reports from the ledger —
  /// snapshot isolation: progress, counts, stats, and recovery state in
  /// `status` are mutually consistent (taken under a single lock hold).
  /// The live fields (rates, shards, quantiles) are the runner's to
  /// fill. This is the read path the admin plane's status provider and,
  /// later, the online query service (ROADMAP item 2) serve from.
  void FillStatus(CampaignStatus& status) const SLEEPWALK_EXCLUDES(mutex_) {
    util::MutexLock lock{mutex_};
    status.blocks_done = outcome_.result.analyses.size();
    status.rounds_done = processed_rounds_;
    status.counts = outcome_.result.counts;
    status.stats = outcome_.stats;
    status.recovery = outcome_.recovery;
    status.resumed = outcome_.resumed;
    status.stopped_early = outcome_.stopped_early;
  }

  /// Point-in-time copy of the resilience ledger (heartbeats, logs).
  report::ResilienceStats stats_snapshot() const SLEEPWALK_EXCLUDES(mutex_) {
    util::MutexLock lock{mutex_};
    return outcome_.stats;
  }

  std::size_t blocks_done() const SLEEPWALK_EXCLUDES(mutex_) {
    util::MutexLock lock{mutex_};
    return outcome_.result.analyses.size();
  }

  DiurnalCounts counts_snapshot() const SLEEPWALK_EXCLUDES(mutex_) {
    util::MutexLock lock{mutex_};
    return outcome_.result.counts;
  }

  /// Final move-out; the ledger must not be used afterwards.
  CampaignOutcome TakeOutcome() SLEEPWALK_EXCLUDES(mutex_) {
    util::MutexLock lock{mutex_};
    return std::move(outcome_);
  }

 private:
  mutable util::Mutex mutex_;
  CampaignOutcome outcome_ SLEEPWALK_GUARDED_BY(mutex_);
  std::int64_t processed_rounds_ SLEEPWALK_GUARDED_BY(mutex_) = 0;
};

}  // namespace sleepwalk::core

#endif  // SLEEPWALK_CORE_CAMPAIGN_LEDGER_H_
