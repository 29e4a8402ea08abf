#include "sleepwalk/core/supervisor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <utility>

#include "sleepwalk/core/campaign_ledger.h"
#include "sleepwalk/core/checkpoint.h"
#include "sleepwalk/core/status.h"
#include "sleepwalk/storage/instrumented_env.h"
#include "sleepwalk/util/rng.h"
#include "sleepwalk/util/sync.h"

namespace sleepwalk::core {

// The campaign bookkeeping (CampaignLedger, SupervisorMetrics, backoff
// and schedule helpers) lives in core/campaign_ledger.h, shared with the
// parallel executor: both runners must compute identical retry delays,
// gap decisions, and classifications for the byte-equivalence contract.

namespace {

/// Monotonic-nanosecond clock injected into the storage decorator for
/// live (non-deterministic) runs; deterministic runs pass an empty
/// function and get no latency instruments at all.
std::uint64_t MonotonicNowNs() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now()  // sleeplint: allow(no-wallclock)
              .time_since_epoch())
          .count());
}

}  // namespace

CampaignOutcome RunResilientCampaign(std::vector<BlockTarget> targets,
                                     net::Transport& transport,
                                     std::int64_t n_rounds,
                                     const SupervisorConfig& config) {
  CampaignLedger ledger{targets.size(), config.analyzer.availability};

  const std::uint64_t fingerprint =
      CampaignFingerprint(targets, n_rounds, config.seed, config.analyzer);

  const obs::Context& obs = config.obs;
  SupervisorMetrics metrics{obs};
  // Wall-derived values (rounds/sec) are kept out of every sink when the
  // logger is deterministic — the determinism contract of DESIGN.md §7.
  // This is the supervisor's only wall-clock read, and it never reaches
  // a deterministic sink or any campaign state.
  const bool deterministic =
      obs.log == nullptr || obs.log->config().deterministic;
  const auto wall_start =
      std::chrono::steady_clock::now();  // sleeplint: allow(no-wallclock)
  const auto campaign_span = obs.Span("campaign");
  if (metrics.blocks_total != nullptr) {
    metrics.blocks_total->Set(static_cast<double>(targets.size()));
  }
  if (obs.Logs(obs::Level::kInfo)) {
    obs.log->Write(obs::Level::kInfo, "campaign.start",
                   {{"blocks", static_cast<std::uint64_t>(targets.size())},
                    {"rounds", n_rounds},
                    {"seed", config.seed},
                    {"fingerprint", fingerprint},
                    {"checkpointing", !config.checkpoint_path.empty()}});
  }

  std::size_t first_block = 0;
  std::int64_t resume_round = 0;
  int consecutive_failures = 0;
  bool resume_inflight = false;
  BlockAnalyzerState inflight_state;

  // Checkpoint I/O goes through the instrumented decorator: op/byte
  // counters are deterministic (the op sequence is), latency histograms
  // only exist when the injected clock is non-empty (live runs). The
  // decorator is pass-through, so persisted bytes and failpoint
  // ordinals are untouched.
  storage::Env& base_env =
      config.env != nullptr ? *config.env : storage::RealEnvInstance();
  storage::InstrumentedEnv env{
      base_env, obs,
      deterministic ? storage::InstrumentedEnv::NowNsFn{} : MonotonicNowNs};
  CheckpointStore store{env, config.checkpoint_path, config.checkpoint_keep};

  // Wall time spent inside checkpoint writes, for the live
  // durability-tax readout. Read only by the status provider below —
  // never by a deterministic sink.
  std::atomic<std::uint64_t> checkpoint_wall_ns{0};

  if (!config.checkpoint_path.empty()) {
    RecoveryEvents recovery;
    auto checkpoint = store.Load(fingerprint, recovery);
    ledger.NoteRecovery(recovery);
    if (recovery.generations_discarded > 0) {
      if (metrics.corrupt_sections != nullptr) {
        metrics.corrupt_sections->Inc(
            static_cast<double>(recovery.corrupt_sections));
      }
      if (metrics.generations_discarded != nullptr) {
        metrics.generations_discarded->Inc(
            static_cast<double>(recovery.generations_discarded));
      }
      if (metrics.checkpoint_recoveries != nullptr &&
          recovery.recoveries > 0) {
        metrics.checkpoint_recoveries->Inc(
            static_cast<double>(recovery.recoveries));
      }
      const auto level =
          recovery.recoveries > 0 ? obs::Level::kWarn : obs::Level::kError;
      if (obs.Logs(level)) {
        obs.log->Write(level, "checkpoint.recover",
                       {{"path", config.checkpoint_path},
                        {"recovered", recovery.recoveries > 0},
                        {"corrupt_sections", recovery.corrupt_sections},
                        {"generations_discarded",
                         recovery.generations_discarded}});
      }
    }
    if (checkpoint &&
        checkpoint->completed.size() == checkpoint->next_block &&
        checkpoint->next_block <= targets.size()) {
      // Restore the transport stream first: if the snapshot does not fit
      // this transport, the checkpoint belongs to a different setup and
      // resuming would not be bit-identical — start over instead.
      bool transport_ok = true;
      if (!checkpoint->transport_state.empty()) {
        auto* stateful = dynamic_cast<net::StatefulTransport*>(&transport);
        transport_ok =
            stateful && stateful->RestoreState(checkpoint->transport_state);
      }
      if (transport_ok) {
        first_block = checkpoint->next_block;
        if (checkpoint->has_inflight) {
          resume_inflight = true;
          resume_round = checkpoint->inflight_next_round;
          consecutive_failures = checkpoint->inflight_consecutive_failures;
          inflight_state = std::move(checkpoint->inflight);
        }
        ledger.AdoptCheckpoint(*checkpoint);
        if (metrics.resumes != nullptr) metrics.resumes->Inc();
        if (obs.Logs(obs::Level::kInfo)) {
          obs.log->Write(
              obs::Level::kInfo, "checkpoint.resume",
              {{"path", config.checkpoint_path},
               {"fingerprint", fingerprint},
               {"next_block", static_cast<std::uint64_t>(first_block)},
               {"inflight", resume_inflight},
               {"inflight_round", resume_round}});
        }
      }
    }
  }

  const auto save = [&](std::size_t next_block, bool has_inflight,
                        std::int64_t next_round, int failures,
                        const BlockAnalyzer* analyzer) {
    if (config.checkpoint_path.empty()) return;
    Checkpoint checkpoint = ledger.BuildCheckpointSnapshot(
        fingerprint, next_block, has_inflight, next_round, failures,
        analyzer);
    checkpoint.transport_state = SnapshotTransport(transport);
    const auto span = obs.Span("checkpoint.write");
    const std::uint64_t save_start = MonotonicNowNs();
    const auto error = store.Save(checkpoint);
    checkpoint_wall_ns.fetch_add(MonotonicNowNs() - save_start,
                                 std::memory_order_relaxed);
    const bool ok = error.ok();
    ledger.NoteCheckpointWritten(ok);
    if (ok && metrics.checkpoints != nullptr) metrics.checkpoints->Inc();
    const auto level = ok ? obs::Level::kDebug : obs::Level::kError;
    if (obs.Logs(level)) {
      obs.log->Write(level, "checkpoint.write",
                     {{"path", config.checkpoint_path},
                      {"fingerprint", fingerprint},
                      {"next_block", static_cast<std::uint64_t>(next_block)},
                      {"inflight", has_inflight},
                      {"ok", ok},
                      {"error", ok ? std::string{} : error.ToString()}});
    }
  };

  // Live-status provider for the admin plane: one snapshot-isolated
  // ledger read plus wall-derived rates. Registration is scoped to this
  // frame (declared after `ledger`, destroyed first), so a reader can
  // never observe the campaign after it is torn down.
  StatusHub::Registration status_registration;
  if (config.status != nullptr) {
    const std::size_t blocks_total = targets.size();
    const obs::Registry* registry = obs.metrics;
    status_registration = config.status->Attach(
        [&ledger, &checkpoint_wall_ns, wall_start, blocks_total, registry] {
          CampaignStatus status;
          ledger.FillStatus(status);
          status.blocks_total = blocks_total;
          const auto elapsed_ns =
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now()  // sleeplint: allow(no-wallclock)
                  - wall_start)
                  .count();
          if (elapsed_ns > 0) {
            status.rounds_per_sec = static_cast<double>(status.rounds_done) *
                                    1e9 / static_cast<double>(elapsed_ns);
            status.durability_tax_pct =
                100.0 *
                static_cast<double>(
                    checkpoint_wall_ns.load(std::memory_order_relaxed)) /
                static_cast<double>(elapsed_ns);
          }
          // A sequential campaign is one shard that never steals.
          ShardRuntime shard;
          shard.blocks_run = status.blocks_done;
          status.shards.push_back(shard);
          if (registry != nullptr) {
            status.quantiles = CollectHistogramStatus(*registry);
          }
          return status;
        });
  }

  // One scratch arena and one reusable analysis buffer for the whole
  // campaign: Finish() stops allocating once capacities warm up.
  AnalysisScratch analysis_scratch;
  BlockAnalysis finished;
  for (std::size_t i = first_block; i < targets.size(); ++i) {
    auto& target = targets[i];
    const std::uint32_t block_index = target.block.Index();
    BlockAnalyzer analyzer{target.block, std::move(target.ever_active),
                           target.initial_availability,
                           StreamSeed(config.seed, block_index),
                           config.analyzer};
    analyzer.AttachObs(obs);
    const auto block_span = obs.Span("block");
    std::int64_t start_round = 0;
    if (resume_inflight) {
      analyzer.RestoreState(std::move(inflight_state));
      start_round = resume_round;
      resume_inflight = false;
    } else {
      consecutive_failures = 0;
    }

    bool quarantined = false;
    for (std::int64_t round = start_round; round < n_rounds; ++round) {
      if (InGap(config, round)) {
        // The prober slept through this round: no probes, no A-hat_s
        // sample. The cleaning stage later interpolates the hole.
        ledger.NoteGapped();
        if (metrics.rounds_gapped != nullptr) metrics.rounds_gapped->Inc();
      } else {
        if (IsForcedRestart(config, round)) {
          analyzer.ForceRestart();
          ledger.NoteForcedRestart();
          if (metrics.forced_restarts != nullptr) {
            metrics.forced_restarts->Inc();
          }
          if (obs.Logs(obs::Level::kDebug)) {
            obs.log->Write(obs::Level::kDebug, "prober.restart",
                           {{"block", target.block.ToString()},
                            {"round", round},
                            {"reason", "forced"}});
          }
        }
        ledger.NoteAttempted();
        if (metrics.rounds != nullptr) metrics.rounds->Inc();

        bool succeeded = false;
        for (int attempt = 0; attempt < std::max(config.retry.max_attempts, 1);
             ++attempt) {
          const auto snapshot = analyzer.prober_state();
          try {
            analyzer.RunRound(transport, round);
            succeeded = true;
            break;
          } catch (const net::TransportError&) {
            // Roll back the half-run round so a retry does not
            // double-apply belief and walker-cursor updates.
            analyzer.restore_prober_state(snapshot);
            if (attempt + 1 >= std::max(config.retry.max_attempts, 1)) break;
            const double delay = BackoffDelay(config.retry, config.seed,
                                              block_index, round, attempt);
            ledger.NoteRetry(delay);
            if (metrics.retries != nullptr) metrics.retries->Inc();
            if (metrics.backoff_seconds != nullptr) {
              metrics.backoff_seconds->Inc(delay);
            }
            if (metrics.backoff_delay != nullptr) {
              metrics.backoff_delay->Observe(delay);
            }
            if (obs.Logs(obs::Level::kDebug)) {
              obs.log->Write(obs::Level::kDebug, "round.retry",
                             {{"block", target.block.ToString()},
                              {"round", round},
                              {"attempt", attempt + 1},
                              {"delay_sec", delay}});
            }
            if (config.sleeper) config.sleeper(delay);
          }
        }

        if (succeeded) {
          consecutive_failures = 0;
        } else {
          ledger.NoteRoundFailed();
          ++consecutive_failures;
          if (metrics.rounds_failed != nullptr) metrics.rounds_failed->Inc();
          if (obs.Logs(obs::Level::kWarn)) {
            obs.log->Write(obs::Level::kWarn, "round.failed",
                           {{"block", target.block.ToString()},
                            {"round", round},
                            {"consecutive_failures", consecutive_failures}});
          }
          if (config.quarantine_after_failures > 0 &&
              consecutive_failures >= config.quarantine_after_failures) {
            quarantined = true;
            ledger.NoteQuarantined(target.block);
            if (metrics.quarantined != nullptr) metrics.quarantined->Inc();
            if (obs.Logs(obs::Level::kWarn)) {
              obs.log->Write(obs::Level::kWarn, "block.quarantined",
                             {{"block", target.block.ToString()},
                              {"round", round},
                              {"consecutive_failures",
                               consecutive_failures}});
            }
          }
        }
      }

      const std::int64_t processed_rounds = ledger.AdvanceRound();
      const bool stopping = config.stop_after_rounds > 0 &&
                            processed_rounds >= config.stop_after_rounds;
      if (quarantined) break;
      if (stopping || (config.checkpoint_every_rounds > 0 &&
                       processed_rounds % config.checkpoint_every_rounds ==
                           0)) {
        // Always in-flight, even after the final round: resume restores
        // the analyzer (round loop is empty) and goes straight to
        // Finish(), instead of re-running the block from scratch.
        save(i, /*has_inflight=*/true, round + 1, consecutive_failures,
             &analyzer);
        if (stopping) {
          ledger.NoteStoppedEarly();
          if (obs.Logs(obs::Level::kInfo)) {
            obs.log->Write(obs::Level::kInfo, "campaign.stopped",
                           {{"blocks_done", static_cast<std::uint64_t>(i)},
                            {"rounds_done", processed_rounds},
                            {"reason", "stop_after_rounds"}});
          }
          return ledger.TakeOutcome();
        }
      }
    }

    analyzer.Finish(analysis_scratch, finished);
    ledger.FinishBlock(finished, quarantined,
                       analyzer.estimator().ExportState());
    const bool boundary_due =
        config.checkpoint_every_blocks <= 1 ||
        (i + 1) % static_cast<std::size_t>(config.checkpoint_every_blocks) ==
            0 ||
        i + 1 == targets.size();  // completion always checkpoints
    if (boundary_due) save(i + 1, /*has_inflight=*/false, 0, 0, nullptr);

    CampaignProgress heartbeat;
    heartbeat.blocks_done = i + 1;
    heartbeat.blocks_total = targets.size();
    heartbeat.rounds_done = ledger.processed_rounds();
    heartbeat.quarantined = ledger.stats_snapshot().quarantined_blocks;
    // Wall-derived rate: fine for the live progress consumer, but only
    // exported as a metric when the sinks are non-deterministic.
    const double elapsed_sec =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now()  // sleeplint: allow(no-wallclock)
            - wall_start)
            .count();
    if (elapsed_sec > 0.0) {
      heartbeat.rounds_per_sec =
          static_cast<double>(heartbeat.rounds_done) / elapsed_sec;
    }
    if (!config.checkpoint_path.empty() &&
        config.checkpoint_every_rounds > 0) {
      heartbeat.rounds_to_checkpoint =
          config.checkpoint_every_rounds -
          heartbeat.rounds_done % config.checkpoint_every_rounds;
    }
    if (metrics.blocks_done != nullptr) {
      metrics.blocks_done->Set(static_cast<double>(heartbeat.blocks_done));
    }
    if (!deterministic && metrics.rounds_per_sec != nullptr) {
      metrics.rounds_per_sec->Set(heartbeat.rounds_per_sec);
    }
    if (obs.Logs(obs::Level::kDebug)) {
      obs.log->Write(
          obs::Level::kDebug, "campaign.heartbeat",
          {{"blocks_done", static_cast<std::uint64_t>(heartbeat.blocks_done)},
           {"blocks_total",
            static_cast<std::uint64_t>(heartbeat.blocks_total)},
           {"rounds_done", heartbeat.rounds_done},
           {"quarantined", heartbeat.quarantined}});
    }
    if (config.progress) config.progress(heartbeat);
  }

  if (obs.Logs(obs::Level::kInfo)) {
    const auto counts = ledger.counts_snapshot();
    const auto stats = ledger.stats_snapshot();
    obs.log->Write(
        obs::Level::kInfo, "campaign.done",
        {{"blocks", static_cast<std::uint64_t>(ledger.blocks_done())},
         {"strict", counts.strict},
         {"relaxed", counts.relaxed},
         {"non_diurnal", counts.non_diurnal},
         {"skipped", counts.skipped},
         {"rounds_attempted", stats.rounds_attempted},
         {"rounds_failed", stats.rounds_failed},
         {"retries", stats.retries},
         {"quarantined", stats.quarantined_blocks},
         {"resumed", stats.resumed_from_checkpoint}});
  }
  return ledger.TakeOutcome();
}

}  // namespace sleepwalk::core
