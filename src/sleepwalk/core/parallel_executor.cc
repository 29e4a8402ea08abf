#include "sleepwalk/core/parallel_executor.h"

#include <atomic>
#include <chrono>
#include <cstddef>
#include <deque>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>

#include "sleepwalk/core/campaign_ledger.h"
#include "sleepwalk/core/checkpoint.h"
#include "sleepwalk/core/status.h"
#include "sleepwalk/storage/instrumented_env.h"
#include "sleepwalk/util/parallel.h"
#include "sleepwalk/util/rng.h"
#include "sleepwalk/util/sync.h"

namespace sleepwalk::core {

namespace {

/// Monotonic nanoseconds for the storage decorator and the live
/// durability-tax readout; values never reach a deterministic sink.
std::uint64_t MonotonicNowNs() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now()  // sleeplint: allow(no-wallclock)
              .time_since_epoch())
          .count());
}

/// The shape of the caller's obs context, captured once so every block
/// can build a private buffered mirror: same log config, same sink
/// kinds, same trace determinism. A sink kind the parent lacks is not
/// buffered (the bytes would be dropped at merge anyway).
struct ObsShape {
  bool log = false;
  obs::LogConfig log_config;
  bool text = false;
  bool jsonl = false;
  bool metrics = false;
  bool tracer = false;
  bool trace_deterministic = true;
};

/// Everything one finished block ships back to the coordinator. The
/// commit lands in the ledger; the telemetry buffers are merged into the
/// parent sinks — both strictly in block-index order.
struct BlockResult {
  std::size_t index = 0;
  BlockCommit commit;
  std::int64_t final_vt = -1;  ///< block-local campaign clock at finish
  std::string log_text;
  std::string log_jsonl;
  std::vector<obs::SpanRecord> spans;
  std::unique_ptr<obs::Registry> registry;
};

report::ProbeAccounting Subtract(const report::ProbeAccounting& after,
                                 const report::ProbeAccounting& before) {
  report::ProbeAccounting delta;
  delta.attempts = after.attempts - before.attempts;
  delta.errors = after.errors - before.errors;
  delta.answered = after.answered - before.answered;
  delta.lost = after.lost - before.lost;
  delta.rate_limited = after.rate_limited - before.rate_limited;
  delta.unreachable = after.unreachable - before.unreachable;
  return delta;
}

/// Work-stealing block queue: worker w starts with the blocks strided
/// w, w+N, w+2N, ... (a near-even static split that keeps the
/// coordinator's reorder window small) and, once drained, steals single
/// blocks from the tail of the currently richest victim. Scheduling is
/// free to be nondeterministic — block results are schedule-independent
/// by construction, and the ordered commit stage erases any trace of
/// who ran what.
class WorkQueue {
 public:
  WorkQueue(std::size_t n_workers, std::size_t first_block,
            std::size_t n_blocks)
      : steals_(n_workers), idle_polls_(n_workers) {
    shards_.reserve(n_workers);
    for (std::size_t w = 0; w < n_workers; ++w) {
      shards_.push_back(std::make_unique<Shard>());
    }
    for (std::size_t i = first_block; i < n_blocks; ++i) {
      auto& shard = *shards_[(i - first_block) % n_workers];
      util::MutexLock lock{shard.mutex};
      shard.blocks.push_back(i);
    }
  }

  /// Next block for `worker`: own front, else a steal; nullopt when the
  /// whole queue is drained.
  std::optional<std::size_t> Pop(std::size_t worker) {
    {
      auto& own = *shards_[worker];
      util::MutexLock lock{own.mutex};
      if (!own.blocks.empty()) {
        const std::size_t block = own.blocks.front();
        own.blocks.pop_front();
        return block;
      }
    }
    while (true) {
      std::size_t best = shards_.size();
      std::size_t best_size = 0;
      for (std::size_t victim = 0; victim < shards_.size(); ++victim) {
        if (victim == worker) continue;
        auto& shard = *shards_[victim];
        util::MutexLock lock{shard.mutex};
        if (shard.blocks.size() > best_size) {
          best = victim;
          best_size = shard.blocks.size();
        }
      }
      if (best == shards_.size()) return std::nullopt;
      auto& shard = *shards_[best];
      util::MutexLock lock{shard.mutex};
      if (shard.blocks.empty()) {
        idle_polls_[worker].fetch_add(1, std::memory_order_relaxed);
        continue;  // lost the race; rescan
      }
      const std::size_t block = shard.blocks.back();
      shard.blocks.pop_back();
      steals_[worker].fetch_add(1, std::memory_order_relaxed);
      return block;
    }
  }

  /// Live scheduling telemetry for /statusz. Steal/idle counts are
  /// schedule-dependent, so they must never reach a deterministic sink —
  /// the status provider's "live" section is their only consumer.
  std::uint64_t steals(std::size_t worker) const {
    return steals_[worker].load(std::memory_order_relaxed);
  }
  std::uint64_t idle_polls(std::size_t worker) const {
    return idle_polls_[worker].load(std::memory_order_relaxed);
  }

 private:
  struct Shard {
    util::Mutex mutex;
    std::deque<std::size_t> blocks SLEEPWALK_GUARDED_BY(mutex);
  };
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::atomic<std::uint64_t>> steals_;
  std::vector<std::atomic<std::uint64_t>> idle_polls_;
};

/// Finished blocks waiting for their turn in the ordered commit stage.
class CompletionQueue {
 public:
  void Push(BlockResult result) SLEEPWALK_EXCLUDES(mutex_) {
    {
      util::MutexLock lock{mutex_};
      pending_.emplace(result.index, std::move(result));
    }
    cv_.NotifyAll();
  }

  /// Blocks until the result for `index` arrives, then hands it out.
  BlockResult WaitFor(std::size_t index) SLEEPWALK_EXCLUDES(mutex_) {
    util::MutexLock lock{mutex_};
    auto it = pending_.find(index);
    while (it == pending_.end()) {
      cv_.Wait(mutex_);
      it = pending_.find(index);
    }
    BlockResult result = std::move(it->second);
    pending_.erase(it);
    return result;
  }

 private:
  util::Mutex mutex_;
  util::CondVar cv_;
  std::map<std::size_t, BlockResult> pending_ SLEEPWALK_GUARDED_BY(mutex_);
};

/// Measures one block end to end on a worker thread: same round loop as
/// RunResilientCampaign (gaps, forced restarts, retry with rollback,
/// quarantine), but every side effect lands in block-private state — a
/// stats delta instead of the shared ledger, buffered sinks instead of
/// the parent's. The worker never touches the campaign's obs context.
BlockResult RunBlock(std::size_t index, BlockTarget& target,
                     ShardChain& chain, const SupervisorConfig& config,
                     std::int64_t n_rounds, const ObsShape& shape,
                     AnalysisScratch& scratch) {
  BlockResult out;
  out.index = index;

  std::ostringstream text_buf;
  std::ostringstream jsonl_buf;
  std::optional<obs::Logger> logger;
  if (shape.log) {
    logger.emplace(shape.log_config);
    if (shape.text) logger->AddTextSink(&text_buf);
    if (shape.jsonl) logger->AddJsonlSink(&jsonl_buf);
  }
  if (shape.metrics) out.registry = std::make_unique<obs::Registry>();
  std::optional<obs::Tracer> tracer;
  if (shape.tracer) {
    tracer.emplace(obs::TraceConfig{shape.trace_deterministic});
  }
  obs::Context block_obs;
  block_obs.log = logger ? &*logger : nullptr;
  block_obs.metrics = out.registry.get();
  block_obs.tracer = tracer ? &*tracer : nullptr;

  chain.AttachObs(block_obs);
  const auto accounting_before = chain.accounting();
  SupervisorMetrics metrics{block_obs};
  net::Transport& transport = chain.transport();

  const std::uint32_t block_index = target.block.Index();
  BlockAnalyzer analyzer{target.block, std::move(target.ever_active),
                         target.initial_availability,
                         StreamSeed(config.seed, block_index),
                         config.analyzer};
  analyzer.AttachObs(block_obs);

  report::ResilienceStats delta;
  bool quarantined = false;
  int consecutive_failures = 0;
  std::int64_t rounds_processed = 0;
  {
    const auto block_span = block_obs.Span("block");
    for (std::int64_t round = 0; round < n_rounds; ++round) {
      if (InGap(config, round)) {
        ++delta.rounds_gapped;
        if (metrics.rounds_gapped != nullptr) metrics.rounds_gapped->Inc();
      } else {
        if (IsForcedRestart(config, round)) {
          analyzer.ForceRestart();
          ++delta.forced_restarts;
          if (metrics.forced_restarts != nullptr) {
            metrics.forced_restarts->Inc();
          }
          if (block_obs.Logs(obs::Level::kDebug)) {
            block_obs.log->Write(obs::Level::kDebug, "prober.restart",
                                 {{"block", target.block.ToString()},
                                  {"round", round},
                                  {"reason", "forced"}});
          }
        }
        ++delta.rounds_attempted;
        if (metrics.rounds != nullptr) metrics.rounds->Inc();

        bool succeeded = false;
        for (int attempt = 0;
             attempt < std::max(config.retry.max_attempts, 1); ++attempt) {
          const auto snapshot = analyzer.prober_state();
          try {
            analyzer.RunRound(transport, round);
            succeeded = true;
            break;
          } catch (const net::TransportError&) {
            analyzer.restore_prober_state(snapshot);
            if (attempt + 1 >= std::max(config.retry.max_attempts, 1)) break;
            const double delay = BackoffDelay(config.retry, config.seed,
                                              block_index, round, attempt);
            ++delta.retries;
            delta.backoff_seconds += delay;
            if (metrics.retries != nullptr) metrics.retries->Inc();
            if (metrics.backoff_seconds != nullptr) {
              metrics.backoff_seconds->Inc(delay);
            }
            if (metrics.backoff_delay != nullptr) {
              metrics.backoff_delay->Observe(delay);
            }
            if (block_obs.Logs(obs::Level::kDebug)) {
              block_obs.log->Write(obs::Level::kDebug, "round.retry",
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
          ++delta.rounds_failed;
          ++consecutive_failures;
          if (metrics.rounds_failed != nullptr) metrics.rounds_failed->Inc();
          if (block_obs.Logs(obs::Level::kWarn)) {
            block_obs.log->Write(obs::Level::kWarn, "round.failed",
                                 {{"block", target.block.ToString()},
                                  {"round", round},
                                  {"consecutive_failures",
                                   consecutive_failures}});
          }
          if (config.quarantine_after_failures > 0 &&
              consecutive_failures >= config.quarantine_after_failures) {
            quarantined = true;
            ++delta.quarantined_blocks;
            if (metrics.quarantined != nullptr) metrics.quarantined->Inc();
            if (block_obs.Logs(obs::Level::kWarn)) {
              block_obs.log->Write(obs::Level::kWarn, "block.quarantined",
                                   {{"block", target.block.ToString()},
                                    {"round", round},
                                    {"consecutive_failures",
                                     consecutive_failures}});
            }
          }
        }
      }

      ++rounds_processed;
      if (quarantined) break;
    }
    // Worker-owned scratch: transform tables come from the shared
    // immutable PlanCache, every mutable buffer is this worker's, so the
    // analysis bytes are independent of worker count.
    analyzer.Finish(scratch, out.commit.analysis);
  }

  // Only the estimator's six numbers: ExportState() would also copy the
  // block's whole raw series and outage lists.
  out.commit.estimator = analyzer.estimator().ExportState();
  out.commit.block = target.block;
  out.commit.quarantined = quarantined;
  out.commit.delta = delta;
  out.commit.delta.probes = Subtract(chain.accounting(), accounting_before);
  out.commit.rounds_processed = rounds_processed;
  out.final_vt = logger ? logger->virtual_time()
                        : (tracer ? tracer->virtual_time() : -1);
  out.log_text = std::move(text_buf).str();
  out.log_jsonl = std::move(jsonl_buf).str();
  if (tracer) out.spans = tracer->spans();
  return out;
}

}  // namespace

CampaignOutcome RunParallelCampaign(std::vector<BlockTarget> targets,
                                    const ShardFactory& factory,
                                    std::int64_t n_rounds,
                                    const SupervisorConfig& config,
                                    const ParallelConfig& parallel) {
  CampaignLedger ledger{targets.size(), config.analyzer.availability};

  const std::uint64_t fingerprint =
      CampaignFingerprint(targets, n_rounds, config.seed, config.analyzer);

  const obs::Context& obs = config.obs;
  SupervisorMetrics metrics{obs};
  const bool deterministic =
      obs.log == nullptr || obs.log->config().deterministic;
  // Wall-derived values (rounds/sec) never reach deterministic sinks or
  // campaign state, exactly as in the sequential supervisor.
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

  storage::Env& base_env =
      config.env != nullptr ? *config.env : storage::RealEnvInstance();
  // Instrumentation wraps *outside* any FaultyEnv the caller injected, so
  // failpoint ordinals (and thus crash-sweep censuses) are unchanged. The
  // wall clock is only injected for non-deterministic runs; without it no
  // latency histogram exists and exposition stays byte-stable.
  storage::InstrumentedEnv env{base_env, obs,
                               deterministic
                                   ? storage::InstrumentedEnv::NowNsFn{}
                                   : MonotonicNowNs};
  CheckpointStore store{env, config.checkpoint_path, config.checkpoint_keep};
  // Wall nanoseconds spent inside checkpoint saves — the numerator of the
  // live durability-tax readout in /statusz.
  std::atomic<std::uint64_t> checkpoint_wall_ns{0};

  std::size_t first_block = 0;
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
    // Parallel checkpoints are always exact block prefixes; anything
    // with in-flight analyzer state or a captured transport stream came
    // from a mid-block sequential snapshot and is refused (resuming it
    // block-granularly would double-count the partial rounds).
    if (checkpoint &&
        checkpoint->completed.size() == checkpoint->next_block &&
        checkpoint->next_block <= targets.size() &&
        !checkpoint->has_inflight && checkpoint->transport_state.empty()) {
      first_block = checkpoint->next_block;
      ledger.AdoptCheckpoint(*checkpoint);
      if (metrics.resumes != nullptr) metrics.resumes->Inc();
      if (obs.Logs(obs::Level::kInfo)) {
        obs.log->Write(
            obs::Level::kInfo, "checkpoint.resume",
            {{"path", config.checkpoint_path},
             {"fingerprint", fingerprint},
             {"next_block", static_cast<std::uint64_t>(first_block)},
             {"inflight", false},
             {"inflight_round", std::int64_t{0}}});
      }
    }
  }

  const auto emit_done = [&] {
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
  };

  if (first_block >= targets.size()) {
    emit_done();
    return ledger.TakeOutcome();
  }

  const std::size_t remaining = targets.size() - first_block;
  const int requested =
      parallel.workers > 0 ? parallel.workers : HardwareWorkers();
  const std::size_t n_workers =
      std::min(static_cast<std::size_t>(std::max(requested, 1)), remaining);

  ObsShape shape;
  shape.log = obs.log != nullptr;
  if (shape.log) {
    shape.log_config = obs.log->config();
    shape.text = obs.log->has_text_sink();
    shape.jsonl = obs.log->has_jsonl_sink();
  }
  shape.metrics = obs.metrics != nullptr;
  shape.tracer = obs.tracer != nullptr;
  if (shape.tracer) {
    shape.trace_deterministic = obs.tracer->config().deterministic;
  }

  WorkQueue queue{n_workers, first_block, targets.size()};
  CompletionQueue completions;
  std::atomic<bool> stop{false};

  std::vector<std::unique_ptr<ShardChain>> chains;
  chains.reserve(n_workers);
  for (std::size_t w = 0; w < n_workers; ++w) chains.push_back(factory(w));

  // Per-worker live runtime counters for /statusz; relaxed atomics,
  // never folded into campaign results or deterministic telemetry.
  std::vector<std::atomic<std::uint64_t>> blocks_run(n_workers);

  // Declared after the worker state it reads (queue, blocks_run, ledger)
  // so it detaches before that state is torn down. The provider is a
  // pure reader: it takes only the hub's and the ledger's locks (lock
  // order hub -> ledger) and never writes campaign state.
  StatusHub::Registration status_registration;
  if (config.status != nullptr) {
    const std::size_t blocks_total = targets.size();
    const obs::Registry* registry = obs.metrics;
    status_registration = config.status->Attach(
        [&ledger, &queue, &blocks_run, &checkpoint_wall_ns, wall_start,
         blocks_total, registry, n_workers] {
          CampaignStatus status;
          ledger.FillStatus(status);
          status.blocks_total = blocks_total;
          const auto elapsed_ns =
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::
                      now()  // sleeplint: allow(no-wallclock)
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
          status.shards.reserve(n_workers);
          for (std::size_t w = 0; w < n_workers; ++w) {
            ShardRuntime shard;
            shard.worker = w;
            shard.blocks_run = blocks_run[w].load(std::memory_order_relaxed);
            shard.steals = queue.steals(w);
            shard.idle_polls = queue.idle_polls(w);
            status.shards.push_back(shard);
          }
          if (registry != nullptr) {
            status.quantiles = CollectHistogramStatus(*registry);
          }
          return status;
        });
  }

  // Worker 0 is this thread, running the ordered commit loop; workers
  // 1..n_workers run blocks off the queue. Every exit from the commit
  // loop (its end, stop_after_rounds, or a crash failpoint —
  // util::CrashInjected — unwinding out of a checkpoint save) raises
  // `stop` first, so block workers quit at their next pop instead of
  // draining the queue; ParallelFor joins them before it returns or
  // rethrows.
  bool stopped = false;
  const auto commit_blocks = [&] {
    struct StopWorkers {
      std::atomic<bool>& stop;
      ~StopWorkers() { stop.store(true, std::memory_order_relaxed); }
    } stop_workers{stop};
    for (std::size_t i = first_block; i < targets.size(); ++i) {
      BlockResult result = completions.WaitFor(i);
      const std::int64_t processed_rounds =
          ledger.CommitBlock(std::move(result.commit));

      // Merge this block's buffered telemetry — registry first (values),
      // then log bytes, then spans — and advance the campaign clock to the
      // block's final virtual time so the coordinator's own records (the
      // checkpoint write, the heartbeat) are stamped where the sequential
      // loop would stamp them.
      if (obs.metrics != nullptr && result.registry != nullptr) {
        obs.metrics->MergeFrom(*result.registry);
      }
      if (obs.log != nullptr) {
        obs.log->AppendRaw(result.log_text, result.log_jsonl);
      }
      if (obs.tracer != nullptr) obs.tracer->Graft(result.spans);
      if (result.final_vt >= 0) obs.SetVirtualTime(result.final_vt);
      // The gauge merge is last-wins, so restore the campaign-level gauges
      // the block-local registries know nothing about.
      if (metrics.blocks_done != nullptr) {
        metrics.blocks_done->Set(static_cast<double>(ledger.blocks_done()));
      }
      if (metrics.blocks_total != nullptr) {
        metrics.blocks_total->Set(static_cast<double>(targets.size()));
      }

      const bool boundary_due =
          config.checkpoint_every_blocks <= 1 ||
          (i + 1) % static_cast<std::size_t>(config.checkpoint_every_blocks) ==
              0 ||
          i + 1 == targets.size();  // completion always checkpoints
      if (!config.checkpoint_path.empty() && boundary_due) {
        Checkpoint checkpoint = ledger.BuildCheckpointSnapshot(
            fingerprint, i + 1, /*has_inflight=*/false, 0, 0, nullptr);
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
                          {"next_block", static_cast<std::uint64_t>(i + 1)},
                          {"inflight", false},
                          {"ok", ok},
                          {"error", ok ? std::string{} : error.ToString()}});
        }
      }

      if (config.stop_after_rounds > 0 &&
          processed_rounds >= config.stop_after_rounds) {
        ledger.NoteStoppedEarly();
        if (obs.Logs(obs::Level::kInfo)) {
          obs.log->Write(obs::Level::kInfo, "campaign.stopped",
                         {{"blocks_done", static_cast<std::uint64_t>(i + 1)},
                          {"rounds_done", processed_rounds},
                          {"reason", "stop_after_rounds"}});
        }
        stopped = true;
        break;
      }

      CampaignProgress heartbeat;
      heartbeat.blocks_done = i + 1;
      heartbeat.blocks_total = targets.size();
      heartbeat.rounds_done = processed_rounds;
      heartbeat.quarantined = ledger.stats_snapshot().quarantined_blocks;
      const double elapsed_sec =
          std::chrono::duration<double>(
              // sleeplint: allow(no-wallclock)
              std::chrono::steady_clock::now() - wall_start)
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
  };
  const auto run_blocks = [&](std::size_t w) {
    auto& chain = *chains[w];
    AnalysisScratch scratch;  // reused for every block this worker runs
    while (!stop.load(std::memory_order_relaxed)) {
      const auto index = queue.Pop(w);
      if (!index) break;
      completions.Push(RunBlock(*index, targets[*index], chain, config,
                                n_rounds, shape, scratch));
      blocks_run[w].fetch_add(1, std::memory_order_relaxed);
    }
  };
  util::ParallelFor(n_workers + 1, [&](std::size_t w) {
    if (w == 0) {
      commit_blocks();
    } else {
      run_blocks(w - 1);
    }
  });

  if (!stopped) emit_done();
  return ledger.TakeOutcome();
}

}  // namespace sleepwalk::core
