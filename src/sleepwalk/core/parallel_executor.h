// Work-stealing parallel campaign executor with a deterministic merge.
//
// The block universe is sharded across N worker threads. Each worker
// owns a private transport chain (built by the caller's ShardFactory —
// e.g. SimTransport + FaultyTransport), and each *block* gets private
// keyed RNG streams (util/rng.h StreamSeed), a private buffered
// logger/registry/tracer, and a private resilience-stats delta. Workers
// therefore share no mutable measurement state at all; the only
// cross-thread traffic is finished-block results flowing to the
// coordinator.
//
// Determinism argument (DESIGN.md §9): a block's measurement is a pure
// function of (campaign seed, block index, fault plan) — every random
// draw is keyed, never sequenced, so it cannot observe which worker ran
// it or what ran before it on that worker. The coordinator then commits
// results in strict block-index order: stats deltas fold in one fixed
// order (double sums are order-sensitive), buffered log bytes append in
// block order, spans graft in block order, and checkpoints always cover
// an exact block prefix. An N-worker run therefore produces
// byte-identical datasets, checkpoints, and telemetry to a 1-worker run
// with the same seed; tests/core/parallel_executor_test.cc and the
// bench harness (bench/parallel_scaling.cc) both pin this.
#ifndef SLEEPWALK_CORE_PARALLEL_EXECUTOR_H_
#define SLEEPWALK_CORE_PARALLEL_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sleepwalk/core/pipeline.h"
#include "sleepwalk/core/supervisor.h"
#include "sleepwalk/net/transport.h"
#include "sleepwalk/obs/context.h"
#include "sleepwalk/report/resilience.h"
#include "sleepwalk/util/parallel.h"

namespace sleepwalk::core {

/// Number of workers a default-configured executor uses: the hardware
/// concurrency, floored at 1 (util/parallel.h).
using util::HardwareWorkers;

/// One worker's private transport chain. The factory must build chains
/// that are *interchangeable*: identically seeded and identically
/// configured, so a block probes the same whichever worker runs it (the
/// chains exist per worker for thread-safety, not for stream identity).
/// AttachObs is called once per block to point the chain's instruments
/// at that block's buffered telemetry; accounting() is sampled before
/// and after each block to attribute probe counts.
class ShardChain {
 public:
  virtual ~ShardChain() = default;

  /// The transport the block analyzer probes through.
  virtual net::Transport& transport() = 0;

  /// Re-points chain instrumentation at a block-local obs context.
  virtual void AttachObs(const obs::Context& context) {
    static_cast<void>(context);
  }

  /// Cumulative probe accounting for this chain; the executor takes
  /// per-block differences.
  virtual report::ProbeAccounting accounting() const { return {}; }
};

/// Builds worker `worker`'s private chain. Called once per worker, from
/// the coordinator thread, before any block runs.
using ShardFactory =
    std::function<std::unique_ptr<ShardChain>(std::size_t worker)>;

/// Minimal adapter for callers that already hold a thread-safe (or
/// single-worker) transport and want no chain instrumentation.
class PlainShardChain final : public ShardChain {
 public:
  explicit PlainShardChain(net::Transport& transport)
      : transport_(&transport) {}
  net::Transport& transport() override { return *transport_; }

 private:
  net::Transport* transport_;
};

struct ParallelConfig {
  /// Worker threads; <= 0 means HardwareWorkers().
  int workers = 0;
};

/// Runs (or resumes) a hardened campaign over `targets`, sharded across
/// worker threads, with results committed in block order so the outcome
/// is byte-identical for any worker count. Semantics follow
/// RunResilientCampaign with three block-granular differences:
///   * checkpoints are written after every committed block (never
///     mid-block), always with has_inflight=false and an empty
///     transport_state — a checkpoint is an exact block prefix;
///   * resume accepts only such block-boundary checkpoints (a mid-block
///     sequential checkpoint is refused and the campaign starts fresh);
///   * stop_after_rounds takes effect at the first block commit at or
///     past the threshold rather than mid-block.
CampaignOutcome RunParallelCampaign(std::vector<BlockTarget> targets,
                                    const ShardFactory& factory,
                                    std::int64_t n_rounds,
                                    const SupervisorConfig& config = {},
                                    const ParallelConfig& parallel = {});

}  // namespace sleepwalk::core

#endif  // SLEEPWALK_CORE_PARALLEL_EXECUTOR_H_
