// sleepbench harness: clocks, the outside-in stage trace, statistics,
// provenance and JSON output shared by the four workloads.
//
// The trace times layers from OUTSIDE the library: a workload's traced
// run re-composes the untraced run from the same public calls and puts a
// steady_clock lap between consecutive calls. Time is booked per worker
// thread at block/round/range granularity, never per sample, and every
// worker-second of the traced wall lands in exactly one bucket: a named
// stage, a wait for a phase to start or to join, or an idle slot while
// the main thread runs a serial stage. Whatever is left over is time no
// bucket saw, which is what trace.coverage exposes.
#ifndef SLEEPBENCH_HARNESS_H_
#define SLEEPBENCH_HARNESS_H_

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace sleepbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Stage names follow the stage ledger ROADMAP item 1 plans for obs/, so
/// that ledger can later be checked against this outside view.
enum class Stage : int {
  kSimGenerate,
  kTransport,
  kProbeRound,
  kAnalyzeFinish,
  kDatasetWrite,
  kStoreSeed,
  kSimRound,
  kEstimatorObserve,
  kSeriesAppend,
  kAnalyzeCopy,
  kAnalyzeRegularize,
  kAnalyzeTrim,
  kAnalyzeStationarity,
  kAnalyzeFft,
  kDatasetMap,
  kCheckpointEncode,
  kCheckpointWrite,
  kCheckpointMap,
  kCheckpointDecode,
  kStoreDigest,
};
inline constexpr std::size_t kStageCount =
    static_cast<std::size_t>(Stage::kStoreDigest) + 1;

/// "sim.generate", "analyze.fft", ...
std::string_view StageName(Stage stage);

/// Per-stage self seconds and call counts of one thread.
struct Ledger {
  std::array<double, kStageCount> seconds{};
  std::array<std::uint64_t, kStageCount> calls{};

  void Add(Stage stage, double sec, std::uint64_t n = 1) noexcept {
    seconds[static_cast<std::size_t>(stage)] += sec;
    calls[static_cast<std::size_t>(stage)] += n;
  }
  double operator[](Stage stage) const noexcept {
    return seconds[static_cast<std::size_t>(stage)];
  }
};

/// One thread inside a traced phase. Mark() books the time since the
/// previous mark to a stage, so consecutive calls share one clock read.
class Worker {
 public:
  Worker() : last_(Clock::now()) {}

  void Mark(Stage stage) noexcept {
    const auto now = Clock::now();
    ledger.Add(stage, Seconds(last_, now));
    last_ = now;
  }
  /// Moves `sec` seconds from one stage to another: a decorator timed
  /// part of an enclosing call.
  void Rebook(Stage from, Stage to, double sec) noexcept {
    ledger.seconds[static_cast<std::size_t>(from)] -= sec;
    ledger.seconds[static_cast<std::size_t>(to)] += sec;
  }

  Ledger ledger;

 private:
  friend class Trace;
  Clock::time_point last_;
};

/// The traced run's accounting over `workers` worker slots.
class Trace {
 public:
  explicit Trace(int workers);

  int workers() const noexcept { return workers_; }

  void Start();
  void Stop();

  /// Runs `fn` on the calling thread as one serial stage; the other
  /// workers - 1 slots are idle meanwhile.
  void Serial(Stage stage, const std::function<void()>& fn);

  /// Runs body(worker, index) on `threads` threads (clamped to
  /// 1..workers; one runs on the calling thread, as the library's
  /// parallel loops do) and joins them. Books each thread's wait to start
  /// and wait at the join, and the unused slots as idle. An exception
  /// thrown by a body is rethrown here after every thread has joined.
  void Parallel(int threads,
                const std::function<void(Worker&, int)>& body);

  /// A count a workload reports (bytes written, probes sent, ...).
  void Count(const std::string& name, double value) { counts_[name] += value; }
  double count(const std::string& name) const;

  double wall_s() const noexcept { return wall_s_; }
  const Ledger& totals() const noexcept { return totals_; }
  double busy_s() const noexcept;
  double join_wait_s() const noexcept { return join_wait_s_; }
  double idle_s() const noexcept { return idle_s_; }
  /// (busy + join waits + idle) / (workers x wall).
  double coverage() const noexcept;
  /// Share of busy worker-seconds.
  double BusyShare(std::initializer_list<Stage> stages) const noexcept;
  /// Share of the traced wall: a stage run on n threads at once counts
  /// 1/n of its self time, so serial stages weigh in full.
  double WallShare(std::initializer_list<Stage> stages) const noexcept;
  /// Names the point between two phases ("start" is named by Start()).
  void Mark(const std::string& name);
  /// WallShare() over the part of the run between two marks.
  double WallShareBetween(std::initializer_list<Stage> stages,
                          const std::string& from,
                          const std::string& to) const;
  /// Median duration of one Serial() call of `stage`, in seconds.
  double SerialP50(Stage stage) const;

 private:
  struct Split {
    double wall_s = 0.0;
    std::array<double, kStageCount> critical{};
  };

  void Fold(const Ledger& ledger, int width);

  int workers_;
  std::map<std::string, Split> marks_;
  Clock::time_point start_;
  double wall_s_ = 0.0;
  Ledger totals_;
  std::array<double, kStageCount> critical_{};
  std::array<std::vector<double>, kStageCount> serial_samples_;
  double join_wait_s_ = 0.0;
  double idle_s_ = 0.0;
  std::map<std::string, double> counts_;
};

/// Median, quartiles (Python's statistics.quantiles, 'exclusive'), range.
struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::size_t n = 0;
};
Summary Summarize(std::vector<double> values);
double Median(std::vector<double> values);

/// 64-bit digest of a byte string (FNV-1a, finished with MixHash).
std::uint64_t HashBytes(std::span<const std::uint8_t> bytes);
std::string Hex(std::uint64_t value);

/// Peak resident set of this process (VmHWM), MiB.
double PeakRssMb();

/// Where and how the numbers were taken.
struct Provenance {
  int nproc = 0;             ///< CPUs this process may run on
  int hardware_workers = 0;  ///< core::HardwareWorkers()
  int workers = 0;           ///< threads a workload uses
  std::string cpu_model;
  std::string compiler;
  std::string build_type;
  std::string commit;
  std::string source;  ///< digest of the benchmarked sources
};
Provenance DetectProvenance(std::string commit, std::string source);

/// Minimal JSON object writer (insertion-ordered).
class JsonObject {
 public:
  JsonObject& Add(std::string_view key, double value);
  JsonObject& Add(std::string_view key, std::uint64_t value);
  JsonObject& Add(std::string_view key, int value);
  JsonObject& Add(std::string_view key, bool value);
  JsonObject& Add(std::string_view key, std::string_view value);
  JsonObject& Add(std::string_view key, const char* value) {
    return Add(key, std::string_view{value});
  }
  /// `json` must already be valid JSON text.
  JsonObject& AddRaw(std::string_view key, std::string_view json);
  /// Appends every member of `other`.
  JsonObject& Append(const JsonObject& other);
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void Key(std::string_view key);
  std::string body_;
};
std::string JsonNumber(double value);
std::string JsonQuote(std::string_view text);
/// "[a, b, ...]" of already-encoded JSON values.
std::string JsonArray(const std::vector<std::string>& items);
std::string JsonArray(const std::vector<double>& numbers);

}  // namespace sleepbench

#endif  // SLEEPBENCH_HARNESS_H_
