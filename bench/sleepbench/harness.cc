#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <mutex>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "sleepwalk/core/parallel_executor.h"
#include "sleepwalk/util/rng.h"

namespace sleepbench {

std::string_view StageName(Stage stage) {
  static constexpr std::array<std::string_view, kStageCount> kNames = {
      "sim.generate",       "transport",
      "probe.round",        "analyze.finish",
      "dataset.write",      "store.seed",
      "sim.round",          "estimator.observe",
      "series.append",      "analyze.copy",
      "analyze.regularize", "analyze.trim",
      "analyze.stationarity", "analyze.fft",
      "dataset.map",        "checkpoint.encode",
      "checkpoint.write",   "checkpoint.map",
      "checkpoint.decode",  "store.digest",
  };
  return kNames[static_cast<std::size_t>(stage)];
}

// --- Trace -----------------------------------------------------------------

Trace::Trace(int workers) : workers_(std::max(1, workers)) {}

void Trace::Start() {
  start_ = Clock::now();
  Mark("start");
}

void Trace::Mark(const std::string& name) {
  marks_[name] = {Seconds(start_, Clock::now()), critical_};
}

double Trace::WallShareBetween(std::initializer_list<Stage> stages,
                               const std::string& from,
                               const std::string& to) const {
  const auto a = marks_.find(from);
  const auto b = marks_.find(to);
  if (a == marks_.end() || b == marks_.end()) return 0.0;
  double sum = 0.0;
  for (const Stage s : stages) {
    const auto i = static_cast<std::size_t>(s);
    sum += b->second.critical[i] - a->second.critical[i];
  }
  const double wall = b->second.wall_s - a->second.wall_s;
  return wall > 0.0 ? sum / wall : 0.0;
}

void Trace::Stop() { wall_s_ = Seconds(start_, Clock::now()); }

void Trace::Fold(const Ledger& ledger, int width) {
  for (std::size_t s = 0; s < kStageCount; ++s) {
    totals_.seconds[s] += ledger.seconds[s];
    totals_.calls[s] += ledger.calls[s];
    critical_[s] += ledger.seconds[s] / width;
  }
}

void Trace::Serial(Stage stage, const std::function<void()>& fn) {
  const auto begin = Clock::now();
  fn();
  const double sec = Seconds(begin, Clock::now());
  Ledger ledger;
  ledger.Add(stage, sec);
  Fold(ledger, 1);
  idle_s_ += (workers_ - 1) * sec;
  serial_samples_[static_cast<std::size_t>(stage)].push_back(sec);
}

void Trace::Parallel(int threads,
                     const std::function<void(Worker&, int)>& body) {
  threads = std::clamp(threads, 1, workers_);
  std::vector<Worker> workers(static_cast<std::size_t>(threads));
  std::vector<Clock::time_point> entered(workers.size());
  std::vector<Clock::time_point> done(workers.size());
  std::mutex error_mutex;
  std::exception_ptr error;
  const auto run = [&](int i) {
    const auto index = static_cast<std::size_t>(i);
    workers[index].last_ = entered[index] = Clock::now();
    try {
      body(workers[index], i);
    } catch (...) {
      const std::lock_guard lock{error_mutex};
      if (!error) error = std::current_exception();
    }
    done[index] = Clock::now();
  };
  const auto begin = Clock::now();
  if (threads == 1) {
    run(0);
  } else {
    std::vector<std::jthread> pool;
    pool.reserve(workers.size());
    for (int i = 0; i < threads; ++i) pool.emplace_back(run, i);
  }  // jthreads join here
  const auto end = Clock::now();
  if (error) std::rethrow_exception(error);
  for (std::size_t i = 0; i < workers.size(); ++i) {
    idle_s_ += Seconds(begin, entered[i]);
    join_wait_s_ += Seconds(done[i], end);
    Fold(workers[i].ledger, threads);
  }
  idle_s_ += (workers_ - threads) * Seconds(begin, end);
}

double Trace::count(const std::string& name) const {
  const auto it = counts_.find(name);
  return it == counts_.end() ? 0.0 : it->second;
}

double Trace::busy_s() const noexcept {
  double sum = 0.0;
  for (const double s : totals_.seconds) sum += s;
  return sum;
}

double Trace::coverage() const noexcept {
  const double slots = workers_ * wall_s_;
  return slots > 0.0 ? (busy_s() + join_wait_s_ + idle_s_) / slots : 0.0;
}

double Trace::BusyShare(std::initializer_list<Stage> stages) const noexcept {
  double sum = 0.0;
  for (const Stage s : stages) sum += totals_[s];
  const double busy = busy_s();
  return busy > 0.0 ? sum / busy : 0.0;
}

double Trace::WallShare(std::initializer_list<Stage> stages) const noexcept {
  double sum = 0.0;
  for (const Stage s : stages) sum += critical_[static_cast<std::size_t>(s)];
  return wall_s_ > 0.0 ? sum / wall_s_ : 0.0;
}

double Trace::SerialP50(Stage stage) const {
  return Median(serial_samples_[static_cast<std::size_t>(stage)]);
}

// --- statistics --------------------------------------------------------------

Summary Summarize(std::vector<double> values) {
  Summary summary;
  summary.n = values.size();
  if (values.empty()) return summary;
  std::sort(values.begin(), values.end());
  summary.min = values.front();
  summary.max = values.back();
  summary.median = Median(values);
  const std::size_t ld = values.size();
  if (ld == 1) {
    summary.q1 = summary.q3 = values.front();
    return summary;
  }
  // statistics.quantiles(values, n=4), method 'exclusive'.
  const std::size_t m = ld + 1;
  double cuts[3] = {};
  for (std::size_t i = 1; i < 4; ++i) {
    const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, ld - 1);
    const double delta =
        static_cast<double>(i * m) - static_cast<double>(j * 4);
    cuts[i - 1] = (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  }
  summary.q1 = cuts[0];
  summary.q3 = cuts[2];
  return summary;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

// --- digests and provenance -------------------------------------------------

std::uint64_t HashBytes(std::span<const std::uint8_t> bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) {
    hash = (hash ^ b) * 0x100000001b3ULL;
  }
  return sleepwalk::MixHash(hash, bytes.size());
}

std::string Hex(std::uint64_t value) {
  char buffer[19] = "0x";
  const auto result = std::to_chars(buffer + 2, buffer + sizeof buffer - 1,
                                    value, 16);
  return {buffer, result.ptr};
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

int AffinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    return static_cast<int>(std::thread::hardware_concurrency());
  }
  return CPU_COUNT(&set);
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[4] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) == 0 ||
      regs[0] < 0x80000004u) {
    return "unknown";
  }
  char brand[49] = {};
  for (unsigned leaf = 0; leaf < 3; ++leaf) {
    __get_cpuid(0x80000002u + leaf, &regs[0], &regs[1], &regs[2], &regs[3]);
    std::memcpy(brand + leaf * 16, regs, 16);
  }
  std::string model{brand};
  const auto first = model.find_first_not_of(' ');
  const auto last = model.find_last_not_of(' ');
  return first == std::string::npos ? "unknown"
                                    : model.substr(first, last - first + 1);
#else
  return "unknown";
#endif
}

}  // namespace

Provenance DetectProvenance(std::string commit, std::string source) {
  Provenance p;
  p.nproc = std::max(1, AffinityCpus());
  p.hardware_workers = sleepwalk::core::HardwareWorkers();
  // Never more threads than CPUs this process may use.
  p.workers = std::min(p.hardware_workers, p.nproc);
  p.cpu_model = CpuModel();
  p.compiler = SLEEPBENCH_COMPILER;
  p.build_type = SLEEPBENCH_BUILD_TYPE;
  p.commit = commit.empty() ? "unknown" : std::move(commit);
  p.source = source.empty() ? "unknown" : std::move(source);
  return p;
}

// --- JSON ---------------------------------------------------------------------

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  return {buffer, result.ptr};
}

std::string JsonQuote(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char escaped[8];
          std::snprintf(escaped, sizeof escaped, "\\u%04x", c);
          out += escaped;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

void JsonObject::Key(std::string_view key) {
  if (!body_.empty()) body_ += ", ";
  body_ += JsonQuote(key);
  body_ += ": ";
}

JsonObject& JsonObject::Add(std::string_view key, double value) {
  Key(key);
  body_ += JsonNumber(value);
  return *this;
}

JsonObject& JsonObject::Add(std::string_view key, std::uint64_t value) {
  Key(key);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::Add(std::string_view key, int value) {
  Key(key);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::Add(std::string_view key, bool value) {
  Key(key);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::Add(std::string_view key, std::string_view value) {
  Key(key);
  body_ += JsonQuote(value);
  return *this;
}

JsonObject& JsonObject::AddRaw(std::string_view key, std::string_view json) {
  Key(key);
  body_ += json;
  return *this;
}

JsonObject& JsonObject::Append(const JsonObject& other) {
  if (!other.body_.empty()) body_ += (body_.empty() ? "" : ", ") + other.body_;
  return *this;
}

std::string JsonArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (const auto& item : items) {
    if (out.size() > 1) out += ", ";
    out += item;
  }
  return out + "]";
}

std::string JsonArray(const std::vector<double>& numbers) {
  std::vector<std::string> items;
  for (const double v : numbers) items.push_back(JsonNumber(v));
  return JsonArray(items);
}

}  // namespace sleepbench
