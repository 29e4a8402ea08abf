#include "sleepwalk/obs/metrics.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "sleepwalk/obs/export.h"

namespace sleepwalk::obs {

namespace {

/// Shortest round-trip formatting (same rationale as the logger: byte
/// determinism). Prometheus spells infinity "+Inf".
std::string FormatNumber(double value) {
  if (std::isnan(value)) return "NaN";
  if (std::isinf(value)) return value > 0 ? "+Inf" : "-Inf";
  char buffer[32];
  const auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, static_cast<std::size_t>(ptr - buffer));
}

std::string FormatCount(std::uint64_t value) {
  char buffer[24];
  const auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, static_cast<std::size_t>(ptr - buffer));
}

constexpr std::string_view kPrefix = "sleepwalk_";

#ifndef NDEBUG
// Only the debug-build collision report names a kind.
std::string_view KindName(std::uint8_t kind) {
  switch (kind) {
    case 0: return "counter";
    case 1: return "gauge";
    default: return "histogram";
  }
}
#endif

std::vector<double> SortedUnique(std::vector<double> bounds) {
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  return bounds;
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(SortedUnique(std::move(bounds))) {
  util::MutexLock lock{mutex_};
  per_bucket_.assign(bounds_.size() + 1, 0);
}

void Histogram::Observe(double value) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const auto bucket = static_cast<std::size_t>(it - bounds_.begin());
  util::MutexLock lock{mutex_};
  ++per_bucket_[bucket];
  ++count_;
  sum_ += value;
}

std::uint64_t Histogram::count() const noexcept {
  util::MutexLock lock{mutex_};
  return count_;
}

double Histogram::sum() const noexcept {
  util::MutexLock lock{mutex_};
  return sum_;
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  util::MutexLock lock{mutex_};
  return per_bucket_;
}

bool Histogram::MergeFrom(const Histogram& other) {
  if (other.bounds_ != bounds_) return false;
  // Snapshot the source first so the two locks are never held together
  // (no lock-order obligation between arbitrary histogram pairs).
  const auto buckets = other.bucket_counts();
  const auto count = other.count();
  const auto sum = other.sum();
  util::MutexLock lock{mutex_};
  for (std::size_t i = 0; i < per_bucket_.size() && i < buckets.size(); ++i) {
    per_bucket_[i] += buckets[i];
  }
  count_ += count;
  sum_ += sum;
  return true;
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snapshot;
  snapshot.bounds = bounds_;
  util::MutexLock lock{mutex_};
  snapshot.buckets = per_bucket_;
  snapshot.count = count_;
  snapshot.sum = sum_;
  return snapshot;
}

std::uint64_t Histogram::CumulativeCount(std::size_t i) const noexcept {
  util::MutexLock lock{mutex_};
  std::uint64_t total = 0;
  for (std::size_t b = 0; b <= i && b < per_bucket_.size(); ++b) {
    total += per_bucket_[b];
  }
  return total;
}

void Registry::NoteKindCollision(
    [[maybe_unused]] std::string_view name,
    [[maybe_unused]] std::string_view requested,
    [[maybe_unused]] Instrument::Kind existing) const noexcept {
  kind_collisions_.fetch_add(1, std::memory_order_relaxed);
#ifndef NDEBUG
  const auto existing_name = KindName(static_cast<std::uint8_t>(existing));
  std::fprintf(  // sleeplint: allow(no-raw-io) — debug-build CHECK output
      stderr,
      "sleepwalk/obs: instrument kind collision: \"%.*s\" requested as %.*s "
      "but already registered as %.*s; the null return drops every update\n",
      static_cast<int>(name.size()), name.data(),
      static_cast<int>(requested.size()), requested.data(),
      static_cast<int>(existing_name.size()), existing_name.data());
#endif
}

Counter* Registry::FindOrCreateCounter(std::string_view name,
                                       std::string_view help) {
  util::MutexLock lock{mutex_};
  auto it = instruments_.find(name);
  if (it == instruments_.end()) {
    Instrument instrument;
    instrument.kind = Instrument::Kind::kCounter;
    instrument.help = help;
    instrument.counter = std::make_unique<Counter>();
    it = instruments_.emplace(std::string(name), std::move(instrument)).first;
  }
  if (it->second.kind != Instrument::Kind::kCounter) {
    NoteKindCollision(name, "counter", it->second.kind);
    return nullptr;
  }
  return it->second.counter.get();
}

Gauge* Registry::FindOrCreateGauge(std::string_view name,
                                   std::string_view help) {
  util::MutexLock lock{mutex_};
  auto it = instruments_.find(name);
  if (it == instruments_.end()) {
    Instrument instrument;
    instrument.kind = Instrument::Kind::kGauge;
    instrument.help = help;
    instrument.gauge = std::make_unique<Gauge>();
    it = instruments_.emplace(std::string(name), std::move(instrument)).first;
  }
  if (it->second.kind != Instrument::Kind::kGauge) {
    NoteKindCollision(name, "gauge", it->second.kind);
    return nullptr;
  }
  return it->second.gauge.get();
}

Histogram* Registry::FindOrCreateHistogram(std::string_view name,
                                           std::vector<double> bounds,
                                           std::string_view help) {
  util::MutexLock lock{mutex_};
  auto it = instruments_.find(name);
  if (it == instruments_.end()) {
    Instrument instrument;
    instrument.kind = Instrument::Kind::kHistogram;
    instrument.help = help;
    instrument.histogram = std::make_unique<Histogram>(std::move(bounds));
    it = instruments_.emplace(std::string(name), std::move(instrument)).first;
  }
  if (it->second.kind != Instrument::Kind::kHistogram) {
    NoteKindCollision(name, "histogram", it->second.kind);
    return nullptr;
  }
  return it->second.histogram.get();
}

const Counter* Registry::counter(std::string_view name) const {
  util::MutexLock lock{mutex_};
  const auto it = instruments_.find(name);
  return it != instruments_.end() &&
                 it->second.kind == Instrument::Kind::kCounter
             ? it->second.counter.get()
             : nullptr;
}

const Gauge* Registry::gauge(std::string_view name) const {
  util::MutexLock lock{mutex_};
  const auto it = instruments_.find(name);
  return it != instruments_.end() && it->second.kind == Instrument::Kind::kGauge
             ? it->second.gauge.get()
             : nullptr;
}

std::size_t Registry::size() const noexcept {
  util::MutexLock lock{mutex_};
  return instruments_.size();
}

const Histogram* Registry::histogram(std::string_view name) const {
  util::MutexLock lock{mutex_};
  const auto it = instruments_.find(name);
  return it != instruments_.end() &&
                 it->second.kind == Instrument::Kind::kHistogram
             ? it->second.histogram.get()
             : nullptr;
}

void Registry::MergeFrom(const Registry& other) {
  // Snapshot `other` under its own lock, then apply with only this
  // registry's lock held — same no-two-locks discipline as
  // Histogram::MergeFrom. Instrument pointers stay valid without the
  // lock: map nodes never move and `other` outlives the call.
  struct Item {
    std::string name;
    Instrument::Kind kind;
    std::string help;
    double value = 0.0;               // counter / gauge
    const Histogram* histogram = nullptr;
  };
  std::vector<Item> items;
  {
    util::MutexLock lock{other.mutex_};
    items.reserve(other.instruments_.size());
    for (const auto& [name, instrument] : other.instruments_) {
      Item item;
      item.name = name;
      item.kind = instrument.kind;
      item.help = instrument.help;
      switch (instrument.kind) {
        case Instrument::Kind::kCounter:
          item.value = instrument.counter->value();
          break;
        case Instrument::Kind::kGauge:
          item.value = instrument.gauge->value();
          break;
        case Instrument::Kind::kHistogram:
          item.histogram = instrument.histogram.get();
          break;
      }
      items.push_back(std::move(item));
    }
  }
  for (const auto& item : items) {
    switch (item.kind) {
      case Instrument::Kind::kCounter:
        if (auto* counter = FindOrCreateCounter(item.name, item.help)) {
          if (item.value != 0.0) counter->Inc(item.value);
        }
        break;
      case Instrument::Kind::kGauge:
        if (auto* gauge = FindOrCreateGauge(item.name, item.help)) {
          gauge->Set(item.value);
        }
        break;
      case Instrument::Kind::kHistogram:
        if (auto* histogram = FindOrCreateHistogram(
                item.name, item.histogram->bounds(), item.help)) {
          histogram->MergeFrom(*item.histogram);
        }
        break;
    }
  }
}

std::vector<std::pair<std::string, HistogramSnapshot>>
Registry::HistogramSnapshots() const {
  std::vector<std::pair<std::string, HistogramSnapshot>> out;
  util::MutexLock lock{mutex_};
  for (const auto& [name, instrument] : instruments_) {
    if (instrument.kind != Instrument::Kind::kHistogram) continue;
    out.emplace_back(name, instrument.histogram->Snapshot());
  }
  return out;
}

void Registry::WritePrometheus(std::ostream& out) const {
  util::MutexLock lock{mutex_};
  for (const auto& [name, instrument] : instruments_) {
    const std::string full = std::string(kPrefix) + name;
    if (!instrument.help.empty()) {
      out << "# HELP " << full << ' ' << instrument.help << '\n';
    }
    switch (instrument.kind) {
      case Instrument::Kind::kCounter:
        out << "# TYPE " << full << " counter\n"
            << full << ' ' << FormatNumber(instrument.counter->value())
            << '\n';
        break;
      case Instrument::Kind::kGauge:
        out << "# TYPE " << full << " gauge\n"
            << full << ' ' << FormatNumber(instrument.gauge->value()) << '\n';
        break;
      case Instrument::Kind::kHistogram: {
        // One locked snapshot per histogram, cumulative counts as a
        // running sum over it — per-bucket CumulativeCount() calls would
        // re-lock and re-scan, O(buckets^2) per exposition pass.
        const auto snapshot = instrument.histogram->Snapshot();
        out << "# TYPE " << full << " histogram\n";
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < snapshot.bounds.size(); ++i) {
          cumulative += snapshot.buckets[i];
          out << full << "_bucket{le=\"" << FormatNumber(snapshot.bounds[i])
              << "\"} " << FormatCount(cumulative) << '\n';
        }
        out << full << "_bucket{le=\"+Inf\"} "
            << FormatCount(snapshot.count) << '\n'
            << full << "_sum " << FormatNumber(snapshot.sum) << '\n'
            << full << "_count " << FormatCount(snapshot.count) << '\n';
        break;
      }
    }
  }
}

void Registry::WriteCsv(std::ostream& out) const {
  util::MutexLock lock{mutex_};
  out << "name,kind,field,value\n";
  for (const auto& [name, instrument] : instruments_) {
    switch (instrument.kind) {
      case Instrument::Kind::kCounter:
        out << name << ",counter,value,"
            << FormatNumber(instrument.counter->value()) << '\n';
        break;
      case Instrument::Kind::kGauge:
        out << name << ",gauge,value,"
            << FormatNumber(instrument.gauge->value()) << '\n';
        break;
      case Instrument::Kind::kHistogram: {
        // Same single-snapshot discipline as WritePrometheus.
        const auto snapshot = instrument.histogram->Snapshot();
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < snapshot.bounds.size(); ++i) {
          cumulative += snapshot.buckets[i];
          out << name << ",histogram,le=" << FormatNumber(snapshot.bounds[i])
              << ',' << FormatCount(cumulative) << '\n';
        }
        out << name << ",histogram,le=+Inf,"
            << FormatCount(snapshot.count) << '\n'
            << name << ",histogram,sum," << FormatNumber(snapshot.sum)
            << '\n'
            << name << ",histogram,count," << FormatCount(snapshot.count)
            << '\n'
            << name << ",histogram,p50,"
            << FormatNumber(HistogramQuantile(snapshot, 0.50)) << '\n'
            << name << ",histogram,p95,"
            << FormatNumber(HistogramQuantile(snapshot, 0.95)) << '\n'
            << name << ",histogram,p99,"
            << FormatNumber(HistogramQuantile(snapshot, 0.99)) << '\n';
        break;
      }
    }
  }
}

}  // namespace sleepwalk::obs
