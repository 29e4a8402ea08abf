#include "sleepwalk/core/block_store.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <new>

#include "sleepwalk/net/checksum.h"
#include "sleepwalk/util/rng.h"

namespace sleepwalk::core {

namespace {

constexpr std::string_view kStoreMagic = "SLCK";

// Snapshot column ids. META rides first; the per-block columns mirror
// the store's arena layout one-to-one so decode is one memcpy each.
constexpr std::uint32_t kColMeta = 1;
constexpr std::uint32_t kColPrefix = 2;
constexpr std::uint32_t kColPShort = 3;
constexpr std::uint32_t kColTShort = 4;
constexpr std::uint32_t kColPLong = 5;
constexpr std::uint32_t kColTLong = 6;
constexpr std::uint32_t kColDeviation = 7;
constexpr std::uint32_t kColRounds = 8;
constexpr std::uint32_t kColProbes = 9;
constexpr std::uint32_t kColPositives = 10;
constexpr std::uint32_t kColDownRounds = 11;
constexpr std::uint32_t kColFlags = 12;
constexpr std::uint32_t kColClassification = 13;
constexpr std::uint32_t kColEverActive = 14;
constexpr std::uint32_t kColObservedDays = 15;
constexpr std::uint32_t kColMeanShort = 16;
constexpr std::uint32_t kColFinalOperational = 17;
constexpr std::uint32_t kColMeanProbes = 18;
// Series ring columns (absent when series_capacity == 0).
constexpr std::uint32_t kColSeriesValue = 19;
// Id 20 held the n * capacity i32 round stamp of every ring slot. It
// is retired, never to be reused: a file that still carries it predates
// the per-block last-round cursor and is refused.
constexpr std::uint32_t kColSeriesRoundRetired = 20;
constexpr std::uint32_t kColSeriesLen = 21;
constexpr std::uint32_t kColSeriesHead = 22;
constexpr std::uint32_t kColSeriesLast = 23;

std::size_t AlignUp(std::size_t value) { return (value + 63) / 64 * 64; }

storage::Error SnapshotError(const std::string& path, std::string detail) {
  storage::Error error;
  error.op = "columnar";
  error.path = path;
  error.detail = std::move(detail);
  return error;
}

}  // namespace

void BlockStore::ArenaDelete::operator()(std::uint8_t* p) const noexcept {
  ::munmap(p, bytes);
}

void BlockStore::Reset(std::size_t n_blocks,
                       const AvailabilityConfig& config,
                       std::int32_t series_capacity) {
  Allocate(n_blocks, config, series_capacity);

  // Estimator columns start from the AvailabilityState defaults, not
  // all-zero: t EWMAs at 1.0, deviation at the configured prior.
  double* t_short = Column<double>(t_short_off_);
  double* t_long = Column<double>(t_long_off_);
  double* deviation = Column<double>(deviation_off_);
  for (std::size_t i = 0; i < n_; ++i) {
    t_short[i] = 1.0;
    t_long[i] = 1.0;
    deviation[i] = config_.initial_deviation;
  }
}

void BlockStore::Allocate(std::size_t n_blocks,
                          const AvailabilityConfig& config,
                          std::int32_t series_capacity) {
  n_ = n_blocks;
  config_ = config;
  series_capacity_ = series_capacity > 0 ? series_capacity : 0;

  std::size_t cursor = 0;
  const auto carve = [&cursor](std::size_t elem, std::size_t count) {
    const std::size_t offset = AlignUp(cursor);
    cursor = offset + elem * count;
    return offset;
  };
  const auto carve_block = [&carve, n_blocks](std::size_t elem) {
    return carve(elem, n_blocks);
  };
  const std::size_t ring_slots =
      n_blocks * static_cast<std::size_t>(series_capacity_);
  prefix_off_ = carve_block(sizeof(std::uint32_t));
  p_short_off_ = carve_block(sizeof(double));
  t_short_off_ = carve_block(sizeof(double));
  p_long_off_ = carve_block(sizeof(double));
  t_long_off_ = carve_block(sizeof(double));
  deviation_off_ = carve_block(sizeof(double));
  rounds_off_ = carve_block(sizeof(std::int32_t));
  probes_off_ = carve_block(sizeof(std::uint64_t));
  positives_off_ = carve_block(sizeof(std::uint64_t));
  down_rounds_off_ = carve_block(sizeof(std::int32_t));
  flags_off_ = carve_block(sizeof(std::uint8_t));
  classification_off_ = carve_block(sizeof(std::uint8_t));
  ever_active_off_ = carve_block(sizeof(std::int32_t));
  observed_days_off_ = carve_block(sizeof(std::int32_t));
  mean_short_off_ = carve_block(sizeof(double));
  final_operational_off_ = carve_block(sizeof(double));
  mean_probes_off_ = carve_block(sizeof(double));
  series_value_off_ = carve(sizeof(double), ring_slots);
  series_len_off_ = carve_block(sizeof(std::int32_t));
  series_head_off_ = carve_block(sizeof(std::int32_t));
  series_last_off_ = carve_block(sizeof(std::int32_t));

  // An anonymous mapping, not calloc or new + memset: its pages arrive
  // zeroed from the kernel on first touch, at every size. calloc hands
  // out recycled heap memory below glibc's dynamic mmap threshold (up
  // to 32 MiB) and must then memset all of it before the columns write
  // it again. The mapping is page-aligned, so every 64-byte column
  // offset is cache-line aligned too.
  static const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::size_t bytes =
      std::max<std::size_t>(1, (cursor + page - 1) / page) * page;
  arena_.reset();
  void* raw = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  arena_ = {static_cast<std::uint8_t*>(raw), ArenaDelete{bytes}};

  // The ring-value column's 2 MiB-aligned interior asks for transparent
  // huge pages. A snapshot decode writes the whole ring at once, and
  // first-touch faults of fresh 4 KiB pages were most of its copy: a
  // 26 MB ring takes ~13 faults instead of ~6,500. A campaign writes
  // every ring page too, in round 0 while a block's ring fits in a page
  // (capacity <= 512) and by the time the rings fill otherwise, so the
  // advice does not grow the resident set of a finished campaign. The
  // per-block columns stay on 4 KiB pages: a huge page's first fault
  // zeroes 2 MiB, store seeding writes only a few hundred KB of them,
  // and advising the whole arena measured slower seeding (sleepbench
  // store_campaign setup_s +7.4%). The advice is only a hint; where THP
  // is off or absent the call fails and the arena is exactly as
  // before, so its result is ignored.
#ifdef MADV_HUGEPAGE
  constexpr std::uintptr_t kHugePage = std::uintptr_t{2} << 20;
  const auto ring_begin = reinterpret_cast<std::uintptr_t>(raw) +
                          static_cast<std::uintptr_t>(series_value_off_);
  const auto ring_end = ring_begin + ring_slots * sizeof(double);
  const std::uintptr_t huge_begin =
      (ring_begin + kHugePage - 1) / kHugePage * kHugePage;
  const std::uintptr_t huge_end = ring_end / kHugePage * kHugePage;
  if (huge_begin < huge_end) {
    static_cast<void>(::madvise(reinterpret_cast<void*>(huge_begin),
                                huge_end - huge_begin, MADV_HUGEPAGE));
  }
#endif
}

void BlockStore::SeedBlock(std::size_t i, std::uint32_t prefix_index,
                           double initial_availability) noexcept {
  Column<std::uint32_t>(prefix_off_)[i] = prefix_index;
  const double seeded =
      initial_availability < 0.0
          ? 0.0
          : (initial_availability > 1.0 ? 1.0 : initial_availability);
  Column<double>(p_short_off_)[i] = seeded;
  Column<double>(p_long_off_)[i] = seeded;
  Column<double>(t_short_off_)[i] = 1.0;
  Column<double>(t_long_off_)[i] = 1.0;
  Column<double>(deviation_off_)[i] = config_.initial_deviation;
  Column<std::int32_t>(rounds_off_)[i] = 0;
}

void BlockStore::Observe(std::size_t i, std::int32_t positives,
                         std::int32_t total) noexcept {
  const RoundSample sample{positives, total};
  ObserveRound(i, i + 1, {&sample, 1});
}

void BlockStore::ObserveRound(std::size_t begin, std::size_t end,
                              std::span<const RoundSample> samples) noexcept {
  if (begin >= end || end > n_ || samples.size() < end - begin) return;
  double* p_short = Column<double>(p_short_off_);
  double* t_short = Column<double>(t_short_off_);
  double* p_long = Column<double>(p_long_off_);
  double* t_long = Column<double>(t_long_off_);
  double* deviation = Column<double>(deviation_off_);
  std::int32_t* rounds = Column<std::int32_t>(rounds_off_);
  std::uint64_t* probes = Column<std::uint64_t>(probes_off_);
  std::uint64_t* positives = Column<std::uint64_t>(positives_off_);
  std::int32_t* down_rounds = Column<std::int32_t>(down_rounds_off_);

  for (std::size_t i = begin; i < end; ++i) {
    const RoundSample sample = samples[i - begin];
    // Load the block's state into locals, run THE shared step, store
    // back: same expressions as AvailabilityEstimator::Observe, so the
    // trajectories agree to the bit (proven in block_store_test).
    AvailabilityState state{p_short[i], t_short[i],    p_long[i],
                            t_long[i],  deviation[i], rounds[i]};
    AvailabilityObserve(state, config_, sample.positives, sample.total);
    p_short[i] = state.p_short;
    t_short[i] = state.t_short;
    p_long[i] = state.p_long;
    t_long[i] = state.t_long;
    deviation[i] = state.deviation;
    rounds[i] = state.rounds;
    if (sample.total > 0) {
      probes[i] += static_cast<std::uint64_t>(sample.total);
      positives[i] += static_cast<std::uint64_t>(
          sample.positives < 0 ? 0 : sample.positives);
      if (sample.positives <= 0) ++down_rounds[i];
    }
  }
}

void BlockStore::AppendSeriesSample(std::size_t i, std::int64_t round,
                                    double value) noexcept {
  if (series_capacity_ <= 0 || i >= n_) return;
  const auto cap = static_cast<std::size_t>(series_capacity_);
  std::int32_t* len = Column<std::int32_t>(series_len_off_) + i;
  std::int32_t* head = Column<std::int32_t>(series_head_off_) + i;
  // The head moves only once the ring is full, so the next free slot is
  // len while filling and the oldest sample's slot after.
  const std::int32_t next = *len < series_capacity_ ? *len : *head;
  Column<double>(series_value_off_)[i * cap + static_cast<std::size_t>(next)] =
      value;
  Column<std::int32_t>(series_last_off_)[i] = static_cast<std::int32_t>(round);
  if (*len < series_capacity_) {
    ++*len;
  } else {
    *head = next + 1 == series_capacity_ ? 0 : next + 1;
  }
}

void BlockStore::RecordSeriesRound(std::size_t begin, std::size_t end,
                                   std::int64_t round) noexcept {
  if (series_capacity_ <= 0 || begin >= end || end > n_) return;
  const auto cap = static_cast<std::size_t>(series_capacity_);
  const double* p_short = Column<double>(p_short_off_);
  const double* t_short = Column<double>(t_short_off_);
  double* values = Column<double>(series_value_off_);
  std::int32_t* len = Column<std::int32_t>(series_len_off_);
  std::int32_t* head = Column<std::int32_t>(series_head_off_);
  std::int32_t* last = Column<std::int32_t>(series_last_off_);
  const auto stamp = static_cast<std::int32_t>(round);
  for (std::size_t i = begin; i < end; ++i) {
    // Same expression as AvailabilityShortTerm over the estimator
    // columns — the recorded sample is bitwise what the scalar
    // analyzer's raw_.Add(round, estimator.ShortTerm()) records.
    const double value =
        t_short[i] > 0.0 ? p_short[i] / t_short[i] : 0.0;
    const std::int32_t next = len[i] < series_capacity_ ? len[i] : head[i];
    values[i * cap + static_cast<std::size_t>(next)] = value;
    last[i] = stamp;
    if (len[i] < series_capacity_) {
      ++len[i];
    } else {
      head[i] = next + 1 == series_capacity_ ? 0 : next + 1;
    }
  }
}

std::int32_t BlockStore::SeriesLength(std::size_t i) const noexcept {
  if (series_capacity_ <= 0 || i >= n_) return 0;
  return Column<std::int32_t>(series_len_off_)[i];
}

void BlockStore::CopySeriesOrdered(std::size_t i,
                                   std::vector<ts::Observation>& out) const {
  out.clear();
  if (series_capacity_ <= 0 || i >= n_) return;
  const auto cap = static_cast<std::size_t>(series_capacity_);
  const double* values = Column<double>(series_value_off_) + i * cap;
  const std::int32_t len = Column<std::int32_t>(series_len_off_)[i];
  const std::int32_t head = Column<std::int32_t>(series_head_off_)[i];
  // A block's samples are consecutive rounds ending at its cursor.
  const std::int64_t first =
      static_cast<std::int64_t>(Column<std::int32_t>(series_last_off_)[i]) -
      (len - 1);
  out.reserve(static_cast<std::size_t>(len));
  std::int32_t slot = head;
  for (std::int32_t k = 0; k < len; ++k) {
    out.push_back({first + k, values[slot]});
    if (++slot == series_capacity_) slot = 0;
  }
}

void BlockStore::SetEverActive(std::size_t i, std::int32_t count) noexcept {
  Column<std::int32_t>(ever_active_off_)[i] = count;
}

AvailabilityState BlockStore::ExportEstimator(std::size_t i) const noexcept {
  return {Column<double>(p_short_off_)[i],   Column<double>(t_short_off_)[i],
          Column<double>(p_long_off_)[i],    Column<double>(t_long_off_)[i],
          Column<double>(deviation_off_)[i],
          Column<std::int32_t>(rounds_off_)[i]};
}

void BlockStore::RestoreEstimator(std::size_t i,
                                  const AvailabilityState& state) noexcept {
  Column<double>(p_short_off_)[i] = state.p_short;
  Column<double>(t_short_off_)[i] = state.t_short;
  Column<double>(p_long_off_)[i] = state.p_long;
  Column<double>(t_long_off_)[i] = state.t_long;
  Column<double>(deviation_off_)[i] = state.deviation;
  Column<std::int32_t>(rounds_off_)[i] = state.rounds;
}

double BlockStore::ShortTerm(std::size_t i) const noexcept {
  const AvailabilityState state = ExportEstimator(i);
  return AvailabilityShortTerm(state);
}

double BlockStore::Operational(std::size_t i) const noexcept {
  const AvailabilityState state = ExportEstimator(i);
  return AvailabilityOperational(state, config_);
}

void BlockStore::RecordVerdict(std::size_t i, const BlockVerdict& verdict,
                               const AvailabilityState& estimator) noexcept {
  Column<std::uint32_t>(prefix_off_)[i] = verdict.prefix_index;
  std::uint8_t flags = 0;
  if (verdict.probed) flags |= kBlockFlagProbed;
  if (verdict.quarantined) flags |= kBlockFlagQuarantined;
  if (verdict.stationary) flags |= kBlockFlagStationary;
  Column<std::uint8_t>(flags_off_)[i] = flags;
  Column<std::uint8_t>(classification_off_)[i] = verdict.classification;
  Column<std::int32_t>(ever_active_off_)[i] = verdict.ever_active;
  Column<std::int32_t>(observed_days_off_)[i] = verdict.observed_days;
  Column<std::int32_t>(down_rounds_off_)[i] = verdict.down_rounds;
  Column<double>(mean_short_off_)[i] = verdict.mean_short;
  Column<double>(final_operational_off_)[i] = verdict.final_operational;
  Column<double>(mean_probes_off_)[i] = verdict.mean_probes_per_round;
  RestoreEstimator(i, estimator);
}

#define SLEEPWALK_COLUMN_SPAN(type, offset)                         \
  std::span<const type> { Column<type>(offset), n_ }

std::span<const std::uint32_t> BlockStore::prefix_index() const noexcept {
  return SLEEPWALK_COLUMN_SPAN(std::uint32_t, prefix_off_);
}
std::span<const double> BlockStore::p_short() const noexcept {
  return SLEEPWALK_COLUMN_SPAN(double, p_short_off_);
}
std::span<const double> BlockStore::t_short() const noexcept {
  return SLEEPWALK_COLUMN_SPAN(double, t_short_off_);
}
std::span<const double> BlockStore::p_long() const noexcept {
  return SLEEPWALK_COLUMN_SPAN(double, p_long_off_);
}
std::span<const double> BlockStore::t_long() const noexcept {
  return SLEEPWALK_COLUMN_SPAN(double, t_long_off_);
}
std::span<const double> BlockStore::deviation() const noexcept {
  return SLEEPWALK_COLUMN_SPAN(double, deviation_off_);
}
std::span<const std::int32_t> BlockStore::rounds() const noexcept {
  return SLEEPWALK_COLUMN_SPAN(std::int32_t, rounds_off_);
}
std::span<const std::uint64_t> BlockStore::probes() const noexcept {
  return SLEEPWALK_COLUMN_SPAN(std::uint64_t, probes_off_);
}
std::span<const std::uint64_t> BlockStore::positives() const noexcept {
  return SLEEPWALK_COLUMN_SPAN(std::uint64_t, positives_off_);
}
std::span<const std::int32_t> BlockStore::down_rounds() const noexcept {
  return SLEEPWALK_COLUMN_SPAN(std::int32_t, down_rounds_off_);
}
std::span<const std::uint8_t> BlockStore::flags() const noexcept {
  return SLEEPWALK_COLUMN_SPAN(std::uint8_t, flags_off_);
}
std::span<const std::uint8_t> BlockStore::classification() const noexcept {
  return SLEEPWALK_COLUMN_SPAN(std::uint8_t, classification_off_);
}
std::span<const std::int32_t> BlockStore::ever_active() const noexcept {
  return SLEEPWALK_COLUMN_SPAN(std::int32_t, ever_active_off_);
}
std::span<const std::int32_t> BlockStore::observed_days() const noexcept {
  return SLEEPWALK_COLUMN_SPAN(std::int32_t, observed_days_off_);
}
std::span<const double> BlockStore::mean_short() const noexcept {
  return SLEEPWALK_COLUMN_SPAN(double, mean_short_off_);
}
std::span<const double> BlockStore::final_operational() const noexcept {
  return SLEEPWALK_COLUMN_SPAN(double, final_operational_off_);
}
std::span<const double> BlockStore::mean_probes_per_round() const noexcept {
  return SLEEPWALK_COLUMN_SPAN(double, mean_probes_off_);
}
std::span<const double> BlockStore::series_values() const noexcept {
  return {Column<double>(series_value_off_),
          n_ * static_cast<std::size_t>(series_capacity_)};
}
std::span<const std::int32_t> BlockStore::series_len() const noexcept {
  if (series_capacity_ <= 0) return {};
  return SLEEPWALK_COLUMN_SPAN(std::int32_t, series_len_off_);
}
std::span<const std::int32_t> BlockStore::series_head() const noexcept {
  if (series_capacity_ <= 0) return {};
  return SLEEPWALK_COLUMN_SPAN(std::int32_t, series_head_off_);
}
std::span<const std::int32_t> BlockStore::series_last() const noexcept {
  if (series_capacity_ <= 0) return {};
  return SLEEPWALK_COLUMN_SPAN(std::int32_t, series_last_off_);
}

#undef SLEEPWALK_COLUMN_SPAN

namespace {

template <typename T>
std::uint64_t FoldColumn(std::uint64_t hash, std::span<const T> column) {
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(column.data());
  return MixHash(hash, net::Crc32cOf({bytes, column.size_bytes()}),
                 column.size());
}

/// Folds the ring round stamps as an n * capacity i32 column with block
/// i's ring at [i * capacity, (i + 1) * capacity): 0 in unfilled slots,
/// the consecutive run ending at `last` otherwise, starting at the
/// oldest sample's slot `head`. The stamps are generated into a stack
/// buffer and CRC'd chunk by chunk; only the cursors are stored.
std::uint64_t FoldRingStamps(std::uint64_t hash, std::int32_t capacity,
                             std::span<const std::int32_t> len,
                             std::span<const std::int32_t> head,
                             std::span<const std::int32_t> last) noexcept {
  // Unsigned, so a run ending at INT32_MAX wraps like the stored i32
  // bytes instead of overflowing.
  std::uint32_t buffer[1024];
  std::size_t filled = 0;
  net::Crc32c crc;
  const auto flush = [&] {
    crc.Add({reinterpret_cast<const std::uint8_t*>(buffer),
             filled * sizeof(std::uint32_t)});
    filled = 0;
  };
  // Emits `count` stamps starting at `start`, stepping by `step` (0 for
  // the zero fill of unfilled slots, 1 for a run of rounds).
  const auto emit = [&](std::uint32_t start, std::uint32_t step,
                        std::int32_t count) {
    while (count > 0) {
      if (filled == std::size(buffer)) flush();
      const auto chunk = static_cast<std::int32_t>(std::min<std::size_t>(
          static_cast<std::size_t>(count), std::size(buffer) - filled));
      for (std::int32_t k = 0; k < chunk; ++k) {
        buffer[filled++] = start;
        start += step;
      }
      count -= chunk;
    }
  };
  for (std::size_t i = 0; i < len.size(); ++i) {
    // Slot s holds the round of sample (s - head) mod capacity, oldest
    // first: slots [head, len) are the oldest run, [0, head) the newest.
    const auto newest = static_cast<std::uint32_t>(last[i]);
    const auto stored = static_cast<std::uint32_t>(len[i]);
    const auto wrapped = static_cast<std::uint32_t>(head[i]);
    emit(newest - wrapped + 1, 1, head[i]);
    emit(newest - (stored - 1), 1, len[i] - head[i]);
    emit(0, 0, capacity - len[i]);
  }
  flush();
  return MixHash(hash, crc.Finish(),
                 len.size() * static_cast<std::size_t>(capacity));
}

}  // namespace

std::uint64_t BlockStore::Digest() const noexcept {
  std::uint64_t hash = MixHash(
      0x5ee9b10cULL, n_, static_cast<std::uint64_t>(series_capacity_));
  hash = FoldColumn(hash, prefix_index());
  hash = FoldColumn(hash, p_short());
  hash = FoldColumn(hash, t_short());
  hash = FoldColumn(hash, p_long());
  hash = FoldColumn(hash, t_long());
  hash = FoldColumn(hash, deviation());
  hash = FoldColumn(hash, rounds());
  hash = FoldColumn(hash, probes());
  hash = FoldColumn(hash, positives());
  hash = FoldColumn(hash, down_rounds());
  hash = FoldColumn(hash, flags());
  hash = FoldColumn(hash, classification());
  hash = FoldColumn(hash, ever_active());
  hash = FoldColumn(hash, observed_days());
  hash = FoldColumn(hash, mean_short());
  hash = FoldColumn(hash, final_operational());
  hash = FoldColumn(hash, mean_probes_per_round());
  if (series_capacity_ > 0) {
    hash = FoldColumn(hash, series_values());
    hash = FoldRingStamps(hash, series_capacity_, series_len(), series_head(),
                          series_last());
    hash = FoldColumn(hash, series_len());
    hash = FoldColumn(hash, series_head());
  }
  return hash;
}

storage::ColumnarWriter BlockStore::SnapshotWriter(
    std::uint64_t fingerprint, std::uint64_t rounds_done,
    std::uint64_t checkpoints_written) const {
  storage::ColumnarWriter writer(kStoreMagic, kStoreSnapshotKind,
                                 fingerprint, checkpoints_written);
  // META is always three words; DecodeSnapshot refuses any other
  // layout.
  const std::uint64_t meta[3] = {
      rounds_done, checkpoints_written,
      static_cast<std::uint64_t>(series_capacity_)};
  writer.AddTyped<std::uint64_t>(kColMeta, meta);
  writer.AddTypedBorrowed(kColPrefix, prefix_index());
  writer.AddTypedBorrowed(kColPShort, p_short());
  writer.AddTypedBorrowed(kColTShort, t_short());
  writer.AddTypedBorrowed(kColPLong, p_long());
  writer.AddTypedBorrowed(kColTLong, t_long());
  writer.AddTypedBorrowed(kColDeviation, deviation());
  writer.AddTypedBorrowed(kColRounds, rounds());
  writer.AddTypedBorrowed(kColProbes, probes());
  writer.AddTypedBorrowed(kColPositives, positives());
  writer.AddTypedBorrowed(kColDownRounds, down_rounds());
  writer.AddTypedBorrowed(kColFlags, flags());
  writer.AddTypedBorrowed(kColClassification, classification());
  writer.AddTypedBorrowed(kColEverActive, ever_active());
  writer.AddTypedBorrowed(kColObservedDays, observed_days());
  writer.AddTypedBorrowed(kColMeanShort, mean_short());
  writer.AddTypedBorrowed(kColFinalOperational, final_operational());
  writer.AddTypedBorrowed(kColMeanProbes, mean_probes_per_round());
  if (series_capacity_ > 0) {
    writer.AddTypedBorrowed(kColSeriesValue, series_values());
    writer.AddTypedBorrowed(kColSeriesLen, series_len());
    writer.AddTypedBorrowed(kColSeriesHead, series_head());
    writer.AddTypedBorrowed(kColSeriesLast, series_last());
  }
  return writer;
}

storage::Error BlockStore::WriteSnapshot(
    storage::Env& env, const std::string& path, std::uint64_t fingerprint,
    std::uint64_t rounds_done, std::uint64_t checkpoints_written) const {
  return SnapshotWriter(fingerprint, rounds_done, checkpoints_written)
      .Write(env, path);
}

std::vector<std::uint8_t> BlockStore::EncodeSnapshot(
    std::uint64_t fingerprint, std::uint64_t rounds_done,
    std::uint64_t checkpoints_written) const {
  return SnapshotWriter(fingerprint, rounds_done, checkpoints_written)
      .Finish();
}

storage::Error BlockStore::DecodeSnapshot(
    std::span<const std::uint8_t> file, std::uint64_t expect_fingerprint,
    std::uint64_t& rounds_done, std::uint64_t& checkpoints_written,
    const std::string& path) {
  storage::ColumnarReader reader;
  if (auto error = reader.Parse(file, kStoreMagic, path); !error.ok()) {
    return error;
  }
  if (reader.kind() != kStoreSnapshotKind) {
    return SnapshotError(path, "not a block-store snapshot (kind " +
                                   std::to_string(reader.kind()) + ")");
  }
  if (reader.fingerprint() != expect_fingerprint) {
    return SnapshotError(path, "campaign fingerprint mismatch");
  }
  // META is {rounds_done, checkpoints_written, series capacity}; an
  // estimator-only store writes capacity 0.
  std::span<const std::uint64_t> meta;
  if (!reader.FetchTyped(kColMeta, 3, meta)) {
    return SnapshotError(path, "META column missing or malformed");
  }
  const std::uint64_t meta_capacity = meta[2];
  if (meta_capacity > (1ull << 30)) {
    return SnapshotError(path, "implausible series capacity");
  }
  const auto capacity = static_cast<std::int32_t>(meta_capacity);
  const storage::ColumnarColumn* prefix = reader.Find(kColPrefix);
  if (prefix == nullptr) {
    return SnapshotError(path, "prefix column missing");
  }
  const std::uint64_t rows = prefix->rows;
  if (capacity > 0 && rows > (1ull << 63) / meta_capacity / 8) {
    return SnapshotError(path, "implausible series extent");
  }

  std::span<const std::uint32_t> prefixes;
  std::span<const double> p_short, t_short, p_long, t_long, deviation;
  std::span<const double> mean_short, final_operational, mean_probes;
  std::span<const std::int32_t> rounds, down_rounds, ever_active;
  std::span<const std::int32_t> observed_days;
  std::span<const std::uint64_t> probes, positives;
  std::span<const std::uint8_t> flags, classification;
  const bool complete =
      reader.FetchTyped(kColPrefix, rows, prefixes) &&
      reader.FetchTyped(kColPShort, rows, p_short) &&
      reader.FetchTyped(kColTShort, rows, t_short) &&
      reader.FetchTyped(kColPLong, rows, p_long) &&
      reader.FetchTyped(kColTLong, rows, t_long) &&
      reader.FetchTyped(kColDeviation, rows, deviation) &&
      reader.FetchTyped(kColRounds, rows, rounds) &&
      reader.FetchTyped(kColProbes, rows, probes) &&
      reader.FetchTyped(kColPositives, rows, positives) &&
      reader.FetchTyped(kColDownRounds, rows, down_rounds) &&
      reader.FetchTyped(kColFlags, rows, flags) &&
      reader.FetchTyped(kColClassification, rows, classification) &&
      reader.FetchTyped(kColEverActive, rows, ever_active) &&
      reader.FetchTyped(kColObservedDays, rows, observed_days) &&
      reader.FetchTyped(kColMeanShort, rows, mean_short) &&
      reader.FetchTyped(kColFinalOperational, rows, final_operational) &&
      reader.FetchTyped(kColMeanProbes, rows, mean_probes);
  if (!complete) {
    return SnapshotError(path, "column set incomplete or row counts differ");
  }
  std::span<const double> series_value;
  std::span<const std::int32_t> series_len, series_head, series_last;
  if (capacity > 0) {
    if (reader.Find(kColSeriesRoundRetired) != nullptr) {
      return SnapshotError(path,
                           "retired series round column 20 present "
                           "(a ring layout without last-round cursors)");
    }
    const std::uint64_t ring_rows = rows * meta_capacity;
    const bool series_complete =
        reader.FetchTyped(kColSeriesValue, ring_rows, series_value) &&
        reader.FetchTyped(kColSeriesLen, rows, series_len) &&
        reader.FetchTyped(kColSeriesHead, rows, series_head) &&
        reader.FetchTyped(kColSeriesLast, rows, series_last);
    if (!series_complete) {
      return SnapshotError(path, "series columns incomplete or mis-sized");
    }
    // The append kernels and CopySeriesOrdered index a ring by these
    // cursors unchecked, so a file must not be able to point them
    // outside the block's slots or before round 0.
    for (std::size_t i = 0; i < rows; ++i) {
      const char* violated = nullptr;
      if (series_len[i] < 0 || series_len[i] > capacity) {
        violated = "series length outside [0, capacity]";
      } else if (series_head[i] < 0 || series_head[i] >= capacity) {
        violated = "series head outside [0, capacity)";
      } else if (series_head[i] != 0 && series_len[i] < capacity) {
        violated = "series head set on a ring that is not full";
      } else if (series_len[i] > 0 &&
                 static_cast<std::int64_t>(series_last[i]) -
                         (series_len[i] - 1) <
                     0) {
        violated = "series rounds start before round 0";
      }
      if (violated != nullptr) {
        return SnapshotError(path, std::string(violated) + " (block " +
                                       std::to_string(i) + ")");
      }
    }
  }

  Allocate(rows, config_, capacity);
  const auto adopt = [this](auto offset, const auto& span) {
    using Element = typename std::remove_cvref_t<decltype(span)>::element_type;
    std::memcpy(Column<std::remove_const_t<Element>>(offset), span.data(),
                span.size_bytes());
  };
  adopt(prefix_off_, prefixes);
  adopt(p_short_off_, p_short);
  adopt(t_short_off_, t_short);
  adopt(p_long_off_, p_long);
  adopt(t_long_off_, t_long);
  adopt(deviation_off_, deviation);
  adopt(rounds_off_, rounds);
  adopt(probes_off_, probes);
  adopt(positives_off_, positives);
  adopt(down_rounds_off_, down_rounds);
  adopt(flags_off_, flags);
  adopt(classification_off_, classification);
  adopt(ever_active_off_, ever_active);
  adopt(observed_days_off_, observed_days);
  adopt(mean_short_off_, mean_short);
  adopt(final_operational_off_, final_operational);
  adopt(mean_probes_off_, mean_probes);
  if (capacity > 0) {
    adopt(series_value_off_, series_value);
    adopt(series_len_off_, series_len);
    adopt(series_head_off_, series_head);
    adopt(series_last_off_, series_last);
  }

  rounds_done = meta[0];
  checkpoints_written = meta[1];
  return {};
}

}  // namespace sleepwalk::core
