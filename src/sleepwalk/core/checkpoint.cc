#include "sleepwalk/core/checkpoint.h"

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <type_traits>
#include <utility>

#include "sleepwalk/core/block_store.h"
#include "sleepwalk/storage/bytes.h"
#include "sleepwalk/storage/columnar.h"
#include "sleepwalk/util/narrow.h"
#include "sleepwalk/util/rng.h"

namespace sleepwalk::core {

namespace {

using storage::ByteReader;
using storage::ByteWriter;

constexpr char kMagic[4] = {'S', 'L', 'C', 'K'};

// Column ids (container kind kCheckpointKind; file-format constants:
// never renumber, only append). META, INFLIGHT and TRANSPORT are
// byte-blob columns; COMPLETED is shredded into fixed-width per-record
// columns (ids 10..38, one row per completed analysis) plus three
// concatenated variable-length blobs (ids 40..42) indexed by the
// per-record length columns.
constexpr std::uint32_t kColMeta = 1;         // META payload, meta v == 3
constexpr std::uint32_t kColQuarantined = 2;  // u32 prefix indices
constexpr std::uint32_t kColInflight = 3;     // INFLIGHT payload blob
constexpr std::uint32_t kColTransport = 4;    // transport state blob
constexpr std::uint32_t kColBlockIndex = 10;      // u32
constexpr std::uint32_t kColProbed = 11;          // u8
constexpr std::uint32_t kColEverActive = 12;      // i32
constexpr std::uint32_t kColSeriesFirstRound = 13;  // i64
constexpr std::uint32_t kColSeriesLen = 14;       // u64
constexpr std::uint32_t kColObservedDays = 15;    // i32
constexpr std::uint32_t kColClassification = 16;  // u8
constexpr std::uint32_t kColNDays = 17;           // i32
constexpr std::uint32_t kColDailyBin = 18;        // u64
constexpr std::uint32_t kColDailyAmplitude = 19;  // f64
constexpr std::uint32_t kColPhase = 20;           // f64
constexpr std::uint32_t kColStrongestBin = 21;    // u64
constexpr std::uint32_t kColStrongestAmplitude = 22;  // f64
constexpr std::uint32_t kColStrongestCycles = 23;     // f64
constexpr std::uint32_t kColSlopePerRound = 24;   // f64
constexpr std::uint32_t kColAddressesPerDay = 25; // f64
constexpr std::uint32_t kColStationary = 26;      // u8
constexpr std::uint32_t kColMeanShort = 27;       // f64
constexpr std::uint32_t kColFinalOperational = 28;  // f64
constexpr std::uint32_t kColMeanProbes = 29;      // f64
constexpr std::uint32_t kColDownRounds = 30;      // i32
constexpr std::uint32_t kColOutageStartCount = 31;  // u64
constexpr std::uint32_t kColOutageCount = 32;       // u64
constexpr std::uint32_t kColEstPShort = 33;       // f64
constexpr std::uint32_t kColEstTShort = 34;       // f64
constexpr std::uint32_t kColEstPLong = 35;        // f64
constexpr std::uint32_t kColEstTLong = 36;        // f64
constexpr std::uint32_t kColEstDeviation = 37;    // f64
constexpr std::uint32_t kColEstRounds = 38;       // i32
constexpr std::uint32_t kColSeriesValues = 40;    // f64, concatenated
constexpr std::uint32_t kColOutageStarts = 41;    // i64, concatenated
constexpr std::uint32_t kColOutages = 42;  // i64 pairs (start, rounds)

// Sanity bound on any serialized count: a campaign has < 2^32 of
// anything, and a corrupt header must not drive a multi-GB resize.
constexpr std::uint64_t kMaxCount = 1ull << 32;

void PutStats(ByteWriter& out, const report::ResilienceStats& stats) {
  const auto& p = stats.probes;
  out.Put(p.attempts);
  out.Put(p.errors);
  out.Put(p.answered);
  out.Put(p.lost);
  out.Put(p.rate_limited);
  out.Put(p.unreachable);
  out.Put(stats.rounds_attempted);
  out.Put(stats.rounds_failed);
  out.Put(stats.rounds_gapped);
  out.Put(stats.retries);
  out.Put(stats.backoff_seconds);
  out.Put(stats.forced_restarts);
  out.Put(stats.quarantined_blocks);
  out.Put(stats.checkpoints_written);
  // resumed_from_checkpoint is deliberately NOT persisted: it is
  // process-lifetime information (AdoptCheckpoint sets it), and
  // keeping it out makes a resumed campaign's final checkpoint
  // byte-identical to an uninterrupted run's.
}

bool GetStats(ByteReader& in, report::ResilienceStats& stats) {
  auto& p = stats.probes;
  return in.Get(p.attempts) && in.Get(p.errors) && in.Get(p.answered) &&
         in.Get(p.lost) && in.Get(p.rate_limited) && in.Get(p.unreachable) &&
         in.Get(stats.rounds_attempted) && in.Get(stats.rounds_failed) &&
         in.Get(stats.rounds_gapped) && in.Get(stats.retries) &&
         in.Get(stats.backoff_seconds) && in.Get(stats.forced_restarts) &&
         in.Get(stats.quarantined_blocks) &&
         in.Get(stats.checkpoints_written);
}

void PutAnalyzerState(ByteWriter& out, const BlockAnalyzerState& state) {
  out.Put(state.estimator.p_short);
  out.Put(state.estimator.t_short);
  out.Put(state.estimator.p_long);
  out.Put(state.estimator.t_long);
  out.Put(state.estimator.deviation);
  out.Put(util::CheckedNarrow<std::int32_t>(state.estimator.rounds));
  out.Put(util::BoolByte(state.has_prober));
  out.Put(state.prober.cursor);
  out.Put(state.prober.belief);
  out.Put(static_cast<std::uint64_t>(state.raw.size()));
  for (const auto& observation : state.raw) {
    out.Put(observation.round);
    out.Put(observation.value);
  }
  out.Put(state.total_probes);
  out.Put(state.rounds_run);
  out.Put(util::CheckedNarrow<std::int32_t>(state.down_rounds));
  out.Put(util::BoolByte(state.previous_down));
  out.Put(static_cast<std::uint64_t>(state.outage_starts.size()));
  for (const auto start : state.outage_starts) out.Put(start);
  out.Put(static_cast<std::uint64_t>(state.outages.size()));
  for (const auto& outage : state.outages) {
    out.Put(outage.start_round);
    out.Put(outage.rounds);
  }
}

bool GetAnalyzerState(ByteReader& in, BlockAnalyzerState& state) {
  std::int32_t estimator_rounds = 0;
  std::uint8_t has_prober = 0;
  std::uint64_t n_raw = 0;
  if (!in.Get(state.estimator.p_short) || !in.Get(state.estimator.t_short) ||
      !in.Get(state.estimator.p_long) || !in.Get(state.estimator.t_long) ||
      !in.Get(state.estimator.deviation) || !in.Get(estimator_rounds) ||
      !in.Get(has_prober) || !in.Get(state.prober.cursor) ||
      !in.Get(state.prober.belief) || !in.Get(n_raw) || n_raw > kMaxCount) {
    return false;
  }
  state.estimator.rounds = estimator_rounds;
  state.has_prober = has_prober != 0;
  state.raw.resize(n_raw);
  for (auto& observation : state.raw) {
    if (!in.Get(observation.round) || !in.Get(observation.value)) {
      return false;
    }
  }
  std::int32_t down_rounds = 0;
  std::uint8_t previous_down = 0;
  std::uint64_t n_starts = 0;
  if (!in.Get(state.total_probes) || !in.Get(state.rounds_run) ||
      !in.Get(down_rounds) || !in.Get(previous_down) ||
      !in.Get(n_starts) || n_starts > kMaxCount) {
    return false;
  }
  state.down_rounds = down_rounds;
  state.previous_down = previous_down != 0;
  state.outage_starts.resize(n_starts);
  for (auto& start : state.outage_starts) {
    if (!in.Get(start)) return false;
  }
  std::uint64_t n_outages = 0;
  if (!in.Get(n_outages) || n_outages > kMaxCount) return false;
  state.outages.resize(n_outages);
  for (auto& outage : state.outages) {
    if (!in.Get(outage.start_round) || !in.Get(outage.rounds)) {
      return false;
    }
  }
  return true;
}

bool DecodeMeta(ByteReader& in, Checkpoint& checkpoint,
                CheckpointLoadReport& report) {
  std::uint32_t meta_version = 0;
  if (!in.Get(meta_version)) return false;
  if (meta_version != kCheckpointVersionColumnar) {
    // A container carrying another version's META payload is a spliced /
    // mixed-version file; refuse rather than reinterpret.
    report.version_refused = true;
    report.detail = "META format version mismatch";
    return false;
  }
  return in.Get(checkpoint.counts.strict) &&
         in.Get(checkpoint.counts.relaxed) &&
         in.Get(checkpoint.counts.non_diurnal) &&
         in.Get(checkpoint.counts.skipped) &&
         GetStats(in, checkpoint.stats) && in.Get(checkpoint.next_block) &&
         in.remaining() == 0;
}

bool DecodeInflight(ByteReader& in, Checkpoint& checkpoint) {
  std::uint8_t has_inflight = 0;
  if (!in.Get(has_inflight)) return false;
  checkpoint.has_inflight = has_inflight != 0;
  if (!checkpoint.has_inflight) return in.remaining() == 0;
  std::int32_t failures = 0;
  if (!in.Get(checkpoint.inflight_next_round) || !in.Get(failures) ||
      !GetAnalyzerState(in, checkpoint.inflight)) {
    return false;
  }
  checkpoint.inflight_consecutive_failures = failures;
  return in.remaining() == 0;
}

/// SLCK v3: the columnar container. The whole span (not a ByteReader)
/// goes to the storage-layer parser, which validates every byte before
/// a column is exposed; this function only reassembles Checkpoint rows
/// from validated typed spans.
std::optional<Checkpoint> DecodeV3(std::span<const std::uint8_t> bytes,
                                   CheckpointLoadReport& report) {
  const auto fail = [&report](std::string what) -> std::optional<Checkpoint> {
    ++report.corrupt_sections;
    if (report.detail.empty()) report.detail = std::move(what);
    return std::nullopt;
  };

  storage::ColumnarReader reader;
  if (auto error = reader.Parse(
          bytes, std::string_view{kMagic, sizeof(kMagic)});
      !error.ok()) {
    return fail(error.detail);
  }
  report.generation = reader.generation();
  if (reader.kind() != kCheckpointKind) {
    return fail("container kind is not a checkpoint");
  }

  Checkpoint checkpoint;
  checkpoint.fingerprint = reader.fingerprint();

  const auto blob = [&reader](std::uint32_t id) {
    const storage::ColumnarColumn* column = reader.Find(id);
    return column != nullptr && column->elem_width == 1
               ? std::optional(column->bytes)
               : std::nullopt;
  };

  const auto meta_bytes = blob(kColMeta);
  if (!meta_bytes) return fail("META column missing");
  ByteReader meta{*meta_bytes};
  if (!DecodeMeta(meta, checkpoint, report)) {
    if (report.version_refused) return std::nullopt;
    return fail("META column malformed");
  }

  const storage::ColumnarColumn* quarantined = reader.Find(kColQuarantined);
  std::span<const std::uint32_t> quarantined_rows;
  if (quarantined == nullptr ||
      !reader.FetchTyped(kColQuarantined, quarantined->rows,
                         quarantined_rows)) {
    return fail("QUARANTINED column missing or mis-typed");
  }
  checkpoint.quarantined.assign(quarantined_rows.begin(),
                                quarantined_rows.end());

  const auto inflight_bytes = blob(kColInflight);
  if (!inflight_bytes) return fail("INFLIGHT column missing");
  ByteReader inflight{*inflight_bytes};
  if (!DecodeInflight(inflight, checkpoint)) {
    return fail("INFLIGHT column malformed");
  }

  const auto transport_bytes = blob(kColTransport);
  if (!transport_bytes) return fail("TRANSPORT column missing");
  checkpoint.transport_state.assign(transport_bytes->begin(),
                                    transport_bytes->end());

  // Completed analyses: every per-record column must agree on the row
  // count, and each blob must be exactly as long as the length columns
  // claim — no blob byte may be orphaned or double-counted.
  const storage::ColumnarColumn* index_column = reader.Find(kColBlockIndex);
  if (index_column == nullptr) return fail("COMPLETED index column missing");
  const std::uint64_t n = index_column->rows;
  if (n > kMaxCount) return fail("implausible completed count");

  std::span<const std::uint32_t> block_index;
  std::span<const std::uint8_t> probed, classification, stationary;
  std::span<const std::int32_t> ever_active, observed_days, n_days,
      down_rounds;
  std::span<const std::int64_t> series_first_round;
  std::span<const std::uint64_t> series_len, daily_bin, strongest_bin,
      outage_start_count, outage_count;
  std::span<const double> daily_amplitude, phase, strongest_amplitude,
      strongest_cycles, slope_per_round, addresses_per_day, mean_short,
      final_operational, mean_probes;
  if (!reader.FetchTyped(kColBlockIndex, n, block_index) ||
      !reader.FetchTyped(kColProbed, n, probed) ||
      !reader.FetchTyped(kColEverActive, n, ever_active) ||
      !reader.FetchTyped(kColSeriesFirstRound, n, series_first_round) ||
      !reader.FetchTyped(kColSeriesLen, n, series_len) ||
      !reader.FetchTyped(kColObservedDays, n, observed_days) ||
      !reader.FetchTyped(kColClassification, n, classification) ||
      !reader.FetchTyped(kColNDays, n, n_days) ||
      !reader.FetchTyped(kColDailyBin, n, daily_bin) ||
      !reader.FetchTyped(kColDailyAmplitude, n, daily_amplitude) ||
      !reader.FetchTyped(kColPhase, n, phase) ||
      !reader.FetchTyped(kColStrongestBin, n, strongest_bin) ||
      !reader.FetchTyped(kColStrongestAmplitude, n, strongest_amplitude) ||
      !reader.FetchTyped(kColStrongestCycles, n, strongest_cycles) ||
      !reader.FetchTyped(kColSlopePerRound, n, slope_per_round) ||
      !reader.FetchTyped(kColAddressesPerDay, n, addresses_per_day) ||
      !reader.FetchTyped(kColStationary, n, stationary) ||
      !reader.FetchTyped(kColMeanShort, n, mean_short) ||
      !reader.FetchTyped(kColFinalOperational, n, final_operational) ||
      !reader.FetchTyped(kColMeanProbes, n, mean_probes) ||
      !reader.FetchTyped(kColDownRounds, n, down_rounds) ||
      !reader.FetchTyped(kColOutageStartCount, n, outage_start_count) ||
      !reader.FetchTyped(kColOutageCount, n, outage_count)) {
    return fail("COMPLETED column missing, mis-typed, or row-count skew");
  }
  std::span<const double> est_p_short, est_t_short, est_p_long, est_t_long,
      est_deviation;
  std::span<const std::int32_t> est_rounds;
  if (!reader.FetchTyped(kColEstPShort, n, est_p_short) ||
      !reader.FetchTyped(kColEstTShort, n, est_t_short) ||
      !reader.FetchTyped(kColEstPLong, n, est_p_long) ||
      !reader.FetchTyped(kColEstTLong, n, est_t_long) ||
      !reader.FetchTyped(kColEstDeviation, n, est_deviation) ||
      !reader.FetchTyped(kColEstRounds, n, est_rounds)) {
    return fail("estimator column missing, mis-typed, or row-count skew");
  }

  const storage::ColumnarColumn* series_column =
      reader.Find(kColSeriesValues);
  const storage::ColumnarColumn* starts_column =
      reader.Find(kColOutageStarts);
  const storage::ColumnarColumn* outages_column = reader.Find(kColOutages);
  std::span<const double> series_values;
  std::span<const std::int64_t> outage_starts, outage_pairs;
  if (series_column == nullptr || starts_column == nullptr ||
      outages_column == nullptr ||
      !reader.FetchTyped(kColSeriesValues, series_column->rows,
                         series_values) ||
      !reader.FetchTyped(kColOutageStarts, starts_column->rows,
                         outage_starts) ||
      !reader.FetchTyped(kColOutages, outages_column->rows, outage_pairs)) {
    return fail("COMPLETED blob column missing or mis-typed");
  }

  checkpoint.completed.resize(n);
  checkpoint.estimators.resize(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    AvailabilityState& state = checkpoint.estimators[i];
    state.p_short = est_p_short[i];
    state.t_short = est_t_short[i];
    state.p_long = est_p_long[i];
    state.t_long = est_t_long[i];
    state.deviation = est_deviation[i];
    state.rounds = est_rounds[i];
  }
  std::uint64_t series_cursor = 0;
  std::uint64_t starts_cursor = 0;
  std::uint64_t outages_cursor = 0;  // in pairs
  for (std::uint64_t i = 0; i < n; ++i) {
    BlockAnalysis& analysis = checkpoint.completed[i];
    const std::uint64_t samples = series_len[i];
    const std::uint64_t starts = outage_start_count[i];
    const std::uint64_t outages = outage_count[i];
    if (samples > series_values.size() - series_cursor ||
        starts > outage_starts.size() - starts_cursor ||
        outages > outage_pairs.size() / 2 - outages_cursor) {
      return fail("COMPLETED blob shorter than its length columns");
    }
    analysis.block = net::Prefix24::FromIndex(block_index[i]);
    analysis.probed = probed[i] != 0;
    analysis.ever_active = ever_active[i];
    analysis.short_series.first_round = series_first_round[i];
    analysis.short_series.values.assign(
        series_values.begin() + static_cast<std::ptrdiff_t>(series_cursor),
        series_values.begin() +
            static_cast<std::ptrdiff_t>(series_cursor + samples));
    series_cursor += samples;
    analysis.observed_days = observed_days[i];
    analysis.diurnal.classification =
        static_cast<Diurnality>(classification[i]);
    analysis.diurnal.n_days = n_days[i];
    analysis.diurnal.daily_bin = static_cast<std::size_t>(daily_bin[i]);
    analysis.diurnal.daily_amplitude = daily_amplitude[i];
    analysis.diurnal.phase = phase[i];
    analysis.diurnal.strongest_bin =
        static_cast<std::size_t>(strongest_bin[i]);
    analysis.diurnal.strongest_amplitude = strongest_amplitude[i];
    analysis.diurnal.strongest_cycles_per_day = strongest_cycles[i];
    analysis.stationarity.slope_per_round = slope_per_round[i];
    analysis.stationarity.addresses_per_day = addresses_per_day[i];
    analysis.stationarity.stationary = stationary[i] != 0;
    analysis.mean_short = mean_short[i];
    analysis.final_operational = final_operational[i];
    analysis.mean_probes_per_round = mean_probes[i];
    analysis.down_rounds = down_rounds[i];
    analysis.outage_starts.assign(
        outage_starts.begin() + static_cast<std::ptrdiff_t>(starts_cursor),
        outage_starts.begin() +
            static_cast<std::ptrdiff_t>(starts_cursor + starts));
    starts_cursor += starts;
    analysis.outages.resize(outages);
    for (std::uint64_t o = 0; o < outages; ++o) {
      analysis.outages[o].start_round =
          outage_pairs[2 * (outages_cursor + o)];
      analysis.outages[o].rounds =
          outage_pairs[2 * (outages_cursor + o) + 1];
    }
    outages_cursor += outages;
  }
  if (series_cursor != series_values.size() ||
      starts_cursor != outage_starts.size() ||
      outages_cursor * 2 != outage_pairs.size()) {
    return fail("COMPLETED blob longer than its length columns");
  }
  return checkpoint;
}

}  // namespace

std::uint64_t CampaignFingerprint(const std::vector<BlockTarget>& targets,
                                  std::int64_t n_rounds, std::uint64_t seed,
                                  const AnalyzerConfig& config) {
  std::uint64_t hash = MixHash(seed, static_cast<std::uint64_t>(n_rounds),
                               targets.size());
  hash = MixHash(hash,
                 static_cast<std::uint64_t>(config.schedule.round_seconds),
                 static_cast<std::uint64_t>(
                     config.schedule.restart_every_rounds));
  hash = MixHash(hash, static_cast<std::uint64_t>(config.schedule.epoch_sec),
                 static_cast<std::uint64_t>(config.min_ever_active));
  for (const auto& target : targets) {
    hash = MixHash(hash, target.block.Index(), target.ever_active.size());
  }
  return hash;
}

std::vector<std::uint8_t> EncodeCheckpoint(const Checkpoint& checkpoint) {
  storage::ColumnarWriter writer(std::string_view{kMagic, sizeof(kMagic)},
                                 kCheckpointKind, checkpoint.fingerprint,
                                 checkpoint.stats.checkpoints_written);

  // META leads with the format version, so a META blob spliced in from
  // another version's file is refused.
  ByteWriter meta;
  meta.Put(kCheckpointVersionColumnar);
  meta.Put(checkpoint.counts.strict);
  meta.Put(checkpoint.counts.relaxed);
  meta.Put(checkpoint.counts.non_diurnal);
  meta.Put(checkpoint.counts.skipped);
  PutStats(meta, checkpoint.stats);
  meta.Put(checkpoint.next_block);
  writer.Add(kColMeta, 1, meta.bytes());

  writer.AddTyped<std::uint32_t>(
      kColQuarantined, std::span<const std::uint32_t>{checkpoint.quarantined});

  ByteWriter inflight;
  inflight.Put(util::BoolByte(checkpoint.has_inflight));
  if (checkpoint.has_inflight) {
    inflight.Put(checkpoint.inflight_next_round);
    inflight.Put(util::CheckedNarrow<std::int32_t>(
        checkpoint.inflight_consecutive_failures));
    PutAnalyzerState(inflight, checkpoint.inflight);
  }
  writer.Add(kColInflight, 1, inflight.bytes());
  writer.Add(kColTransport, 1, checkpoint.transport_state);

  // COMPLETED, shredded: one fixed-width value per record per column,
  // series/outage payloads concatenated into blobs in record order.
  const std::size_t n = checkpoint.completed.size();
  std::vector<std::uint32_t> block_index;
  std::vector<std::uint8_t> probed, classification, stationary;
  std::vector<std::int32_t> ever_active, observed_days, n_days, down_rounds;
  std::vector<std::int64_t> series_first_round;
  std::vector<std::uint64_t> series_len, daily_bin, strongest_bin,
      outage_start_count, outage_count;
  std::vector<double> daily_amplitude, phase, strongest_amplitude,
      strongest_cycles, slope_per_round, addresses_per_day, mean_short,
      final_operational, mean_probes;
  for (auto* column :
       {&ever_active, &observed_days, &n_days, &down_rounds}) {
    column->reserve(n);
  }
  for (auto* column : {&daily_amplitude, &phase, &strongest_amplitude,
                       &strongest_cycles, &slope_per_round,
                       &addresses_per_day, &mean_short, &final_operational,
                       &mean_probes}) {
    column->reserve(n);
  }
  block_index.reserve(n);
  std::size_t total_samples = 0;
  std::size_t total_starts = 0;
  std::size_t total_outages = 0;
  for (const auto& analysis : checkpoint.completed) {
    total_samples += analysis.short_series.size();
    total_starts += analysis.outage_starts.size();
    total_outages += analysis.outages.size();
  }
  std::vector<double> series_values;
  series_values.reserve(total_samples);
  std::vector<std::int64_t> outage_starts, outage_pairs;
  outage_starts.reserve(total_starts);
  outage_pairs.reserve(2 * total_outages);

  for (const auto& analysis : checkpoint.completed) {
    block_index.push_back(analysis.block.Index());
    probed.push_back(util::BoolByte(analysis.probed));
    ever_active.push_back(
        util::CheckedNarrow<std::int32_t>(analysis.ever_active));
    series_first_round.push_back(analysis.short_series.first_round);
    series_len.push_back(analysis.short_series.size());
    series_values.insert(series_values.end(),
                         analysis.short_series.values.begin(),
                         analysis.short_series.values.end());
    observed_days.push_back(
        util::CheckedNarrow<std::int32_t>(analysis.observed_days));
    classification.push_back(util::CheckedNarrow<std::uint8_t>(
        static_cast<int>(analysis.diurnal.classification)));
    n_days.push_back(
        util::CheckedNarrow<std::int32_t>(analysis.diurnal.n_days));
    daily_bin.push_back(
        static_cast<std::uint64_t>(analysis.diurnal.daily_bin));
    daily_amplitude.push_back(analysis.diurnal.daily_amplitude);
    phase.push_back(analysis.diurnal.phase);
    strongest_bin.push_back(
        static_cast<std::uint64_t>(analysis.diurnal.strongest_bin));
    strongest_amplitude.push_back(analysis.diurnal.strongest_amplitude);
    strongest_cycles.push_back(analysis.diurnal.strongest_cycles_per_day);
    slope_per_round.push_back(analysis.stationarity.slope_per_round);
    addresses_per_day.push_back(analysis.stationarity.addresses_per_day);
    stationary.push_back(util::BoolByte(analysis.stationarity.stationary));
    mean_short.push_back(analysis.mean_short);
    final_operational.push_back(analysis.final_operational);
    mean_probes.push_back(analysis.mean_probes_per_round);
    down_rounds.push_back(
        util::CheckedNarrow<std::int32_t>(analysis.down_rounds));
    outage_start_count.push_back(analysis.outage_starts.size());
    outage_starts.insert(outage_starts.end(),
                         analysis.outage_starts.begin(),
                         analysis.outage_starts.end());
    outage_count.push_back(analysis.outages.size());
    for (const auto& outage : analysis.outages) {
      outage_pairs.push_back(outage.start_round);
      outage_pairs.push_back(outage.rounds);
    }
  }

  // Final estimator state: pad with defaults when the caller did not
  // capture estimators, so the columns always agree with the record
  // count.
  std::vector<double> est_p_short, est_t_short, est_p_long, est_t_long,
      est_deviation;
  std::vector<std::int32_t> est_rounds;
  for (auto* column : {&est_p_short, &est_t_short, &est_p_long, &est_t_long,
                       &est_deviation}) {
    column->reserve(n);
  }
  est_rounds.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const AvailabilityState state =
        i < checkpoint.estimators.size() ? checkpoint.estimators[i]
                                         : AvailabilityState{};
    est_p_short.push_back(state.p_short);
    est_t_short.push_back(state.t_short);
    est_p_long.push_back(state.p_long);
    est_t_long.push_back(state.t_long);
    est_deviation.push_back(state.deviation);
    est_rounds.push_back(util::CheckedNarrow<std::int32_t>(state.rounds));
  }

  const auto add = [&writer](std::uint32_t id, const auto& column) {
    using T = typename std::decay_t<decltype(column)>::value_type;
    writer.AddTyped<T>(id, std::span<const T>{column});
  };
  add(kColBlockIndex, block_index);
  add(kColProbed, probed);
  add(kColEverActive, ever_active);
  add(kColSeriesFirstRound, series_first_round);
  add(kColSeriesLen, series_len);
  add(kColObservedDays, observed_days);
  add(kColClassification, classification);
  add(kColNDays, n_days);
  add(kColDailyBin, daily_bin);
  add(kColDailyAmplitude, daily_amplitude);
  add(kColPhase, phase);
  add(kColStrongestBin, strongest_bin);
  add(kColStrongestAmplitude, strongest_amplitude);
  add(kColStrongestCycles, strongest_cycles);
  add(kColSlopePerRound, slope_per_round);
  add(kColAddressesPerDay, addresses_per_day);
  add(kColStationary, stationary);
  add(kColMeanShort, mean_short);
  add(kColFinalOperational, final_operational);
  add(kColMeanProbes, mean_probes);
  add(kColDownRounds, down_rounds);
  add(kColOutageStartCount, outage_start_count);
  add(kColOutageCount, outage_count);
  add(kColEstPShort, est_p_short);
  add(kColEstTShort, est_t_short);
  add(kColEstPLong, est_p_long);
  add(kColEstTLong, est_t_long);
  add(kColEstDeviation, est_deviation);
  add(kColEstRounds, est_rounds);
  add(kColSeriesValues, series_values);
  add(kColOutageStarts, outage_starts);
  add(kColOutages, outage_pairs);

  return writer.Finish();
}

std::optional<Checkpoint> DecodeCheckpoint(std::span<const std::uint8_t> bytes,
                                           CheckpointLoadReport* report) {
  CheckpointLoadReport scratch;
  CheckpointLoadReport& out = report != nullptr ? *report : scratch;
  out.found = true;

  ByteReader in{bytes};
  char magic[4] = {};
  if (!in.GetBytes(reinterpret_cast<std::uint8_t*>(magic), sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    out.bad_magic = true;
    out.detail = "bad magic";
    return std::nullopt;
  }
  if (!in.Get(out.version)) {
    out.corrupt_sections = 1;
    out.detail = "truncated before version";
    return std::nullopt;
  }
  if (out.version != kCheckpointVersionColumnar) {
    // v1 and v2 files, left by older builds, and any future version.
    out.version_refused = true;
    out.detail = "unsupported version " + std::to_string(out.version);
    return std::nullopt;
  }
  return DecodeV3(bytes, out);
}

std::optional<Checkpoint> ReadCheckpoint(storage::Env& env,
                                         const std::string& path,
                                         CheckpointLoadReport* report) {
  std::vector<std::uint8_t> bytes;
  if (auto error = env.ReadAll(path, bytes); !error.ok()) {
    if (report != nullptr) {
      report->found = false;
      report->detail = error.ToString();
    }
    return std::nullopt;
  }
  return DecodeCheckpoint(bytes, report);
}

// ---------------------------------------------------------------------------
// CheckpointStore

CheckpointStore::CheckpointStore(storage::Env& env, std::string path,
                                 int keep)
    : env_(env),
      path_(std::move(path)),
      dir_(storage::DirName(path_)),
      keep_(std::max(keep, 1)) {
  const auto slash = path_.find_last_of('/');
  base_ = slash == std::string::npos ? path_ : path_.substr(slash + 1);
}

std::vector<std::pair<std::uint64_t, std::string>>
CheckpointStore::Generations() {
  std::vector<std::pair<std::uint64_t, std::string>> generations;
  const std::string prefix = base_ + ".g";
  for (const auto& name : env_.List(dir_)) {
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    const std::string digits = name.substr(prefix.size());
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;  // .corrupt remnants and other non-generation names
    }
    generations.emplace_back(std::strtoull(digits.c_str(), nullptr, 10),
                             dir_ + "/" + name);
  }
  std::sort(generations.begin(), generations.end());
  return generations;
}

storage::Error CheckpointStore::Save(const Checkpoint& checkpoint) {
  if (auto error =
          storage::AtomicWrite(env_, path_, EncodeCheckpoint(checkpoint));
      !error.ok()) {
    return error;
  }
  if (keep_ <= 1) return {};

  const std::uint64_t generation = checkpoint.stats.checkpoints_written;
  const std::string gen_path = path_ + ".g" + std::to_string(generation);
  if (env_.Exists(gen_path)) env_.Remove(gen_path);  // stale rerun leftover
  if (auto error = env_.Link(path_, gen_path); !error.ok()) return error;
  for (const auto& [gen, stale_path] : Generations()) {
    if (gen + static_cast<std::uint64_t>(keep_) <= generation) {
      env_.Remove(stale_path);
    }
  }
  return env_.SyncDir(dir_);
}

std::optional<Checkpoint> CheckpointStore::Load(std::uint64_t fingerprint,
                                                RecoveryEvents& events) {
  if (!env_.Exists(path_)) {
    // The primary file was never written or was deliberately deleted: a
    // fresh campaign. Stale generations from an earlier run must not
    // resurrect it behind the caller's back.
    DiscardGenerations();
    return std::nullopt;
  }

  std::vector<std::string> candidates{path_};
  auto generations = Generations();
  for (auto it = generations.rbegin(); it != generations.rend(); ++it) {
    candidates.push_back(it->second);
  }

  for (const auto& candidate : candidates) {
    // Through the Map seam: a v3 candidate decodes straight out of the
    // mapping (bulk column copies, no row-by-row pass over a heap
    // buffer); envs without real mmap fall back to a read, and decode
    // semantics are identical either way.
    storage::MappedRegion region;
    if (auto error = env_.Map(candidate, region); !error.ok()) continue;
    CheckpointLoadReport report;
    auto checkpoint = DecodeCheckpoint(region.bytes(), &report);
    if (!checkpoint) {
      events.corrupt_sections +=
          static_cast<std::uint64_t>(std::max(report.corrupt_sections, 1));
      ++events.generations_discarded;
      // Quarantine the damaged file for post-mortem; the next Save must
      // not hard-link on top of it either way.
      env_.Remove(candidate + ".corrupt");
      env_.Rename(candidate, candidate + ".corrupt");
      continue;
    }
    if (checkpoint->fingerprint != fingerprint) continue;
    if (candidate != path_) ++events.recoveries;
    return checkpoint;
  }
  return std::nullopt;
}

void CheckpointStore::DiscardGenerations() {
  const std::string prefix = base_ + ".g";
  for (const auto& name : env_.List(dir_)) {
    const bool generation_file =
        name.compare(0, prefix.size(), prefix) == 0;
    const bool remnant =
        name == base_ + ".corrupt" || name == base_ + ".tmp";
    if (generation_file || remnant) env_.Remove(dir_ + "/" + name);
  }
}

}  // namespace sleepwalk::core
