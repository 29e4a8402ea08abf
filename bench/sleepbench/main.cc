// sleepbench: runs one workload in this process and reports it.
//
//   sleepbench --workload NAME --seed N --seconds S --trace 0|1
//              [--smoke] [--out FILE] [--references FILE]
//              [--commit SHA] [--source DIGEST]
//
// Untraced (--trace 0): set up, one untimed warm-up rep at a quarter of
// the blocks, then timed reps until S seconds have passed (at least
// three), each after a set-up of its own; every end-to-end metric is the
// median over the reps (set-up time over the set-ups). Traced (--trace 1): set
// up once, warm up, two untraced reps (the second is the reference), the
// traced re-composition of the same rep, a quarter-scale
// 1-vs-all-workers scaling pair and, for probe_campaign, executor-vs-
// bare-loop pairs; reports the per-layer metrics and asserts the trace
// gates.
//
// The last stdout line is always the one-line JSON summary
// {"correct", "attempted", "failed", "metrics"}; --out receives the full
// result (provenance, sizes, per-rep summaries, checks, stage shares).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace sleepbench {
namespace {

constexpr std::size_t kMinReps = 3;
constexpr std::size_t kMaxReps = 64;
constexpr double kMiB = 1024.0 * 1024.0;
// How far (absolute share of the rep wall) a traced phase may drift from
// the same phase of the untraced rep.
constexpr double kMaxPhaseShareDrift = 0.10;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  bool smoke = false;
  std::string out;
  std::string references;
  std::string commit;
  std::string source;
};

[[noreturn]] void Usage(const std::string& problem) {
  std::cerr << "sleepbench: " << problem << "\n"
            << "usage: sleepbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--smoke] [--out FILE] [--references FILE]\n"
            << "workloads:";
  for (const auto name : kWorkloadNames) std::cerr << " " << name;
  std::cerr << "\n";
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
        args.traced = value == "1";
      } else if (flag == "--out") {
        args.out = value;
      } else if (flag == "--references") {
        args.references = value;
      } else if (flag == "--commit") {
        args.commit = value;
      } else if (flag == "--source") {
        args.source = value;
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      Usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  return args;
}

std::unique_ptr<Workload> Make(const std::string& name, const Options& o) {
  if (name == "probe_campaign") return MakeProbeCampaign(o);
  if (name == "store_campaign") return MakeStoreCampaign(o);
  if (name == "reanalyze") return MakeReanalyze(o);
  if (name == "checkpoint_resume") return MakeCheckpointResume(o);
  Usage("unknown workload " + name);
}

/// Recorded output digest for (workload, scale, seed), or "" when the
/// seed has none. File lines: `workload full|smoke seed 0xdigest`.
std::string ReferenceDigest(const Args& args) {
  std::ifstream in{args.references};
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields{line};
    std::string workload, scale, seed, digest;
    fields >> workload >> scale >> seed >> digest;
    if (workload == args.workload && scale == (args.smoke ? "smoke" : "full") &&
        seed == std::to_string(args.seed)) {
      return digest;
    }
  }
  return {};
}

struct Metric {
  std::string name;
  std::string unit;
  Summary summary;
  std::vector<double> samples;  ///< one per rep (or set-up), in order
};

std::string MetricsJson(const std::vector<Metric>& metrics, bool full) {
  JsonObject object;
  for (const auto& m : metrics) {
    JsonObject entry;
    entry.Add("value", m.summary.median).Add("unit", m.unit);
    if (full) {
      entry.Add("median", m.summary.median)
          .Add("q1", m.summary.q1)
          .Add("q3", m.summary.q3)
          .Add("min", m.summary.min)
          .Add("max", m.summary.max)
          .Add("n", static_cast<std::uint64_t>(m.summary.n));
      entry.AddRaw("samples", JsonArray(m.samples));
    }
    object.AddRaw(m.name, entry.str());
  }
  return object.str();
}

std::string VerdictsJson(const Verdicts& v) {
  return JsonObject{}
      .Add("strict", v.strict)
      .Add("relaxed", v.relaxed)
      .Add("non_diurnal", v.non_diurnal)
      .Add("skipped", v.skipped)
      .str();
}

std::string ProvenanceJson(const Provenance& p) {
  return JsonObject{}
      .Add("nproc", p.nproc)
      .Add("hardware_workers", p.hardware_workers)
      .Add("workers", p.workers)
      .Add("cpu_model", p.cpu_model)
      .Add("compiler", p.compiler)
      .Add("build_type", p.build_type)
      .Add("commit", p.commit)
      .Add("source", p.source)
      .str();
}

/// Everything a run accumulates toward its result.
struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> failures;  ///< failed checks and gates
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;
  Verdicts verdicts;
  JsonObject extra;  ///< mode-specific members of the result file

  void Fail(const std::string& what) { failures.push_back(what); }
  /// Records the failed checks of a rep that is not itself tallied.
  void Expect(const RepOutcome& rep, const std::string& label) {
    for (const auto& error : rep.errors) Fail(label + ": " + error);
  }
  void Add(const std::string& name, const std::string& unit,
           std::vector<double> samples) {
    metrics.push_back({name, unit, Summarize(samples), std::move(samples)});
  }
  void Add(const std::string& name, const std::string& unit, double value) {
    Add(name, unit, std::vector<double>{value});
  }
};

/// Fails every block of a rep that did not pass its checks.
void Tally(const RepOutcome& rep, const std::string& label, bool digest_ok,
           Report& report) {
  report.attempted += rep.blocks;
  bool ok = digest_ok;
  if (!digest_ok) report.Fail(label + ": output digest " + Hex(rep.digest) +
                              " differs from the reference");
  for (const auto& error : rep.errors) {
    report.Fail(label + ": " + error);
    ok = false;
  }
  report.failed += ok ? rep.quarantined : rep.blocks;
}

std::vector<double> Per(const std::vector<RepOutcome>& reps,
                        double (*f)(const RepOutcome&)) {
  std::vector<double> values;
  for (const auto& rep : reps) values.push_back(f(rep));
  return values;
}

void RunUntraced(Workload& workload, const Args& args, int workers,
                 const std::string& reference, Report& report) {
  // Every rep runs on a set-up of its own, so the set-up samples spread
  // over the whole run as the reps do: the host's speed shifts within
  // seconds, and set-ups taken back to back would all see one moment.
  std::vector<double> setup_s;
  std::uint64_t setup_digest = 0;
  const auto setup = [&] {
    const auto t0 = Clock::now();
    workload.Setup(nullptr);
    setup_s.push_back(Seconds(t0, Clock::now()));
    const auto digest = workload.SetupDigest();
    if (setup_s.size() == 1) setup_digest = digest;
    if (digest != setup_digest) report.Fail("set-up is not deterministic");
  };

  setup();
  report.Expect(workload.Run(/*quarter=*/true, workers), "warm-up");

  std::vector<RepOutcome> reps;
  const auto start = Clock::now();
  while (reps.size() < kMinReps ||
         (Seconds(start, Clock::now()) < args.seconds && reps.size() < kMaxReps)) {
    setup();
    reps.push_back(workload.Run(/*quarter=*/false, workers));
  }
  const std::uint64_t expect =
      reference.empty() ? reps.front().digest
                        : std::strtoull(reference.c_str(), nullptr, 16);
  for (std::size_t i = 0; i < reps.size(); ++i) {
    Tally(reps[i], "rep " + std::to_string(i), reps[i].digest == expect,
          report);
  }
  report.digest = reps.front().digest;
  report.verdicts = reps.front().verdicts;

  report.Add("setup_s", "s", setup_s);
  report.Add("block_rounds_per_s", "block-rounds/s",
             Per(reps, [](const RepOutcome& r) { return r.block_rounds / r.work_s; }));
  report.Add("classify_blocks_per_s", "blocks/s",
             Per(reps, [](const RepOutcome& r) {
               return r.classify_blocks / r.classify_s;
             }));
  report.Add("resume_s", "s",
             Per(reps, [](const RepOutcome& r) { return r.resume_s; }));
  report.Add("peak_rss_mb", "MB", PeakRssMb());
  report.Add("artifact_mb", "MB",
             static_cast<double>(reps.front().artifact_bytes) / kMiB);

  report.extra.Add("reps", static_cast<std::uint64_t>(reps.size()));
  if (const auto truth = workload.ScoreTruth()) {
    report.extra.AddRaw("truth", JsonObject{}
                              .Add("precision", truth->precision())
                              .Add("recall", truth->recall())
                              .Add("true_positive", truth->true_positive)
                              .Add("false_positive", truth->false_positive)
                              .Add("false_negative", truth->false_negative)
                              .str());
  }
}

void RunTraced(Workload& workload, int workers, const std::string& reference,
               Report& report) {
  Worker setup;
  workload.Setup(&setup);
  report.Expect(workload.Run(/*quarter=*/true, workers), "warm-up");
  // The first full-size rep still grows the heap to its full size (the
  // quarter-scale warm-up cannot), so the reference is the second one.
  report.Expect(workload.Run(/*quarter=*/false, workers), "untraced");
  const auto untraced = workload.Run(/*quarter=*/false, workers);
  report.Expect(untraced, "untraced");
  const std::uint64_t expect =
      reference.empty() ? untraced.digest
                        : std::strtoull(reference.c_str(), nullptr, 16);
  if (untraced.digest != expect) {
    report.Fail("untraced: output digest differs from the reference");
  }

  Trace trace(workers);
  const auto traced = workload.RunTraced(trace);
  // A traced run that classifies differently measures another program.
  Tally(traced, "traced",
        traced.digest == expect && traced.verdicts == untraced.verdicts,
        report);
  report.digest = traced.digest;
  report.verdicts = traced.verdicts;

  const auto one = workload.Run(/*quarter=*/true, 1);
  const auto all = workload.Run(/*quarter=*/true, workers);
  report.Expect(one, "scaling");
  report.Expect(all, "scaling");
  const double efficiency = (all.block_rounds / all.work_s) /
                            (one.block_rounds / one.work_s) / workers;
  const double executor_overhead = workload.ExecutorOverheadFrac(workers);

  // The traced run's phases must take the share of the rep that the
  // untraced run's take: a re-composition that stopped timing like the
  // library's orchestration would otherwise book time to the wrong
  // stages with every digest still matching.
  const auto share = [](double phase_s, double rep_s) {
    return rep_s > 0.0 ? phase_s / rep_s : 0.0;
  };
  const double work_share = share(untraced.work_s, untraced.rep_wall_s);
  const double classify_share =
      share(untraced.classify_s, untraced.rep_wall_s);
  const double traced_work_share = share(traced.work_s, traced.rep_wall_s);
  const double traced_classify_share =
      share(traced.classify_s, traced.rep_wall_s);
  const double phase_drift =
      std::max(std::abs(traced_work_share - work_share),
               std::abs(traced_classify_share - classify_share));

  const auto& t = trace.totals();
  const auto self = [&](Stage s) { return t[s]; };
  const double block_rounds = trace.count("block_rounds");
  report.Add("sim.generate.self_s", "s", setup.ledger[Stage::kSimGenerate]);
  report.Add("transport.self_s", "s", self(Stage::kTransport));
  report.Add("transport.calls", "count", trace.count("transport.calls"));
  report.Add("probe.round.self_s", "s", self(Stage::kProbeRound));
  report.Add("probe.probes_per_round", "count",
             block_rounds > 0 ? trace.count("transport.calls") / block_rounds
                              : 0.0);
  report.Add("analyze.finish.self_s", "s", self(Stage::kAnalyzeFinish));
  report.Add("dataset.write.self_s", "s", self(Stage::kDatasetWrite));
  report.Add("dataset.bytes", "bytes", trace.count("dataset.bytes"));
  report.Add("executor.overhead_frac", "fraction", executor_overhead);
  report.Add("store.seed.self_s", "s", self(Stage::kStoreSeed));
  report.Add("sim.round.self_s", "s", self(Stage::kSimRound));
  report.Add("estimator.observe.self_s", "s", self(Stage::kEstimatorObserve));
  report.Add("series.append.self_s", "s", self(Stage::kSeriesAppend));
  report.Add("segment.join_wait_s", "s", trace.join_wait_s());
  report.Add("analyze.copy.self_s", "s", self(Stage::kAnalyzeCopy));
  report.Add("analyze.regularize.self_s", "s", self(Stage::kAnalyzeRegularize));
  report.Add("analyze.trim.self_s", "s", self(Stage::kAnalyzeTrim));
  report.Add("analyze.stationarity.self_s", "s",
             self(Stage::kAnalyzeStationarity));
  report.Add("analyze.fft.self_s", "s", self(Stage::kAnalyzeFft));
  report.Add("dataset.map.self_s", "s", self(Stage::kDatasetMap));
  report.Add("checkpoint.encode.self_s", "s", self(Stage::kCheckpointEncode));
  report.Add("checkpoint.encode.p50_ms", "ms",
             1e3 * trace.SerialP50(Stage::kCheckpointEncode));
  report.Add("checkpoint.bytes", "bytes", trace.count("checkpoint.bytes"));
  report.Add("checkpoint.write.self_s", "s", self(Stage::kCheckpointWrite));
  report.Add("checkpoint.write.p50_ms", "ms",
             1e3 * trace.SerialP50(Stage::kCheckpointWrite));
  report.Add("storage.bytes_written", "bytes",
             trace.count("storage.bytes_written"));
  report.Add("checkpoint.map.self_s", "s", self(Stage::kCheckpointMap));
  report.Add("checkpoint.decode.self_s", "s", self(Stage::kCheckpointDecode));
  report.Add("store.digest.self_s", "s", self(Stage::kStoreDigest));
  report.Add("worker.idle_s", "s", trace.idle_s());
  report.Add("scaling.efficiency", "fraction", efficiency);
  report.Add("trace.coverage", "fraction", trace.coverage());
  report.Add("trace.overhead", "fraction",
             trace.wall_s() / untraced.rep_wall_s - 1.0);

  std::vector<Gate> gates = {
      {"trace.coverage", trace.coverage(), 0.95, 1.05},
      {"trace.phase_share_drift", phase_drift, 0.0, kMaxPhaseShareDrift}};
  for (auto& gate : workload.ShapeGates(trace)) gates.push_back(gate);
  std::vector<std::string> gates_json;
  for (const auto& gate : gates) {
    if (!gate.ok()) {
      report.Fail("gate " + gate.name + " = " + JsonNumber(gate.value) +
                  " outside [" + JsonNumber(gate.min) + ", " +
                  JsonNumber(gate.max) + "]");
    }
    gates_json.push_back(JsonObject{}
                             .Add("name", gate.name)
                             .Add("value", gate.value)
                             .Add("min", gate.min)
                             .Add("max", gate.max)
                             .Add("ok", gate.ok())
                             .str());
  }

  JsonObject stages;
  for (std::size_t s = 0; s < kStageCount; ++s) {
    const auto stage = static_cast<Stage>(s);
    if (t.calls[s] == 0) continue;
    stages.AddRaw(StageName(stage),
                  JsonObject{}
                      .Add("self_s", t.seconds[s])
                      .Add("calls", t.calls[s])
                      .Add("busy_share", trace.BusyShare({stage}))
                      .Add("wall_share", trace.WallShare({stage}))
                      .str());
  }
  report.extra.AddRaw("gates", JsonArray(gates_json))
      .AddRaw("stages", stages.str())
      .AddRaw("trace", JsonObject{}
                           .Add("wall_s", trace.wall_s())
                           .Add("untraced_wall_s", untraced.rep_wall_s)
                           .Add("busy_s", trace.busy_s())
                           .Add("join_wait_s", trace.join_wait_s())
                           .Add("idle_s", trace.idle_s())
                           .Add("work_share", traced_work_share)
                           .Add("untraced_work_share", work_share)
                           .Add("classify_share", traced_classify_share)
                           .Add("untraced_classify_share", classify_share)
                           .str());
}

int Main(int argc, char** argv) {
  // When the run began: compare pairs the runs of two sides in this order.
  const auto started_unix_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  const Args args = Parse(argc, argv);
  const Provenance provenance = DetectProvenance(args.commit, args.source);
  Options options;
  options.seed = args.seed;
  options.workers = provenance.workers;
  options.smoke = args.smoke;
  const auto workload = Make(args.workload, options);
  const std::string reference = ReferenceDigest(args);

  Report report;
  if (args.traced) {
    RunTraced(*workload, provenance.workers, reference, report);
  } else {
    RunUntraced(*workload, args, provenance.workers, reference, report);
  }
  const bool correct = report.failures.empty() && report.failed == 0;

  std::cout << args.workload << " seed " << args.seed
            << (args.traced ? " traced" : "") << " on " << provenance.workers
            << " workers (" << provenance.cpu_model << ")\n";
  for (const auto& m : report.metrics) {
    std::cout << "  " << m.name << " = " << JsonNumber(m.summary.median)
              << " " << m.unit;
    if (m.summary.n > 1) {
      std::cout << "  (median of " << m.summary.n << ", min "
                << JsonNumber(m.summary.min) << ", max "
                << JsonNumber(m.summary.max) << ")";
    }
    std::cout << "\n";
  }
  for (const auto& failure : report.failures) {
    std::cout << "  FAILED: " << failure << "\n";
  }

  if (!args.out.empty()) {
    std::vector<std::string> failures;
    for (const auto& failure : report.failures) {
      failures.push_back(JsonQuote(failure));
    }
    JsonObject result;
    result.Add("schema", "sleepbench-result/1")
        .Add("workload", args.workload)
        .Add("seed", args.seed)
        .Add("started_unix_ns", started_unix_ns)
        .Add("mode", args.traced ? "traced" : "e2e")
        .Add("smoke", args.smoke)
        .Add("run_seconds", args.seconds)
        .AddRaw("provenance", ProvenanceJson(provenance))
        .AddRaw("sizes", workload->SizesJson())
        .Add("correct", correct)
        .Add("ops_attempted", report.attempted)
        .Add("ops_failed", report.failed)
        .AddRaw("failures", JsonArray(failures))
        .Add("digest", Hex(report.digest))
        .Add("reference_digest", reference)
        .AddRaw("verdicts", VerdictsJson(report.verdicts))
        .AddRaw("metrics", MetricsJson(report.metrics, /*full=*/true))
        .Append(report.extra);
    std::ofstream out{args.out, std::ios::trunc};
    out << result.str() << "\n";
    if (!out) {
      std::cerr << "sleepbench: cannot write " << args.out << "\n";
      return 1;
    }
  }

  std::cout << JsonObject{}
                   .Add("correct", correct)
                   .Add("attempted", std::max<std::uint64_t>(1, report.attempted))
                   .Add("failed", report.failed)
                   .AddRaw("metrics", MetricsJson(report.metrics, false))
                   .str()
            << std::endl;
  // A traced run that fails a check or a gate measured something other
  // than the workload it names: fail loudly.
  return args.traced && !correct ? 3 : 0;
}

}  // namespace
}  // namespace sleepbench

int main(int argc, char** argv) {
  try {
    return sleepbench::Main(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "sleepbench: " << error.what() << "\n";
    return 1;
  }
}
