// sleepwalk_cli: the measurement system as a command-line tool.
//
//   measure  — generate a world, run a probing campaign, save a dataset
//   analyze  — load a dataset and print the diurnal summary
//   compare  — agreement matrix between two datasets (paper Table 2)
//   block    — per-block detail: daily profile, spectrum, classification
//
// Examples:
//   sleepwalk_cli measure --blocks 2000 --days 7 --seed 42
//       --out /tmp/a12w.slpw
//   sleepwalk_cli analyze --in /tmp/a12w.slpw
//   sleepwalk_cli measure --site 2 --out /tmp/a12j.slpw
//   sleepwalk_cli compare --a /tmp/a12w.slpw --b /tmp/a12j.slpw
//   sleepwalk_cli block --in /tmp/a12w.slpw --index 3
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <iostream>
#include <map>
#include <span>
#include <sstream>
#include <string>

#include "sleepwalk/sleepwalk.h"

namespace {

using namespace sleepwalk;

/// Minimal --flag value parser.
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i + 1 < argc; i += 2) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) continue;
      values_[key.substr(2)] = argv[i + 1];
    }
  }

  std::string Get(const std::string& key,
                  const std::string& fallback = "") const {
    const auto it = values_.find(key);
    return it != values_.end() ? it->second : fallback;
  }

  long GetInt(const std::string& key, long fallback) const {
    const auto text = Get(key);
    return text.empty() ? fallback : std::atol(text.c_str());
  }

  double GetDouble(const std::string& key, double fallback) const {
    const auto text = Get(key);
    return text.empty() ? fallback : std::atof(text.c_str());
  }

  bool Has(const std::string& key) const {
    return values_.count(key) != 0;
  }

 private:
  std::map<std::string, std::string> values_;
};

int Usage() {
  std::cout <<
      "usage: sleepwalk_cli <command> [--flag value ...]\n"
      "  measure --out FILE [--blocks N] [--days D] [--seed S] [--site K]\n"
      "          [--workers W] [--loss P] [--burst P] [--rate-limit N]\n"
      "          [--dead N] [--checkpoint FILE] [--checkpoint-every R]\n"
      "          [--checkpoint-blocks B] [--checkpoint-keep K]\n"
      "          [--failpoints SPEC]\n"
      "          [--log-level L] [--log-json FILE] [--metrics-out FILE]\n"
      "          [--trace-out FILE] [--trace-chrome FILE]\n"
      "          [--admin-port P] [--admin-port-file FILE]\n"
      "      generate a simulated world and run a probing campaign\n"
      "      sharded over --workers threads (default: hardware\n"
      "      concurrency; results are byte-identical for any W);\n"
      "      fault flags inject deterministic measurement-plane breakage\n"
      "      (--loss: i.i.d. drop rate; --burst: long-run Gilbert-Elliott\n"
      "      bursty loss; --dead: first N blocks error persistently) and\n"
      "      --checkpoint makes the campaign killable/resumable\n"
      "      (--checkpoint-blocks widens the save stride to every B\n"
      "      finished blocks, trading crash redo-work for less I/O;\n"
      "      --checkpoint-keep retains the last K generations as\n"
      "      FILE.g<N> hard links and self-heals from the newest intact\n"
      "      one when FILE is corrupt; default 3).\n"
      "      --failpoints injects deterministic storage failures, e.g.\n"
      "      'storage.append=eio@3' (3rd append fails), '*=crash@17'\n"
      "      (process dies at the 17th storage op, exit 42),\n"
      "      'storage.sync=enospc%0.01' (1% of fsyncs report ENOSPC).\n"
      "      Telemetry (inert; results are byte-identical either way):\n"
      "      --log-level trace|debug|info|warn|error|off adds a text log\n"
      "      on stderr, --log-json a structured JSONL event log,\n"
      "      --metrics-out a metrics dump (Prometheus text, or CSV when\n"
      "      FILE ends in .csv), --trace-out a flame-ordered phase trace,\n"
      "      --trace-chrome the same spans as a chrome://tracing /\n"
      "      Perfetto trace-event JSON array.\n"
      "      --admin-port P serves GET /metrics /healthz /statusz /tracez\n"
      "      on 127.0.0.1:P (0 picks a free port) while the campaign\n"
      "      runs — a read-only observer; results stay byte-identical.\n"
      "      --admin-port-file FILE writes the bound port for scripts.\n"
      "      The dataset is written as SLPW v3 (columnar, zero-copy).\n"
      "  analyze --in FILE [--workers W]\n"
      "      diurnal summary of a saved SLPW v3 dataset (re-classified\n"
      "      on --workers threads)\n"
      "  compare --a FILE --b FILE\n"
      "      cross-dataset agreement matrix (paper Table 2)\n"
      "  block --in FILE (--index I | --prefix a.b.c/24)\n"
      "      one block's series, daily profile and classification\n";
  return 2;
}

/// Owns the telemetry sinks behind one obs::Context for a CLI run.
/// Simulation campaigns are deterministic, so the logger/tracer never
/// read a wall clock and same-seed runs emit byte-identical files.
class ObsSinks {
 public:
  explicit ObsSinks(const Flags& flags)
      : logger_{obs::LogConfig{
            obs::ParseLevel(flags.Get("log-level"), obs::Level::kInfo),
            /*deterministic=*/true}},
        metrics_path_{flags.Get("metrics-out")},
        trace_path_{flags.Get("trace-out")},
        chrome_path_{flags.Get("trace-chrome")},
        admin_{flags.Has("admin-port")} {
    if (flags.Has("log-level")) logger_.AddTextSink(&std::cerr);
    if (const auto path = flags.Get("log-json"); !path.empty()) {
      jsonl_.open(path, std::ios::trunc);
      if (jsonl_) {
        logger_.AddJsonlSink(&jsonl_);
      } else {
        std::cerr << "measure: cannot open --log-json " << path << "\n";
      }
    }
  }

  obs::Context Context() {
    obs::Context context;
    if (logger_.Enabled(logger_.config().level)) context.log = &logger_;
    // The admin server scrapes the registry and tracer live, so enable
    // both whenever it is attached even without output files.
    if (!metrics_path_.empty() || admin_) context.metrics = &registry_;
    if (!trace_path_.empty() || !chrome_path_.empty() || admin_) {
      context.tracer = &tracer_;
    }
    return context;
  }

  const obs::Registry& registry() const { return registry_; }
  const obs::Tracer& tracer() const { return tracer_; }

  /// Writes the metrics and trace files through the storage seam
  /// (atomic replace; failpoint-injectable); false on any I/O error.
  bool Flush(storage::Env& env) {
    bool ok = true;
    if (!metrics_path_.empty()) {
      std::ostringstream out;
      const auto n = metrics_path_.size();
      if (n >= 4 && metrics_path_.compare(n - 4, 4, ".csv") == 0) {
        registry_.WriteCsv(out);
      } else {
        registry_.WritePrometheus(out);
      }
      if (const auto error = WriteText(env, metrics_path_, out.str());
          !error.ok()) {
        std::cerr << "measure: cannot write --metrics-out "
                  << error.ToString() << "\n";
        ok = false;
      }
    }
    if (!trace_path_.empty()) {
      std::ostringstream out;
      tracer_.WriteJsonl(out);
      if (const auto error = WriteText(env, trace_path_, out.str());
          !error.ok()) {
        std::cerr << "measure: cannot write --trace-out "
                  << error.ToString() << "\n";
        ok = false;
      }
    }
    if (!chrome_path_.empty()) {
      std::ostringstream out;
      obs::WriteChromeTrace(tracer_, out);
      if (const auto error = WriteText(env, chrome_path_, out.str());
          !error.ok()) {
        std::cerr << "measure: cannot write --trace-chrome "
                  << error.ToString() << "\n";
        ok = false;
      }
    }
    return ok;
  }

 private:
  static storage::Error WriteText(storage::Env& env, const std::string& path,
                                  const std::string& text) {
    return storage::AtomicWrite(
        env, path,
        std::span{reinterpret_cast<const std::uint8_t*>(text.data()),
                  text.size()});
  }

  obs::Logger logger_;
  obs::Registry registry_;
  obs::Tracer tracer_;
  std::ofstream jsonl_;
  std::string metrics_path_;
  std::string trace_path_;
  std::string chrome_path_;
  bool admin_;
};

/// One worker's private transport chain for the parallel executor: a
/// simulated network plus the fault / instrumentation decorator. Every
/// worker is built from the SAME seeds and the SAME fault plan — probe
/// outcomes are keyed (stateless) functions of (target, when), so
/// identically configured chains are interchangeable and results do not
/// depend on which worker measures which block.
class CliShardChain final : public core::ShardChain {
 public:
  CliShardChain(const sim::SimWorld& world, std::uint64_t site_seed,
                const faults::FaultPlan& plan, bool faulty)
      : transport_{world.MakeTransport(site_seed)},
        faulty_{faulty},
        faulty_transport_{*transport_, plan},
        instrumented_{*transport_, obs::Context{}} {}

  net::Transport& transport() override {
    return faulty_ ? static_cast<net::Transport&>(faulty_transport_)
                   : static_cast<net::Transport&>(instrumented_);
  }

  void AttachObs(const obs::Context& context) override {
    if (faulty_) {
      faulty_transport_.AttachObs(context);
    } else {
      instrumented_.AttachObs(context);
    }
  }

  report::ProbeAccounting accounting() const override {
    return faulty_ ? faulty_transport_.accounting()
                   : instrumented_.accounting();
  }

 private:
  std::unique_ptr<sim::SimTransport> transport_;
  bool faulty_;
  faults::FaultyTransport faulty_transport_;
  net::InstrumentedTransport instrumented_;
};

int CmdMeasure(const Flags& flags) {
  const auto out = flags.Get("out");
  if (out.empty()) {
    std::cerr << "measure: --out FILE is required\n";
    return 2;
  }
  sim::WorldConfig world_config;
  world_config.total_blocks =
      static_cast<int>(flags.GetInt("blocks", 1000));
  world_config.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  const int days = static_cast<int>(flags.GetInt("days", 7));
  const auto site = static_cast<std::uint64_t>(flags.GetInt("site", 1));

  std::cout << "generating ~" << world_config.total_blocks
            << " blocks (seed " << world_config.seed << ")...\n";
  const auto world = sim::SimWorld::Generate(world_config);

  const int workers =
      static_cast<int>(flags.GetInt("workers", core::HardwareWorkers()));
  std::cout << "measuring " << world.blocks().size() << " blocks for "
            << days << " days from site " << site << " on "
            << std::max(workers, 1) << " worker(s)...\n";
  const std::uint64_t site_seed = site * 0x9e3779b9ULL + 1;
  std::vector<core::BlockTarget> targets;
  for (const auto& block : world.blocks()) {
    targets.push_back({block.spec.block, sim::EverActiveOctets(block.spec),
                       sim::TrueAvailability(block.spec, 13 * 3600)});
  }
  core::SupervisorConfig config;
  config.seed = site;
  config.checkpoint_path = flags.Get("checkpoint");
  config.checkpoint_every_rounds = flags.GetInt("checkpoint-every", 500);
  config.checkpoint_every_blocks =
      static_cast<int>(flags.GetInt("checkpoint-blocks", 1));
  config.checkpoint_keep =
      static_cast<int>(flags.GetInt("checkpoint-keep", 3));
  const probing::RoundScheduler scheduler{config.analyzer.schedule};

  // Deterministic storage-fault injection: every persisted byte (dataset,
  // checkpoints, telemetry) then flows through the faulty env.
  util::FailpointSet failpoints{world_config.seed};
  storage::FaultyEnv faulty_env{storage::RealEnvInstance(), failpoints};
  if (flags.Has("failpoints")) {
    std::string failpoint_error;
    if (!util::FailpointSet::Parse(flags.Get("failpoints"), failpoints,
                                   &failpoint_error)) {
      std::cerr << "measure: bad --failpoints: " << failpoint_error << "\n";
      return 2;
    }
    config.env = &faulty_env;
  }
  storage::Env& env =
      config.env != nullptr ? *config.env : storage::RealEnvInstance();

  // Optional fault plan: deterministic loss / rate limiting / dead blocks
  // injected between the prober and the (simulated) network.
  faults::FaultPlan plan;
  plan.seed = world_config.seed;
  plan.iid_loss = flags.GetDouble("loss", 0.0);
  if (const double burst = flags.GetDouble("burst", 0.0); burst > 0.0) {
    plan.burst.enabled = true;
    const double bad = burst / plan.burst.loss_bad;
    plan.burst.p_good_to_bad =
        bad < 1.0 ? plan.burst.p_bad_to_good * bad / (1.0 - bad) : 1.0;
  }
  plan.rate_limit_per_window =
      static_cast<int>(flags.GetInt("rate-limit", 0));
  const auto dead = flags.GetInt("dead", 0);
  for (long i = 0; i < dead && i < static_cast<long>(targets.size()); ++i) {
    plan.dead_blocks.insert(
        targets[static_cast<std::size_t>(i)].block.Index());
  }
  const bool faulty = plan.iid_loss > 0.0 || plan.burst.enabled ||
                      plan.rate_limit_per_window > 0 ||
                      !plan.dead_blocks.empty();

  // Telemetry: the faulty transport counts its own probes (it can
  // attribute rate-limited drops precisely); a clean stack gets the same
  // probe accounting from the InstrumentedTransport decorator. The
  // executor re-points each chain's instruments at per-block buffered
  // sinks, so counters land in the campaign registry in block order.
  ObsSinks sinks{flags};
  config.obs = sinks.Context();
  const core::ShardFactory factory = [&](std::size_t) {
    return std::make_unique<CliShardChain>(world, site_seed, plan, faulty);
  };

  // Optional admin plane: a loopback HTTP server observing the campaign
  // read-only. The hub outlives the campaign; the campaign attaches its
  // status provider for the duration of the run.
  core::StatusHub status_hub;
  serve::AdminServer admin;
  if (flags.Has("admin-port")) {
    config.status = &status_hub;
    serve::AdminPlane plane;
    plane.metrics = &sinks.registry();
    plane.tracer = &sinks.tracer();
    plane.status = &status_hub;
    serve::InstallAdminRoutes(admin, plane);
    std::string admin_error;
    const auto port =
        static_cast<std::uint16_t>(flags.GetInt("admin-port", 0));
    if (!admin.Start(port, &admin_error)) {
      std::cerr << "measure: cannot start admin server: " << admin_error
                << "\n";
      return 1;
    }
    std::cerr << "admin server on 127.0.0.1:" << admin.port() << "\n";
    if (const auto path = flags.Get("admin-port-file"); !path.empty()) {
      std::ofstream port_file{path, std::ios::trunc};
      port_file << admin.port() << "\n";
      if (!port_file) {
        std::cerr << "measure: cannot write --admin-port-file " << path
                  << "\n";
        return 1;
      }
    }
  }

  // Live heartbeat on stderr, fed by the supervisor after every block.
  config.progress = [](const core::CampaignProgress& p) {
    std::cerr << "\r[" << p.blocks_done << "/" << p.blocks_total
              << "] blocks  rounds " << p.rounds_done;
    if (p.rounds_per_sec > 0.0) {
      std::cerr << " (" << static_cast<long>(p.rounds_per_sec) << "/s)";
    }
    if (p.quarantined > 0) std::cerr << "  quarantined " << p.quarantined;
    if (const double eta = p.CheckpointEtaSec(); eta >= 0.0) {
      std::cerr << "  next ckpt ~" << static_cast<long>(eta) << "s";
    }
    std::cerr << "   " << std::flush;
  };

  core::ParallelConfig parallel;
  parallel.workers = workers;
  const auto outcome = core::RunParallelCampaign(
      std::move(targets), factory, scheduler.RoundsForDays(days), config,
      parallel);
  std::cerr << "\n";
  const auto& result = outcome.result;

  const auto write_error = core::WriteDatasetColumnar(
      env, out, result.analyses, config.analyzer.schedule.round_seconds,
      config.analyzer.schedule.epoch_sec);
  if (!write_error.ok()) {
    std::cerr << "measure: cannot write " << out << ": "
              << write_error.ToString() << "\n";
    return 1;
  }
  std::cout << "measured " << result.counts.probed() << " blocks ("
            << result.counts.skipped << " skipped); strict diurnal "
            << report::Percent(result.counts.StrictFraction(), 1)
            << "; dataset written to " << out << "\n";
  if (outcome.resumed) std::cout << "resumed from checkpoint\n";
  for (const auto& prefix : outcome.quarantined) {
    std::cout << "quarantined " << prefix.ToString() << "\n";
  }
  if (faulty || !config.checkpoint_path.empty()) {
    // The executor folds per-block probe-accounting deltas into
    // outcome.stats in commit order; no manual merge needed.
    report::PrintResilienceReport(std::cout, outcome.stats);
  }
  if (!sinks.Flush(env)) return 1;
  return 0;
}

int CmdAnalyze(const Flags& flags) {
  const auto in = flags.Get("in");
  const auto dataset = core::ReadDataset(in);
  if (!dataset) {
    std::cerr << "analyze: cannot read " << in << "\n";
    return 1;
  }
  core::AnalyzerConfig config;
  config.schedule.round_seconds = dataset->round_seconds;

  std::int64_t strict = 0;
  std::int64_t relaxed = 0;
  std::int64_t non_diurnal = 0;
  std::int64_t skipped = 0;
  std::int64_t stationary = 0;
  const auto analyses = core::ReanalyzeDataset(
      *dataset, config, static_cast<int>(flags.GetInt("workers", 0)));
  for (const auto& analysis : analyses) {
    if (!analysis.probed || analysis.observed_days < 2) {
      ++skipped;
      continue;
    }
    if (analysis.stationarity.stationary) ++stationary;
    switch (analysis.diurnal.classification) {
      case core::Diurnality::kStrictlyDiurnal: ++strict; break;
      case core::Diurnality::kRelaxedDiurnal: ++relaxed; break;
      case core::Diurnality::kNonDiurnal: ++non_diurnal; break;
    }
  }
  const auto analyzed = strict + relaxed + non_diurnal;
  report::TextTable table{{"metric", "value"}};
  table.AddRow({"blocks in dataset",
                report::WithCommas(
                    static_cast<long long>(dataset->blocks.size()))});
  table.AddRow({"analyzable", report::WithCommas(analyzed)});
  table.AddRow({"skipped (sparse/short)", report::WithCommas(skipped)});
  table.AddRow({"strictly diurnal",
                report::WithCommas(strict) + " (" +
                    report::Percent(analyzed > 0
                                        ? static_cast<double>(strict) /
                                              analyzed : 0.0, 1) + ")"});
  table.AddRow({"relaxed diurnal", report::WithCommas(relaxed)});
  table.AddRow({"non-diurnal", report::WithCommas(non_diurnal)});
  table.AddRow({"stationary",
                report::Percent(analyzed > 0
                                    ? static_cast<double>(stationary) /
                                          analyzed : 0.0, 1)});
  table.Print(std::cout);
  return 0;
}

int CmdCompare(const Flags& flags) {
  const auto a = core::ReadDataset(flags.Get("a"));
  const auto b = core::ReadDataset(flags.Get("b"));
  if (!a || !b) {
    std::cerr << "compare: need readable --a and --b datasets\n";
    return 1;
  }
  core::AnalyzerConfig config;
  std::vector<core::BlockAnalysis> first;
  std::vector<core::BlockAnalysis> second;
  for (const auto& stored : a->blocks) {
    first.push_back(core::Reanalyze(stored, config));
  }
  for (const auto& stored : b->blocks) {
    second.push_back(core::Reanalyze(stored, config));
  }
  const auto matrix = core::CompareRuns(first, second);

  report::TextTable table{{"A \\ B", "d", "e", "N"}};
  const char* names[3] = {"d (strict)", "e (relaxed)", "N (neither)"};
  for (int r = 0; r < 3; ++r) {
    std::vector<std::string> cells{names[r]};
    for (int c = 0; c < 3; ++c) {
      cells.push_back(report::WithCommas(
          matrix.counts[static_cast<std::size_t>(r)]
                       [static_cast<std::size_t>(c)]));
    }
    table.AddRow(cells);
  }
  table.Print(std::cout);
  std::cout << "compared blocks: " << matrix.compared << "\n";
  if (matrix.StrictAtFirst() > 0) {
    std::cout << "of A's strict blocks, B finds strict again "
              << report::Percent(matrix.StrictAgain(), 1)
              << ", at least relaxed "
              << report::Percent(matrix.AtLeastRelaxed(), 1)
              << ", non-diurnal "
              << report::Percent(matrix.StrongDisagreement(), 1) << "\n";
  }
  return 0;
}

int CmdBlock(const Flags& flags) {
  const auto dataset = core::ReadDataset(flags.Get("in"));
  if (!dataset) {
    std::cerr << "block: cannot read --in dataset\n";
    return 1;
  }
  const core::StoredSeries* chosen = nullptr;
  if (const auto text = flags.Get("prefix"); !text.empty()) {
    const auto prefix = net::Prefix24::Parse(text);
    if (!prefix) {
      std::cerr << "block: cannot parse prefix " << text << "\n";
      return 2;
    }
    for (const auto& stored : dataset->blocks) {
      if (stored.block == *prefix) {
        chosen = &stored;
        break;
      }
    }
  } else {
    const auto index = static_cast<std::size_t>(flags.GetInt("index", 0));
    if (index < dataset->blocks.size()) chosen = &dataset->blocks[index];
  }
  if (chosen == nullptr) {
    std::cerr << "block: not found in dataset\n";
    return 1;
  }

  core::AnalyzerConfig config;
  config.schedule.round_seconds = dataset->round_seconds;
  const auto analysis = core::Reanalyze(*chosen, config);
  std::cout << "block " << chosen->block.ToString() << ": |E(b)| = "
            << chosen->ever_active << ", " << analysis.observed_days
            << " days, mean A-hat_s "
            << report::Fixed(analysis.mean_short, 3) << "\n"
            << "classification: "
            << (analysis.diurnal.IsStrict() ? "strictly diurnal"
                : analysis.diurnal.IsDiurnal() ? "relaxed diurnal"
                                               : "non-diurnal")
            << " (strongest "
            << report::Fixed(analysis.diurnal.strongest_cycles_per_day, 2)
            << " cycles/day, phase "
            << report::Fixed(analysis.diurnal.phase, 2) << " rad)\n";

  report::PrintSeries(std::cout, chosen->series.values, 72, 10,
                      "A-hat_s");
  const auto profile = core::ComputeDailyProfile(chosen->series.values,
                                                 dataset->round_seconds);
  std::cout << "daily profile: min "
            << report::Fixed(profile.minimum, 3) << " @ "
            << profile.min_hour << ":00 UTC, max "
            << report::Fixed(profile.maximum, 3) << " @ "
            << profile.max_hour << ":00 UTC, range "
            << report::Fixed(profile.Range(), 3) << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const Flags flags{argc, argv, 2};
  try {
    if (command == "measure") return CmdMeasure(flags);
    if (command == "analyze") return CmdAnalyze(flags);
    if (command == "compare") return CmdCompare(flags);
    if (command == "block") return CmdBlock(flags);
  } catch (const util::CrashInjected& crash) {
    // A --failpoints crash action fired: die the way a power cut would,
    // with a distinctive exit code the crash-consistency tests assert on.
    std::cerr << "simulated crash at " << crash.site << "\n";
    return 42;
  }
  return Usage();
}
