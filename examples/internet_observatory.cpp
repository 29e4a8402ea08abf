// Internet observatory: the paper's full measurement loop on a small
// simulated Internet — generate a world, probe every block for a week,
// geolocate the measurements, and report where the Internet sleeps.
//
// Build & run:  ./build/examples/internet_observatory [blocks] [days]
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <map>

#include "sleepwalk/sleepwalk.h"

int main(int argc, char** argv) {
  using namespace sleepwalk;
  const int n_blocks = argc > 1 ? std::max(100, std::atoi(argv[1])) : 1500;
  const int days = argc > 2 ? std::max(3, std::atoi(argv[2])) : 7;

  std::cout << "generating a world of ~" << n_blocks << " /24 blocks...\n";
  sim::WorldConfig world_config;
  world_config.total_blocks = n_blocks;
  world_config.seed = 0x0b5e;
  world_config.min_blocks_per_country = 10;
  const auto world = sim::SimWorld::Generate(world_config);

  // Geolocation database with MaxMind-like coverage and error.
  const auto geodb = geo::GeoDatabase::FromTruth(
      world.TrueLocations(), geo::GeoDatabase::Options{});

  std::cout << "probing " << world.blocks().size() << " blocks for "
            << days << " days (11-minute rounds)...\n";
  auto transport = world.MakeTransport(/*site_seed=*/0xca11);
  std::vector<core::BlockTarget> targets;
  for (const auto& block : world.blocks()) {
    targets.push_back({block.spec.block, sim::EverActiveOctets(block.spec),
                       sim::TrueAvailability(block.spec, 13 * 3600)});
  }
  core::AnalyzerConfig config;
  const probing::RoundScheduler scheduler{config.schedule};
  const auto result = core::RunCampaign(
      std::move(targets), *transport, scheduler.RoundsForDays(days), config);

  std::cout << "measured: " << result.counts.probed() << " blocks ("
            << result.counts.skipped << " too sparse to probe)\n"
            << "strictly diurnal: "
            << report::Percent(result.counts.StrictFraction(), 1)
            << ", strict+relaxed: "
            << report::Percent(result.counts.EitherFraction(), 1) << "\n\n";

  // Aggregate by geolocated country.
  struct Agg {
    int blocks = 0;
    int diurnal = 0;
  };
  std::map<std::string, Agg> by_country;
  geo::GeoGrid grid{2.0};
  for (std::size_t i = 0; i < world.blocks().size(); ++i) {
    const auto& analysis = result.analyses[i];
    if (!analysis.probed || analysis.observed_days < 2) continue;
    const auto* location = geodb.Lookup(world.blocks()[i].spec.block);
    if (location == nullptr) continue;
    auto& agg = by_country[location->country_code];
    ++agg.blocks;
    if (analysis.diurnal.IsStrict()) ++agg.diurnal;
    grid.Add(location->latitude, location->longitude,
             analysis.diurnal.IsStrict());
  }

  struct Row {
    std::string code;
    int blocks;
    double fraction;
  };
  std::vector<Row> rows;
  for (const auto& [code, agg] : by_country) {
    if (agg.blocks < 10) continue;
    rows.push_back({code, agg.blocks,
                    static_cast<double>(agg.diurnal) / agg.blocks});
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.fraction > b.fraction; });

  report::TextTable table{{"country", "blocks", "frac. diurnal", "GDP"}};
  int shown = 0;
  for (const auto& row : rows) {
    const auto* info = world::FindCountry(row.code);
    table.AddRow({row.code, std::to_string(row.blocks),
                  report::Fixed(row.fraction, 3),
                  info != nullptr
                      ? "$" + report::WithCommas(static_cast<long long>(
                                  info->gdp_per_capita_usd))
                      : "?"});
    if (++shown >= 12) break;
  }
  std::cout << "most diurnal countries (>= 10 measured blocks):\n";
  table.Print(std::cout);

  std::cout << "\nwhere the Internet sleeps (diurnal fraction per cell):\n";
  report::PrintDensityGrid(std::cout,
                           grid.Coarsen(20, 64, /*fractions=*/true));

  // Persist the campaign: anyone can reload and re-analyze without
  // re-probing (the paper publishes its datasets the same way).
  const std::string dataset_path = "/tmp/sleepwalk_observatory.slpw";
  if (core::WriteDatasetColumnar(storage::RealEnvInstance(), dataset_path,
                                 result.analyses)
          .ok()) {
    const auto reloaded = core::ReadDataset(dataset_path);
    std::cout << "\ndataset saved to " << dataset_path << " ("
              << (reloaded ? reloaded->blocks.size() : 0u)
              << " blocks; reload verified)\n";
  }
  return 0;
}
