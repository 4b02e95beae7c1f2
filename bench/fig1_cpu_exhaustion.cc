// Reproduces Figure 1: false positives caused by CPU exhaustion. 100 nodes;
// a subset runs a starvation workload (modelled as stochastic block/run
// cycles, see DESIGN.md) for five minutes; we count FP and FP- for
// unmodified SWIM and for full Lifeguard.
//
// Runs as one Campaign over a (stressed-count × configuration) grid: trials
// execute in parallel (REPRO_JOBS workers) and the config axis is seed-paired
// so SWIM and Lifeguard face the same starvation schedules.
#include <cstdint>
#include <map>
#include <utility>

#include "bench_common.h"
#include "harness/campaign.h"
#include "harness/report.h"
#include "harness/table.h"

using namespace lifeguard;
using namespace lifeguard::harness;

int main() {
  const auto opt = bench::repro_options();
  bench::print_banner("Figure 1 — False positives from CPU exhaustion",
                      "Dadgar et al., DSN'18, Fig. 1", opt);

  const std::vector<int> stressed_counts = {1, 2, 4, 8, 16, 32};
  const int reps = opt.reps_override > 0 ? opt.reps_override
                   : opt.full           ? 5
                                        : 2;

  Campaign camp;
  camp.name = "fig1-cpu-exhaustion";
  camp.base = *ScenarioRegistry::builtin().find("fig1-cpu-exhaustion");
  Axis stressed = Axis::custom("stressed", {});
  for (int s : stressed_counts) {
    stressed.points.push_back({std::to_string(s),
                               static_cast<std::uint64_t>(s),
                               [s](Scenario& sc) {
                                 sc.timeline.entry(0).victims =
                                     fault::VictimSelector::uniform(s);
                               }});
  }
  camp.axes = {std::move(stressed),
               Axis::configs({{"SWIM", swim::Config::swim_baseline()},
                              {"Lifeguard", swim::Config::lifeguard()}})};
  camp.repetitions = reps;
  camp.base_seed = opt.seed;
  camp.jobs = opt.jobs;

  ProgressReporter meter("fig1");
  const CampaignResult res = run(camp, {&meter});

  // Fold trials into (stressed, config) cells. Point order is stressed-major
  // with the config axis varying fastest (0 = SWIM, 1 = Lifeguard).
  std::map<std::pair<int, int>, std::int64_t> fp, fpm;
  for (const TrialResult& t : res.trials) {
    const int si = t.point_index / 2;
    const int cfg_idx = t.point_index % 2;
    fp[{si, cfg_idx}] += t.result.fp_events;
    fpm[{si, cfg_idx}] += t.result.fp_healthy_events;
  }

  Table table({"Stressed machines", "SWIM FP", "SWIM FP-", "Lifeguard FP",
               "Lifeguard FP-"});
  for (std::size_t si = 0; si < stressed_counts.size(); ++si) {
    const int i = static_cast<int>(si);
    table.add_row({std::to_string(stressed_counts[si]), fmt_int(fp[{i, 0}]),
                   fmt_int(fpm[{i, 0}]), fmt_int(fp[{i, 1}]),
                   fmt_int(fpm[{i, 1}])});
  }
  table.print();
  std::printf(
      "\nPaper (Fig. 1): SWIM shows false positives from a single overloaded"
      "\nmember and hundreds at healthy members from 4+; Lifeguard stays at"
      "\nor near zero until far higher stress levels.\n");
  return 0;
}
