// Reproduces Table V: first-detection and full-dissemination latency
// (median / 99th / 99.9th percentile) for true failures, per configuration,
// from the Threshold experiment.
#include "bench_common.h"
#include "harness/table.h"

using namespace lifeguard;
using namespace lifeguard::harness;

int main() {
  const auto opt = bench::repro_options();
  bench::print_banner("Table V — Detection & dissemination latency",
                      "Dadgar et al., DSN'18, Table V (alpha=5, beta=6)", opt);
  const Grid grid = threshold_grid(opt);

  Table table({"Configuration", "Median 1st Detect", "99th % 1st Detect",
               "99.9th % 1st Detect", "Median Full Dissem",
               "99th % Full Dissem", "99.9th % Full Dissem", "Samples"});
  for (const auto& nc : table1_configs(5.0, 6.0)) {
    const auto r = sweep_threshold(nc.config, grid, opt.seed,
                                   stderr_progress(nc.name));
    table.add_row({nc.name,
                   fmt_double(r.first_detect.percentile(0.50), 2),
                   fmt_double(r.first_detect.percentile(0.99), 2),
                   fmt_double(r.first_detect.percentile(0.999), 2),
                   fmt_double(r.full_dissem.percentile(0.50), 2),
                   fmt_double(r.full_dissem.percentile(0.99), 2),
                   fmt_double(r.full_dissem.percentile(0.999), 2),
                   fmt_int(static_cast<std::int64_t>(r.first_detect.count()))});
  }
  table.print();
  std::printf(
      "\nAll times in seconds from anomaly start."
      "\nPaper (Table V): medians ~12.44 s detect / ~12.90 s disseminate for"
      "\nevery configuration; Lifeguard adds ~6-9%% at the 99/99.9th "
      "percentiles.\n");
  return 0;
}
