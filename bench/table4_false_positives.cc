// Reproduces Table IV: aggregated false-positive counts over the Interval
// experiment grid, per Table I configuration, with %-of-SWIM columns.
#include "bench_common.h"
#include "harness/table.h"

using namespace lifeguard;
using namespace lifeguard::harness;

int main() {
  const auto opt = bench::repro_options();
  bench::print_banner("Table IV — Aggregated false positives",
                      "Dadgar et al., DSN'18, Table IV (alpha=5, beta=6)",
                      opt);
  const Grid grid = interval_grid(opt);

  Table table({"Configuration", "FP Events", "FP- Events", "FP % SWIM",
               "FP- % SWIM"});
  std::int64_t base_fp = 0, base_fpm = 0;
  for (const auto& nc : table1_configs(5.0, 6.0)) {
    const auto r = sweep_interval(nc.config, grid, opt.seed,
                                  stderr_progress(nc.name));
    if (nc.name == "SWIM") {
      base_fp = r.fp;
      base_fpm = r.fpm;
    }
    table.add_row({nc.name, fmt_int(r.fp), fmt_int(r.fpm),
                   fmt_pct(static_cast<double>(r.fp),
                           static_cast<double>(base_fp)),
                   fmt_pct(static_cast<double>(r.fpm),
                           static_cast<double>(base_fpm))});
  }
  table.print();
  std::printf(
      "\nPaper (Table IV): SWIM FP=339002 FP-=1326; Lifeguard 1.53%% / "
      "1.89%% of SWIM;\nLHA-Suspicion is the largest single contributor.\n");
  return 0;
}
