// Reproduces Figure 2: total false positives (FP Events) versus the number
// of concurrent anomalies, one series per Table I configuration (log-scale
// quantity; printed as a table of series).
#include "bench_common.h"
#include "harness/table.h"

using namespace lifeguard;
using namespace lifeguard::harness;

namespace {

// Figure 2/3 need the full concurrency axis; the (D, I) set is reduced in
// quick mode (representative small-D and large-D cells).
Grid figure_grid(const ReproOptions& opt) {
  Grid g = interval_grid(opt);
  g.concurrency = {1, 4, 8, 12, 16, 20, 24, 28, 32};
  if (!opt.full) {
    g.durations = {msec(16384), msec(32768)};
    g.intervals = {msec(4), msec(256)};
  }
  return g;
}

}  // namespace

int main() {
  const auto opt = bench::repro_options();
  bench::print_banner("Figure 2 — Total false positives vs concurrency",
                      "Dadgar et al., DSN'18, Fig. 2 (alpha=5, beta=6)", opt);
  const Grid grid = figure_grid(opt);

  std::vector<std::string> headers{"Concurrent anomalies"};
  for (int c : grid.concurrency) headers.push_back("C=" + std::to_string(c));
  Table table(std::move(headers));

  for (const auto& nc : table1_configs(5.0, 6.0)) {
    const auto r = sweep_interval(nc.config, grid, opt.seed,
                                  stderr_progress(nc.name));
    std::vector<std::string> row{nc.name};
    for (int c : grid.concurrency) {
      row.push_back(fmt_int(r.fp_by_c.at(c)));
    }
    table.add_row(std::move(row));
  }
  table.print();
  std::printf(
      "\nPaper (Fig. 2): FP rises with concurrency for every configuration;"
      "\nfull Lifeguard sits 50-100x below SWIM at every level.\n");
  return 0;
}
