// Reproduces Table VI: message and byte load over the Interval experiment
// grid, per configuration, with %-of-SWIM columns. Compound messages count
// as one, matching the paper's telemetry.
#include "bench_common.h"
#include "harness/table.h"

using namespace lifeguard;
using namespace lifeguard::harness;

int main() {
  const auto opt = bench::repro_options();
  bench::print_banner("Table VI — Message load",
                      "Dadgar et al., DSN'18, Table VI (alpha=5, beta=6)",
                      opt);
  const Grid grid = interval_grid(opt);

  Table table({"Configuration", "Msgs Sent(M)", "Bytes Sent(GiB)",
               "Msgs % SWIM", "Bytes % SWIM"});
  std::int64_t base_msgs = 0, base_bytes = 0;
  for (const auto& nc : table1_configs(5.0, 6.0)) {
    const auto r = sweep_interval(nc.config, grid, opt.seed,
                                  stderr_progress(nc.name));
    if (nc.name == "SWIM") {
      base_msgs = r.msgs;
      base_bytes = r.bytes;
    }
    table.add_row({nc.name, fmt_double(static_cast<double>(r.msgs) / 1e6, 2),
                   fmt_bytes_gib(r.bytes),
                   fmt_pct(static_cast<double>(r.msgs),
                           static_cast<double>(base_msgs)),
                   fmt_pct(static_cast<double>(r.bytes),
                           static_cast<double>(base_bytes))});
  }
  table.print();
  std::printf(
      "\nPaper (Table VI): Lifeguard sends ~11%% more messages but ~2%% fewer"
      "\nbytes than SWIM; LHA-Suspicion adds load, LHA-Probe removes some.\n");
  return 0;
}
