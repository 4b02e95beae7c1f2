// Ablation A1: value of re-gossiping the first K independent suspicions
// (paper §IV-B / §VII). K = 0 disables confirmation-driven decay entirely
// (timeout pinned at Max); larger K trades extra messages for faster decay.
#include "bench_common.h"
#include "harness/table.h"

using namespace lifeguard;
using namespace lifeguard::harness;

int main() {
  const auto opt = bench::repro_options();
  bench::print_banner("Ablation — LHA-Suspicion re-gossip factor K",
                      "design choice from paper §IV-B (K defaults to 3)",
                      opt);
  Grid ig = interval_grid(opt);
  Grid tg = threshold_grid(opt);
  if (!opt.full) {
    ig.concurrency = {16};
    ig.durations = {msec(8192), msec(32768)};
    ig.intervals = {msec(4)};
    tg.concurrency = {8};
    tg.durations = {msec(32768)};
    tg.repetitions = 2;
  }

  Table table({"K", "FP Events", "FP- Events", "Msgs Sent(M)",
               "Median 1st Detect", "99.9th % 1st Detect"});
  for (int k : {0, 1, 3, 6}) {
    swim::Config cfg = swim::Config::lifeguard();
    cfg.suspicion_k = k;
    const auto fp = sweep_interval(cfg, ig, opt.seed,
                                   stderr_progress("K=" + std::to_string(k)));
    const auto lat = sweep_threshold(cfg, tg, opt.seed);
    table.add_row({std::to_string(k), fmt_int(fp.fp), fmt_int(fp.fpm),
                   fmt_double(static_cast<double>(fp.msgs) / 1e6, 2),
                   fmt_double(lat.first_detect.percentile(0.5), 2),
                   fmt_double(lat.first_detect.percentile(0.999), 2)});
  }
  table.print();
  std::printf(
      "\nExpectation: K=0 leaves the timeout at Max (slow detection, fewest"
      "\nFPs); K=3 recovers SWIM-level medians; larger K buys little more.\n");
  return 0;
}
