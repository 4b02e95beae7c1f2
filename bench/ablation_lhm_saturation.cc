// Ablation A3: sensitivity to the LHM saturation limit S (paper §VII lists
// tuning S as future work; the paper uses S = 8, i.e. up to 9x backoff).
#include "bench_common.h"
#include "harness/table.h"

using namespace lifeguard;
using namespace lifeguard::harness;

int main() {
  const auto opt = bench::repro_options();
  bench::print_banner("Ablation — LHM saturation limit S",
                      "design choice from paper §IV-A / §VII (S defaults to 8)",
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

  Table table({"S", "Max backoff", "FP Events", "Msgs Sent(M)",
               "Median 1st Detect", "99.9th % 1st Detect"});
  for (int s : {0, 2, 4, 8, 16}) {
    swim::Config cfg = swim::Config::lifeguard();
    cfg.lhm_max = s;
    const auto fp = sweep_interval(cfg, ig, opt.seed,
                                   stderr_progress("S=" + std::to_string(s)));
    const auto lat = sweep_threshold(cfg, tg, opt.seed);
    table.add_row({std::to_string(s), std::to_string(s + 1) + "x",
                   fmt_int(fp.fp),
                   fmt_double(static_cast<double>(fp.msgs) / 1e6, 2),
                   fmt_double(lat.first_detect.percentile(0.5), 2),
                   fmt_double(lat.first_detect.percentile(0.999), 2)});
  }
  table.print();
  std::printf(
      "\nExpectation: S=0 disables probe backoff (more load, more FPs from"
      "\nslow members); very large S risks sluggish detection tails.\n");
  return 0;
}
