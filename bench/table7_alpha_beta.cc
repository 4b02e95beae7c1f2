// Reproduces Table VII: full Lifeguard under nine (alpha, beta) suspicion
// tunings, every metric as a percentage of the SWIM baseline. Latencies come
// from the Threshold experiment, FP counts from the Interval experiment.
#include "bench_common.h"
#include "harness/table.h"

using namespace lifeguard;
using namespace lifeguard::harness;

namespace {

Grid quick_threshold(const ReproOptions& opt) {
  Grid g = threshold_grid(opt);
  if (!opt.full) {
    g.concurrency = {8};
    g.durations = {msec(16384), msec(32768)};
    g.repetitions = std::max(2, g.repetitions);
  }
  return g;
}

Grid quick_interval(const ReproOptions& opt) {
  Grid g = interval_grid(opt);
  if (!opt.full) {
    g.concurrency = {16};
    g.durations = {msec(8192), msec(32768)};
    g.intervals = {msec(4), msec(256)};
  }
  return g;
}

struct Metrics9 {
  double med_first, med_full, p99_first, p99_full, p999_first, p999_full;
  double fp, fpm;
};

Metrics9 measure(const swim::Config& cfg, const Grid& tg, const Grid& ig,
                 std::uint64_t seed, const std::string& label) {
  const auto t = sweep_threshold(cfg, tg, seed, stderr_progress(label + " thr"));
  const auto i = sweep_interval(cfg, ig, seed, stderr_progress(label + " int"));
  return Metrics9{t.first_detect.percentile(0.50), t.full_dissem.percentile(0.50),
                  t.first_detect.percentile(0.99), t.full_dissem.percentile(0.99),
                  t.first_detect.percentile(0.999), t.full_dissem.percentile(0.999),
                  static_cast<double>(i.fp), static_cast<double>(i.fpm)};
}

}  // namespace

int main() {
  const auto opt = bench::repro_options();
  bench::print_banner("Table VII — alpha/beta suspicion-timeout tuning",
                      "Dadgar et al., DSN'18, Table VII", opt);
  const Grid tg = quick_threshold(opt);
  const Grid ig = quick_interval(opt);

  const Metrics9 base = measure(swim::Config::swim_baseline(), tg, ig,
                                opt.seed, "SWIM");

  const double alphas[] = {2, 2, 2, 4, 4, 4, 5, 5, 5};
  const double betas[] = {2, 4, 6, 2, 4, 6, 2, 4, 6};

  std::vector<std::string> headers{"Metric (% of SWIM)"};
  for (int i = 0; i < 9; ++i) {
    headers.push_back("a=" + fmt_double(alphas[i], 0) + " b=" +
                      fmt_double(betas[i], 0));
  }
  Table table(std::move(headers));

  std::vector<Metrics9> cols;
  for (int i = 0; i < 9; ++i) {
    swim::Config cfg = swim::Config::lifeguard();
    cfg.suspicion_alpha = alphas[i];
    cfg.suspicion_beta = betas[i];
    cols.push_back(measure(cfg, tg, ig, opt.seed,
                           "a" + fmt_double(alphas[i], 0) + "b" +
                               fmt_double(betas[i], 0)));
  }

  auto row = [&](const char* name, double Metrics9::*field) {
    std::vector<std::string> cells{name};
    for (const auto& c : cols) cells.push_back(fmt_pct(c.*field, base.*field));
    table.add_row(std::move(cells));
  };
  row("Med First", &Metrics9::med_first);
  row("Med Full", &Metrics9::med_full);
  row("99% First", &Metrics9::p99_first);
  row("99% Full", &Metrics9::p99_full);
  row("99.9% First", &Metrics9::p999_first);
  row("99.9% Full", &Metrics9::p999_full);
  row("FP", &Metrics9::fp);
  row("FP-", &Metrics9::fpm);
  table.print();
  std::printf(
      "\nPaper (Table VII): latency scales with alpha (a=2 cuts median ~45%%);"
      "\nFP and FP- fall as alpha/beta rise; a=5 b=6 keeps SWIM-level medians"
      "\nwith the largest FP reduction.\n");
  return 0;
}
