// Reproduces the paper's evaluation artifacts: ./paper [ARTIFACT...]
//
// Every table and figure is a view of Campaigns over catalog scenario
// files: the interval grid (Table III) over `table4-false-positives`, the
// threshold grid (Table II) over `table5-latency` and the stressed-count
// grid over `fig1-cpu-exhaustion`. Each artifact folds the CampaignResults
// it needs; a grid campaign runs at most once per invocation, so artifacts
// that share one (Tables IV/VI, Figs. 2/3) pay for it once. With no
// argument every artifact prints, in paper order. Scope comes from the
// REPRO_* environment (harness/sweep.h); a malformed value or an unknown
// artifact exits 2.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "harness/campaign.h"
#include "harness/report.h"
#include "harness/sweep.h"
#include "harness/table.h"

using namespace lifeguard;
using namespace lifeguard::harness;

namespace {

/// A committed catalog scenario (scenarios/NAME.json).
Scenario catalog(const char* name) {
  const Scenario* s = ScenarioRegistry::builtin().find(name);
  if (s == nullptr) {
    throw std::logic_error(std::string("the catalog has no scenario '") +
                           name + "'");
  }
  return *s;
}

/// The grid campaigns of one invocation, each run at most once: a repeated
/// (experiment, config, grid) request returns the earlier result.
class Campaigns {
 public:
  explicit Campaigns(const ReproOptions& opt) : opt_(opt) {}

  const ReproOptions& opt() const { return opt_; }

  const CampaignResult& interval(const swim::Config& cfg, const Grid& grid,
                                 const std::string& label) {
    return get(interval_campaign, "table4-false-positives", cfg, grid, label);
  }
  const CampaignResult& threshold(const swim::Config& cfg, const Grid& grid,
                                  const std::string& label) {
    return get(threshold_campaign, "table5-latency", cfg, grid, label);
  }

  /// Runs `camp` with the invocation's seed and jobs and a stderr meter.
  CampaignResult run(Campaign camp, const std::string& label) const {
    camp.base_seed = opt_.seed;
    camp.jobs = opt_.jobs;
    ProgressReporter meter(label);
    return harness::run(camp, {&meter});
  }

 private:
  using Builder = Campaign (*)(Scenario, const Grid&);
  struct Done {
    Builder build;
    swim::Config config;
    Grid grid;
    CampaignResult result;
  };

  const CampaignResult& get(Builder build, const char* base,
                            const swim::Config& cfg, const Grid& grid,
                            const std::string& label) {
    for (const Done& d : done_) {
      if (d.build == build && d.config == cfg && d.grid == grid) {
        return d.result;
      }
    }
    Scenario s = catalog(base);
    s.config = cfg;
    done_.push_back({build, cfg, grid, run(build(std::move(s), grid), label)});
    return done_.back().result;
  }

  ReproOptions opt_;
  std::deque<Done> done_;  // stable references
};

/// Interval-grid totals of one campaign.
struct IntervalTotals {
  std::int64_t fp = 0;    ///< FP Events
  std::int64_t fpm = 0;   ///< FP- Events (at healthy members)
  std::int64_t msgs = 0;  ///< compound messages sent
  std::int64_t bytes = 0;
  /// Per concurrency level, keyed by the victims-axis label (Figs. 2/3).
  std::map<std::string, std::int64_t> fp_by_c, fpm_by_c;
};

IntervalTotals fold_interval(const CampaignResult& r) {
  IntervalTotals t;
  for (const TrialResult& trial : r.trials) {
    const RunResult& x = trial.result;
    const std::string& c =
        r.points[static_cast<std::size_t>(trial.point_index)].labels[0];
    t.fp += x.fp_events;
    t.fpm += x.fp_healthy_events;
    t.msgs += x.msgs_sent;
    t.bytes += x.bytes_sent;
    t.fp_by_c[c] += x.fp_events;
    t.fpm_by_c[c] += x.fp_healthy_events;
  }
  return t;
}

/// Threshold-grid latency samples of one campaign, seconds.
struct Latency {
  Histogram first_detect;
  Histogram full_dissem;
};

Latency fold_threshold(const CampaignResult& r) {
  Latency l;
  for (const PointStats& p : r.points) {
    l.first_detect.merge(p.first_detect);
    l.full_dissem.merge(p.full_dissem);
  }
  return l;
}

/// Interval totals of every Table I configuration over `grid`, in order.
std::vector<std::pair<std::string, IntervalTotals>> table1_interval(
    Campaigns& runs, const Grid& grid) {
  std::vector<std::pair<std::string, IntervalTotals>> out;
  for (const NamedConfig& nc : table1_configs(5.0, 6.0)) {
    out.emplace_back(nc.name,
                     fold_interval(runs.interval(nc.config, grid, nc.name)));
  }
  return out;
}

void print_banner(const char* what, const char* paper_ref,
                  const ReproOptions& opt) {
  std::printf("== %s ==\n", what);
  std::printf("Reproduces: %s\n", paper_ref);
  std::printf("Mode: %s grid (REPRO_FULL=%d), seed %llu, jobs %s%s\n\n",
              opt.full ? "full paper" : "quick", opt.full ? 1 : 0,
              static_cast<unsigned long long>(opt.seed),
              opt.jobs == 0 ? "auto" : std::to_string(opt.jobs).c_str(),
              opt.reps_override > 0 ? " (REPRO_REPS override)" : "");
}

std::string fmt_millions(std::int64_t v) {
  return fmt_double(static_cast<double>(v) / 1e6, 2);
}

// ---------------------------------------------------------------------------
// Artifacts

// Figure 1: false positives caused by CPU exhaustion. 100 nodes; a subset
// runs a starvation workload (stochastic block/run cycles, see DESIGN.md)
// for five minutes; FP and FP- for SWIM and full Lifeguard, seed-paired
// across the two so both face the same starvation schedules.
void fig1(Campaigns& runs) {
  const ReproOptions& opt = runs.opt();
  print_banner("Figure 1 — False positives from CPU exhaustion",
               "Dadgar et al., DSN'18, Fig. 1", opt);

  const std::vector<int> stressed_counts = {1, 2, 4, 8, 16, 32};
  Campaign camp;
  camp.name = "fig1-cpu-exhaustion";
  camp.base = catalog("fig1-cpu-exhaustion");
  camp.axes = {victims_axis(stressed_counts),
               Axis::configs({{"SWIM", swim::Config::swim_baseline()},
                              {"Lifeguard", swim::Config::lifeguard()}})};
  camp.repetitions = opt.reps_override > 0 ? opt.reps_override
                     : opt.full           ? 5
                                          : 2;
  const CampaignResult res = runs.run(std::move(camp), "fig1");

  // Point order is stressed-major with the config axis varying fastest
  // (0 = SWIM, 1 = Lifeguard).
  std::map<std::pair<int, int>, std::int64_t> fp, fpm;
  for (const TrialResult& t : res.trials) {
    const std::pair<int, int> cell{t.point_index / 2, t.point_index % 2};
    fp[cell] += t.result.fp_events;
    fpm[cell] += t.result.fp_healthy_events;
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
}

// Table IV: aggregated false-positive counts over the interval grid, per
// Table I configuration, with %-of-SWIM columns.
void table4(Campaigns& runs) {
  print_banner("Table IV — Aggregated false positives",
               "Dadgar et al., DSN'18, Table IV (alpha=5, beta=6)",
               runs.opt());
  const auto rows = table1_interval(runs, interval_grid(runs.opt()));
  const IntervalTotals& swim = rows.front().second;

  Table table({"Configuration", "FP Events", "FP- Events", "FP % SWIM",
               "FP- % SWIM"});
  for (const auto& [name, r] : rows) {
    table.add_row({name, fmt_int(r.fp), fmt_int(r.fpm),
                   fmt_pct(static_cast<double>(r.fp),
                           static_cast<double>(swim.fp)),
                   fmt_pct(static_cast<double>(r.fpm),
                           static_cast<double>(swim.fpm))});
  }
  table.print();
  std::printf(
      "\nPaper (Table IV): SWIM FP=339002 FP-=1326; Lifeguard 1.53%% / "
      "1.89%% of SWIM;\nLHA-Suspicion is the largest single contributor.\n");
}

// Figures 2 and 3: FP (or FP-) events versus the number of concurrent
// anomalies, one series per Table I configuration, over the full
// concurrency axis; quick mode reduces the (D, I) set to representative
// large-D cells.
void fp_vs_concurrency(Campaigns& runs, const char* what,
                       const char* paper_ref,
                       std::map<std::string, std::int64_t>
                           IntervalTotals::*by_c,
                       const char* footer) {
  const ReproOptions& opt = runs.opt();
  print_banner(what, paper_ref, opt);
  Grid grid = interval_grid(opt);
  grid.concurrency = {1, 4, 8, 12, 16, 20, 24, 28, 32};
  if (!opt.full) {
    grid.durations = {msec(16384), msec(32768)};
    grid.intervals = {msec(4), msec(256)};
  }

  std::vector<std::string> headers{"Concurrent anomalies"};
  for (int c : grid.concurrency) headers.push_back("C=" + std::to_string(c));
  Table table(std::move(headers));
  for (const auto& [name, r] : table1_interval(runs, grid)) {
    std::vector<std::string> row{name};
    for (int c : grid.concurrency) {
      row.push_back(fmt_int((r.*by_c).at(std::to_string(c))));
    }
    table.add_row(std::move(row));
  }
  table.print();
  std::fputs(footer, stdout);
}

void fig2(Campaigns& runs) {
  fp_vs_concurrency(
      runs, "Figure 2 — Total false positives vs concurrency",
      "Dadgar et al., DSN'18, Fig. 2 (alpha=5, beta=6)",
      &IntervalTotals::fp_by_c,
      "\nPaper (Fig. 2): FP rises with concurrency for every configuration;"
      "\nfull Lifeguard sits 50-100x below SWIM at every level.\n");
}

void fig3(Campaigns& runs) {
  fp_vs_concurrency(
      runs, "Figure 3 — False positives at healthy members vs concurrency",
      "Dadgar et al., DSN'18, Fig. 3 (alpha=5, beta=6)",
      &IntervalTotals::fpm_by_c,
      "\nPaper (Fig. 3): FP- events are rare tail events (orders of magnitude"
      "\nbelow FP); several concurrency levels record zero under Lifeguard —"
      "\nexpect zeros in the quick grid.\n");
}

// Table V: first-detection and full-dissemination latency (median / 99th /
// 99.9th percentile) for true failures, per configuration, from the
// threshold grid.
void table5(Campaigns& runs) {
  print_banner("Table V — Detection & dissemination latency",
               "Dadgar et al., DSN'18, Table V (alpha=5, beta=6)",
               runs.opt());
  const Grid grid = threshold_grid(runs.opt());

  Table table({"Configuration", "Median 1st Detect", "99th % 1st Detect",
               "99.9th % 1st Detect", "Median Full Dissem",
               "99th % Full Dissem", "99.9th % Full Dissem", "Samples"});
  for (const NamedConfig& nc : table1_configs(5.0, 6.0)) {
    const Latency r =
        fold_threshold(runs.threshold(nc.config, grid, nc.name));
    table.add_row({nc.name, fmt_percentile(r.first_detect, 0.50, 2),
                   fmt_percentile(r.first_detect, 0.99, 2),
                   fmt_percentile(r.first_detect, 0.999, 2),
                   fmt_percentile(r.full_dissem, 0.50, 2),
                   fmt_percentile(r.full_dissem, 0.99, 2),
                   fmt_percentile(r.full_dissem, 0.999, 2),
                   fmt_int(static_cast<std::int64_t>(r.first_detect.count()))});
  }
  table.print();
  std::printf(
      "\nAll times in seconds from anomaly start."
      "\nPaper (Table V): medians ~12.44 s detect / ~12.90 s disseminate for"
      "\nevery configuration; Lifeguard adds ~6-9%% at the 99/99.9th "
      "percentiles.\n");
}

// Table VI: message and byte load over the interval grid, per
// configuration, with %-of-SWIM columns. Compound messages count as one,
// matching the paper's telemetry.
void table6(Campaigns& runs) {
  print_banner("Table VI — Message load",
               "Dadgar et al., DSN'18, Table VI (alpha=5, beta=6)",
               runs.opt());
  const auto rows = table1_interval(runs, interval_grid(runs.opt()));
  const IntervalTotals& swim = rows.front().second;

  Table table({"Configuration", "Msgs Sent(M)", "Bytes Sent(GiB)",
               "Msgs % SWIM", "Bytes % SWIM"});
  for (const auto& [name, r] : rows) {
    table.add_row({name, fmt_millions(r.msgs), fmt_bytes_gib(r.bytes),
                   fmt_pct(static_cast<double>(r.msgs),
                           static_cast<double>(swim.msgs)),
                   fmt_pct(static_cast<double>(r.bytes),
                           static_cast<double>(swim.bytes))});
  }
  table.print();
  std::printf(
      "\nPaper (Table VI): Lifeguard sends ~11%% more messages but ~2%% fewer"
      "\nbytes than SWIM; LHA-Suspicion adds load, LHA-Probe removes some.\n");
}

// Table VII: full Lifeguard under nine (alpha, beta) suspicion tunings,
// every metric as a percentage of the SWIM baseline. Latencies come from
// the threshold grid, FP counts from the interval grid.
void table7(Campaigns& runs) {
  const ReproOptions& opt = runs.opt();
  print_banner("Table VII — alpha/beta suspicion-timeout tuning",
               "Dadgar et al., DSN'18, Table VII", opt);
  Grid tg = threshold_grid(opt);
  Grid ig = interval_grid(opt);
  if (!opt.full) {
    tg.concurrency = {8};
    tg.durations = {msec(16384), msec(32768)};
    tg.repetitions = std::max(2, tg.repetitions);
    ig.concurrency = {16};
    ig.durations = {msec(8192), msec(32768)};
    ig.intervals = {msec(4), msec(256)};
  }

  struct Metrics9 {
    double med_first, med_full, p99_first, p99_full, p999_first, p999_full;
    double fp, fpm;
  };
  auto measure = [&](const swim::Config& cfg, const std::string& label) {
    const Latency t = fold_threshold(runs.threshold(cfg, tg, label + " thr"));
    const IntervalTotals i =
        fold_interval(runs.interval(cfg, ig, label + " int"));
    return Metrics9{t.first_detect.percentile(0.50),
                    t.full_dissem.percentile(0.50),
                    t.first_detect.percentile(0.99),
                    t.full_dissem.percentile(0.99),
                    t.first_detect.percentile(0.999),
                    t.full_dissem.percentile(0.999),
                    static_cast<double>(i.fp),
                    static_cast<double>(i.fpm)};
  };

  const Metrics9 base = measure(swim::Config::swim_baseline(), "SWIM");
  const double alphas[] = {2, 2, 2, 4, 4, 4, 5, 5, 5};
  const double betas[] = {2, 4, 6, 2, 4, 6, 2, 4, 6};
  std::vector<std::string> headers{"Metric (% of SWIM)"};
  std::vector<Metrics9> cols;
  for (int i = 0; i < 9; ++i) {
    headers.push_back("a=" + fmt_double(alphas[i], 0) + " b=" +
                      fmt_double(betas[i], 0));
    swim::Config cfg = swim::Config::lifeguard();
    cfg.suspicion_alpha = alphas[i];
    cfg.suspicion_beta = betas[i];
    cols.push_back(measure(cfg, "a" + fmt_double(alphas[i], 0) + "b" +
                                    fmt_double(betas[i], 0)));
  }
  Table table(std::move(headers));
  auto row = [&](const char* name, double Metrics9::*field) {
    std::vector<std::string> cells{name};
    for (const Metrics9& c : cols) {
      cells.push_back(fmt_pct(c.*field, base.*field));
    }
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
}

/// The interval and threshold grids of the K and S ablations: quick mode
/// narrows them to one heavy interval point and one detectable threshold.
std::pair<Grid, Grid> ablation_grids(const ReproOptions& opt) {
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
  return {ig, tg};
}

// Ablation A1: value of re-gossiping the first K independent suspicions
// (paper §IV-B / §VII). K = 0 disables confirmation-driven decay entirely
// (timeout pinned at Max); larger K trades extra messages for faster decay.
void ablation_regossip(Campaigns& runs) {
  print_banner("Ablation — LHA-Suspicion re-gossip factor K",
               "design choice from paper §IV-B (K defaults to 3)",
               runs.opt());
  const auto [ig, tg] = ablation_grids(runs.opt());

  Table table({"K", "FP Events", "FP- Events", "Msgs Sent(M)",
               "Median 1st Detect", "99.9th % 1st Detect"});
  for (int k : {0, 1, 3, 6}) {
    swim::Config cfg = swim::Config::lifeguard();
    cfg.suspicion_k = k;
    const std::string label = "K=" + std::to_string(k);
    const IntervalTotals fp = fold_interval(runs.interval(cfg, ig, label));
    const Latency lat = fold_threshold(runs.threshold(cfg, tg, label));
    table.add_row({std::to_string(k), fmt_int(fp.fp), fmt_int(fp.fpm),
                   fmt_millions(fp.msgs),
                   fmt_percentile(lat.first_detect, 0.5, 2),
                   fmt_percentile(lat.first_detect, 0.999, 2)});
  }
  table.print();
  std::printf(
      "\nExpectation: K=0 leaves the timeout at Max (slow detection, fewest"
      "\nFPs); K=3 recovers SWIM-level medians; larger K buys little more.\n");
}

// Ablation A2: value of the nack mechanism inside LHA-Probe (paper §IV-A).
// Without nacks a member cannot distinguish "target down" from "my relays
// (or I) are slow", so its LHM rises more slowly.
void ablation_nack(Campaigns& runs) {
  const ReproOptions& opt = runs.opt();
  print_banner("Ablation — LHA-Probe with and without nack",
               "design choice from paper §IV-A (footnote 5)", opt);
  Grid ig = interval_grid(opt);
  if (!opt.full) {
    ig.concurrency = {8, 16};
    ig.durations = {msec(8192), msec(32768)};
    ig.intervals = {msec(4)};
  }

  Table table({"Configuration", "FP Events", "FP- Events", "Msgs Sent(M)",
               "Bytes Sent(GiB)"});
  for (const bool nack : {true, false}) {
    swim::Config cfg = swim::Config::lifeguard();
    cfg.nack_enabled = nack;
    const std::string name =
        nack ? "Lifeguard (nack on)" : "Lifeguard (nack off)";
    const IntervalTotals r = fold_interval(runs.interval(cfg, ig, name));
    table.add_row({name, fmt_int(r.fp), fmt_int(r.fpm), fmt_millions(r.msgs),
                   fmt_bytes_gib(r.bytes)});
  }
  table.print();
  std::printf(
      "\nExpectation: disabling nack removes some messages but weakens the"
      "\nLHM signal at slow members (missed-nack events vanish).\n");
}

// Ablation A3: sensitivity to the LHM saturation limit S (paper §VII lists
// tuning S as future work; the paper uses S = 8, i.e. up to 9x backoff).
void ablation_lhm_saturation(Campaigns& runs) {
  print_banner("Ablation — LHM saturation limit S",
               "design choice from paper §IV-A / §VII (S defaults to 8)",
               runs.opt());
  const auto [ig, tg] = ablation_grids(runs.opt());

  Table table({"S", "Max backoff", "FP Events", "Msgs Sent(M)",
               "Median 1st Detect", "99.9th % 1st Detect"});
  for (int s : {0, 2, 4, 8, 16}) {
    swim::Config cfg = swim::Config::lifeguard();
    cfg.lhm_max = s;
    const std::string label = "S=" + std::to_string(s);
    const IntervalTotals fp = fold_interval(runs.interval(cfg, ig, label));
    const Latency lat = fold_threshold(runs.threshold(cfg, tg, label));
    table.add_row({std::to_string(s), std::to_string(s + 1) + "x",
                   fmt_int(fp.fp), fmt_millions(fp.msgs),
                   fmt_percentile(lat.first_detect, 0.5, 2),
                   fmt_percentile(lat.first_detect, 0.999, 2)});
  }
  table.print();
  std::printf(
      "\nExpectation: S=0 disables probe backoff (more load, more FPs from"
      "\nslow members); very large S risks sluggish detection tails.\n");
}

struct Artifact {
  std::string_view name;
  void (*print)(Campaigns&);
};

/// Paper order, then the ablations.
constexpr Artifact kArtifacts[] = {
    {"fig1", fig1},
    {"table4", table4},
    {"fig2", fig2},
    {"fig3", fig3},
    {"table5", table5},
    {"table6", table6},
    {"table7", table7},
    {"ablation-regossip", ablation_regossip},
    {"ablation-nack", ablation_nack},
    {"ablation-lhm-saturation", ablation_lhm_saturation},
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<const Artifact*> chosen;
  for (int i = 1; i < argc; ++i) {
    const Artifact* found = nullptr;
    for (const Artifact& a : kArtifacts) {
      if (a.name == argv[i]) found = &a;
    }
    if (found == nullptr) {
      std::fprintf(stderr,
                   "error: unknown artifact '%s'\nusage: paper "
                   "[ARTIFACT...]\nvalid artifacts:",
                   argv[i]);
      for (const Artifact& a : kArtifacts) {
        std::fprintf(stderr, " %.*s", static_cast<int>(a.name.size()),
                     a.name.data());
      }
      std::fputs("\n", stderr);
      return 2;
    }
    chosen.push_back(found);
  }
  if (chosen.empty()) {
    for (const Artifact& a : kArtifacts) chosen.push_back(&a);
  }

  ReproOptions opt;
  try {
    opt = ReproOptions::from_env();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  Campaigns runs(opt);
  for (const Artifact* a : chosen) a->print(runs);
  return 0;
}
