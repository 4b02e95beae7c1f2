#include "harness/sweep.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string_view>

#include "harness/campaign.h"
#include "harness/report.h"

namespace lifeguard::harness {

namespace {

/// Reads `var` into `out` when it is set. The value must be a whole base-10
/// integer in [0, hi] (no sign, blanks or trailing characters); anything
/// else throws, naming the variable and the accepted form.
template <typename T>
void read_env(const char* var, T hi, const char* form, T& out) {
  const char* text = std::getenv(var);
  if (text == nullptr) return;
  const std::string_view v(text);
  T parsed{};
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), parsed);
  if (ec != std::errc{} || v.front() == '-' || end != v.data() + v.size() ||
      parsed > hi) {
    throw std::invalid_argument(std::string(var) + "='" + text +
                                "' is malformed: expected " + form);
  }
  out = parsed;
}

}  // namespace

ReproOptions ReproOptions::from_env() {
  constexpr int kIntMax = std::numeric_limits<int>::max();
  ReproOptions opt;
  int full = 0;
  read_env("REPRO_FULL", 1, "0 (quick grid) or 1 (full paper grid)", full);
  opt.full = full != 0;
  read_env("REPRO_REPS", kIntMax,
           "a non-negative integer (0 = the grid's default)",
           opt.reps_override);
  read_env("REPRO_SEED", std::numeric_limits<std::uint64_t>::max(),
           "an unsigned 64-bit decimal integer", opt.seed);
  read_env("REPRO_JOBS", kIntMax,
           "a non-negative integer (0 = one worker per hardware thread)",
           opt.jobs);
  return opt;
}

Grid interval_grid(const ReproOptions& opt) {
  Grid g;
  if (opt.full) {
    // Paper Table III, verbatim.
    g.concurrency = {1, 4, 8, 12, 16, 20, 24, 28, 32};
    g.durations = {msec(128), msec(512),   msec(2048),
                   msec(8192), msec(16384), msec(32768)};
    g.intervals = {msec(1),   msec(4),    msec(16),  msec(64),
                   msec(256), msec(1024), msec(4096), msec(16384)};
    g.repetitions = 10;
    g.test_length = sec(120);
  } else {
    // A representative slice of Table III: one sub-timeout duration (512 ms,
    // no FPs expected), the two durations that straddle the SWIM suspicion
    // timeout from above, and intervals spanning tight flapping to long
    // recovery windows.
    g.concurrency = {1, 8, 16, 32};
    g.durations = {msec(512), msec(16384), msec(32768)};
    g.intervals = {msec(4), msec(256), msec(4096)};
    g.repetitions = 1;
    g.test_length = sec(120);
  }
  if (opt.reps_override > 0) g.repetitions = opt.reps_override;
  return g;
}

Grid threshold_grid(const ReproOptions& opt) {
  Grid g;
  if (opt.full) {
    // Paper Table II, verbatim.
    g.concurrency = {1, 4, 8, 12, 16, 20, 24, 28, 32};
    g.durations = {msec(128), msec(512),   msec(2048),
                   msec(8192), msec(16384), msec(32768)};
    g.repetitions = 10;
    g.observe = sec(105);  // anomaly + detection + recovery within 120 s
  } else {
    g.concurrency = {1, 8, 16, 32};
    // Only D > the suspicion timeout yields completed true detections; the
    // smaller D values exist to confirm no detection happens (kept in the
    // full grid). The quick grid spends its runs where samples come from.
    g.durations = {msec(16384), msec(32768)};
    g.repetitions = 2;
    g.observe = sec(70);
  }
  if (opt.reps_override > 0) g.repetitions = opt.reps_override;
  return g;
}

std::uint64_t run_seed(std::uint64_t base, int c, std::int64_t d_us,
                       std::int64_t i_us, int rep) {
  return trial_seed(base,
                    {static_cast<std::uint64_t>(c),
                     static_cast<std::uint64_t>(d_us),
                     static_cast<std::uint64_t>(i_us)},
                    rep);
}

namespace {

/// Adapts a ProgressFn callback onto the Reporter interface.
class FnProgress : public Reporter {
 public:
  explicit FnProgress(const ProgressFn& fn) : fn_(fn) {}
  void progress(int done, int total) override {
    if (fn_) fn_(done, total);
  }

 private:
  const ProgressFn& fn_;
};

int resolve_jobs(int jobs) {
  return jobs < 0 ? ReproOptions::from_env().jobs : jobs;
}

/// A grid's base scenario with one placeholder fault entry; the axes below
/// fill in its victims and shape per grid point.
Scenario sweep_base(const char* name, const swim::Config& cfg,
                    const Grid& grid, Duration span, fault::Fault fault) {
  Scenario s;
  s.name = name;
  s.cluster_size = grid.cluster_size;
  s.quiesce = grid.quiesce;
  s.config = cfg;
  s.timeline.add(Duration{}, span, fault, fault::VictimSelector::uniform(1));
  return s;
}

/// The concurrency axis C (salt = C): uniform victims of timeline entry 0.
Axis victims_axis(const std::vector<int>& counts) {
  std::vector<AxisPoint> points;
  for (int c : counts) {
    points.push_back({std::to_string(c), static_cast<std::uint64_t>(c),
                      [c](Scenario& s) {
                        s.timeline.entry(0).victims =
                            fault::VictimSelector::uniform(c);
                      }});
  }
  return Axis::custom("victims", std::move(points));
}

/// A D or I axis (salt = microseconds) writing `set` into timeline entry 0.
Axis span_axis(std::string name, const std::vector<Duration>& values,
               void (*set)(fault::TimelineEntry&, Duration)) {
  std::vector<AxisPoint> points;
  for (Duration d : values) {
    points.push_back({std::to_string(d.us / 1000) + "ms",
                      static_cast<std::uint64_t>(d.us),
                      [d, set](Scenario& s) { set(s.timeline.entry(0), d); }});
  }
  return Axis::custom(std::move(name), std::move(points));
}

}  // namespace

IntervalSweepResult sweep_interval(const swim::Config& cfg, const Grid& grid,
                                   std::uint64_t seed_base,
                                   const ProgressFn& progress, int jobs) {
  // The grid as a campaign: victims/duration/interval axes whose salts are
  // exactly the run_seed() coordinates {c, d_us, i_us}. Each trial cycles
  // D-blocked / I-open for the whole test length.
  Campaign camp;
  camp.name = "sweep-interval";
  camp.base = sweep_base("sweep-interval", cfg, grid, grid.test_length,
                         fault::Fault::interval_block(msec(1), msec(1)));
  camp.base.run_length = grid.test_length;
  camp.axes = {
      victims_axis(grid.concurrency),
      span_axis(
          "duration", grid.durations,
          [](fault::TimelineEntry& e, Duration d) { e.fault.period = d; }),
      span_axis("interval", grid.intervals,
                [](fault::TimelineEntry& e, Duration i) { e.fault.gap = i; })};
  // C = 0 is a healthy baseline whose end time still follows the grid
  // point's cycle-aligned clock, plus the interval drain of 1 s.
  camp.finalize = [test_length = grid.test_length](Scenario& s) {
    const fault::TimelineEntry& e = s.timeline.entry(0);
    if (e.victims.count == 0) {
      s.run_length = fault::cycle_aligned_length(test_length, e.fault.period,
                                                 e.fault.gap) +
                     sec(1);
      s.timeline = fault::Timeline{};
    }
  };
  camp.repetitions = grid.repetitions;
  camp.base_seed = seed_base;
  camp.jobs = resolve_jobs(jobs);

  FnProgress meter(progress);
  const CampaignResult res = run(camp, {&meter});

  IntervalSweepResult agg;
  const std::size_t points_per_c =
      grid.durations.size() * grid.intervals.size();
  for (const TrialResult& t : res.trials) {
    const int c =
        grid.concurrency[static_cast<std::size_t>(t.point_index) /
                         points_per_c];
    agg.fp += t.result.fp_events;
    agg.fpm += t.result.fp_healthy_events;
    agg.msgs += t.result.msgs_sent;
    agg.bytes += t.result.bytes_sent;
    agg.fp_by_c[c] += t.result.fp_events;
    agg.fpm_by_c[c] += t.result.fp_healthy_events;
    ++agg.runs;
  }
  return agg;
}

ThresholdSweepResult sweep_threshold(const swim::Config& cfg, const Grid& grid,
                                     std::uint64_t seed_base,
                                     const ProgressFn& progress, int jobs) {
  // One synchronized block of D per trial, observed for grid.observe.
  Campaign camp;
  camp.name = "sweep-threshold";
  camp.base = sweep_base("sweep-threshold", cfg, grid, msec(1),
                         fault::Fault::block());
  camp.base.run_length = grid.observe;
  // The trailing single-point axis contributes nothing to the scenario but
  // keeps the salt chain {c, d_us, 0} — the run_seed(base, c, d_us, 0, rep)
  // coordinates.
  camp.axes = {
      victims_axis(grid.concurrency),
      span_axis("duration", grid.durations,
                [](fault::TimelineEntry& e, Duration d) { e.duration = d; }),
      Axis::custom("interval", {{"0ms", 0, {}}})};
  camp.repetitions = grid.repetitions;
  camp.base_seed = seed_base;
  camp.jobs = resolve_jobs(jobs);

  FnProgress meter(progress);
  const CampaignResult res = run(camp, {&meter});

  ThresholdSweepResult agg;
  agg.runs = static_cast<int>(res.trials.size());
  for (const TrialResult& t : res.trials) {
    agg.first_detect.reserve(agg.first_detect.count() +
                             t.result.first_detect.size());
    for (double s : t.result.first_detect) agg.first_detect.record(s);
    agg.full_dissem.reserve(agg.full_dissem.count() +
                            t.result.full_dissem.size());
    for (double s : t.result.full_dissem) agg.full_dissem.record(s);
  }
  return agg;
}

ProgressFn stderr_progress(std::string label) {
  return [label](int done, int total) {
    std::fprintf(stderr, "\r%s: %d/%d runs", label.c_str(), done, total);
    if (done == total) std::fprintf(stderr, "\n");
    std::fflush(stderr);
  };
}

}  // namespace lifeguard::harness
