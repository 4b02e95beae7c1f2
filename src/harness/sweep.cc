#include "harness/sweep.h"

#include <charconv>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

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

namespace {

/// Entry 0 of `base`, which the grid axes write into; throws unless it is a
/// `kind` fault.
fault::TimelineEntry& anomaly_entry(Scenario& base, fault::FaultKind kind) {
  if (base.timeline.empty() || base.timeline.entries()[0].fault.kind != kind) {
    throw std::invalid_argument(
        "scenario '" + base.name + "': a grid campaign's base needs timeline "
        "entry 0 to be a " + fault::fault_kind_name(kind) + " fault");
  }
  return base.timeline.entry(0);
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

Campaign interval_campaign(Scenario base, const Grid& grid) {
  // Each trial cycles D-blocked / I-open for the whole test length.
  anomaly_entry(base, fault::FaultKind::kIntervalBlock).duration =
      grid.test_length;
  base.run_length = grid.test_length;
  Campaign camp;
  camp.name = "interval-grid";
  camp.base = std::move(base);
  camp.axes = {
      victims_axis(grid.concurrency),
      span_axis(
          "duration", grid.durations,
          [](fault::TimelineEntry& e, Duration d) { e.fault.period = d; }),
      span_axis("interval", grid.intervals,
                [](fault::TimelineEntry& e, Duration i) { e.fault.gap = i; })};
  camp.repetitions = grid.repetitions;
  return camp;
}

Campaign threshold_campaign(Scenario base, const Grid& grid) {
  // One synchronized block of D per trial, observed for grid.observe.
  anomaly_entry(base, fault::FaultKind::kBlock);
  base.run_length = grid.observe;
  Campaign camp;
  camp.name = "threshold-grid";
  camp.base = std::move(base);
  // The trailing single-point axis contributes nothing to the scenario but
  // keeps the salt chain {c, d_us, 0} that the threshold seeds have always
  // used.
  camp.axes = {
      victims_axis(grid.concurrency),
      span_axis("duration", grid.durations,
                [](fault::TimelineEntry& e, Duration d) { e.duration = d; }),
      Axis::custom("interval", {{"0ms", 0, {}}})};
  camp.repetitions = grid.repetitions;
  return camp;
}

}  // namespace lifeguard::harness
