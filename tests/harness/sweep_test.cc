#include "harness/sweep.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/report.h"

namespace lifeguard::harness {
namespace {

TEST(Sweep, QuickGridsAreSubsetsOfPaperGrids) {
  ReproOptions quick;  // default: full = false
  ReproOptions full;
  full.full = true;

  const Grid qi = interval_grid(quick);
  const Grid fi = interval_grid(full);
  // Paper Table III values, verbatim, in the full grid.
  EXPECT_EQ(fi.concurrency,
            (std::vector<int>{1, 4, 8, 12, 16, 20, 24, 28, 32}));
  EXPECT_EQ(fi.durations.size(), 6u);
  EXPECT_EQ(fi.intervals.size(), 8u);
  EXPECT_EQ(fi.repetitions, 10);
  EXPECT_EQ(fi.test_length, sec(120));

  // Quick values must all appear in the paper grid.
  for (int c : qi.concurrency) {
    EXPECT_NE(std::find(fi.concurrency.begin(), fi.concurrency.end(), c),
              fi.concurrency.end());
  }
  for (Duration d : qi.durations) {
    EXPECT_NE(std::find(fi.durations.begin(), fi.durations.end(), d),
              fi.durations.end());
  }
  for (Duration i : qi.intervals) {
    EXPECT_NE(std::find(fi.intervals.begin(), fi.intervals.end(), i),
              fi.intervals.end());
  }

  const Grid qt = threshold_grid(quick);
  const Grid ft = threshold_grid(full);
  EXPECT_EQ(ft.durations.size(), 6u);
  for (Duration d : qt.durations) {
    EXPECT_NE(std::find(ft.durations.begin(), ft.durations.end(), d),
              ft.durations.end());
  }
}

TEST(Sweep, RepsOverrideApplies) {
  ReproOptions opt;
  opt.reps_override = 7;
  EXPECT_EQ(interval_grid(opt).repetitions, 7);
  EXPECT_EQ(threshold_grid(opt).repetitions, 7);
}

/// A small cluster with one placeholder anomaly entry of `fault`'s kind;
/// the grid axes fill in its victims and shape.
Scenario tiny_base(int cluster_size, fault::Fault fault,
                   const swim::Config& cfg) {
  Scenario s;
  s.name = "tiny-grid";
  s.cluster_size = cluster_size;
  s.quiesce = sec(10);
  s.config = cfg;
  s.timeline.add(Duration{}, msec(1), fault,
                 fault::VictimSelector::uniform(1));
  return s;
}

/// Counts progress callbacks.
class CountingReporter : public Reporter {
 public:
  void progress(int done, int total) override {
    ++calls;
    EXPECT_LE(done, total);
  }
  int calls = 0;
};

TEST(Sweep, TinySweepAggregates) {
  Grid g;
  g.concurrency = {2};
  g.durations = {msec(512)};
  g.intervals = {msec(256)};
  g.repetitions = 1;
  g.test_length = sec(15);
  Campaign camp = interval_campaign(
      tiny_base(24, fault::Fault::interval_block(msec(1), msec(1)),
                swim::Config::lifeguard()),
      g);
  camp.base_seed = 7;
  EXPECT_EQ(camp.base.run_length, sec(15));
  EXPECT_EQ(camp.base.timeline.entries()[0].duration, sec(15));
  CountingReporter meter;
  const CampaignResult r = run(camp, {&meter});
  ASSERT_EQ(r.trials.size(), 1u);
  EXPECT_EQ(meter.calls, 1);
  EXPECT_GT(r.trials[0].result.msgs_sent, 0);
  ASSERT_EQ(r.points.size(), 1u);
  EXPECT_EQ(r.points[0].labels,
            (std::vector<std::string>{"2", "512ms", "256ms"}));
  EXPECT_EQ(r.trials[0].result.victims.size(), 2u);
}

TEST(Sweep, ThresholdSweepCollectsLatencySamples) {
  Grid g;
  g.concurrency = {2};
  g.durations = {msec(32768)};
  g.repetitions = 1;
  g.observe = sec(50);
  Campaign camp = threshold_campaign(
      tiny_base(32, fault::Fault::block(), swim::Config::swim_baseline()), g);
  camp.base_seed = 11;
  const CampaignResult r = run(camp);
  ASSERT_EQ(r.trials.size(), 1u);
  EXPECT_EQ(r.trials[0].result.first_detect.size(), 2u);  // both detected
}

TEST(Sweep, BuildersRejectABaseOfAnotherKind) {
  const Scenario block =
      tiny_base(8, fault::Fault::block(), swim::Config::lifeguard());
  EXPECT_THROW(interval_campaign(block, Grid{}), std::invalid_argument);
  Scenario healthy = block;
  healthy.timeline = fault::Timeline{};
  EXPECT_THROW(threshold_campaign(healthy, Grid{}), std::invalid_argument);
}

TEST(Sweep, BuildersKeepTheGridSaltsAndSeeds) {
  // Trial seeds depend only on the axis salts, so these pin every printed
  // paper number: interval points salt {c, d_us, i_us}, threshold points
  // {c, d_us, 0}, over the catalog bases the paper driver uses.
  const ScenarioRegistry& catalog = ScenarioRegistry::builtin();
  const ReproOptions quick;
  const Grid ig = interval_grid(quick);
  Campaign interval =
      interval_campaign(*catalog.find("table4-false-positives"), ig);
  interval.base_seed = 42;
  std::vector<std::vector<std::uint64_t>> want;
  for (int c : ig.concurrency) {
    for (Duration d : ig.durations) {
      for (Duration i : ig.intervals) {
        want.push_back({static_cast<std::uint64_t>(c),
                        static_cast<std::uint64_t>(d.us),
                        static_cast<std::uint64_t>(i.us)});
      }
    }
  }
  std::vector<std::vector<std::uint64_t>> got;
  bool found = false;
  for (const GridPoint& p : expand_grid(interval)) {
    got.push_back(p.salts);
    if (p.labels == std::vector<std::string>{"8", "16384ms", "4ms"}) {
      found = true;
      EXPECT_EQ(trial_seed(interval.base_seed, p.salts, 3),
                2716496835168647550ULL);
    }
  }
  EXPECT_EQ(got, want);
  EXPECT_TRUE(found);

  const Grid tg = threshold_grid(quick);
  Campaign threshold =
      threshold_campaign(*catalog.find("table5-latency"), tg);
  want.clear();
  got.clear();
  for (int c : tg.concurrency) {
    for (Duration d : tg.durations) {
      want.push_back({static_cast<std::uint64_t>(c),
                      static_cast<std::uint64_t>(d.us), 0});
    }
  }
  for (const GridPoint& p : expand_grid(threshold)) got.push_back(p.salts);
  EXPECT_EQ(got, want);
  EXPECT_TRUE(interval.validate().empty());
  EXPECT_TRUE(threshold.validate().empty());
}

TEST(Sweep, EnvParsing) {
  ::setenv("REPRO_FULL", "1", 1);
  ::setenv("REPRO_REPS", "3", 1);
  ::setenv("REPRO_SEED", "777", 1);
  const auto opt = ReproOptions::from_env();
  EXPECT_TRUE(opt.full);
  EXPECT_EQ(opt.reps_override, 3);
  EXPECT_EQ(opt.seed, 777u);
  ::unsetenv("REPRO_FULL");
  ::unsetenv("REPRO_REPS");
  ::unsetenv("REPRO_SEED");
  const auto def = ReproOptions::from_env();
  EXPECT_FALSE(def.full);
  EXPECT_EQ(def.reps_override, 0);
  EXPECT_EQ(def.seed, 42u);
  EXPECT_EQ(def.jobs, 0);

  ::setenv("REPRO_JOBS", "4", 1);
  ::setenv("REPRO_SEED", "18446744073709551615", 1);
  const auto edge = ReproOptions::from_env();
  EXPECT_EQ(edge.jobs, 4);
  EXPECT_EQ(edge.seed, 18446744073709551615u);
  ::unsetenv("REPRO_JOBS");
  ::unsetenv("REPRO_SEED");

  // A malformed value is an error naming the variable and the accepted
  // form, never a silent default (REPRO_FULL=yes used to mean quick).
  struct Bad {
    const char* var;
    const char* value;
    const char* form;
  };
  for (const Bad& bad : {
           Bad{"REPRO_FULL", "yes", "0 (quick grid) or 1"},
           Bad{"REPRO_FULL", "2", "0 (quick grid) or 1"},
           Bad{"REPRO_FULL", "", "0 (quick grid) or 1"},
           Bad{"REPRO_REPS", "-1", "non-negative integer"},
           Bad{"REPRO_REPS", "3x", "non-negative integer"},
           Bad{"REPRO_REPS", "99999999999", "non-negative integer"},
           Bad{"REPRO_SEED", "abc", "unsigned 64-bit"},
           Bad{"REPRO_SEED", " 42", "unsigned 64-bit"},
           Bad{"REPRO_SEED", "-1", "unsigned 64-bit"},
           Bad{"REPRO_SEED", "18446744073709551616", "unsigned 64-bit"},
           Bad{"REPRO_JOBS", "four", "non-negative integer"},
           Bad{"REPRO_JOBS", "-2", "non-negative integer"},
           Bad{"REPRO_JOBS", "+4", "non-negative integer"},
       }) {
    ::setenv(bad.var, bad.value, 1);
    try {
      ReproOptions::from_env();
      ADD_FAILURE() << bad.var << "='" << bad.value << "' was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(std::string(bad.var) + "='" + bad.value + "'"),
                std::string::npos)
          << msg;
      EXPECT_NE(msg.find(bad.form), std::string::npos) << msg;
    }
    ::unsetenv(bad.var);
  }
}

}  // namespace
}  // namespace lifeguard::harness
