// Scenario API: validation messages, the built-in registry, and the run()
// engine on the paper's experiment shapes (§V-D) as explicit timelines.
#include "harness/scenario.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "membership/backend.h"

namespace lifeguard::harness {
namespace {

/// True when some validation error mentions `needle`.
bool mentions(const std::vector<std::string>& errors,
              const std::string& needle) {
  return std::any_of(errors.begin(), errors.end(), [&](const std::string& e) {
    return e.find(needle) != std::string::npos;
  });
}

Scenario tiny_valid() {
  Scenario s;
  s.name = "tiny";
  s.cluster_size = 8;
  s.quiesce = sec(10);
  s.config = swim::Config::lifeguard();
  s.timeline.add(Duration{}, sec(16), fault::Fault::block(),
                 fault::VictimSelector::uniform(2));
  s.run_length = sec(30);
  return s;
}

/// One paper experiment shape (§V-D) as a one-entry timeline, on the
/// Scenario defaults that model the paper's testbed (15 s quiesce, 1% loss).
Scenario paper_shape(int nodes, swim::Config cfg, std::uint64_t seed,
                     Duration run_length, Duration span, fault::Fault f,
                     int victims) {
  Scenario s;
  s.name = "paper-shape";
  s.cluster_size = nodes;
  s.config = cfg;
  s.seed = seed;
  s.run_length = run_length;
  s.timeline.add(Duration{}, span, f, fault::VictimSelector::uniform(victims));
  return s;
}

// ---------------------------------------------------------------------------
// Validation

TEST(ScenarioValidation, ValidDescriptorHasNoErrors) {
  EXPECT_TRUE(tiny_valid().validate().empty());
}

TEST(ScenarioValidation, MissingNameAndBadSizeAreBothReported) {
  Scenario s = tiny_valid();
  s.name.clear();
  s.cluster_size = 1;
  const auto errors = s.validate();
  EXPECT_GE(errors.size(), 2u);  // plus victims no longer fitting the cluster
  EXPECT_TRUE(mentions(errors, "name must be non-empty"));
  EXPECT_TRUE(mentions(errors, "cluster_size (1) must be >= 2"));
}

TEST(ScenarioValidation, VictimCountMustFitCluster) {
  Scenario s = tiny_valid();
  s.timeline.entry(0).victims = fault::VictimSelector::uniform(12);
  EXPECT_TRUE(mentions(s.validate(), "more than cluster_size (8)"));
  s.timeline.entry(0).victims = fault::VictimSelector::uniform(0);
  EXPECT_TRUE(mentions(s.validate(), "victims count must be >= 1"));
}

TEST(ScenarioValidation, CyclingKindsNeedPositiveSpans) {
  Scenario s = tiny_valid();
  s.timeline.entry(0).fault =
      fault::Fault::interval_block(Duration{0}, Duration{0});
  const auto errors = s.validate();
  EXPECT_TRUE(mentions(errors, "timeline[0] (interval)"));
  EXPECT_TRUE(mentions(errors, "period D > 0 and gap I > 0"));
}

TEST(ScenarioValidation, ChurnReservesTheSeedNode) {
  Scenario s = tiny_valid();
  s.timeline.entry(0).fault = fault::Fault::churn(sec(10), sec(10));
  s.timeline.entry(0).victims = fault::VictimSelector::uniform(8);
  EXPECT_TRUE(mentions(s.validate(), "rejoin seed"));
}

TEST(ScenarioValidation, StressRangesMustBeOrdered) {
  Scenario s = tiny_valid();
  sim::StressParams sp;
  sp.block_min = sec(10);
  sp.block_max = sec(2);
  s.timeline.entry(0).fault = fault::Fault::stressed(sp);
  EXPECT_TRUE(mentions(s.validate(), "block_min <= block_max"));
}

TEST(ScenarioValidation, TimelineDefectsAreSurfaced) {
  Scenario s = tiny_valid();
  s.timeline = fault::Timeline{};
  s.timeline.add(sec(0), sec(5), fault::Fault::partition(),
                 fault::VictimSelector::uniform(8));  // whole 8-node cluster
  EXPECT_TRUE(mentions(s.validate(), "timeline[0]"));
  EXPECT_TRUE(mentions(s.validate(), "both sides"));
}

TEST(ScenarioValidation, NetworkLossMustBeProbability) {
  Scenario s = tiny_valid();
  s.network.udp_loss = 1.5;
  EXPECT_TRUE(mentions(s.validate(), "udp_loss"));
}

TEST(ScenarioValidation, RunRefusesInvalidDescriptorWithAllErrors) {
  Scenario s = tiny_valid();
  s.name.clear();
  s.run_length = Duration{0};
  try {
    run(s);
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_EQ(e.errors().size(), 2u);
    const std::string what = e.what();
    EXPECT_NE(what.find("invalid scenario"), std::string::npos);
    EXPECT_NE(what.find("run_length"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Registry

TEST(ScenarioRegistry, BuiltinCatalogCoversPaperAndNewKinds) {
  const auto& reg = ScenarioRegistry::builtin();
  EXPECT_GE(reg.all().size(), 10u);
  for (const char* name :
       {"fig1-cpu-exhaustion", "fig2-total-false-positives",
        "fig3-fp-at-healthy", "table4-false-positives", "table5-latency",
        "table6-message-load", "table7-alpha-beta", "partition-split-heal",
        "flapping-overload", "churn-rolling-restarts",
        "partition-under-stress", "lossy-flapping", "churn-after-heal",
        "packet-chaos"}) {
    EXPECT_NE(reg.find(name), nullptr) << name;
  }
  // The composed catalog entries carry multi-entry fault timelines.
  EXPECT_GE(reg.find("partition-under-stress")->timeline.size(), 2u);
  EXPECT_GE(reg.find("churn-after-heal")->timeline.size(), 2u);
  EXPECT_GE(reg.find("packet-chaos")->timeline.size(), 3u);
  std::set<fault::FaultKind> kinds;
  for (const auto& s : reg.all()) {
    EXPECT_TRUE(s.validate().empty()) << s.name;
    for (const auto& e : s.timeline.entries()) kinds.insert(e.fault.kind);
  }
  // All paper kinds plus the three post-paper process-level kinds.
  for (fault::FaultKind k :
       {fault::FaultKind::kBlock, fault::FaultKind::kIntervalBlock,
        fault::FaultKind::kStress, fault::FaultKind::kPartition,
        fault::FaultKind::kFlapping, fault::FaultKind::kChurn}) {
    EXPECT_TRUE(kinds.contains(k)) << fault::fault_kind_name(k);
  }
}

TEST(ScenarioRegistry, RejectsDuplicatesAndInvalidEntries) {
  ScenarioRegistry reg;
  reg.add(tiny_valid());
  EXPECT_THROW(reg.add(tiny_valid()), ScenarioError);
  Scenario bad = tiny_valid();
  bad.name = "bad";
  bad.cluster_size = 0;
  EXPECT_THROW(reg.add(bad), ScenarioError);
  EXPECT_EQ(reg.all().size(), 1u);
}

TEST(ScenarioRegistry, FindAndNamesAgree) {
  const auto& reg = ScenarioRegistry::builtin();
  for (const auto& name : reg.names()) {
    const Scenario* s = reg.find(name);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->name, name);
  }
  EXPECT_EQ(reg.find("no-such-scenario"), nullptr);
}

// ---------------------------------------------------------------------------
// Engine: every cataloged scenario runs end-to-end at a tiny scale

TEST(ScenarioEngine, EveryBuiltinScenarioRunsAtTinyScale) {
  for (const Scenario& original : ScenarioRegistry::builtin().all()) {
    Scenario s = original;
    // Shrink to seconds of virtual time while keeping the fault shape.
    s.cluster_size = std::min(s.cluster_size, 12);
    s.quiesce = sec(10);
    s.run_length = std::min(s.run_length, sec(40));
    for (std::size_t i = 0; i < s.timeline.size(); ++i) {
      fault::TimelineEntry& e = s.timeline.entry(i);
      e.duration = std::min(e.duration, sec(40));
      if (e.victims.mode == fault::VictimSelector::Mode::kUniform) {
        e.victims.count = std::min(e.victims.count, 2);
      }
    }
    ASSERT_TRUE(s.validate().empty()) << s.name;

    const RunResult r = run(s);
    EXPECT_EQ(r.scenario_name, s.name);
    EXPECT_EQ(r.cluster_size, s.cluster_size) << s.name;
    if (s.timeline.empty()) {
      EXPECT_TRUE(r.victims.empty()) << s.name;
    } else {
      // Composed scenarios: victims are the union across timeline entries.
      EXPECT_FALSE(r.victims.empty()) << s.name;
      EXPECT_LE(r.victims.size(), static_cast<std::size_t>(s.cluster_size))
          << s.name;
    }
    // The static control backend is a deliberate zero-message floor; every
    // real protocol must put datagrams on the wire.
    if (membership::base_name(s.membership) == "static") {
      EXPECT_EQ(r.msgs_sent, 0) << s.name;
      EXPECT_EQ(r.bytes_sent, 0) << s.name;
    } else {
      EXPECT_GT(r.msgs_sent, 0) << s.name;
      EXPECT_GT(r.bytes_sent, 0) << s.name;
    }
  }
}

TEST(ScenarioEngine, ReproducibleForSameSeedDistinctAcrossSeeds) {
  Scenario s = tiny_valid();
  const RunResult a = run(s);
  const RunResult b = run(s);
  EXPECT_EQ(a.victims, b.victims);
  EXPECT_EQ(a.fp_events, b.fp_events);
  EXPECT_EQ(a.msgs_sent, b.msgs_sent);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
  s.seed = 999;
  const RunResult c = run(s);
  EXPECT_NE(a.msgs_sent, c.msgs_sent);
}

TEST(ScenarioEngine, ChurnVictimsRejoinByTheEnd) {
  Scenario s;
  s.name = "churn-tiny";
  s.cluster_size = 10;
  s.quiesce = sec(10);
  s.config = swim::Config::lifeguard();
  s.timeline.add(Duration{}, sec(80), fault::Fault::churn(sec(15), sec(25)),
                 fault::VictimSelector::uniform(2));
  s.run_length = sec(80);
  s.seed = 51;
  const RunResult r = run(s);
  ASSERT_EQ(r.victims.size(), 2u);
  // Node 0 is the rejoin seed and must never be churned.
  EXPECT_FALSE(std::count(r.victims.begin(), r.victims.end(), 0));
  // Crashes were real: survivors declared the churned members dead.
  EXPECT_FALSE(r.first_detect.empty());
}

// ---------------------------------------------------------------------------
// The paper's experiment shapes produce sane, reproducible measurements

TEST(Experiment, ThresholdDetectsLongAnomalies) {
  const RunResult r =
      run(paper_shape(64, swim::Config::swim_baseline(), 301, sec(60),
                      msec(32768), fault::Fault::block(), 4));
  ASSERT_EQ(r.victims.size(), 4u);
  // All four victims detected; latency ≈ probe (1-2 s) + timeout
  // (5·log10(64) ≈ 9 s).
  ASSERT_EQ(r.first_detect.size(), 4u);
  for (double t : r.first_detect) {
    EXPECT_GT(t, 8.0);
    EXPECT_LT(t, 20.0);
  }
  // Dissemination completes shortly after detection.
  ASSERT_FALSE(r.full_dissem.empty());
  for (std::size_t i = 0; i < r.full_dissem.size(); ++i) {
    EXPECT_GE(r.full_dissem[i], r.first_detect[i] - 1e-9);
  }
}

TEST(Experiment, ThresholdShortAnomalyYieldsNoDetections) {
  // D = 128 ms, far below the suspicion timeout.
  const RunResult r =
      run(paper_shape(64, swim::Config::swim_baseline(), 303, sec(40),
                      msec(128), fault::Fault::block(), 4));
  EXPECT_TRUE(r.first_detect.empty());
  EXPECT_EQ(r.fp_events, 0);
}

TEST(Experiment, ReproducibleForSameSeed) {
  const Scenario s = paper_shape(
      48, swim::Config::swim_baseline(), 305, sec(60), sec(60),
      fault::Fault::interval_block(msec(16384), msec(4)), 8);
  const RunResult a = run(s);
  const RunResult b = run(s);
  EXPECT_EQ(a.fp_events, b.fp_events);
  EXPECT_EQ(a.msgs_sent, b.msgs_sent);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
  EXPECT_EQ(a.victims, b.victims);
}

TEST(Experiment, VictimCountMatchesRequest) {
  const RunResult r = run(paper_shape(
      32, swim::Config::lifeguard(), 307, sec(20), sec(20),
      fault::Fault::interval_block(msec(512), msec(256)), 5));
  EXPECT_EQ(r.victims.size(), 5u);
  std::set<int> distinct(r.victims.begin(), r.victims.end());
  EXPECT_EQ(distinct.size(), 5u);
  EXPECT_GT(r.msgs_sent, 0);
  EXPECT_GT(r.bytes_sent, 0);
}

TEST(Experiment, StressRunsAndReportsLoad) {
  const RunResult r =
      run(paper_shape(32, swim::Config::lifeguard(), 309, sec(60), sec(60),
                      fault::Fault::stressed(), 3));
  EXPECT_EQ(r.victims.size(), 3u);
  EXPECT_GT(r.msgs_sent, 0);
}

}  // namespace
}  // namespace lifeguard::harness
