// Golden-seed bit-parity for the swim backend behind the membership seam.
//
// The expected values below were captured by running these exact scenarios
// BEFORE swim::Node moved behind membership::Backend (when the simulator
// constructed Nodes directly). The refactor's contract is bit-parity: the
// same Rng draw order, the same event stream, the same trace bytes. Any
// drift here — one extra Rng draw in a constructor, a reordered fork, an
// extra sampler emission — changes these numbers and fails loudly.
//
// The trace digest is FNV-1a 64 over the full save_trace() output, so it
// covers the header (config echo, checks, membership), every membership
// transition, every fault marker and every metric sample byte for byte.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "check/spec.h"
#include "check/trace.h"
#include "harness/scenario.h"

namespace lifeguard::membership {
namespace {

using harness::RunResult;
using harness::Scenario;

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

struct Captured {
  RunResult result;
  std::uint64_t trace_digest = 0;
  std::size_t trace_events = 0;
};

Captured capture(const Scenario& s) {
  check::TraceRecorder rec(s, /*include_datagrams=*/false,
                           /*include_probe_spans=*/false);
  Captured c;
  c.result = harness::run(s, {&rec});
  std::ostringstream os;
  check::save_trace(rec.trace(), os);
  c.trace_digest = fnv1a(os.str());
  c.trace_events = rec.trace().events.size();
  return c;
}

TEST(GoldenParity, PartitionSplitHealRegistryScenario) {
  const Scenario* s =
      harness::ScenarioRegistry::builtin().find("partition-split-heal");
  ASSERT_NE(s, nullptr);
  const Captured c = capture(*s);
  EXPECT_EQ(c.result.fp_events, 18);
  EXPECT_EQ(c.result.fp_healthy_events, 0);
  EXPECT_EQ(c.result.msgs_sent, 7660);
  EXPECT_EQ(c.result.bytes_sent, 386362);
  const std::vector<double> first_detect = {
      26.433776999999999, 8.5650370000000002, 8.2032600000000002,
      16.513822999999999, 7.5465400000000002, 7.7139879999999996,
      14.750838,          16.513822999999999};
  const std::vector<double> full_dissem = {
      29.930029000000001, 8.8576709999999999, 8.683249,
      25.420369000000001, 7.8827210000000001, 8.1143839999999994,
      15.018610000000001, 26.407181999999999};
  EXPECT_EQ(c.result.first_detect, first_detect);
  EXPECT_EQ(c.result.full_dissem, full_dissem);
  EXPECT_EQ(c.trace_events, 774u);
  EXPECT_EQ(c.trace_digest, 16283597949118844276ull);
}

TEST(GoldenParity, CheckedRunWithMetricsSampling) {
  // Invariants on, 500 ms sampling: the digest covers every kMetricSample
  // the swim sampler path emits — the sampler refactor onto Agent virtuals
  // must not move a single byte.
  Scenario s;
  s.name = "golden-checked";
  s.summary = "golden";
  s.cluster_size = 12;
  s.config = swim::Config::lifeguard();
  s.timeline.add(Duration{}, sec(16), fault::Fault::block(),
                 fault::VictimSelector::uniform(2));
  s.quiesce = sec(15);
  s.run_length = sec(60);
  s.checks = check::Spec::all();
  s.metrics_interval = msec(500);
  s.seed = 7;
  const Captured c = capture(s);
  EXPECT_EQ(c.result.fp_events, 0);
  EXPECT_EQ(c.result.fp_healthy_events, 0);
  EXPECT_EQ(c.result.msgs_sent, 2883);
  EXPECT_EQ(c.result.bytes_sent, 111146);
  const std::vector<double> first_detect = {7.0122790000000004,
                                            8.9703130000000009};
  const std::vector<double> full_dissem = {7.2458640000000001,
                                           9.1145209999999999};
  EXPECT_EQ(c.result.first_detect, first_detect);
  EXPECT_EQ(c.result.full_dissem, full_dissem);
  EXPECT_EQ(c.result.checks.total_violations, 0);
  EXPECT_EQ(c.result.series.size(), 2400u);
  EXPECT_EQ(c.trace_events, 2648u);
  EXPECT_EQ(c.trace_digest, 13680031495120145778ull);
}

TEST(GoldenParity, ChurnRestartsRebuildNodesThroughTheBackend) {
  // Churn exercises restart_node — post-refactor the replacement agent comes
  // from Backend::create, which must draw nothing the old direct
  // construction didn't.
  Scenario s;
  s.name = "golden-churn";
  s.summary = "golden";
  s.cluster_size = 16;
  s.config = swim::Config::lifeguard();
  s.timeline.add(Duration{}, sec(60), fault::Fault::churn(sec(10), sec(20)),
                 fault::VictimSelector::uniform(3));
  s.quiesce = sec(15);
  s.run_length = sec(60);
  s.seed = 3;
  const Captured c = capture(s);
  EXPECT_EQ(c.result.fp_events, 0);
  EXPECT_EQ(c.result.fp_healthy_events, 0);
  EXPECT_EQ(c.result.msgs_sent, 6280);
  EXPECT_EQ(c.result.bytes_sent, 256276);
  const std::vector<double> first_detect = {27.705603, 16.823867,
                                            21.572320000000001};
  const std::vector<double> full_dissem = {27.86046, 17.005338999999999,
                                           21.673715999999999};
  EXPECT_EQ(c.result.first_detect, first_detect);
  EXPECT_EQ(c.result.full_dissem, full_dissem);
  EXPECT_EQ(c.trace_events, 619u);
  EXPECT_EQ(c.trace_digest, 7732788344126815014ull);
}

TEST(GoldenParity, SampledChurnReclaimsAndRejoinsDeadMembers) {
  // The sampled golden above never reclaims (60 s run, 120 s default
  // reclaim). Here victims stay down for 40 s against a 20 s reclaim, so
  // every view removes them, the reconnect tick picks among dead members,
  // housekeeping skips its walk whenever nothing is dead or left, and the
  // restarted victims are re-added under their old names — all under 500 ms
  // sampling and the full invariant suite. Captured before the member-state
  // counts moved into MembershipTable; the digest covers every sample.
  Scenario s;
  s.name = "golden-reclaim";
  s.summary = "golden";
  s.cluster_size = 10;
  s.config = swim::Config::lifeguard();
  s.config.dead_reclaim_after = sec(20);
  s.timeline.add(Duration{}, sec(90), fault::Fault::churn(sec(40), sec(20)),
                 fault::VictimSelector::uniform(2));
  s.quiesce = sec(15);
  s.run_length = sec(90);
  s.checks = check::Spec::all();
  s.metrics_interval = msec(500);
  s.seed = 11;
  const Captured c = capture(s);
  EXPECT_EQ(c.result.metrics.counter_value("swim.reclaimed"), 16);
  EXPECT_EQ(c.result.metrics.counter_value("sync.reconnect_attempts"), 27);
  EXPECT_EQ(c.result.fp_events, 0);
  EXPECT_EQ(c.result.fp_healthy_events, 0);
  EXPECT_EQ(c.result.msgs_sent, 3962);
  EXPECT_EQ(c.result.bytes_sent, 122566);
  const std::vector<double> first_detect = {60.779055, 51.513829000000001};
  const std::vector<double> full_dissem = {60.937480999999998,
                                           51.842078999999998};
  EXPECT_EQ(c.result.first_detect, first_detect);
  EXPECT_EQ(c.result.full_dissem, full_dissem);
  EXPECT_EQ(c.result.checks.total_violations, 0);
  EXPECT_EQ(c.result.series.size(), 4704u);
  EXPECT_EQ(c.trace_events, 4868u);
  EXPECT_EQ(c.trace_digest, 3167062172345025211ull);
}

}  // namespace
}  // namespace lifeguard::membership
