// healthy-n512 and churn-n512: one 512-member Lifeguard cluster driven
// directly through sim::Simulator.
#include <algorithm>
#include <optional>

#include "check/invariant.h"
#include "check/tap.h"
#include "obs/sampler.h"
#include "workloads.h"

namespace perfbench {

using lifeguard::Duration;
using lifeguard::sec;
using lifeguard::sim::Simulator;

namespace {

constexpr int kMembers = 512;

/// Virtual seconds per requested wall second, per phase: chosen so each
/// phase takes about --seconds on a 4-core x86 host. The virtual length, not
/// the wall time, is fixed, so a seed's work counts never depend on speed.
constexpr double kSteadyVsPerSecond = 45.0;
constexpr double kChurnVsPerSecond = 4.0;
/// Set-ups per run (the median is reported): building a cluster takes
/// milliseconds, settling one takes seconds.
constexpr int kBuildSetups = 9;
constexpr int kJoinRuns = 3;
constexpr int kSettleSetups = 3;
constexpr int kChurnVictims = 6;
constexpr int kStalledMembers = 2;
/// Quiet tail after the last restart: longer than the convergence
/// invariant's 20 s settle window, so convergence is asserted.
constexpr Duration kChurnTail = sec(25);
/// The scenario runner's default sampler interval.
constexpr Duration kSampleInterval = lifeguard::msec(500);

/// Whole virtual seconds, at least `floor_s`.
Duration whole_seconds(double s, std::int64_t floor_s) {
  return sec(std::max<std::int64_t>(floor_s, static_cast<std::int64_t>(s)));
}

/// Exact counts read straight from the cluster: no observer needed.
void cluster_counts(Simulator& sim, Result& r) {
  r.counts["sim.events"] = static_cast<std::int64_t>(sim.queue().executed());
  r.counts["sim.datagrams"] = sim.datagrams_routed();
  std::int64_t dropped = 0, transmits = 0;
  for (int i = 0; i < sim.size(); ++i) {
    dropped += sim.runtime(i).inbound_dropped();
    transmits += sim.agent(i).gossip_transmits_total();
  }
  r.counts["sim.inbound_dropped"] = dropped;
  r.counts["gossip.transmits"] = transmits;
  protocol_counts(sim.aggregate_metrics(), r);
}

/// No member is declared failed and every running agent sees all members.
bool healthy_view(const Simulator& sim) {
  for (int i = 0; i < sim.size(); ++i) {
    if (sim.agent(i).running() && sim.agent(i).dead_count() != 0) return false;
  }
  return sim.converged(sim.size());
}

/// One join phase (see kStormWindow): the storm window's own run, and the
/// wall time of the whole phase from start_all.
struct JoinRun {
  PhaseRun storm;
  double wall_s = 0;
};

JoinRun join_phase(Simulator& sim, const Options& o, Tracer& tr,
                   SliceStats& slices) {
  JoinRun j;
  const auto t0 = Clock::now();
  {
    Scoped span(tr, "start_all");
    sim.start_all();
  }
  j.storm = run_phase(sim, "join", kStormWindow, o, tr, slices);
  run_phase(sim, "converge", kConvergeWindow, o, tr, slices);
  j.wall_s = seconds_since(t0);
  return j;
}

void common_layer_metrics(Result& r) {
  r.metric("sim.events", static_cast<double>(r.counts["sim.events"]));
  r.metric("sim.datagrams", static_cast<double>(r.counts["sim.datagrams"]));
  r.metric("sim.inbound_dropped",
           static_cast<double>(r.counts["sim.inbound_dropped"]));
  protocol_layer_metrics(r);
}

}  // namespace

// ---------------------------------------------------------------------------
// healthy-n512

Result run_healthy(const Options& o, Tracer& tr) {
  Result r;
  const auto cfg = lifeguard::swim::Config::lifeguard();
  const auto params = sim_params(derive_seed(o.seed, 0), o.membership);
  const long rss0 = rss_kb();

  // Set-up: build the cluster (no I/O yet), kBuildSetups times. The last
  // kJoinRuns clusters each run the join phase on the same seed — identical
  // work, so their median wall time isolates the host's noise — and the
  // last one goes on to the steady phase.
  std::vector<double> setups, joins;
  std::unique_ptr<Simulator> sim;
  // Traced runs also count the last cluster's membership events.
  CountingSink events;
  std::optional<lifeguard::check::EventTap> tap;
  SliceStats slices;
  JoinRun join;
  for (int k = 0; k < kBuildSetups; ++k) {
    tap.reset();
    sim.reset();
    {
      Scoped span(tr, "setup");
      const auto t0 = Clock::now();
      sim = std::make_unique<Simulator>(kMembers, cfg, params);
      setups.push_back(seconds_since(t0));
    }
    if (k < kBuildSetups - kJoinRuns) continue;
    if (tr.enabled() && k == kBuildSetups - 1) {
      tap.emplace(*sim, std::vector<lifeguard::check::TraceSink*>{&events});
    }
    join = join_phase(*sim, o, tr, slices);
    joins.push_back(join.wall_s);
    r.op(healthy_view(*sim), "join phase: some agent does not see all " +
                                 std::to_string(kMembers) +
                                 " members, or declared one failed");
  }
  if (tr.enabled()) r.metric("membership.census_ms", census_ms(*sim, tr));

  const Duration steady_len = whole_seconds(kSteadyVsPerSecond * o.seconds, 10);
  const PhaseRun steady = run_phase(*sim, "steady", steady_len, o, tr, slices);
  r.op(healthy_view(*sim), "steady phase: some agent does not see all " +
                               std::to_string(kMembers) +
                               " members, or declared one failed");

  cluster_counts(*sim, r);
  phase_metrics("join", join.storm, kStormWindow, kMembers, r);
  phase_metrics("steady", steady, steady_len, kMembers, r);
  if (tr.enabled()) sink_counts(events, r);

  r.metric("setup_s", median(setups));
  r.metric("join_s", median(joins));
  r.metric("vsps", steady.vsps);
  r.metric("core_s_per_vs", steady.cpu_s / steady_len.seconds());
  r.metric("rss_kb_per_member",
           static_cast<double>(peak_rss_kb() - rss0) / kMembers);
  if (tr.enabled()) {
    slice_metrics(slices, r);
    common_layer_metrics(r);
    r.metric("proto.pushpull_decode_us", pushpull_decode_us(kMembers, tr));
    r.metric("trace.join_s", median(joins));
    r.metric("trace.vsps", steady.vsps);
  }
  r.notes.push_back("steady phase: " + std::to_string(steady_len.seconds()) +
                    " virtual s; steady_vsps " + std::to_string(steady.vsps) +
                    " 1/s (this workload's vsps)");
  return r;
}

// ---------------------------------------------------------------------------
// churn-n512

namespace {

/// A settled 512-member cluster with the invariant checker attached from
/// virtual time zero (wrapped by the benchmark's counting sink).
struct ChurnCluster {
  std::unique_ptr<Simulator> sim;
  std::unique_ptr<lifeguard::check::Checker> checker;
  std::unique_ptr<CountingSink> sink;
  std::unique_ptr<lifeguard::check::EventTap> tap;
  std::unique_ptr<lifeguard::obs::Sampler> sampler;
};

lifeguard::swim::Config churn_config() {
  auto cfg = lifeguard::swim::Config::lifeguard();
  // Reclaim dead members after 30 s instead of 120 s, so the reclaim path
  // runs inside the churn span.
  cfg.dead_reclaim_after = sec(30);
  return cfg;
}

std::unique_ptr<ChurnCluster> settle(const Options& o, Tracer& tr,
                                     SliceStats& slices, JoinRun& join) {
  auto c = std::make_unique<ChurnCluster>();
  const auto cfg = churn_config();
  c->sim = std::make_unique<Simulator>(
      kMembers, cfg, sim_params(derive_seed(o.seed, 0), o.membership));
  c->checker = std::make_unique<lifeguard::check::Checker>(
      lifeguard::check::Spec::all(), cfg, kMembers, o.membership);
  c->checker->bind(c->sim.get());
  c->sink = std::make_unique<CountingSink>(c->checker.get(), tr.enabled());
  c->tap = std::make_unique<lifeguard::check::EventTap>(
      *c->sim, std::vector<lifeguard::check::TraceSink*>{c->sink.get()});
  join = join_phase(*c->sim, o, tr, slices);
  return c;
}

/// One member taken out of service: from `at` (after the churn phase
/// starts) for `length`.
struct Outage {
  int node;
  Duration at, length;
};

/// The seeded fault plan of one churn run.
struct ChurnPlan {
  std::vector<Outage> crashes;
  /// I/O stalls of healthy members: long enough to be suspected, short
  /// enough to refute well inside the suspicion timeout.
  std::vector<Outage> stalls;
};

/// The seeded churn plan, all victims distinct and never node 0 (the
/// rejoin seed). Each crash victim goes down once and restarts inside the
/// span: half stay down 10–25 s and rejoin as known members, half 50–58 s,
/// long enough for every agent to reclaim them first. The stalled members
/// are blocked for 4–8 s early in the span, so each must refute a
/// suspicion.
ChurnPlan churn_plan(std::uint64_t seed, Duration span) {
  lifeguard::Rng rng(derive_seed(seed, 1));
  ChurnPlan plan;
  std::vector<int> taken;
  auto victim = [&] {
    for (;;) {
      const int v = static_cast<int>(rng.uniform_range(1, kMembers - 1));
      if (std::find(taken.begin(), taken.end(), v) == taken.end()) {
        taken.push_back(v);
        return v;
      }
    }
  };
  for (int i = 0; i < kChurnVictims; ++i) {
    const int v = victim();
    const Duration down = i % 2 == 1 ? sec(rng.uniform_range(50, 58))
                                     : sec(rng.uniform_range(10, 25));
    const Duration at{rng.uniform_range(sec(2).us, (span - down).us)};
    plan.crashes.push_back({v, at, down});
  }
  for (int i = 0; i < kStalledMembers; ++i) {
    const int v = victim();
    const Duration at = sec(rng.uniform_range(2, 10));
    plan.stalls.push_back({v, at, sec(rng.uniform_range(4, 8))});
  }
  return plan;
}

}  // namespace

Result run_churn(const Options& o, Tracer& tr) {
  Result r;
  const long rss0 = rss_kb();
  const Duration span = whole_seconds(kChurnVsPerSecond * o.seconds, 60);
  const Duration churn_len = span + kChurnTail;
  const ChurnPlan plan = churn_plan(o.seed, span);

  // Set-up: build and settle (the join storm, checker attached). Repeated;
  // the last cluster runs the churn phase. Traced runs set up twice and run
  // the churn phase on both, sampler on and off, to price the sampler.
  const int setups_n = tr.enabled() ? 2 : kSettleSetups;
  std::vector<double> setups, joins;
  std::vector<double> churn_walls;
  bool recorded = false;
  for (int k = 0; k < setups_n; ++k) {
    const bool last = k == setups_n - 1;
    const bool sampled = !tr.enabled() || k == 0;
    SliceStats slices;
    JoinRun join;
    std::unique_ptr<ChurnCluster> c;
    {
      Scoped span_setup(tr, "setup");
      const auto t0 = Clock::now();
      c = settle(o, tr, slices, join);
      setups.push_back(seconds_since(t0));
      joins.push_back(join.wall_s);
    }
    r.op(healthy_view(*c->sim), "settle: views did not converge");
    if (!tr.enabled() && !last) continue;

    Simulator& sim = *c->sim;
    if (tr.enabled() && k == 0) {
      r.metric("membership.census_ms", census_ms(sim, tr));
    }
    const lifeguard::TimePoint t0 = sim.now();
    for (const Outage& c : plan.crashes) {
      sim.at(t0 + c.at, [&sim, n = c.node] { sim.crash_node(n); });
      sim.at(t0 + c.at + c.length, [&sim, n = c.node] { sim.restart_node(n); });
    }
    for (const Outage& s : plan.stalls) {
      sim.at(t0 + s.at, [&sim, n = s.node] { sim.block_node(n); });
      sim.at(t0 + s.at + s.length, [&sim, n = s.node] { sim.unblock_node(n); });
    }
    if (sampled) {
      c->sampler = std::make_unique<lifeguard::obs::Sampler>(
          sim, kSampleInterval,
          std::vector<lifeguard::check::TraceSink*>{c->sink.get()});
      c->sampler->start();
    }
    const PhaseRun churn = run_phase(sim, "churn", churn_len, o, tr, slices);
    churn_walls.push_back(churn.wall_s);
    c->checker->finish(sim.now());
    const std::int64_t violations = c->checker->total_violations();
    const bool views = healthy_view(sim);
    std::string why = "churn phase: ";
    if (violations > 0) {
      why += std::to_string(violations) + " invariant violations (first: " +
             c->checker->violations().front().describe() + ")";
    } else {
      why += "views did not converge after the last restart";
    }
    r.op(violations == 0 && views, why);

    if (!recorded) {
      recorded = true;
      cluster_counts(sim, r);
      sink_counts(*c->sink, r);
      r.counts["check.events"] = c->checker->report().events_seen;
      r.counts["check.violations"] = violations;
      r.counts["obs.samples"] =
          c->sampler ? static_cast<std::int64_t>(c->sampler->series().size()) : 0;
      phase_metrics("join", join.storm, kStormWindow, kMembers, r);
      phase_metrics("churn", churn, churn_len, kMembers, r);
      // Whole-phase rate: crashes and rejoins make churn chunks uneven, so a
      // median over chunks would depend on where the seed put them.
      r.metric("vsps", churn_len.seconds() / churn.wall_s);
      r.notes.push_back("churn_vsps " + std::to_string(r.metrics["vsps"]) +
                        " 1/s (this workload's vsps)");
      r.metric("core_s_per_vs", churn.cpu_s / churn_len.seconds());
      if (tr.enabled()) {
        slice_metrics(slices, r);
        r.metric("check.busy_s", c->sink->busy_s());
        r.metric("trace.join_s", join.wall_s);
        r.metric("trace.vsps", churn_len.seconds() / churn.wall_s);
      }
    } else if (tr.enabled()) {
      // Observation draws no randomness: protocol work must be identical
      // with the sampler off, which only removes the sampler's own ticks.
      Result again;
      cluster_counts(sim, again);
      again.counts["sim.events"] += churn_len.us / kSampleInterval.us;
      bool same = true;
      for (const auto& [key, v] : again.counts) same = same && r.counts[key] == v;
      r.op(same, "the sampler changed the protocol's work counts");
    }
  }

  r.metric("setup_s", median(setups));
  r.metric("join_s", median(joins));
  r.metric("rss_kb_per_member",
           static_cast<double>(peak_rss_kb() - rss0) / kMembers);
  if (tr.enabled()) {
    common_layer_metrics(r);
    r.metric("obs.samples", static_cast<double>(r.counts["obs.samples"]));
    r.metric("obs.sampler_s", churn_walls[0] - churn_walls[1]);
    r.metric("check.events", static_cast<double>(r.counts["check.events"]));
    r.metric("check.violations", static_cast<double>(r.counts["check.violations"]));
    r.metric("proto.pushpull_decode_us", pushpull_decode_us(kMembers, tr));
  }
  r.notes.push_back("churn span: " + std::to_string(span.seconds()) +
                    " virtual s + " + std::to_string(kChurnTail.seconds()) +
                    " s tail, " + std::to_string(plan.crashes.size()) +
                    " crashed and " + std::to_string(plan.stalls.size()) +
                    " stalled members");
  return r;
}

}  // namespace perfbench
