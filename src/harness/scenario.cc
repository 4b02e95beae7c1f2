#include "harness/scenario.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <utility>

#include "check/invariant.h"
#include "check/tap.h"
#include "cluster/cluster.h"
#include "fault/injector.h"
#include "membership/backend.h"
#include "obs/sampler.h"
#include "sim/simulator.h"
#include "swim/events.h"

namespace lifeguard::harness {

// ---------------------------------------------------------------------------
// Validation

namespace {

std::string secs(Duration d) {
  std::ostringstream os;
  os << d.seconds() << " s";
  return os.str();
}

}  // namespace

std::vector<std::string> Scenario::validate() const {
  std::vector<std::string> errors;
  auto fail = [&errors](const std::string& msg) { errors.push_back(msg); };

  if (name.empty()) {
    fail("name must be non-empty — it is the registry key and the "
         "--scenario identifier");
  }
  if (cluster_size < 2) {
    fail("cluster_size (" + std::to_string(cluster_size) +
         ") must be >= 2 — a failure detector needs at least one peer to "
         "probe");
  }
  if (cluster_size > 4096) {
    fail("cluster_size (" + std::to_string(cluster_size) +
         ") is above the supported 4096 — the simulator allocates per-node "
         "state eagerly; shard the experiment instead");
  }
  if (quiesce.is_negative()) {
    fail("quiesce (" + secs(quiesce) + ") must be >= 0");
  }
  if (run_length <= Duration{0}) {
    fail("run_length (" + secs(run_length) +
         ") must be > 0 — it is the observation window after anomaly start");
  }
  if (msg_proc_cost.is_negative()) {
    fail("msg_proc_cost (" + secs(msg_proc_cost) + ") must be >= 0");
  }
  if (metrics_interval.is_negative()) {
    fail("metrics_interval (" + secs(metrics_interval) +
         ") must be >= 0 — zero disables telemetry sampling");
  }
  if (network.udp_loss < 0.0 || network.udp_loss > 1.0) {
    fail("network.udp_loss (" + std::to_string(network.udp_loss) +
         ") must be a probability in [0, 1]");
  }
  if (network.latency_min.is_negative() ||
      network.latency_min > network.latency_max) {
    fail("network latency range [" + secs(network.latency_min) + ", " +
         secs(network.latency_max) +
         "] must satisfy 0 <= latency_min <= latency_max");
  }

  for (std::string& e : checks.validate()) fail(std::move(e));

  {
    std::string spec_error;
    if (!membership::parse_spec(membership, &spec_error)) {
      fail("membership '" + membership + "': " + spec_error);
    }
  }

  for (std::string& e : timeline.validate(cluster_size)) fail(std::move(e));
  return errors;
}

namespace {

std::string join_errors(const std::vector<std::string>& errors) {
  std::string out = "invalid scenario:";
  for (const auto& e : errors) out += "\n  - " + e;
  return out;
}

}  // namespace

ScenarioError::ScenarioError(std::vector<std::string> errors)
    : std::runtime_error(join_errors(errors)), errors_(std::move(errors)) {}

// ---------------------------------------------------------------------------
// Engine

namespace {

/// Collect FP / FP⁻ counts and latency samples from the per-node event logs
/// (accounting per §V-F1/F2): an FP event is a node *originating* a dead
/// declaration (its own suspicion timeout) about a member outside the victim
/// set; FP⁻ additionally requires the originator to be outside it too.
void extract_results(sim::Simulator& sim, const std::vector<int>& victims,
                     TimePoint anomaly_start, RunResult& out) {
  std::set<std::string> victim_names;
  std::set<int> victim_set(victims.begin(), victims.end());
  for (int v : victims) victim_names.insert("node-" + std::to_string(v));

  // --- false positives ---
  for (int i = 0; i < sim.size(); ++i) {
    const bool reporter_is_victim = victim_set.contains(i);
    for (const auto& e : sim.events(i).events()) {
      if (e.type != swim::EventType::kFailed || !e.originated) continue;
      if (e.at < anomaly_start) continue;
      if (victim_names.contains(e.member)) continue;  // true-ish positive
      ++out.fp_events;
      if (!reporter_is_victim) ++out.fp_healthy_events;
    }
  }

  // --- detection / dissemination latency for the anomalous members ---
  for (int v : victims) {
    const std::string name = "node-" + std::to_string(v);
    double first = -1.0;
    bool all_healthy_marked = true;
    double last_healthy_mark = -1.0;
    for (int i = 0; i < sim.size(); ++i) {
      if (i == v) continue;
      double mark = -1.0;  // first time node i marked `name` failed
      for (const auto& e : sim.events(i).events()) {
        if (e.type != swim::EventType::kFailed || e.member != name) continue;
        if (e.at < anomaly_start) continue;
        const double t = (e.at - anomaly_start).seconds();
        if (mark < 0) mark = t;
        if (e.originated && (first < 0 || t < first)) first = t;
      }
      if (!victim_set.contains(i)) {
        if (mark < 0) {
          all_healthy_marked = false;
        } else {
          last_healthy_mark = std::max(last_healthy_mark, mark);
        }
      }
    }
    if (first >= 0) out.first_detect.push_back(first);
    if (first >= 0 && all_healthy_marked && last_healthy_mark >= 0) {
      out.full_dissem.push_back(last_healthy_mark);
    }
  }

  // --- load ---
  out.metrics = sim.aggregate_metrics();
  out.msgs_sent = out.metrics.counter_value("net.msgs_sent");
  out.bytes_sent = out.metrics.counter_value("net.bytes_sent");
}

}  // namespace

fault::Timeline Scenario::effective_timeline() const { return timeline; }

RunResult run(const Scenario& s, const std::vector<check::TraceSink*>& sinks) {
  if (auto errors = s.validate(); !errors.empty()) {
    throw ScenarioError(std::move(errors));
  }

  // Failure-only recording: extract_results reads nothing but kFailed
  // events, so this is metric-identical — and it keeps a big-* scenario's
  // O(n²) join storm out of memory. Checks and traces ride the EventBus and
  // see the full stream either way.
  auto cluster = ClusterBuilder()
                     .size(s.cluster_size)
                     .config(s.config)
                     .seed(s.seed)
                     .network(s.network)
                     .msg_proc_cost(s.msg_proc_cost)
                     .recv_buffer_bytes(s.recv_buffer_bytes)
                     .record_failures_only(true)
                     .membership(s.membership)
                     .build();
  sim::Simulator& sim = *cluster->simulator();

  // The checking layer observes the whole run (including the quiesce — a
  // trace replays from virtual time zero), so the tap attaches before
  // start(). Observers never perturb the run: no Rng draws, no mutation.
  std::optional<check::Checker> checker;
  std::vector<check::TraceSink*> all_sinks = sinks;
  if (s.checks.enabled) {
    checker.emplace(s.checks, s.config, s.cluster_size, s.membership);
    checker->bind(&sim);
    all_sinks.push_back(&*checker);
  }
  std::optional<check::EventTap> tap;
  if (!all_sinks.empty()) tap.emplace(sim, all_sinks);

  // Telemetry snapshots (obs::Sampler): scheduled before start() so the first
  // tick lands exactly one interval into virtual time — a replayed run's
  // sampler starts the same way, keeping the recorded series bit-identical.
  std::optional<obs::Sampler> sampler;
  if (s.metrics_interval > Duration{0}) {
    sampler.emplace(sim, s.metrics_interval, all_sinks);
    sampler->start();
  }

  cluster->start();
  cluster->run_for(s.quiesce);

  // One path for every scenario: compile the timeline onto the event queue
  // and run until every entry has completed and settled.
  const TimePoint start = sim.now();
  const fault::InjectionOutcome outcome =
      fault::FaultInjector().inject(sim, s.timeline, start, s.run_length);
  sim.run_until(start + outcome.total_run);

  RunResult out;
  out.scenario_name = s.name;
  out.cluster_size = s.cluster_size;
  out.victims = outcome.victims;
  extract_results(sim, outcome.victims, start, out);
  if (sampler) out.series = sampler->take_series();
  if (checker) {
    checker->finish(sim.now());
    out.checks = checker->report();
  }
  return out;
}

}  // namespace lifeguard::harness
