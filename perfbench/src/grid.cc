// paper-grid: a slice of the Table IV quick interval grid at n=128, SWIM vs
// Lifeguard on paired trial seeds, run through harness::Campaign with the
// invariant checker on.
#include <algorithm>
#include <mutex>
#include <thread>

#include "check/invariant.h"
#include "fault/injector.h"
#include "harness/campaign.h"
#include "harness/report.h"
#include "harness/scenariofile.h"
#include "workloads.h"

namespace perfbench {

namespace h = lifeguard::harness;
using lifeguard::Duration;
using lifeguard::msec;
using lifeguard::sec;
using lifeguard::sim::Simulator;

namespace {

constexpr const char* kBaseScenario = "scenarios/table4-false-positives.json";
constexpr int kWorkers = 4;
constexpr int kSetups = 3;
/// The trial of batch 0 the traced run replays for the sim layer: C=32, the
/// first D/I point, SWIM.
constexpr std::size_t kReplayTrial = 0;
/// Roughly the wall seconds one batch (one campaign) takes on a 4-core x86
/// host; the batch count is --seconds divided by this, so it never depends
/// on the host's speed.
constexpr double kBatchSeconds = 5.0;

/// Fault-free tail after the last anomalous period: longer than the
/// convergence invariant's 20 s settle window, so every trial asserts that
/// views converge once the anomaly ends.
constexpr Duration kQuietTail = sec(25);

struct Slice {
  // Costliest point first: the pool takes trials in index order, so long
  // trials start early and short ones fill the tail.
  std::vector<int> victims = {32, 8};
  std::vector<std::pair<int, int>> d_i_ms = {
      {16384, 4}, {16384, 256}, {32768, 256}, {32768, 4096}};
};

h::Campaign make_campaign(const h::Scenario& base, const Options& o) {
  const Slice slice;
  h::Campaign c;
  c.name = "paper-grid";
  c.base = base;
  c.base.checks = lifeguard::check::Spec::all();
  c.base.membership = o.membership;
  std::vector<h::AxisPoint> victims, d_i, configs;
  for (int v : slice.victims) {
    victims.push_back({"C=" + std::to_string(v), static_cast<std::uint64_t>(v),
                       [v](h::Scenario& s) {
                         s.timeline.entry(0).victims =
                             lifeguard::fault::VictimSelector::uniform(v);
                       }});
  }
  for (const auto& [d, i] : slice.d_i_ms) {
    d_i.push_back(
        {"D=" + std::to_string(d) + "ms,I=" + std::to_string(i) + "ms",
         static_cast<std::uint64_t>(d) * 100003u + static_cast<std::uint64_t>(i),
         [d, i](h::Scenario& s) {
           auto& e = s.timeline.entry(0);
           e.fault = lifeguard::fault::Fault::interval_block(msec(d), msec(i));
           e.duration = lifeguard::fault::cycle_aligned_length(sec(120), msec(d),
                                                               msec(i));
           s.run_length = e.duration + kQuietTail;
         }});
  }
  // One salt for both configs: every trial seed is paired across them.
  configs.push_back({"SWIM", 0, [](h::Scenario& s) {
                       s.config = lifeguard::swim::Config::swim_baseline();
                     }});
  configs.push_back({"Lifeguard", 0, [](h::Scenario& s) {
                       s.config = lifeguard::swim::Config::lifeguard();
                     }});
  c.axes = {h::Axis::custom("victims", victims), h::Axis::custom("d_i", d_i),
            h::Axis::custom("config", configs)};
  c.repetitions = 1;
  c.jobs = std::min<int>(kWorkers,
                         std::max(1u, std::thread::hardware_concurrency()));
  return c;
}

/// Per-trial stamps (start from the trial-sink factory on the worker
/// thread, end from Reporter::progress on the same thread) and the exact
/// results folded in trial-index order from Reporter::on_trial.
class Recorder final : public h::Reporter {
 public:
  Recorder(Tracer& tr, Result& r, const std::vector<h::GridPoint>& grid,
           int batch)
      : tr_(tr), r_(r), grid_(grid), batch_(batch),
        start_(grid.size()), start_ns_(grid.size(), 0),
        end_ns_(grid.size(), 0) {}

  void started(int trial) {
    std::lock_guard<std::mutex> lock(mu_);
    running_[std::this_thread::get_id()] = trial;
    start_[static_cast<std::size_t>(trial)] = Clock::now();
    start_ns_[static_cast<std::size_t>(trial)] = tr_.now_ns();
  }
  Clock::time_point start(std::size_t trial) const { return start_[trial]; }
  void progress(int, int) override {
    std::lock_guard<std::mutex> lock(mu_);
    end_ns_[static_cast<std::size_t>(running_[std::this_thread::get_id()])] =
        tr_.now_ns();
  }
  void on_trial(const h::TrialResult& t) override {
    const auto& labels = grid_[static_cast<std::size_t>(t.point_index)].labels;
    const std::string what = "batch " + std::to_string(batch_) + " trial " +
                             std::to_string(t.trial_index) + " (" + labels[0] +
                             " " + labels[1] + " " + labels[2] + ")";
    const auto& checks = t.result.checks;
    r_.op(checks.passed(),
          what + ": " + std::to_string(checks.total_violations) +
              " invariant violations" +
              (checks.violations.empty()
                   ? std::string()
                   : " (first: " + checks.violations.front().describe() + ")"));
    protocol_counts(t.result.metrics, r_);
    r_.counts["check.events"] += checks.events_seen;
    r_.counts["check.violations"] += checks.total_violations;
    (labels[2] == "SWIM" ? fp_swim : fp_lifeguard) += t.result.fp_events;
    if (static_cast<std::size_t>(t.trial_index) == kReplayTrial) {
      replay_metrics = t.result.metrics;
    }
  }

  std::vector<double> trial_seconds() const {
    std::vector<double> out;
    for (std::size_t i = 0; i < start_ns_.size(); ++i) {
      out.push_back(static_cast<double>(end_ns_[i] - start_ns_[i]) * 1e-9);
    }
    return out;
  }
  void spans(int parent) const {
    for (std::size_t i = 0; i < start_ns_.size(); ++i) {
      tr_.add("harness::run", start_ns_[i], end_ns_[i], parent,
              static_cast<int>(i));
    }
  }

  std::int64_t fp_swim = 0, fp_lifeguard = 0;
  lifeguard::Metrics replay_metrics;

 private:
  Tracer& tr_;
  Result& r_;
  const std::vector<h::GridPoint>& grid_;
  int batch_;
  std::mutex mu_;
  std::map<std::thread::id, int> running_;
  std::vector<Clock::time_point> start_;
  std::vector<std::int64_t> start_ns_, end_ns_;
};

/// Virtual length of one trial: the quiesce plus the injector's planned run.
double trial_vs(const h::Scenario& s) {
  return (s.quiesce + lifeguard::fault::FaultInjector::plan_total_run(
                          s.effective_timeline(), s.run_length))
      .seconds();
}

/// Re-runs one campaign trial on a directly driven Simulator, in traced
/// 1-s slices, to read what harness::run keeps inside: event counts, queue
/// depth, SimRuntime backlog and receive-buffer drops. Mirrors harness::run
/// step for step, so its protocol counts must equal the campaign's.
lifeguard::Metrics replay_trial(const h::Scenario& s, const Options& o,
                                Tracer& tr, Result& r) {
  auto params = sim_params(s.seed, s.membership);
  params.network = s.network;
  params.msg_proc_cost = s.msg_proc_cost;
  params.recv_buffer_bytes = s.recv_buffer_bytes;
  Simulator sim(s.cluster_size, s.config, params);
  SliceStats slices;
  sim.start_all();
  const PhaseRun join = run_phase(sim, "join", s.quiesce, o, tr, slices);
  const lifeguard::TimePoint start = sim.now();
  const auto outcome = lifeguard::fault::FaultInjector().inject(
      sim, s.effective_timeline(), start, s.run_length);
  const PhaseRun anomaly =
      run_phase(sim, "anomaly", outcome.total_run, o, tr, slices);
  r.metric("sim.events", static_cast<double>(sim.queue().executed()));
  r.metric("sim.datagrams", static_cast<double>(sim.datagrams_routed()));
  std::int64_t dropped = 0;
  for (int i = 0; i < sim.size(); ++i) dropped += sim.runtime(i).inbound_dropped();
  r.metric("sim.inbound_dropped", static_cast<double>(dropped));
  Result phases;
  phase_metrics("join", join, s.quiesce, s.cluster_size, phases);
  phase_metrics("anomaly", anomaly, outcome.total_run, s.cluster_size, phases);
  r.metrics.insert(phases.metrics.begin(), phases.metrics.end());
  slice_metrics(slices, r);
  return sim.aggregate_metrics();
}

/// Warms one 128-member Lifeguard cluster through the trials' quiesce
/// (their join storm). Optionally records the census sweep on it.
void warm_join(const h::Scenario& base, const Options& o, Tracer& tr,
               bool census, Result& r) {
  Scoped span(tr, "join.n128");
  Simulator warm(base.cluster_size, lifeguard::swim::Config::lifeguard(),
                 sim_params(derive_seed(o.seed, 2), o.membership));
  warm.start_all();
  warm.run_for(base.quiesce);
  if (census) r.metric("membership.census_ms", census_ms(warm, tr));
}

}  // namespace

Result run_grid(const Options& o, Tracer& tr) {
  Result r;
  const long rss0 = rss_kb();

  // Set-up: load the committed scenario, build and validate the campaign,
  // and warm a 128-member cluster through its join storm (the quiesce every
  // trial starts with). Repeated; the last campaign runs.
  std::vector<double> setups, loads, joins;
  h::Campaign camp;
  for (int k = 0; k < kSetups; ++k) {
    Scoped span(tr, "setup");
    const auto t0 = Clock::now();
    std::string error;
    const auto base = h::ScenarioFile::load(kBaseScenario, error);
    loads.push_back(seconds_since(t0) * 1e3);
    if (!base) throw std::runtime_error(kBaseScenario + (": " + error));
    camp = make_campaign(*base, o);
    if (const auto errors = camp.validate(); !errors.empty()) {
      throw h::ScenarioError(errors);
    }
    warm_join(*base, o, tr, tr.enabled() && k == 0, r);
    setups.push_back(seconds_since(t0));
  }
  const int members = camp.base.cluster_size;

  const int batches =
      std::max(1, static_cast<int>(o.seconds / kBatchSeconds + 0.5));
  std::vector<double> batch_vsps, trial_secs;
  double cpu_total = 0, vs_total = 0, wall_total = 0, busy_total = 0;
  int trials_total = 0;
  std::int64_t fp_swim = 0, fp_lifeguard = 0;
  CountingSink events;
  for (int b = 0; b < batches; ++b) {
    camp.base_seed = derive_seed(o.seed, 10 + static_cast<std::uint64_t>(b));
    const std::vector<h::GridPoint> grid = h::expand_grid(camp);
    Recorder rec(tr, r, grid, b);

    // Per-trial sinks, one per trial index (no sharing across threads):
    // a counter in every run, wrapping a stream-only replica Checker whose
    // forwarding time is check.busy_s in traced runs.
    std::vector<std::unique_ptr<lifeguard::check::Checker>> replicas(grid.size());
    std::vector<std::unique_ptr<CountingSink>> sinks(grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
      if (tr.enabled()) {
        replicas[i] = std::make_unique<lifeguard::check::Checker>(
            grid[i].scenario.checks, grid[i].scenario.config, members,
            grid[i].scenario.membership);
      }
      sinks[i] = std::make_unique<CountingSink>(replicas[i].get(), tr.enabled());
    }
    camp.trial_sinks = [&](const h::TrialResult& t) {
      rec.started(t.trial_index);
      return std::vector<lifeguard::check::TraceSink*>{
          sinks[static_cast<std::size_t>(t.trial_index)].get()};
    };

    double vs = 0;
    for (const auto& p : grid) vs += trial_vs(p.scenario);
    const double cpu0 = process_cpu_s();
    const auto t0 = Clock::now();
    const int span = tr.open("campaign");
    const h::CampaignResult res = h::run(camp, {&rec});
    tr.close(span);
    camp.trial_sinks = nullptr;  // it refers to this batch's sinks
    const double wall = seconds_since(t0);
    const double cpu = process_cpu_s() - cpu0;
    rec.spans(span);

    batch_vsps.push_back(vs / wall);
    cpu_total += cpu;
    vs_total += vs;
    wall_total += wall;
    trials_total += static_cast<int>(res.trials.size());
    for (double s : rec.trial_seconds()) {
      trial_secs.push_back(s);
      busy_total += s;
    }
    // A trial's join: from its start (building the cluster) to the end of
    // its quiesce, when the fault timeline's first span opens.
    for (std::size_t i = 0; i < sinks.size(); ++i) {
      sinks[i]->add_into(events);
      joins.push_back(std::chrono::duration<double>(
                          sinks[i]->first_fault_start() - rec.start(i))
                          .count());
    }
    fp_swim += rec.fp_swim;
    fp_lifeguard += rec.fp_lifeguard;
    r.op(rec.fp_lifeguard <= rec.fp_swim,
         "batch " + std::to_string(b) + ": Lifeguard FP " +
             std::to_string(rec.fp_lifeguard) + " > SWIM FP " +
             std::to_string(rec.fp_swim) + " on the same trial seeds");

    if (tr.enabled() && b == 0) {
      h::Scenario s = grid[kReplayTrial].scenario;
      s.seed = res.trials[kReplayTrial].seed;
      Scoped replay_span(tr, "replay");
      const lifeguard::Metrics m = replay_trial(s, o, tr, r);
      Result a, b2;
      protocol_counts(m, a);
      protocol_counts(rec.replay_metrics, b2);
      r.op(a.counts == b2.counts,
           "the replayed trial's protocol counts differ from harness::run's");
    }
  }
  r.counts["fp.swim"] = fp_swim;
  r.counts["fp.lifeguard"] = fp_lifeguard;
  sink_counts(events, r);

  const int jobs = camp.jobs;
  r.metric("setup_s", median(setups));
  r.metric("join_s", median(joins));
  r.metric("vsps", median(batch_vsps));
  r.metric("core_s_per_vs", cpu_total / vs_total);
  r.metric("rss_kb_per_member",
           static_cast<double>(peak_rss_kb() - rss0) / (jobs * members));
  if (tr.enabled()) {
    protocol_layer_metrics(r);
    r.metric("check.events", static_cast<double>(r.counts["check.events"]));
    r.metric("check.violations",
             static_cast<double>(r.counts["check.violations"]));
    r.metric("check.busy_s", events.busy_s());
    r.metric("harness.trial_s.p50", median(trial_secs));
    r.metric("harness.trial_s.p90", quantile(trial_secs, 0.9));
    r.metric("harness.pool_busy_share", busy_total / (jobs * wall_total));
    r.metric("harness.scenario_load_ms", median(loads));
    r.metric("harness.fp_events.swim", static_cast<double>(fp_swim));
    r.metric("harness.fp_events.lifeguard", static_cast<double>(fp_lifeguard));
    r.metric("proto.pushpull_decode_us", pushpull_decode_us(members, tr));
    r.metric("trace.join_s", median(joins));
    r.metric("trace.vsps", median(batch_vsps));
  }
  r.notes.push_back(std::to_string(batches) + " batches, " +
                    std::to_string(trials_total) + " trials, " +
                    std::to_string(jobs) + " workers");
  r.notes.push_back("grid_trials_per_s " +
                    std::to_string(trials_total / wall_total) + " 1/s");
  r.notes.push_back("grid_core_s_per_trial " +
                    std::to_string(cpu_total / trials_total) + " s");
  r.notes.push_back("Lifeguard FP " + std::to_string(fp_lifeguard) +
                    " vs SWIM FP " + std::to_string(fp_swim) + " (" +
                    std::to_string(fp_swim > 0 ? 100.0 * fp_lifeguard / fp_swim
                                               : 0.0) +
                    "% of SWIM)");
  return r;
}

}  // namespace perfbench
