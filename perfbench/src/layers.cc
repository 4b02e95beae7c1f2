// Layer probes shared by the workloads: phase slicing, the membership
// census, the codec replay and the exact protocol counts.
#include <algorithm>
#include <stdexcept>

#include "common/bytes.h"
#include "proto/wire.h"
#include "workloads.h"

namespace perfbench {

using lifeguard::Duration;
using lifeguard::sec;
using lifeguard::sim::Simulator;

lifeguard::sim::SimParams sim_params(std::uint64_t seed,
                                     const std::string& membership) {
  lifeguard::sim::SimParams p;
  p.network = {lifeguard::usec(200), lifeguard::msec(2), 0.01};
  p.seed = seed;
  p.record_failures_only = true;
  p.msg_proc_cost = lifeguard::usec(5);
  p.recv_buffer_bytes = 256 * 1024;
  p.membership = membership;
  return p;
}

namespace {

void sample_slice(Simulator& sim, SliceStats& s) {
  s.queue_depth_max = std::max(s.queue_depth_max, sim.queue().pending());
  for (int i = 0; i < sim.size(); ++i) {
    s.backlog_max = std::max(s.backlog_max, sim.runtime(i).backlog());
    const auto& a = sim.agent(i);
    if (a.running()) {
      s.broadcast_pending_max =
          std::max(s.broadcast_pending_max, a.pending_broadcast_count());
    }
  }
}

}  // namespace

PhaseRun run_phase(Simulator& sim, const std::string& name, Duration length,
                   const Options& o, Tracer& tr, SliceStats& slices) {
  PhaseRun p;
  const auto ev0 = static_cast<std::int64_t>(sim.queue().executed());
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  if (tr.enabled()) {
    Scoped phase(tr, "phase." + name);
    for (std::int64_t left = length.us; left > 0; left -= sec(1).us) {
      const Duration step{std::min(left, sec(1).us)};
      const auto ts = Clock::now();
      const int span = tr.open("run_for", phase.index());
      sim.run_for(step);
      tr.close(span);
      slices.slice_ms.push_back(seconds_since(ts) * 1e3);
      sample_slice(sim, slices);
    }
    p.wall_s = seconds_since(t0);
    p.vsps = length.seconds() / p.wall_s;
  } else if (o.one_call) {
    sim.run_for(length);
    p.wall_s = seconds_since(t0);
    p.vsps = length.seconds() / p.wall_s;
  } else {
    constexpr int kChunks = 20;
    std::vector<double> rates;
    const lifeguard::TimePoint end = sim.now() + length;
    for (int c = 1; c <= kChunks; ++c) {
      const auto tc = Clock::now();
      const lifeguard::TimePoint before = sim.now();
      const lifeguard::TimePoint until =
          c == kChunks ? end
                       : before + Duration{(end - before).us / (kChunks - c + 1)};
      sim.run_until(until);
      rates.push_back((until - before).seconds() / seconds_since(tc));
    }
    p.wall_s = seconds_since(t0);
    p.vsps = median(rates);
  }
  p.cpu_s = process_cpu_s() - cpu0;
  p.events = static_cast<std::int64_t>(sim.queue().executed()) - ev0;
  return p;
}

void slice_metrics(const SliceStats& s, Result& r) {
  r.metric("sim.slice_wall_ms.p50", median(s.slice_ms));
  r.metric("sim.slice_wall_ms.max", quantile(s.slice_ms, 1.0));
  r.metric("sim.queue_depth_max", static_cast<double>(s.queue_depth_max));
  r.metric("sim.backlog_max", static_cast<double>(s.backlog_max));
  r.metric("proto.broadcast_pending_max",
           static_cast<double>(s.broadcast_pending_max));
}

void phase_metrics(const std::string& name, const PhaseRun& p, Duration len,
                   int members, Result& r) {
  r.counts["sim.events." + name] = p.events;
  r.metric("sim.events_per_member_vs." + name,
           static_cast<double>(p.events) / (members * len.seconds()));
  r.metric("sim.wall_us_per_event." + name,
           p.wall_s * 1e6 / static_cast<double>(std::max<std::int64_t>(1, p.events)));
}

double census_ms(const Simulator& sim, Tracer& tr) {
  std::vector<double> ms;
  volatile double sink = 0;
  for (int rep = 0; rep < 5; ++rep) {
    Scoped span(tr, "census");
    const auto t0 = Clock::now();
    double acc = 0;
    for (int i = 0; i < sim.size(); ++i) {
      const auto& a = sim.agent(i);
      if (!a.running()) continue;
      acc += a.active_members() + a.suspect_count() + a.dead_count() +
             a.health_score() + static_cast<double>(a.pending_broadcast_count());
    }
    ms.push_back(seconds_since(t0) * 1e3);
    sink = sink + acc;
  }
  return median(ms);
}

double pushpull_decode_us(int members, Tracer& tr) {
  namespace proto = lifeguard::proto;
  proto::PushPull pp;
  pp.from = "node-0";
  pp.from_addr = lifeguard::sim::sim_address(0);
  for (int i = 0; i < members; ++i) {
    pp.members.push_back({"node-" + std::to_string(i),
                          lifeguard::sim::sim_address(i),
                          static_cast<std::uint64_t>(i % 7), 0});
  }
  const std::vector<std::uint8_t> bytes = proto::encode_datagram(pp);
  Scoped span(tr, "codec.replay");
  std::vector<double> us;
  for (int rep = 0; rep < 51; ++rep) {
    const auto t0 = Clock::now();
    lifeguard::BufReader r(bytes);
    const auto m = proto::decode(r);
    us.push_back(seconds_since(t0) * 1e6);
    const auto* got = m ? std::get_if<proto::PushPull>(&*m) : nullptr;
    if (got == nullptr || static_cast<int>(got->members.size()) != members) {
      throw std::runtime_error("push-pull replay did not round-trip");
    }
  }
  return median(us);
}

void protocol_counts(const lifeguard::Metrics& m, Result& r,
                     const std::string& prefix) {
  for (const char* name :
       {"net.msgs_sent", "net.bytes_sent", "sync.received", "probe.started",
        "probe.acked", "suspicion.started", "suspicion.confirmed",
        "swim.refutations", "swim.join_learned", "swim.dead_declared",
        "swim.reclaimed"}) {
    r.counts[prefix + name] += m.counter_value(name);
  }
}

void sink_counts(const CountingSink& s, Result& r) {
  using Kind = lifeguard::check::TraceEventKind;
  const std::pair<const char*, Kind> kinds[] = {
      {"events.join", Kind::kJoin},       {"events.alive", Kind::kAlive},
      {"events.suspect", Kind::kSuspect}, {"events.failed", Kind::kFailed},
      {"events.crash", Kind::kCrash},     {"events.restart", Kind::kRestart},
      {"events.block", Kind::kBlock},     {"events.samples", Kind::kMetricSample}};
  for (const auto& [name, kind] : kinds) r.counts[name] += s.count(kind);
}

void protocol_layer_metrics(Result& r) {
  auto c = [&](const char* k) {
    const auto it = r.counts.find(k);
    return it == r.counts.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  r.metric("proto.msgs_sent", c("net.msgs_sent"));
  r.metric("proto.bytes_sent", c("net.bytes_sent"));
  r.metric("proto.bytes_per_datagram",
           ratio(c("net.bytes_sent"), c("net.msgs_sent")));
  r.metric("proto.sync_received", c("sync.received"));
  r.metric("proto.gossip_transmits", c("gossip.transmits"));
  r.metric("swim.probes_started", c("probe.started"));
  r.metric("swim.probe_ack_ratio", ratio(c("probe.acked"), c("probe.started")));
  r.metric("swim.suspicions_started", c("suspicion.started"));
  r.metric("swim.suspicion_confirm_ratio",
           ratio(c("suspicion.confirmed"), c("suspicion.started")));
  r.metric("swim.refutations", c("swim.refutations"));
  r.metric("swim.join_learned", c("swim.join_learned"));
  r.metric("swim.dead_declared", c("swim.dead_declared"));
  r.metric("swim.reclaimed", c("swim.reclaimed"));
  for (const char* kind : {"join", "alive", "suspect", "failed"}) {
    r.metric(std::string("swim.member_events.") + kind,
             c((std::string("events.") + kind).c_str()));
  }
  r.metric("fault.blocks", c("events.block"));
  r.metric("fault.crashes", c("events.crash"));
  r.metric("fault.restarts", c("events.restart"));
}

const std::vector<MetricName>& per_layer_names() {
  static const std::vector<MetricName> names = {
      {"sim.events", "count"},
      {"sim.datagrams", "count"},
      {"sim.events_per_member_vs.join", "1/s"},
      {"sim.events_per_member_vs.steady", "1/s"},
      {"sim.events_per_member_vs.churn", "1/s"},
      {"sim.events_per_member_vs.anomaly", "1/s"},
      {"sim.wall_us_per_event.join", "us"},
      {"sim.wall_us_per_event.steady", "us"},
      {"sim.wall_us_per_event.churn", "us"},
      {"sim.wall_us_per_event.anomaly", "us"},
      {"sim.slice_wall_ms.p50", "ms"},
      {"sim.slice_wall_ms.max", "ms"},
      {"sim.queue_depth_max", "count"},
      {"sim.backlog_max", "count"},
      {"sim.inbound_dropped", "count"},
      {"proto.msgs_sent", "count"},
      {"proto.bytes_sent", "B"},
      {"proto.bytes_per_datagram", "B"},
      {"proto.sync_received", "count"},
      {"proto.gossip_transmits", "count"},
      {"proto.broadcast_pending_max", "count"},
      {"proto.pushpull_decode_us", "us"},
      {"swim.member_events.join", "count"},
      {"swim.member_events.alive", "count"},
      {"swim.member_events.suspect", "count"},
      {"swim.member_events.failed", "count"},
      {"swim.probes_started", "count"},
      {"swim.probe_ack_ratio", "ratio"},
      {"swim.suspicions_started", "count"},
      {"swim.suspicion_confirm_ratio", "ratio"},
      {"swim.refutations", "count"},
      {"swim.join_learned", "count"},
      {"swim.dead_declared", "count"},
      {"swim.reclaimed", "count"},
      {"membership.census_ms", "ms"},
      {"obs.samples", "count"},
      {"obs.sampler_s", "s"},
      {"check.events", "count"},
      {"check.busy_s", "s"},
      {"check.violations", "count"},
      {"harness.trial_s.p50", "s"},
      {"harness.trial_s.p90", "s"},
      {"harness.pool_busy_share", "ratio"},
      {"harness.scenario_load_ms", "ms"},
      {"harness.fp_events.swim", "count"},
      {"harness.fp_events.lifeguard", "count"},
      {"fault.blocks", "count"},
      {"fault.crashes", "count"},
      {"fault.restarts", "count"},
      {"trace.join_s", "s"},
      {"trace.vsps", "1/s"},
  };
  return names;
}

}  // namespace perfbench
