// The benchmark's three workloads and the layer probes they share.
#pragma once

#include <string>
#include <vector>

#include "bench.h"
#include "common/metrics.h"
#include "sim/simulator.h"

namespace perfbench {

/// The join phase runs from start_all through two windows. The storm
/// window is the paper's 15 s quiesce, past the n=512 join storm (6–8
/// virtual s on most seeds); per-layer `join` metrics describe it. The
/// convergence window is one 30-s push-pull interval: join gossip lost to
/// the 1% datagram loss leaves an agent short of members until
/// anti-entropy repairs it (on 1 seed in 36 that took 31 virtual s), so
/// every view is complete when the phase ends.
inline constexpr lifeguard::Duration kStormWindow = lifeguard::sec(15);
inline constexpr lifeguard::Duration kConvergeWindow = lifeguard::sec(30);

/// The simulator parameters every workload uses: the scenario files'
/// network (200 µs–2 ms latency, 1% UDP loss), 5 µs per backlogged inbound
/// message, a 256 KiB receive buffer, failure-only event recording.
lifeguard::sim::SimParams sim_params(std::uint64_t seed,
                                     const std::string& membership);

/// Per-slice readings of a traced phase.
struct SliceStats {
  std::vector<double> slice_ms;
  std::size_t queue_depth_max = 0;
  std::size_t backlog_max = 0;
  std::size_t broadcast_pending_max = 0;
};

/// One timed phase: the wall time it took, the median per-chunk rate in
/// virtual s per wall s, the CPU seconds and events it used.
struct PhaseRun {
  double wall_s = 0;
  double vsps = 0;
  double cpu_s = 0;
  std::int64_t events = 0;
};

/// Runs `sim` for `length` of virtual time. Untraced: in twenty equal chunks
/// (or one run_for call with Options::one_call), reporting the median chunk
/// rate. Traced: in 1-virtual-s slices, each a span under a `phase.<name>`
/// span, sampling queue depth, inbound backlog and broadcast queues after
/// every slice into `slices`.
PhaseRun run_phase(lifeguard::sim::Simulator& sim, const std::string& name,
                   lifeguard::Duration length, const Options& o, Tracer& tr,
                   SliceStats& slices);

/// sim.slice_wall_ms, queue depth, backlog and broadcast-queue maxima.
void slice_metrics(const SliceStats& s, Result& r);

/// A phase's exact event count (`sim.events.<name>`, a determinism count),
/// its events per member per virtual s and its wall µs per event.
void phase_metrics(const std::string& name, const PhaseRun& p,
                   lifeguard::Duration len, int members, Result& r);

/// Wall time (ms) of one sweep of the sampler's per-agent calls over the
/// running agents — median of several sweeps.
double census_ms(const lifeguard::sim::Simulator& sim, Tracer& tr);

/// Median wall time (µs) of proto::decode on a push-pull carrying `members`
/// entries — a replay of the codec outside the run, not a protocol call.
double pushpull_decode_us(int members, Tracer& tr);

/// The exact protocol counts every workload shares, read from the
/// aggregated registry (and the agents, for gossip transmits).
void protocol_counts(const lifeguard::Metrics& m, Result& r,
                     const std::string& prefix = "");

/// Adds a counting sink's membership, control and sample event counts
/// (`events.<kind>`) to the exact counts.
void sink_counts(const CountingSink& s, Result& r);

/// Fills the proto/swim per-layer metrics from exact counts in `r.counts`.
void protocol_layer_metrics(Result& r);

/// A reported metric: name and unit.
struct MetricName {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, so a traced run reports each (0 when the
/// workload has no such layer activity).
const std::vector<MetricName>& per_layer_names();

Result run_healthy(const Options& o, Tracer& tr);
Result run_churn(const Options& o, Tracer& tr);
Result run_grid(const Options& o, Tracer& tr);

}  // namespace perfbench
