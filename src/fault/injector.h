// FaultInjector — executes a fault::Timeline against a cluster.
//
// Injection is split into a backend-agnostic planning layer and a per-backend
// compilation step:
//
//   * plan_total_run() computes how long the run must last so every entry
//     completes and settles — pure arithmetic over the Timeline, shared by
//     any backend. For a one-entry Timeline it reproduces the paper
//     drivers' per-kind drain times exactly (golden-seed parity).
//   * inject(sim::Simulator&) resolves each entry's victims in entry order
//     (fixed Rng draw sequence) and compiles the entries onto the event
//     queue: process-level kinds reuse the sim/anomaly.h schedules;
//     partition entries get a distinct partition group each; network kinds
//     install/remove sim::LinkFault overlays at span boundaries.
//
// The block-style kinds only need "block/unblock node X at time T" from a
// backend, so a future UDP-backend compiler can reuse the same plan; see
// DESIGN.md ("Fault layer").
#pragma once

#include <vector>

#include "common/types.h"
#include "fault/fault.h"

namespace lifeguard {
class Cluster;
}

namespace lifeguard::sim {
class Simulator;
}

namespace lifeguard::fault {

/// What inject() resolved and scheduled.
struct InjectionOutcome {
  /// Union of every entry's victims, first-occurrence order, deduplicated.
  std::vector<int> victims;
  /// Per-entry victim sets, parallel to the Timeline.
  std::vector<std::vector<int>> entry_victims;
  /// Run the cluster for this long (measured from injection start) so every
  /// entry completes, cycles close, and restarts/heals settle.
  Duration total_run{};
};

class FaultInjector {
 public:
  /// How long (from injection start) a run over `tl` must last, given the
  /// scenario's observation window `run_length`. Per entry:
  ///   block/network kinds: the span itself;
  ///   interval: the span rounded up to whole cycles, + 1 s drain;
  ///   stress: the span + 2 s; partition: + 1 s after the heal-by window;
  ///   flapping: + one blocked period + 1 s (a phase-shifted final cycle);
  ///   churn: + one downtime + 2 s (the final restart and its rejoin).
  static Duration plan_total_run(const Timeline& tl, Duration run_length);

  /// Resolve victims and schedule every entry onto the simulator's event
  /// queue at `t0 + entry.at`. Does not run the clock — the caller runs
  /// sim.run_until(t0 + outcome.total_run). The Timeline must have passed
  /// validate() for the simulator's cluster size.
  InjectionOutcome inject(sim::Simulator& sim, const Timeline& tl,
                          TimePoint t0, Duration run_length) const;

  /// Cluster-facade convenience: injects into cluster.simulator() starting
  /// at the current virtual time. Throws std::invalid_argument on the UDP
  /// backend (only block-style faults are portable there; not compiled yet).
  InjectionOutcome inject(Cluster& cluster, const Timeline& tl,
                          Duration run_length) const;
};

}  // namespace lifeguard::fault
