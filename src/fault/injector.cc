#include "fault/injector.h"

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>

#include "cluster/cluster.h"
#include "sim/anomaly.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace lifeguard::fault {

Duration FaultInjector::plan_total_run(const Timeline& tl,
                                       Duration run_length) {
  // The run must cover the observation window, every entry's own minimum
  // quiet point, and the largest per-kind settle slack. For a one-entry
  // Timeline this reduces exactly to the paper drivers' per-kind drains.
  Duration total = run_length;
  Duration slack{};
  for (const TimelineEntry& e : tl.entries()) {
    Duration min_end = e.at + e.duration;
    Duration sl{};
    switch (e.fault.kind) {
      case FaultKind::kBlock:
      case FaultKind::kLinkLoss:
      case FaultKind::kLatency:
      case FaultKind::kDuplicate:
      case FaultKind::kReorder:
        break;
      case FaultKind::kIntervalBlock:
        // Cycles begun inside the span complete ("the test ends at the end
        // of the next anomalous period", §V-D2).
        min_end =
            e.at + cycle_aligned_length(e.duration, e.fault.period, e.fault.gap);
        sl = sec(1);
        break;
      case FaultKind::kStress:
        sl = sec(2);
        break;
      case FaultKind::kPartition:
        sl = sec(1);
        break;
      case FaultKind::kFlapping:
        // A phase-shifted final cycle may close up to one period late.
        min_end = e.at + e.duration + e.fault.period;
        sl = sec(1);
        break;
      case FaultKind::kChurn:
        // The last crash before span end restarts at most one downtime
        // later; give the rejoin time to disseminate.
        min_end = e.at + e.duration + e.fault.period;
        sl = sec(2);
        break;
    }
    total = std::max(total, min_end);
    slack = std::max(slack, sl);
  }
  return total + slack;
}

InjectionOutcome FaultInjector::inject(sim::Simulator& sim, const Timeline& tl,
                                       TimePoint t0,
                                       Duration run_length) const {
  InjectionOutcome out;
  out.total_run = plan_total_run(tl, run_length);
  out.entry_victims.reserve(tl.size());

  // Per-node stack of active partition claims, shared by every partition
  // entry's closures: when spans overlap on a victim, an entry's end restores
  // the next-most-recent claim instead of blindly re-merging the node.
  auto partition_claims =
      std::make_shared<std::map<int, std::vector<int>>>();

  for (std::size_t i = 0; i < tl.size(); ++i) {
    const TimelineEntry& e = tl.entries()[i];
    const bool exclude_seed = e.fault.kind == FaultKind::kChurn;
    std::vector<int> victims =
        e.victims.resolve(sim.size(), sim.rng(), exclude_seed);
    const TimePoint start = t0 + e.at;
    const TimePoint end = start + e.duration;

    // Span markers for the checking layer's merged event stream. Scheduled
    // before the per-kind closures so a same-instant fault-start precedes
    // its first block/crash in the (stable FIFO) queue; notes are inert
    // when no tap is attached.
    const int entry_index = static_cast<int>(i);
    sim.at(start, [&sim, entry_index] {
      sim.note(sim::SimEventKind::kFaultStart, -1, entry_index);
    });
    sim.at(end, [&sim, entry_index] {
      sim.note(sim::SimEventKind::kFaultEnd, -1, entry_index);
    });

    switch (e.fault.kind) {
      case FaultKind::kBlock:
        sim::schedule_threshold_anomaly(sim, victims, start, e.duration);
        break;
      case FaultKind::kIntervalBlock:
        sim::schedule_interval_anomaly(sim, victims, start, e.fault.period,
                                       e.fault.gap, end);
        break;
      case FaultKind::kStress:
        sim::schedule_stress_anomaly(sim, victims, start, end, e.fault.stress);
        break;
      case FaultKind::kFlapping:
        sim::schedule_flapping_anomaly(sim, victims, start, e.fault.period,
                                       e.fault.gap, end);
        break;
      case FaultKind::kChurn:
        sim::schedule_churn_anomaly(sim, victims, start, e.fault.period,
                                    e.fault.gap, end);
        break;
      case FaultKind::kPartition: {
        // A distinct group per entry so overlapping partitions compose.
        const int group = static_cast<int>(i) + 1;
        sim.at(start, [&sim, victims, group, partition_claims] {
          for (int v : victims) {
            (*partition_claims)[v].push_back(group);
            sim.network().set_partition(v, group);
          }
        });
        sim.at(end, [&sim, victims, group, partition_claims] {
          for (int v : victims) {
            std::vector<int>& claims = (*partition_claims)[v];
            // Drop this entry's claim; the node follows the most recent
            // remaining claim (another still-active partition) or re-merges.
            if (const auto it = std::find(claims.rbegin(), claims.rend(),
                                          group);
                it != claims.rend()) {
              claims.erase(std::next(it).base());
            }
            sim.network().set_partition(v, claims.empty() ? 0 : claims.back());
          }
        });
        break;
      }
      case FaultKind::kLinkLoss:
      case FaultKind::kLatency:
      case FaultKind::kDuplicate:
      case FaultKind::kReorder: {
        sim::LinkFault lf;
        switch (e.fault.kind) {
          case FaultKind::kLinkLoss:
            lf.egress_loss = e.fault.egress_loss;
            lf.ingress_loss = e.fault.ingress_loss;
            break;
          case FaultKind::kLatency:
            lf.extra_latency = e.fault.extra_latency;
            lf.jitter = e.fault.jitter;
            break;
          case FaultKind::kDuplicate:
            lf.duplicate_p = e.fault.probability;
            break;
          default:  // kReorder
            lf.reorder_p = e.fault.probability;
            lf.reorder_spread = e.fault.spread;
            break;
        }
        // Tokens are shared between the install and remove closures so
        // overlapping entries on the same node stack and unwind cleanly.
        auto tokens = std::make_shared<std::vector<std::pair<int, int>>>();
        sim.at(start, [&sim, victims, lf, tokens] {
          for (int v : victims) {
            tokens->emplace_back(v, sim.network().add_link_fault(v, lf));
          }
        });
        sim.at(end, [&sim, tokens] {
          for (const auto& [node, token] : *tokens) {
            sim.network().remove_link_fault(node, token);
          }
        });
        break;
      }
    }

    out.entry_victims.push_back(victims);
    for (int v : victims) {
      if (std::find(out.victims.begin(), out.victims.end(), v) ==
          out.victims.end()) {
        out.victims.push_back(v);
      }
    }
  }
  return out;
}

InjectionOutcome FaultInjector::inject(Cluster& cluster, const Timeline& tl,
                                       Duration run_length) const {
  sim::Simulator* sim = cluster.simulator();
  if (sim == nullptr) {
    throw std::invalid_argument(
        "FaultInjector: the UDP backend cannot execute fault timelines yet — "
        "only block-style faults are portable there (see DESIGN.md); use the "
        "sim backend");
  }
  return inject(*sim, tl, sim->now(), run_length);
}

}  // namespace lifeguard::fault
