// Compile a fault::Timeline into the live tier's action list.
//
// The simulator compiles timeline entries onto its virtual event queue
// (fault/injector.h); a multi-process cluster has no such queue, so the live
// tier lowers the same Timeline ahead of time into a flat, time-sorted list
// of primitive actions the parent executes at wall-clock offsets:
//
//   kBlock / kIntervalBlock / kStress / kFlapping -> kStop / kCont
//       (SIGSTOP / SIGCONT: a stopped process neither sends nor receives
//        protocol traffic — the closest real-OS analogue of sim block)
//   kChurn      -> kKill / kRespawn  (SIGKILL, then a fresh process on the
//                                     same UDP port rejoining via node 0)
//   kPartition  -> kPartitionAdd / kPartitionDel (the runner recomputes
//                  per-node peer block sets from the active claim stacks,
//                  mirroring sim::Network partition groups)
//   network kinds -> kNetemAdd / kNetemDel (per-victim netem overlays,
//                  keyed by the timeline entry index)
//   every entry -> kFaultStart / kFaultEnd markers for the merged stream
//
// The per-kind schedules replicate sim/anomaly.cc shape for shape: interval
// cycles begun before span end complete, flapping draws one random phase per
// victim from a full cycle, stress forks a per-victim Rng and staggers onset
// by up to 500 ms, churn phase-staggers its crash/restart cycles and never
// touches node 0 (the rejoin seed). Victim resolution uses the same
// VictimSelector::resolve in entry order. The draws come from the
// *caller-provided* Rng, though — not the shared engine Rng interleaved with
// protocol traffic — so a live run's victim sets are statistically
// equivalent to the simulator's, not bit-identical (docs/live-tier.md).
#pragma once

#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "fault/fault.h"
#include "net/fault_filter.h"

namespace lifeguard::live {

struct LiveAction {
  enum class Kind : std::uint8_t {
    kStop,          ///< SIGSTOP `node`
    kCont,          ///< SIGCONT `node`
    kKill,          ///< SIGKILL `node` (churn crash)
    kRespawn,       ///< restart `node` on its old port; it rejoins via node 0
    kNetemAdd,      ///< install `overlay` on `node` under `token`
    kNetemDel,      ///< remove `token`'s overlay from `node`
    kPartitionAdd,  ///< `island` splits off under claim `token`
    kPartitionDel,  ///< `island`'s claim `token` is released
    kFaultStart,    ///< entry-span marker for the merged stream
    kFaultEnd,
  };

  Duration at{};  ///< offset from injection start (after the quiesce)
  Kind kind = Kind::kStop;
  int node = -1;   ///< victim (process/netem kinds); -1 for markers
  int entry = -1;  ///< owning fault::Timeline entry index
  int token = 0;   ///< netem overlay / partition claim key
  net::NetemFilter::Overlay overlay{};  ///< kNetemAdd only
  std::vector<int> island{};              ///< kPartitionAdd/kPartitionDel only
};

struct LivePlan {
  /// Stable-sorted by `at`; equal-time actions keep per-entry generation
  /// order, so an entry's kFaultStart precedes its first same-instant stop.
  std::vector<LiveAction> actions;
  /// Per-entry victim sets, parallel to the Timeline (== sim's
  /// InjectionOutcome::entry_victims role).
  std::vector<std::vector<int>> entry_victims;
  /// Union of all victims, first-occurrence order, deduplicated.
  std::vector<int> victims;
  /// Run length from injection start (FaultInjector::plan_total_run).
  Duration total_run{};
};

/// Lower `tl` for a cluster of `cluster_size` observed for `run_length`.
/// The Timeline must already have passed validate() for that size.
LivePlan compile_timeline(const fault::Timeline& tl, int cluster_size,
                          Duration run_length, Rng& rng);

}  // namespace lifeguard::live
