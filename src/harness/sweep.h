// The paper's experiment grids (Tables II & III) and the campaigns that run
// them.
//
// A grid is data: victim counts C, anomaly durations D, open intervals I and
// repetitions. interval_campaign() / threshold_campaign() turn a grid plus a
// base Scenario (a catalog file whose timeline entry 0 is the anomaly) into
// a Campaign: the grid becomes victims/duration/interval axes over entry 0,
// repetitions become trials, and trials run on the Campaign worker pool
// (interval: lock-step D-blocked / I-open cycles for the test length,
// §V-D2; threshold: one synchronized block of D, §V-D1). Results are
// bit-identical at every parallelism level.
//
// Scope control (environment), read by ReproOptions::from_env():
//   REPRO_FULL=1   use the paper's full grid (Tables II/III, 10 repetitions,
//                  120 s interval runs) — hours of compute on one core.
//   REPRO_REPS=n   override repetitions.
//   REPRO_SEED=n   base seed (default 42).
//   REPRO_JOBS=n   worker threads (default 0 = one per hardware thread;
//                  1 = sequential).
// A malformed value is an error, never a silent default.
// The default ("quick") grids subsample each dimension so the paper driver
// finishes in tens of seconds per artifact while preserving the paper's
// qualitative shape. Trial seeds are paired across configurations: the
// axis salts are {c, d_us, i_us} (threshold: {c, d_us, 0}) and nothing
// else, so the same grid point and repetition sees the same anomaly victims
// and schedule under every config, which sharpens the %-of-SWIM comparisons
// at low repetition counts.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "harness/campaign.h"

namespace lifeguard::harness {

struct ReproOptions {
  bool full = false;
  int reps_override = 0;  ///< 0 = grid default
  std::uint64_t seed = 42;
  /// Campaign worker threads: 0 = one per hardware thread, 1 = sequential.
  int jobs = 0;
  /// Read REPRO_FULL / REPRO_REPS / REPRO_SEED / REPRO_JOBS from the
  /// environment. Each set variable must be a whole base-10 integer in its
  /// range (FULL 0 or 1; REPS and JOBS >= 0; SEED any u64); otherwise
  /// throws std::invalid_argument naming the variable and the accepted form.
  static ReproOptions from_env();
};

struct Grid {
  std::vector<int> concurrency;      ///< C values
  std::vector<Duration> durations;   ///< D values
  std::vector<Duration> intervals;   ///< I values (interval experiment only)
  int repetitions = 1;
  Duration test_length = sec(60);    ///< interval experiment length
  Duration observe = sec(70);        ///< threshold observation window

  bool operator==(const Grid&) const = default;
};

/// Paper Table III (full) or a representative subsample (quick).
Grid interval_grid(const ReproOptions& opt);
/// Paper Table II (full) or a representative subsample (quick).
Grid threshold_grid(const ReproOptions& opt);

/// The concurrency axis C (salt = C, label = C): uniform victims of
/// timeline entry 0.
Axis victims_axis(const std::vector<int>& counts);

/// The builders return a Campaign with the grid's repetitions; the caller
/// sets its protocol config (base.config), base_seed and jobs.
///
/// The interval experiment over `base`, whose timeline entry 0 must be an
/// interval block: axes victims × duration × interval (salts {c, d_us,
/// i_us}) set that entry's victims, blocked span D and open interval I;
/// entry 0 and the run both last grid.test_length. Throws
/// std::invalid_argument when entry 0 is missing or of another kind.
Campaign interval_campaign(Scenario base, const Grid& grid);

/// The threshold experiment over `base`, whose timeline entry 0 must be a
/// block: axes victims × duration × a constant interval point (salts {c,
/// d_us, 0}) set that entry's victims and duration; the run observes
/// grid.observe. Throws std::invalid_argument like interval_campaign().
Campaign threshold_campaign(Scenario base, const Grid& grid);

}  // namespace lifeguard::harness
