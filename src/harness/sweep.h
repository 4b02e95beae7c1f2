// Parameter sweeps over the experiment grids (paper Tables II & III) and
// their aggregation into the evaluation's tables and figures.
//
// Both sweeps run on the parallel Campaign engine (see campaign.h): the grid
// becomes campaign axes over a one-entry fault timeline (interval: lock-step
// D-blocked / I-open cycles for the test length, §V-D2; threshold: one
// synchronized block of D, §V-D1), repetitions become trials, and trials
// execute on a worker pool. Results are bit-identical at every parallelism
// level.
//
// Scope control (environment):
//   REPRO_FULL=1   use the paper's full grid (Tables II/III, 10 repetitions,
//                  120 s interval runs) — hours of compute on one core.
//   REPRO_REPS=n   override repetitions.
//   REPRO_SEED=n   base seed (default 42).
//   REPRO_JOBS=n   worker threads (default 0 = one per hardware thread;
//                  1 = sequential).
// A malformed value is an error, never a silent default.
// The default ("quick") grids subsample each dimension so every bench binary
// finishes in tens of seconds while preserving the paper's qualitative
// shape. Run seeds are paired across configurations: the same grid point and
// repetition sees the same anomaly victims and schedule under every config,
// which sharpens the %-of-SWIM comparisons at low repetition counts.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "harness/campaign.h"  // NamedConfig / table1_configs for the benches

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
  int cluster_size = 128;
  Duration quiesce = sec(15);
  Duration test_length = sec(60);    ///< interval experiment length
  Duration observe = sec(70);        ///< threshold observation window
};

/// Paper Table III (full) or a representative subsample (quick).
Grid interval_grid(const ReproOptions& opt);
/// Paper Table II (full) or a representative subsample (quick).
Grid threshold_grid(const ReproOptions& opt);

/// Aggregate of an interval-experiment sweep for one configuration.
struct IntervalSweepResult {
  std::int64_t fp = 0;    ///< FP Events
  std::int64_t fpm = 0;   ///< FP- Events (at healthy members)
  std::int64_t msgs = 0;  ///< compound messages sent
  std::int64_t bytes = 0;
  std::map<int, std::int64_t> fp_by_c;   ///< per concurrency level (Fig. 2)
  std::map<int, std::int64_t> fpm_by_c;  ///< per concurrency level (Fig. 3)
  int runs = 0;
};

/// Aggregate of a threshold-experiment sweep for one configuration.
struct ThresholdSweepResult {
  Histogram first_detect;  ///< seconds
  Histogram full_dissem;   ///< seconds
  int runs = 0;
};

using ProgressFn = std::function<void(int done, int total)>;

/// Runs the grid on the Campaign worker pool. `jobs` < 0 reads REPRO_JOBS
/// (then 0 = one worker per hardware thread, 1 = sequential). `progress`
/// fires in completion order.
IntervalSweepResult sweep_interval(const swim::Config& cfg, const Grid& grid,
                                   std::uint64_t seed_base,
                                   const ProgressFn& progress = {},
                                   int jobs = -1);

ThresholdSweepResult sweep_threshold(const swim::Config& cfg, const Grid& grid,
                                     std::uint64_t seed_base,
                                     const ProgressFn& progress = {},
                                     int jobs = -1);

/// Stderr progress meter ("label: 12/36 runs") for bench binaries.
ProgressFn stderr_progress(std::string label);

/// Per-run seed derivation, stable across configurations (paired runs).
/// Equals campaign trial_seed(base, {c, d_us, i_us}, rep).
std::uint64_t run_seed(std::uint64_t base, int c, std::int64_t d_us,
                       std::int64_t i_us, int rep);

}  // namespace lifeguard::harness
