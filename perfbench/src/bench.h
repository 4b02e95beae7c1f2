// Shared scaffolding of the repo benchmark: wall/CPU clocks, memory
// readings, the in-memory span recorder, the benchmark-owned counting
// TraceSink and the result record every workload fills in.
//
// Nothing here draws protocol randomness or mutates a cluster, so the exact
// work counts a workload reports are the same whether tracing is on or off.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "check/events.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// Clocks and process readings

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// User + system CPU seconds of the whole process (all threads).
double process_cpu_s();
/// Current resident set, kB (VmRSS).
long rss_kb();
/// Peak resident set of this process, kB (VmHWM).
long peak_rss_kb();

double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);

// ---------------------------------------------------------------------------
// Spans

/// One timed call into a layer. `parent` is the index of the enclosing span
/// (-1 at top level); spans of one trial share `group`.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  int group = -1;
};

/// Keeps spans in memory; write() dumps them (with per-name self times) when
/// the benchmark ends. Disabled tracers record nothing and cost one branch.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {
    if (enabled_) spans_.reserve(1 << 14);
  }
  bool enabled() const { return enabled_; }
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - t0_)
        .count();
  }
  /// Opens a span and returns its index (-1 when disabled).
  int open(std::string name, int parent = -1, int group = -1);
  void close(int index);
  /// Records a span whose bounds were stamped elsewhere (thread-safe).
  void add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
           int parent = -1, int group = -1);
  /// JSON document: every span plus per-name count, total and self time.
  bool write(const std::string& path,
             const std::map<std::string, double>& extra) const;

 private:
  bool enabled_;
  Clock::time_point t0_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span.
class Scoped {
 public:
  Scoped(Tracer& t, std::string name, int parent = -1)
      : t_(t), index_(t.open(std::move(name), parent)) {}
  ~Scoped() { t_.close(index_); }
  int index() const { return index_; }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer& t_;
  int index_;
};

// ---------------------------------------------------------------------------
// Counting sink

/// Counts every TraceEvent kind it sees and, when given an inner sink (a
/// check::Checker), forwards to it — timing the forward when `timed`. This
/// is the benchmark's view of the check layer: events, busy time, and the
/// control/member-event counts that prove what a workload injected.
class CountingSink final : public lifeguard::check::TraceSink {
 public:
  explicit CountingSink(lifeguard::check::TraceSink* inner = nullptr,
                        bool timed = false)
      : inner_(inner), timed_(timed) {}

  void on_trace_event(const lifeguard::check::TraceEvent& e) override;
  bool wants_datagrams() const override {
    return inner_ != nullptr && inner_->wants_datagrams();
  }

  std::int64_t count(lifeguard::check::TraceEventKind k) const {
    return counts_[static_cast<std::size_t>(k)];
  }
  double busy_s() const { return static_cast<double>(busy_ns_) * 1e-9; }
  /// When the first fault-timeline span opened (the end of a scenario's
  /// quiesce); the epoch when none has.
  Clock::time_point first_fault_start() const { return first_fault_start_; }
  void add_into(CountingSink& total) const;

 private:
  lifeguard::check::TraceSink* inner_;
  bool timed_;
  std::array<std::int64_t, 32> counts_{};
  std::int64_t busy_ns_ = 0;
  Clock::time_point first_fault_start_{};
};

// ---------------------------------------------------------------------------
// Results

/// What one workload run hands back to main(): operations attempted and
/// failed, metric values by name (units live in the reported-metric
/// tables), the exact work counts the
/// determinism self-check compares, and human-readable notes.
struct Result {
  int attempted = 0;
  int failed = 0;
  std::map<std::string, double> metrics;
  std::map<std::string, std::int64_t> counts;
  std::vector<std::string> notes;

  void metric(const std::string& name, double value) { metrics[name] = value; }
  /// Records one operation (a phase or a trial) and whether it held.
  void op(bool ok, const std::string& what);
};

/// Knobs shared by every workload, straight from the command line.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Membership spec override (e.g. "swim:plant=drop-refute").
  std::string membership = "swim";
  /// Run each phase in one run_for call instead of timed chunks.
  bool one_call = false;
};

/// Mixes the workload seed with a salt (SplitMix64), so each input a
/// workload generates has its own stream.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

}  // namespace perfbench
