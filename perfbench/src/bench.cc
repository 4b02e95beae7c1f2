#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>

namespace perfbench {

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

namespace {
long status_kb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string k = key;
  while (std::getline(in, line)) {
    if (line.compare(0, k.size(), k) == 0) {
      return std::strtol(line.c_str() + k.size(), nullptr, 10);
    }
  }
  return 0;
}
}  // namespace

long rss_kb() { return status_kb("VmRSS:"); }
long peak_rss_kb() { return status_kb("VmHWM:"); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------

int Tracer::open(std::string name, int parent, int group) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({std::move(name), now_ns(), 0, parent, group});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::close(int index) {
  if (index < 0) return;
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end_ns = t;
}

void Tracer::add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
                 int parent, int group) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({std::move(name), start_ns, end_ns, parent, group});
}

bool Tracer::write(const std::string& path,
                   const std::map<std::string, double>& extra) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Self time: a span's duration minus what its direct children cover.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  struct Agg {
    std::int64_t n = 0;
    double total = 0, self = 0;
  };
  std::map<std::string, Agg> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Agg& a = by_name[s.name];
    ++a.n;
    a.total += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    a.self += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
  }
  std::ofstream out(path);
  if (!out) return false;
  out << "{\n  \"summary\": {";
  bool first = true;
  for (const auto& [name, a] : by_name) {
    out << (first ? "\n" : ",\n") << "    \"" << name << "\": {\"count\": "
        << a.n << ", \"total_s\": " << a.total << ", \"self_s\": " << a.self
        << "}";
    first = false;
  }
  out << "\n  },\n  \"values\": {";
  first = true;
  for (const auto& [name, v] : extra) {
    out << (first ? "\n" : ",\n") << "    \"" << name << "\": " << v;
    first = false;
  }
  out << "\n  },\n  \"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << "    {\"id\": " << i << ", \"name\": \""
        << s.name << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
        << ", \"group\": " << s.group << "}";
  }
  out << "\n  ]\n}\n";
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------

void CountingSink::on_trace_event(const lifeguard::check::TraceEvent& e) {
  if (e.kind == lifeguard::check::TraceEventKind::kFaultStart &&
      count(e.kind) == 0) {
    first_fault_start_ = Clock::now();
  }
  ++counts_[static_cast<std::size_t>(e.kind)];
  if (inner_ == nullptr) return;
  if (!timed_) {
    inner_->on_trace_event(e);
    return;
  }
  const auto t0 = Clock::now();
  inner_->on_trace_event(e);
  busy_ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Clock::now() - t0)
                  .count();
}

void CountingSink::add_into(CountingSink& total) const {
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    total.counts_[i] += counts_[i];
  }
  total.busy_ns_ += busy_ns_;
}

void Result::op(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    notes.push_back("FAILED: " + what);
  }
}

}  // namespace perfbench
