// perfbench — the repo benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--membership SPEC] [--one-call] [--counts-out FILE]
//
// Workloads: healthy-n512, churn-n512, paper-grid. Prints every metric with
// its unit, then, as the last line of stdout, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (and writes the spans to .bench_build/traces/). Exits 1 when a
// correctness check failed, 2 on a usage or set-up error.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>

#include "workloads.h"

namespace {

using namespace perfbench;

const std::vector<MetricName> kEndToEnd = {{"setup_s", "s"},
                                           {"join_s", "s"},
                                           {"vsps", "1/s"},
                                           {"core_s_per_vs", "s"},
                                           {"rss_kb_per_member", "kB"}};

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "healthy-n512|churn-n512|paper-grid --seed N --seconds S "
               "--trace 0|1 [--membership SPEC] [--one-call] "
               "[--counts-out FILE]\n",
               msg);
  return 2;
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::string counts_out;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--one-call") {
      o.one_call = true;
    } else if ((a == "--workload" || a == "--seed" || a == "--seconds" ||
                a == "--trace" || a == "--membership" || a == "--counts-out") &&
               (v = value()) != nullptr) {
      if (a == "--workload") o.workload = v;
      if (a == "--seed") have_seed = true, o.seed = std::strtoull(v, nullptr, 10);
      if (a == "--seconds") have_seconds = true, o.seconds = std::atoi(v);
      if (a == "--trace") have_trace = true, o.trace = std::strcmp(v, "0") != 0;
      if (a == "--membership") o.membership = v;
      if (a == "--counts-out") counts_out = v;
    } else {
      return usage(("unknown or incomplete argument '" + a + "'").c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace || o.seconds < 1) {
    return usage("--seed, --seconds (>= 1) and --trace are required");
  }

  Tracer tr(o.trace);
  Result r;
  try {
    if (o.workload == "healthy-n512") {
      r = run_healthy(o, tr);
    } else if (o.workload == "churn-n512") {
      r = run_churn(o, tr);
    } else if (o.workload == "paper-grid") {
      r = run_grid(o, tr);
    } else {
      return usage(("unknown workload '" + o.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", o.workload.c_str(), e.what());
    return 2;
  }

  // The reported set: every end-to-end metric untraced, every per-layer
  // metric traced (0 where the workload has no such layer activity).
  const std::vector<MetricName>& names = o.trace ? per_layer_names() : kEndToEnd;
  auto value_of = [&](const MetricName& m) {
    const auto it = r.metrics.find(m.name);
    return it == r.metrics.end() ? 0.0 : it->second;
  };
  std::printf("# %s seed=%llu seconds=%d trace=%d membership=%s\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0, o.membership.c_str());
  for (const MetricName& m : names) {
    std::printf("%-34s %16.6g %s\n", m.name, value_of(m), m.unit);
  }
  for (const std::string& note : r.notes) std::printf("# %s\n", note.c_str());
  std::printf("# operations: %d attempted, %d failed\n", r.attempted, r.failed);

  std::map<std::string, double> values;
  for (const auto& [k, v] : r.counts) values["count." + k] = static_cast<double>(v);
  for (const auto& [k, v] : r.metrics) values[k] = v;
  if (o.trace) {
    const std::filesystem::path dir = ".bench_build/traces";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const std::string path = (dir / (o.workload + "-seed" +
                                     std::to_string(o.seed) + ".json"))
                                 .string();
    if (tr.write(path, values)) std::printf("# spans written to %s\n", path.c_str());
  }
  if (!counts_out.empty()) {
    std::ofstream out(counts_out);
    out << "{";
    bool first = true;
    for (const auto& [k, v] : r.counts) {
      out << (first ? "" : ", ") << "\"" << k << "\": " << v;
      first = false;
    }
    out << "}\n";
  }

  std::string json = "{\"correct\": ";
  json += r.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < names.size(); ++i) {
    json += std::string(i ? ", \"" : "\"") + names[i].name +
            "\": {\"value\": " + number(value_of(names[i])) +
            ", \"unit\": \"" + names[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return r.failed == 0 ? 0 : 1;
}
