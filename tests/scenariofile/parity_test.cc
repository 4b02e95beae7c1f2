// The catalog pinned to its committed runs.
//
// ScenarioRegistry::builtin() is the scenarios/*.json files, so a file edit
// — or a change to how files load or run — shows up here first: every
// non-big catalog scenario must reproduce its golden FNV-1a 64 digest of the
// saved trace (header, transitions, fault markers, metric samples — every
// byte) plus its message load, FP count and detection count. The goldens
// were captured when the catalog was still defined in C++ and exported to
// the files, so they also pin that the move to files changed no run. If one
// breaks, the run drifted: fix the code, do not re-capture. A second test
// pins campaign artifacts: a campaign over a catalog base emits
// byte-identical JSONL/CSV at jobs=1 and jobs=8, whether the base came from
// the registry or through the file format.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check/spec.h"
#include "check/trace.h"
#include "harness/campaign.h"
#include "harness/report.h"
#include "harness/scenario.h"
#include "harness/scenariofile.h"

namespace lifeguard::harness {
namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

struct Captured {
  RunResult result;
  std::uint64_t trace_digest = 0;
};

Captured capture(const Scenario& s) {
  check::TraceRecorder rec(s, /*include_datagrams=*/false,
                           /*include_probe_spans=*/false);
  Captured c;
  c.result = run(s, {&rec});
  std::ostringstream os;
  check::save_trace(rec.trace(), os);
  c.trace_digest = fnv1a(os.str());
  return c;
}

struct Golden {
  const char* name;
  std::uint64_t trace_digest;
  std::int64_t msgs, bytes, fp;
  std::size_t detections;
};

constexpr Golden kGoldens[] = {
      {"fig1-cpu-exhaustion", 0x62a51064f2a2fc30ull, 294502, 28223445, 5, 4},
      {"fig2-total-false-positives", 0x5dbb56fecef6144eull, 149043, 22771719,
       179, 8},
      {"fig3-fp-at-healthy", 0xb03b0fb5af81b7cbull, 175410, 25624984, 49, 8},
      {"table4-false-positives", 0x4b94b1e8ff4c7858ull, 157432, 17185220, 0, 0},
      {"table5-latency", 0x395ff31794d5df6eull, 39742, 8600485, 0, 4},
      {"table6-message-load", 0x158115b532a49c5cull, 149741, 16637530, 0, 0},
      {"table7-alpha-beta", 0x0179d4a19a7454ddull, 39112, 9016819, 0, 4},
      {"steady-state", 0xb58a6ec5c8d5134eull, 12315, 1523700, 0, 0},
      {"partition-split-heal", 0xe1faf60f7e820d74ull, 7660, 386362, 18, 8},
      {"flapping-overload", 0xf07d49599bea706bull, 74758, 6246642, 11, 4},
      {"churn-rolling-restarts", 0xa65d6df3e8d6f57dull, 20235, 1088792, 0, 4},
      {"partition-under-stress", 0x1c4414ff28fabfbcull, 6744, 380863, 13, 7},
      {"lossy-flapping", 0x195c6dd601e3eb76ull, 33435, 1614951, 0, 3},
      {"churn-after-heal", 0x0df2d2b6053ad056ull, 8172, 390965, 17, 7},
      {"packet-chaos", 0xdf31c0b3cc262f00ull, 4885, 266461, 0, 0},
      {"central-crash-detect", 0x214d6fcac9aac662ull, 3455, 270899, 3, 3},
      {"central-coordinator-crash", 0x02e3f4aa5a01df80ull, 3406, 260670, 15, 1},
      {"static-floor", 0xdce9733761eb5094ull, 0, 0, 0, 0},
      {"live-healthy", 0xe47919e1789cd477ull, 1139, 33867, 0, 0},
      {"live-lossy", 0xf09b4b0c3b47d777ull, 2209, 59077, 0, 0},
      {"live-crash-restart", 0x5b8e585978df6c5aull, 1862, 59653, 0, 1},
      {"live-partition-under-stress", 0xc71abc4d03c9af3dull, 2741, 116396, 6,
       4},
};

TEST(ScenarioFileParity, EveryCatalogScenarioMatchesItsGolden) {
  std::vector<Scenario> all;
  for (const Scenario& s : ScenarioRegistry::builtin().all()) {
    if (s.cluster_size < 1000) all.push_back(s);  // big-* tier runs out of band
  }
  ASSERT_EQ(all.size(), std::size(kGoldens));

  // Independent deterministic runs — spread them like campaign trials.
  std::vector<Captured> runs(all.size());
  std::vector<std::thread> pool;
  std::atomic<std::size_t> next{0};
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned w = 0; w < hw; ++w) {
    pool.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= all.size()) return;
        runs[i] = capture(all[i]);
      }
    });
  }
  for (auto& th : pool) th.join();

  for (const Golden& g : kGoldens) {
    const auto it =
        std::find_if(all.begin(), all.end(),
                     [&](const Scenario& s) { return s.name == g.name; });
    ASSERT_NE(it, all.end()) << g.name << " is missing from the catalog";
    const Captured& c = runs[static_cast<std::size_t>(it - all.begin())];
    EXPECT_EQ(c.trace_digest, g.trace_digest) << g.name;
    EXPECT_EQ(c.result.msgs_sent, g.msgs) << g.name;
    EXPECT_EQ(c.result.bytes_sent, g.bytes) << g.name;
    EXPECT_EQ(c.result.fp_events, g.fp) << g.name;
    EXPECT_EQ(c.result.first_detect.size(), g.detections) << g.name;
  }
}

TEST(ScenarioFileParity, CampaignArtifactsMatchAcrossLoadAndJobsLevels) {
  Campaign c;
  c.name = "filed-campaign";
  c.base = *ScenarioRegistry::builtin().find("partition-split-heal");
  c.base.cluster_size = 12;
  c.base.timeline.entry(0).victims = fault::VictimSelector::uniform(4);
  c.base.run_length = sec(90);
  c.base.checks = check::Spec::all();
  c.repetitions = 4;

  std::string error;
  const auto loaded =
      ScenarioFile::from_json(ScenarioFile::to_json(c.base), error);
  ASSERT_TRUE(loaded.has_value()) << error;

  auto artifacts = [&](const Scenario& base, int jobs) {
    Campaign run_c = c;
    run_c.base = base;
    run_c.jobs = jobs;
    std::ostringstream jsonl, csv;
    JsonlReporter jr(jsonl);
    CsvReporter cr(csv);
    run(run_c, {&jr, &cr});
    return std::pair{jsonl.str(), csv.str()};
  };

  const auto registry_seq = artifacts(c.base, 1);
  const auto registry_par = artifacts(c.base, 8);
  const auto loaded_seq = artifacts(*loaded, 1);
  const auto loaded_par = artifacts(*loaded, 8);
  EXPECT_EQ(registry_seq, registry_par);
  EXPECT_EQ(registry_seq, loaded_seq);
  EXPECT_EQ(registry_seq, loaded_par);
}

}  // namespace
}  // namespace lifeguard::harness
