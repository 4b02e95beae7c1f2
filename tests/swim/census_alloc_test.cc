// Regression: the per-agent census the metrics sampler reads every tick
// (active, suspect and dead counts, local health, pending broadcasts)
// allocates nothing. The suspect and dead counts used to copy the whole
// member table into a vector and walk it, twice per agent per tick: O(n²)
// per sample across a cluster, and most of a 512-member churn run's wall
// time with 500 ms sampling.
//
// This file replaces the global operator new/delete for the whole
// swim_tests binary so the test can count the bytes requested while the
// census runs; outside that window the replacements only forward to
// malloc/free.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "sim/simulator.h"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_requested{0};
}  // namespace

// The replacements pair malloc with free by design; GCC cannot see that
// through inlining.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_requested.fetch_add(n, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace lifeguard {
namespace {

TEST(CensusAlloc, SettledNodeCensusAllocatesNothing) {
  constexpr int kNodes = 16;
  sim::SimParams p;
  p.seed = 5;
  sim::Simulator sim(kNodes, swim::Config::lifeguard(), p);
  sim.start_all();
  sim.run_for(sec(30));
  ASSERT_TRUE(sim.converged(kNodes));
  // One crashed member, declared dead everywhere but not yet reclaimed, so
  // the dead count the census reads is not trivially zero.
  sim.crash_node(0);
  sim.run_for(sec(40));

  long active = 0, suspect = 0, dead = 0;
  double gauges = 0;
  g_requested = 0;
  g_counting = true;
  for (int i = 1; i < kNodes; ++i) {
    const membership::Agent& a = sim.agent(i);
    active += a.active_members();
    suspect += a.suspect_count();
    dead += a.dead_count();
    gauges += a.health_score() +
              static_cast<double>(a.pending_broadcast_count());
  }
  g_counting = false;
  EXPECT_EQ(g_requested.load(), 0u);

  EXPECT_EQ(active, (kNodes - 1) * (kNodes - 1));
  EXPECT_EQ(suspect, 0);
  EXPECT_EQ(dead, kNodes - 1);
  EXPECT_GE(gauges, 0.0);
}

}  // namespace
}  // namespace lifeguard
