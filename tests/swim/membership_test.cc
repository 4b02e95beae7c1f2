// Membership table: round-robin probe order, random insertion, selection.
#include "swim/membership.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

namespace lifeguard::swim {
namespace {

Member mk(const std::string& name, MemberState s = MemberState::kAlive) {
  Member m;
  m.name = name;
  m.addr = Address{1, 1};
  m.state = s;
  return m;
}

TEST(Membership, AddFindContains) {
  Rng rng(1);
  MembershipTable t("self");
  t.add(mk("self"), rng);
  t.add(mk("a"), rng);
  EXPECT_TRUE(t.contains("a"));
  EXPECT_FALSE(t.contains("b"));
  ASSERT_NE(t.find("a"), nullptr);
  EXPECT_EQ(t.find("a")->name, "a");
  EXPECT_EQ(t.find("nope"), nullptr);
  EXPECT_EQ(t.size(), 2u);
}

TEST(Membership, NumActiveCountsAliveAndSuspect) {
  Rng rng(2);
  MembershipTable t("self");
  t.add(mk("self"), rng);
  t.add(mk("a"), rng);
  t.add(mk("b", MemberState::kSuspect), rng);
  t.add(mk("c", MemberState::kDead), rng);
  t.add(mk("d", MemberState::kLeft), rng);
  EXPECT_EQ(t.num_active(), 3);  // self + a + b
}

TEST(Membership, ProbeOrderVisitsEveryActiveMemberPerPass) {
  Rng rng(3);
  MembershipTable t("self");
  t.add(mk("self"), rng);
  for (int i = 0; i < 10; ++i) t.add(mk("m" + std::to_string(i)), rng);

  // Two full passes: every member probed exactly twice; self never.
  std::map<std::string, int> counts;
  for (int i = 0; i < 20; ++i) {
    Member* m = t.next_probe_target(rng);
    ASSERT_NE(m, nullptr);
    ++counts[m->name];
  }
  EXPECT_EQ(counts.size(), 10u);
  for (const auto& [name, c] : counts) {
    EXPECT_EQ(c, 2) << name;
    EXPECT_NE(name, "self");
  }
}

TEST(Membership, ProbeOrderSkipsInactive) {
  Rng rng(4);
  MembershipTable t("self");
  t.add(mk("self"), rng);
  t.add(mk("alive"), rng);
  Member& dead = t.add(mk("dead"), rng);
  t.set_state(dead, MemberState::kDead, TimePoint{});
  Member& left = t.add(mk("left"), rng);
  t.set_state(left, MemberState::kLeft, TimePoint{});

  for (int i = 0; i < 6; ++i) {
    Member* m = t.next_probe_target(rng);
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->name, "alive");
  }
}

TEST(Membership, ProbeTargetNullWhenAlone) {
  Rng rng(5);
  MembershipTable t("self");
  t.add(mk("self"), rng);
  EXPECT_EQ(t.next_probe_target(rng), nullptr);
  Member& only = t.add(mk("a"), rng);
  t.set_state(only, MemberState::kDead, TimePoint{});
  EXPECT_EQ(t.next_probe_target(rng), nullptr);
}

TEST(Membership, RandomInsertionPositionsVary) {
  // New members must land at random positions in the probe list (SWIM's
  // join rule): across many tables, the newcomer's first-probe rank varies.
  std::set<int> ranks;
  for (int seed = 0; seed < 30; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) + 100);
    MembershipTable t("self");
    t.add(mk("self"), rng);
    for (int i = 0; i < 8; ++i) t.add(mk("m" + std::to_string(i)), rng);
    (void)t.next_probe_target(rng);  // force an initial shuffle+position
    t.add(mk("newcomer"), rng);
    for (int i = 0; i < 9; ++i) {
      if (t.next_probe_target(rng)->name == "newcomer") {
        ranks.insert(i);
        break;
      }
    }
  }
  EXPECT_GT(ranks.size(), 3u);
}

TEST(Membership, RemoveDropsFromProbeOrder) {
  Rng rng(6);
  MembershipTable t("self");
  t.add(mk("self"), rng);
  t.add(mk("a"), rng);
  t.add(mk("b"), rng);
  t.remove("a");
  EXPECT_FALSE(t.contains("a"));
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(t.next_probe_target(rng)->name, "b");
  }
}

TEST(Membership, RandomMembersExcludesAndDeduplicates) {
  Rng rng(7);
  MembershipTable t("self");
  t.add(mk("self"), rng);
  for (int i = 0; i < 10; ++i) t.add(mk("m" + std::to_string(i)), rng);

  for (int round = 0; round < 50; ++round) {
    auto picks = t.random_active(3, rng, {"m0", "m1"});
    EXPECT_EQ(picks.size(), 3u);
    std::set<std::string> names;
    for (Member* m : picks) {
      names.insert(m->name);
      EXPECT_NE(m->name, "self");
      EXPECT_NE(m->name, "m0");
      EXPECT_NE(m->name, "m1");
    }
    EXPECT_EQ(names.size(), 3u);  // distinct
  }
}

TEST(Membership, RandomMembersReturnsFewerWhenShort) {
  Rng rng(8);
  MembershipTable t("self");
  t.add(mk("self"), rng);
  t.add(mk("a"), rng);
  auto picks = t.random_active(5, rng, {});
  EXPECT_EQ(picks.size(), 1u);
  picks = t.random_active(0, rng, {});
  EXPECT_TRUE(picks.empty());
}

TEST(Membership, RandomMembersIsRoughlyUniform) {
  Rng rng(9);
  MembershipTable t("self");
  t.add(mk("self"), rng);
  for (int i = 0; i < 8; ++i) t.add(mk("m" + std::to_string(i)), rng);
  std::map<std::string, int> counts;
  constexpr int kRounds = 8000;
  for (int i = 0; i < kRounds; ++i) {
    for (Member* m : t.random_active(1, rng, {})) ++counts[m->name];
  }
  for (const auto& [name, c] : counts) {
    EXPECT_NEAR(c, kRounds / 8, kRounds / 8 / 4) << name;
  }
}

TEST(Membership, PredicateFiltering) {
  Rng rng(10);
  MembershipTable t("self");
  t.add(mk("self"), rng);
  t.add(mk("alive1"), rng);
  t.add(mk("dead1", MemberState::kDead), rng);
  auto picks = t.random_members(5, rng, {}, [](const Member& m) {
    return m.state == MemberState::kDead;
  });
  ASSERT_EQ(picks.size(), 1u);
  EXPECT_EQ(picks[0]->name, "dead1");
}

TEST(Membership, StateCountsMatchRecountUnderRandomMutation) {
  // Seeded random add / set_state / remove sequences, including re-adding a
  // removed name and adding a name already present (a no-op): after every
  // step each per-state count and num_active() equal a brute-force recount.
  constexpr MemberState kStates[] = {MemberState::kAlive,
                                     MemberState::kSuspect, MemberState::kDead,
                                     MemberState::kLeft};
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    MembershipTable t("self");
    t.add(mk("self"), rng);
    for (int step = 0; step < 400; ++step) {
      const std::string name = "m" + std::to_string(rng.uniform(12));
      const MemberState s = kStates[rng.uniform(4)];
      switch (rng.uniform(3)) {
        case 0: {
          const Member* before = t.find(name);
          const std::optional<MemberState> was =
              before ? std::optional(before->state) : std::nullopt;
          const std::size_t size = t.size();
          t.add(mk(name, s), rng);
          if (was) {  // already present: the add changes nothing
            EXPECT_EQ(t.find(name)->state, *was);
            EXPECT_EQ(t.size(), size);
          }
          break;
        }
        case 1:
          if (Member* m = t.find(name)) {
            t.set_state(*m, s, TimePoint{step});
          }
          break;
        default:
          t.remove(name);
          EXPECT_FALSE(t.contains(name));
          break;
      }
      std::map<MemberState, int> recount;
      for (const Member* m : t.all()) ++recount[m->state];
      for (MemberState st : kStates) {
        ASSERT_EQ(t.count(st), recount[st])
            << "seed " << seed << " step " << step << " state "
            << member_state_name(st);
      }
      ASSERT_EQ(t.num_active(), recount[MemberState::kAlive] +
                                    recount[MemberState::kSuspect])
          << "seed " << seed << " step " << step;
    }
  }
}

TEST(Membership, CachedOrderIsTheMapOrder) {
  // The cached member order replays the member map's own iteration order.
  // Fed the same key operations, a plain unordered_map must iterate in the
  // order all() lists, whether the cache is stale (after an insert or erase)
  // or fresh (after a selection refilled it). And a selection must not
  // depend on which walk filled the cache: a table queried after every step
  // and one queried only at checkpoints pick the same names from
  // identically seeded rngs.
  constexpr MemberState kStates[] = {MemberState::kAlive,
                                     MemberState::kSuspect, MemberState::kDead,
                                     MemberState::kLeft};
  const auto names = [](const auto& ms) {
    std::vector<std::string> out;
    for (const Member* m : ms) out.push_back(m->name);
    return out;
  };
  const auto not_left = [](const Member& m) {
    return m.state != MemberState::kLeft;
  };
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng ops(seed);
    Rng join_every(seed), join_checkpoints(seed);  // add() draws probe slots
    MembershipTable every("self");
    MembershipTable checkpoints("self");
    std::unordered_map<std::string, int> plain;
    const auto add = [&](const std::string& name, MemberState s) {
      every.add(mk(name, s), join_every);
      checkpoints.add(mk(name, s), join_checkpoints);
      plain.emplace(name, 0);
    };
    add("self", MemberState::kAlive);
    for (int step = 0; step < 300; ++step) {
      // Names m0..m39 plus self, so self is also removed and re-added.
      const std::uint64_t pick = ops.uniform(41);
      const std::string name = pick == 40 ? "self" : "m" + std::to_string(pick);
      const MemberState s = kStates[ops.uniform(4)];
      switch (ops.uniform(4)) {
        case 0:
        case 1:
          add(name, s);
          break;
        case 2:
          if (Member* m = every.find(name)) every.set_state(*m, s, TimePoint{});
          if (Member* m = checkpoints.find(name))
            checkpoints.set_state(*m, s, TimePoint{});
          break;
        default:
          every.remove(name);
          checkpoints.remove(name);
          plain.erase(name);
          break;
      }
      std::vector<std::string> want;
      for (const auto& [key, _] : plain) want.push_back(key);
      ASSERT_EQ(names(every.all()), want)
          << "seed " << seed << " step " << step;

      const std::vector<std::string> exclude =
          step % 3 == 0 ? std::vector<std::string>{name}
                        : std::vector<std::string>{};
      Rng sel(seed * 1000 + static_cast<std::uint64_t>(step));
      const auto got = names(every.random_members(6, sel, exclude, not_left));
      ASSERT_EQ(names(every.all()), want)
          << "seed " << seed << " step " << step;
      for (const auto& g : got) {
        EXPECT_NE(g, "self");
        EXPECT_EQ(std::count(exclude.begin(), exclude.end(), g), 0);
      }
      Rng again(seed * 1000 + static_cast<std::uint64_t>(step));
      ASSERT_EQ(names(every.random_members(6, again, exclude, not_left)), got)
          << "seed " << seed << " step " << step;
      if (step % 20 == 19) {
        Rng cp(seed * 1000 + static_cast<std::uint64_t>(step));
        ASSERT_EQ(
            names(checkpoints.random_members(6, cp, exclude, not_left)), got)
            << "seed " << seed << " step " << step;
        ASSERT_EQ(cp.uniform(1u << 30), sel.uniform(1u << 30));
        ASSERT_EQ(names(checkpoints.all()), want);
      }
    }
  }
}

TEST(MemberState, NamesAndActivity) {
  EXPECT_STREQ(member_state_name(MemberState::kAlive), "alive");
  EXPECT_STREQ(member_state_name(MemberState::kSuspect), "suspect");
  EXPECT_STREQ(member_state_name(MemberState::kDead), "dead");
  EXPECT_STREQ(member_state_name(MemberState::kLeft), "left");
  EXPECT_TRUE(is_active(MemberState::kAlive));
  EXPECT_TRUE(is_active(MemberState::kSuspect));
  EXPECT_FALSE(is_active(MemberState::kDead));
  EXPECT_FALSE(is_active(MemberState::kLeft));
}

}  // namespace
}  // namespace lifeguard::swim
