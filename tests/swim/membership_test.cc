// Membership table: round-robin probe order, random insertion, selection.
#include "swim/membership.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>

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
