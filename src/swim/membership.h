// Membership table: the local view of the group.
//
// Owns the member records plus the round-robin probe order. SWIM's refinement
// over pure random probing (paper §III-A): targets are taken round-robin from
// a randomly ordered list, new members are inserted at a random position, and
// the list is reshuffled after each full pass. This bounds worst-case
// first-detection latency while preserving the expected-case analysis.
#pragma once

#include <algorithm>
#include <array>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "swim/member.h"

namespace lifeguard::swim {

class MembershipTable {
 public:
  /// `self` is excluded from probe/gossip target selection but stored like
  /// any member (it must appear in push-pull state).
  explicit MembershipTable(std::string self_name);

  // ---- lookup ----
  Member* find(const std::string& name);
  const Member* find(const std::string& name) const;
  bool contains(const std::string& name) const;
  const std::string& self_name() const { return self_; }

  /// Number of known members in state `s`, including self. O(1): kept by
  /// add/set_state/remove, so the sampler's per-tick census is free.
  int count(MemberState s) const {
    return counts_[static_cast<std::size_t>(s)];
  }
  /// Number of known members in active states (alive or suspect), including
  /// self. This is the `n` used for gossip retransmit and suspicion scaling.
  /// O(1): the piggyback path asks on every outbound message, and a
  /// per-message O(n) scan was the simulator's single largest cost at
  /// cluster sizes ≥ 512.
  int num_active() const {
    return count(MemberState::kAlive) + count(MemberState::kSuspect);
  }
  /// All known members (any state), in the member map's iteration order.
  std::vector<const Member*> all() const;
  std::size_t size() const { return members_.size(); }

  // ---- mutation ----
  /// Insert a new member. Active members also enter the probe list at a
  /// random position (SWIM's join rule). Returns the stored record.
  Member& add(Member m, Rng& rng);
  /// Update state; maintains the per-state counts. Does not touch probe order
  /// (dead members are skipped lazily at selection time) or the cached
  /// member order.
  void set_state(Member& m, MemberState s, TimePoint now);
  /// Drop a member entirely (dead-reclaim housekeeping).
  void remove(const std::string& name);

  // ---- probe order ----
  /// Next round-robin probe target: skips self and non-active members;
  /// reshuffles at the end of each pass. Returns nullptr if no eligible
  /// target exists.
  Member* next_probe_target(Rng& rng);

  // ---- random selection ----
  /// Up to `k` distinct members satisfying `pred`, chosen uniformly,
  /// excluding self and any name in `exclude`. Templated so hot-path
  /// predicates (called once per member per selection) inline instead of
  /// paying a std::function dispatch; candidate order and Rng draws are
  /// identical for any predicate representation.
  template <typename Pred>
  std::vector<Member*> random_members(int k, Rng& rng,
                                      const std::vector<std::string>& exclude,
                                      const Pred& pred) {
    std::vector<Member*> candidates;
    candidates.reserve(members_.size());
    const auto consider = [&](Member* m) {
      if (m == self_rec_) return;
      if (std::find(exclude.begin(), exclude.end(), m->name) != exclude.end())
        return;
      if (pred(*m)) candidates.push_back(m);
    };
    if (order_fresh_) {
      for (Member* m : order_) consider(m);
    } else {
      // The one walk a stale cache costs anyway refills it.
      order_.clear();
      for (auto& [_, m] : members_) {
        order_.push_back(&m);
        consider(&m);
      }
      order_fresh_ = true;
    }
    // Partial Fisher–Yates: uniform k-subset in O(k) swaps.
    std::vector<Member*> out;
    const int want = std::min<int>(k, static_cast<int>(candidates.size()));
    out.reserve(static_cast<std::size_t>(std::max(want, 0)));
    for (int i = 0; i < want; ++i) {
      const auto j =
          static_cast<std::size_t>(i) +
          static_cast<std::size_t>(
              rng.uniform(candidates.size() - static_cast<std::size_t>(i)));
      std::swap(candidates[static_cast<std::size_t>(i)], candidates[j]);
      out.push_back(candidates[static_cast<std::size_t>(i)]);
    }
    return out;
  }

  /// Convenience: k random active members.
  std::vector<Member*> random_active(int k, Rng& rng,
                                     const std::vector<std::string>& exclude);

 private:
  std::string self_;
  std::unordered_map<std::string, Member> members_;
  /// Self's record (nullptr until added): selection skips it by address.
  const Member* self_rec_ = nullptr;
  /// `members_`'s iteration order, cached. Only an insert or an erase can
  /// change that order (a rehash happens only on insert), so add/remove mark
  /// the cache stale and the next random_members walk refills it. A fresh
  /// cache turns the per-selection walk of the map's node chain into
  /// independent loads.
  std::vector<Member*> order_;
  bool order_fresh_ = false;
  /// Round-robin order as pointers to the records in `members_` (node-stable
  /// across rehash; remove() drops the entry before erasing the member).
  /// Pointers keep the random-position join insert an 8-byte memmove per
  /// slot, and a probe step a load instead of a string-keyed find.
  std::vector<Member*> probe_order_;
  std::size_t probe_index_ = 0;
  /// Members per MemberState, indexed by its value.
  std::array<int, 4> counts_{};
};

}  // namespace lifeguard::swim
