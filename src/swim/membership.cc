#include "swim/membership.h"

#include <algorithm>

namespace lifeguard::swim {

MembershipTable::MembershipTable(std::string self_name)
    : self_(std::move(self_name)) {}

Member* MembershipTable::find(const std::string& name) {
  const auto it = members_.find(name);
  return it == members_.end() ? nullptr : &it->second;
}

const Member* MembershipTable::find(const std::string& name) const {
  const auto it = members_.find(name);
  return it == members_.end() ? nullptr : &it->second;
}

bool MembershipTable::contains(const std::string& name) const {
  return members_.contains(name);
}

std::vector<const Member*> MembershipTable::all() const {
  if (order_fresh_) return {order_.begin(), order_.end()};
  std::vector<const Member*> out;
  out.reserve(members_.size());
  for (const auto& [_, m] : members_) out.push_back(&m);
  return out;
}

Member& MembershipTable::add(Member m, Rng& rng) {
  auto [it, inserted] = members_.emplace(m.name, std::move(m));
  if (!inserted) return it->second;
  Member* const rec = &it->second;
  ++counts_[static_cast<std::size_t>(rec->state)];
  order_fresh_ = false;
  if (it->first == self_) {
    self_rec_ = rec;
    return *rec;
  }
  // Random-position insertion keeps expected first-detection latency equal
  // to uniform random selection (paper §III-A).
  const std::size_t pos =
      static_cast<std::size_t>(rng.uniform(probe_order_.size() + 1));
  probe_order_.insert(probe_order_.begin() + static_cast<std::ptrdiff_t>(pos),
                      rec);
  if (pos < probe_index_) ++probe_index_;
  return *rec;
}

void MembershipTable::set_state(Member& m, MemberState s, TimePoint now) {
  --counts_[static_cast<std::size_t>(m.state)];
  ++counts_[static_cast<std::size_t>(s)];
  m.state = s;
  m.state_change = now;
}

void MembershipTable::remove(const std::string& name) {
  const auto it = members_.find(name);
  if (it == members_.end()) return;
  Member* const rec = &it->second;
  --counts_[static_cast<std::size_t>(rec->state)];
  // Probe entries point at the record: drop them before the member.
  std::erase(probe_order_, rec);
  if (rec == self_rec_) self_rec_ = nullptr;
  members_.erase(it);
  order_fresh_ = false;
  if (probe_index_ > probe_order_.size()) probe_index_ = 0;
}

Member* MembershipTable::next_probe_target(Rng& rng) {
  // At most one full pass + reshuffle; bails out if nothing is eligible.
  std::size_t checked = 0;
  const std::size_t limit = probe_order_.size() + 1;
  while (checked++ < limit) {
    if (probe_index_ >= probe_order_.size()) {
      rng.shuffle(probe_order_);
      probe_index_ = 0;
      if (probe_order_.empty()) return nullptr;
    }
    Member* m = probe_order_[probe_index_++];
    if (is_active(m->state)) return m;  // self never enters the order
  }
  return nullptr;
}

std::vector<Member*> MembershipTable::random_active(
    int k, Rng& rng, const std::vector<std::string>& exclude) {
  return random_members(k, rng, exclude,
                        [](const Member& m) { return is_active(m.state); });
}

}  // namespace lifeguard::swim
