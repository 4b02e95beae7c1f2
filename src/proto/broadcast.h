// Transmit-limited gossip broadcast queue (memberlist's
// TransmitLimitedQueue).
//
// Each state update (alive / suspect / dead about one member) is enqueued as a
// pre-encoded frame keyed by the member's name. An update is piggybacked onto
// outgoing packets until it has been transmitted `retransmit_limit(n)` times,
// where n is the current cluster size — the `λ·⌈log10(n+1)⌉` rule from SWIM's
// dissemination component. Selection prefers frames with the fewest transmits
// so far (SWIM's "prefer less-shared updates" rule); among equals, newer
// first. A new update about a member invalidates any queued older update
// about the same member.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace lifeguard::proto {

/// λ·⌈log10(n+1)⌉ with multiplier λ. n is the number of known members.
int retransmit_limit(int retransmit_mult, int n);

class BroadcastQueue {
 public:
  explicit BroadcastQueue(int retransmit_mult)
      : retransmit_mult_(retransmit_mult) {}

  /// Queue `frame` (an encoded message) keyed by `member`. Replaces any
  /// queued broadcast with the same key.
  void queue(const std::string& member, std::vector<std::uint8_t> frame);

  /// Select frames to piggyback: greedily packs frames (fewest transmits
  /// first) whose size + `per_frame_overhead` fits within `byte_budget`.
  /// Increments transmit counts and drops frames that reached the limit for
  /// cluster size `n`. Returned frames are copies (the queue may drop its own
  /// storage).
  std::vector<std::vector<std::uint8_t>> get_broadcasts(
      std::size_t per_frame_overhead_base, std::size_t byte_budget, int n);

  /// Remove a queued broadcast about `member` (e.g. superseded externally).
  void invalidate(const std::string& member);

  std::size_t pending() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Total frames handed out by get_broadcasts (telemetry).
  std::int64_t total_transmits() const { return total_transmits_; }
  /// Highest per-update transmit count ever reached (telemetry; the
  /// checking layer asserts it never exceeds retransmit_limit at the
  /// largest cluster size the queue has seen).
  int max_transmits() const { return max_transmits_; }

 private:
  /// Selection rank: fewest transmits first, then newest (largest enqueue
  /// id) first. (transmits, enqueue_id) pairs are unique, so this is a total
  /// order — keeping entries in a map sorted by it replaces the old
  /// stable_sort-per-get_broadcasts (and the O(queue) erase_if per queue())
  /// with O(log m) updates, selecting the exact same frames in the exact
  /// same order.
  struct Rank {
    int transmits = 0;
    std::uint64_t enqueue_id = 0;  // newer = larger
  };
  struct RankLess {
    bool operator()(const Rank& a, const Rank& b) const {
      if (a.transmits != b.transmits) return a.transmits < b.transmits;
      return a.enqueue_id > b.enqueue_id;
    }
  };
  using KeyRecord = std::pair<const std::string, Rank>;
  struct Entry {
    /// This entry's `by_key_` record (node-stable across rehash): it names
    /// the member, and a transmit bump writes the new rank through it
    /// instead of hashing the key again.
    KeyRecord* key;
    std::vector<std::uint8_t> frame;
  };

  int retransmit_mult_;
  std::uint64_t next_id_ = 1;
  std::int64_t total_transmits_ = 0;
  int max_transmits_ = 0;
  /// Lower bound on the smallest queued frame size (never raised while the
  /// queue is non-empty; reset when it drains). Lets get_broadcasts stop
  /// scanning once no conceivable frame fits the remaining budget.
  std::size_t min_frame_size_ = SIZE_MAX;
  std::map<Rank, Entry, RankLess> entries_;
  /// Member key → current rank (entries are unique per key: queue()
  /// invalidates before inserting).
  std::unordered_map<std::string, Rank> by_key_;
};

}  // namespace lifeguard::proto
