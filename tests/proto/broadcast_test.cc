// Transmit-limited broadcast queue invariants.
#include "proto/broadcast.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "proto/wire.h"

namespace lifeguard::proto {
namespace {

std::vector<std::uint8_t> frame(char tag, std::size_t len = 8) {
  return std::vector<std::uint8_t>(len, static_cast<std::uint8_t>(tag));
}

TEST(RetransmitLimit, MatchesFormula) {
  // λ·⌈log10(n+1)⌉
  EXPECT_EQ(retransmit_limit(4, 0), 4);
  EXPECT_EQ(retransmit_limit(4, 9), 4);
  EXPECT_EQ(retransmit_limit(4, 10), 8);     // log10(11) -> ceil = 2
  EXPECT_EQ(retransmit_limit(4, 99), 8);
  EXPECT_EQ(retransmit_limit(4, 128), 12);   // ceil(log10(129)) = 3
  EXPECT_EQ(retransmit_limit(3, 128), 9);
  EXPECT_EQ(retransmit_limit(4, 6000), 16);  // ceil(log10(6001)) = 4
}

TEST(BroadcastQueue, DrainsToTransmitLimit) {
  BroadcastQueue q(1);  // limit = 1·ceil(log10(n+1))
  q.queue("m", frame('a'));
  const int n = 128;  // limit 3
  int handed_out = 0;
  for (int i = 0; i < 10; ++i) {
    handed_out += static_cast<int>(q.get_broadcasts(0, 1000, n).size());
  }
  EXPECT_EQ(handed_out, 3);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.total_transmits(), 3);
}

TEST(BroadcastQueue, NewUpdateInvalidatesOld) {
  BroadcastQueue q(4);
  q.queue("m", frame('a'));
  q.queue("m", frame('b'));  // supersedes 'a'
  EXPECT_EQ(q.pending(), 1u);
  auto out = q.get_broadcasts(0, 1000, 10);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0][0], 'b');
}

TEST(BroadcastQueue, InvalidateRemoves) {
  BroadcastQueue q(4);
  q.queue("m1", frame('a'));
  q.queue("m2", frame('b'));
  q.invalidate("m1");
  EXPECT_EQ(q.pending(), 1u);
  auto out = q.get_broadcasts(0, 1000, 10);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0][0], 'b');
}

TEST(BroadcastQueue, PrefersFewestTransmits) {
  BroadcastQueue q(4);  // n=128 -> limit 12, won't exhaust here
  q.queue("old", frame('o'));
  // Transmit 'old' twice with a tiny budget that fits only one frame.
  const std::size_t budget = 10;
  (void)q.get_broadcasts(0, budget, 128);
  (void)q.get_broadcasts(0, budget, 128);
  q.queue("new", frame('n'));
  // The never-transmitted 'new' frame must now win the single slot.
  auto out = q.get_broadcasts(0, budget, 128);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0][0], 'n');
}

TEST(BroadcastQueue, TiesBrokenNewestFirst) {
  BroadcastQueue q(4);
  q.queue("a", frame('a'));
  q.queue("b", frame('b'));  // same transmit count (0), newer
  auto out = q.get_broadcasts(0, 10, 128);  // budget fits one
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0][0], 'b');
}

TEST(BroadcastQueue, RespectsByteBudget) {
  BroadcastQueue q(4);
  q.queue("big", frame('B', 500));
  q.queue("small", frame('s', 10));
  // Budget fits the small frame only; the big one is skipped, not dropped.
  auto out = q.get_broadcasts(0, 50, 128);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0][0], 's');
  EXPECT_EQ(q.pending(), 2u);  // both still queued (small not at limit)
}

TEST(BroadcastQueue, SkipsOversizedButPacksLaterFrames) {
  BroadcastQueue q(4);
  q.queue("a", frame('a', 100));
  q.queue("b", frame('b', 100));
  q.queue("c", frame('c', 10));
  // Budget fits one 100-byte frame plus the 10-byte one.
  auto out = q.get_broadcasts(0, 120, 128);
  ASSERT_EQ(out.size(), 2u);
}

TEST(BroadcastQueue, PerFrameOverheadCounted) {
  BroadcastQueue q(4);
  q.queue("a", frame('a', 10));
  // frame(10) + overhead base 5 + varint(1) = 16 > budget 15 -> nothing fits.
  auto out = q.get_broadcasts(5, 15, 128);
  EXPECT_TRUE(out.empty());
  out = q.get_broadcasts(5, 16, 128);
  EXPECT_EQ(out.size(), 1u);
}

TEST(BroadcastQueue, EveryQueuedFrameEventuallyTransmitsExactlyLimitTimes) {
  // Property over a batch: with ample budget, each of k frames is handed out
  // exactly `limit` times, no more, no matter how often we drain.
  BroadcastQueue q(2);
  const int n = 50;  // limit = 2·ceil(log10(51)) = 4
  const int limit = retransmit_limit(2, n);
  std::map<char, int> counts;
  for (char c = 'a'; c < 'a' + 10; ++c) q.queue(std::string(1, c), frame(c));
  for (int round = 0; round < 100; ++round) {
    for (const auto& f : q.get_broadcasts(0, 10'000, n)) ++counts[static_cast<char>(f[0])];
  }
  EXPECT_EQ(counts.size(), 10u);
  for (const auto& [tag, cnt] : counts) {
    EXPECT_EQ(cnt, limit) << tag;
  }
  EXPECT_TRUE(q.empty());
}

TEST(BroadcastQueue, RanksSurviveKeyTableRehash) {
  // Each queued entry reaches its key-table record through a pointer, and a
  // transmit bump writes the new rank there. 2400 distinct keys force several
  // rehashes of that table while ranks are being bumped, re-queued and
  // invalidated; every batch must still match a brute-force model that
  // packs frames sorted by (transmits, newest first), and every frame that
  // is not superseded must go out exactly `limit` times.
  struct Pending {
    int transmits = 0;
    std::uint64_t id = 0;
    std::vector<std::uint8_t> frame;
  };
  Rng rng(11);
  BroadcastQueue q(1);
  const int n = 100;  // limit = 1·ceil(log10(101)) = 3
  const int limit = retransmit_limit(1, n);
  std::map<std::string, Pending> model;
  std::map<std::uint64_t, int> sent;  // enqueue id -> times handed out
  std::vector<std::uint64_t> expired;  // ids that left by reaching the limit
  std::uint64_t next_id = 0;

  // Frames carry their enqueue id in the first 8 bytes, then 0-7 pad bytes.
  const auto queue = [&](const std::string& key) {
    Pending p{0, next_id++, {}};
    for (int b = 0; b < 8; ++b)
      p.frame.push_back(static_cast<std::uint8_t>(p.id >> (8 * b)));
    p.frame.resize(8 + rng.uniform(8), 0xee);
    q.queue(key, p.frame);
    model[key] = std::move(p);
  };
  const auto frame_id = [](const std::vector<std::uint8_t>& f) {
    std::uint64_t id = 0;
    for (int b = 0; b < 8; ++b) id |= std::uint64_t{f[b]} << (8 * b);
    return id;
  };
  const auto drain = [&](std::size_t budget) {
    std::vector<std::pair<std::string, Pending*>> order;
    for (auto& [key, p] : model) order.emplace_back(key, &p);
    std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
      if (a.second->transmits != b.second->transmits)
        return a.second->transmits < b.second->transmits;
      return a.second->id > b.second->id;
    });
    std::vector<std::uint64_t> want;
    std::vector<std::string> picked;
    std::size_t used = 0;
    for (const auto& [key, p] : order) {
      const std::size_t cost =
          p->frame.size() + compound_frame_overhead(p->frame.size());
      if (used + cost > budget) continue;
      used += cost;
      want.push_back(p->id);
      picked.push_back(key);
    }
    std::vector<std::uint64_t> got;
    for (const auto& f : q.get_broadcasts(0, budget, n)) {
      got.push_back(frame_id(f));
      ++sent[got.back()];
    }
    ASSERT_EQ(got, want);
    for (const auto& key : picked) {
      Pending& p = model[key];
      if (++p.transmits < limit) continue;
      expired.push_back(p.id);
      model.erase(key);
    }
  };

  for (int i = 0; i < 2400; ++i) {
    queue("k" + std::to_string(i));
    if (i % 7 == 3) queue("k" + std::to_string(rng.uniform(i + 1)));
    if (i % 11 == 5) {
      const std::string key = "k" + std::to_string(rng.uniform(i + 1));
      q.invalidate(key);
      model.erase(key);
    }
    if (i % 5 == 0) drain(20 + rng.uniform(60));
    if (HasFatalFailure()) return;
    ASSERT_EQ(q.pending(), model.size()) << "after key " << i;
  }
  while (!model.empty()) {
    drain(20 + rng.uniform(60));
    if (HasFatalFailure()) return;
  }
  EXPECT_TRUE(q.empty());
  EXPECT_GT(expired.size(), 2000u);
  for (std::uint64_t id : expired) EXPECT_EQ(sent[id], limit) << "id " << id;
  for (const auto& [id, cnt] : sent) EXPECT_LE(cnt, limit) << "id " << id;
}

}  // namespace
}  // namespace lifeguard::proto
