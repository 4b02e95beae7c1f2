// Regression: a push-pull frame's member count cannot buy an allocation
// larger than the frame itself. A 13-byte datagram claiming 10^6 members
// used to reserve() ~56 MB before the decoder found the members missing.
//
// This file replaces the global operator new/delete for the whole
// proto_tests binary so the test can count the bytes requested during one
// decode() call; outside that window the replacements only forward to
// malloc/free.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "proto/wire.h"

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

namespace lifeguard::proto {
namespace {

TEST(WireAlloc, ShortPushPullClaimingAMillionMembersAllocatesNothingLarge) {
  BufWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kPushPullReq));
  w.u8(0);               // join
  w.str("x");            // from
  w.u32(1);              // addr ip
  w.u16(2);              // addr port
  w.varint(1'000'000);   // member count no datagram of this size can hold
  ASSERT_EQ(w.bytes().size(), 13u);

  BufReader r(w.bytes());
  g_requested = 0;
  g_counting = true;
  const auto out = decode(r);
  g_counting = false;
  EXPECT_FALSE(out.has_value());
  EXPECT_LT(g_requested.load(), 1024u);
}

TEST(WireAlloc, CountBoundStillAdmitsEveryEncodablePushPull) {
  // The tightest legal frame — empty names — sits exactly on the bound.
  PushPull p;
  p.from = "x";
  p.members.resize(3);
  const auto bytes = encode_datagram(p);
  BufReader r(bytes);
  const auto out = decode(r);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(std::get<PushPull>(*out).members.size(), 3u);
}

}  // namespace
}  // namespace lifeguard::proto
