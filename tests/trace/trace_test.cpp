// Ring semantics and string tables.
#include "trace/trace.hpp"

#include <set>
#include <string>

#include "gtest/gtest.h"

namespace alpha::trace {
namespace {

Event make_event(std::uint32_t seq) {
  Event e;
  e.time_us = 1000 + seq;
  e.detail = seq * 7;
  e.assoc_id = 42;
  e.seq = seq;
  e.kind = EventKind::kPacketSent;
  e.packet_type = 1;
  e.origin = 3;
  return e;
}

TEST(TraceRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(Ring(1).capacity(), 2u);  // floor of 2 slots
  EXPECT_EQ(Ring(2).capacity(), 2u);
  EXPECT_EQ(Ring(3).capacity(), 4u);
  EXPECT_EQ(Ring(5).capacity(), 8u);
  EXPECT_EQ(Ring(1000).capacity(), 1024u);
}

TEST(TraceRing, RetainsInOrderBeforeWrap) {
  Ring ring(8);
  for (std::uint32_t i = 0; i < 5; ++i) ring.record(make_event(i));
  ASSERT_EQ(ring.size(), 5u);
  EXPECT_EQ(ring.total(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) EXPECT_EQ(ring.at(i).seq, i);
}

TEST(TraceRing, OverwritesOldestAfterWrap) {
  Ring ring(4);
  for (std::uint32_t i = 0; i < 11; ++i) ring.record(make_event(i));
  ASSERT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.total(), 11u);
  // Oldest retained is total - capacity = 7; order is preserved.
  for (std::uint32_t i = 0; i < 4; ++i) EXPECT_EQ(ring.at(i).seq, 7 + i);
}

TEST(TraceRing, ClearResets) {
  Ring ring(4);
  for (std::uint32_t i = 0; i < 9; ++i) ring.record(make_event(i));
  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.total(), 0u);
}

TEST(TraceRing, DroppedCountsOverflowMonotonically) {
  Ring ring(4);
  EXPECT_EQ(ring.dropped(), 0u);
  for (std::uint32_t i = 0; i < 4; ++i) ring.record(make_event(i));
  EXPECT_EQ(ring.dropped(), 0u);  // exactly full: nothing lost yet
  ring.record(make_event(4));
  EXPECT_EQ(ring.dropped(), 1u);
  std::uint64_t prev = ring.dropped();
  for (std::uint32_t i = 5; i < 100; ++i) {
    ring.record(make_event(i));
    EXPECT_GE(ring.dropped(), prev);  // monotonic
    prev = ring.dropped();
  }
  EXPECT_EQ(ring.dropped(), 100u - ring.capacity());
  EXPECT_EQ(ring.dropped(), ring.total() - ring.size());
}

TEST(TraceRing, AbsoluteIndexingSurvivesWrap) {
  Ring ring(4);
  for (std::uint32_t i = 0; i < 11; ++i) ring.record(make_event(i));
  EXPECT_EQ(ring.first_index(), 7u);
  // A cursor holding absolute indices reads the same events at() exposes.
  for (std::uint64_t i = ring.first_index(); i < ring.total(); ++i) {
    EXPECT_EQ(ring.at_absolute(i).seq, i);
  }
  EXPECT_EQ(&ring.at_absolute(ring.first_index()), &ring.at(0));
}

TEST(TraceRing, PackRoundDetailSaturates) {
  const std::uint64_t d = pack_round_detail(1234, 567890);
  EXPECT_EQ(round_detail_queue_us(d), 1234u);
  EXPECT_EQ(round_detail_crypto_ns(d), 567890u);
  const std::uint64_t big = pack_round_detail(~0ull, ~0ull);
  EXPECT_EQ(round_detail_queue_us(big), 0xFFFFFFFFull);
  EXPECT_EQ(round_detail_crypto_ns(big), 0xFFFFFFFFull);
}

TEST(TraceEmit, NoopWithoutSink) {
  install(nullptr);
  EXPECT_FALSE(enabled());
  emit(EventKind::kPacketSent, 1, 2, 3);  // must not crash
}

TEST(TraceEmit, StampsFromScopedContext) {
  Ring ring(16);
  install(&ring);
  {
    const ScopedContext outer(/*origin=*/4, /*time_us=*/500);
    emit(EventKind::kPacketSent, 9, 1, 1);
    {
      const ScopedContext inner(/*origin=*/7, /*time_us=*/900);
      emit(EventKind::kPacketDropped, 9, 2, 2, DropReason::kBadMac, 5);
    }
    emit(EventKind::kDelivered, 9, 3, 3);  // outer context restored
  }
  install(nullptr);

  ASSERT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.at(0).origin, 4);
  EXPECT_EQ(ring.at(0).time_us, 500u);
  EXPECT_EQ(ring.at(1).origin, 7);
  EXPECT_EQ(ring.at(1).time_us, 900u);
  EXPECT_EQ(ring.at(1).reason, DropReason::kBadMac);
  EXPECT_EQ(ring.at(1).detail, 5u);
  EXPECT_EQ(ring.at(2).origin, 4);
  EXPECT_EQ(ring.at(2).time_us, 500u);
}

TEST(TraceDetail, NetDetailPackUnpack) {
  const std::uint64_t d = pack_net_detail(0xABCDEF, 0x1234, 1500);
  EXPECT_EQ(net_detail_from(d), 0xABCDEFu);
  EXPECT_EQ(net_detail_to(d), 0x1234u);
  EXPECT_EQ(net_detail_size(d), 1500u);
  // Size clamps at 24 bits instead of bleeding into the address fields.
  const std::uint64_t big = pack_net_detail(1, 2, std::size_t{1} << 32);
  EXPECT_EQ(net_detail_from(big), 1u);
  EXPECT_EQ(net_detail_to(big), 2u);
  EXPECT_EQ(net_detail_size(big), 0xFFFFFFu);
}

// The names are alpha_inspect's only rendering contract: every kind and
// every reason must print as its own label, never "unknown".
TEST(TraceStrings, EveryKindHasADistinctName) {
  std::set<std::string> seen;
  for (int k = 0; k <= static_cast<int>(EventKind::kAdaptDecision); ++k) {
    const std::string s = to_string(static_cast<EventKind>(k));
    EXPECT_NE(s, "unknown") << k;
    EXPECT_TRUE(seen.insert(s).second) << s;
  }
  EXPECT_STREQ(to_string(static_cast<EventKind>(250)), "unknown");
}

TEST(TraceStrings, EveryReasonHasADistinctName) {
  std::set<std::string> seen;
  for (std::size_t r = 0; r < kDropReasonCount; ++r) {
    const std::string s = to_string(static_cast<DropReason>(r));
    EXPECT_NE(s, "unknown") << r;
    EXPECT_TRUE(seen.insert(s).second) << s;
  }
  EXPECT_STREQ(to_string(static_cast<DropReason>(kDropReasonCount)),
               "unknown");
}

TEST(TraceStrings, PacketTypeNames) {
  EXPECT_STREQ(packet_type_name(0), "-");
  EXPECT_STREQ(packet_type_name(1), "s1");
  EXPECT_STREQ(packet_type_name(2), "a1");
  EXPECT_STREQ(packet_type_name(3), "s2");
  EXPECT_STREQ(packet_type_name(4), "a2");
  EXPECT_STREQ(packet_type_name(5), "hs1");
  EXPECT_STREQ(packet_type_name(6), "hs2");
  EXPECT_STREQ(packet_type_name(200), "-");
}

}  // namespace
}  // namespace alpha::trace
