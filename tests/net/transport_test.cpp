// Transport adapters: the same interface over the discrete-event simulator
// and over real UDP sockets.
#include "net/transport.hpp"

#include <gtest/gtest.h>

#include "net/network.hpp"

namespace alpha::net {
namespace {

using crypto::Bytes;

TEST(SimTransportTest, DeliversFramesWithSourceAddress) {
  Simulator sim;
  Network network{sim, 1};
  network.add_node(0);
  network.add_node(1);
  network.add_link(0, 1);

  SimTransport a{network, 0}, b{network, 1};
  std::vector<std::pair<PeerAddr, Bytes>> at_b;
  b.set_receiver([&](PeerAddr from, crypto::ByteView frame) {
    at_b.emplace_back(from, Bytes(frame.begin(), frame.end()));
  });

  EXPECT_TRUE(a.send(1, Bytes{1, 2, 3}));
  sim.run_until(kSecond);
  ASSERT_EQ(at_b.size(), 1u);
  EXPECT_EQ(at_b[0].first, 0u);
  EXPECT_EQ(at_b[0].second, (Bytes{1, 2, 3}));
}

TEST(SimTransportTest, SendFailsWithoutLink) {
  Simulator sim;
  Network network{sim, 1};
  network.add_node(0);
  network.add_node(5);  // no link between them

  SimTransport a{network, 0};
  EXPECT_FALSE(a.send(5, Bytes{0xaa}));
}

TEST(SimTransportTest, PollAdvancesVirtualTimeAndCountsFrames) {
  Simulator sim;
  Network network{sim, 1};
  network.add_node(0);
  network.add_node(1);
  network.add_link(0, 1);

  SimTransport a{network, 0}, b{network, 1};
  b.set_receiver([](PeerAddr, crypto::ByteView) {});

  const std::uint64_t t0 = b.now_us();
  a.send(1, Bytes{0x01});
  a.send(1, Bytes{0x02});
  EXPECT_EQ(b.poll(50), 2u);  // advances 50 virtual ms, counts deliveries
  EXPECT_EQ(b.now_us(), t0 + 50 * kMillisecond);
  EXPECT_EQ(b.now_us(), sim.now());
}

TEST(SimTransportTest, ScheduleFiresFromEventQueue) {
  Simulator sim;
  Network network{sim, 1};
  network.add_node(0);
  SimTransport a{network, 0};

  std::vector<int> fired;
  a.schedule(10 * kMillisecond, [&] { fired.push_back(1); });
  // A deadline in the past is clamped to now, not dropped.
  sim.run_until(20 * kMillisecond);
  a.schedule(5 * kMillisecond, [&] { fired.push_back(2); });
  sim.run_until(kSecond);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
}

TEST(SimTransportTest, DestructorUnhooksNodeHandler) {
  Simulator sim;
  Network network{sim, 1};
  network.add_node(0);
  network.add_node(1);
  network.add_link(0, 1);
  {
    SimTransport b{network, 1};
    b.set_receiver([](PeerAddr, crypto::ByteView) {});
  }
  // After the transport is gone, frames to the node must not crash.
  SimTransport a{network, 0};
  a.send(1, Bytes{0x07});
  EXPECT_NO_THROW(sim.run_until(kSecond));
}

TEST(SimTransportTest, ClockIsNotThreadSafe) {
  Simulator sim;
  Network network{sim, 1};
  network.add_node(0);
  SimTransport a{network, 0};
  // The sharded runtime keys its drive mode off this: virtual-time
  // transports must be driven inline, never from worker threads.
  EXPECT_FALSE(a.clock_thread_safe());
}

TEST(TransportDefaultsTest, SendBatchFallsBackToSingleSends) {
  Simulator sim;
  Network network{sim, 1};
  network.add_node(0);
  network.add_node(1);
  network.add_link(0, 1);

  SimTransport a{network, 0}, b{network, 1};
  std::size_t received = 0;
  b.set_receiver([&](PeerAddr, crypto::ByteView) { ++received; });

  const Bytes p1{0x01}, p2{0x02, 0x02};
  const TxFrame frames[] = {{1, {p1.data(), p1.size()}},
                            {1, {p2.data(), p2.size()}}};
  // SimTransport doesn't override send_batch: the base class loops send().
  EXPECT_EQ(a.send_batch(frames, 2), 2u);
  sim.run_until(kSecond);
  EXPECT_EQ(received, 2u);
}

TEST(UdpTransportTest, RoundtripViaPoll) {
  UdpTransport a, b;
  std::vector<std::pair<PeerAddr, Bytes>> at_b;
  b.set_receiver([&](PeerAddr from, crypto::ByteView frame) {
    at_b.emplace_back(from, Bytes(frame.begin(), frame.end()));
  });

  EXPECT_TRUE(a.send(b.port(), Bytes{9, 8, 7}));
  std::size_t frames = 0;
  for (int i = 0; i < 100 && frames == 0; ++i) frames += b.poll(20);
  ASSERT_EQ(at_b.size(), 1u);
  EXPECT_EQ(at_b[0].first, a.port());
  EXPECT_EQ(at_b[0].second, (Bytes{9, 8, 7}));
}

TEST(UdpTransportTest, DrainsBurstInOnePoll) {
  UdpTransport a, b;
  std::size_t received = 0;
  b.set_receiver([&](PeerAddr, crypto::ByteView) { ++received; });
  for (int i = 0; i < 5; ++i) a.send(b.port(), Bytes{static_cast<std::uint8_t>(i)});
  const auto deadline = b.now_us() + 2'000'000;
  while (received < 5 && b.now_us() < deadline) b.poll(20);
  EXPECT_EQ(received, 5u);
}

TEST(UdpTransportTest, TimersFireFromPoll) {
  UdpTransport t;
  const std::uint64_t due = t.now_us() + 20'000;
  bool fired = false;
  t.schedule(due, [&] { fired = true; });
  // Poll with a long timeout: the wait is capped by the due timer, so this
  // returns promptly and fires it.
  const auto deadline = t.now_us() + 2'000'000;
  while (!fired && t.now_us() < deadline) t.poll(500);
  EXPECT_TRUE(fired);
  EXPECT_GE(t.now_us(), due);
}

TEST(UdpTransportTest, TimersFireInDeadlineOrder) {
  UdpTransport t;
  const std::uint64_t now = t.now_us();
  std::vector<int> order;
  t.schedule(now + 30'000, [&] { order.push_back(3); });
  t.schedule(now + 10'000, [&] { order.push_back(1); });
  t.schedule(now + 20'000, [&] { order.push_back(2); });
  const auto deadline = now + 2'000'000;
  while (order.size() < 3 && t.now_us() < deadline) t.poll(100);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(UdpTransportTest, ZeroTimeoutPollIsNonBlockingProbe) {
  UdpTransport t;
  const std::uint64_t t0 = t.now_us();
  EXPECT_EQ(t.poll(0), 0u);
  EXPECT_LT(t.now_us() - t0, 1'000'000u);  // did not block for long
}

TEST(UdpTransportTest, BatchRoundtripOverRealSockets) {
  UdpTransport a, b;
  std::vector<Bytes> msgs;
  std::vector<TxFrame> frames;
  for (std::uint8_t i = 0; i < 6; ++i) {
    msgs.push_back(Bytes(48 + i, i));
    frames.push_back({b.port(), {msgs.back().data(), msgs.back().size()}});
  }
  std::size_t accepted = 0;
  while (accepted < frames.size()) {
    const std::size_t n =
        a.send_batch(frames.data() + accepted, frames.size() - accepted);
    ASSERT_GT(n, 0u);
    accepted += n;
  }

  RxFrame out[8];
  std::vector<Bytes> got;
  const auto deadline = b.now_us() + 2'000'000;
  while (got.size() < msgs.size() && b.now_us() < deadline) {
    const std::size_t n = b.recv_batch(50, out, 8);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out[i].from, a.port());
      EXPECT_GT(out[i].recv_us, 0u);
      got.emplace_back(out[i].data.begin(), out[i].data.end());
    }
  }
  ASSERT_EQ(got.size(), msgs.size());
  for (std::size_t i = 0; i < msgs.size(); ++i) EXPECT_EQ(got[i], msgs[i]);
}

TEST(UdpTransportTest, ClockIsThreadSafe) {
  UdpTransport t;
  // Wall-clock now_us() is safe from any thread: the sharded runtime may
  // run this transport in threaded mode.
  EXPECT_TRUE(t.clock_thread_safe());
}

}  // namespace
}  // namespace alpha::net
