// Zero-allocation assertions for the S2 data fast path. This binary
// replaces global operator new/delete (alloc_hook.hpp: exactly one TU per
// binary) and proves that a steady-state S2 -- peek, zero-copy parse_s2,
// chain accept, keyed MAC or Merkle verify, then forward (relay) or deliver
// (Host) -- costs literally zero heap allocations per frame once warm.
//
// Control traffic (S1/A1/A2) still goes through the allocating full decode,
// so the measurement brackets ONLY the S2 frames: the rounds' S1s and A1s
// are fed outside the counted window and every S2 inside it.
#include "support/alloc_hook.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "core/host.hpp"
#include "core/relay.hpp"

namespace alpha::core {
namespace {

using crypto::Bytes;
using crypto::ByteView;
using testsupport::ScopedAllocCount;

struct ScheduledFrame {
  Direction dir = Direction::kForward;
  Bytes frame;
};

std::vector<ScheduledFrame> record_traffic(const Config& config,
                                           int messages) {
  std::vector<ScheduledFrame> trace;
  std::deque<ScheduledFrame> queue;
  crypto::HmacDrbg rng_a(1), rng_b(2);
  std::optional<Host> a, b;
  Host::Callbacks a_cb;
  a_cb.send = [&](Bytes f) {
    queue.push_back({Direction::kForward, std::move(f)});
  };
  a.emplace(config, /*assoc_id=*/7, /*initiator=*/true, rng_a,
            std::move(a_cb));
  Host::Callbacks b_cb;
  b_cb.send = [&](Bytes f) {
    queue.push_back({Direction::kReverse, std::move(f)});
  };
  b.emplace(config, /*assoc_id=*/7, /*initiator=*/false, rng_b,
            std::move(b_cb));

  const auto pump = [&] {
    while (!queue.empty()) {
      ScheduledFrame f = std::move(queue.front());
      queue.pop_front();
      (f.dir == Direction::kForward ? *b : *a).on_frame(f.frame, 0);
      trace.push_back(std::move(f));
    }
  };
  a->start();
  pump();
  EXPECT_TRUE(a->established());
  for (int i = 0; i < messages; ++i) {
    a->submit(Bytes(256, static_cast<std::uint8_t>(i)), 0);
    pump();
  }
  return trace;
}

bool is_s2(const ScheduledFrame& f) {
  return wire::peek_type(f.frame) == wire::PacketType::kS2;
}

/// Replays `kWarmup + kMeasured` messages of `config` traffic through a
/// RelayEngine and checks that each of the last kMeasured S2s was verified
/// and forwarded at zero heap allocations.
void expect_s2_forward_allocation_free(const Config& config) {
  const int kWarmup = 16;
  const int kMeasured = 64;
  const auto trace = record_traffic(config, kWarmup + kMeasured);

  std::uint64_t forwarded = 0;
  RelayEngine::Callbacks cb;
  cb.forward = [&](Direction, ByteView) { ++forwarded; };
  RelayEngine relay(config, {}, std::move(cb));

  // Split the recorded schedule at the warmup boundary: everything up to
  // and including the kWarmup-th S2 primes the relay (association map,
  // MAC midstates, the recycled Merkle scratch path).
  std::size_t split = 0;
  int s2_seen = 0;
  for (; split < trace.size() && s2_seen < kWarmup; ++split) {
    if (is_s2(trace[split])) ++s2_seen;
  }
  for (std::size_t i = 0; i < split; ++i) {
    relay.on_frame(trace[i].dir, trace[i].frame);
  }

  const std::uint64_t forwarded_before = forwarded;
  std::uint64_t delta = 0;
  std::uint64_t measured_s2 = 0;
  for (std::size_t i = split; i < trace.size(); ++i) {
    if (!is_s2(trace[i])) {
      relay.on_frame(trace[i].dir, trace[i].frame);
      continue;
    }
    ++measured_s2;
    const ScopedAllocCount allocs;
    relay.on_frame(trace[i].dir, trace[i].frame);
    delta += allocs.delta();
  }

  EXPECT_EQ(measured_s2, static_cast<std::uint64_t>(kMeasured));
  // Every frame after the split, the measured S2s included, was verified
  // and forwarded...
  EXPECT_EQ(forwarded - forwarded_before, trace.size() - split);
  EXPECT_EQ(relay.stats().dropped_invalid, 0u);
  EXPECT_EQ(relay.stats().dropped_unsolicited, 0u);
  // ...at zero heap allocations per S2.
  EXPECT_EQ(delta, 0u);
}

TEST(RelayAllocFree, SteadyStateS2ForwardIsAllocationFree) {
  Config config;
  config.chain_length = 4096;  // no rekey inside the measured window
  expect_s2_forward_allocation_free(config);
}

TEST(RelayAllocFree, MerkleS2ForwardIsAllocationFree) {
  // ALPHA-M: every S2 carries its {Bc} branch set, decoded into the
  // engine's recycled scratch path.
  Config config;
  config.mode = Mode::kMerkle;
  config.batch_size = 8;
  config.chain_length = 4096;
  expect_s2_forward_allocation_free(config);
}

/// Runs `kWarmup + kMeasured` unreliable messages of `config` between two
/// Hosts and checks that each of the last kMeasured S2s was authenticated
/// and delivered through Host::on_frame at zero heap allocations.
void expect_s2_delivery_allocation_free(const Config& config) {
  const int kWarmup = 16;
  const int kMeasured = 64;
  std::deque<ScheduledFrame> queue;
  crypto::HmacDrbg rng_a(1), rng_b(2);
  std::uint64_t delivered = 0;
  Host::Callbacks a_cb;
  a_cb.send = [&](Bytes f) {
    queue.push_back({Direction::kForward, std::move(f)});
  };
  Host a(config, /*assoc_id=*/7, /*initiator=*/true, rng_a, std::move(a_cb));
  Host::Callbacks b_cb;
  b_cb.send = [&](Bytes f) {
    queue.push_back({Direction::kReverse, std::move(f)});
  };
  b_cb.on_message = [&](ByteView) { ++delivered; };
  Host b(config, /*assoc_id=*/7, /*initiator=*/false, rng_b, std::move(b_cb));

  int s2_seen = 0;
  std::uint64_t measured_s2 = 0;
  std::uint64_t delta = 0;
  const auto pump = [&] {
    while (!queue.empty()) {
      ScheduledFrame f = std::move(queue.front());
      queue.pop_front();
      Host& to = f.dir == Direction::kForward ? b : a;
      if (!is_s2(f) || ++s2_seen <= kWarmup) {
        to.on_frame(f.frame, 0);
        continue;
      }
      ++measured_s2;
      const ScopedAllocCount allocs;
      to.on_frame(f.frame, 0);
      delta += allocs.delta();
    }
  };
  a.start();
  pump();
  ASSERT_TRUE(a.established());
  for (int i = 0; i < kWarmup + kMeasured; ++i) {
    a.submit(Bytes(256, static_cast<std::uint8_t>(i)), 0);
    pump();
  }

  EXPECT_EQ(measured_s2, static_cast<std::uint64_t>(kMeasured));
  // Every message was delivered, the measured ones included...
  EXPECT_EQ(delivered, static_cast<std::uint64_t>(kWarmup + kMeasured));
  EXPECT_EQ(b.verifier()->stats().invalid_packets, 0u);
  // ...at zero heap allocations per S2.
  EXPECT_EQ(delta, 0u);
}

TEST(VerifierAllocFree, VerifierS2DeliveryIsAllocationFree) {
  // ALPHA-C, unreliable: one MAC check per S2 under the round's memoized
  // key schedule, no A2 to encode.
  Config config;
  config.mode = Mode::kCumulative;
  config.batch_size = 8;
  config.chain_length = 4096;  // no rekey inside the measured window
  expect_s2_delivery_allocation_free(config);
}

TEST(VerifierAllocFree, MerkleS2DeliveryIsAllocationFree) {
  // ALPHA-M, unreliable: the {Bc} branch set decodes into the verifier's
  // recycled scratch path.
  Config config;
  config.mode = Mode::kMerkle;
  config.batch_size = 8;
  config.chain_length = 4096;
  expect_s2_delivery_allocation_free(config);
}

}  // namespace
}  // namespace alpha::core
