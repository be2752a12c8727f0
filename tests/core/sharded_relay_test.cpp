// Sharded relay demux: relay bindings distributed across ShardedNode
// workers by assoc-id hash, verified over the deterministic simulator.
//
//  * end-to-end delivery through a multi-worker relay, with every worker
//    owning (and actually relaying) its slice of the associations;
//  * 1-worker vs 4-worker runs agree on the aggregate relay counters;
//  * seeded chaos (loss + jitter) replays bit-identically per seed.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/sharded_node.hpp"
#include "net/network.hpp"
#include "net/udp.hpp"
#include "test_bus.hpp"

namespace alpha::core {
namespace {

using crypto::Bytes;
using net::kMillisecond;
using net::kSecond;
using testing::SeedReporter;
using testing::chaos_seed;

Config relay_config() {
  Config config;
  config.reliable = true;
  config.rto_us = 200 * kMillisecond;
  config.max_retries = 50;
  return config;
}

std::vector<std::uint32_t> assoc_ids(std::size_t n) {
  std::vector<std::uint32_t> ids(n);
  for (std::size_t i = 0; i < n; ++i) {
    ids[i] = static_cast<std::uint32_t>(i + 1);
  }
  return ids;
}

/// Host A (node 0) -- relay (node 2, ShardedNode with relay bindings) --
/// host B (node 1). A peers with the relay; the relay's bindings forward
/// between the end nodes; B accepts inbound and answers toward the relay.
struct RelayTriad {
  net::Simulator sim;
  net::Network network;
  std::unique_ptr<ShardedNode> a;
  std::unique_ptr<ShardedNode> b;
  std::unique_ptr<ShardedNode> relay;
  std::map<std::uint32_t, std::vector<Bytes>> at_b;
  std::map<std::uint32_t, std::vector<std::uint64_t>> acked;

  RelayTriad(std::uint32_t relay_workers, const Config& config,
             const std::vector<std::uint32_t>& ids,
             std::uint64_t chaos = 0, double loss = 0.0)
      : network(sim, /*seed=*/1337) {
    if (chaos != 0) network.set_chaos_seed(chaos);
    network.add_node(0);
    network.add_node(1);
    network.add_node(2);
    net::LinkConfig link;
    link.latency = 2 * kMillisecond;
    link.jitter = chaos != 0 ? 3 * kMillisecond : net::SimTime{0};
    link.loss_rate = loss;
    network.add_link(0, 2, link);
    network.add_link(2, 1, link);

    ShardedNode::Options r_opts;
    r_opts.shard.config = config;
    r_opts.shard.seed = 9;
    r_opts.workers = relay_workers;
    relay = std::make_unique<ShardedNode>(
        std::make_unique<net::SimTransport>(network, 2), r_opts);
    relay->add_relay(/*upstream=*/0, /*downstream=*/1, ids);

    ShardedNode::Options a_opts;
    a_opts.shard.config = config;
    a_opts.shard.seed = 7;
    a_opts.workers = 1;
    ShardedNode::Callbacks a_cbs;
    a_cbs.on_delivery = [this](std::uint32_t assoc, std::uint64_t cookie,
                               DeliveryStatus status) {
      if (status == DeliveryStatus::kAcked) acked[assoc].push_back(cookie);
    };
    a = std::make_unique<ShardedNode>(
        std::make_unique<net::SimTransport>(network, 0), a_opts, a_cbs);

    ShardedNode::Options b_opts;
    b_opts.shard.config = config;
    b_opts.shard.seed = 8;
    b_opts.shard.accept_inbound = true;
    b_opts.workers = 1;
    ShardedNode::Callbacks b_cbs;
    b_cbs.on_message = [this](std::uint32_t assoc, crypto::ByteView payload) {
      at_b[assoc].emplace_back(payload.begin(), payload.end());
    };
    b = std::make_unique<ShardedNode>(
        std::make_unique<net::SimTransport>(network, 1), b_opts, b_cbs);
  }

  void run(const std::vector<std::uint32_t>& ids) {
    for (const auto id : ids) a->add_initiator(id, /*peer=*/2);
    for (const auto id : ids) a->start(id);
    sim.run_until(10 * kSecond);
    for (const auto id : ids) {
      a->submit(id, Bytes(48, static_cast<std::uint8_t>(id)));
    }
    sim.run_until(60 * kSecond);
  }
};

TEST(ShardedRelayTest, DeliversThroughMultiWorkerRelay) {
  const auto ids = assoc_ids(12);
  RelayTriad triad(/*relay_workers=*/4, relay_config(), ids);

  // The id set must exercise every relay shard for the test to mean
  // anything.
  std::set<std::uint32_t> covered;
  for (const auto id : ids) covered.insert(triad.relay->shard_for(id));
  ASSERT_EQ(covered.size(), 4u);

  triad.run(ids);

  for (const auto id : ids) {
    ASSERT_EQ(triad.at_b[id].size(), 1u) << "assoc " << id;
    EXPECT_EQ(triad.at_b[id][0], Bytes(48, static_cast<std::uint8_t>(id)));
    ASSERT_EQ(triad.acked[id].size(), 1u) << "assoc " << id;
  }

  NodeSnapshot snap = triad.relay->snapshot();
  EXPECT_GT(snap.relay.forwarded, 0u);
  EXPECT_EQ(snap.relay.dropped_invalid, 0u);
  // Every relayed frame is timed (one verify sample per frame).
  EXPECT_GT(snap.relay.verify_batch_ns.count(), 0u);
  EXPECT_EQ(snap.relay.verify_batch_frames,
            snap.relay.verify_batch_ns.count());

  // Each worker relayed its own slice: per-shard routed-frame counters are
  // all nonzero.
  for (const auto& st : triad.relay->shard_stats()) {
    EXPECT_GT(st.frames_routed, 0u) << "shard " << st.shard;
  }
}

TEST(ShardedRelayTest, WorkerCountDoesNotChangeRelayDecisions) {
  const auto ids = assoc_ids(10);
  RelayTriad one(/*relay_workers=*/1, relay_config(), ids);
  RelayTriad four(/*relay_workers=*/4, relay_config(), ids);
  one.run(ids);
  four.run(ids);

  EXPECT_EQ(one.at_b, four.at_b);
  EXPECT_EQ(one.acked, four.acked);

  const NodeSnapshot s1 = one.relay->snapshot();
  const NodeSnapshot s4 = four.relay->snapshot();
  EXPECT_EQ(s1.relay.forwarded, s4.relay.forwarded);
  EXPECT_EQ(s1.relay.dropped_invalid, s4.relay.dropped_invalid);
  EXPECT_EQ(s1.relay.dropped_unsolicited, s4.relay.dropped_unsolicited);
  EXPECT_EQ(s1.relay.messages_extracted, s4.relay.messages_extracted);
}

TEST(ShardedRelayTest, SeededChaosIsIdenticalAtAnyWorkerCount) {
  const auto ids = assoc_ids(6);
  const std::uint64_t seed = chaos_seed(/*fallback=*/0x51abfeed);
  SeedReporter reporter(seed);
  RelayTriad one(/*relay_workers=*/1, relay_config(), ids, seed,
                 /*loss=*/0.10);
  RelayTriad four(/*relay_workers=*/4, relay_config(), ids, seed,
                  /*loss=*/0.10);
  one.run(ids);
  four.run(ids);

  // The simulator drives every shard inline, in virtual-arrival order, so
  // the network-visible schedule -- and therefore the chaos the seed deals
  // out -- does not depend on the worker count: the runs match exactly.
  EXPECT_EQ(one.at_b, four.at_b);
  EXPECT_EQ(one.acked, four.acked);
  const NodeSnapshot s = one.relay->snapshot();
  const NodeSnapshot f = four.relay->snapshot();
  EXPECT_EQ(s.relay.forwarded, f.relay.forwarded);
  EXPECT_EQ(s.relay.dropped_invalid, f.relay.dropped_invalid);
  EXPECT_EQ(s.relay.dropped_unsolicited, f.relay.dropped_unsolicited);
  for (std::size_t i = 0; i < trace::kDropReasonCount; ++i) {
    EXPECT_EQ(s.relay.dropped_by_reason[i], f.relay.dropped_by_reason[i])
        << "drop reason " << i;
  }
  // Chaos actually happened: at 10% loss some frames were retransmitted.
  EXPECT_GT(s.frames_in, ids.size() * 6);
}

TEST(ShardedRelayTest, AddRelayAfterLaunchThrows) {
  // Threaded (UDP) mode: the worker launch is what locks the topology.
  ShardedNode::Options opts;
  opts.workers = 2;
  ShardedNode node(std::make_unique<net::UdpTransport>(), opts);
  node.poll(0);  // forces the runtime up
  EXPECT_THROW(node.add_relay(/*upstream=*/1, /*downstream=*/2, {1, 2, 3}),
               std::logic_error);
}

}  // namespace
}  // namespace alpha::core
