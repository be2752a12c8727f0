// ShardedNode: the supervisor/worker runtime over SPSC rings.
//
//  * inline (simulator) mode -- deterministic: establishment and delivery
//    across every shard, shard-hash stability under rekey and on-demand
//    accept, seeded-chaos exactly-once with bit-identical replay;
//  * threaded (UDP) mode -- real I/O + worker threads: establishment,
//    delivery, cookie mirroring, scrape-merged snapshots, per-shard stats,
//    and the setup-phase locking rules.
#include "core/sharded_node.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "net/network.hpp"
#include "test_bus.hpp"

namespace alpha::core {
namespace {

using crypto::Bytes;
using net::kMillisecond;
using net::kSecond;
using testing::SeedReporter;
using testing::chaos_seed;

Config sim_config() {
  Config config;
  config.reliable = true;
  config.rto_us = 200 * kMillisecond;
  config.max_retries = 50;
  return config;
}

/// Assoc ids 1..n, guaranteed (asserted elsewhere) to span all shards for
/// small worker counts thanks to the multiplicative hash.
std::vector<std::uint32_t> assoc_ids(std::size_t n) {
  std::vector<std::uint32_t> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = static_cast<std::uint32_t>(i + 1);
  return ids;
}

// ------------------------------------------------------------- inline mode

/// Two ShardedNodes over the simulator: initiators at node 0, on-demand
/// accepting responders at node 1.
struct InlinePair {
  net::Simulator sim;
  net::Network network;
  std::unique_ptr<ShardedNode> a;
  std::unique_ptr<ShardedNode> b;
  std::map<std::uint32_t, std::vector<Bytes>> at_b;
  std::map<std::uint32_t, std::vector<std::uint64_t>> acked;

  explicit InlinePair(std::uint32_t workers, const Config& config,
                      std::uint64_t chaos_seed = 0,
                      const net::FaultConfig& faults = {}, double loss = 0.0)
      : network(sim, /*seed=*/1337) {
    if (chaos_seed != 0) network.set_chaos_seed(chaos_seed);
    network.add_node(0);
    network.add_node(1);
    net::LinkConfig link;
    link.latency = 2 * kMillisecond;
    link.jitter = chaos_seed != 0 ? 3 * kMillisecond : net::SimTime{0};
    link.loss_rate = loss;
    network.add_link(0, 1, link);
    if (faults.any()) network.set_link_faults(0, 1, faults);

    ShardedNode::Options a_opts;
    a_opts.shard.config = config;
    a_opts.shard.seed = 7;
    a_opts.workers = workers;
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
    b_opts.workers = workers;
    ShardedNode::Callbacks b_cbs;
    b_cbs.on_message = [this](std::uint32_t assoc, crypto::ByteView payload) {
      at_b[assoc].emplace_back(payload.begin(), payload.end());
    };
    b = std::make_unique<ShardedNode>(
        std::make_unique<net::SimTransport>(network, 1), b_opts, b_cbs);
  }
};

TEST(ShardedNodeInlineTest, EstablishesAndDeliversAcrossAllShards) {
  const auto ids = assoc_ids(12);
  InlinePair pair(/*workers=*/4, sim_config());

  // The id set must actually exercise every shard for the test to mean
  // anything.
  std::set<std::uint32_t> covered;
  for (const auto id : ids) covered.insert(pair.a->shard_for(id));
  ASSERT_EQ(covered.size(), 4u);

  for (const auto id : ids) pair.a->add_initiator(id, /*peer=*/1);
  for (const auto id : ids) pair.a->start(id);
  pair.sim.run_until(10 * kSecond);

  EXPECT_EQ(pair.a->established_count(), ids.size());
  EXPECT_EQ(pair.b->established_count(), ids.size());
  EXPECT_EQ(pair.a->association_count(), ids.size());

  for (const auto id : ids) {
    EXPECT_EQ(pair.a->submit(id, Bytes(64, static_cast<std::uint8_t>(id))),
              1u);  // first cookie on every association
  }
  pair.sim.run_until(40 * kSecond);

  for (const auto id : ids) {
    ASSERT_EQ(pair.at_b[id].size(), 1u) << "assoc " << id;
    EXPECT_EQ(pair.at_b[id][0], Bytes(64, static_cast<std::uint8_t>(id)));
    ASSERT_EQ(pair.acked[id].size(), 1u) << "assoc " << id;
  }

  // Scrape-merged aggregates line up with what actually happened.
  const NodeSnapshot sa = pair.a->snapshot(/*per_assoc=*/true);
  const NodeSnapshot sb = pair.b->snapshot();
  EXPECT_EQ(sa.associations, ids.size());
  EXPECT_EQ(sa.established, ids.size());
  EXPECT_EQ(sa.assocs.size(), ids.size());
  EXPECT_EQ(sb.accepted_handshakes, ids.size());
  EXPECT_EQ(sb.messages_delivered, ids.size());
  EXPECT_EQ(sa.ring_overflows, 0u);
  EXPECT_GT(sa.frames_out, 0u);

  // Every shard routed frames for its own associations only.
  std::map<std::uint32_t, std::size_t> per_shard_assocs;
  for (const auto id : ids) ++per_shard_assocs[pair.a->shard_for(id)];
  const auto stats = pair.a->shard_stats();
  ASSERT_EQ(stats.size(), 4u);
  for (const auto& st : stats) {
    EXPECT_EQ(st.frames_routed > 0, per_shard_assocs[st.shard] > 0)
        << "shard " << st.shard;
    EXPECT_EQ(st.in_overflows, 0u);
    EXPECT_EQ(st.out_overflows, 0u);
  }
}

TEST(ShardedNodeInlineTest, SubmitCookiesCountPerAssociation) {
  InlinePair pair(/*workers=*/2, sim_config());
  pair.a->add_initiator(1, 1);
  pair.a->add_initiator(2, 1);
  pair.a->start(1);
  pair.a->start(2);
  pair.sim.run_until(5 * kSecond);
  ASSERT_EQ(pair.a->established_count(), 2u);

  EXPECT_EQ(pair.a->submit(1, Bytes(8, 0x01)), 1u);
  EXPECT_EQ(pair.a->submit(2, Bytes(8, 0x02)), 1u);
  EXPECT_EQ(pair.a->submit(1, Bytes(8, 0x03)), 2u);
  EXPECT_EQ(pair.a->submit(1, Bytes(8, 0x04)), 3u);
  EXPECT_EQ(pair.a->submit(2, Bytes(8, 0x05)), 2u);

  EXPECT_THROW(pair.a->submit(99, Bytes(8, 0x06)), std::invalid_argument);
  EXPECT_THROW(pair.a->start(99), std::invalid_argument);
}

TEST(ShardedNodeInlineTest, RekeyAndAcceptStayOnTheOwningShard) {
  // A deliberately short chain forces rekeys (generation bumps) mid-stream.
  Config config = sim_config();
  config.chain_length = 32;
  config.rekey_threshold = 8;  // rotate when <8 undisclosed elements remain
  const std::uint32_t id = 5;
  InlinePair pair(/*workers=*/4, config);
  const std::uint32_t owner = pair.a->shard_for(id);

  pair.a->add_initiator(id, 1);
  pair.a->start(id);
  pair.sim.run_until(10 * kSecond);
  ASSERT_EQ(pair.a->established_count(), 1u);
  // The responder was accepted on demand -- on the same hash-owned shard.
  const auto b_early = pair.b->shard_stats();
  EXPECT_GT(b_early[pair.b->shard_for(id)].frames_routed, 0u);

  // Enough traffic to exhaust the chain several times over.
  for (int i = 0; i < 30; ++i) {
    pair.a->submit(id, Bytes(32, static_cast<std::uint8_t>(i)));
    pair.sim.run_until(pair.sim.now() + 2 * kSecond);
  }
  pair.sim.run_until(pair.sim.now() + 30 * kSecond);

  ASSERT_EQ(pair.at_b[id].size(), 30u);
  const NodeSnapshot sa = pair.a->snapshot();
  EXPECT_GT(sa.rekeys_started, 0u) << "chain never exhausted: test is vacuous";

  // Shard-hash stability: across every rekey and the on-demand accept, all
  // frames -- on both nodes -- kept landing on the one hash-owned shard.
  // shard_of is a pure function of the association id, so this cannot
  // regress silently without this test failing.
  for (const auto& st : pair.a->shard_stats()) {
    if (st.shard == owner) {
      EXPECT_GT(st.frames_routed, 0u);
    } else {
      EXPECT_EQ(st.frames_routed, 0u) << "shard " << st.shard;
    }
  }
  for (const auto& st : pair.b->shard_stats()) {
    if (st.shard == pair.b->shard_for(id)) {
      EXPECT_GT(st.frames_routed, 0u);
    } else {
      EXPECT_EQ(st.frames_routed, 0u) << "shard " << st.shard;
    }
  }
}

/// One seeded chaos run: returns per-assoc delivered payload sequences and
/// the counters that must replay bit-identically.
struct ChaosRunResult {
  std::map<std::uint32_t, std::vector<Bytes>> delivered;
  std::uint64_t frames_in_a = 0;
  std::uint64_t frames_in_b = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t duplicates = 0;

  bool operator==(const ChaosRunResult&) const = default;
};

ChaosRunResult chaos_run(std::uint64_t seed, const std::vector<std::uint32_t>&
                                                 ids) {
  Config config = sim_config();
  config.retransmit_on_nack = true;
  config.rto_us = 100 * kMillisecond;
  net::FaultConfig faults;
  faults.duplicate_rate = 0.2;
  faults.reorder_rate = 0.2;
  InlinePair pair(/*workers=*/4, config, seed, faults, /*loss=*/0.05);

  for (const auto id : ids) pair.a->add_initiator(id, 1);
  for (const auto id : ids) pair.a->start(id);
  pair.sim.run_until(20 * kSecond);
  // Chaos can exhaust a handshake budget; deterministically restart the
  // stragglers (fixed virtual times keep the run replayable).
  for (int attempt = 0;
       attempt < 50 && pair.a->established_count() < ids.size(); ++attempt) {
    const NodeSnapshot progress = pair.a->snapshot(/*per_assoc=*/true);
    for (const auto& as : progress.assocs) {
      if (!as.established) pair.a->start(as.assoc_id);
    }
    pair.sim.run_until(pair.sim.now() + 10 * kSecond);
  }
  EXPECT_EQ(pair.a->established_count(), ids.size());

  const int kMessages = 6;
  for (int i = 0; i < kMessages; ++i) {
    for (const auto id : ids) {
      Bytes payload(48, static_cast<std::uint8_t>(id * 16 + i));
      pair.a->submit(id, std::move(payload));
    }
    pair.sim.run_until(pair.sim.now() + 5 * kSecond);
  }
  pair.sim.run_until(pair.sim.now() + 200 * kSecond);

  ChaosRunResult r;
  r.delivered = pair.at_b;
  const NodeSnapshot sa = pair.a->snapshot();
  const NodeSnapshot sb = pair.b->snapshot();
  r.frames_in_a = sa.frames_in;
  r.frames_in_b = sb.frames_in;
  r.retransmits = sa.retransmits + sb.retransmits;
  r.duplicates = sa.duplicate_frames + sb.duplicate_frames;
  EXPECT_GT(pair.network.total_stats().frames_duplicated, 0u);
  EXPECT_GT(pair.network.total_stats().frames_lost, 0u);
  return r;
}

TEST(ShardedNodeChaosTest, SeededChaosDeliversExactlyOnceAcrossShards) {
  const std::uint64_t seed = chaos_seed(0x5ada);
  SeedReporter reporter{seed};
  const auto ids = assoc_ids(8);

  const ChaosRunResult run = chaos_run(seed, ids);

  // Exactly-once, per association, despite duplication+reorder+loss and the
  // frames crossing shard rings on both ends.
  for (const auto id : ids) {
    const auto it = run.delivered.find(id);
    ASSERT_NE(it, run.delivered.end()) << "assoc " << id;
    std::map<Bytes, int> histogram;
    for (const auto& p : it->second) ++histogram[p];
    EXPECT_EQ(histogram.size(), 6u) << "assoc " << id;
    for (const auto& [payload, count] : histogram) {
      EXPECT_EQ(count, 1) << "assoc " << id << " duplicated a delivery";
    }
  }
}

TEST(ShardedNodeChaosTest, SameSeedReplaysBitIdentically) {
  const std::uint64_t seed = chaos_seed(0x4e9a7);
  SeedReporter reporter{seed};
  const auto ids = assoc_ids(6);

  const ChaosRunResult first = chaos_run(seed, ids);
  const ChaosRunResult second = chaos_run(seed, ids);
  // Same seed, same schedule: payload-for-payload identical deliveries and
  // identical protocol counters, even though frames traverse the sharded
  // rings. (Inline mode is single-threaded by design; this is the property
  // that makes chaos failures reproducible.)
  EXPECT_EQ(first, second);

  const ChaosRunResult other = chaos_run(seed + 1, ids);
  EXPECT_NE(first.frames_in_a + first.frames_in_b,
            other.frames_in_a + other.frames_in_b)
      << "different seed produced an identical run; chaos seed unused?";
}

// ----------------------------------------------------------- threaded mode

Config udp_config() {
  Config config;
  config.reliable = true;
  config.rto_us = 50'000;  // 50 ms: generous against nap jitter
  config.max_retries = 100;
  return config;
}

template <typename Pred>
bool wait_for(Pred pred, int timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(ShardedNodeThreadedTest, UdpPairEstablishesAndDelivers) {
  const auto ids = assoc_ids(8);
  auto ta = std::make_unique<net::UdpTransport>();
  auto tb = std::make_unique<net::UdpTransport>();
  const std::uint16_t port_b = tb->port();

  ShardedNode::Options a_opts;
  a_opts.shard.config = udp_config();
  a_opts.shard.seed = 21;
  a_opts.workers = 2;
  std::atomic<std::size_t> acked{0};
  ShardedNode::Callbacks a_cbs;
  a_cbs.on_delivery = [&](std::uint32_t, std::uint64_t,
                          DeliveryStatus status) {
    if (status == DeliveryStatus::kAcked) acked.fetch_add(1);
  };
  ShardedNode a{std::move(ta), a_opts, a_cbs};

  ShardedNode::Options b_opts;
  b_opts.shard.config = udp_config();
  b_opts.shard.seed = 22;
  b_opts.shard.accept_inbound = true;
  b_opts.workers = 2;
  std::mutex mu;
  std::map<std::uint32_t, std::vector<Bytes>> at_b;
  std::atomic<std::size_t> delivered{0};
  ShardedNode::Callbacks b_cbs;
  b_cbs.on_message = [&](std::uint32_t assoc, crypto::ByteView payload) {
    const std::lock_guard<std::mutex> lock(mu);
    at_b[assoc].emplace_back(payload.begin(), payload.end());
    delivered.fetch_add(1);
  };
  ShardedNode b{std::move(tb), b_opts, b_cbs};
  EXPECT_TRUE(a.threaded());
  EXPECT_TRUE(b.threaded());

  for (const auto id : ids) a.add_initiator(id, port_b);
  for (const auto id : ids) a.start(id);
  // b's threads launch on its first poll; a's launched at start().
  ASSERT_TRUE(wait_for(
      [&] {
        b.poll(1);
        return a.established_count() == ids.size() &&
               b.established_count() == ids.size();
      },
      15'000))
      << "established a=" << a.established_count()
      << " b=" << b.established_count();

  // Associations must have been added on their hash-owned shard before the
  // launch; afterwards the setup API locks.
  EXPECT_THROW(a.add_initiator(100, port_b), std::logic_error);

  for (const auto id : ids) {
    EXPECT_EQ(a.submit(id, Bytes(64, static_cast<std::uint8_t>(id))), 1u);
    EXPECT_EQ(a.submit(id, Bytes(64, static_cast<std::uint8_t>(id + 1))), 2u);
  }
  ASSERT_TRUE(wait_for([&] { return delivered.load() == 2 * ids.size(); },
                       15'000))
      << "delivered " << delivered.load();
  ASSERT_TRUE(wait_for([&] { return acked.load() == 2 * ids.size(); },
                       15'000))
      << "acked " << acked.load();

  {
    const std::lock_guard<std::mutex> lock(mu);
    for (const auto id : ids) {
      ASSERT_EQ(at_b[id].size(), 2u) << "assoc " << id;
      EXPECT_EQ(at_b[id][0], Bytes(64, static_cast<std::uint8_t>(id)));
      EXPECT_EQ(at_b[id][1], Bytes(64, static_cast<std::uint8_t>(id + 1)));
    }
  }

  // Scrape-time merge round-trips through every worker's ring.
  const NodeSnapshot sa = a.snapshot(/*per_assoc=*/true);
  EXPECT_EQ(sa.associations, ids.size());
  EXPECT_EQ(sa.established, ids.size());
  EXPECT_EQ(sa.assocs.size(), ids.size());
  const NodeSnapshot sb = b.snapshot();
  EXPECT_EQ(sb.accepted_handshakes, ids.size());
  EXPECT_EQ(sb.messages_delivered, 2 * ids.size());

  std::uint64_t routed = 0;
  for (const auto& st : a.shard_stats()) routed += st.frames_routed;
  EXPECT_GT(routed, 0u);
  EXPECT_EQ(a.association_count(), ids.size());
}

TEST(ShardedNodeThreadedTest, ControlOpsValidateBeforeEnqueue) {
  auto ta = std::make_unique<net::UdpTransport>();
  ShardedNode::Options opts;
  opts.shard.config = udp_config();
  opts.workers = 2;
  ShardedNode node{std::move(ta), opts};
  node.add_initiator(1, 1);
  EXPECT_THROW(node.start(2), std::invalid_argument);
  EXPECT_THROW(node.submit(2, Bytes(8, 0)), std::invalid_argument);
}

TEST(ShardedNodeThreadedTest, PollReturnsOnFirstRoutedFrame) {
  auto transport = std::make_unique<net::UdpTransport>();
  const std::uint16_t port = transport->port();
  ShardedNode::Options opts;
  opts.shard.config = udp_config();
  opts.workers = 2;
  ShardedNode node{std::move(transport), opts};
  node.poll(0);  // launches the threads
  // Sent once poll() below is waiting; any datagram is routed (one whose
  // association id cannot be read goes to shard 0).
  std::thread sender([port] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    net::UdpTransport tx;
    tx.send(port, Bytes(16, 0x5a));
  });
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t routed = node.poll(5'000);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  sender.join();
  EXPECT_GE(routed, 1u);
  EXPECT_LT(elapsed, std::chrono::seconds(2));
}

TEST(ShardedNodeThreadedTest, WorkerInitRunsOncePerShard) {
  auto ta = std::make_unique<net::UdpTransport>();
  ShardedNode::Options opts;
  opts.shard.config = udp_config();
  opts.workers = 3;
  std::mutex mu;
  std::set<std::uint32_t> seen;
  opts.worker_init = [&](std::uint32_t shard) {
    const std::lock_guard<std::mutex> lock(mu);
    seen.insert(shard);
  };
  ShardedNode node{std::move(ta), opts};
  node.poll(1);  // launches the threads
  ASSERT_TRUE(wait_for(
      [&] {
        const std::lock_guard<std::mutex> lock(mu);
        return seen.size() == 3;
      },
      5'000));
  const std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(seen, (std::set<std::uint32_t>{0, 1, 2}));
}

}  // namespace
}  // namespace alpha::core
