// Wireless-mesh bulk transfer (the paper's §4.1.2 scenario).
//
// A five-hop 802.11-like path streams 1 MiB of data under ALPHA-C and
// ALPHA-M and reports goodput, per-relay verification counts, and what
// happens when an attacker injects forged data mid-path: every forgery dies
// at the first honest relay, costing the rest of the path nothing.
//
//   $ ./mesh_stream
#include <cstdio>

#include "core/attackers.hpp"
#include "core/path.hpp"

using namespace alpha;

namespace {

void run_mode(wire::Mode mode, const char* name) {
  net::Simulator sim;
  net::Network network{sim, 7};

  const std::size_t hops = 5;
  for (net::NodeId id = 0; id <= hops; ++id) network.add_node(id);
  net::LinkConfig link;
  link.latency = 2 * net::kMillisecond;
  link.jitter = 1 * net::kMillisecond;
  link.bandwidth_bps = 54'000'000;  // 802.11g
  link.mtu = 1500;
  std::vector<net::NodeId> nodes;
  for (net::NodeId id = 0; id <= hops; ++id) nodes.push_back(id);
  for (net::NodeId id = 0; id < hops; ++id) network.add_link(id, id + 1, link);

  core::Config config;
  config.mode = mode;
  config.batch_size = 16;
  config.chain_length = 4096;

  core::ProtectedPath path{network, nodes, config, 1, 99};
  path.start();
  sim.run_until(net::kSecond);

  const std::size_t kChunk = 1200;
  const std::size_t kChunks = 875;  // ~1 MiB
  const net::SimTime t0 = sim.now();
  for (std::size_t i = 0; i < kChunks; ++i) {
    path.initiator().submit(crypto::Bytes(kChunk, static_cast<std::uint8_t>(i)),
                            sim.now());
  }
  // Step forward until the stream drains (or a generous deadline passes).
  while (path.delivered_to_responder().size() < kChunks &&
         sim.now() < t0 + 500 * net::kSecond) {
    sim.run_until(sim.now() + 100 * net::kMillisecond);
  }

  const std::size_t delivered = path.delivered_to_responder().size();
  const double elapsed_s =
      static_cast<double>(sim.now() - t0) / net::kSecond;
  std::printf("%-10s delivered %zu/%zu chunks, goodput %.2f Mbit/s\n", name,
              delivered, kChunks,
              static_cast<double>(delivered * kChunk * 8) /
                  (elapsed_s * 1e6));
  for (std::size_t i = 0; i < path.relay_count(); ++i) {
    const auto& r = path.relay(i).stats();
    std::printf("  relay %zu: forwarded=%llu verified-payloads=%llu "
                "buffered-bytes=%zu\n",
                i, static_cast<unsigned long long>(r.forwarded),
                static_cast<unsigned long long>(r.messages_extracted),
                path.relay(i).buffered_bytes());
  }
  std::uint64_t frames = 0, fires = 0;
  for (std::size_t i = 0; i < path.node_count(); ++i) {
    const auto snap = path.node(i).snapshot();
    frames += snap.frames_in;
    fires += snap.timer_fires;
  }
  std::printf("  runtime: %llu frames demuxed, %llu timer fires across %zu "
              "nodes\n",
              static_cast<unsigned long long>(frames),
              static_cast<unsigned long long>(fires), path.node_count());
}

void run_attack() {
  std::printf("\n-- forged-data injection against the stream --\n");
  net::Simulator sim;
  net::Network network{sim, 11};
  for (net::NodeId id = 0; id <= 4; ++id) network.add_node(id);
  for (net::NodeId id = 0; id < 4; ++id) network.add_link(id, id + 1);

  core::Config config;
  config.mode = wire::Mode::kCumulative;
  config.batch_size = 8;
  core::ProtectedPath path{network, {0, 1, 2, 3, 4}, config, 1, 5};
  path.start();
  sim.run_until(net::kSecond);

  // Attacker joins next to relay 2 (node 2) and floods forged S2 frames.
  network.add_node(66);
  network.add_link(66, 2);
  core::launch_s2_flood(network, 66, 2, /*assoc_id=*/1, /*count=*/200,
                        /*payload_size=*/1000, /*interval=*/net::kMillisecond,
                        /*seed=*/3);
  for (int i = 0; i < 40; ++i) {
    path.initiator().submit(crypto::Bytes(500, 0xaa), sim.now());
  }
  sim.run_until(5 * net::kSecond);

  std::printf("legit chunks delivered: %zu/40\n",
              path.delivered_to_responder().size());
  const auto& victim = path.relay(1).stats();  // node 2
  std::printf("relay at injection point: dropped %llu unsolicited frames\n",
              static_cast<unsigned long long>(victim.dropped_unsolicited));
  std::printf("frames on the link beyond the injection point: %llu "
              "(all of them legitimate)\n",
              static_cast<unsigned long long>(
                  network.link_stats(2, 3).frames_sent));
}

}  // namespace

int main() {
  std::printf("== ALPHA in a wireless mesh (5 hops, 802.11g-like links) ==\n");
  run_mode(wire::Mode::kCumulative, "ALPHA-C");
  run_mode(wire::Mode::kMerkle, "ALPHA-M");
  run_attack();
  return 0;
}
