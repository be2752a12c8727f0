// Wireless-sensor-network signaling (the paper's §4.1.3 scenario).
//
// Sensor-class profile: AES-MMO hashes (16-byte digests, what the CC2430's
// AES hardware computes), 100-byte packet payloads, an IEEE 802.15.4-like
// 250 kbit/s link, ALPHA-C with 5 pre-signatures per S1, and reliable
// delivery with pre-acks -- a sensor reporting readings to an actuator node
// through two relays, with every relay authenticating every packet.
//
//   $ ./sensor_signaling
#include <cstdio>

#include "core/path.hpp"
#include "platform/estimators.hpp"

using namespace alpha;

int main() {
  std::printf("== ALPHA in a sensor network (AES-MMO, 802.15.4-like) ==\n");

  net::Simulator sim;
  net::Network network{sim, 3};
  for (net::NodeId id = 0; id <= 3; ++id) network.add_node(id);
  net::LinkConfig link;
  link.latency = 4 * net::kMillisecond;
  link.jitter = 2 * net::kMillisecond;
  link.bandwidth_bps = 250'000;  // IEEE 802.15.4
  link.mtu = 127;                // 802.15.4 frame limit
  for (net::NodeId id = 0; id < 3; ++id) network.add_link(id, id + 1, link);

  core::Config config;
  config.algo = crypto::HashAlgo::kMmo128;  // 16-byte digests
  config.mac_kind = crypto::MacKind::kPrefix;  // single-pass MAC, hw-friendly
  config.mode = wire::Mode::kCumulative;
  // The paper's analytical example uses 5 pre-signatures per S1; a reliable
  // A1 carrying 5 pre-ack pairs would not fit a 127 B 802.15.4 frame, so
  // the MTU hint lets the engines clamp batches to what the frame carries.
  config.batch_size = 5;
  config.mtu_hint = 127;
  config.reliable = true;
  config.chain_length = 512;
  config.rto_us = 500 * net::kMillisecond;

  core::ProtectedPath path{network, {0, 1, 2, 3}, config, 1, 77};
  path.start();
  sim.run_until(2 * net::kSecond);
  std::printf("bootstrap: %s\n",
              path.initiator().established() ? "established" : "FAILED");

  // 25 sensor readings of ~40 bytes (fits the 127 B MTU with ALPHA
  // overhead: 16 B chain element + 16 B MAC + framing).
  for (int i = 0; i < 25; ++i) {
    char reading[40];
    std::snprintf(reading, sizeof(reading), "temp=%2d.%dC node=7 t=%04d",
                  20 + i % 5, i % 10, i);
    path.initiator().submit(
        crypto::Bytes(reading, reading + std::strlen(reading)), sim.now());
  }
  sim.run_until(sim.now() + 120 * net::kSecond);

  std::size_t acked = 0;
  for (const auto& [cookie, status] : path.initiator_deliveries()) {
    if (status == core::DeliveryStatus::kAcked) ++acked;
  }
  std::printf("readings delivered: %zu/25, acknowledged: %zu/25\n",
              path.delivered_to_responder().size(), acked);
  for (std::size_t i = 0; i < path.relay_count(); ++i) {
    std::printf("relay %zu verified %llu payloads, buffered %zu bytes\n", i,
                static_cast<unsigned long long>(
                    path.relay(i).stats().messages_extracted),
                path.relay(i).buffered_bytes());
  }

  // Side-by-side: what the paper's CC2430 cost model predicts for this
  // configuration (§4.1.3).
  const auto est = platform::estimate_wsn_alpha_c(platform::devices::cc2430(),
                                                  100, 5, /*preacks=*/true);
  std::printf("\nCC2430 analytical estimate for this profile: %.0f pkt/s, "
              "%.1f kbit/s verified goodput (paper: 334 pkt/s, 156.56 kbit/s)\n",
              est.packets_per_s, est.goodput_kbps);
  return 0;
}
