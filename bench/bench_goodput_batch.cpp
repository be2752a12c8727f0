// Extension figure -- simulator-measured goodput vs. batch size per mode.
//
// The paper's bandwidth-adaptation argument (§3.3): the strictly sequential
// base exchange caps throughput at one message per 1.5 RTT, while ALPHA-C/M
// amortize the S1/A1 round trip over n messages. This bench measures
// end-to-end goodput on a 3-hop simulated path (5 ms/hop, 54 Mbit/s links)
// as the batch size grows, for every mode -- the protocol-level counterpart
// of the analytical Table 6.
#include <cstdio>

#include "bench_util.hpp"
#include "core/path.hpp"

using namespace alpha;
using namespace alpha::bench;

namespace {

double measure_goodput_mbps(wire::Mode mode, std::size_t batch,
                            std::size_t messages, std::size_t msg_size) {
  net::Simulator sim;
  net::Network network{sim, 11};
  for (net::NodeId id = 0; id <= 3; ++id) network.add_node(id);
  net::LinkConfig link;
  link.latency = 5 * net::kMillisecond;
  link.bandwidth_bps = 54'000'000;
  link.mtu = 1500;
  for (net::NodeId id = 0; id < 3; ++id) network.add_link(id, id + 1, link);

  core::Config config;
  config.mode = mode;
  config.batch_size = batch;
  config.merkle_group = 8;
  config.chain_length = 8192;

  core::ProtectedPath path{network, {0, 1, 2, 3}, config, 1, 7};
  path.start();
  sim.run_until(net::kSecond);
  if (!path.initiator().established()) return 0.0;

  const net::SimTime t0 = sim.now();
  for (std::size_t i = 0; i < messages; ++i) {
    path.initiator().submit(crypto::Bytes(msg_size, 0x42), sim.now());
  }
  while (path.delivered_to_responder().size() < messages &&
         sim.now() < t0 + 3000 * net::kSecond) {
    sim.run_until(sim.now() + 100 * net::kMillisecond);
  }
  const double elapsed_s = static_cast<double>(sim.now() - t0) / net::kSecond;
  return static_cast<double>(path.delivered_to_responder().size() * msg_size *
                             8) /
         (elapsed_s * 1e6);
}

}  // namespace

int main() {
  header("Extension figure: end-to-end goodput vs. batch size "
         "(3 hops, 5 ms/hop, 54 Mbit/s, 1200 B messages)");

  const std::size_t batches[] = {1, 4, 16, 64};
  std::printf("\n%-10s", "batch n");
  for (const auto b : batches) std::printf(" %9zu", b);
  std::printf("   (goodput, Mbit/s)\n");

  const struct {
    const char* name;
    wire::Mode mode;
  } modes[] = {
      {"base", wire::Mode::kBase},
      {"ALPHA-C", wire::Mode::kCumulative},
      {"ALPHA-M", wire::Mode::kMerkle},
      {"ALPHA-C+M", wire::Mode::kCumulativeMerkle},
  };

  for (const auto& m : modes) {
    std::printf("%-10s", m.name);
    for (const auto b : batches) {
      if (m.mode == wire::Mode::kBase && b > 1) {
        std::printf(" %9s", "-");  // base mode has no batching
        continue;
      }
      const double mbps = measure_goodput_mbps(m.mode, b, 256, 1200);
      std::printf(" %9.2f", mbps);
    }
    std::printf("\n");
  }

  std::printf(
      "\nReading: base mode is capped at ~1 message / 1.5 RTT (0.3 Mbit/s\n"
      "here); batching amortizes the S1/A1 exchange so goodput scales nearly\n"
      "linearly with n until link bandwidth and serialization dominate --\n"
      "the adaptation range the paper's §3.3 claims.\n");
  return 0;
}
