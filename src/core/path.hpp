// Protected path over the simulated network.
//
// Convenience binding of the node runtime onto a linear net::Network path:
// an AlphaNode per path node -- the initiator Host at one end, the
// responder at the other, a relay binding on every interior node (paper
// Fig. 1: signer s, relays r_i, verifier v). Frames travel hop-by-hop;
// relays verify-and-forward, ends run the full handshake + signature
// exchange. Retransmissions are driven by each node's timer wheel through
// the simulator's event queue -- there is no hand-wired tick loop; just run
// the simulator.
//
// This is the setup used by the integration tests, the examples and the
// latency/attack benches.
#pragma once

#include <memory>
#include <vector>

#include "core/node.hpp"
#include "net/network.hpp"

namespace alpha::core {

class ProtectedPath {
 public:
  /// Binds engines to the nodes in `path` (length >= 2). The nodes and links
  /// must already exist in `network`. Seeds derive the hosts' chain material.
  ProtectedPath(net::Network& network, std::vector<net::NodeId> path,
                Config config, std::uint32_t assoc_id, std::uint64_t seed,
                Host::Options initiator_opts = Host::Options{},
                Host::Options responder_opts = Host::Options{},
                RelayEngine::Options relay_opts = RelayEngine::Options{});

  /// Sends the HS1. Retransmission timers arm themselves on activity and
  /// disarm when idle.
  void start();

  /// Handler invoked whenever a relay securely extracts an authenticated
  /// payload from a forwarded S2 (§3.5 middlebox signaling):
  /// (relay index on the path, payload).
  using ExtractionHandler =
      std::function<void(std::size_t relay_index, crypto::ByteView payload)>;
  void set_extraction_handler(ExtractionHandler handler) {
    extraction_handler_ = std::move(handler);
  }

  Host& initiator() noexcept { return *initiator_; }
  Host& responder() noexcept { return *responder_; }
  std::size_t relay_count() const noexcept { return relays_.size(); }
  RelayEngine& relay(std::size_t i) { return *relays_.at(i); }

  /// Node runtimes along the path (index parallel to the node list).
  std::size_t node_count() const noexcept { return nodes_.size(); }
  AlphaNode& node(std::size_t i) { return *nodes_.at(i); }

  /// Messages delivered to the responder's application.
  const std::vector<crypto::Bytes>& delivered_to_responder() const noexcept {
    return at_responder_;
  }
  const std::vector<crypto::Bytes>& delivered_to_initiator() const noexcept {
    return at_initiator_;
  }
  const std::vector<std::pair<std::uint64_t, DeliveryStatus>>&
  initiator_deliveries() const noexcept {
    return initiator_deliveries_;
  }

 private:
  std::vector<net::NodeId> path_;
  std::uint32_t assoc_id_;
  std::vector<std::unique_ptr<AlphaNode>> nodes_;
  Host* initiator_ = nullptr;
  Host* responder_ = nullptr;
  std::vector<RelayEngine*> relays_;
  std::vector<crypto::Bytes> at_initiator_;
  std::vector<crypto::Bytes> at_responder_;
  std::vector<std::pair<std::uint64_t, DeliveryStatus>> initiator_deliveries_;
  ExtractionHandler extraction_handler_;
};

}  // namespace alpha::core
