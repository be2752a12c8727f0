#include "core/path.hpp"

#include <stdexcept>

namespace alpha::core {

ProtectedPath::ProtectedPath(net::Network& network,
                             std::vector<net::NodeId> path, Config config,
                             std::uint32_t assoc_id, std::uint64_t seed,
                             Host::Options initiator_opts,
                             Host::Options responder_opts,
                             RelayEngine::Options relay_opts) {
  path_ = std::move(path);
  assoc_id_ = assoc_id;
  if (path_.size() < 2) {
    throw std::invalid_argument("ProtectedPath: need at least two nodes");
  }

  for (std::size_t i = 0; i < path_.size(); ++i) {
    const bool is_initiator_end = i == 0;
    const bool is_responder_end = i + 1 == path_.size();

    AlphaNode::Options opts;
    opts.config = config;
    // Seed layout mirrors the pre-runtime wiring: initiator-end chains from
    // `seed`, responder-end from `seed + 1`; relays draw no chain material.
    opts.seed = is_initiator_end ? seed
                : is_responder_end ? seed + 1
                                   : seed + 100 + i;
    // Stamp trace events with the simulator node id so a decoded trace can
    // attribute every engine decision to its position on the path.
    opts.trace_origin = static_cast<std::uint8_t>(path_[i]);

    AlphaNode::Callbacks cbs;
    if (is_initiator_end) {
      cbs.on_message = [this](std::uint32_t, crypto::ByteView payload) {
        at_initiator_.emplace_back(payload.begin(), payload.end());
      };
      cbs.on_delivery = [this](std::uint32_t, std::uint64_t cookie,
                               DeliveryStatus status) {
        initiator_deliveries_.emplace_back(cookie, status);
      };
    } else if (is_responder_end) {
      cbs.on_message = [this](std::uint32_t, crypto::ByteView payload) {
        at_responder_.emplace_back(payload.begin(), payload.end());
      };
    }

    auto node = std::make_unique<AlphaNode>(
        std::make_unique<net::SimTransport>(network, path_[i]),
        std::move(opts), std::move(cbs));

    if (is_initiator_end) {
      initiator_ =
          &node->add_initiator(assoc_id_, path_[1], config, initiator_opts);
    } else if (is_responder_end) {
      responder_ = &node->add_responder(assoc_id_, path_[i - 1], config,
                                        responder_opts);
    } else {
      const std::size_t relay_index = i - 1;
      auto on_extracted = [this, relay_index](std::uint32_t, std::uint32_t,
                                              std::uint16_t,
                                              crypto::ByteView payload) {
        if (extraction_handler_) extraction_handler_(relay_index, payload);
      };
      relays_.push_back(&node->add_relay(path_[i - 1], path_[i + 1],
                                         relay_opts, std::move(on_extracted)));
    }
    nodes_.push_back(std::move(node));
  }
}

void ProtectedPath::start() {
  nodes_.front()->start(assoc_id_);
}

}  // namespace alpha::core
