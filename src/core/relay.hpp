// Relay-side protocol engine (hop-by-hop authentication).
//
// The distinguishing capability of ALPHA (paper §1, §3.1.1): forwarding
// nodes authenticate traffic in transit. A relay learns both endpoints'
// chain anchors by observing the handshake, then
//
//  * authenticates every S1 by its chain element and buffers the
//    pre-signatures (small: hashes only, Table 2 relay column),
//  * authenticates every A1 and records the verifier's willingness to
//    receive -- S2 data without a matching S1+A1 context is dropped as
//    unsolicited, which stops flooding one hop from the source (§3.5),
//  * checks every S2 against the buffered pre-signature once the key is
//    disclosed, dropping forgeries *before* they consume downstream
//    bandwidth, and extracting authenticated payloads for on-path services
//    (secure middlebox signaling),
//  * verifies disclosed (n)acks against the A1 commitments (§3.2.2), which
//    lets on-path state machines act on confirmed delivery.
//
// The S2 and A2 checks are S1Commitment and A1Commitment (core/
// commitment.hpp), the code the verifier and signer run too; the relay adds
// only its flood policy (no S2 or A2 without an observed A1).
//
// A duplex association is two simplex flows; packet direction plus type
// selects the flow (S1/S2 travel with the flow, A1/A2 against it).
//
// S2s are the steady-state traffic (one per message, against one S1/A1
// pair per round), so they take an allocation-free path: wire::parse_s2
// borrows the payload and {Bc} bytes from the frame, the round memoizes the
// accepted key and its HMAC key schedule so only the first S2 of a round
// walks the chain, and Merkle branches decode into a recycled scratch path.
// Control frames (handshakes, S1, A1, A2) are a per-round constant and use
// the full wire::decode. The verdicts are pinned by golden transcripts
// (tests/core/relay_golden_test.cpp).
#pragma once

#include <functional>
#include <map>
#include <optional>

#include "core/commitment.hpp"
#include "core/config.hpp"
#include "core/stats.hpp"
#include "hashchain/chain.hpp"
#include "merkle/merkle.hpp"
#include "trace/trace.hpp"
#include "wire/packets.hpp"

namespace alpha::core {

/// Travel direction of a frame through this relay.
enum class Direction : std::uint8_t {
  kForward = 0,  // initiator -> responder
  kReverse = 1,  // responder -> initiator
};

constexpr Direction opposite(Direction d) noexcept {
  return d == Direction::kForward ? Direction::kReverse : Direction::kForward;
}

/// What the relay decided about a frame (also reflected in stats()).
enum class RelayDecision : std::uint8_t {
  kForwarded = 1,
  kDroppedInvalid = 2,      // failed authentication
  kDroppedUnsolicited = 3,  // no S1/A1 context
  kDroppedMalformed = 4,    // undecodable
};

class RelayEngine {
 public:
  struct Options {
    /// Drop protocol packets for associations with no observed handshake.
    /// Off = incremental deployment (forward unverifiable traffic).
    bool require_handshake = true;
    /// Verify public-key signatures on protected handshakes (expensive;
    /// feasible for WMN/WSN, prohibitive for high-churn MANETs, §3.4).
    bool verify_handshake_signatures = false;
  };

  struct Callbacks {
    /// Forwards the (verbatim) frame onward in its travel direction. The
    /// view is only valid for the duration of the call: copy it if the
    /// transport needs ownership. Passing a view instead of a fresh Bytes
    /// keeps the relay data path allocation-free.
    std::function<void(Direction, crypto::ByteView)> forward;
    /// Authenticated payload extracted from a forwarded S2 (§3.5 secure
    /// signaling to middleboxes).
    std::function<void(std::uint32_t assoc_id, std::uint32_t seq,
                       std::uint16_t msg_index, crypto::ByteView payload)>
        on_extracted;
  };

  RelayEngine(Config config, Options options, Callbacks callbacks);

  /// Processes one frame traveling in `dir`; forwards or drops it. Each
  /// call records its wall time in stats().verify_batch_ns (a batch of one).
  RelayDecision on_frame(Direction dir, crypto::ByteView frame);

  const RelayStats& stats() const noexcept { return stats_; }

  /// Buffered bytes across all associations (Table 2 relay column: n*h).
  std::size_t buffered_bytes() const noexcept;
  /// Buffered acknowledgment commitments (Table 3 relay column: 2n*h).
  std::size_t ack_buffered_bytes() const noexcept;

 private:
  struct RelayRound {
    explicit RelayRound(const wire::S1Packet& announced) : s1(announced) {}

    S1Commitment s1;
    A1Commitment a1;
    std::optional<crypto::Digest> ack_disclosed;  // accepted A2 key
    bool a1_seen = false;
  };

  struct FlowState {
    std::optional<hashchain::ChainVerifier> sig;  // signer's chain
    std::optional<hashchain::ChainVerifier> ack;  // verifier's ack chain
    crypto::Digest sig_anchor;  // detects duplicate handshakes (replay)
    std::map<std::uint32_t, RelayRound> rounds;   // by seq
  };

  struct AssocState {
    crypto::HashAlgo algo = crypto::HashAlgo::kSha1;
    bool handshake_seen = false;
    FlowState flows[2];  // indexed by Direction
  };

  RelayDecision decide(Direction dir, crypto::ByteView frame);
  RelayDecision handle_handshake(Direction dir,
                                 const wire::HandshakePacket& hs,
                                 crypto::ByteView frame);
  RelayDecision handle_s1(Direction dir, const wire::S1Packet& s1,
                          crypto::ByteView frame);
  RelayDecision handle_a1(Direction dir, const wire::A1Packet& a1,
                          crypto::ByteView frame);
  RelayDecision handle_s2(Direction dir, const wire::S2View& s2,
                          crypto::ByteView frame);
  RelayDecision handle_a2(Direction dir, const wire::A2Packet& a2,
                          crypto::ByteView frame);

  RelayDecision forward(Direction dir, crypto::ByteView frame);
  /// No handshake observed on the frame's flow: drop it as unsolicited, or
  /// forward it unverified (incremental deployment).
  RelayDecision no_handshake(Direction dir, crypto::ByteView frame);
  RelayDecision drop(RelayDecision decision, crypto::ByteView frame,
                     trace::DropReason reason);

  Config config_;
  Options options_;
  Callbacks callbacks_;
  std::map<std::uint32_t, AssocState> assocs_;
  merkle::AuthPath path_scratch_;  // recycled {Bc} decode target
  RelayStats stats_;
};

}  // namespace alpha::core
