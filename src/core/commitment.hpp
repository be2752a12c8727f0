// Round commitments: the one S1 -> S2 and A1 -> A2 check of every engine.
//
// ALPHA's hop-by-hop property (paper §3.1.1, §3.5) rests on relays running
// the same S2 check as the verifier, so a forgery dies one hop from where it
// enters. Relays and verifiers buffer one S1Commitment per round and check
// each S2 through it; relays and signers check each disclosed (n)ack through
// the round's A1Commitment. Engine policy (the relay's unsolicited gate, the
// verifier's duplicate re-ack, the signer's settle and selective repeat)
// stays in the engines, which call the check steps in their own order.
#pragma once

#include <optional>
#include <vector>

#include "core/config.hpp"
#include "core/stats.hpp"
#include "crypto/mac.hpp"
#include "hashchain/chain.hpp"
#include "merkle/merkle.hpp"
#include "trace/trace.hpp"
#include "wire/packets.hpp"

namespace alpha::core {

/// Authenticates the fresh element that announces a round (S1: the
/// signer's h_i; A1: the verifier's h^Va_i): an odd index strictly below
/// the chain's last accepted one, counted as chain_verify work.
bool authenticate_announcement(hashchain::ChainVerifier& chain,
                               const crypto::Digest& element,
                               std::size_t index, HashWork& hashes);

/// Authenticates a disclosed (S2/A2) key, memoized per round: the first one
/// pays the chain walk, later ones a constant-time compare. kBadMac if it
/// differs from the memo, kStaleChainIndex if `chain` rejects it. Derivable
/// keys pass: the next round's S1/A1 may overtake this round's disclosures.
trace::DropReason authenticate_disclosure(std::optional<crypto::Digest>& memo,
                                          const crypto::Digest& element,
                                          std::size_t index,
                                          hashchain::ChainVerifier& chain,
                                          HashWork& hashes);

/// The pre-signatures an accepted S1 announced (§3.1, §3.3) and the round's
/// memo of the disclosed MAC key and its key schedule.
struct S1Commitment {
  /// Flood bound (§3.5): an S1 announcing no message, or more than
  /// wire::kMaxBatch, must not make anyone buffer pre-signatures.
  static bool within_bound(const wire::S1Packet& s1) noexcept;

  explicit S1Commitment(const wire::S1Packet& s1);

  Mode mode = Mode::kBase;
  std::uint16_t leaf_count = 0;  // ALPHA-M / C+M: messages in the round
  std::uint16_t group_size = 0;  // ALPHA-C+M: messages per root
  std::size_t s1_index = 0;      // odd element index from the S1
  std::vector<crypto::Digest> macs;          // base / ALPHA-C
  crypto::Digest merkle_root;                // ALPHA-M
  std::vector<crypto::Digest> merkle_roots;  // ALPHA-C+M
  std::optional<crypto::Digest> disclosed;   // accepted MAC key
  std::optional<crypto::MacContext> mac_ctx; // its schedule (non-tree modes)

  std::size_t message_count() const noexcept;
  /// Table 2: n*h for base/ALPHA-C, h for ALPHA-M, h per group for C+M.
  std::size_t buffered_bytes(std::size_t h) const noexcept;

  /// S2 step 1: the S2 fits this round's mode, batch and key index.
  bool matches(const wire::S2View& s2) const noexcept;
  /// S2 step 2: the disclosed key is the signer's h_{i-1}.
  trace::DropReason authenticate_key(const wire::S2View& s2,
                                     hashchain::ChainVerifier& chain,
                                     HashWork& hashes) {
    return authenticate_disclosure(disclosed, s2.disclosed_element,
                                   s2.chain_index, chain, hashes);
  }
  /// S2 step 3: the payload against its MAC or keyed Merkle root; branch
  /// sets decode into `scratch`, whose storage is reused.
  bool verify_payload(const wire::S2View& s2, crypto::MacKind mac_kind,
                      crypto::HashAlgo algo, merkle::AuthPath& scratch,
                      HashWork& hashes);
};

/// The (n)ack commitments an accepted A1 carried (§3.2.2, §3.3.3).
struct A1Commitment {
  A1Commitment() = default;
  explicit A1Commitment(const wire::A1Packet& a1);

  wire::AckScheme scheme = wire::AckScheme::kNone;
  std::uint16_t amt_count = 0;
  std::size_t a1_ack_index = 0;  // odd ack element index from the A1
  std::vector<crypto::Digest> pre_acks;
  std::vector<crypto::Digest> pre_nacks;
  crypto::Digest amt_root;

  /// Table 3 relay column: 2n*h for pre-(n)acks, h for an AMT root.
  std::size_t buffered_bytes(std::size_t h) const noexcept;

  /// True when `a1` repeats the A1 this commitment was taken from: the same
  /// index and commitments, and an element that is `chain`'s h_index. The
  /// element is derived from the chain's state, which it leaves unchanged.
  bool repeated_by(const wire::A1Packet& a1, hashchain::ChainVerifier& chain,
                   HashWork& hashes) const;

  /// The disclosed (n)ack against the commitment; the caller has matched
  /// the A2's scheme and index and authenticated its key.
  bool verify_proof(const wire::A2Packet& a2, crypto::HashAlgo algo,
                    HashWork& hashes) const;
};

}  // namespace alpha::core
