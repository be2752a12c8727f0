#include "core/commitment.hpp"

#include "core/preack.hpp"
#include "crypto/counter.hpp"
#include "merkle/amt.hpp"

namespace alpha::core {

namespace {
bool tree_mode(Mode mode) noexcept {
  return mode == Mode::kMerkle || mode == Mode::kCumulativeMerkle;
}
}  // namespace

bool authenticate_announcement(hashchain::ChainVerifier& chain,
                               const crypto::Digest& element,
                               std::size_t index, HashWork& hashes) {
  if (!hashchain::is_s1_index(index)) return false;
  const crypto::ScopedHashOps ops;
  const bool ok = chain.accept(element, index);
  hashes.chain_verify += ops.delta().hash_finalizations;
  return ok;
}

trace::DropReason authenticate_disclosure(std::optional<crypto::Digest>& memo,
                                          const crypto::Digest& element,
                                          std::size_t index,
                                          hashchain::ChainVerifier& chain,
                                          HashWork& hashes) {
  if (memo.has_value()) {
    return memo->ct_equals(element) ? trace::DropReason::kNone
                                    : trace::DropReason::kBadMac;
  }
  const crypto::ScopedHashOps ops;
  const bool ok = chain.accept_or_derive(element, index);
  hashes.chain_verify += ops.delta().hash_finalizations;
  if (!ok) return trace::DropReason::kStaleChainIndex;
  memo = element;
  return trace::DropReason::kNone;
}

bool S1Commitment::within_bound(const wire::S1Packet& s1) noexcept {
  const std::size_t count = tree_mode(s1.mode) ? s1.leaf_count : s1.macs.size();
  return count != 0 && count <= wire::kMaxBatch;
}

S1Commitment::S1Commitment(const wire::S1Packet& s1)
    : mode(s1.mode), s1_index(s1.chain_index) {
  if (s1.mode == Mode::kMerkle) {
    merkle_root = s1.merkle_root;
    leaf_count = s1.leaf_count;
  } else if (s1.mode == Mode::kCumulativeMerkle) {
    merkle_roots = s1.merkle_roots;
    group_size = s1.group_size;
    leaf_count = s1.leaf_count;
  } else {
    macs = s1.macs;
  }
}

std::size_t S1Commitment::message_count() const noexcept {
  return tree_mode(mode) ? leaf_count : macs.size();
}

std::size_t S1Commitment::buffered_bytes(std::size_t h) const noexcept {
  if (mode == Mode::kMerkle) return h;
  return (mode == Mode::kCumulativeMerkle ? merkle_roots.size() : macs.size()) *
         h;
}

bool S1Commitment::matches(const wire::S2View& s2) const noexcept {
  return s2.mode == mode && s2.msg_index < message_count() &&
         s2.chain_index + 1 == s1_index;
}

bool S1Commitment::verify_payload(const wire::S2View& s2,
                                  crypto::MacKind mac_kind,
                                  crypto::HashAlgo algo,
                                  merkle::AuthPath& scratch,
                                  HashWork& hashes) {
  const crypto::ScopedHashOps ops;
  bool valid = false;
  if (tree_mode(mode)) {
    // ALPHA-M proves against its one root, ALPHA-C+M against its group's.
    const bool single = mode == Mode::kMerkle;
    const std::size_t group = single ? 0 : s2.msg_index / group_size;
    const std::size_t leaf = single ? s2.msg_index : s2.msg_index % group_size;
    if (s2.has_path && s2.leaf_index == leaf &&
        (single || group < merkle_roots.size())) {
      s2.path_into(scratch);
      valid = merkle::MerkleTree::verify_keyed(
          algo, s2.disclosed_element.view(), crypto::hash(algo, s2.payload),
          scratch, single ? merkle_root : merkle_roots[group]);
    }
  } else {
    if (!mac_ctx.has_value()) {
      mac_ctx.emplace(mac_kind, algo, s2.disclosed_element.view());
    }
    valid = mac_ctx->verify(s2.payload, macs[s2.msg_index]);
  }
  hashes.signature += ops.delta().hash_finalizations;
  return valid;
}

A1Commitment::A1Commitment(const wire::A1Packet& a1)
    : scheme(a1.scheme),
      amt_count(a1.amt_msg_count),
      a1_ack_index(a1.ack_chain_index),
      pre_acks(a1.pre_acks),
      pre_nacks(a1.pre_nacks),
      amt_root(a1.amt_root) {}

std::size_t A1Commitment::buffered_bytes(std::size_t h) const noexcept {
  if (scheme == wire::AckScheme::kPreAck) {
    return (pre_acks.size() + pre_nacks.size()) * h;
  }
  return scheme == wire::AckScheme::kAmt ? h : 0;  // only the AMT root
}

bool A1Commitment::repeated_by(const wire::A1Packet& a1,
                               hashchain::ChainVerifier& chain,
                               HashWork& hashes) const {
  if (a1.ack_chain_index != a1_ack_index || a1.scheme != scheme ||
      a1.amt_msg_count != amt_count || a1.amt_root != amt_root ||
      a1.pre_acks != pre_acks || a1.pre_nacks != pre_nacks) {
    return false;
  }
  // An accepted index is at or above the chain's last one: accept_or_derive
  // compares or derives there, never advances.
  const crypto::ScopedHashOps ops;
  const bool ok = chain.accept_or_derive(a1.ack_element, a1.ack_chain_index);
  hashes.chain_verify += ops.delta().hash_finalizations;
  return ok;
}

bool A1Commitment::verify_proof(const wire::A2Packet& a2,
                                crypto::HashAlgo algo,
                                HashWork& hashes) const {
  const crypto::ScopedHashOps ops;
  bool valid = false;
  const bool is_ack = a2.kind == wire::AckKind::kAck;
  if (scheme == wire::AckScheme::kPreAck) {
    if (a2.msg_index < pre_acks.size()) {
      const crypto::Digest& committed =
          is_ack ? pre_acks[a2.msg_index] : pre_nacks[a2.msg_index];
      valid = verify_pre_ack(algo, a2.disclosed_ack_element, is_ack,
                             a2.secret, committed);
    }
  } else if (scheme == wire::AckScheme::kAmt && a2.path.has_value()) {
    merkle::AckMerkleTree::Proof proof;
    proof.is_ack = is_ack;
    proof.msg_index = a2.msg_index;
    proof.secret = a2.secret;
    proof.path = a2.path->to_auth_path();
    valid = merkle::AckMerkleTree::verify(
        algo, a2.disclosed_ack_element.view(), proof, amt_root, amt_count);
  }
  hashes.ack += ops.delta().hash_finalizations;
  return valid;
}

}  // namespace alpha::core
