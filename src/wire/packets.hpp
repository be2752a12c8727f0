// ALPHA packet formats.
//
// Byte-exact encodings of the protocol messages from paper §3: the three-way
// signature exchange S1 / A1 / S2, the acknowledgment packet A2 (§3.2.2 and
// §3.3.3), and the bootstrap handshake HS1 / HS2 (§3.4). Every packet starts
// with a common header; bodies carry length-prefixed digests so all three
// hash profiles (16/20/32-byte digests) share one format.
//
// Decoding is total: decode() returns std::nullopt for any malformed input.
// The S2 grammar is written once, in the zero-copy parse_s2(); decode()'s
// S2Packet is a copy of its view.
#pragma once

#include <cstdint>
#include <optional>
#include <variant>
#include <vector>

#include "crypto/bytes.hpp"
#include "crypto/digest.hpp"
#include "crypto/hash.hpp"
#include "merkle/merkle.hpp"

namespace alpha::wire {

using crypto::Bytes;
using crypto::ByteView;
using crypto::Digest;

enum class PacketType : std::uint8_t {
  kS1 = 1,   // pre-signature announcement
  kA1 = 2,   // willingness to receive + pre-(n)acks
  kS2 = 3,   // payload + key disclosure
  kA2 = 4,   // (n)ack disclosure
  kHs1 = 5,  // handshake: initiator anchors
  kHs2 = 6,  // handshake: responder anchors
};

/// Transmission mode of a signature round (paper §3.1, §3.3).
enum class Mode : std::uint8_t {
  kBase = 1,        // one message per round
  kCumulative = 2,  // ALPHA-C: n MACs per S1
  kMerkle = 3,      // ALPHA-M: one MT root per S1
  // ALPHA-C+M (§3.3.2): multiple MT roots per S1 -- shallower trees (fewer
  // hashes per {Bc} verification) at the cost of buffering one root per
  // group on relays and the verifier.
  kCumulativeMerkle = 4,
};

constexpr std::uint8_t kWireVersion = 1;

/// Most messages one round may pre-sign: the flood bound (§3.5) relays and
/// verifiers apply to every S1 before buffering its pre-signatures, and the
/// largest batch a reconfiguration may announce.
constexpr std::size_t kMaxBatch = 4096;

/// Every encoded frame ends in a CRC-32 trailer over the preceding bytes.
/// ALPHA assumes the link layer detects bit errors; on links that corrupt
/// frames in flight the codec has to provide that guarantee itself, because
/// some fields are deliberately unauthenticated when they arrive (the A1's
/// pre-ack commitments are only checkable once the A2 discloses the key --
/// a flipped commitment bit would otherwise poison the round until its
/// retry budget dies). Corrupted frames must fail decode() instead.
constexpr std::size_t kFrameChecksumSize = 4;

/// CRC-32 (IEEE 802.3) over `data`; appended big-endian to every frame.
std::uint32_t frame_checksum(ByteView data) noexcept;

/// Common packet header.
struct Header {
  std::uint32_t assoc_id = 0;  // security association (per-path, §3.1)
  std::uint32_t seq = 0;       // signature round number
};

/// Merkle authentication path as carried in S2/A2 packets.
struct WirePath {
  std::uint16_t leaf_index = 0;
  std::vector<Digest> siblings;

  merkle::AuthPath to_auth_path() const;
  static WirePath from_auth_path(const merkle::AuthPath& path);
};

/// S1 -- announces pre-signatures for a round (Fig. 2 / §3.3).
/// Carries the signer's fresh (odd-index) chain element h_i and either
/// per-message MACs (base / ALPHA-C) or one keyed MT root (ALPHA-M).
struct S1Packet {
  Header hdr;
  Mode mode = Mode::kBase;
  std::uint32_t chain_index = 0;  // index of `chain_element`
  Digest chain_element;           // h^Ss_i, identifies the signer
  // base / cumulative: one MAC per pre-signed message
  std::vector<Digest> macs;
  // merkle: keyed root over the batch + its leaf count
  Digest merkle_root;
  std::uint16_t leaf_count = 0;
  // cumulative-merkle: one keyed root per group of `group_size` messages;
  // the last group covers leaf_count - (roots-1)*group_size messages.
  // leaf_count then holds the total message count of the round.
  std::vector<Digest> merkle_roots;
  std::uint16_t group_size = 0;

  Bytes encode() const;
};

/// A1 -- acknowledges the S1 and signals willingness to receive (Fig. 2).
/// Reliable rounds add either the basic pre-ack/pre-nack pair (Fig. 3) or an
/// AMT root (Fig. 7).
enum class AckScheme : std::uint8_t {
  kNone = 0,    // unreliable transmission
  kPreAck = 1,  // basic pre-ack / pre-nack hashes
  kAmt = 2,     // acknowledgment Merkle tree root
};

struct A1Packet {
  Header hdr;
  std::uint32_t ack_chain_index = 0;  // index of `ack_element`
  Digest ack_element;                 // h^Va_i
  AckScheme scheme = AckScheme::kNone;
  // kPreAck: one pair per pre-signed message (Table 3: 2n*h):
  // pre_acks[j] = H(h^Va_{i-1} | "1" | s_ack_j),
  // pre_nacks[j] = H(h^Va_{i-1} | "0" | s_nack_j)
  std::vector<Digest> pre_acks;
  std::vector<Digest> pre_nacks;
  // kAmt: keyed AMT root + number of messages it acknowledges
  Digest amt_root;
  std::uint16_t amt_msg_count = 0;

  Bytes encode() const;
};

/// S2 -- discloses the MAC key h_{i-1} and carries one payload message
/// (Fig. 2); in ALPHA-M additionally the complementary branch set {Bc}.
struct S2Packet {
  Header hdr;
  Mode mode = Mode::kBase;
  std::uint32_t chain_index = 0;  // index of the disclosed element (i-1)
  Digest disclosed_element;       // h^Ss_{i-1}, the MAC key
  std::uint16_t msg_index = 0;    // position within the round's batch
  std::optional<WirePath> path;   // ALPHA-M {Bc}
  Bytes payload;                  // the message m

  Bytes encode() const;
};

/// A2 -- discloses an acknowledgment (Fig. 3 / Fig. 7).
enum class AckKind : std::uint8_t {
  kAck = 1,
  kNack = 2,
};

struct A2Packet {
  Header hdr;
  std::uint32_t ack_chain_index = 0;  // index of the disclosed element (i-1)
  Digest disclosed_ack_element;       // h^Va_{i-1}
  AckScheme scheme = AckScheme::kPreAck;
  AckKind kind = AckKind::kAck;
  std::uint16_t msg_index = 0;     // AMT only: which message
  Bytes secret;                    // s_ack / s_nack / AMT leaf secret
  std::optional<WirePath> path;    // AMT {Bc}

  Bytes encode() const;
};

/// Handshake packets (§3.4): announce the sender's signature- and
/// acknowledgment-chain anchors for this association. When `signature` is
/// non-empty the anchors are bound to a public key (protected bootstrap).
enum class SigAlg : std::uint8_t {
  kNone = 0,
  kRsa = 1,
  kDsa = 2,
  kEcdsaP160 = 3,  // secp160r1, the paper's WSN-class curve (§4.1.3)
  kEcdsaP256 = 4,
};

/// Parameter reconfiguration rider on a (rekey) handshake: announces the
/// transmission profile both ends run once the fresh chains are active.
/// The adaptive controller stages one of these; the initiator's rekey HS1
/// carries it and the responder echoes it back in the HS2, so the switch
/// lands exactly at the chain-rotation boundary on both ends. The fields
/// are covered by signed_payload(), so a protected bootstrap authenticates
/// the announcement with the same identity signature that binds the
/// anchors; unprotected associations inherit the handshake's existing
/// trust model (monotonic counter + CRC) -- see DESIGN.md §10.
struct ReconfigAnnounce {
  Mode mode = Mode::kBase;
  std::uint16_t batch_size = 1;       // messages pre-signed per S1
  std::uint16_t merkle_group = 8;     // ALPHA-C+M messages per root
  std::uint8_t max_retries = 5;       // retransmit budget per round/handshake
  std::uint32_t rekey_threshold = 0;  // chain headroom that triggers rekey

  friend bool operator==(const ReconfigAnnounce&,
                         const ReconfigAnnounce&) = default;
};

struct HandshakePacket {
  Header hdr;
  bool is_response = false;  // HS1 vs HS2
  crypto::HashAlgo algo = crypto::HashAlgo::kSha1;
  std::uint32_t chain_length = 0;
  std::uint32_t sig_anchor_index = 0;
  std::uint32_t ack_anchor_index = 0;
  Digest sig_anchor;  // anchor of the signature chain
  Digest ack_anchor;  // anchor of the acknowledgment chain
  SigAlg sig_alg = SigAlg::kNone;
  Bytes public_key;  // encoded verification key (opaque to the wire layer)
  Bytes signature;   // over signed_payload()
  // Profile announcement (rekey HS1) or its echo (HS2). Absent on
  // handshakes that keep the current profile.
  std::optional<ReconfigAnnounce> reconfig;

  Bytes encode() const;

  /// The byte string a protected handshake signs: every field above except
  /// the signature itself (the reconfig announcement included).
  Bytes signed_payload() const;
};

using Packet = std::variant<S1Packet, A1Packet, S2Packet, A2Packet,
                            HandshakePacket>;

/// Decodes any ALPHA packet; nullopt on malformed input.
std::optional<Packet> decode(ByteView data);

/// Zero-copy view of an encoded S2 frame -- the data hot path of relays and
/// hosts. Every S2 of every flow passes through it, so parsing one must not
/// hit the heap: parse_s2 verifies the CRC trailer and every bound, but
/// borrows the payload and {Bc} bytes from the frame instead of copying
/// them out. The views stay valid only as long as the frame bytes do.
struct S2View {
  Header hdr;
  Mode mode = Mode::kBase;
  std::uint32_t chain_index = 0;  // index of the disclosed element (i-1)
  Digest disclosed_element;       // inline copy; Digest never heap-allocates
  std::uint16_t msg_index = 0;
  bool has_path = false;          // ALPHA-M {Bc} present
  std::uint16_t leaf_index = 0;   // valid when has_path
  std::uint8_t depth = 0;         // sibling count
  ByteView siblings;              // raw length-prefixed digest run
  ByteView payload;               // the message m

  /// Decodes the {Bc} branch set into `out`, reusing its storage: the
  /// sibling vector is cleared but keeps its capacity, so a recycled
  /// AuthPath makes steady-state calls allocation-free.
  void path_into(merkle::AuthPath& out) const;
};

/// Parses an encoded S2 without allocating; nullopt exactly when decode()
/// would refuse the frame.
std::optional<S2View> parse_s2(ByteView data) noexcept;

/// Type of an encoded packet without full decoding; nullopt if truncated.
std::optional<PacketType> peek_type(ByteView data) noexcept;

/// Header of an encoded packet without full decoding.
std::optional<Header> peek_header(ByteView data) noexcept;

/// Association id of an encoded packet without full decoding -- the demux
/// hot path of the node runtime. Total: bounds-checked, nullopt for any
/// truncated or garbage prefix. Needs only the first 6 bytes, so it also
/// succeeds on frames too short for peek_header.
std::optional<std::uint32_t> peek_assoc_id(ByteView data) noexcept;

}  // namespace alpha::wire
