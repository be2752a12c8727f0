// Per-role accounting.
//
// Table 1 of the paper splits hash work per processed message into four
// categories (signature/MAC, chain creation, chain verification, (n)ack
// handling); Tables 2 and 3 account buffered bytes per role. The engines
// update these structs as they work, using ScopedHashOps around each crypto
// section so the counts reflect hashes actually executed, not a model.
#pragma once

#include <cstdint>

#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace alpha::core {

/// Hash operations split into the paper's Table 1 categories.
struct HashWork {
  std::uint64_t signature = 0;     // MAC / MT build / MT path verification
  std::uint64_t chain_create = 0;  // hash-chain construction
  std::uint64_t chain_verify = 0;  // hash-chain element verification
  std::uint64_t ack = 0;           // pre-(n)ack generation / verification

  std::uint64_t total() const noexcept {
    return signature + chain_create + chain_verify + ack;
  }
};

struct SignerStats {
  HashWork hashes;
  std::uint64_t messages_submitted = 0;
  std::uint64_t rounds_started = 0;
  std::uint64_t rounds_completed = 0;
  std::uint64_t rounds_failed = 0;
  std::uint64_t s1_sent = 0;
  std::uint64_t s2_sent = 0;
  std::uint64_t s1_retransmits = 0;
  std::uint64_t s2_retransmits = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t nacks_received = 0;
  std::uint64_t invalid_packets = 0;
};

struct VerifierStats {
  HashWork hashes;
  std::uint64_t s1_accepted = 0;
  std::uint64_t s2_accepted = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t a1_sent = 0;
  std::uint64_t a2_sent = 0;
  std::uint64_t invalid_packets = 0;   // failed chain/MAC checks
  std::uint64_t duplicate_packets = 0; // retransmissions answered from cache
};

struct RelayStats {
  HashWork hashes;
  std::uint64_t forwarded = 0;
  std::uint64_t dropped_invalid = 0;      // failed authentication
  std::uint64_t dropped_unsolicited = 0;  // no S1/A1 context (flood filter)
  std::uint64_t messages_extracted = 0;   // §3.5 secure data extraction
  std::uint64_t acks_verified = 0;
  // Every drop above is also attributed to its trace::DropReason, so the
  // coarse counters stay scrape-compatible while the taxonomy explains each
  // one (exported as alpha_relay_dropped_total{reason=...}).
  std::uint64_t dropped_by_reason[trace::kDropReasonCount] = {};
  // Verify-and-forward wall time, recorded by RelayEngine::on_frame once
  // per frame (a batch of one), forward callback included.
  metrics::Histogram verify_batch_ns;     // ns per on_frame call
  std::uint64_t verify_batch_frames = 0;  // frames covered by those samples
};

// Accumulation: a rekey retires the engines, but their counters must keep
// contributing to association-lifetime totals (Host folds retired stats in,
// snapshots read the sums).
inline HashWork& operator+=(HashWork& a, const HashWork& b) noexcept {
  a.signature += b.signature;
  a.chain_create += b.chain_create;
  a.chain_verify += b.chain_verify;
  a.ack += b.ack;
  return a;
}

inline RelayStats& operator+=(RelayStats& a, const RelayStats& b) noexcept {
  a.hashes += b.hashes;
  a.forwarded += b.forwarded;
  a.dropped_invalid += b.dropped_invalid;
  a.dropped_unsolicited += b.dropped_unsolicited;
  a.messages_extracted += b.messages_extracted;
  a.acks_verified += b.acks_verified;
  for (std::size_t i = 0; i < trace::kDropReasonCount; ++i) {
    a.dropped_by_reason[i] += b.dropped_by_reason[i];
  }
  a.verify_batch_ns.merge(b.verify_batch_ns);
  a.verify_batch_frames += b.verify_batch_frames;
  return a;
}

inline SignerStats& operator+=(SignerStats& a, const SignerStats& b) noexcept {
  a.hashes += b.hashes;
  a.messages_submitted += b.messages_submitted;
  a.rounds_started += b.rounds_started;
  a.rounds_completed += b.rounds_completed;
  a.rounds_failed += b.rounds_failed;
  a.s1_sent += b.s1_sent;
  a.s2_sent += b.s2_sent;
  a.s1_retransmits += b.s1_retransmits;
  a.s2_retransmits += b.s2_retransmits;
  a.acks_received += b.acks_received;
  a.nacks_received += b.nacks_received;
  a.invalid_packets += b.invalid_packets;
  return a;
}

inline VerifierStats& operator+=(VerifierStats& a,
                                 const VerifierStats& b) noexcept {
  a.hashes += b.hashes;
  a.s1_accepted += b.s1_accepted;
  a.s2_accepted += b.s2_accepted;
  a.messages_delivered += b.messages_delivered;
  a.a1_sent += b.a1_sent;
  a.a2_sent += b.a2_sent;
  a.invalid_packets += b.invalid_packets;
  a.duplicate_packets += b.duplicate_packets;
  return a;
}

}  // namespace alpha::core
