// Cross-hop span reconstruction over the PR-4 event ring.
//
// The ring records point events (S1 emit, per-relay forward, net fates,
// deliveries, retransmit attempts). SpanBuilder stitches them into causal
// per-round spans keyed by (assoc, round seq), decomposing end-to-end
// delivery latency into the components the paper's §3.2.2 timing argument
// predicts: queueing (submit -> round open), crypto (signature block wall
// time), retransmit-wait (time bought back by the retry budget), and
// propagation (everything the network charged, including the A1 turnaround
// that makes minimum delivery 1.5 RTT).
//
// Consumption is incremental: ingest_new() keeps a cursor on Ring::total()
// so a live tool can stitch while the protocol runs, surviving ring wrap
// (overwritten events are counted, not mis-read). The same builder ingests
// a flight recording's events for offline reconstruction
// (alpha_inspect --spans).
//
// When a metrics::Registry is attached, completed spans export per-hop and
// per-component log2 histograms plus a minimum-delivery-latency gauge --
// the live form of the 1.5 RTT claim.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace alpha::trace {

/// One (re)transmission attempt inside a round (attempt 0 = initial send
/// is represented by the packet-sent fields on the span itself).
struct AttemptSpan {
  std::uint64_t time_us = 0;
  std::uint32_t attempt = 0;    // kRetransmit detail (1-based attempt count)
  std::uint8_t packet_type = 0; // which leg was retried (S1 or S2)
};

/// Per-message sub-span of a round (one S2 each).
struct MessageSpan {
  static constexpr std::uint64_t kUnset = ~0ull;
  std::uint64_t s2_sent_us = kUnset;     // first S2 release
  std::uint64_t delivered_us = kUnset;   // verifier accepted + delivered
};

/// One reconstructed signature round.
struct RoundSpan {
  static constexpr std::uint64_t kUnset = ~0ull;

  std::uint32_t assoc_id = 0;
  std::uint32_t seq = 0;
  std::uint32_t generation = 0;  // rekeys restart seq numbering

  // Signer-side opening (kRoundStart packs the two measured components).
  std::uint64_t start_us = kUnset;   // round opened (after crypto block)
  std::uint64_t queue_us = 0;        // oldest batched message's queue wait
  std::uint64_t crypto_ns = 0;       // signature block wall time

  // S1 -> A1 -> S2 legs (first occurrence each).
  std::uint64_t s1_sent_us = kUnset;
  std::uint64_t s1_last_send_us = kUnset;  // latest S1 (re)transmission
  std::uint64_t s1_accepted_us = kUnset;   // verifier accepted the S1
  std::uint64_t a1_sent_us = kUnset;
  std::uint64_t a1_accepted_us = kUnset;   // signer accepted the A1
  std::uint64_t s2_first_sent_us = kUnset;
  std::uint64_t s2_last_send_us = kUnset;  // latest S2 (re)transmission
  std::uint64_t last_delivery_us = kUnset;
  std::uint64_t last_a2_us = kUnset;       // latest accepted (n)ack

  std::size_t batch = 0;            // messages announced by the S1
  std::size_t delivered = 0;        // distinct messages delivered
  std::size_t acks = 0;             // accepted A2 acks
  std::size_t nacks = 0;            // accepted A2 nacks
  std::vector<AttemptSpan> attempts;
  std::vector<MessageSpan> messages;

  bool failed = false;
  DropReason fail_reason = DropReason::kNone;

  bool complete() const noexcept { return batch > 0 && delivered == batch; }
  bool terminal() const noexcept { return failed || complete(); }

  /// Span origin: submission of the oldest batched message when the
  /// kRoundStart event was seen, else the first S1 emission.
  std::uint64_t origin_us() const noexcept {
    if (start_us != kUnset) return start_us - queue_us;
    return s1_sent_us;
  }

  /// End-to-end latency components (valid once complete()).
  std::uint64_t e2e_us() const noexcept;
  std::uint64_t retransmit_wait_us() const noexcept;
  std::uint64_t propagation_us() const noexcept;

 private:
  friend class SpanBuilder;
  // Per-packet-type journey scratch for hop attribution: the latest
  // kNetDelivered send of this round's S1/A1/S2/A2 still awaiting its
  // next-hop observation.
  struct NetPoint {
    std::uint32_t from = 0, to = 0;
    std::uint64_t time_us = 0;
    bool valid = false;
  };
  NetPoint last_net_[5];  // indexed by wire packet type 1..4
  bool exported_ = false; // component histograms already recorded
};

/// Stitches ring events into RoundSpans; optionally exports histograms.
class SpanBuilder {
 public:
  /// `registry` may be nullptr (offline reconstruction only). With a
  /// registry attached the builder records, as spans progress:
  ///   alpha_span_delivery_latency_us{assoc="N"}   per message delivery
  ///   alpha_span_ack_latency_us{assoc="N"}        per accepted A2
  ///   alpha_span_hop_us{link="A->B"}              per observed hop
  ///   alpha_span_queue_wait_us / _crypto_ns / _retransmit_wait_us /
  ///   _propagation_us                             per completed round
  ///   alpha_span_rounds_complete / _failed, alpha_span_deliveries
  ///   alpha_span_delivery_latency_min_us          running minimum
  ///   alpha_trace_events_dropped                  ring overflow (ingest_new)
  explicit SpanBuilder(metrics::Registry* registry = nullptr)
      : registry_(registry) {}

  /// Feeds one event (any kind; irrelevant kinds are ignored).
  void ingest(const Event& e);

  /// Feeds every event recorded since the last call (cursor on
  /// Ring::total(), ring-wrap safe). Returns events consumed.
  std::size_t ingest_new(const Ring& ring);

  /// All spans in creation order, completed and in-flight.
  const std::vector<RoundSpan>& spans() const noexcept { return spans_; }

  std::uint64_t deliveries() const noexcept { return deliveries_; }
  std::uint64_t rounds_complete() const noexcept { return rounds_complete_; }
  std::uint64_t rounds_failed() const noexcept { return rounds_failed_; }
  /// Smallest observed submit->delivery latency (kUnset when none yet).
  std::uint64_t min_delivery_latency_us() const noexcept { return min_latency_; }
  /// Events missed because the ring overwrote them before ingest_new().
  std::uint64_t lost_events() const noexcept { return lost_events_; }

  static constexpr std::uint64_t kUnset = ~0ull;

 private:
  RoundSpan& span_for(std::uint32_t assoc_id, std::uint32_t seq, bool fresh);
  void on_net(RoundSpan& span, const Event& e);
  void on_terminal_hop(RoundSpan& span, std::uint8_t type,
                       std::uint64_t time_us);
  void record_delivery(RoundSpan& span, std::uint64_t latency_us);
  void finish(RoundSpan& span);

  std::vector<RoundSpan> spans_;
  std::map<std::uint64_t, std::size_t> open_;  // (assoc<<32|seq) -> index
  // Incremental-ingest source identity: absolute cursors are only valid
  // within one (ring, generation) pair (see ingest_new).
  const Ring* source_ = nullptr;
  std::uint64_t source_generation_ = 0;
  std::uint64_t source_dropped_ = 0;  // wrap count within current generation
  std::uint64_t dropped_banked_ = 0;  // wrap counts from retired generations
  std::uint64_t cursor_ = 0;
  std::uint64_t lost_events_ = 0;
  std::uint64_t deliveries_ = 0;
  std::uint64_t rounds_complete_ = 0;
  std::uint64_t rounds_failed_ = 0;
  std::uint64_t min_latency_ = kUnset;
  metrics::Registry* registry_;
};

}  // namespace alpha::trace
