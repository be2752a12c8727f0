// alpha_inspect -- decode and pretty-print an ALPHA packet from hex, or
// render a flight recording (alpha_sim --flight-dir, the one persisted trace
// format) offline: a per-association timeline plus a drop-reason summary
// table, per-round spans (waterfalls + latency quantiles), the adaptive
// controller's decision log, a postmortem overview, or a clock-corrected
// merge of recordings from several processes.
//
//   $ alpha_inspect --hex 0101000000010000000701...
//   $ some_capture | alpha_inspect --stdin
//   $ alpha_sim --flight-dir run ... && alpha_inspect --trace run
//   $ alpha_inspect --spans run
//   $ alpha_inspect --merge run_a,run_b
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/adapt.hpp"
#include "flags.hpp"
#include "trace/flight.hpp"
#include "trace/health.hpp"
#include "trace/metrics.hpp"
#include "trace/spans.hpp"
#include "trace/trace.hpp"
#include "wire/packets.hpp"

using namespace alpha;

namespace {

const char* type_name(wire::PacketType t) {
  switch (t) {
    case wire::PacketType::kS1: return "S1 (pre-signature announcement)";
    case wire::PacketType::kA1: return "A1 (willingness + pre-(n)acks)";
    case wire::PacketType::kS2: return "S2 (payload + key disclosure)";
    case wire::PacketType::kA2: return "A2 ((n)ack disclosure)";
    case wire::PacketType::kHs1: return "HS1 (handshake request)";
    case wire::PacketType::kHs2: return "HS2 (handshake response)";
  }
  return "?";
}

const char* mode_name(wire::Mode m) {
  switch (m) {
    case wire::Mode::kBase: return "base";
    case wire::Mode::kCumulative: return "ALPHA-C";
    case wire::Mode::kMerkle: return "ALPHA-M";
    case wire::Mode::kCumulativeMerkle: return "ALPHA-C+M";
  }
  return "?";
}

void print_digest(const char* label, const crypto::Digest& d) {
  std::printf("  %-18s %s (%zu B)\n", label, d.hex().c_str(), d.size());
}

struct Printer {
  void operator()(const wire::S1Packet& p) const {
    std::printf("  %-18s %s\n", "mode", mode_name(p.mode));
    std::printf("  %-18s %u\n", "chain index", p.chain_index);
    print_digest("chain element", p.chain_element);
    if (p.mode == wire::Mode::kMerkle) {
      print_digest("merkle root", p.merkle_root);
      std::printf("  %-18s %u\n", "leaf count", p.leaf_count);
    } else if (p.mode == wire::Mode::kCumulativeMerkle) {
      std::printf("  %-18s %zu roots, groups of %u, %u messages\n",
                  "merkle roots", p.merkle_roots.size(), p.group_size,
                  p.leaf_count);
      for (const auto& root : p.merkle_roots) print_digest("  root", root);
    } else {
      std::printf("  %-18s %zu\n", "pre-signatures", p.macs.size());
      for (const auto& m : p.macs) print_digest("  MAC", m);
    }
  }
  void operator()(const wire::A1Packet& p) const {
    std::printf("  %-18s %u\n", "ack chain index", p.ack_chain_index);
    print_digest("ack element", p.ack_element);
    switch (p.scheme) {
      case wire::AckScheme::kNone:
        std::printf("  %-18s unreliable (no pre-acks)\n", "scheme");
        break;
      case wire::AckScheme::kPreAck:
        std::printf("  %-18s pre-ack pairs: %zu\n", "scheme", p.pre_acks.size());
        break;
      case wire::AckScheme::kAmt:
        std::printf("  %-18s AMT over %u messages\n", "scheme",
                    p.amt_msg_count);
        print_digest("amt root", p.amt_root);
        break;
    }
  }
  void operator()(const wire::S2Packet& p) const {
    std::printf("  %-18s %s\n", "mode", mode_name(p.mode));
    std::printf("  %-18s %u\n", "chain index", p.chain_index);
    print_digest("disclosed key", p.disclosed_element);
    std::printf("  %-18s %u\n", "msg index", p.msg_index);
    if (p.path.has_value()) {
      std::printf("  %-18s leaf %u, %zu siblings ({Bc})\n", "merkle path",
                  p.path->leaf_index, p.path->siblings.size());
    }
    std::printf("  %-18s %zu B\n", "payload", p.payload.size());
  }
  void operator()(const wire::A2Packet& p) const {
    std::printf("  %-18s %s\n", "kind",
                p.kind == wire::AckKind::kAck ? "ACK" : "NACK");
    std::printf("  %-18s %u\n", "ack chain index", p.ack_chain_index);
    print_digest("disclosed key", p.disclosed_ack_element);
    std::printf("  %-18s %u\n", "msg index", p.msg_index);
    std::printf("  %-18s %zu B\n", "secret", p.secret.size());
    if (p.path.has_value()) {
      std::printf("  %-18s leaf %u, %zu siblings (AMT)\n", "merkle path",
                  p.path->leaf_index, p.path->siblings.size());
    }
  }
  void operator()(const wire::HandshakePacket& p) const {
    std::printf("  %-18s %s\n", "role",
                p.is_response ? "response (HS2)" : "request (HS1)");
    std::printf("  %-18s %s\n", "hash algo",
                std::string(crypto::to_string(p.algo)).c_str());
    std::printf("  %-18s %u\n", "chain length", p.chain_length);
    print_digest("sig anchor", p.sig_anchor);
    print_digest("ack anchor", p.ack_anchor);
    if (p.sig_alg != wire::SigAlg::kNone) {
      const char* alg = p.sig_alg == wire::SigAlg::kRsa         ? "RSA"
                        : p.sig_alg == wire::SigAlg::kDsa       ? "DSA"
                        : p.sig_alg == wire::SigAlg::kEcdsaP160 ? "ECDSA/secp160r1"
                                                                : "ECDSA/P-256";
      std::printf("  %-18s %s, key %zu B, signature %zu B\n", "protected",
                  alg, p.public_key.size(), p.signature.size());
    } else {
      std::printf("  %-18s unprotected (ephemeral anonymous identity)\n",
                  "bootstrap");
    }
  }
};

int inspect(const std::string& hex) {
  crypto::Bytes frame;
  try {
    frame = crypto::from_hex(hex);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "bad hex input: %s\n", e.what());
    return 2;
  }
  const auto type = wire::peek_type(frame);
  const auto hdr = wire::peek_header(frame);
  if (!type.has_value() || !hdr.has_value()) {
    std::fprintf(stderr, "not an ALPHA packet (bad version/type)\n");
    return 1;
  }
  std::printf("%s, %zu bytes\n", type_name(*type), frame.size());
  std::printf("  %-18s %u\n", "association", hdr->assoc_id);
  std::printf("  %-18s %u\n", "round seq", hdr->seq);
  const auto packet = wire::decode(frame);
  if (!packet.has_value()) {
    std::fprintf(stderr, "  body MALFORMED (would be dropped)\n");
    return 1;
  }
  std::visit(Printer{}, *packet);
  return 0;
}

// ---------------------------------------------------------- event loading

/// The one loader behind every trace view: all events of a flight directory
/// (alpha_sim --flight-dir), segments in (shard, segment) order and each in
/// ring order. False, with the reason on stderr, when nothing readable is
/// there; an empty recording loads but leaves `events` empty.
bool read_events(const std::string& dir, trace::FlightRecording& rec,
                 std::vector<trace::Event>& events) {
  std::string err;
  if (!read_flight_dir(dir, rec, &err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return false;
  }
  events.reserve(rec.total_events());
  for (const trace::FlightSegment& seg : rec.segments) {
    events.insert(events.end(), seg.events.begin(), seg.events.end());
  }
  if (events.empty()) {
    std::fprintf(stderr, "%s: recording holds no events\n", dir.c_str());
  }
  return true;
}

// ------------------------------------------------------ timeline and drops

/// One event on one line. --trace groups lines by association, so only the
/// cross-node --merge timeline asks for the association column.
void print_event(double t_ms, unsigned node, const trace::Event& e,
                 bool show_assoc) {
  std::printf("%12.3f ms  node %-3u %-18s", t_ms, node,
              trace::to_string(e.kind));
  const char* type = trace::packet_type_name(e.packet_type);
  if (std::strcmp(type, "-") != 0) {
    std::printf(" %-3s", type);
  } else {
    std::printf("    ");
  }
  if (show_assoc) std::printf(" assoc=%u", e.assoc_id);
  std::printf(" seq=%u", e.seq);
  if (e.reason != trace::DropReason::kNone) {
    std::printf(" reason=%s", trace::to_string(e.reason));
  }
  if (trace::is_net_kind(e.kind)) {
    std::printf(" %u->%u %zuB", trace::net_detail_from(e.detail),
                trace::net_detail_to(e.detail),
                trace::net_detail_size(e.detail));
  } else if (e.detail != 0) {
    std::printf(" detail=%llu", static_cast<unsigned long long>(e.detail));
  }
  std::printf("\n");
}

// Per-association timeline (assoc 0 collects events with no association
// context, e.g. malformed-header drops).
void render_timeline(const std::vector<trace::Event>& events) {
  std::map<std::uint32_t, std::vector<const trace::Event*>> by_assoc;
  for (const trace::Event& e : events) by_assoc[e.assoc_id].push_back(&e);
  for (const auto& [assoc, evs] : by_assoc) {
    if (assoc == 0) {
      std::printf("== no association context (%zu events) ==\n", evs.size());
    } else {
      std::printf("== association %u (%zu events) ==\n", assoc, evs.size());
    }
    for (const trace::Event* e : evs) {
      print_event(e->time_us / 1000.0, e->origin, *e, /*show_assoc=*/false);
    }
    std::printf("\n");
  }
}

// Drop-reason summary: every non-delivered packet attributed to a reason,
// rows in alphabetical order of the reason name.
void render_drops(const std::vector<trace::Event>& events) {
  // reason name -> (network drops, engine drops)
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> drops;
  std::uint64_t net_delivered = 0, net_duplicated = 0;
  for (const trace::Event& e : events) {
    switch (e.kind) {
      case trace::EventKind::kPacketDropped:
        ++drops[trace::to_string(e.reason)].second;
        break;
      case trace::EventKind::kNetDropped:
        ++drops[trace::to_string(e.reason)].first;
        break;
      case trace::EventKind::kNetDelivered: ++net_delivered; break;
      case trace::EventKind::kNetDuplicated: ++net_duplicated; break;
      default: break;
    }
  }
  std::printf("== drop reasons ==\n");
  std::printf("%-24s %10s %10s\n", "reason", "network", "engines");
  std::uint64_t net_total = 0, engine_total = 0;
  for (const auto& [reason, counts] : drops) {
    std::printf("%-24s %10llu %10llu\n", reason.c_str(),
                static_cast<unsigned long long>(counts.first),
                static_cast<unsigned long long>(counts.second));
    net_total += counts.first;
    engine_total += counts.second;
  }
  std::printf("%-24s %10llu %10llu\n", "total",
              static_cast<unsigned long long>(net_total),
              static_cast<unsigned long long>(engine_total));
  std::printf("\n== packet fate ==\n");
  std::printf("network sends:   %llu (%llu delivered, %llu dropped, "
              "%llu chaos duplicates)\n",
              static_cast<unsigned long long>(net_delivered + net_total),
              static_cast<unsigned long long>(net_delivered),
              static_cast<unsigned long long>(net_total),
              static_cast<unsigned long long>(net_duplicated));
}

// ------------------------------------------------------ span reconstruction

void waterfall_row(std::vector<std::pair<std::uint64_t, std::string>>& rows,
                   std::uint64_t t, std::string label) {
  if (t != trace::RoundSpan::kUnset) rows.emplace_back(t, std::move(label));
}

void print_waterfall(const trace::RoundSpan& span) {
  const std::uint64_t origin = span.origin_us();
  char buf[160];

  const char* status = span.complete() ? "complete"
                       : span.failed  ? "FAILED"
                                      : "in-flight";
  std::printf("== assoc %u seq %u gen %u: %s, batch=%zu delivered=%zu ==\n",
              span.assoc_id, span.seq, span.generation, status, span.batch,
              span.delivered);
  if (span.complete()) {
    std::printf("   e2e %.3f ms  (queue %.3f ms, crypto %.1f us, "
                "retransmit-wait %.3f ms, propagation %.3f ms)\n",
                span.e2e_us() / 1000.0, span.queue_us / 1000.0,
                span.crypto_ns / 1000.0, span.retransmit_wait_us() / 1000.0,
                span.propagation_us() / 1000.0);
  }

  std::vector<std::pair<std::uint64_t, std::string>> rows;
  if (span.start_us != trace::RoundSpan::kUnset) {
    waterfall_row(rows, origin, "submit (oldest batched message)");
    std::snprintf(buf, sizeof(buf), "round open (crypto %.1f us)",
                  span.crypto_ns / 1000.0);
    waterfall_row(rows, span.start_us, buf);
  }
  std::snprintf(buf, sizeof(buf), "S1 sent (batch %zu)", span.batch);
  waterfall_row(rows, span.s1_sent_us, buf);
  for (const trace::AttemptSpan& a : span.attempts) {
    std::snprintf(buf, sizeof(buf), "%s retransmit #%u (attempt-tagged)",
                  a.packet_type == 1 ? "S1" : "S2", a.attempt);
    waterfall_row(rows, a.time_us, buf);
  }
  waterfall_row(rows, span.s1_accepted_us, "S1 accepted at verifier");
  waterfall_row(rows, span.a1_sent_us, "A1 sent");
  waterfall_row(rows, span.a1_accepted_us, "A1 accepted at signer");
  for (std::size_t i = 0; i < span.messages.size(); ++i) {
    const trace::MessageSpan& m = span.messages[i];
    std::snprintf(buf, sizeof(buf), "S2[%zu] sent", i);
    waterfall_row(rows, m.s2_sent_us, buf);
    if (m.delivered_us != trace::MessageSpan::kUnset) {
      std::snprintf(buf, sizeof(buf), "S2[%zu] delivered (e2e %.3f ms)", i,
                    (m.delivered_us - origin) / 1000.0);
      waterfall_row(rows, m.delivered_us, buf);
    }
  }
  if (span.acks + span.nacks > 0) {
    std::snprintf(buf, sizeof(buf), "last A2 accepted (%zu acks, %zu nacks)",
                  span.acks, span.nacks);
    waterfall_row(rows, span.last_a2_us, buf);
  }
  if (span.failed) {
    std::snprintf(buf, sizeof(buf), "round FAILED (%s)",
                  trace::to_string(span.fail_reason));
    // Failure carries no timestamp of its own on the span; anchor it last.
    rows.emplace_back(rows.empty() ? origin : rows.back().first, buf);
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [t, label] : rows) {
    std::printf("  %+12.3f ms  %s\n", (static_cast<double>(t) - origin) / 1000.0,
                label.c_str());
  }
  std::printf("\n");
}

void print_quantiles(const char* name, const metrics::Histogram& h,
                     double scale, const char* unit) {
  if (h.count() == 0) return;
  std::printf("%-22s n=%-6llu min=%-9.3f p50=%-9.3f p99=%-9.3f max=%-9.3f %s\n",
              name, static_cast<unsigned long long>(h.count()),
              h.min() / scale, h.quantile(0.5) / scale, h.quantile(0.99) / scale,
              h.max() / scale, unit);
}

int render_spans(const std::vector<trace::Event>& events,
                 const std::string& label, bool waterfalls) {
  trace::SpanBuilder builder;
  for (const trace::Event& e : events) builder.ingest(e);
  if (builder.spans().empty()) {
    std::fprintf(stderr, "%s: no signature rounds in trace\n", label.c_str());
    return 1;
  }

  if (waterfalls) {
    for (const trace::RoundSpan& span : builder.spans()) print_waterfall(span);
  }

  // Latency summary with bucket-bounded quantile estimates (log2 buckets:
  // p50/p99 are exact to within a factor of 2, clamped to observed min/max).
  metrics::Histogram delivery, e2e, queue, crypto, retrans, prop;
  for (const trace::RoundSpan& span : builder.spans()) {
    const std::uint64_t origin = span.origin_us();
    for (const trace::MessageSpan& m : span.messages) {
      if (m.delivered_us != trace::MessageSpan::kUnset) {
        delivery.record(m.delivered_us - origin);
      }
    }
    if (!span.complete()) continue;
    e2e.record(span.e2e_us());
    queue.record(span.queue_us);
    crypto.record(span.crypto_ns);
    retrans.record(span.retransmit_wait_us());
    prop.record(span.propagation_us());
  }
  std::printf("== span summary ==\n");
  std::printf("rounds: %llu complete, %llu failed, %zu total; "
              "%llu message deliveries\n",
              static_cast<unsigned long long>(builder.rounds_complete()),
              static_cast<unsigned long long>(builder.rounds_failed()),
              builder.spans().size(),
              static_cast<unsigned long long>(builder.deliveries()));
  print_quantiles("delivery latency", delivery, 1000.0, "ms");
  print_quantiles("round e2e", e2e, 1000.0, "ms");
  print_quantiles("queue wait", queue, 1000.0, "ms");
  print_quantiles("crypto", crypto, 1000.0, "us");
  print_quantiles("retransmit wait", retrans, 1000.0, "ms");
  print_quantiles("propagation", prop, 1000.0, "ms");
  if (builder.min_delivery_latency_us() != trace::SpanBuilder::kUnset) {
    std::printf("min delivery latency: %.3f ms\n",
                builder.min_delivery_latency_us() / 1000.0);
  }
  if (builder.lost_events() > 0) {
    std::fprintf(stderr, "warning: %llu events lost to ring overwrite\n",
                 static_cast<unsigned long long>(builder.lost_events()));
  }
  return 0;
}

// ------------------------------------------------------ adaptivity decode

const char* short_mode(std::uint8_t m) {
  switch (static_cast<wire::Mode>(m)) {
    case wire::Mode::kBase: return "base";
    case wire::Mode::kCumulative: return "C";
    case wire::Mode::kMerkle: return "M";
    case wire::Mode::kCumulativeMerkle: return "C+M";
  }
  return "?";
}

/// Explains the adaptive controller's policy from the trace alone: every
/// kAdaptDecision event carries the full input snapshot (loss EWMA, budget
/// pressure, health) and the verdict in its detail word, so the decision
/// log below is exactly what the controller saw -- holds included.
int render_adapt(const std::vector<trace::Event>& events,
                 const std::string& label, bool required) {
  std::map<std::uint32_t, std::vector<const trace::Event*>> by_assoc;
  for (const trace::Event& e : events) {
    if (e.kind == trace::EventKind::kAdaptDecision) {
      by_assoc[e.assoc_id].push_back(&e);
    }
  }
  if (by_assoc.empty()) {
    if (!required) return 0;
    std::fprintf(stderr,
                 "%s: no adapt_decision events (run with the adaptive "
                 "controller enabled, e.g. alpha_sim --adaptive --flight-dir)\n",
                 label.c_str());
    return 1;
  }

  static const char* kHealthNames[] = {"ok", "degraded", "failed", "?"};
  for (const auto& [assoc, evs] : by_assoc) {
    std::printf("== association %u: %zu policy evaluations ==\n", assoc,
                evs.size());
    std::printf("%12s %6s %-15s %-14s %7s %7s %9s\n", "t(ms)", "eval",
                "decision", "profile", "loss", "budget", "health");
    std::map<std::string, std::uint64_t> by_reason;
    std::uint64_t switches = 0;
    for (const trace::Event* ev : evs) {
      const std::uint64_t d = ev->detail;
      const auto reason =
          static_cast<core::AdaptReason>(trace::adapt_detail_reason(d));
      const std::uint8_t to_mode = trace::adapt_detail_to_mode(d);
      const std::uint32_t to_batch = trace::adapt_detail_to_batch(d);
      const std::uint8_t from_mode = trace::adapt_detail_from_mode(d);
      const std::uint32_t from_batch = trace::adapt_detail_from_batch(d);
      const bool moved = to_mode != from_mode || to_batch != from_batch;
      if (moved) ++switches;
      ++by_reason[core::to_string(reason)];
      char profile[48];
      if (moved) {
        std::snprintf(profile, sizeof(profile), "%s/%u -> %s/%u",
                      short_mode(from_mode), from_batch, short_mode(to_mode),
                      to_batch);
      } else {
        std::snprintf(profile, sizeof(profile), "%s/%u",
                      short_mode(from_mode), from_batch);
      }
      std::printf("%12.3f %6u %-15s %-14s %6.1f%% %6u%% %9s\n",
                  ev->time_us / 1000.0, ev->seq, core::to_string(reason),
                  profile,
                  trace::adapt_detail_loss_permille(d) / 10.0,
                  trace::adapt_detail_budget_percent(d),
                  kHealthNames[std::min<std::uint8_t>(
                      trace::adapt_detail_health(d), 3)]);
    }
    std::printf("-- %llu switches over %zu evaluations; by reason:",
                static_cast<unsigned long long>(switches), evs.size());
    for (const auto& [reason, n] : by_reason) {
      std::printf(" %s=%llu", reason.c_str(),
                  static_cast<unsigned long long>(n));
    }
    std::printf("\n\n");
  }
  return 0;
}

// ------------------------------------------------------- flight recordings

void render_health(const std::vector<trace::Event>& events) {
  bool any = false;
  for (const trace::Event& ev : events) {
    const bool degraded = ev.kind == trace::EventKind::kHealthDegraded;
    if (!degraded && ev.kind != trace::EventKind::kHealthRecovered) continue;
    if (!any) {
      std::printf("== health transitions ==\n");
      any = true;
    }
    std::printf("%12.3f ms  node %-3u %-18s", ev.time_us / 1000.0, ev.origin,
                trace::to_string(ev.kind));
    if (degraded && ev.detail != 0) {
      const auto mask = static_cast<unsigned>(ev.detail);
      if (mask & trace::kHealthWedgedRound) std::printf(" wedged-round");
      if (mask & trace::kHealthBudgetExhausted) std::printf(" budget-exhausted");
      if (mask & trace::kHealthRekeyStorm) std::printf(" rekey-storm");
      if (mask & trace::kHealthEventsLost) std::printf(" events-lost");
    }
    std::printf("\n");
  }
  if (any) std::printf("\n");
}

void print_flight_summary(const trace::FlightRecording& rec,
                          const std::string& dir) {
  std::printf("== flight recording: %s ==\n", dir.c_str());
  std::printf("node %u, %zu segment(s), %llu events\n", rec.node_id(),
              rec.segments.size(),
              static_cast<unsigned long long>(rec.total_events()));
  for (const trace::FlightSegment& seg : rec.segments) {
    const trace::FlightHeader& h = seg.header;
    std::printf("  shard %u seg %-3u  %6zu events  lost=%llu  %s",
                h.shard_index, h.segment_index, seg.events.size(),
                static_cast<unsigned long long>(h.events_lost),
                h.finalized      ? "finalized"
                : h.crash_signal ? "CRASH"
                                 : "torn");
    if (h.crash_signal != 0) std::printf(" (signal %u)", h.crash_signal);
    if (seg.invalid_events > 0) {
      std::printf("  %llu invalid slots",
                  static_cast<unsigned long long>(seg.invalid_events));
    }
    if (seg.metrics_valid) std::printf("  +metrics snapshot");
    std::printf("\n");
  }
  const trace::FlightHeader& h0 = rec.segments.front().header;
  std::printf("  build %s\n", h0.build_info);
  std::printf("  wall epoch %llu us, config digest %016llx\n\n",
              static_cast<unsigned long long>(h0.wall_epoch_us),
              static_cast<unsigned long long>(h0.config_digest));
}

/// One view of a recording: --trace (timeline + drop table), --spans
/// (waterfalls + quantiles) or --adapt (decision log).
int inspect_view(const std::string& view, const std::string& dir) {
  trace::FlightRecording rec;
  std::vector<trace::Event> events;
  if (!read_events(dir, rec, events) || events.empty()) return 1;
  if (view == "spans") return render_spans(events, dir, /*waterfalls=*/true);
  if (view == "adapt") return render_adapt(events, dir, /*required=*/true);
  render_timeline(events);
  render_drops(events);
  return 0;
}

/// Postmortem overview of one recording: what a crashed or exited node left
/// behind, headers first, then the drop, health, span and adapt lenses.
int inspect_flight(const std::string& dir) {
  trace::FlightRecording rec;
  std::vector<trace::Event> events;
  if (!read_events(dir, rec, events)) return 1;
  print_flight_summary(rec, dir);
  if (events.empty()) return 1;
  render_drops(events);
  std::printf("\n");
  render_health(events);
  // Spans exist only for runs that opened signature rounds; a recording of
  // pure relay traffic is still useful for the drop table above.
  render_spans(events, dir, /*waterfalls=*/false);
  render_adapt(events, dir, /*required=*/false);
  return 0;
}

/// Cross-process postmortem: merge N recordings onto one corrected
/// timeline and show how the clocks were reconciled.
int inspect_merge(const std::string& spec) {
  std::vector<std::string> dirs;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::string dir = spec.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!dir.empty()) dirs.push_back(dir);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (dirs.size() < 2) {
    std::fprintf(stderr, "--merge needs at least two comma-separated dirs\n");
    return 2;
  }
  std::vector<trace::FlightRecording> recs(dirs.size());
  for (std::size_t i = 0; i < dirs.size(); ++i) {
    std::string err;
    if (!read_flight_dir(dirs[i], recs[i], &err)) {
      std::fprintf(stderr, "%s\n", err.c_str());
      return 1;
    }
    print_flight_summary(recs[i], dirs[i]);
  }
  trace::MergeResult merged;
  std::string err;
  if (!merge_recordings(recs, merged, &err)) {
    std::fprintf(stderr, "merge failed: %s\n", err.c_str());
    return 1;
  }

  std::printf("== clock links (reference: node %u) ==\n", recs[0].node_id());
  std::printf("%6s %14s %14s %8s %s\n", "node", "offset(ms)", "latency(us)",
              "pairs", "basis");
  for (const trace::ClockLink& link : merged.links) {
    std::printf("%6u %14.3f %14.1f %8zu %s\n", link.node_id,
                link.offset_us / 1000.0, link.latency_us, link.matched_pairs,
                link.refined ? "matched send/recv pairs" : "wall epochs only");
  }
  std::printf("\n== merged timeline (%zu events) ==\n",
              merged.timeline.size());
  const std::uint64_t t0 =
      merged.timeline.empty() ? 0 : merged.timeline.front().wall_us;
  // Cross-node spans: the corrected timeline, rebased to its first event,
  // goes through the span reconstructor so hop latencies span processes.
  std::vector<trace::Event> events;
  events.reserve(merged.timeline.size());
  for (const trace::MergedEvent& me : merged.timeline) {
    print_event((me.wall_us - t0) / 1000.0, me.node_id, me.event,
                /*show_assoc=*/true);
    events.push_back(me.event);
    events.back().time_us = me.wall_us - t0;
  }
  std::printf("\n");
  render_drops(events);
  std::printf("\n");
  render_spans(events, spec, /*waterfalls=*/false);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  tools::Flags flags{"alpha_inspect",
                     "decode an ALPHA packet from hex or a flight recording"};
  flags.define("hex", "", "packet bytes as a hex string");
  flags.define("stdin", "false", "read hex lines from stdin");
  flags.define("trace", "",
               "render a flight-recorder directory (alpha_sim --flight-dir) "
               "as a per-association timeline and drop-reason table");
  flags.define("spans", "",
               "reconstruct per-round spans from a flight-recorder "
               "directory: waterfalls plus latency-component quantiles");
  flags.define("adapt", "",
               "explain adaptive-controller decisions from a flight-recorder "
               "directory: one line per policy evaluation with the signals "
               "that justified it");
  flags.define("flight", "",
               "replay a flight-recorder directory (alpha_sim --flight-dir): "
               "segment headers, drop taxonomy, health transitions, span "
               "summary, adapt log");
  flags.define("merge", "",
               "merge two or more comma-separated flight-recorder dirs into "
               "one clock-corrected cross-process timeline");
  flags.parse(argc, argv);

  if (!flags.str("merge").empty()) {
    return inspect_merge(flags.str("merge"));
  }
  if (!flags.str("flight").empty()) {
    return inspect_flight(flags.str("flight"));
  }
  for (const char* view : {"adapt", "spans", "trace"}) {
    if (!flags.str(view).empty()) return inspect_view(view, flags.str(view));
  }
  if (flags.flag("stdin")) {
    std::string line;
    int rc = 0;
    while (std::getline(std::cin, line)) {
      if (line.empty()) continue;
      rc |= inspect(line);
      std::printf("\n");
    }
    return rc;
  }
  if (flags.str("hex").empty()) {
    flags.usage();
    return 2;
  }
  return inspect(flags.str("hex"));
}
