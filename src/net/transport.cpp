#include "net/transport.hpp"

#include <algorithm>
#include <chrono>

#include "trace/trace.hpp"
#include "wire/packets.hpp"

namespace alpha::net {

namespace {
// UDP has no network model underneath, so the transport itself marks the
// frame boundary events (the simulator path gets these from net::Network).
void emit_transport_event(trace::EventKind kind, PeerAddr peer,
                          crypto::ByteView frame, std::uint64_t now_us) {
  if (!trace::enabled()) return;
  trace::Event e;
  e.time_us = now_us;
  e.detail = trace::pack_net_detail(static_cast<std::uint32_t>(peer),
                                    static_cast<std::uint32_t>(peer),
                                    frame.size());
  if (const auto assoc = wire::peek_assoc_id(frame)) e.assoc_id = *assoc;
  if (const auto hdr = wire::peek_header(frame)) e.seq = hdr->seq;
  if (const auto type = wire::peek_type(frame)) {
    e.packet_type = static_cast<std::uint8_t>(*type);
  }
  e.kind = kind;
  trace::emit(e);
}
}  // namespace

// ---------------------------------------------------------------- simulator

SimTransport::SimTransport(Network& network, NodeId self)
    : network_(&network), self_(self) {
  network_->set_handler(self_, [this](NodeId from, crypto::ByteView frame) {
    ++frames_delivered_;
    if (receiver_) receiver_(static_cast<PeerAddr>(from), frame);
  });
}

SimTransport::~SimTransport() {
  // Leave no dangling handler behind; the network may outlive us.
  if (network_->has_node(self_)) network_->set_handler(self_, nullptr);
}

void SimTransport::set_receiver(ReceiveFn receiver) {
  receiver_ = std::move(receiver);
}

bool SimTransport::send(PeerAddr peer, crypto::Bytes frame) {
  return network_->send(self_, static_cast<NodeId>(peer), std::move(frame));
}

std::size_t SimTransport::poll(int timeout_ms) {
  const std::size_t before = frames_delivered_;
  auto& sim = network_->sim();
  sim.run_until(sim.now() +
                static_cast<SimTime>(std::max(timeout_ms, 0)) * kMillisecond);
  return frames_delivered_ - before;
}

std::uint64_t SimTransport::now_us() const { return network_->sim().now(); }

void SimTransport::schedule(std::uint64_t at_us, std::function<void()> fn) {
  auto& sim = network_->sim();
  sim.schedule_at(std::max<SimTime>(at_us, sim.now()), std::move(fn));
}

// ------------------------------------------------------------- UDP sockets

UdpTransport::UdpTransport(std::uint16_t port) : endpoint_(port) {}

UdpTransport::UdpTransport(UdpEndpoint endpoint)
    : endpoint_(std::move(endpoint)) {}

void UdpTransport::set_receiver(ReceiveFn receiver) {
  receiver_ = std::move(receiver);
}

bool UdpTransport::send(PeerAddr peer, crypto::Bytes frame) {
  emit_transport_event(trace::EventKind::kTransportSent, peer, frame,
                       now_us());
  endpoint_.send_to(static_cast<std::uint16_t>(peer), frame);
  return true;
}

std::size_t UdpTransport::poll(int timeout_ms) {
  // Cap the socket wait so a due timer is never held hostage by a quiet
  // socket, then drain everything already queued without blocking.
  int wait = std::max(timeout_ms, 0);
  if (!timers_.empty()) {
    const std::uint64_t now = now_us();
    const std::uint64_t next = timers_.top().at_us;
    const std::uint64_t until_ms = next <= now ? 0 : (next - now + 999) / 1000;
    wait = static_cast<int>(
        std::min<std::uint64_t>(static_cast<std::uint64_t>(wait), until_ms));
  }

  std::size_t frames = 0;
  auto dg = endpoint_.receive(wait);
  while (dg.has_value()) {
    ++frames;
    emit_transport_event(trace::EventKind::kTransportReceived,
                         static_cast<PeerAddr>(dg->from_port), dg->data,
                         now_us());
    if (receiver_) {
      receiver_(static_cast<PeerAddr>(dg->from_port), dg->data);
    }
    dg = endpoint_.receive(0);
  }
  fire_due_timers();
  return frames;
}

std::size_t UdpTransport::recv_batch(int timeout_ms, RxFrame* out,
                                     std::size_t max) {
  const std::size_t cap =
      max < UdpEndpoint::kBatchSize ? max : UdpEndpoint::kBatchSize;
  UdpEndpoint::Datagram dgs[UdpEndpoint::kBatchSize];
  const std::size_t got =
      endpoint_.receive_batch(std::max(timeout_ms, 0), dgs, cap);
  const std::uint64_t now = now_us();
  for (std::size_t i = 0; i < got; ++i) {
    emit_transport_event(trace::EventKind::kTransportReceived,
                         static_cast<PeerAddr>(dgs[i].from_port), dgs[i].data,
                         now);
    out[i].from = static_cast<PeerAddr>(dgs[i].from_port);
    out[i].recv_us = now;
    out[i].data = dgs[i].data;
  }
  return got;
}

std::size_t UdpTransport::send_batch(const TxFrame* frames, std::size_t n) {
  std::size_t sent = 0;
  UdpEndpoint::OutDatagram dgs[UdpEndpoint::kBatchSize];
  while (sent < n) {
    const std::size_t chunk =
        std::min<std::size_t>(n - sent, UdpEndpoint::kBatchSize);
    for (std::size_t i = 0; i < chunk; ++i) {
      dgs[i].dest_port = static_cast<std::uint16_t>(frames[sent + i].peer);
      dgs[i].data = frames[sent + i].data;
    }
    const std::size_t accepted = endpoint_.send_many(dgs, chunk);
    const std::uint64_t now = now_us();
    for (std::size_t i = 0; i < accepted; ++i) {
      emit_transport_event(trace::EventKind::kTransportSent,
                           frames[sent + i].peer, frames[sent + i].data, now);
    }
    sent += accepted;
    // Partial kernel completion = backpressure; hand the tail back to the
    // caller instead of spinning on a congested socket.
    if (accepted < chunk) break;
  }
  return sent;
}

std::uint64_t UdpTransport::now_us() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void UdpTransport::schedule(std::uint64_t at_us, std::function<void()> fn) {
  timers_.push(Timer{at_us, next_timer_seq_++, std::move(fn)});
}

void UdpTransport::fire_due_timers() {
  while (!timers_.empty() && timers_.top().at_us <= now_us()) {
    Timer timer = std::move(const_cast<Timer&>(timers_.top()));
    timers_.pop();
    timer.fn();
  }
}

}  // namespace alpha::net
