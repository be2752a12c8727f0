#include "traced_transport.hpp"

#include <string_view>

#include "harness.hpp"
#include "wire/packets.hpp"

namespace perfbench {

namespace {
std::atomic<bool> g_tracing{false};
thread_local std::uint64_t t_send_ns = 0;
thread_local std::uint64_t t_app_ns = 0;

std::uint64_t frame_key(alpha::crypto::ByteView f) {
  return std::hash<std::string_view>{}(std::string_view(
      reinterpret_cast<const char*>(f.data()), f.size()));
}
}  // namespace

void set_tracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool tracing() { return g_tracing.load(std::memory_order_relaxed); }
std::uint64_t& thread_send_ns() { return t_send_ns; }
std::uint64_t& thread_app_ns() { return t_app_ns; }

TracedTransport::TracedTransport(std::unique_ptr<alpha::net::Transport> inner,
                                 Tally* tally,
                                 std::vector<alpha::crypto::Bytes>* capture,
                                 std::size_t capture_cap,
                                 bool track_residence)
    : inner_(std::move(inner)),
      tally_(tally),
      capture_(capture),
      capture_cap_(capture_cap),
      track_residence_(track_residence) {}

void TracedTransport::on_inbound(alpha::crypto::ByteView frame) {
  tally_->frames_in.add(1);
  if (alpha::wire::peek_type(frame) == alpha::wire::PacketType::kS2) {
    tally_->s2_in.add(1);
  }
  if (!tracing()) return;
  if (capture_ != nullptr && capture_->size() < capture_cap_) {
    capture_->emplace_back(frame.begin(), frame.end());
  }
}

void TracedTransport::set_receiver(ReceiveFn receiver) {
  inner_->set_receiver([this, fn = std::move(receiver)](
                           alpha::net::PeerAddr from,
                           alpha::crypto::ByteView frame) {
    on_inbound(frame);
    if (!tracing()) {
      fn(from, frame);
      return;
    }
    const std::uint64_t send0 = t_send_ns, app0 = t_app_ns;
    const std::uint64_t t0 = wall_ns();
    fn(from, frame);
    const std::uint64_t total = wall_ns() - t0;
    tally_->cb_total_ns += total;
    tally_->cb_self_ns += total - (t_send_ns - send0) - (t_app_ns - app0);
    ++tally_->cb_frames;
  });
}

bool TracedTransport::send(alpha::net::PeerAddr peer,
                           alpha::crypto::Bytes frame) {
  tally_->frames_out.add(1);
  tally_->bytes_out.add(frame.size());
  if (!tracing()) return inner_->send(peer, std::move(frame));
  const std::uint64_t t0 = wall_ns();
  const bool ok = inner_->send(peer, std::move(frame));
  const std::uint64_t dt = wall_ns() - t0;
  tally_->send_ns += dt;
  ++tally_->send_frames;
  t_send_ns += dt;
  return ok;
}

void TracedTransport::schedule(std::uint64_t at_us, std::function<void()> fn) {
  inner_->schedule(at_us, [this, fn = std::move(fn)] {
    if (!tracing()) {
      fn();
      return;
    }
    const std::uint64_t send0 = t_send_ns, app0 = t_app_ns;
    const std::uint64_t t0 = wall_ns();
    fn();
    const std::uint64_t total = wall_ns() - t0;
    tally_->timer_total_ns += total;
    tally_->timer_self_ns += total - (t_send_ns - send0) - (t_app_ns - app0);
  });
}

std::size_t TracedTransport::recv_batch(int timeout_ms,
                                        alpha::net::RxFrame* out,
                                        std::size_t max) {
  if (!tracing()) {
    const std::size_t got = inner_->recv_batch(timeout_ms, out, max);
    for (std::size_t i = 0; i < got; ++i) on_inbound(out[i].data);
    return got;
  }
  const std::uint64_t t0 = wall_ns();
  const std::size_t got = inner_->recv_batch(timeout_ms, out, max);
  const std::uint64_t t1 = wall_ns();
  tally_->recv_batch_ns += t1 - t0;
  ++tally_->recv_batch_calls;
  if (got == 0) ++tally_->recv_batch_empty;
  tally_->recv_batch_frames += got;
  for (std::size_t i = 0; i < got; ++i) {
    on_inbound(out[i].data);
    if (track_residence_) in_flight_[frame_key(out[i].data)] = t1;
  }
  return got;
}

std::size_t TracedTransport::send_batch(const alpha::net::TxFrame* frames,
                                        std::size_t n) {
  if (!tracing()) {
    const std::size_t sent = inner_->send_batch(frames, n);
    for (std::size_t i = 0; i < sent; ++i) {
      tally_->frames_out.add(1);
      tally_->bytes_out.add(frames[i].data.size());
    }
    return sent;
  }
  const std::uint64_t t0 = wall_ns();
  const std::size_t sent = inner_->send_batch(frames, n);
  const std::uint64_t dt = wall_ns() - t0;
  tally_->send_ns += dt;
  tally_->send_frames += sent;
  t_send_ns += dt;
  for (std::size_t i = 0; i < sent; ++i) {
    tally_->frames_out.add(1);
    tally_->bytes_out.add(frames[i].data.size());
    if (!track_residence_) continue;
    const auto it = in_flight_.find(frame_key(frames[i].data));
    if (it == in_flight_.end()) continue;
    tally_->residence_us.push_back(static_cast<double>(t0 - it->second) /
                                   1e3);
    in_flight_.erase(it);
  }
  return sent;
}

}  // namespace perfbench
