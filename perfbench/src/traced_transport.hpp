// net::Transport decorator: wraps the transport each node is given and
// counts (always) or times (while tracing is switched on) what crosses it.
//
// Counting is a few integer adds per frame and stays on in untraced runs,
// because wire bytes per op is an end-to-end metric. Timing reads the
// steady clock twice per call and runs only in traced slices. Nested work is
// subtracted where it happens: a receive callback's self time excludes the
// sends it triggers and the application callback (the oracle) it runs, so
// the layers of the ledger do not double-count.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/transport.hpp"

namespace perfbench {

/// Whether timing is switched on (the traced part of a --trace 1 run).
void set_tracing(bool on);
bool tracing();

/// Per-thread running totals of nested work, so enclosing spans can
/// subtract it: time spent in Transport::send/send_batch, and time spent in
/// the application's delivery callback.
std::uint64_t& thread_send_ns();
std::uint64_t& thread_app_ns();

enum class Role : std::uint8_t { kHost, kRelay };

/// A counter with one writer and any number of concurrent readers: a relaxed
/// load-add-store, which compiles to plain moves (no locked instruction).
class Counter {
 public:
  void add(std::uint64_t n) {
    v_.store(v_.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
  }
  std::uint64_t get() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Counters of one transport, written only by the thread that drives it.
/// The always-on ones may be read from any thread; the traced ones only
/// after the driving thread has stopped, or from that thread.
struct Tally {
  Role role = Role::kHost;
  // Always on.
  Counter frames_out;
  Counter bytes_out;
  Counter frames_in;
  Counter s2_in;
  // Traced slices only.
  std::uint64_t send_ns = 0;
  std::uint64_t send_frames = 0;
  std::uint64_t cb_total_ns = 0;   // receive callbacks, nested work included
  std::uint64_t cb_self_ns = 0;    // minus nested sends and app callbacks
  std::uint64_t cb_frames = 0;
  std::uint64_t timer_total_ns = 0;
  std::uint64_t timer_self_ns = 0;
  std::uint64_t recv_batch_calls = 0;
  std::uint64_t recv_batch_empty = 0;
  std::uint64_t recv_batch_frames = 0;
  std::uint64_t recv_batch_ns = 0;
  std::vector<double> residence_us;  // recv_batch return -> send_batch
};

class TracedTransport final : public alpha::net::Transport {
 public:
  /// `tally` must outlive the transport's driving thread. `capture`, when
  /// set, receives copies of inbound frames during traced slices, up to
  /// `capture_cap` of them, for the lower-layer replay. `track_residence`
  /// matches frames between recv_batch and send_batch by their bytes.
  TracedTransport(std::unique_ptr<alpha::net::Transport> inner, Tally* tally,
                  std::vector<alpha::crypto::Bytes>* capture = nullptr,
                  std::size_t capture_cap = 0, bool track_residence = false);

  void set_receiver(ReceiveFn receiver) override;
  bool send(alpha::net::PeerAddr peer, alpha::crypto::Bytes frame) override;
  std::size_t poll(int timeout_ms) override { return inner_->poll(timeout_ms); }
  std::uint64_t now_us() const override { return inner_->now_us(); }
  void schedule(std::uint64_t at_us, std::function<void()> fn) override;
  std::size_t recv_batch(int timeout_ms, alpha::net::RxFrame* out,
                         std::size_t max) override;
  std::size_t send_batch(const alpha::net::TxFrame* frames,
                         std::size_t n) override;
  bool clock_thread_safe() const override {
    return inner_->clock_thread_safe();
  }

 private:
  void on_inbound(alpha::crypto::ByteView frame);

  std::unique_ptr<alpha::net::Transport> inner_;
  Tally* tally_;
  std::vector<alpha::crypto::Bytes>* capture_;
  std::size_t capture_cap_;
  bool track_residence_;
  std::unordered_map<std::uint64_t, std::uint64_t> in_flight_;  // hash -> ns
};

}  // namespace perfbench
