// Unified transport abstraction for the node runtime.
//
// The protocol engines are frame-in / frame-out, but the two worlds they run
// in expose incompatible driving models: the simulator pushes frames into
// per-node receive callbacks while virtual time advances, and UDP sockets
// must be drained by blocking polls against wall-clock time. Transport hides
// that difference behind one interface -- send a frame to a peer, drain
// pending input, read a monotonic clock, schedule a callback -- so AlphaNode
// (core/node.hpp) and every example/tool/test can run identically over
// either world.
//
// Peers are opaque 64-bit addresses: a net::NodeId in the simulator, a
// loopback UDP port for sockets.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "crypto/bytes.hpp"
#include "net/network.hpp"
#include "net/udp.hpp"

namespace alpha::net {

/// Opaque peer address (NodeId for the simulator, UDP port for sockets).
using PeerAddr = std::uint64_t;

/// One inbound frame returned by Transport::recv_batch. `data` views
/// transport-owned storage valid until the next recv_batch/poll call on the
/// same transport; `recv_us` is the arrival timestamp on the transport's
/// clock (batch drain time on sockets).
struct RxFrame {
  PeerAddr from = 0;
  std::uint64_t recv_us = 0;
  crypto::ByteView data;
};

/// One outbound frame for Transport::send_batch. The view must stay valid
/// for the duration of the call only.
struct TxFrame {
  PeerAddr peer = 0;
  crypto::ByteView data;
};

class Transport {
 public:
  /// Inbound frame handler: (source peer, frame bytes).
  using ReceiveFn = std::function<void(PeerAddr, crypto::ByteView)>;

  virtual ~Transport() = default;

  /// Installs the single inbound-frame consumer (the node's demux).
  virtual void set_receiver(ReceiveFn receiver) = 0;

  /// Sends one frame toward `peer`. Returns false if the transport knows
  /// the frame was not sent (no link, oversize); best-effort otherwise.
  virtual bool send(PeerAddr peer, crypto::Bytes frame) = 0;

  /// Drives the transport for up to `timeout_ms`: delivers pending inbound
  /// frames to the receiver and fires due scheduled callbacks. Returns the
  /// number of frames delivered. EINTR-safe on real sockets.
  virtual std::size_t poll(int timeout_ms) = 0;

  /// Monotonic time in microseconds (virtual in the simulator, steady
  /// wall clock over sockets).
  virtual std::uint64_t now_us() const = 0;

  /// Requests `fn` to run at absolute time `at_us` (clamped to now). The
  /// simulator fires it from its event queue; socket transports fire it
  /// from poll(). Used by the node runtime's timer wheel.
  virtual void schedule(std::uint64_t at_us, std::function<void()> fn) = 0;

  // ---- batched I/O (the threaded sharded runtime's drive model) ----------
  //
  // recv_batch/send_batch form a pull-based alternative to the
  // set_receiver/poll push model: the caller owns the drive loop and the
  // transport amortizes per-frame cost over a batch (one recvmmsg/sendmmsg
  // syscall on UDP). Only transports with a thread-safe clock are driven
  // this way; the simulator is always push-driven.

  /// Pulls up to `max` pending inbound frames, waiting up to `timeout_ms`
  /// for the first. Returns the number written to `out`; views stay valid
  /// until the next recv_batch/poll call. Default: no batch support (0).
  virtual std::size_t recv_batch(int timeout_ms, RxFrame* out,
                                 std::size_t max) {
    (void)timeout_ms;
    (void)out;
    (void)max;
    return 0;
  }

  /// Sends `n` frames, returning how many were accepted (a partial count
  /// surfaces transient backpressure; the caller resubmits the tail).
  /// Default: a loop over send(), one frame copy each.
  virtual std::size_t send_batch(const TxFrame* frames, std::size_t n) {
    std::size_t sent = 0;
    for (; sent < n; ++sent) {
      const TxFrame& f = frames[sent];
      if (!send(f.peer, crypto::Bytes(f.data.begin(), f.data.end()))) {
        // Count the frame as consumed: the transport rejected it for
        // cause (no link, oversize), which retrying cannot fix.
      }
    }
    return sent;
  }

  /// True when now_us() is safe to call concurrently from several threads
  /// (a steady wall clock). The simulator's virtual clock is advanced by
  /// its single driving thread and is not.
  virtual bool clock_thread_safe() const { return false; }
};

/// Transport adapter over the discrete-event simulator: binds to one
/// network node, pushes arriving frames straight into the receiver while
/// the simulation runs, and maps poll() to advancing virtual time.
class SimTransport final : public Transport {
 public:
  /// Binds to `self`, which must already exist in `network`. Replaces the
  /// node's receive handler for the lifetime of this transport.
  SimTransport(Network& network, NodeId self);
  ~SimTransport() override;

  SimTransport(const SimTransport&) = delete;
  SimTransport& operator=(const SimTransport&) = delete;

  void set_receiver(ReceiveFn receiver) override;
  bool send(PeerAddr peer, crypto::Bytes frame) override;
  std::size_t poll(int timeout_ms) override;
  std::uint64_t now_us() const override;
  void schedule(std::uint64_t at_us, std::function<void()> fn) override;

  NodeId self() const noexcept { return self_; }

 private:
  Network* network_;
  NodeId self_;
  ReceiveFn receiver_;
  std::size_t frames_delivered_ = 0;  // total, for poll() deltas
};

/// Transport adapter over a real UDP socket: poll() waits for and then
/// non-blockingly drains the socket, and scheduled callbacks fire from
/// poll() against the steady clock.
class UdpTransport final : public Transport {
 public:
  /// Binds a fresh loopback endpoint (port 0 = ephemeral).
  explicit UdpTransport(std::uint16_t port = 0);
  /// Adopts an already-bound endpoint.
  explicit UdpTransport(UdpEndpoint endpoint);

  void set_receiver(ReceiveFn receiver) override;
  bool send(PeerAddr peer, crypto::Bytes frame) override;
  std::size_t poll(int timeout_ms) override;
  std::uint64_t now_us() const override;
  void schedule(std::uint64_t at_us, std::function<void()> fn) override;

  /// One recvmmsg() drains up to min(max, UdpEndpoint::kBatchSize) queued
  /// datagrams after waiting up to `timeout_ms` for the first.
  std::size_t recv_batch(int timeout_ms, RxFrame* out,
                         std::size_t max) override;
  /// One sendmmsg() per kBatchSize chunk; stops at the first partial kernel
  /// completion and returns how many frames were accepted.
  std::size_t send_batch(const TxFrame* frames, std::size_t n) override;
  bool clock_thread_safe() const override { return true; }

  std::uint16_t port() const noexcept { return endpoint_.port(); }
  UdpEndpoint& endpoint() noexcept { return endpoint_; }

 private:
  void fire_due_timers();

  struct Timer {
    std::uint64_t at_us;
    std::uint64_t seq;  // FIFO among equal deadlines
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Timer& a, const Timer& b) const noexcept {
      if (a.at_us != b.at_us) return a.at_us > b.at_us;
      return a.seq > b.seq;
    }
  };

  UdpEndpoint endpoint_;
  ReceiveFn receiver_;
  std::priority_queue<Timer, std::vector<Timer>, Later> timers_;
  std::uint64_t next_timer_seq_ = 0;
};

}  // namespace alpha::net
