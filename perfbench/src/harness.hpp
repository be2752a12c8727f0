// Measurement plumbing shared by every workload: clocks, process counters
// read from outside the library, seeded inputs, the delivery oracle, and the
// result record main.cpp prints.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "crypto/bytes.hpp"

namespace perfbench {

// ------------------------------------------------------------------ clocks

inline std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Process CPU time (user + sys, all threads) from getrusage(RUSAGE_SELF).
std::uint64_t process_cpu_ns();

/// Heap in use: mallinfo2() uordblks + hblkhd (chunks glibc serves by mmap,
/// which uordblks leaves out), all arenas.
std::uint64_t heap_bytes();

/// Exact allocation counts from the benchmark's replacement operator new.
struct AllocCounts {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};
AllocCounts alloc_counts();

/// Host-speed calibration. On a shared host the speed of this process drifts
/// by tens of percent in regimes lasting from seconds to minutes, and CPU
/// time drifts with it, so no wall or CPU figure is steady across runs on
/// its own. The drift moves all code in the process roughly alike, so each
/// slice first runs a fixed loop of the benchmark's own code and the slice's
/// times are scaled to a reference speed:
/// scaled = measured * kReferenceCalNs / loop time.
/// The loop walks size-class free lists over a private arena and fills
/// short blocks, the allocator-like pointer chasing and small writes the
/// protocol stack spends its time on; it touches neither the heap nor the
/// library, so a change to the library cannot move it.
std::uint64_t calibration_ns();
/// Loop time, in ns, that defines the reference speed.
constexpr double kReferenceCalNs = 1e6;

/// Times one set-up in reference seconds, calibrating before and after.
class SetupTimer {
 public:
  SetupTimer();
  /// Returns the scaled set-up time; `raw_s` receives the wall time.
  double stop(double* raw_s);

 private:
  std::uint64_t cal0_, t0_;
};

/// splitmix64: the benchmark's own seeded generator (inputs, schedules).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in (0, 1].
  double unit() { return (static_cast<double>(next() >> 11) + 1.0) * 0x1p-53; }
  /// Exponential inter-arrival gap with the given mean.
  double exp_gap(double mean);

 private:
  std::uint64_t state_;
};

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

// -------------------------------------------------------------- statistics

/// q-quantile by nearest rank on a copy; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// ------------------------------------------------------------------ oracle

constexpr std::size_t kPayloadSize = 64;  // smallest size: per-packet cost

/// Exactly-once, byte-identical delivery check. Every message is 64 bytes:
/// association id, sequence number and due time, then 48 filler bytes drawn
/// from a seeded pool by (association, sequence). Receivers hand every
/// delivered payload back here; anything that does not match a submitted
/// message, or matches one twice, is recorded as a failure of the run.
class Oracle {
 public:
  Oracle(std::uint64_t seed, std::size_t assocs, std::size_t cap_per_assoc);

  /// Builds the payload of the next message on association index `a`.
  /// Returns an empty buffer once the association's capacity is spent.
  /// `due` is in the delivering node's clock units.
  alpha::crypto::Bytes make(std::size_t a, std::uint32_t assoc_id,
                            std::uint64_t due);

  /// Checks one delivered payload. Returns its due time, or UINT64_MAX when
  /// the delivery is forged, altered, misrouted or a duplicate.
  std::uint64_t deliver(std::uint32_t assoc_id,
                        alpha::crypto::ByteView payload);

  /// Maps an association id to its index (ids are first_id + index).
  void set_first_id(std::uint32_t first) { first_id_ = first; }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t forged() const { return forged_; }
  std::uint64_t duplicated() const { return duplicated_; }
  std::uint64_t undelivered() const { return attempted_ - delivered_; }

 private:
  const std::uint8_t* filler(std::size_t a, std::uint32_t seq) const;

  std::uint32_t first_id_ = 1;
  std::size_t cap_;
  std::vector<std::uint8_t> pool_;         // kPoolBlocks x 48 seeded bytes
  std::vector<std::uint32_t> next_seq_;    // per association
  std::vector<std::uint64_t> seen_;        // per association bitmap
  std::uint64_t attempted_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t forged_ = 0;
  std::uint64_t duplicated_ = 0;
};

// ------------------------------------------------------------------ slices

/// Wall/CPU/ops of one equal slice of deterministic work. Throughput and
/// CPU per op are medians over slices, so a host-speed regime that covers
/// a minority of a run does not move them.
struct Slice {
  std::uint64_t wall_ns = 0;
  std::uint64_t cpu_ns = 0;
  std::uint64_t ops = 0;
  double speed = 1.0;  // kReferenceCalNs / calibration loop time
  bool traced = false;
};

class SliceClock {
 public:
  void reserve(std::size_t n) { slices_.reserve(n); }
  /// Starts a slice; with `calibrate`, runs the calibration loop first
  /// (outside the slice) so the slice's times can be scaled.
  void begin(std::uint64_t ops_now, bool calibrate = true);
  void end(std::uint64_t ops_now, bool traced);
  const std::vector<Slice>& slices() const { return slices_; }
  /// Median over the untraced (or traced) slices of ops/s and CPU us/op,
  /// scaled to the reference speed (`scaled`) or as measured.
  double ops_per_s(bool traced, bool scaled = true) const;
  double cpu_us_per_op(bool traced, bool scaled = true) const;
  /// Median host speed over all slices, or over the traced ones only
  /// (1.0 = reference).
  double host_speed() const;
  double host_speed(bool traced) const;
  std::uint64_t wall_ns(bool traced) const;
  std::uint64_t ops(bool traced) const;

 private:
  std::uint64_t wall0_ = 0, cpu0_ = 0, ops0_ = 0;
  double speed_ = 1.0;
  std::vector<Slice> slices_;
};

// ------------------------------------------------------------------ result

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;  // end-to-end (trace 0) or per-layer (trace 1)
  std::vector<std::string> notes;  // human-readable context, on stderr
  /// Unscaled figures and the host speed, for the provenance line.
  std::vector<std::pair<std::string, double>> info;
  double path_rtt_us = 0;
  std::uint64_t latency_samples = 0;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;         // self-test size
  double link_loss = 0.0;    // self-test: prove failures are counted
};

Result run_mesh_relay(const RunConfig& rc);
Result run_direct_assocs(const RunConfig& rc);
Result run_assoc_churn(const RunConfig& rc);
Result run_udp_relay(const RunConfig& rc);

}  // namespace perfbench
