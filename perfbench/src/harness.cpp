#include "harness.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>

// ----------------------------------------------------- allocation counting
//
// The benchmark binary replaces the global operator new/delete family (the
// pattern of tests/support/alloc_hook.hpp) so allocations are counted from
// outside the library. Defined in this one translation unit only.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void* counted_alloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}
void* counted_alloc(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded ? rounded : a)) return p;
  throw std::bad_alloc{};
}
void* counted_alloc_nothrow(std::size_t size) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace perfbench {

std::uint64_t process_cpu_ns() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ns = [](const timeval& tv) {
    return static_cast<std::uint64_t>(tv.tv_sec) * 1'000'000'000ull +
           static_cast<std::uint64_t>(tv.tv_usec) * 1000ull;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

std::uint64_t heap_bytes() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

AllocCounts alloc_counts() {
  return {g_alloc_count.load(std::memory_order_relaxed),
          g_alloc_bytes.load(std::memory_order_relaxed)};
}

double Rng::exp_gap(double mean) { return -mean * std::log(unit()); }

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  Rng r(seed ^ (salt * 0xd1b54a32d192ed03ull));
  return r.next();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  const std::size_t rank = std::min(
      v.size() - 1,
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size()))) -
          (q > 0 ? 1 : 0));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return v[rank];
}

// ------------------------------------------------------------------ oracle

namespace {
constexpr std::size_t kFillerSize = kPayloadSize - 16;
constexpr std::size_t kPoolBlocks = 1021;  // prime: (assoc, seq) spread

void put32(std::uint8_t* p, std::uint32_t v) { std::memcpy(p, &v, 4); }
void put64(std::uint8_t* p, std::uint64_t v) { std::memcpy(p, &v, 8); }
std::uint32_t get32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
std::uint64_t get64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}
}  // namespace

Oracle::Oracle(std::uint64_t seed, std::size_t assocs,
               std::size_t cap_per_assoc)
    : cap_(cap_per_assoc),
      pool_(kPoolBlocks * kFillerSize),
      next_seq_(assocs, 0),
      seen_(assocs * ((cap_per_assoc + 63) / 64), 0) {
  Rng rng(mix_seed(seed, 0x0a11ce));
  for (std::size_t i = 0; i < pool_.size(); i += 8) {
    const std::uint64_t w = rng.next();
    std::memcpy(pool_.data() + i, &w,
                std::min<std::size_t>(8, pool_.size() - i));
  }
}

const std::uint8_t* Oracle::filler(std::size_t a, std::uint32_t seq) const {
  const std::size_t block = (a * 7919 + seq) % kPoolBlocks;
  return pool_.data() + block * kFillerSize;
}

alpha::crypto::Bytes Oracle::make(std::size_t a, std::uint32_t assoc_id,
                                  std::uint64_t due) {
  const std::uint32_t seq = next_seq_[a];
  if (seq >= cap_) return {};
  ++next_seq_[a];
  ++attempted_;
  alpha::crypto::Bytes p(kPayloadSize);
  put32(p.data(), assoc_id);
  put32(p.data() + 4, seq);
  put64(p.data() + 8, due);
  std::memcpy(p.data() + 16, filler(a, seq), kFillerSize);
  return p;
}

std::uint64_t Oracle::deliver(std::uint32_t assoc_id,
                              alpha::crypto::ByteView payload) {
  constexpr std::uint64_t kBad = UINT64_MAX;
  if (payload.size() != kPayloadSize || get32(payload.data()) != assoc_id ||
      assoc_id < first_id_) {
    ++forged_;
    return kBad;
  }
  const std::size_t a = assoc_id - first_id_;
  const std::uint32_t seq = get32(payload.data() + 4);
  if (a >= next_seq_.size() || seq >= next_seq_[a] ||
      std::memcmp(payload.data() + 16, filler(a, seq), kFillerSize) != 0) {
    ++forged_;
    return kBad;
  }
  std::uint64_t& word = seen_[a * ((cap_ + 63) / 64) + seq / 64];
  const std::uint64_t bit = 1ull << (seq % 64);
  if (word & bit) {
    ++duplicated_;
    return kBad;
  }
  word |= bit;
  ++delivered_;
  return get64(payload.data() + 8);
}

// ------------------------------------------------------------ calibration

namespace {
volatile std::uint64_t g_calibration_sink = 0;  // keeps the loop's reads
}  // namespace

std::uint64_t calibration_ns() {
  constexpr std::size_t kClasses = 64, kPerClass = 8, kBlock = 512;
  constexpr int kIters = 60000;
  alignas(64) static std::uint8_t arena[kClasses * kPerClass * kBlock];
  std::uint8_t* heads[kClasses];
  // Thread each class's blocks into a free list (link in the first bytes).
  for (std::size_t c = 0; c < kClasses; ++c) {
    heads[c] = nullptr;
    for (std::size_t k = 0; k < kPerClass; ++k) {
      std::uint8_t* blk = arena + (c * kPerClass + k) * kBlock;
      std::memcpy(blk, &heads[c], sizeof heads[c]);
      heads[c] = blk;
    }
  }
  auto pop = [&](std::size_t c) {
    std::uint8_t* b = heads[c];
    std::memcpy(&heads[c], b, sizeof heads[c]);
    return b;
  };
  auto push = [&](std::size_t c, std::uint8_t* b) {
    std::memcpy(b, &heads[c], sizeof heads[c]);
    heads[c] = b;
  };
  std::uint64_t sum = 0;
  const std::uint64_t t0 = wall_ns();
  for (int i = 0; i < kIters; ++i) {
    const std::size_t c = static_cast<std::size_t>(i) % kClasses;
    const std::size_t d = (c + 1) % kClasses;
    std::uint8_t* a = pop(c);
    std::uint8_t* b = pop(d);
    const std::size_t len = 64 + static_cast<std::size_t>(i & 255);
    std::memset(a + 8, i, std::min<std::size_t>(len, kBlock - 8));
    sum += a[8 + (i & 63)];
    push(c, a);
    push(d, b);
  }
  const std::uint64_t t1 = wall_ns();
  g_calibration_sink = sum;
  return t1 - t0;
}

SetupTimer::SetupTimer() : cal0_(calibration_ns()), t0_(wall_ns()) {}

double SetupTimer::stop(double* raw_s) {
  const std::uint64_t t1 = wall_ns();
  const double cal =
      (static_cast<double>(cal0_) + static_cast<double>(calibration_ns())) / 2;
  *raw_s = static_cast<double>(t1 - t0_) / 1e9;
  return *raw_s * kReferenceCalNs / cal;
}

// ------------------------------------------------------------------ slices

void SliceClock::begin(std::uint64_t ops_now, bool calibrate) {
  speed_ = calibrate ? kReferenceCalNs / static_cast<double>(calibration_ns())
                     : 1.0;
  ops0_ = ops_now;
  cpu0_ = process_cpu_ns();
  wall0_ = perfbench::wall_ns();
}

void SliceClock::end(std::uint64_t ops_now, bool traced) {
  const std::uint64_t w = perfbench::wall_ns();
  const std::uint64_t c = process_cpu_ns();
  slices_.push_back({w - wall0_, c - cpu0_, ops_now - ops0_, speed_, traced});
}

double SliceClock::ops_per_s(bool traced, bool scaled) const {
  std::vector<double> v;
  for (const Slice& s : slices_) {
    if (s.traced == traced && s.wall_ns > 0 && s.ops > 0) {
      v.push_back(static_cast<double>(s.ops) * 1e9 /
                  static_cast<double>(s.wall_ns) / (scaled ? s.speed : 1.0));
    }
  }
  return median(v);
}

double SliceClock::cpu_us_per_op(bool traced, bool scaled) const {
  std::vector<double> v;
  for (const Slice& s : slices_) {
    if (s.traced == traced && s.ops > 0) {
      v.push_back(static_cast<double>(s.cpu_ns) / 1e3 /
                  static_cast<double>(s.ops) * (scaled ? s.speed : 1.0));
    }
  }
  return median(v);
}

double SliceClock::host_speed() const {
  std::vector<double> v;
  for (const Slice& s : slices_) v.push_back(s.speed);
  return median(v);
}

double SliceClock::host_speed(bool traced) const {
  std::vector<double> v;
  for (const Slice& s : slices_) {
    if (s.traced == traced) v.push_back(s.speed);
  }
  return median(v);
}

std::uint64_t SliceClock::wall_ns(bool traced) const {
  std::uint64_t t = 0;
  for (const Slice& s : slices_) {
    if (s.traced == traced) t += s.wall_ns;
  }
  return t;
}

std::uint64_t SliceClock::ops(bool traced) const {
  std::uint64_t t = 0;
  for (const Slice& s : slices_) {
    if (s.traced == traced) t += s.ops;
  }
  return t;
}

}  // namespace perfbench
