// Lower-layer replay: frames captured by the transport decorator during the
// traced slices are pushed again, after the run, through the library's
// public wire and crypto functions, one layer at a time. Each loop runs
// several times and the median per-frame time is reported, so a host-speed
// change during one pass does not decide the figure.
#include <optional>

#include "crypto/mac.hpp"
#include "crypto/random.hpp"
#include "hashchain/chain.hpp"
#include "wire/packets.hpp"
#include "workload_common.hpp"

namespace perfbench {

namespace {
constexpr int kPasses = 7;
constexpr int kChains = 31;  // one generation is ~0.1 ms: take many

/// Host speed from the median of a few calibration runs.
double measured_speed() {
  std::vector<double> v;
  for (int i = 0; i < 5; ++i) {
    v.push_back(static_cast<double>(calibration_ns()));
  }
  return kReferenceCalNs / median(v);
}

template <typename Fn>
double median_pass_ns(std::size_t items, Fn&& pass) {
  std::vector<double> per_item;
  if (items == 0) return 0;
  for (int i = 0; i < kPasses; ++i) {
    const std::uint64_t t0 = wall_ns();
    pass();
    per_item.push_back(static_cast<double>(wall_ns() - t0) /
                       static_cast<double>(items));
  }
  return median(per_item);
}
}  // namespace

void replay_layers(const ReplayInput& in, Result& r) {
  namespace wire = alpha::wire;
  const auto& frames = *in.frames;
  volatile std::size_t sink = 0;
  const double speed0 = measured_speed();

  const double decode_ns = median_pass_ns(frames.size(), [&] {
    for (const auto& f : frames) sink = sink + wire::decode(f).has_value();
  });

  std::vector<alpha::crypto::ByteView> s2s;
  for (const auto& f : frames) {
    if (wire::peek_type(f) == wire::PacketType::kS2) s2s.emplace_back(f);
  }
  const double parse_ns = median_pass_ns(s2s.size(), [&] {
    for (const auto& f : s2s) sink = sink + wire::parse_s2(f).has_value();
  });

  // One MAC context per S2, keyed with the element the S2 discloses, built
  // outside the timed pass: the timed part is the per-message MAC check.
  std::vector<alpha::crypto::MacContext> macs;
  std::vector<alpha::crypto::ByteView> payloads;
  macs.reserve(s2s.size());
  for (const auto& f : s2s) {
    const auto v = wire::parse_s2(f);
    if (!v) continue;
    macs.emplace_back(in.config.mac_kind, in.config.algo,
                      v->disclosed_element.view());
    payloads.push_back(v->payload);
  }
  const double mac_ns = median_pass_ns(macs.size(), [&] {
    for (std::size_t i = 0; i < macs.size(); ++i) {
      sink = sink + macs[i].mac(payloads[i]).data()[0];
    }
  });

  alpha::crypto::HmacDrbg rng(in.seed);
  std::vector<double> gen_us;
  for (int i = 0; i < kChains; ++i) {
    const std::uint64_t t0 = wall_ns();
    const auto chain = alpha::hashchain::HashChain::generate(
        in.config.algo, alpha::hashchain::ChainTagging::kRoleBound, rng,
        in.config.chain_length);
    gen_us.push_back(static_cast<double>(wall_ns() - t0) / 1e3);
    sink = sink + chain.length();
  }

  const double speed = (speed0 + measured_speed()) / 2;
  r.add("wire.decode_ns_per_frame", speed * decode_ns, "ns");
  r.add("wire.parse_s2_ns_per_frame", speed * parse_ns, "ns");
  r.add("crypto.mac_ns_per_s2", speed * mac_ns, "ns");
  r.add("hashchain.generate_us_per_chain", speed * median(gen_us), "us");
}

}  // namespace perfbench
