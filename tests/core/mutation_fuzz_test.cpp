// Mutation fuzz: no single-bit-flipped (or randomly mutated) protocol frame
// may ever be accepted by the verifier or forwarded by the relay as valid.
// The only frames that may have an effect are the untouched originals.
#include <gtest/gtest.h>

#include "core/relay.hpp"
#include "core/signer.hpp"
#include "core/verifier.hpp"
#include "test_bus.hpp"

namespace alpha::core {
namespace {

using crypto::Bytes;
using crypto::ByteView;
using crypto::HmacDrbg;

// Captures one complete reliable round's frames (S1, A1, S2, A2).
struct CapturedRound {
  Bytes s1, a1, s2, a2;
  hashchain::HashChain sig_chain;
  hashchain::HashChain ack_chain;
  Config config;

  static CapturedRound make() {
    Config config;
    config.reliable = true;
    HmacDrbg rng{17};
    auto sig = hashchain::HashChain::generate(
        config.algo, hashchain::ChainTagging::kRoleBound, rng, 64);
    auto ack = hashchain::HashChain::generate(
        config.algo, hashchain::ChainTagging::kRoleBound, rng, 64);

    CapturedRound cap{Bytes{}, Bytes{}, Bytes{}, Bytes{}, sig, ack, config};

    std::vector<Bytes> to_v, to_s;
    SignerEngine::Callbacks scb;
    scb.send = [&](Bytes f) { to_v.push_back(std::move(f)); };
    SignerEngine signer{config, 1, sig, ack.anchor(), ack.length(),
                        std::move(scb)};
    VerifierEngine::Callbacks vcb;
    vcb.send = [&](Bytes f) { to_s.push_back(std::move(f)); };
    VerifierEngine verifier{config, 1,    ack,           sig.anchor(),
                            sig.length(), std::move(vcb), rng};

    const auto payload = crypto::as_bytes("fuzz me");
    signer.submit(Bytes(payload.begin(), payload.end()), 0);
    cap.s1 = to_v.at(0);
    verifier.on_s1(std::get<wire::S1Packet>(*wire::decode(cap.s1)));
    cap.a1 = to_s.at(0);
    signer.on_a1(std::get<wire::A1Packet>(*wire::decode(cap.a1)), 0);
    cap.s2 = to_v.at(1);
    verifier.on_s2(*wire::parse_s2(cap.s2));
    cap.a2 = to_s.at(1);
    return cap;
  }
};

// Fresh verifier initialized to the same anchors (accepts the original
// round exactly once).
struct FreshVerifier {
  explicit FreshVerifier(const CapturedRound& cap)
      : rng(99),
        verifier(cap.config, 1, cap.ack_chain, cap.sig_chain.anchor(),
                 cap.sig_chain.length(),
                 VerifierEngine::Callbacks{
                     [](Bytes) {},
                     [this](std::uint32_t, std::uint16_t, ByteView) {
                       ++delivered;
                     }},
                 rng) {}

  HmacDrbg rng;
  std::size_t delivered = 0;
  VerifierEngine verifier;
};

void feed(VerifierEngine& v, ByteView frame) {
  if (const auto s2 = wire::parse_s2(frame)) return v.on_s2(*s2);
  const auto packet = wire::decode(frame);
  if (!packet.has_value()) return;
  if (const auto* s1 = std::get_if<wire::S1Packet>(&*packet)) {
    v.on_s1(*s1);
  }
}

TEST(MutationFuzzTest, NoSingleBitFlipDeliversAMessage) {
  const CapturedRound cap = CapturedRound::make();

  for (const Bytes* frame : {&cap.s1, &cap.s2}) {
    for (std::size_t byte = 0; byte < frame->size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        FreshVerifier fv{cap};
        // Mutated S1 first (where applicable), then genuine S1, then the
        // mutated S2 -- covering both packet positions.
        if (frame == &cap.s1) {
          Bytes mutated = cap.s1;
          mutated[byte] ^= static_cast<std::uint8_t>(1 << bit);
          feed(fv.verifier, mutated);
          feed(fv.verifier, cap.s2);
        } else {
          feed(fv.verifier, cap.s1);
          Bytes mutated = cap.s2;
          mutated[byte] ^= static_cast<std::uint8_t>(1 << bit);
          feed(fv.verifier, mutated);
        }
        ASSERT_EQ(fv.delivered, 0u)
            << "bit flip accepted: frame="
            << (frame == &cap.s1 ? "S1" : "S2") << " byte=" << byte
            << " bit=" << bit;
      }
    }
  }

  // Control: the untouched round delivers exactly once.
  FreshVerifier fv{cap};
  feed(fv.verifier, cap.s1);
  feed(fv.verifier, cap.s2);
  EXPECT_EQ(fv.delivered, 1u);
}

TEST(MutationFuzzTest, RelayForwardsNoMutatedPayloads) {
  const CapturedRound cap = CapturedRound::make();

  HmacDrbg rng{7};
  for (int iter = 0; iter < 500; ++iter) {
    RelayEngine::Callbacks cb;
    std::size_t extracted = 0;
    cb.forward = [](Direction, ByteView) {};
    cb.on_extracted = [&](std::uint32_t, std::uint32_t, std::uint16_t,
                          ByteView) { ++extracted; };
    RelayEngine relay{cap.config, RelayEngine::Options{}, std::move(cb)};

    // Teach the relay the genuine anchors.
    wire::HandshakePacket hs;
    hs.hdr = {1, 1};
    hs.algo = cap.config.algo;
    hs.chain_length = 64;
    hs.sig_anchor = cap.sig_chain.anchor();
    hs.sig_anchor_index = 64;
    hs.ack_anchor = cap.ack_chain.anchor();
    hs.ack_anchor_index = 64;
    relay.on_frame(Direction::kForward, hs.encode());
    wire::HandshakePacket hs2 = hs;
    hs2.is_response = true;
    relay.on_frame(Direction::kReverse, hs2.encode());

    relay.on_frame(Direction::kForward, cap.s1);
    relay.on_frame(Direction::kReverse, cap.a1);

    // Random multi-byte mutation of the S2.
    Bytes mutated = cap.s2;
    const std::size_t flips = 1 + rng.uniform(4);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.uniform(mutated.size())] ^=
          static_cast<std::uint8_t>(1 + rng.uniform(255));
    }
    if (mutated == cap.s2) continue;  // mutation cancelled itself out
    relay.on_frame(Direction::kForward, mutated);
    ASSERT_EQ(extracted, 0u) << "iter " << iter;
  }
}

}  // namespace
}  // namespace alpha::core
