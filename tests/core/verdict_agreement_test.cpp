// Differential verdict oracle: relays and verifiers run the same S2 check
// (core/commitment.hpp), so for every S2 -- genuine, tampered, or spliced in
// from another round or another association -- a relay extracts the payload
// exactly when a fresh verifier delivers it, in every mode, reliable or not.
//
// Each candidate S2 is judged by a fresh pair: a RelayEngine that has seen
// the handshake plus the round's S1 and A1, and a VerifierEngine that has
// seen the round's S1. Tampered frames get their CRC trailer recomputed, so
// every mutation reaches the commitment check instead of dying at decode.
//
// In the acknowledgment direction a relay holds one A1 per round: an older
// A1 relabelled to a later round must neither pass nor replace the round's
// commitments, or the round's genuine A2s would be dropped.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "core/relay.hpp"
#include "core/signer.hpp"
#include "core/verifier.hpp"

namespace alpha::core {
namespace {

using crypto::Bytes;
using crypto::ByteView;

constexpr std::uint32_t kAssoc = 7;
constexpr int kRounds = 3;

struct VerdictCase {
  const char* name;
  Mode mode;
  std::size_t batch;
  bool reliable;
};

void PrintTo(const VerdictCase& c, std::ostream* os) { *os << c.name; }

Config make_config(const VerdictCase& c) {
  Config config;
  config.mode = c.mode;
  config.batch_size = c.batch;
  config.merkle_group = 2;  // ALPHA-C+M: two roots per round of four
  config.reliable = c.reliable;
  config.chain_length = 64;
  return config;
}

/// One association's chains and the frames of kRounds complete rounds.
struct Recording {
  hashchain::HashChain sig_chain;
  hashchain::HashChain ack_chain;
  std::vector<Bytes> s1;               // per round
  std::vector<Bytes> a1;               // per round
  std::vector<std::vector<Bytes>> s2;  // per round, per message
  std::vector<std::vector<Bytes>> a2;  // per round, per message (reliable)
};

Recording record(const Config& config, std::uint64_t seed) {
  crypto::HmacDrbg rng(seed);
  Recording rec{
      hashchain::HashChain::generate(config.algo,
                                     hashchain::ChainTagging::kRoleBound, rng,
                                     config.chain_length),
      hashchain::HashChain::generate(config.algo,
                                     hashchain::ChainTagging::kRoleBound, rng,
                                     config.chain_length),
      {}, {}, {}, {}};

  std::deque<std::pair<bool, Bytes>> queue;  // (toward verifier, frame)
  SignerEngine::Callbacks scb;
  scb.send = [&](Bytes f) { queue.emplace_back(true, std::move(f)); };
  SignerEngine signer(config, kAssoc, rec.sig_chain, rec.ack_chain.anchor(),
                      rec.ack_chain.length(), std::move(scb));
  VerifierEngine::Callbacks vcb;
  vcb.send = [&](Bytes f) { queue.emplace_back(false, std::move(f)); };
  VerifierEngine verifier(config, kAssoc, rec.ack_chain,
                          rec.sig_chain.anchor(), rec.sig_chain.length(),
                          std::move(vcb), rng);

  const std::size_t batch = config.effective_batch();
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t m = 0; m < batch; ++m) {
      const std::string text =
          "round " + std::to_string(round) + " message " + std::to_string(m);
      signer.submit(Bytes(text.begin(), text.end()), 0);
    }
    rec.s2.emplace_back();
    rec.a2.emplace_back();
    while (!queue.empty()) {
      auto [toward_verifier, frame] = std::move(queue.front());
      queue.pop_front();
      switch (*wire::peek_type(frame)) {
        case wire::PacketType::kS1:
          rec.s1.push_back(frame);
          verifier.on_s1(std::get<wire::S1Packet>(*wire::decode(frame)));
          break;
        case wire::PacketType::kA1:
          rec.a1.push_back(frame);
          signer.on_a1(std::get<wire::A1Packet>(*wire::decode(frame)), 0);
          break;
        case wire::PacketType::kS2:
          rec.s2.back().push_back(frame);
          verifier.on_s2(*wire::parse_s2(frame));
          break;
        case wire::PacketType::kA2:
          rec.a2.back().push_back(frame);
          signer.on_a2(std::get<wire::A2Packet>(*wire::decode(frame)), 0);
          break;
        default:
          ADD_FAILURE() << "unexpected frame type";
      }
      EXPECT_TRUE(toward_verifier ==
                  (wire::peek_type(frame) == wire::PacketType::kS1 ||
                   wire::peek_type(frame) == wire::PacketType::kS2));
    }
  }
  EXPECT_EQ(rec.s1.size(), static_cast<std::size_t>(kRounds));
  EXPECT_EQ(rec.a1.size(), static_cast<std::size_t>(kRounds));
  for (const auto& round : rec.s2) EXPECT_EQ(round.size(), batch);
  return rec;
}

/// Recomputes the CRC trailer over the (edited) body.
void reseal(Bytes& frame) {
  const std::size_t body = frame.size() - wire::kFrameChecksumSize;
  const std::uint32_t crc =
      wire::frame_checksum(ByteView{frame.data(), body});
  for (std::size_t i = 0; i < wire::kFrameChecksumSize; ++i) {
    frame[body + i] = static_cast<std::uint8_t>(crc >> (24 - 8 * i));
  }
}

/// Rewrites the header's round number (bytes 6..9) and reseals.
Bytes with_seq(Bytes frame, std::uint32_t seq) {
  for (int i = 0; i < 4; ++i) {
    frame[6 + i] = static_cast<std::uint8_t>(seq >> (24 - 8 * i));
  }
  reseal(frame);
  return frame;
}

struct Verdict {
  bool extracted = false;  // relay authenticated and extracted the payload
  bool delivered = false;  // verifier authenticated and delivered it
};

/// A relay that has seen the association's handshake.
RelayEngine handshaken_relay(const Config& config, const Recording& ctx,
                             RelayEngine::Callbacks callbacks = {}) {
  RelayEngine relay(config, {}, std::move(callbacks));
  wire::HandshakePacket hs;
  hs.hdr = {kAssoc, 1};
  hs.algo = config.algo;
  hs.chain_length = static_cast<std::uint32_t>(config.chain_length);
  hs.sig_anchor = ctx.sig_chain.anchor();
  hs.sig_anchor_index = static_cast<std::uint32_t>(ctx.sig_chain.length());
  hs.ack_anchor = ctx.ack_chain.anchor();
  hs.ack_anchor_index = static_cast<std::uint32_t>(ctx.ack_chain.length());
  EXPECT_EQ(relay.on_frame(Direction::kForward, hs.encode()),
            RelayDecision::kForwarded);
  hs.is_response = true;
  EXPECT_EQ(relay.on_frame(Direction::kReverse, hs.encode()),
            RelayDecision::kForwarded);
  return relay;
}

/// Judges `candidate` against round `round` (0-based) of `ctx` with a fresh
/// relay and a fresh verifier.
Verdict judge(const Config& config, const Recording& ctx, int round,
              const Bytes& candidate) {
  Verdict v;
  RelayEngine::Callbacks rcb;
  rcb.on_extracted = [&](std::uint32_t, std::uint32_t, std::uint16_t,
                         ByteView) { v.extracted = true; };
  RelayEngine relay = handshaken_relay(config, ctx, std::move(rcb));
  EXPECT_EQ(relay.on_frame(Direction::kForward, ctx.s1[round]),
            RelayDecision::kForwarded);
  EXPECT_EQ(relay.on_frame(Direction::kReverse, ctx.a1[round]),
            RelayDecision::kForwarded);
  relay.on_frame(Direction::kForward, candidate);

  crypto::HmacDrbg rng(99);
  VerifierEngine::Callbacks vcb;
  vcb.send = [](Bytes) {};
  vcb.on_message = [&](std::uint32_t, std::uint16_t, ByteView) {
    v.delivered = true;
  };
  VerifierEngine verifier(config, kAssoc, ctx.ack_chain,
                          ctx.sig_chain.anchor(), ctx.sig_chain.length(),
                          std::move(vcb), rng);
  verifier.on_s1(std::get<wire::S1Packet>(*wire::decode(ctx.s1[round])));
  EXPECT_EQ(verifier.stats().s1_accepted, 1u);
  if (const auto s2 = wire::parse_s2(candidate)) verifier.on_s2(*s2);
  return v;
}

/// True when `mutant` decodes to exactly the packet `genuine` encodes: a
/// non-canonical spelling (e.g. a path flag of 2 instead of 1) of an S2 the
/// signer did produce, which both sides must then accept.
bool same_packet(const Bytes& mutant, const Bytes& genuine) {
  const auto packet = wire::decode(mutant);
  const auto* s2 = packet ? std::get_if<wire::S2Packet>(&*packet) : nullptr;
  return s2 != nullptr && s2->encode() == genuine;
}

class VerdictAgreement : public ::testing::TestWithParam<VerdictCase> {};

TEST_P(VerdictAgreement, GenuineS2sPassBoth) {
  const Config config = make_config(GetParam());
  const Recording rec = record(config, 1);
  for (int round = 0; round < kRounds; ++round) {
    for (const Bytes& s2 : rec.s2[round]) {
      const Verdict v = judge(config, rec, round, s2);
      EXPECT_TRUE(v.extracted) << "round " << round;
      EXPECT_TRUE(v.delivered) << "round " << round;
    }
  }
}

TEST_P(VerdictAgreement, ResealedMutationsAgree) {
  const Config config = make_config(GetParam());
  const Recording rec = record(config, 1);
  const int round = 1;
  std::size_t judged = 0;
  std::size_t accepted = 0;
  const auto check = [&](const Bytes& mutant, const std::string& what) {
    const Verdict v = judge(config, rec, round, mutant);
    const bool expected = same_packet(mutant, rec.s2[round].front());
    EXPECT_EQ(v.extracted, v.delivered) << what;
    EXPECT_EQ(v.delivered, expected) << what;
    ++judged;
    if (v.delivered) ++accepted;
  };

  const Bytes& genuine = rec.s2[round].front();
  const std::size_t body = genuine.size() - wire::kFrameChecksumSize;
  // Every single-byte mutation of the body, three masks per position.
  for (std::size_t pos = 0; pos < body; ++pos) {
    for (const std::uint8_t mask : {0x01, 0x80, 0xff}) {
      Bytes mutant = genuine;
      mutant[pos] ^= mask;
      reseal(mutant);
      check(mutant, "byte " + std::to_string(pos) + " ^ " +
                        std::to_string(mask));
    }
  }
  // Seeded multi-byte mutations: 2..6 distinct body bytes each.
  std::mt19937 prng(20081209);
  for (int trial = 0; trial < 128; ++trial) {
    Bytes mutant = genuine;
    const int bytes = 2 + static_cast<int>(prng() % 5);
    std::vector<std::size_t> positions;
    while (positions.size() < static_cast<std::size_t>(bytes)) {
      const std::size_t pos = prng() % body;
      if (std::find(positions.begin(), positions.end(), pos) ==
          positions.end()) {
        positions.push_back(pos);
      }
    }
    for (const std::size_t pos : positions) {
      mutant[pos] ^= static_cast<std::uint8_t>(1 + prng() % 255);
    }
    reseal(mutant);
    check(mutant, "multi-byte trial " + std::to_string(trial));
  }
  EXPECT_EQ(judged, 3 * body + 128);
  // Only non-canonical spellings of the genuine S2 may pass (the path flag
  // of a Merkle S2 is any non-zero byte); everything else is refused.
  EXPECT_LE(accepted, 2u);
}

TEST_P(VerdictAgreement, CrossRoundSplicesRejectedByBoth) {
  const Config config = make_config(GetParam());
  const Recording rec = record(config, 1);
  for (int x = 0; x < kRounds; ++x) {
    const auto seq_x = wire::peek_header(rec.s1[x])->seq;
    for (int y = 0; y < kRounds; ++y) {
      if (y == x) continue;
      for (const Bytes& s2 : rec.s2[y]) {
        const Verdict v = judge(config, rec, x, with_seq(s2, seq_x));
        EXPECT_FALSE(v.extracted) << "S2 of round " << y << " in round " << x;
        EXPECT_FALSE(v.delivered) << "S2 of round " << y << " in round " << x;
      }
    }
  }
}

TEST_P(VerdictAgreement, CrossAssociationSplicesRejectedByBoth) {
  // Association B: same id and parameters, its own chains. Its S2s carry
  // the same header, round numbers and chain indices as A's.
  const Config config = make_config(GetParam());
  const Recording a = record(config, 1);
  const Recording b = record(config, 2);
  for (int round = 0; round < kRounds; ++round) {
    ASSERT_EQ(wire::peek_header(a.s1[round])->seq,
              wire::peek_header(b.s1[round])->seq);
    for (const Bytes& s2 : b.s2[round]) {
      const Verdict v = judge(config, a, round, s2);
      EXPECT_FALSE(v.extracted) << "round " << round;
      EXPECT_FALSE(v.delivered) << "round " << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, VerdictAgreement,
    ::testing::Values(
        VerdictCase{"Base", Mode::kBase, 1, false},
        VerdictCase{"BaseReliable", Mode::kBase, 1, true},
        VerdictCase{"Cumulative", Mode::kCumulative, 4, false},
        VerdictCase{"CumulativeReliable", Mode::kCumulative, 4, true},
        VerdictCase{"Merkle", Mode::kMerkle, 4, false},
        VerdictCase{"MerkleReliable", Mode::kMerkle, 4, true},
        VerdictCase{"CumulativeMerkle", Mode::kCumulativeMerkle, 4, false},
        VerdictCase{"CumulativeMerkleReliable", Mode::kCumulativeMerkle, 4,
                    true}),
    [](const ::testing::TestParamInfo<VerdictCase>& info) {
      return std::string(info.param.name);
    });

// Acknowledgment direction, for the pre-ack (base, ALPHA-C) and AMT
// (ALPHA-M, ALPHA-C+M) schemes.
class AckVerdict : public ::testing::TestWithParam<VerdictCase> {};

/// Feeds round `round`'s S1, A1 and S2s through `relay`.
void run_round_through(RelayEngine& relay, const Recording& rec, int round) {
  EXPECT_EQ(relay.on_frame(Direction::kForward, rec.s1[round]),
            RelayDecision::kForwarded);
  EXPECT_EQ(relay.on_frame(Direction::kReverse, rec.a1[round]),
            RelayDecision::kForwarded);
  for (const Bytes& s2 : rec.s2[round]) {
    EXPECT_EQ(relay.on_frame(Direction::kForward, s2),
              RelayDecision::kForwarded);
  }
}

TEST_P(AckVerdict, RelabelledOldA1DroppedAndGenuineA2sForwarded) {
  // Round 1's A1 relabelled to round 2 and resealed: its element is older
  // than round 2's, so a relay that derived it forward from round 2's would
  // forward it and take its commitments, then drop round 2's genuine A2s.
  // The signer refuses it (announcements must be fresh); so must the relay.
  const Config config = make_config(GetParam());
  const Recording rec = record(config, 1);
  ASSERT_EQ(rec.a2[1].size(), config.effective_batch());
  RelayEngine relay = handshaken_relay(config, rec);
  run_round_through(relay, rec, 0);
  run_round_through(relay, rec, 1);
  const auto seq = wire::peek_header(rec.s1[1])->seq;
  EXPECT_NE(relay.on_frame(Direction::kReverse, with_seq(rec.a1[0], seq)),
            RelayDecision::kForwarded);
  for (const Bytes& a2 : rec.a2[1]) {
    EXPECT_EQ(relay.on_frame(Direction::kReverse, a2),
              RelayDecision::kForwarded);
  }
}

TEST_P(AckVerdict, ExactA1RetransmissionForwardedWithoutReplacingRound) {
  // A verifier resends an A1 that was lost past the relay: the relay passes
  // the copy on, and the round's A2s still match the commitments. A
  // different A1 for the round -- the next round's, relabelled -- is not.
  const Config config = make_config(GetParam());
  const Recording rec = record(config, 1);
  RelayEngine relay = handshaken_relay(config, rec);
  run_round_through(relay, rec, 0);
  run_round_through(relay, rec, 1);
  EXPECT_EQ(relay.on_frame(Direction::kReverse, rec.a1[0]),
            RelayDecision::kForwarded);
  EXPECT_EQ(relay.on_frame(Direction::kReverse, rec.a1[1]),
            RelayDecision::kForwarded);
  const auto seq0 = wire::peek_header(rec.s1[0])->seq;
  EXPECT_NE(relay.on_frame(Direction::kReverse, with_seq(rec.a1[1], seq0)),
            RelayDecision::kForwarded);
  for (int round = 0; round < 2; ++round) {
    for (const Bytes& a2 : rec.a2[round]) {
      EXPECT_EQ(relay.on_frame(Direction::kReverse, a2),
                RelayDecision::kForwarded)
          << "round " << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ReliableModes, AckVerdict,
    ::testing::Values(
        VerdictCase{"BasePreAck", Mode::kBase, 1, true},
        VerdictCase{"CumulativePreAck", Mode::kCumulative, 4, true},
        VerdictCase{"MerkleAmt", Mode::kMerkle, 4, true},
        VerdictCase{"CumulativeMerkleAmt", Mode::kCumulativeMerkle, 4, true}),
    [](const ::testing::TestParamInfo<VerdictCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace alpha::core
