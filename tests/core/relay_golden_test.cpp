// Golden transcripts for the relay decision procedure.
//
// Each schedule below -- clean traffic in every mode, seeded chaos
// (duplicates, CRC corruption, resealed tampering, reordering, burst loss),
// handshake-less forwarding, round eviction and a handshake arriving mid
// stream -- is replayed through RelayEngine, and everything observable is
// folded into one SHA-256 digest:
//
//  * the per-frame decision sequence;
//  * every forwarded frame, tagged with its direction;
//  * every extracted payload;
//  * every RelayStats counter, including the per-reason drop taxonomy and
//    the three hash counts (the wall-time verify_batch_* fields excluded).
//
// The digests in kGolden were recorded from the reference engine and pin
// its exact behaviour: any change to a verdict, a forward, a drop
// attribution or a hash count shows up as a mismatch naming the schedule.
// A mismatch prints the new digest; update the table only for a deliberate,
// reviewed protocol change.
#include <gtest/gtest.h>

#include <deque>
#include <random>
#include <string>
#include <string_view>

#include "core/host.hpp"
#include "core/relay.hpp"
#include "crypto/hash.hpp"

namespace alpha::core {
namespace {

using crypto::Bytes;
using crypto::ByteView;

struct Golden {
  std::string_view schedule;
  std::string_view sha256;
};

// clang-format off
constexpr Golden kGolden[] = {
    {"clean_base",
     "e9c376002813864301d3bb708dd5e0b1c183bf72aed02165e84c02c2bf5584c4"},
    {"clean_preack",
     "b43075b2c23f2ef1f2fd431ef7f9512819607c4962d6c8e11c9b6d347ee349b5"},
    {"clean_cumulative",
     "bc0fb78db34af7ba63f0889c8faa852b2e0873d214ae24c22987205be621a8a8"},
    {"clean_merkle",
     "81e75844fcf41e673331fba1b51afe64b4bfc22b0caef29167b91e739e9afaae"},
    {"clean_cumulative_merkle",
     "3f57946183960525bf99b1317507c4162b439cb7b35ef3924c3c75acbb9543a7"},
    {"clean_merkle_amt",
     "2d9f621c4329a75dc22b5e08d7d4ca99ad184aa641730416626dc4637f66005e"},
    {"chaos_base/duplicates/1",
     "c27aa145694c6dc3b742b1912602ab1557a69dca4a1ba3e3363dc053c28cfc94"},
    {"chaos_base/duplicates/2",
     "7476fc1766f8457bf32bb7ad9bb501d894e062d0da43d091a84f3e2799d68478"},
    {"chaos_base/duplicates/3",
     "6dd6a61842b3313c9fb5da9ac1d29fc0f8af2866275cec9268adeda3cc7ebcb8"},
    {"chaos_base/crc_corruption/1",
     "4bbd8b37a63bad4abe3621b1612e6b9a5173d9d4b81f5431807b413d51449c47"},
    {"chaos_base/crc_corruption/2",
     "af2fb5f6d1fb485f734046607e1368b69030de3b08f67f3a39c587195c1051ff"},
    {"chaos_base/crc_corruption/3",
     "80421109fe95f029a4e479d7e5aa862b394c07852a46c2158997cc21812e928c"},
    {"chaos_base/resealed_tampering/1",
     "d1701cfa7cce29af4ece4c071849bb7f9d09a0db5036d94ee8d56507f06fa3a5"},
    {"chaos_base/resealed_tampering/2",
     "d2cbda0a4a586e1b30dbde1e8bad36979a63da48b7e4fa2c0a852e4bd3b9b8eb"},
    {"chaos_base/resealed_tampering/3",
     "6cb9630917ffafca3fca3d90eb1ded4f06a8c4353c953655eb00805a238f3529"},
    {"chaos_base/reordering/1",
     "b4e1d28c921cc2b3f94e12b9b843d1ff9d83a8a38a3c2219539ce42ec91228f3"},
    {"chaos_base/reordering/2",
     "c85f29dcdb81dbb249f5c8c381291f67666b61c27cb2530a9b5e4bf812d9112d"},
    {"chaos_base/reordering/3",
     "1331dd2699294669ff739287abc780b21ff72b9ea6f2f41eafae2bc6169bdf3d"},
    {"chaos_base/burst_loss/1",
     "aeddc4d2afbef972e41ade3b00e682263a65f52ef7ae6e30e308c65a38bf67a3"},
    {"chaos_base/burst_loss/2",
     "4e5e3a50f721c8718b537486fd70766901fd5ef2b60085a2a1eec2a3f34e9a7d"},
    {"chaos_base/burst_loss/3",
     "41ebc6a134db3d94185a3cc2e3c7a96712fb89ae65a968ee18e27f4fd38eac4e"},
    {"chaos_base/everything/1",
     "9b151405eeaaa8ea4b752374bd9ddd31e7b86c96eb36593695fe96b50b9f9d6b"},
    {"chaos_base/everything/2",
     "119c7f707a1399106ddd844dc1e26096519bc7c6c501481dacd58fe0faf796e9"},
    {"chaos_base/everything/3",
     "bfd8dc8c31483b0f1b6576abb81ace3ee2a6082bf057c6977fca291aa3a6f50f"},
    {"chaos_merkle/duplicates",
     "efcef1d2c0aae52d84907963225ba45b50148adc4953010713d52eacdc2c045c"},
    {"chaos_merkle/crc_corruption",
     "510d7614978016c3b33197b2e1bb3533be89d934d43e12cd89cac74c63776476"},
    {"chaos_merkle/resealed_tampering",
     "ea241d9c7d3b50ca5d08bd573710375f72806b88aea4752eadf2e02fca06238b"},
    {"chaos_merkle/reordering",
     "6bac7816ce4edaf64f86d6fdfb39074ef7226787c48fe5f23a400c7779364cfa"},
    {"chaos_merkle/burst_loss",
     "3c9e8c6674c0c07ef738edd409ccbf083e54f2a8805572ebf4fe5eadf124099a"},
    {"chaos_merkle/everything",
     "04eee645a8d5e34b70e76d8bed0721862d891fa7aea958a367e4509676319324"},
    {"no_handshake/forward",
     "a1f968e331c16823d25452656a4883d3507ee3bd77c94de933a81be796e21c5f"},
    {"no_handshake/require",
     "2d7d1afd6f66c04dce9ba009a0c27751ae88598c00ea99f1642c7638fa086154"},
    {"round_eviction",
     "31b7b8cd4265d1cabb37927b6153d03e3f49d9be51cc6e604a72973ee95e50d5"},
    {"handshake_mid_stream",
     "7f07a333cf08223478a80e77926c102edd87bd665dbfb9bd62c59eab0cf71aa9"},
};
// clang-format on

std::string golden(std::string_view schedule) {
  for (const Golden& g : kGolden) {
    if (g.schedule == schedule) return std::string(g.sha256);
  }
  return "<no golden digest>";
}

struct ScheduledFrame {
  Direction dir = Direction::kForward;
  Bytes frame;
};

/// Records the full frame trace of `messages` rounds between two
/// directly-wired Hosts (handshake included). Deterministic per seed.
std::vector<ScheduledFrame> record_traffic(const Config& config,
                                           int messages,
                                           std::uint64_t seed) {
  std::vector<ScheduledFrame> trace;
  std::deque<ScheduledFrame> queue;
  crypto::HmacDrbg rng_a(seed), rng_b(seed + 1);

  std::optional<Host> a, b;
  Host::Callbacks a_cb;
  a_cb.send = [&](Bytes f) {
    queue.push_back({Direction::kForward, std::move(f)});
  };
  a.emplace(config, /*assoc_id=*/42, /*initiator=*/true, rng_a,
            std::move(a_cb));
  Host::Callbacks b_cb;
  b_cb.send = [&](Bytes f) {
    queue.push_back({Direction::kReverse, std::move(f)});
  };
  b.emplace(config, /*assoc_id=*/42, /*initiator=*/false, rng_b,
            std::move(b_cb));

  const auto pump = [&] {
    while (!queue.empty()) {
      ScheduledFrame f = std::move(queue.front());
      queue.pop_front();
      (f.dir == Direction::kForward ? *b : *a).on_frame(f.frame, 0);
      trace.push_back(std::move(f));
    }
  };

  a->start();
  pump();
  EXPECT_TRUE(a->established());
  for (int i = 0; i < messages; ++i) {
    a->submit(Bytes{static_cast<std::uint8_t>(i), 0xaa, 0x55,
                    static_cast<std::uint8_t>(i >> 8)},
              0);
    pump();
  }
  return trace;
}

/// Reseals a frame after tampering so the CRC passes and the corruption
/// reaches the authentication checks instead of the checksum.
Bytes reseal(Bytes frame) {
  if (frame.size() <= wire::kFrameChecksumSize) return frame;
  const std::size_t body = frame.size() - wire::kFrameChecksumSize;
  const std::uint32_t crc =
      wire::frame_checksum(ByteView{frame.data(), body});
  frame[body + 0] = static_cast<std::uint8_t>(crc >> 24);
  frame[body + 1] = static_cast<std::uint8_t>(crc >> 16);
  frame[body + 2] = static_cast<std::uint8_t>(crc >> 8);
  frame[body + 3] = static_cast<std::uint8_t>(crc);
  return frame;
}

struct Chaos {
  double dup = 0.0;          // duplicate a frame in place
  double corrupt_crc = 0.0;  // flip a byte, leave the stale CRC
  double corrupt_seal = 0.0; // flip a byte, recompute the CRC
  double reorder = 0.0;      // swap with the next frame
  double burst_loss = 0.0;   // drop a short run
};

std::vector<ScheduledFrame> mutate(const std::vector<ScheduledFrame>& trace,
                                   const Chaos& chaos, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::vector<ScheduledFrame> out;
  out.reserve(trace.size() + trace.size() / 4);
  std::size_t skip = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (skip > 0) {
      --skip;
      continue;
    }
    if (coin(rng) < chaos.burst_loss) {
      skip = 1 + static_cast<std::size_t>(rng() % 3);
      continue;
    }
    ScheduledFrame f = trace[i];
    if (!f.frame.empty() && coin(rng) < chaos.corrupt_crc) {
      f.frame[rng() % f.frame.size()] ^= 0xff;
    }
    if (!f.frame.empty() && coin(rng) < chaos.corrupt_seal) {
      Bytes tampered = f.frame;
      tampered[rng() % tampered.size()] ^= 0x01;
      f.frame = reseal(std::move(tampered));
    }
    if (coin(rng) < chaos.reorder && i + 1 < trace.size()) {
      out.push_back(trace[i + 1]);
      ++i;  // the swapped partner is consumed; `f` follows it
    }
    out.push_back(f);
    if (coin(rng) < chaos.dup) out.push_back(out.back());
  }
  return out;
}

void put_u64(Bytes& out, std::uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    out.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void put_bytes(Bytes& out, ByteView b) {
  put_u64(out, b.size());
  out.insert(out.end(), b.begin(), b.end());
}

/// Replays `schedule` through a fresh RelayEngine and returns the SHA-256
/// (hex) of its transcript: decisions, forwards, extractions, counters.
std::string transcript_digest(const Config& config,
                              RelayEngine::Options options,
                              const std::vector<ScheduledFrame>& schedule) {
  Bytes decisions;
  Bytes forwarded;
  Bytes extracted;
  std::uint64_t forward_count = 0;
  std::uint64_t extract_count = 0;
  RelayEngine::Callbacks cb;
  cb.forward = [&](Direction dir, ByteView frame) {
    ++forward_count;
    forwarded.push_back(static_cast<std::uint8_t>(dir));
    put_bytes(forwarded, frame);
  };
  cb.on_extracted = [&](std::uint32_t, std::uint32_t, std::uint16_t,
                        ByteView payload) {
    ++extract_count;
    put_bytes(extracted, payload);
  };
  RelayEngine relay(config, options, std::move(cb));
  for (const auto& f : schedule) {
    decisions.push_back(
        static_cast<std::uint8_t>(relay.on_frame(f.dir, f.frame)));
  }

  Bytes t;
  put_bytes(t, decisions);
  put_u64(t, forward_count);
  put_bytes(t, forwarded);
  put_u64(t, extract_count);
  put_bytes(t, extracted);
  const RelayStats& s = relay.stats();
  for (const std::uint64_t v :
       {s.forwarded, s.dropped_invalid, s.dropped_unsolicited,
        s.messages_extracted, s.acks_verified, s.hashes.signature,
        s.hashes.chain_verify, s.hashes.ack}) {
    put_u64(t, v);
  }
  for (const std::uint64_t v : s.dropped_by_reason) put_u64(t, v);
  return crypto::hash(crypto::HashAlgo::kSha256, t).hex();
}

void expect_golden(std::string_view name, const Config& config,
                   RelayEngine::Options options,
                   const std::vector<ScheduledFrame>& schedule) {
  EXPECT_EQ(transcript_digest(config, options, schedule), golden(name))
      << "schedule " << name;
}

Config base_config() {
  Config config;
  config.chain_length = 128;
  return config;
}

TEST(RelayGolden, CleanBaseTraffic) {
  const auto trace = record_traffic(base_config(), 20, /*seed=*/11);
  expect_golden("clean_base", base_config(), {}, trace);
}

TEST(RelayGolden, CleanReliablePreAck) {
  Config config = base_config();
  config.reliable = true;
  const auto trace = record_traffic(config, 16, /*seed=*/12);
  expect_golden("clean_preack", config, {}, trace);
}

TEST(RelayGolden, CleanCumulativeBatches) {
  Config config = base_config();
  config.mode = Mode::kCumulative;
  config.batch_size = 6;
  config.reliable = true;
  const auto trace = record_traffic(config, 24, /*seed=*/13);
  expect_golden("clean_cumulative", config, {}, trace);
}

TEST(RelayGolden, CleanMerkleWithPaths) {
  Config config = base_config();
  config.mode = Mode::kMerkle;
  config.batch_size = 8;
  const auto trace = record_traffic(config, 32, /*seed=*/14);
  expect_golden("clean_merkle", config, {}, trace);
}

TEST(RelayGolden, CleanCumulativeMerkle) {
  Config config = base_config();
  config.mode = Mode::kCumulativeMerkle;
  config.batch_size = 12;
  config.merkle_group = 4;
  const auto trace = record_traffic(config, 36, /*seed=*/15);
  expect_golden("clean_cumulative_merkle", config, {}, trace);
}

TEST(RelayGolden, MerkleReliableAmt) {
  Config config = base_config();
  config.mode = Mode::kMerkle;
  config.batch_size = 4;
  config.reliable = true;
  const auto trace = record_traffic(config, 16, /*seed=*/16);
  expect_golden("clean_merkle_amt", config, {}, trace);
}

// ---------------------------------------------------------------- chaos --

struct ChaosCase {
  const char* name;
  Chaos chaos;
};

const ChaosCase kChaosCases[] = {
    {"duplicates", {.dup = 0.30}},
    {"crc_corruption", {.corrupt_crc = 0.20}},
    {"resealed_tampering", {.corrupt_seal = 0.20}},
    {"reordering", {.reorder = 0.30}},
    {"burst_loss", {.burst_loss = 0.15}},
    {"everything",
     {.dup = 0.15,
      .corrupt_crc = 0.08,
      .corrupt_seal = 0.08,
      .reorder = 0.20,
      .burst_loss = 0.10}},
};

TEST(RelayGolden, SeededChaosBase) {
  Config config = base_config();
  config.reliable = true;
  const auto trace = record_traffic(config, 24, /*seed=*/21);
  for (const auto& c : kChaosCases) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      expect_golden("chaos_base/" + std::string(c.name) + "/" +
                        std::to_string(seed),
                    config, {}, mutate(trace, c.chaos, seed));
    }
  }
}

TEST(RelayGolden, SeededChaosMerkle) {
  Config config = base_config();
  config.mode = Mode::kMerkle;
  config.batch_size = 8;
  config.reliable = true;
  const auto trace = record_traffic(config, 32, /*seed=*/22);
  for (const auto& c : kChaosCases) {
    expect_golden("chaos_merkle/" + std::string(c.name), config, {},
                  mutate(trace, c.chaos, /*seed=*/7));
  }
}

TEST(RelayGolden, NoHandshakeForwardingMode) {
  // require_handshake=false: unverifiable traffic passes through.
  Config config = base_config();
  const auto trace = record_traffic(config, 8, /*seed=*/31);
  // Strip the handshakes so every frame is unverifiable.
  std::vector<ScheduledFrame> no_hs;
  for (const auto& f : trace) {
    const auto t = wire::peek_type(f.frame);
    if (t == wire::PacketType::kHs1 || t == wire::PacketType::kHs2) continue;
    no_hs.push_back(f);
  }
  RelayEngine::Options options;
  options.require_handshake = false;
  expect_golden("no_handshake/forward", config, options, no_hs);
  options.require_handshake = true;
  expect_golden("no_handshake/require", config, options, no_hs);
}

TEST(RelayGolden, RoundEvictionUnderReversedS1s) {
  // More in-flight rounds than the per-flow cap, presented newest-first:
  // exercises the emplace-then-evict round table, including the case where
  // the incoming (lowest-seq) round evicts itself.
  Config config = base_config();
  config.chain_length = 64;
  const auto trace = record_traffic(config, 20, /*seed=*/41);
  std::vector<ScheduledFrame> schedule;
  std::vector<ScheduledFrame> s1s;
  for (const auto& f : trace) {
    const auto t = wire::peek_type(f.frame);
    if (t == wire::PacketType::kHs1 || t == wire::PacketType::kHs2) {
      schedule.push_back(f);
    } else if (t == wire::PacketType::kS1) {
      s1s.push_back(f);
    }
  }
  // S1 chain elements must still arrive in disclosure order for the chain
  // verifier to accept them, so replay them forward, then replay the whole
  // set again in reverse: the second pass hits the retransmission and
  // eviction paths for every seq.
  schedule.insert(schedule.end(), s1s.begin(), s1s.end());
  schedule.insert(schedule.end(), s1s.rbegin(), s1s.rend());
  expect_golden("round_eviction", config, {}, schedule);
}

TEST(RelayGolden, HandshakeMidStream) {
  // Traffic ahead of the handshake is unsolicited; the handshake creates
  // the association and everything after it is verified. The traffic is
  // replayed behind a second copy of the handshake (a benign duplicate
  // that must not reset the chains).
  const auto trace = record_traffic(base_config(), 6, /*seed=*/51);
  std::vector<ScheduledFrame> schedule(trace.begin() + 2, trace.end());
  schedule.insert(schedule.end(), trace.begin(), trace.end());
  expect_golden("handshake_mid_stream", base_config(), {}, schedule);
}

TEST(RelayEngineStats, DropTaxonomyAttribution) {
  const auto trace = record_traffic(base_config(), 4, /*seed=*/81);
  RelayEngine relay(base_config(), {}, {});
  for (const auto& f : trace) relay.on_frame(f.dir, f.frame);
  // Garbage frame: malformed, attributed to kDecodeError.
  const Bytes junk{0x01, 0x03, 0x00, 0x00, 0x00, 0x2a, 0xde, 0xad};
  relay.on_frame(Direction::kForward, junk);
  // Unknown association: dropped unsolicited, attributed to kUnsolicited.
  const auto s2_for_unknown = [] {
    wire::S2Packet s2;
    s2.hdr = {999, 1};
    s2.disclosed_element = crypto::Digest{};
    s2.payload = Bytes{1, 2, 3};
    return s2.encode();
  }();
  relay.on_frame(Direction::kForward, s2_for_unknown);
  const RelayStats& s = relay.stats();
  EXPECT_GE(s.dropped_by_reason[static_cast<std::size_t>(
                trace::DropReason::kDecodeError)],
            1u);
  EXPECT_GE(s.dropped_by_reason[static_cast<std::size_t>(
                trace::DropReason::kUnsolicited)],
            1u);
  std::uint64_t by_reason = 0;
  for (std::size_t i = 0; i < trace::kDropReasonCount; ++i) {
    by_reason += s.dropped_by_reason[i];
  }
  // Every drop is attributed to exactly one taxonomy reason.
  EXPECT_EQ(by_reason, s.dropped_invalid + s.dropped_unsolicited);
  // Every frame, dropped or forwarded, got one verify-time sample.
  EXPECT_EQ(s.verify_batch_frames, trace.size() + 2);
  EXPECT_EQ(s.verify_batch_ns.count(), trace.size() + 2);
}

}  // namespace
}  // namespace alpha::core
