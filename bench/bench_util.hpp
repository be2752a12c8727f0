// Shared helpers for the table/figure regeneration harnesses.
//
// Each bench binary prints the paper's rows next to what this implementation
// measures, so EXPERIMENTS.md can record paper-vs-measured per experiment.
#pragma once

#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "core/host.hpp"
#include "core/relay.hpp"
#include "core/signer.hpp"
#include "core/verifier.hpp"

namespace alpha::bench {

/// Queued-frame loopback connecting one signer, one verifier and one relay
/// in between -- the measurement fixture for Tables 1-3.
class TriadFixture {
 public:
  explicit TriadFixture(core::Config config, std::uint64_t seed = 1)
      : config_(config),
        rng_(seed),
        sig_chain_(hashchain::HashChain::generate(
            config.algo, hashchain::ChainTagging::kRoleBound, rng_,
            config.chain_length)),
        ack_chain_(hashchain::HashChain::generate(
            config.algo, hashchain::ChainTagging::kRoleBound, rng_,
            config.chain_length)) {
    core::SignerEngine::Callbacks scb;
    scb.send = [this](crypto::Bytes frame) {
      queue_.push_back({kTowardVerifier, std::move(frame)});
    };
    signer_.emplace(config_, 1, sig_chain_, ack_chain_.anchor(),
                    ack_chain_.length(), std::move(scb));

    core::VerifierEngine::Callbacks vcb;
    vcb.send = [this](crypto::Bytes frame) {
      queue_.push_back({kTowardSigner, std::move(frame)});
    };
    vcb.on_message = [this](std::uint32_t, std::uint16_t, crypto::ByteView) {
      ++delivered_;
    };
    verifier_.emplace(config_, 1, ack_chain_, sig_chain_.anchor(),
                      sig_chain_.length(), std::move(vcb), rng_);

    // Relay learns anchors via a synthetic handshake pair.
    core::RelayEngine::Callbacks rcb;
    rcb.forward = [](core::Direction, crypto::ByteView) {};
    relay_.emplace(config_, core::RelayEngine::Options{}, std::move(rcb));
    wire::HandshakePacket hs1;
    hs1.hdr = {1, 0};
    hs1.algo = config_.algo;
    hs1.chain_length = static_cast<std::uint32_t>(config_.chain_length);
    hs1.sig_anchor = sig_chain_.anchor();
    hs1.sig_anchor_index = static_cast<std::uint32_t>(sig_chain_.length());
    hs1.ack_anchor = ack_chain_.anchor();  // unused flow, but must be valid
    hs1.ack_anchor_index = static_cast<std::uint32_t>(ack_chain_.length());
    relay_->on_frame(core::Direction::kForward, hs1.encode());
    wire::HandshakePacket hs2 = hs1;
    hs2.is_response = true;
    relay_->on_frame(core::Direction::kReverse, hs2.encode());
  }

  /// Pumps queued frames through relay + destination until quiescent.
  void pump() {
    while (!queue_.empty()) {
      auto [dir, frame] = std::move(queue_.front());
      queue_.pop_front();
      relay_->on_frame(dir == kTowardVerifier ? core::Direction::kForward
                                              : core::Direction::kReverse,
                       frame);
      if (dir == kTowardVerifier &&
          wire::peek_type(frame) == wire::PacketType::kS2) {
        if (const auto s2 = wire::parse_s2(frame)) verifier_->on_s2(*s2);
        continue;
      }
      const auto packet = wire::decode(frame);
      if (!packet.has_value()) continue;
      if (dir == kTowardVerifier) {
        if (const auto* s1 = std::get_if<wire::S1Packet>(&*packet)) {
          verifier_->on_s1(*s1);
        }
      } else {
        if (const auto* a1 = std::get_if<wire::A1Packet>(&*packet)) {
          signer_->on_a1(*a1, 0);
        } else if (const auto* a2 = std::get_if<wire::A2Packet>(&*packet)) {
          signer_->on_a2(*a2, 0);
        }
      }
    }
  }

  /// Pumps but holds A1 frames back (rounds stay pending for memory
  /// measurements).
  void pump_without_a1() {
    std::deque<std::pair<int, crypto::Bytes>> keep;
    while (!queue_.empty()) {
      auto [dir, frame] = std::move(queue_.front());
      queue_.pop_front();
      if (wire::peek_type(frame) == wire::PacketType::kA1) continue;
      relay_->on_frame(dir == kTowardVerifier ? core::Direction::kForward
                                              : core::Direction::kReverse,
                       frame);
      if (dir == kTowardVerifier) {
        const auto packet = wire::decode(frame);
        if (const auto* s1 = std::get_if<wire::S1Packet>(&*packet)) {
          verifier_->on_s1(*s1);
        }
      }
    }
  }

  core::SignerEngine& signer() { return *signer_; }
  core::VerifierEngine& verifier() { return *verifier_; }
  core::RelayEngine& relay() { return *relay_; }
  std::size_t delivered() const { return delivered_; }
  crypto::HmacDrbg& rng() { return rng_; }

 private:
  static constexpr int kTowardVerifier = 0;
  static constexpr int kTowardSigner = 1;

  core::Config config_;
  crypto::HmacDrbg rng_;
  hashchain::HashChain sig_chain_;
  hashchain::HashChain ack_chain_;
  std::deque<std::pair<int, crypto::Bytes>> queue_;
  std::optional<core::SignerEngine> signer_;
  std::optional<core::VerifierEngine> verifier_;
  std::optional<core::RelayEngine> relay_;
  std::size_t delivered_ = 0;
};

inline void header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

/// Minimal machine-readable output writer for the BENCH_*.json trajectory
/// files (schema documented in EXPERIMENTS.md). Emits valid JSON as long as
/// begin/end calls nest correctly; no escaping beyond quotes/backslashes is
/// performed, so keep keys and string values ASCII.
class JsonWriter {
 public:
  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }

  JsonWriter& key(std::string_view k) {
    comma();
    quote(k);
    out_ += ':';
    pending_value_ = true;
    return *this;
  }

  JsonWriter& value(std::string_view v) {
    comma();
    quote(v);
    return *this;
  }
  JsonWriter& value(const char* v) { return value(std::string_view{v}); }
  JsonWriter& value(bool v) {
    comma();
    out_ += v ? "true" : "false";
    return *this;
  }
  JsonWriter& value(double v) {
    comma();
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    out_ += buf;
    return *this;
  }
  JsonWriter& value(std::uint64_t v) {
    comma();
    char buf[32];
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(v));
    out_ += buf;
    return *this;
  }
  JsonWriter& value(int v) { return value(static_cast<std::uint64_t>(v)); }

  template <typename T>
  JsonWriter& field(std::string_view k, T v) {
    return key(k).value(v);
  }

  const std::string& str() const { return out_; }

  /// Writes the document to `path`; returns false on I/O failure.
  bool write_file(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::size_t n = std::fwrite(out_.data(), 1, out_.size(), f);
    const bool ok = n == out_.size() && std::fputc('\n', f) != EOF;
    return std::fclose(f) == 0 && ok;
  }

 private:
  JsonWriter& open(char c) {
    comma();
    out_ += c;
    first_in_scope_ = true;
    return *this;
  }
  JsonWriter& close(char c) {
    out_ += c;
    first_in_scope_ = false;
    return *this;
  }
  void comma() {
    if (pending_value_) {
      pending_value_ = false;  // value right after key: no comma
      return;
    }
    if (!first_in_scope_) out_ += ',';
    first_in_scope_ = false;
  }
  void quote(std::string_view s) {
    out_ += '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') out_ += '\\';
      out_ += c;
    }
    out_ += '"';
  }

  std::string out_;
  bool first_in_scope_ = true;
  bool pending_value_ = false;
};

}  // namespace alpha::bench
