// Table 4 -- ALPHA signature-step delays vs. RSA/DSA.
//
// Paper (Table 4): per-step processing time of the ALPHA signature exchange
// (send S1, process S1 + send A1, process A1 + send S2, verify S2 + send A2,
// process A2; sender/receiver totals) measured on a Nokia 770 and a Xeon
// 3.2 GHz as the mean of 300 signatures, next to SHA-1, RSA-1024 and
// DSA-1024 primitives.
//
// This harness measures the same five steps of this implementation on the
// host (mean of 300 reliable rounds, 64 B signaling payload), measures the
// from-scratch SHA-1 / RSA-1024 / DSA-1024, and adds device-scaled
// estimates: host step time x (device hash cost / host hash cost), since the
// steps are hash-dominated. The paper's numbers are printed for comparison.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "crypto/dsa.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha1.hpp"
#include "platform/devices.hpp"

using namespace alpha;
using namespace alpha::bench;
using Clock = std::chrono::steady_clock;

namespace {

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

struct StepTimes {
  double send_s1 = 0, process_s1 = 0, process_a1 = 0, verify_s2 = 0,
         process_a2 = 0;
  double sender_total() const { return send_s1 + process_a1 + process_a2; }
  double receiver_total() const { return process_s1 + verify_s2; }
};

StepTimes measure_alpha_steps(int rounds) {
  core::Config config;
  config.reliable = true;
  config.chain_length = static_cast<std::size_t>(2 * rounds + 16);

  crypto::HmacDrbg rng{1};
  auto sig_chain = hashchain::HashChain::generate(
      config.algo, hashchain::ChainTagging::kRoleBound, rng,
      config.chain_length);
  auto ack_chain = hashchain::HashChain::generate(
      config.algo, hashchain::ChainTagging::kRoleBound, rng,
      config.chain_length);

  std::vector<crypto::Bytes> to_verifier, to_signer;
  core::SignerEngine::Callbacks scb;
  scb.send = [&](crypto::Bytes f) { to_verifier.push_back(std::move(f)); };
  core::SignerEngine signer{config, 1, sig_chain, ack_chain.anchor(),
                            ack_chain.length(), std::move(scb)};
  core::VerifierEngine::Callbacks vcb;
  vcb.send = [&](crypto::Bytes f) { to_signer.push_back(std::move(f)); };
  core::VerifierEngine verifier{config,
                                1,
                                ack_chain,
                                sig_chain.anchor(),
                                sig_chain.length(),
                                std::move(vcb),
                                rng};

  StepTimes sum;
  const crypto::Bytes payload(64, 0x42);  // HIP-signaling-sized message

  for (int i = 0; i < rounds; ++i) {
    to_verifier.clear();
    to_signer.clear();

    auto t0 = Clock::now();
    signer.submit(payload, 0);  // creates MAC + S1
    sum.send_s1 += us_since(t0);
    const auto s1 = std::get<wire::S1Packet>(*wire::decode(to_verifier.back()));

    t0 = Clock::now();
    verifier.on_s1(s1);  // verify chain element, pre-acks, emit A1
    sum.process_s1 += us_since(t0);
    const auto a1 = std::get<wire::A1Packet>(*wire::decode(to_signer.back()));

    t0 = Clock::now();
    signer.on_a1(a1, 0);  // verify ack element, emit S2
    sum.process_a1 += us_since(t0);
    const crypto::Bytes s2_frame = to_verifier.back();
    const auto s2 = *wire::parse_s2(s2_frame);

    t0 = Clock::now();
    verifier.on_s2(s2);  // verify disclosure + MAC, emit A2
    sum.verify_s2 += us_since(t0);
    const auto a2 = std::get<wire::A2Packet>(*wire::decode(to_signer.back()));

    t0 = Clock::now();
    signer.on_a2(a2, 0);  // verify (n)ack
    sum.process_a2 += us_since(t0);
  }

  const double inv = 1.0 / rounds;
  return {sum.send_s1 * inv, sum.process_s1 * inv, sum.process_a1 * inv,
          sum.verify_s2 * inv, sum.process_a2 * inv};
}

template <typename F>
double time_ms(int iters, F&& fn) {
  const auto t0 = Clock::now();
  for (int i = 0; i < iters; ++i) fn();
  return us_since(t0) / (1000.0 * iters);
}

}  // namespace

int main() {
  header("Table 4: ALPHA, RSA and DSA delay (measured on this host, scaled "
         "to the paper's devices)");

  const int kRounds = 300;  // the paper's sample count
  const auto steps = measure_alpha_steps(kRounds);

  // Host SHA-1 cost for the device-scaling factor.
  crypto::Bytes buf(64, 0xaa);
  volatile std::uint8_t sink = 0;
  const double host_sha1_ms = time_ms(20000, [&] {
    crypto::Sha1 h;
    h.update(buf);
    sink = sink ^ h.finalize().data()[0];
  });

  const auto nokia = platform::devices::nokia770();
  const auto xeon = platform::devices::xeon();
  const double nokia_scale = nokia.hash.cost_us(64) / (host_sha1_ms * 1000.0);
  const double xeon_scale = xeon.hash.cost_us(64) / (host_sha1_ms * 1000.0);

  std::printf("\n%-22s %10s %14s %14s | %10s %10s\n", "step (mean of 300)",
              "host (ms)", "Nokia est (ms)", "Xeon est (ms)", "paper N770",
              "paper Xeon");
  const struct {
    const char* name;
    double host_us;
    double paper_nokia, paper_xeon;
  } rows[] = {
      {"Send S1", steps.send_s1, 0.33, 0.03},
      {"Process S1, send A1", steps.process_s1, 1.47, 0.05},
      {"Process A1, send S2", steps.process_a1, 1.52, 0.05},
      {"Verify S2, send A2", steps.verify_s2, 1.60, 0.05},
      {"Process A2", steps.process_a2, 0.49, 0.05},
      {"Sender (total)", steps.sender_total(), 2.34, 0.13},
      {"Receiver (total)", steps.receiver_total(), 3.07, 0.10},
  };
  for (const auto& row : rows) {
    std::printf("%-22s %10.4f %14.3f %14.4f | %10.2f %10.2f\n", row.name,
                row.host_us / 1000.0, row.host_us * nokia_scale / 1000.0,
                row.host_us * xeon_scale / 1000.0, row.paper_nokia,
                row.paper_xeon);
  }

  std::printf("\nPrimitives on this host (from-scratch implementations):\n");
  std::printf("%-22s %10.4f ms                        | %10.2f %10.2f\n",
              "SHA-1 hash (64 B)", host_sha1_ms, 0.02, 0.01);

  crypto::HmacDrbg rng{0xca11};
  const auto rsa = crypto::rsa_generate(rng, 1024);
  const auto msg = crypto::as_bytes("table four baseline message");
  crypto::Bytes sig;
  const double rsa_sign_ms =
      time_ms(20, [&] { sig = crypto::rsa_sign(rsa, crypto::HashAlgo::kSha1, msg); });
  volatile bool ok = false;
  const double rsa_verify_ms = time_ms(50, [&] {
    ok = crypto::rsa_verify(rsa.pub, crypto::HashAlgo::kSha1, msg, sig);
  });
  std::printf("%-22s %10.3f ms                        | %10.2f %10.2f\n",
              "RSA-1024 sign", rsa_sign_ms, 181.32, 9.09);
  std::printf("%-22s %10.3f ms                        | %10.2f %10.2f\n",
              "RSA-1024 verify", rsa_verify_ms, 10.53, 0.15);

  const auto dsa_params = crypto::dsa_generate_params(rng, 1024, 160);
  const auto dsa = crypto::dsa_generate_key(rng, dsa_params);
  crypto::DsaSignature dsig;
  const double dsa_sign_ms = time_ms(20, [&] {
    dsig = crypto::dsa_sign(dsa, crypto::HashAlgo::kSha1, msg, rng);
  });
  const double dsa_verify_ms = time_ms(20, [&] {
    ok = crypto::dsa_verify(dsa.pub, crypto::HashAlgo::kSha1, msg, dsig);
  });
  std::printf("%-22s %10.3f ms                        | %10.2f %10.2f\n",
              "DSA-1024 sign", dsa_sign_ms, 96.71, 1.34);
  std::printf("%-22s %10.3f ms                        | %10.2f %10.2f\n",
              "DSA-1024 verify", dsa_verify_ms, 118.73, 1.61);

  std::printf("\nShape check: full ALPHA exchange vs. one public-key op\n");
  std::printf("  ALPHA sender+receiver total: %.4f ms\n",
              (steps.sender_total() + steps.receiver_total()) / 1000.0);
  std::printf("  cheapest PK op (RSA verify): %.3f ms  (ALPHA %.0fx cheaper "
              "than RSA sign)\n",
              rsa_verify_ms,
              rsa_sign_ms /
                  ((steps.sender_total() + steps.receiver_total()) / 1000.0));
  (void)sink;
  (void)ok;
  return 0;
}
