// alpha_perfbench: one seeded workload per invocation.
//
//   alpha_perfbench --workload mesh_relay --seed 1 --seconds 20 --trace 0
//
// Prints a provenance line (host, build, crypto backend, hardware-counter
// availability, steal-time share during the run) and then, as the last line
// of stdout, one JSON object {"correct","attempted","failed","metrics"}:
// the end-to-end metrics with --trace 0, the per-layer ledger with
// --trace 1. Exits 1 when the delivery oracle saw a forged, altered or
// duplicated message (or, on a loss-free simulated path, any loss), 2 on
// bad arguments.
#include <linux/perf_event.h>
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <thread>

#include "crypto/cpu.hpp"
#include "harness.hpp"
#include "trace/build_info.hpp"

namespace {

using perfbench::Result;
using perfbench::RunConfig;

std::string num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

struct CpuTimes {
  unsigned long long total = 0, steal = 0;
};

CpuTimes read_proc_stat() {
  CpuTimes t;
  std::ifstream f("/proc/stat");
  std::string cpu;
  unsigned long long v[10] = {};
  if (f >> cpu && cpu == "cpu") {
    for (auto& x : v) f >> x;
  }
  for (const auto x : v) t.total += x;
  t.steal = v[7];
  return t;
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

bool hw_counters_available() {
  perf_event_attr attr{};
  attr.type = PERF_TYPE_HARDWARE;
  attr.size = sizeof attr;
  attr.config = PERF_COUNT_HW_INSTRUCTIONS;
  attr.disabled = 1;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  const long fd = syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0);
  if (fd < 0) return false;
  close(static_cast<int>(fd));
  return true;
}

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return CPU_COUNT(&set);
}

int usage(const char* why) {
  std::fprintf(stderr,
               "alpha_perfbench: %s\nusage: alpha_perfbench --workload "
               "{mesh_relay|direct_assocs|assoc_churn|udp_relay} --seed N "
               "--seconds S --trace {0|1} [--tiny] [--loss P]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig rc;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--tiny") {
      rc.tiny = true;
    } else if (a == "--workload" && has_value) {
      rc.workload = argv[++i];
      have_workload = true;
    } else if (a == "--seed" && has_value) {
      rc.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      rc.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      rc.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--loss" && has_value) {
      rc.link_loss = std::strtod(argv[++i], nullptr);
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(rc.seconds > 0) || rc.seconds > 600) return usage("bad --seconds");
  if (rc.link_loss < 0 || rc.link_loss >= 1) return usage("bad --loss");

  const std::map<std::string, std::function<Result(const RunConfig&)>>
      workloads = {
          {"mesh_relay", perfbench::run_mesh_relay},
          {"direct_assocs", perfbench::run_direct_assocs},
          {"assoc_churn", perfbench::run_assoc_churn},
          {"udp_relay", perfbench::run_udp_relay},
      };
  const auto it = workloads.find(rc.workload);
  if (it == workloads.end()) return usage("unknown workload");
  if (rc.link_loss > 0 && rc.workload == "udp_relay") {
    return usage("--loss applies to the simulated workloads only");
  }

  const CpuTimes stat0 = read_proc_stat();
  Result r;
  try {
    r = it->second(rc);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "alpha_perfbench: %s: %s\n", rc.workload.c_str(),
                 e.what());
    return 1;
  }
  const CpuTimes stat1 = read_proc_stat();
  const double steal_share =
      stat1.total > stat0.total
          ? static_cast<double>(stat1.steal - stat0.steal) /
                static_cast<double>(stat1.total - stat0.total)
          : 0.0;

  std::string info;
  for (const auto& [k, v] : r.info) info += ", " + quoted(k) + ": " + num(v);
  const auto bi = alpha::trace::build_info();
  const int cpus = usable_cpus();
  const bool evidence = cpus >= 2 && steal_share < 0.10;
  std::printf(
      "{\"provenance\": {\"cpu_model\": %s, \"nproc\": %d, "
      "\"hardware_concurrency\": %u, \"build_type\": %s, \"version\": %s, "
      "\"crypto_backend\": %s, \"sha_ni\": %s, \"hw_counters\": %s, "
      "\"steal_share\": %s, \"usable_as_evidence\": %s, "
      "\"path_rtt_us\": %s, \"latency_samples\": %llu%s}}\n",
      quoted(cpu_model()).c_str(), cpus, std::thread::hardware_concurrency(),
      quoted(PERFBENCH_BUILD_TYPE).c_str(), quoted(bi.version).c_str(),
      quoted(bi.backend).c_str(),
      alpha::crypto::cpu_has_sha_ni() ? "true" : "false",
      hw_counters_available() ? "true" : "false", num(steal_share).c_str(),
      evidence ? "true" : "false", num(r.path_rtt_us).c_str(),
      static_cast<unsigned long long>(r.latency_samples), info.c_str());
  for (const auto& n : r.notes) {
    std::fprintf(stderr, "%s: %s\n", rc.workload.c_str(), n.c_str());
  }

  std::string metrics;
  for (const auto& m : r.metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += quoted(m.name) + ": {\"value\": " + num(m.value) +
               ", \"unit\": " + quoted(m.unit) + "}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      r.correct ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
