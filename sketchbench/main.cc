// Benchmark program: one process runs one workload and prints, as its last
// stdout line, {"correct", "attempted", "failed", "metrics"}. Untraced
// runs report the end-to-end metrics, traced runs (--trace 1) the
// per-layer ones, and also write the spans as a chrome trace.
//
//   sketchbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--smoke] [--inject-wrong] [--out-dir <dir>]

#include <sys/statfs.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"
#include "common/cpu_features.h"
#include "common/thread_pool.h"
#include "linalg/simd_dispatch.h"
#include "workloads.h"

namespace sketchbench {
namespace {

// Pool width: with the one client thread, total threads stay under the
// 4 cores of the reference host.
constexpr size_t kPoolThreads = 2;

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](const char* name) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", name);
        return nullptr;
      }
      return argv[++i];
    };
    if (a == "--workload") {
      const char* v = value("--workload");
      if (!v) return false;
      args.workload = v;
    } else if (a == "--seed") {
      const char* v = value("--seed");
      if (!v) return false;
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      const char* v = value("--seconds");
      if (!v) return false;
      args.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      const char* v = value("--trace");
      if (!v) return false;
      args.trace = std::strcmp(v, "0") != 0;
    } else if (a == "--out-dir") {
      const char* v = value("--out-dir");
      if (!v) return false;
      args.out_dir = v;
    } else if (a == "--smoke") {
      args.smoke = true;
    } else if (a == "--inject-wrong") {
      args.inject_wrong = true;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", a.c_str());
      return false;
    }
  }
  bool known = false;
  for (const std::string& w : WorkloadNames()) known |= w == args.workload;
  if (!known) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return false;
  }
  if (!(args.seconds > 0.0 && args.seconds <= 600.0)) {
    std::fprintf(stderr, "--seconds must be in (0, 600]\n");
    return false;
  }
  return true;
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  std::string s(reinterpret_cast<const char*>(regs), sizeof(regs));
  s = s.c_str();
  while (!s.empty() && s.front() == ' ') s.erase(s.begin());
  return s;
#else
  return "unknown";
#endif
}

std::string FsType(const std::string& dir) {
  struct statfs st {};
  if (statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

void PrintFingerprint(const Args& args) {
  std::printf(
      "{\"fingerprint\": {\"cpu\": %s, \"nproc\": %u, \"simd\": %s, "
      "\"pool_threads\": %zu, \"client_threads\": 1, \"store_fs\": %s, "
      "\"workload\": %s, \"seed\": %llu, \"seconds\": %g, \"trace\": %d}}\n",
      JsonString(CpuModel()).c_str(), std::thread::hardware_concurrency(),
      JsonString(std::string(distsketch::SimdBackendName(
                     distsketch::ActiveSimdBackend())))
          .c_str(),
      distsketch::ThreadPool::GlobalThreads(),
      JsonString(FsType(args.out_dir)).c_str(),
      JsonString(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0);
}

}  // namespace
}  // namespace sketchbench

int main(int argc, char** argv) {
  using namespace sketchbench;
  Args args;
  if (!ParseArgs(argc, argv, args)) return 2;
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  distsketch::ThreadPool::SetGlobalThreads(kPoolThreads);
  PrintFingerprint(args);

  Metrics metrics;
  Ledger ledger;
  Tracer tracer(args.trace);
  if (!RunWorkload(args, metrics, ledger, tracer)) {
    std::fprintf(stderr, "workload %s could not be set up\n",
                 args.workload.c_str());
    return 2;
  }
  if (args.trace) {
    // One file per workload: the latest traced run replaces the last.
    const std::string path = args.out_dir + "/trace-" + args.workload + ".json";
    if (tracer.WriteChromeTrace(path)) {
      std::printf("# trace written to %s\n", path.c_str());
    }
  }
  for (const std::string& why : ledger.reasons()) {
    std::printf("# failure: %s\n", why.c_str());
  }
  std::printf("# failed_frac %.6g (%llu of %llu)\n",
              ledger.attempted() > 0
                  ? static_cast<double>(ledger.failed()) / ledger.attempted()
                  : 0.0,
              static_cast<unsigned long long>(ledger.failed()),
              static_cast<unsigned long long>(ledger.attempted()));

  bool finite = true;
  std::string json = "{\"correct\": ";
  json += ledger.any_wrong() ? "false" : "true";
  json += ", \"attempted\": " + std::to_string(ledger.attempted());
  json += ", \"failed\": " + std::to_string(ledger.failed());
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.entries().size(); ++i) {
    const Metrics::Entry& e = metrics.entries()[i];
    char num[64];
    finite &= std::isfinite(e.value);
    std::snprintf(num, sizeof(num), "%.17g",
                  std::isfinite(e.value) ? e.value : 0.0);
    if (i > 0) json += ", ";
    json += JsonString(e.name) + ": {\"value\": " + num +
            ", \"unit\": " + JsonString(e.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  if (!finite) std::fprintf(stderr, "a metric was not finite\n");
  return ledger.any_wrong() || !finite ? 1 : 0;
}
