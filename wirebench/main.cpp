// main.cpp — wire-to-verdict benchmark of the authentication gateway.
//
//   wirebench --workload <udp_paced|udp_saturate|chaos_mix> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Prints the host context, the workload's notes and every metric by name
// with its unit; the last line of stdout is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics and
// the ledger remainder (--trace 1). A failed correctness check sets
// "correct": false and exits 3 after the JSON; an error in the benchmark
// itself exits 1 or 2 without it.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "gf2m/backend.h"
#include "workloads.h"

namespace {

using namespace wirebench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "wirebench: %s\nusage: wirebench --workload "
               "<udp_paced|udp_saturate|chaos_mix> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir <dir>] | --print-pins\n",
               why);
  std::exit(2);
}

/// Everything a number depends on besides the code: numbers from
/// mismatched hosts must never be compared.
std::string host_context() {
  namespace g = medsec::gf2m;
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "{\"nproc\": %u, \"avx512f\": %d, \"vpclmulqdq\": %d, "
      "\"gf2m_scalar\": \"%s\", \"gf2m_lanes\": \"%s\", "
      "\"compiler\": \"%s\", \"build_type\": \"%s\"}",
      std::thread::hardware_concurrency(),
      __builtin_cpu_supports("avx512f") ? 1 : 0,
      __builtin_cpu_supports("vpclmulqdq") ? 1 : 0,
      g::backend_name(g::active_backend()),
      g::lane_backend_name(g::active_lane_backend()),
#if defined(__clang__)
      "clang " __clang_version__,
#else
      "gcc " __VERSION__,
#endif
      WIREBENCH_BUILD_TYPE);
  return buf;
}

void print_metrics(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const Metric& m : ms)
    std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--print-pins") {
      print_chaos_pins();
      return 0;
    }
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") {
      opts.workload = v;
    } else if (a == "--seed") {
      opts.seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      opts.seconds = std::strtod(v, nullptr);
      have_seconds = opts.seconds > 0;
    } else if (a == "--trace") {
      opts.trace = std::strcmp(v, "1") == 0;
      have_trace = opts.trace || std::strcmp(v, "0") == 0;
    } else if (a == "--out-dir") {
      opts.out_dir = v;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  const bool udp = opts.workload == "udp_paced" || opts.workload == "udp_saturate";
  if (!udp && opts.workload != "chaos_mix") usage("unknown --workload");
  if (!have_seed || !have_seconds || !have_trace)
    usage("--seed, --seconds and --trace are required");

  Report rep;
  try {
    rep = udp ? run_udp(opts) : run_chaos(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wirebench: %s\n", e.what());
    return 1;
  }

  std::printf("workload %s seed %llu seconds %g trace %d\n", opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.seconds,
              opts.trace ? 1 : 0);
  std::printf("host %s\n", host_context().c_str());
  for (const std::string& n : rep.notes) std::printf("note: %s\n", n.c_str());
  print_metrics("end to end:", rep.end_to_end);
  print_metrics("latency:", rep.latency);
  if (opts.trace) {
    print_metrics("per layer:", rep.per_layer);
    std::printf("ledger (us per verdict):\n");
    for (const LedgerLine& l : rep.ledger.lines)
      std::printf("  %-60s %10.3f\n", l.layer.c_str(), l.us_per_verdict);
    std::printf("  %-60s %10.3f\n", "unattributed", rep.ledger.unattributed_us());
    std::printf("  %-60s %10.3f\n", "total = untraced cpu_us_per_verdict", rep.ledger.total_us);
    std::printf("  %-60s %10.3f\n", "tracing overhead (traced - untraced)",
                rep.tracing_overhead_us);
  }

  const std::vector<Metric>& out = opts.trace ? rep.per_layer : rep.end_to_end;
  std::string json = "{\"correct\": ";
  json += rep.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(rep.attempted);
  json += ", \"failed\": " + std::to_string(rep.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (i) json += ", ";
    json += "\"" + out[i].name + "\": {\"value\": " + json_number(out[i].value) +
            ", \"unit\": \"" + out[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return rep.correct ? 0 : 3;
}
