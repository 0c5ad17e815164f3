// workloads.h — the three workloads and what one run of them reports.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace wirebench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";  ///< where the traced run writes its spans
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One run's result. End-to-end metrics are always measured; per-layer
/// metrics and the ledger only in a traced run.
struct Report {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> end_to_end;
  /// Session latency as users see it: printed with the end-to-end
  /// metrics, but not gated (see BENCHMARK.json's per_layer list).
  std::vector<Metric> latency;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;  ///< printed before the metrics
  Ledger ledger;
  double tracing_overhead_us = 0.0;

  void note(std::string line) { notes.push_back(std::move(line)); }
  void fail(std::string why) {
    correct = false;
    notes.push_back("CHECK FAILED: " + why);
  }
};

/// Share of a run's samples (windows, campaigns, set-ups) that are scored:
/// the quietest quarter by hypervisor steal (see quietest() in stats.h).
inline constexpr double kScoredShare = 0.25;

/// Seconds of `wall` the hypervisor left to this machine when other guests
/// took `steal_share` of its CPUs. setup_s, and verdicts_per_s where the
/// server sets the pace (closed loop, campaigns), are counted in such
/// seconds, so they estimate a run on dedicated cores.
inline double unstolen_s(double wall, double steal_share) {
  return wall * (1.0 - std::min(steal_share, 0.9));
}

/// Socket workloads: ShardFleet + UdpFrontEnd on loopback, 2 shards.
Report run_udp(const Options& opts);
/// run_sharded_campaign: four-protocol mix over chaotic links, 4 shards.
Report run_chaos(const Options& opts);
/// Print the campaign digests to pin for every chaos_mix campaign seed.
void print_chaos_pins();

}  // namespace wirebench
