// Gateway chaos campaign — the resilience-layer scenario family: completion
// rate, retransmit cost and completion-latency percentiles of the sharded
// device↔gateway fleet as the channel degrades (loss × corruption sweep),
// plus the PR acceptance drill printed up front:
//
//   * >= 1k sessions at 20% loss / 5% corruption with reordering and
//     duplication on reach 100% completion with ZERO corrupted frames
//     accepted and zero stuck sessions;
//   * the campaign digest is bit-identical across reruns and thread
//     counts (the determinism contract extended over the failure model);
//   * a mid-protocol full-fleet failover (snapshot every session, kill the
//     node, restore onto a fresh one) changes none of that.
//
// No paper table: the paper's channel is an idealized 1:1 link. This bench
// opens the deployment axis — what serving the protocols over a real
// (lossy) channel costs. Emits BENCH_gateway.json (google-benchmark JSON
// schema) for the perf trajectory unless --benchmark_out is given.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_util.h"
#include "engine/gateway.h"
#include "engine/shard.h"
#include "engine/transport.h"

namespace {

using namespace medsec;

engine::ChaosCampaignConfig campaign_config(std::size_t sessions,
                                            double loss, double corrupt) {
  engine::ChaosCampaignConfig cfg;
  cfg.sessions = sessions;
  cfg.seed = 0xC4A05CA7;
  cfg.uplink.drop = loss;
  cfg.uplink.corrupt = corrupt;
  cfg.uplink.reorder = 0.10;
  cfg.uplink.duplicate = 0.05;
  cfg.downlink = cfg.uplink;
  return cfg;
}

/// The campaign on four shard worlds.
engine::ChaosCampaignResult run_campaign(
    const engine::ChaosCampaignConfig& chaos) {
  engine::ShardedCampaignConfig cfg;
  cfg.chaos = chaos;
  cfg.shards = 4;
  return engine::run_sharded_campaign(cfg).chaos;
}

// --- the headline numbers, printed before the timers -------------------------

bool print_table() {
  bench::banner(
      "Gateway resilience: chaos campaign over the framed transport",
      "deployment-layer scenario (the paper's link, made lossy)");

  // Degradation sweep: completion and latency as the channel worsens.
  std::printf(
      "\n  %-28s %10s %12s %10s %10s %10s\n", "channel (fleet=256)",
      "complete", "retx/sess", "p50", "p99", "max");
  for (const double corrupt : {0.0, 0.05}) {
    for (const double loss : {0.0, 0.05, 0.10, 0.20, 0.30}) {
      const auto r = run_campaign(campaign_config(256, loss, corrupt));
      char label[64];
      std::snprintf(label, sizeof(label), "%2.0f%% loss / %2.0f%% corrupt",
                    loss * 100, corrupt * 100);
      std::printf("  %-28s %9.1f%% %12.2f %10llu %10llu %10llu\n", label,
                  100.0 * static_cast<double>(r.completed) /
                      static_cast<double>(r.sessions),
                  static_cast<double>(r.retransmits) /
                      static_cast<double>(r.sessions),
                  static_cast<unsigned long long>(r.latency_p50),
                  static_cast<unsigned long long>(r.latency_p99),
                  static_cast<unsigned long long>(r.latency_max));
    }
  }

  // The acceptance drill: 1k+ sessions under the headline fault mix,
  // twice (serial and wide), plus a mid-protocol full-fleet failover.
  auto cfg = campaign_config(1024, 0.20, 0.05);
  cfg.threads = 1;
  const auto serial = run_campaign(cfg);
  cfg.threads = 0;
  const auto wide = run_campaign(cfg);
  cfg.failover_at = 200;
  const auto failover = run_campaign(cfg);

  std::printf("\n  acceptance drill (%zu sessions, 20%% loss, 5%% corrupt,"
              " reorder+dup on):\n", serial.sessions);
  std::printf("    completed %zu/%zu   stuck %zu   corrupt frames accepted"
              " %llu\n", serial.completed, serial.sessions, serial.stuck,
              static_cast<unsigned long long>(serial.corrupt_accepted));
  std::printf("    frames: %llu sent, %llu dropped, %llu corrupted, %llu"
              " retransmits\n",
              static_cast<unsigned long long>(serial.frames_sent),
              static_cast<unsigned long long>(serial.frames_dropped),
              static_cast<unsigned long long>(serial.frames_corrupted),
              static_cast<unsigned long long>(serial.retransmits));
  std::printf("    digest serial=%016llx wide=%016llx  (%s)\n",
              static_cast<unsigned long long>(serial.digest),
              static_cast<unsigned long long>(wide.digest),
              serial.digest == wide.digest ? "bit-identical"
                                           : "MISMATCH");
  std::printf("    failover@200: completed %zu/%zu, restored %llu,"
              " corrupt accepted %llu\n", failover.completed,
              failover.sessions,
              static_cast<unsigned long long>(failover.gateway.restored),
              static_cast<unsigned long long>(failover.corrupt_accepted));

  const bool ok = serial.completed == serial.sessions &&
                  serial.stuck == 0 && serial.corrupt_accepted == 0 &&
                  serial.digest == wide.digest &&
                  failover.completed == failover.sessions &&
                  failover.corrupt_accepted == 0;
  std::printf("    verdict: %s\n", ok ? "PASS" : "FAIL");
  return ok;
}

// --- timers ------------------------------------------------------------------

/// Wall time of a full chaos campaign at a given fleet size and loss rate
/// (corruption pinned at a quarter of the loss rate, reorder/dup on).
void BM_ChaosCampaign(benchmark::State& state) {
  const auto sessions = static_cast<std::size_t>(state.range(0));
  const double loss = static_cast<double>(state.range(1)) / 100.0;
  auto cfg = campaign_config(sessions, loss, loss / 4.0);
  std::size_t completed = 0;
  for (auto _ : state) {
    const auto r = run_campaign(cfg);
    completed += r.completed;
    benchmark::DoNotOptimize(r.digest);
  }
  if (completed !=
      sessions * static_cast<std::size_t>(state.iterations()))
    state.SkipWithError("chaos campaign left sessions incomplete");
  state.SetItemsProcessed(static_cast<std::int64_t>(completed));
  state.counters["sessions_per_s"] = benchmark::Counter(
      static_cast<double>(completed), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ChaosCampaign)
    ->ArgsProduct({{64, 256}, {0, 20}})
    ->ArgNames({"sessions", "loss_pct"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

/// The transport hot path: encode + strict decode of one protocol-sized
/// frame (48-byte payload — the telemetry blob).
void BM_FrameCodec(benchmark::State& state) {
  engine::Frame f;
  f.session = 7;
  f.seq = 3;
  f.label = "telemetry";
  f.payload.assign(48, 0xA5);
  for (auto _ : state) {
    const auto bytes = engine::encode_frame(f);
    auto back = engine::decode_frame(bytes);
    benchmark::DoNotOptimize(back);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FrameCodec);

}  // namespace

int main(int argc, char** argv) {
  // The drill is a hard gate, not a report: CI runs this binary and a
  // FAIL verdict must fail the job.
  if (!print_table()) return 1;
  return medsec::bench::run_benchmarks_with_json(argc, argv,
                                                 "BENCH_gateway.json");
}
