// Fleet verification — the engine-layer scenario family: the amortization
// win of batched Schnorr verification, the per-shard verifier's kernel.
//
// No paper table: the paper stops at one tag <-> one mini-server. The
// claim measured and printed up front: verifying a batch of 64
// transcripts by random linear combination (one interleaved multi-scalar
// multiplication + one shared batch-inversion decode) beats 64
// independent schnorr_verify calls. End-to-end sessions/s of the sharded
// gateway lives in bench_loadgen.
//
// Emits BENCH_fleet.json (google-benchmark JSON schema) for the perf
// trajectory unless --benchmark_out is given.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <vector>

#include "bench_util.h"
#include "ecc/curve.h"
#include "engine/batch_verifier.h"
#include "gf2m/backend.h"
#include "protocol/schnorr.h"
#include "protocol/wire.h"

namespace {

using namespace medsec;
namespace proto = protocol;

struct HonestBatch {
  std::vector<proto::SchnorrTranscript> transcripts;
  std::vector<ecc::Point> keys;
  std::vector<std::vector<std::uint8_t>> wires;  ///< encoded commitments
};

/// Deterministic pool of honest transcripts (and their wire encodings).
const HonestBatch& honest_batch(std::size_t n) {
  static std::map<std::size_t, HonestBatch> cache;
  auto& slot = cache[n];
  if (!slot.transcripts.empty()) return slot;
  const ecc::Curve& c = ecc::Curve::k163();
  rng::Xoshiro256 rng(77);
  for (std::size_t i = 0; i < n; ++i) {
    const auto kp = proto::schnorr_keygen(c, rng);
    const auto session = proto::run_schnorr_session(c, kp, rng);
    slot.transcripts.push_back(session.view);
    slot.keys.push_back(kp.X);
    slot.wires.push_back(proto::encode_point(c, session.view.commitment));
  }
  return slot;
}

// --- the headline numbers, printed before the timers -------------------------

void print_table() {
  bench::banner("Fleet throughput: batched verification",
                "engine-layer scaling scenario (beyond the paper's 1:1 link)");

  const ecc::Curve& c = ecc::Curve::k163();
  const auto& pool = honest_batch(64);
  rng::Xoshiro256 rng(78);
  using clock = std::chrono::steady_clock;
  constexpr int kReps = 20;

  // Independent: N x (decode commitment from the wire + double-scalar
  // verifier equation) — what a batch-size-1 server does per session.
  const auto t0 = clock::now();
  for (int r = 0; r < kReps; ++r)
    for (std::size_t i = 0; i < pool.transcripts.size(); ++i) {
      const auto p = proto::decode_point(c, pool.wires[i]);
      auto t = pool.transcripts[i];
      t.commitment = *p;
      benchmark::DoNotOptimize(proto::schnorr_verify(c, pool.keys[i], t));
    }
  const double independent_s =
      std::chrono::duration<double>(clock::now() - t0).count() / kReps;

  // Batched: decode all commitments with one shared inversion, then one
  // RLC multi-scalar multiplication.
  const auto t1 = clock::now();
  for (int r = 0; r < kReps; ++r) {
    const auto pts = engine::decode_points_batch(c, pool.wires);
    std::vector<proto::SchnorrTranscript> ts = pool.transcripts;
    for (std::size_t i = 0; i < ts.size(); ++i) ts[i].commitment = *pts[i];
    const auto out = engine::schnorr_verify_batch(c, ts, pool.keys, rng);
    benchmark::DoNotOptimize(&out.ok);
  }
  const double batched_s =
      std::chrono::duration<double>(clock::now() - t1).count() / kReps;

  std::printf("verification of 64 Schnorr transcripts (backend: %s):\n",
              gf2m::backend_name(gf2m::active_backend()));
  std::printf("  64 x schnorr_verify        : %8.2f us  (%.2f us/item)\n",
              independent_s * 1e6, independent_s * 1e6 / 64);
  std::printf("  1 x batch (decode + RLC)   : %8.2f us  (%.2f us/item)\n",
              batched_s * 1e6, batched_s * 1e6 / 64);
  std::printf("  speedup                    : %8.2fx  (acceptance: >= 2x)\n",
              independent_s / batched_s);
}

// --- microbenchmarks ---------------------------------------------------------

void BM_SchnorrVerifySingle(benchmark::State& state) {
  const ecc::Curve& c = ecc::Curve::k163();
  const auto& pool = honest_batch(64);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        proto::schnorr_verify(c, pool.keys[i], pool.transcripts[i]));
    i = (i + 1) % pool.transcripts.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SchnorrVerifySingle);

void BM_SchnorrVerifyBatchRlc(benchmark::State& state) {
  const ecc::Curve& c = ecc::Curve::k163();
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto& pool = honest_batch(n);
  rng::Xoshiro256 rng(79);
  for (auto _ : state) {
    const auto out =
        engine::schnorr_verify_batch(c, pool.transcripts, pool.keys, rng);
    benchmark::DoNotOptimize(&out.ok);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SchnorrVerifyBatchRlc)->Arg(8)->Arg(64)->ArgName("batch");

void BM_DecodePointSingle(benchmark::State& state) {
  const ecc::Curve& c = ecc::Curve::k163();
  const auto& pool = honest_batch(64);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(proto::decode_point(c, pool.wires[i]));
    i = (i + 1) % pool.wires.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DecodePointSingle);

void BM_DecodePointsBatch(benchmark::State& state) {
  const ecc::Curve& c = ecc::Curve::k163();
  const auto& pool = honest_batch(64);
  for (auto _ : state) {
    const auto pts = engine::decode_points_batch(c, pool.wires);
    benchmark::DoNotOptimize(pts.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_DecodePointsBatch);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  return medsec::bench::run_benchmarks_with_json(argc, argv,
                                                 "BENCH_fleet.json");
}
