// udp.cpp — the socket workloads, udp_paced and udp_saturate.
//
// A run is a sequence of rounds. Each round builds a fresh 2-shard
// ShardFleet + UdpFrontEnd (set-up: the round's commitments, fleet start,
// a warm-up burst), then serves a fixed number of sessions in the timed
// window, then stops the fleet and checks every verdict. A fixed session
// count per fleet keeps rss_mb a function of the server's per-session
// state, not of how many sessions a faster build squeezes into a run.
//
// In a traced run, rounds alternate between untraced (ShardFleet's own
// loop threads) and traced (this file drives each shard's drain_mailbox /
// advance_to / flush_verifier with a span around each call, and wraps
// the front end in a span-recording Transport). The untraced rounds give
// the ledger's total; traced minus untraced is the tracing overhead.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <thread>

#include "client.h"
#include "ecc/curve.h"
#include "engine/campaign_fixtures.h"
#include "engine/net.h"
#include "engine/shard.h"
#include "layers.h"
#include "protocol/schnorr.h"
#include "rng/xoshiro.h"
#include "workloads.h"

namespace wirebench {

namespace {

using namespace medsec;
using Clock = std::chrono::steady_clock;
using engine::campaign::mix_seed;

/// Client + front end + 2 shard threads = 4 threads, one per core of the
/// 4-core reference host.
constexpr std::size_t kShards = 2;
/// Virtual cycles per real microsecond: 1 cycle = 100 µs, so the gateway's
/// default 64-cycle first retransmit fires after 6.4 ms.
constexpr double kCyclesPerUs = 0.01;
constexpr std::size_t kKeys = 1024;
constexpr std::size_t kWarmWindow = 64;
constexpr std::size_t kSpanKeep = 20'000;  ///< verbatim spans per shard log

struct Shape {
  const char* name;
  std::size_t round_sessions;
  std::size_t window;   ///< closed loop live window; 0 = open loop
  double rate_per_s;    ///< open loop offered rate
  std::size_t forge_every;
  bool hostile;
  std::size_t verify_batch;  ///< ShardFleetConfig::verify_batch
  /// Sessions of each round's warm-up (part of setup_s), closed loop.
  std::size_t warm_sessions;
};

// udp_paced: open loop far below udp_saturate's capacity, so each verdict
// pays a single-item verify plus per-datagram and idle-tick costs; an
// off-path trickle exercises the reject path. Batches are capped at one
// transcript: with batches of 64, every host stall batched the sessions it
// held up, so cpu_us_per_verdict tracked the neighbours' load (at 8000/s,
// 161 µs in windows without hypervisor steal, 114 µs at 30% steal). The
// rate is a twelfth of the closed-loop capacity of the 4-core reference
// host: without batching, at 4000/s heavy load from neighbours grew the
// live-session backlog until the run was invalid. The warm-up is a quarter of
// udp_saturate's: it saturates the shards, and 512 single-item verifies
// made setup_s swing with steal (IQR/median 0.29–0.36 over ten seeds).
constexpr Shape kPaced{"udp_paced", 4'000, 0, 2'000.0, 0, true, 1, 128};
// udp_saturate: closed loop, batches fill; 1 in 512 sessions is forged so
// some batches take the per-item fallback.
constexpr Shape kSaturate{"udp_saturate", 32'768, 256, 0.0, 512, false, 64, 512};

enum SpanName : std::uint32_t {
  kTick, kDrain, kTimers, kVerify, kSend, kIdle, kSpanNames
};
constexpr const char* kSpanLabel[kSpanNames] = {
    "shard.tick", "shard.drain", "shard.timers",
    "shard.verify", "net.send", "shard.idle"};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

thread_local SpanLog* t_log = nullptr;

/// Transport decorator: a span around every downlink the shards send.
class TracedTransport final : public engine::Transport {
 public:
  explicit TracedTransport(engine::Transport& inner) : inner_(inner) {}
  void send_downlink(std::uint64_t session, const engine::Peer& peer,
                     std::vector<std::uint8_t> bytes) override {
    SpanLog* log = t_log;
    if (log) log->open(kSend, session, now_ns());
    inner_.send_downlink(session, peer, std::move(bytes));
    if (log) log->close(now_ns());
  }

 private:
  engine::Transport& inner_;
};

/// ShardFleet::start's per-shard loop, run from here with a span around
/// each of the three public calls that make up ShardEngine::tick.
class TracedLoops {
 public:
  TracedLoops(engine::ShardFleet& fleet, engine::Transport& inner,
              const engine::ShardFleetConfig& cfg)
      : transport_(inner) {
    for (std::size_t i = 0; i < fleet.shards(); ++i)
      logs_.push_back(std::make_unique<SpanLog>(kSpanNames, kSpanKeep));
    for (std::size_t i = 0; i < fleet.shards(); ++i) {
      engine::ShardEngine* eng = &fleet.shard(i);
      SpanLog* log = logs_[i].get();
      eng->set_transport(&transport_);
      threads_.emplace_back([this, eng, log, cfg] { loop(*eng, *log, cfg); });
    }
  }
  TracedLoops(const TracedLoops&) = delete;
  TracedLoops& operator=(const TracedLoops&) = delete;
  ~TracedLoops() { stop(); }

  void stop() {
    stop_.store(true, std::memory_order_release);
    for (auto& t : threads_)
      if (t.joinable()) t.join();
  }
  /// The shards' span logs; call after stop().
  std::vector<std::unique_ptr<SpanLog>> release_logs() {
    return std::move(logs_);
  }

 private:
  void loop(engine::ShardEngine& eng, SpanLog& log,
            const engine::ShardFleetConfig& cfg) {
    t_log = &log;
    const auto t0 = Clock::now();
    while (!stop_.load(std::memory_order_acquire)) {
      const double us =
          std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
      const auto vnow = static_cast<core::Cycle>(us * cfg.cycles_per_us);
      log.open(kTick, 0, now_ns());
      log.open(kDrain, 0, now_ns());
      const std::size_t drained = eng.drain_mailbox(cfg.drain_chunk);
      log.close(now_ns());
      log.open(kTimers, 0, now_ns());
      eng.advance_to(std::max(vnow, eng.queue().now()));
      log.close(now_ns());
      log.open(kVerify, 0, now_ns());
      eng.flush_verifier();
      log.close(now_ns());
      log.close(now_ns());
      if (drained == 0) {
        log.open(kIdle, 0, now_ns());
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        log.close(now_ns());
      }
    }
    t_log = nullptr;
  }

  TracedTransport transport_;
  std::vector<std::unique_ptr<SpanLog>> logs_;
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;  // last: joined before the rest dies
};

engine::ShardFleetConfig fleet_config(const Shape& shape, std::uint64_t seed) {
  engine::ShardFleetConfig cfg;
  cfg.shards = kShards;
  cfg.verify_batch = shape.verify_batch;
  cfg.mailbox_capacity = 1 << 15;
  cfg.seed = seed;
  cfg.cycles_per_us = kCyclesPerUs;
  return cfg;
}

engine::SessionFactory session_factory(const ecc::Curve& curve,
                                       const KeyPool& keys,
                                       std::uint64_t seed) {
  return [&curve, &keys, seed](std::uint64_t id) {
    engine::SessionSetup s;
    auto rng = std::make_unique<rng::Xoshiro256>(mix_seed(seed, id));
    s.machine = std::make_unique<protocol::SchnorrVerifier>(
        curve, keys.of(id).X, *rng,
        protocol::SchnorrVerifier::Mode::kDeferred);
    s.deferred_schnorr = true;
    s.rng = std::move(rng);
    return s;
  };
}

bool wait_for_verdicts(const engine::ShardFleet& fleet, std::uint64_t n) {
  const auto t0 = Clock::now();
  while (fleet.totals().completed < n) {
    if (Clock::now() - t0 > std::chrono::seconds(10)) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

struct RoundStats {
  bool traced = false;
  double setup_s = 0;
  double rss_mb = 0;  ///< resident set once every verdict of the round landed
  std::uint64_t verdicts = 0;  ///< landed after the warm-up
  RoundResult client;
  engine::ShardStats totals;
  engine::UdpFrontEndStats front;
  engine::BatchVerifierStats verifier;
  std::uint64_t retransmits = 0, dup_suppressed = 0, decode_failures = 0;
  std::uint64_t sessions_held = 0, opened_by_invalid = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;
  std::vector<std::unique_ptr<SpanLog>> logs;
};

/// Check every session of `plan` against the client's outcome and the
/// shard's verdict record. Returns the number of failed sessions.
std::size_t check_plan(engine::ShardFleet& fleet, const RoundPlan& plan,
                       const RoundResult& res, std::uint64_t& accepted,
                       std::vector<std::string>& errors) {
  std::size_t failed = 0, not_accepted = 0, forged_accepted = 0, unsettled = 0;
  for (std::size_t i = 0; i < plan.sessions; ++i) {
    const std::uint64_t id = plan.id_base + i;
    const auto& recs = fleet.shard(fleet.shard_index(id)).records();
    const auto it = recs.find(id);
    const bool verdict = it != recs.end() && it->second.completed;
    const bool ok_verdict = verdict && it->second.accepted == !plan.forged[i];
    if (verdict && it->second.accepted) ++accepted;
    if (res.outcome[i] != RoundResult::kCompleted) ++unsettled;
    if (verdict && !ok_verdict) (plan.forged[i] ? forged_accepted : not_accepted)++;
    if (!verdict && !plan.forged[i]) ++not_accepted;
    if (res.outcome[i] != RoundResult::kCompleted || !ok_verdict) ++failed;
  }
  if (not_accepted)
    errors.push_back(std::to_string(not_accepted) + " honest sessions not accepted");
  if (forged_accepted)
    errors.push_back(std::to_string(forged_accepted) + " forged sessions accepted");
  if (unsettled)
    errors.push_back(std::to_string(unsettled) +
                     " sessions refused or stuck at the client");
  return failed;
}

RoundStats run_one_round(const ecc::Curve& curve, const KeyPool& keys,
                         const Shape& shape, std::uint64_t seed,
                         std::uint32_t round, std::size_t sessions,
                         bool traced) {
  RoundStats st;
  st.traced = traced;
  const auto setup0 = Clock::now();
  const std::uint64_t id_base = static_cast<std::uint64_t>(round + 1) << 32;
  RoundPlan plan = make_round_plan(curve, mix_seed(seed, 3 * round), id_base,
                                   sessions, shape.forge_every);
  if (shape.window == 0)
    plan.due_us = poisson_due_us(mix_seed(seed, 3 * round + 1),
                                 shape.rate_per_s, sessions);
  const RoundPlan warm = make_round_plan(curve, mix_seed(seed, 3 * round + 2),
                                         id_base | (1ULL << 31),
                                         shape.warm_sessions, 0);

  const engine::ShardFleetConfig cfg = fleet_config(shape, mix_seed(seed, round));
  auto fleet = std::make_unique<engine::ShardFleet>(
      curve, cfg, session_factory(curve, keys, seed), /*producers=*/1);
  auto front = std::make_unique<engine::UdpFrontEnd>(*fleet);
  front->start();
  std::unique_ptr<TracedLoops> loops;
  if (traced)
    loops = std::make_unique<TracedLoops>(*fleet, *front, cfg);
  else
    fleet->start(*front);

  const RoundResult warm_res =
      run_round(curve, keys, front->local_port(), warm, {kWarmWindow, false});
  if (!wait_for_verdicts(*fleet, shape.warm_sessions))
    st.errors.push_back("warm-up verdicts did not land");
  st.setup_s = std::chrono::duration<double>(Clock::now() - setup0).count();

  const std::uint64_t before = fleet->totals().completed;
  st.client = run_round(curve, keys, front->local_port(), plan,
                        {shape.window, shape.hostile});
  if (!wait_for_verdicts(*fleet, shape.warm_sessions + sessions))
    st.errors.push_back("verdicts did not land within 10 s");
  st.verdicts = fleet->totals().completed - before;
  // Every session of the round is still held here: nothing is reclaimed
  // before the fleet stops.
  st.rss_mb = current_rss_mb();

  front->stop();
  if (loops) {
    loops->stop();
  } else {
    fleet->stop(/*force=*/true);
  }

  // Shard state is readable now that every shard thread has stopped.
  st.totals = fleet->totals();
  st.front = front->stats();
  for (std::size_t s = 0; s < fleet->shards(); ++s) {
    engine::ShardEngine& eng = fleet->shard(s);
    const auto v = eng.verifier().stats();
    st.verifier.items += v.items;
    st.verifier.batches += v.batches;
    st.verifier.rlc_failures += v.rlc_failures;
    const auto ids = eng.gateway().session_ids();
    st.sessions_held += ids.size();
    for (const std::uint64_t id : ids)
      if (const engine::DeliveryStats* ds = eng.gateway().delivery_stats(id)) {
        st.retransmits += ds->retransmits;
        st.dup_suppressed += ds->dup_suppressed;
        st.decode_failures += ds->decode_failures;
      }
  }
  std::uint64_t accepted = 0;
  std::vector<std::string> warm_errors;
  check_plan(*fleet, warm, warm_res, accepted, warm_errors);
  for (const auto& e : warm_errors) st.errors.push_back("warm-up: " + e);
  st.failed = check_plan(*fleet, plan, st.client, accepted, st.errors);
  // A verdict for anything but an honest session would be a datagram the
  // CRC or the protocol should have stopped.
  if (st.totals.accepted != accepted)
    st.errors.push_back("corrupt_accepted = " +
                        std::to_string(st.totals.accepted - accepted));
  const std::uint64_t honest_opened = shape.warm_sessions + sessions;
  st.opened_by_invalid =
      st.totals.opened > honest_opened ? st.totals.opened - honest_opened : 0;
  if (shape.window == 0) {
    if (grows(st.client.lateness_us, 4.0, 2'000.0))
      st.errors.push_back("run invalid: generator lateness grew over the round");
    if (grows(st.client.backlog, 4.0, 64.0))
      st.errors.push_back("run invalid: live-session backlog grew over the round");
  }
  if (loops) st.logs = loops->release_logs();
  loops.reset();
  front.reset();
  fleet.reset();
  // Hand the round's freed session state back to the kernel, so the next
  // round's resident set starts from the same floor.
  malloc_trim(0);
  return st;
}

template <typename F>
double median_of(const std::vector<const RoundStats*>& rounds, F&& f) {
  std::vector<double> v;
  for (const RoundStats* r : rounds) v.push_back(f(*r));
  return median(v);
}

/// Medians over the scored windows of `rounds`. Each round's first window
/// (the closed loop's ramp, the fresh fleet's first traffic) is never
/// scored.
struct WindowMedians {
  double rate = 0, wall_rate = 0, p50_ms = 0, p99_ms = 0, cpu_us = 0, client_share = 0;
  double steal_scored = 0, steal_all = 0;
  std::size_t windows = 0, scored = 0, samples = 0, beyond = 0;
};

WindowMedians window_medians(const std::vector<const RoundStats*>& rounds,
                             bool closed_loop) {
  std::vector<const Window*> ws;
  std::vector<double> steal;
  WindowMedians m;
  double client = 0, seconds = 0;
  for (const RoundStats* r : rounds)
    for (std::size_t k = 1; k < r->client.windows.size(); ++k) {
      const Window& w = r->client.windows[k];
      if (w.completed == 0) continue;
      ws.push_back(&w);
      steal.push_back(w.steal_share);
      m.steal_all += w.steal_share;
      client += w.client_cpu_s;
      seconds += w.seconds;
    }
  m.windows = ws.size();
  if (ws.empty()) return m;
  m.steal_all /= static_cast<double>(ws.size());
  m.client_share = client / seconds;
  std::vector<double> rate, wall_rate, p50, p99, cpu;
  for (const std::size_t i : quietest(steal, kScoredShare)) {
    const Window& w = *ws[i];
    const double done = static_cast<double>(w.completed);
    wall_rate.push_back(done / w.seconds);
    // The closed loop runs as fast as the server: count per un-stolen
    // second. The open loop's rate is its schedule's: count per second.
    rate.push_back(done / (closed_loop ? unstolen_s(w.seconds, w.steal_share) : w.seconds));
    p50.push_back(w.latency_us.p50 * 1e-3);
    p99.push_back(w.latency_us.p99 * 1e-3);
    cpu.push_back(1e6 * (w.process_cpu_s - w.client_cpu_s) / done);
    m.samples += w.latency_us.samples;
    m.beyond += w.latency_us.beyond_p99;
    m.steal_scored += w.steal_share;
  }
  m.scored = rate.size();
  m.steal_scored /= static_cast<double>(m.scored);
  m.rate = median(rate);
  m.wall_rate = median(wall_rate);
  m.p50_ms = median(p50);
  m.p99_ms = median(p99);
  m.cpu_us = median(cpu);
  return m;
}

/// Round set-up wall times, ascending.
std::vector<double> round_setups(const std::vector<const RoundStats*>& rounds) {
  std::vector<double> setup;
  for (const RoundStats* r : rounds) setup.push_back(r->setup_s);
  std::sort(setup.begin(), setup.end());
  return setup;
}

void write_windows(const std::string& path, const std::vector<RoundStats>& rounds) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "round\ttraced\twindow\tseconds\tcompleted\tsteal_share\tp50_us\tp99_us"
                  "\tserver_cpu_us_per_verdict\tclient_cpu_s\trss_mb\n");
  for (std::size_t r = 0; r < rounds.size(); ++r)
    for (std::size_t k = 0; k < rounds[r].client.windows.size(); ++k) {
      const Window& w = rounds[r].client.windows[k];
      std::fprintf(f, "%zu\t%d\t%zu\t%.6f\t%zu\t%.4f\t%.1f\t%.1f\t%.3f\t%.6f\t%.2f\n", r,
                   rounds[r].traced ? 1 : 0, k, w.seconds, w.completed, w.steal_share,
                   w.latency_us.p50, w.latency_us.p99,
                   w.completed ? 1e6 * (w.process_cpu_s - w.client_cpu_s) / static_cast<double>(w.completed) : 0.0,
                   w.client_cpu_s, w.rss_mb);
    }
  std::fclose(f);
}

void write_spans(const std::string& path,
                 const std::vector<const RoundStats*>& traced) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "round\tshard\tindex\tname\tparent\tsession\tstart_ns\tend_ns\n");
  for (std::size_t r = 0; r < traced.size(); ++r)
    for (std::size_t s = 0; s < traced[r]->logs.size(); ++s) {
      const auto& kept = traced[r]->logs[s]->kept();
      for (std::size_t i = 0; i < kept.size(); ++i) {
        const Span& sp = kept[i];
        std::fprintf(f, "%zu\t%zu\t%zu\t%s\t%ld\t%" PRIu64 "\t%" PRId64 "\t%" PRId64 "\n",
                     r, s, i, kSpanLabel[sp.name],
                     sp.parent == Span::kNoParent ? -1L : static_cast<long>(sp.parent),
                     sp.session, sp.start_ns, sp.end_ns);
      }
    }
  std::fclose(f);
}

}  // namespace

Report run_udp(const Options& opts) {
  const Shape& shape = opts.workload == kPaced.name ? kPaced : kSaturate;
  const ecc::Curve& curve = ecc::Curve::k163();
  Report rep;

  // One-time process set-up: device keys, comb tables, and one unscored
  // warm-up round (the first round in a process runs slower).
  const auto t_once = Clock::now();
  const KeyPool keys = make_key_pool(curve, mix_seed(opts.seed, 0x4B), kKeys);
  const RoundStats warm = run_one_round(curve, keys, shape, opts.seed, 0,
                                        shape.round_sessions / 4, false);
  for (const auto& e : warm.errors) rep.fail("warm-up round: " + e);
  rep.note("one-time set-up (keys, warm-up round): " +
           std::to_string(std::chrono::duration<double>(Clock::now() - t_once).count()) + " s");

  std::vector<RoundStats> rounds;
  const auto t0 = Clock::now();
  const std::size_t min_rounds = opts.trace ? 4 : 3;
  for (std::uint32_t r = 1;; ++r) {
    const double elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
    const double per_round = rounds.empty() ? 0.0 : elapsed / static_cast<double>(rounds.size());
    if (rounds.size() >= min_rounds && elapsed + per_round > opts.seconds) break;
    rounds.push_back(run_one_round(curve, keys, shape, opts.seed, r,
                                   shape.round_sessions,
                                   opts.trace && r % 2 == 0));
  }

  std::vector<const RoundStats*> plain, traced, all;
  for (const RoundStats& r : rounds) {
    (r.traced ? traced : plain).push_back(&r);
    all.push_back(&r);
    for (const auto& e : r.errors) rep.fail(e);
    rep.attempted += r.client.attempted;
    rep.failed += r.failed;
  }

  const std::string windows_path = opts.out_dir + "/windows-" + shape.name + ".tsv";
  write_windows(windows_path, rounds);
  rep.note("windows written to " + windows_path);

  // --- end to end (untraced rounds) ------------------------------------------
  const WindowMedians e2e = window_medians(plain, shape.window != 0);
  const WindowMedians every = window_medians(all, shape.window != 0);
  // A set-up lasts tens of milliseconds, too short for the host's steal
  // counter (10 ms ticks) to say how much of it was stolen: take the
  // median over every round, counted in the run's un-stolen seconds.
  const std::vector<double> setups = round_setups(all);
  if (e2e.windows < 8) rep.fail("fewer than 8 measurement windows; raise --seconds");
  rep.end_to_end = {
      {"verdicts_per_s", e2e.rate, "1/s"},
      {"cpu_us_per_verdict", e2e.cpu_us, "us"},
      {"rss_mb", median_of(plain, [](const RoundStats& r) { return r.rss_mb; }), "MB"},
      {"setup_s", unstolen_s(median(setups), every.steal_all), "s"},
  };
  rep.latency = {
      {"p50_ms", e2e.p50_ms, "ms"},
      {"p99_ms", e2e.p99_ms, "ms"},
  };
  char line[400];
  std::snprintf(line, sizeof line,
                "medians over the quietest %zu of %zu windows (%.0f ms each) of %zu rounds: "
                "host steal %.1f%% in them, %.1f%% over all; %.1f verdicts per wall second; "
                "latency from %zu samples, %zu beyond p99; the "
                "clock starts when the first uplink was %s",
                e2e.scored, e2e.windows, kWindowMs, plain.size(), 100 * e2e.steal_scored,
                100 * e2e.steal_all, e2e.wall_rate, e2e.samples, e2e.beyond,
                shape.window == 0 ? "due" : "sent");
  rep.note(line);
  std::snprintf(line, sizeof line,
                "setup_s: median of %zu round set-ups (commitments, fleet start, %zu-session "
                "warm-up), %.1f to %.1f ms of wall time",
                setups.size(), shape.warm_sessions, 1e3 * setups.front(), 1e3 * setups.back());
  rep.note(line);
  double late_max = 0;
  for (const RoundStats* r : all)
    for (const double l : r->client.lateness_us) late_max = std::max(late_max, l);
  std::snprintf(line, sizeof line,
                "failed_share %.6f (%zu of %zu sessions); client CPU share %.3f of a core; "
                "rss_mb: resident set with all of a round's sessions held, median over rounds",
                rep.attempted ? static_cast<double>(rep.failed) / static_cast<double>(rep.attempted) : 0.0,
                rep.failed, rep.attempted, every.client_share);
  rep.note(line);
  if (every.client_share >= 0.5)
    rep.fail("run invalid: the client used half a core or more, so the server is not "
             "the only bottleneck");
  if (!opts.trace) return rep;

  // --- per layer --------------------------------------------------------------
  engine::ShardStats tot;
  engine::UdpFrontEndStats fs;
  engine::BatchVerifierStats vs;
  std::uint64_t verdicts = 0, retx = 0, dups = 0, decode_fail = 0, client_retx = 0;
  std::uint64_t opened_invalid = 0, offpath = 0;
  for (const RoundStats* r : all) {
    verdicts += r->verdicts;
    tot.mailbox_shed += r->totals.mailbox_shed;
    fs.datagrams_in += r->front.datagrams_in;
    fs.datagrams_out += r->front.datagrams_out;
    fs.not_a_frame += r->front.not_a_frame;
    vs.items += r->verifier.items;
    vs.batches += r->verifier.batches;
    vs.rlc_failures += r->verifier.rlc_failures;
    retx += r->retransmits;
    client_retx += r->client.retransmits;
    dups += r->dup_suppressed;
    decode_fail += r->decode_failures;
    opened_invalid += r->opened_by_invalid;
    offpath += r->client.offpath_downlinks;
  }
  const double sessions_all = static_cast<double>(rep.attempted + all.size() * shape.warm_sessions);
  // The front end's counts include every round's warm-up sessions.
  const double v = static_cast<double>(
      std::max<std::uint64_t>(verdicts + all.size() * shape.warm_sessions, 1));

  std::vector<double> self(kSpanNames, 0.0), total(kSpanNames, 0.0);
  std::vector<std::uint64_t> calls(kSpanNames, 0);
  std::uint64_t traced_verdicts = 0;
  for (const RoundStats* r : traced) {
    traced_verdicts += r->verdicts + shape.warm_sessions;
    for (const auto& log : r->logs)
      for (std::size_t n = 0; n < kSpanNames; ++n) {
        self[n] += log->self_ns()[n];
        total[n] += log->total_ns()[n];
        calls[n] += log->calls()[n];
      }
  }
  const double tv = static_cast<double>(std::max<std::uint64_t>(traced_verdicts, 1));
  const auto us_per_verdict = [&](SpanName n) { return 1e-3 * self[n] / tv; };
  const double traced_cpu_us = window_medians(traced, shape.window != 0).cpu_us;

  const RoundPlan sample = make_round_plan(curve, mix_seed(opts.seed, 0x5A), 1ULL << 40, 64, 0);
  const double batch = vs.batches ? static_cast<double>(vs.items) / static_cast<double>(vs.batches) : 1.0;
  const LayerCosts lc = measure_layers(curve, keys, sample, rounds.back().client.recorded,
                                       batch, opts.seed);

  rep.ledger.total_us = e2e.cpu_us;
  rep.ledger.lines = {
      {"shard.drain: gateway uplink, ARQ, machine steps (self)", us_per_verdict(kDrain)},
      {"shard.timers: ARQ retransmit and deadline timers (self)", us_per_verdict(kTimers)},
      {"shard.verify: batch verifier flush, MSM", us_per_verdict(kVerify)},
      {"net.send: downlink sendto", us_per_verdict(kSend)},
      {"shard.tick: loop bookkeeping (self)", us_per_verdict(kTick)},
  };
  rep.tracing_overhead_us = traced_cpu_us - e2e.cpu_us;
  rep.note("ledger: span self time in traced rounds per verdict; total is the untraced "
           "cpu_us_per_verdict; the front end's receive thread and kernel time are unattributed");
  if (shape.verify_batch == 1)
    rep.note("verify_batch 1: each transcript is verified as it is drained, so shard.drain "
             "holds the verify and shard.verify only the empty flushes");
  const std::string spans = opts.out_dir + "/spans-" + shape.name + ".tsv";
  write_spans(spans, {traced.front()});
  rep.note("spans of the first traced round written to " + spans);

  const double idle_wall = total[kIdle] + total[kTick];
  rep.per_layer = {
      {"gf2m.mul_ns", lc.gf_mul_ns, "ns"},
      {"gf2m.sqr_ns", lc.gf_sqr_ns, "ns"},
      {"gf2m.inv_ns", lc.gf_inv_ns, "ns"},
      {"ecc.ladder_us", lc.ladder_us, "us"},
      {"ecc.comb_us", lc.comb_us, "us"},
      {"ecc.decode_point_us", lc.decode_point_us, "us"},
      {"verify.items_per_batch", batch, "count"},
      {"verify.fallback_share", vs.batches ? static_cast<double>(vs.rlc_failures) / static_cast<double>(vs.batches) : 0.0, "ratio"},
      {"verify.us_per_item-b1", lc.verify_b1_us, "us"},
      {"verify.us_per_item-b64", lc.verify_b64_us, "us"},
      {"protocol.step_us.schnorr", lc.server_step_us[0], "us"},
      {"protocol.step_us.ph", lc.server_step_us[1], "us"},
      {"protocol.step_us.mutual", lc.server_step_us[2], "us"},
      {"protocol.step_us.ecies", lc.server_step_us[3], "us"},
      {"codec.encode_ns", lc.encode_ns, "ns"},
      {"codec.decode_ns", lc.decode_ns, "ns"},
      {"arq.retransmits_per_session", static_cast<double>(retx + client_retx) / sessions_all, "count"},
      {"arq.dup_suppressed_per_session", static_cast<double>(dups) / sessions_all, "count"},
      {"arq.decode_failures", static_cast<double>(decode_fail), "count"},
      {"gateway.uplink_us", lc.uplink_us, "us"},
      {"gateway.snapshot_us", lc.snapshot_us, "us"},
      {"gateway.restore_us", lc.restore_us, "us"},
      {"gateway.sessions_held", median_of(all, [](const RoundStats& r) {
         return static_cast<double>(r.sessions_held);
       }), "count"},
      {"shard.ticks_per_verdict", static_cast<double>(calls[kTick]) / tv, "count"},
      {"shard.drain_us_per_verdict", us_per_verdict(kDrain), "us"},
      {"shard.timers_us_per_verdict", us_per_verdict(kTimers), "us"},
      {"shard.verify_us_per_verdict", us_per_verdict(kVerify), "us"},
      {"shard.idle_share", idle_wall > 0 ? total[kIdle] / idle_wall : 0.0, "ratio"},
      {"mailbox.shed", static_cast<double>(tot.mailbox_shed), "count"},
      {"mailbox.push_pop_ns", lc.push_pop_ns, "ns"},
      {"net.datagrams_in_per_verdict", static_cast<double>(fs.datagrams_in) / v, "count"},
      {"net.datagrams_out_per_verdict", static_cast<double>(fs.datagrams_out) / v, "count"},
      {"net.send_us", calls[kSend] ? 1e-3 * total[kSend] / static_cast<double>(calls[kSend]) : 0.0, "us"},
      {"net.not_a_frame", static_cast<double>(fs.not_a_frame), "count"},
      {"net.sessions_opened_by_invalid", static_cast<double>(opened_invalid), "count"},
      {"net.downlinks_to_offpath", static_cast<double>(offpath), "count"},
      {"loadgen.client_cpu_share", every.client_share, "ratio"},
      {"p50_ms", e2e.p50_ms, "ms"},
      {"p99_ms", e2e.p99_ms, "ms"},
      {"sim_p50_cycles", 0.0, "cycles"},
      {"sim_p99_cycles", 0.0, "cycles"},
      {"host.steal_share", every.steal_all, "ratio"},
      {"loadgen.late_ms_max", late_max * 1e-3, "ms"},
      {"unattributed_us_per_verdict", rep.ledger.unattributed_us(), "us"},
      {"tracing_overhead_us_per_verdict", rep.tracing_overhead_us, "us"},
  };
  return rep;
}

}  // namespace wirebench
