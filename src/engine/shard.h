// shard.h — the sharded async gateway engine: N independent event loops,
// each owning one core::EventQueue, one GatewayServer (its partition of
// the session registry, hashed by session id) and one SchnorrBatchVerifier
// that drains deferred transcripts into ONE Straus/Shamir multi-scalar
// multiplication per tick.
//
// Data flow (socket mode):
//
//   UDP datagrams ──> net.h front end (epoll readiness loop)
//                         │  peek session id from the frame header,
//                         │  shard = shard_of(id)
//                         ▼
//              lock-free SPSC mailbox lane        (core/mpsc_ring.h,
//                         │                        one lane per producer —
//                         │                        full lane => kReject)
//                         │  ring the doorbell if the shard sleeps
//                         ▼
//     shard thread: drain mailbox -> GatewayServer::on_uplink
//                   run virtual-clock timers (ARQ retransmits, deadlines)
//                   flush batch verifier (<= 1 MSM per tick)
//                   nothing left: sleep until the doorbell, the next
//                   timer's wall-clock deadline, or stop()
//                         │
//                         ▼
//              Transport::send_downlink (sendto / LossyLink)
//
// Threading contract: everything inside a ShardEngine (queue, gateway,
// session records) is owned by its shard thread — the single-threaded
// discipline of core::EventQueue. The cross-thread edges are:
//   * the mailbox rings (wait-free);
//   * the doorbell: an atomic `sleeping` flag every offer() exchanges,
//     plus a mutex + condition variable a producer touches only when it
//     takes the flag from a sleeping shard, and stop() touches to wake
//     every shard. A busy shard costs a producer one uncontended atomic
//     exchange per datagram;
//   * the verifier (internally locked, but only ever touched by its own
//     shard here);
//   * the relaxed stats counters.
//
// Deterministic mode: run_sharded_campaign() is the chaos campaign on a
// ShardFleet never start()ed, each shard's world on a pool runner: uplinks
// enter through ShardEngine::ingest, downlinks leave through a Transport
// onto seeded LossyLinks, failover is fail_over(). Every per-session seed
// is a pure function of (campaign seed, global session id) — see
// campaign_fixtures.h — and no seed depends on a shard's index, so the
// outcome digest is the same at ANY shard and thread count; the shard
// suite pins it to a golden value.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/event_queue.h"
#include "core/mpsc_ring.h"
#include "engine/batch_verifier.h"
#include "engine/gateway.h"

namespace medsec::engine {

/// A datagram return address. Socket front ends fill ip/port (IPv4, host
/// byte order); in-process transports may use it as an opaque cookie.
struct Peer {
  std::uint32_t ip = 0;
  std::uint16_t port = 0;
  bool valid() const { return port != 0; }
};

/// One ingress datagram, routed into a shard mailbox.
struct IngressItem {
  std::uint64_t session = 0;
  Peer peer;
  std::vector<std::uint8_t> bytes;
};

/// Where a shard writes a session's downlink bytes. Implementations: the
/// UDP front end (net.h, sendto is datagram-atomic and thread-safe) and
/// the chaos campaign's in-process LossyLink adapter (shard.cpp).
class Transport {
 public:
  virtual ~Transport() = default;
  virtual void send_downlink(std::uint64_t session, const Peer& peer,
                             std::vector<std::uint8_t> bytes) = 0;
};

/// Session -> shard partition: splitmix64 finalizer over the id. Pure
/// function of the id, so the front end and every test agree without
/// coordination.
inline std::size_t shard_of(std::uint64_t session, std::size_t shards) {
  std::uint64_t z = session + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return shards <= 1 ? 0 : static_cast<std::size_t>(z % shards);
}

/// What a shard needs to serve one new session (auto-opened on its first
/// datagram in socket mode).
struct SessionSetup {
  std::unique_ptr<protocol::SessionMachine> machine;
  GatewayServer::Judge judge;  ///< inline verdict (ignored when deferred)
  /// Machine is a Mode::kDeferred SchnorrVerifier: route the verdict
  /// through the shard's batch verifier instead of the inline judge.
  bool deferred_schnorr = false;
  std::unique_ptr<rng::Xoshiro256> rng;
};

/// Builds the server half for a session id. Must be thread-safe across
/// shards (each shard calls it from its own thread) and deterministic in
/// the id for reproducible runs.
using SessionFactory = std::function<SessionSetup(std::uint64_t session)>;

struct ShardFleetConfig {
  std::size_t shards = 1;
  /// Mailbox ring capacity per producer lane per shard (rounded up to a
  /// power of two). A full lane sheds with kReject — bounded memory and
  /// explicit backpressure, never a blocked readiness loop.
  std::size_t mailbox_capacity = 4096;
  /// Per-shard batch verifier flush threshold; the shard tick also
  /// flushes whatever is queued, so this is a ceiling, not a latency.
  std::size_t verify_batch = 64;
  /// Base seed: every shard's gateway derives per-session ARQ jitter from
  /// it alone; each shard's RLC coefficients also mix in its index.
  std::uint64_t seed = 0x5EC0FFEE;
  GatewayConfig gateway;
  /// Socket mode: virtual cycles per real microsecond (drives ARQ
  /// retransmit timers off the wall clock).
  double cycles_per_us = 1.0;
  /// Max mailbox items drained per tick before timers run again.
  std::size_t drain_chunk = 256;
};

/// Relaxed-atomic counters a shard thread publishes while running.
struct ShardStats {
  std::uint64_t ingress = 0;         ///< datagrams drained from the mailbox
  std::uint64_t mailbox_shed = 0;    ///< try_push failures (backpressure)
  std::uint64_t opened = 0;
  std::uint64_t completed = 0;       ///< verdict landed (deferred included)
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t verifier_flushes = 0;  ///< ticks that ran an MSM
  std::uint64_t ticks = 0;

  ShardStats& operator+=(const ShardStats& o) {
    ingress += o.ingress;
    mailbox_shed += o.mailbox_shed;
    opened += o.opened;
    completed += o.completed;
    accepted += o.accepted;
    rejected += o.rejected;
    verifier_flushes += o.verifier_flushes;
    ticks += o.ticks;
    return *this;
  }
};

/// One shard: event queue + gateway partition + batch verifier + mailbox
/// + doorbell. Producer API (offer) is callable from its designated
/// producer threads, and wait-free unless the shard sleeps; wake() is
/// callable from any thread; everything else belongs to the shard thread.
class ShardEngine {
 public:
  ShardEngine(std::size_t index, const ShardFleetConfig& config,
              const ecc::Curve& curve, SessionFactory factory,
              std::size_t producers);

  ShardEngine(const ShardEngine&) = delete;
  ShardEngine& operator=(const ShardEngine&) = delete;

  std::size_t index() const { return index_; }

  /// Producer path (front-end thread `lane`): route one datagram into
  /// this shard's mailbox, and ring the doorbell if the shard thread is
  /// asleep in wait_for_work. False = lane full; the caller sheds (replies
  /// kReject). Only ringing takes a lock, held by the shard thread just
  /// long enough to re-check the mailbox.
  bool offer(std::size_t lane, IngressItem&& item);

  /// Any thread: end the shard thread's current wait_for_work, or make
  /// its next one return at once (the stop path).
  void wake();

  // --- shard-thread API ------------------------------------------------------

  void set_transport(Transport* t) { transport_ = t; }

  /// Serve one datagram: note its return address, open an unknown id via
  /// the factory, feed the gateway. drain_mailbox runs this per item.
  void ingest(IngressItem&& item);

  /// Run up to `limit` mailbox items through ingest(). Returns items run.
  std::size_t drain_mailbox(std::size_t limit);

  /// Open session `id` via the factory before any datagram arrives (the
  /// factory may refuse the id, admission control may shed it).
  void open_session(std::uint64_t id);

  /// Node death mid-protocol: snapshot every session in id order, replace
  /// the gateway, and restore each session onto the new one via the
  /// factory. Records, peers and queued deferred transcripts survive.
  void fail_over();

  /// Run timers due by virtual cycle `t` (ARQ retransmits, deadlines).
  void advance_to(core::Cycle t) { queue_.run_until(t); }

  /// Verify everything queued — at most one MSM per call/tick.
  void flush_verifier();

  /// One socket-mode tick: drain -> timers -> flush. Returns the number
  /// of mailbox items drained; fewer than a full chunk means the mailbox
  /// was empty when the drain stopped, so the loop may wait_for_work.
  std::size_t tick(core::Cycle virtual_now);

  /// Block until a datagram is in the mailbox, `until` passes (nullopt:
  /// no deadline) or wake() is called. The mailbox is re-checked after
  /// the shard announces its sleep, so an offer() racing the call is
  /// never lost: either this check sees it or that offer rings.
  void wait_for_work(
      std::optional<std::chrono::steady_clock::time_point> until);

  bool quiescent() const {
    return mailbox_.size_approx() == 0 && queue_.empty() &&
           verifier_.pending() == 0;
  }

  core::EventQueue& queue() { return queue_; }
  GatewayServer& gateway() { return *gateway_; }
  SchnorrBatchVerifier& verifier() { return verifier_; }
  /// The gateway ledger across fail_over(): the live gateway's stats plus
  /// those of every gateway it replaced, counting deferred accepts (the
  /// gateway settles a deferred session with a placeholder reject).
  GatewayStats gateway_stats() const {
    GatewayStats s = retired_;
    s += gateway_->stats();
    s.accepted += deferred_accepted_;
    return s;
  }

  /// One record per landed verdict, inline or deferred (shard-thread
  /// owned; read from other threads only after the shard stops).
  struct Record {
    bool completed = false;  ///< verdict landed
    bool accepted = false;
  };
  const std::unordered_map<std::uint64_t, Record>& records() const {
    return records_;
  }

  ShardStats stats() const;

 private:
  std::unique_ptr<GatewayServer> make_gateway();
  GatewayServer::Downlink downlink_to(std::uint64_t id);
  /// Inline judge or batch-verifier handoff; both land verdicts in records_.
  GatewayServer::Judge make_judge(std::uint64_t id, SessionSetup& setup);
  void record_verdict(std::uint64_t id, bool accepted);

  std::size_t index_;
  ShardFleetConfig config_;
  SessionFactory factory_;
  core::EventQueue queue_;
  std::unique_ptr<GatewayServer> gateway_;
  SchnorrBatchVerifier verifier_;
  core::MpscRing<IngressItem> mailbox_;
  Transport* transport_ = nullptr;
  std::unordered_map<std::uint64_t, Peer> peers_;
  std::unordered_map<std::uint64_t, Record> records_;
  GatewayStats retired_;  ///< stats of gateways fail_over() replaced
  std::uint64_t deferred_accepted_ = 0;  ///< batch verdicts that accepted

  // Doorbell. Every access to sleeping_ is a seq_cst exchange: a producer
  // that reads false was ordered before the shard's announcing exchange,
  // which therefore synchronizes with it and sees the pushed item.
  std::atomic<bool> sleeping_{false};
  std::mutex bell_mu_;
  std::condition_variable bell_cv_;
  bool woken_ = false;  ///< set by wake(); guarded by bell_mu_

  // Relaxed atomics: single writer (shard thread) except mailbox_shed_
  // (producers); readers tolerate tearing-free point-in-time values.
  std::atomic<std::uint64_t> ingress_{0};
  std::atomic<std::uint64_t> mailbox_shed_{0};
  std::atomic<std::uint64_t> opened_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> verifier_flushes_{0};
  std::atomic<std::uint64_t> ticks_{0};
};

/// The shard collective: owns N ShardEngines and (in socket mode) one
/// real-time event-loop thread per shard.
class ShardFleet {
 public:
  /// `producers` = number of distinct threads that will call offer()
  /// (each gets its own wait-free mailbox lane in every shard).
  ShardFleet(const ecc::Curve& curve, const ShardFleetConfig& config,
             SessionFactory factory, std::size_t producers);
  ~ShardFleet();

  std::size_t shards() const { return engines_.size(); }
  ShardEngine& shard(std::size_t i) { return *engines_[i]; }
  std::size_t shard_index(std::uint64_t session) const {
    return shard_of(session, engines_.size());
  }

  /// Producer path: route to the owning shard's mailbox. False = shed.
  bool offer(std::size_t lane, IngressItem&& item);

  /// Socket mode: start one real-time loop thread per shard. Each tick
  /// maps the wall clock to virtual cycles at config.cycles_per_us; a
  /// shard with nothing to drain sleeps until a datagram arrives, its
  /// earliest timer falls due in wall time, or stop() wakes it, so an
  /// idle shard costs no CPU. `transport` receives every downlink; must
  /// outlive stop().
  void start(Transport& transport);
  /// Signal the loops to finish draining, wake them and join them. Loops
  /// exit once told to stop AND their shard is quiescent (or `force` is
  /// set); until then a non-force stop keeps sleeping until each pending
  /// timer falls due, never spinning.
  void stop(bool force = false);
  bool running() const { return !threads_.empty(); }

  /// Sum of per-shard stats.
  ShardStats totals() const;

 private:
  ShardFleetConfig config_;
  std::vector<std::unique_ptr<ShardEngine>> engines_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> force_stop_{false};
};

// --- deterministic sharded campaign ------------------------------------------

struct ShardedCampaignConfig {
  /// The campaign knobs — seeds, fault profiles, failover, and the
  /// `threads` fan-out over shard worlds (1 = serial; bit-identical at
  /// any value). Sessions are placed by shard_of(gid, shards).
  ChaosCampaignConfig chaos;
  std::size_t shards = 4;
  /// Per-shard deferred-Schnorr batch size.
  std::size_t verify_batch = 64;
};

struct ShardedCampaignResult {
  ChaosCampaignResult chaos;
  BatchVerifierStats verifier;   ///< summed across shards
};

/// Run a seeded chaos campaign: `sessions` device↔gateway sessions (mixed
/// Schnorr / Peeters–Hermans / mutual-auth / ECIES), each over its own
/// seeded LossyLink, hash-partitioned across the `shards` ShardEngines of
/// one ShardFleet built from campaign::session_factory, gid%4==0 Schnorr
/// verdicts deferred through the per-shard batch verifiers. The digest is
/// the same at any shard and thread count.
ShardedCampaignResult run_sharded_campaign(
    const ShardedCampaignConfig& config);

}  // namespace medsec::engine
