#include "engine/shard.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "core/thread_pool.h"
#include "engine/campaign_fixtures.h"
#include "protocol/schnorr.h"

namespace medsec::engine {

using campaign::mix_seed;

// --- ShardEngine -------------------------------------------------------------

ShardEngine::ShardEngine(std::size_t index, const ShardFleetConfig& config,
                         const ecc::Curve& curve, SessionFactory factory,
                         std::size_t producers)
    : index_(index),
      config_(config),
      factory_(std::move(factory)),
      gateway_(make_gateway()),
      verifier_(curve, config.verify_batch == 0 ? 1 : config.verify_batch,
                mix_seed(config.seed, 0xB47C + index)),
      mailbox_(producers, config.mailbox_capacity) {}

bool ShardEngine::offer(std::size_t lane, IngressItem&& item) {
  // try_push moves only on success, so a shed item is still intact for the
  // caller's reject reply.
  if (!mailbox_.try_push(lane, std::move(item))) {
    mailbox_shed_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // Doorbell, producer half: the push is published before this exchange
  // reads the flag. Taking it from a sleeping shard makes this producer
  // the one that rings; the producers after it see false and do not.
  if (sleeping_.exchange(false, std::memory_order_seq_cst)) {
    // The shard holds bell_mu_ from announcing its sleep until wait()
    // releases it, so once this lock is taken the notify cannot fall
    // between its mailbox check and its wait.
    { std::lock_guard<std::mutex> lk(bell_mu_); }
    bell_cv_.notify_one();
  }
  return true;
}

void ShardEngine::wake() {
  {
    std::lock_guard<std::mutex> lk(bell_mu_);
    woken_ = true;
  }
  bell_cv_.notify_one();
}

void ShardEngine::wait_for_work(
    std::optional<std::chrono::steady_clock::time_point> until) {
  std::unique_lock<std::mutex> lk(bell_mu_);
  while (!woken_) {
    // Doorbell, consumer half: announce the sleep, then look. An offer
    // this look misses reads the flag after the announcement and rings.
    sleeping_.exchange(true, std::memory_order_seq_cst);
    if (mailbox_.size_approx() != 0) break;
    if (!until)
      bell_cv_.wait(lk);
    else if (bell_cv_.wait_until(lk, *until) == std::cv_status::timeout)
      break;
  }
  woken_ = false;
  // An exchange, not a store: a store would end the release sequence an
  // offer's exchange heads, and the next announcement could then miss
  // that offer's item without the offer having rung.
  sleeping_.exchange(false, std::memory_order_seq_cst);
}

std::unique_ptr<GatewayServer> ShardEngine::make_gateway() {
  // One seed for every shard: a session's ARQ jitter (mix_seed of this
  // seed and its id) must not depend on which shard hosts it.
  return std::make_unique<GatewayServer>(
      queue_, mix_seed(config_.seed, 0x6A7E), config_.gateway);
}

void ShardEngine::ingest(IngressItem&& item) {
  ingress_.fetch_add(1, std::memory_order_relaxed);
  // Track the latest return address before any reply can fire: the open
  // path may emit a kReject downlink synchronously.
  if (item.peer.valid()) peers_[item.session] = item.peer;
  if (!gateway_->has_session(item.session)) open_session(item.session);
  gateway_->on_uplink(item.session, std::move(item.bytes));
}

std::size_t ShardEngine::drain_mailbox(std::size_t limit) {
  return mailbox_.drain(
      [this](IngressItem&& item) { ingest(std::move(item)); }, limit);
}

void ShardEngine::record_verdict(std::uint64_t id, bool accepted) {
  Record& r = records_[id];
  r.completed = true;
  r.accepted = accepted;
  completed_.fetch_add(1, std::memory_order_relaxed);
  (accepted ? accepted_ : rejected_)
      .fetch_add(1, std::memory_order_relaxed);
}

GatewayServer::Downlink ShardEngine::downlink_to(std::uint64_t id) {
  return [this, id](std::vector<std::uint8_t> bytes) {
    if (transport_ == nullptr) return;
    const auto p = peers_.find(id);
    if (p != peers_.end())
      transport_->send_downlink(id, p->second, std::move(bytes));
  };
}

GatewayServer::Judge ShardEngine::make_judge(std::uint64_t id,
                                             SessionSetup& setup) {
  if (!setup.deferred_schnorr) {
    return [this, id, inner = std::move(setup.judge)](
               const protocol::SessionMachine& m) {
      const bool ok = inner ? inner(m) : true;
      record_verdict(id, ok);
      return ok;
    };
  }
  // The machine finished the exchange without verifying; hand its wire
  // transcript to this shard's batch queue. The verdict lands via the
  // callback — possibly in this very call when the batch fills.
  return [this, id](const protocol::SessionMachine& m) {
    const auto& sv = static_cast<const protocol::SchnorrVerifier&>(m);
    PendingTranscript t;
    t.X = sv.public_key();
    t.commitment_wire = sv.commitment_wire();
    t.challenge = sv.challenge();
    t.response = sv.response();
    t.on_result = [this, id](bool ok) {
      record_verdict(id, ok);
      if (ok) ++deferred_accepted_;
    };
    verifier_.enqueue(std::move(t));
    return false;  // placeholder; gateway_stats() counts the real accept
  };
}

void ShardEngine::open_session(std::uint64_t id) {
  SessionSetup setup = factory_(id);
  if (!setup.machine) return;  // factory refused the id
  GatewayServer::Judge judge = make_judge(id, setup);
  const bool ok =
      gateway_->open_session(id, std::move(setup.machine), downlink_to(id),
                             std::move(judge), std::move(setup.rng));
  (ok ? opened_ : rejected_).fetch_add(1, std::memory_order_relaxed);
}

void ShardEngine::fail_over() {
  // Snapshot all, then let the node die before restoring: holding both
  // gateways at once raised a 10,000-session campaign's peak RSS by 27%.
  std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>> snaps;
  for (const std::uint64_t id : gateway_->session_ids())
    snaps.emplace_back(id, gateway_->snapshot_session(id));
  // restore_session re-adds each session's fault telemetry to the new
  // ledger; carry the rest of the dead node's.
  GatewayStats carried = gateway_->stats();
  carried.faults_detected = carried.fault_retries = 0;
  carried.faults_unrecovered = 0;
  retired_ += carried;
  gateway_ = make_gateway();
  for (auto& [id, snap] : snaps) {
    SessionSetup setup = factory_(id);  // fresh machine; state from snap
    if (!setup.machine) continue;
    GatewayServer::Judge judge = make_judge(id, setup);
    gateway_->restore_session(id, std::move(setup.machine), downlink_to(id),
                              snap, std::move(judge), std::move(setup.rng));
  }
}

void ShardEngine::flush_verifier() {
  if (verifier_.pending() == 0) return;
  verifier_.flush();
  verifier_flushes_.fetch_add(1, std::memory_order_relaxed);
}

std::size_t ShardEngine::tick(core::Cycle virtual_now) {
  ticks_.fetch_add(1, std::memory_order_relaxed);
  // Bring the clock up to virtual_now before the drain, stopping short of
  // the first pending timer. Sessions opened and ARQ timers armed by this
  // drain then count from this tick, not from the last one (long past for
  // a shard that slept), and due timers still run after the drain, so an
  // ack drained now cancels its retransmit first.
  core::Cycle quiet = std::max(virtual_now, queue_.now());
  if (const auto due = queue_.next_deadline(); due && *due <= quiet)
    quiet = *due == 0 ? 0 : *due - 1;
  if (quiet > queue_.now()) advance_to(quiet);  // runs no timer
  const std::size_t drained = drain_mailbox(config_.drain_chunk);
  advance_to(std::max(virtual_now, queue_.now()));
  flush_verifier();
  return drained;
}

ShardStats ShardEngine::stats() const {
  ShardStats s;
  s.ingress = ingress_.load(std::memory_order_relaxed);
  s.mailbox_shed = mailbox_shed_.load(std::memory_order_relaxed);
  s.opened = opened_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.verifier_flushes = verifier_flushes_.load(std::memory_order_relaxed);
  s.ticks = ticks_.load(std::memory_order_relaxed);
  return s;
}

// --- ShardFleet --------------------------------------------------------------

namespace {

using Clock = std::chrono::steady_clock;

/// The loop's virtual clock `us` whole microseconds after its start.
core::Cycle virtual_at(std::int64_t us, double cycles_per_us) {
  return static_cast<core::Cycle>(static_cast<double>(us) * cycles_per_us);
}

/// The wall-clock instant at which a timer due at cycle `at` is due for
/// the loop started at `t0`: the first whole microsecond whose
/// virtual_at() reaches `at`, the tick's own rounding, so a wake at that
/// instant always runs the timer. nullopt (no timer, or one the clock
/// never reaches) leaves the doorbell and stop() as the only wake-ups.
std::optional<Clock::time_point> wall_deadline(
    Clock::time_point t0, std::optional<core::Cycle> at,
    double cycles_per_us) {
  constexpr double kNeverUs = 1e15;  // ~30 years: past any real deadline
  if (!at || !(cycles_per_us > 0)) return std::nullopt;
  const double first = std::ceil(static_cast<double>(*at) / cycles_per_us);
  if (!(first < kNeverUs)) return std::nullopt;
  auto us = static_cast<std::int64_t>(first);
  while (virtual_at(us, cycles_per_us) < *at) ++us;  // division rounded low
  return t0 + std::chrono::microseconds(us);
}

}  // namespace

ShardFleet::ShardFleet(const ecc::Curve& curve,
                       const ShardFleetConfig& config,
                       SessionFactory factory, std::size_t producers)
    : config_(config) {
  const std::size_t n = config.shards == 0 ? 1 : config.shards;
  engines_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    engines_.push_back(std::make_unique<ShardEngine>(i, config_, curve,
                                                     factory, producers));
}

ShardFleet::~ShardFleet() {
  if (running()) stop(/*force=*/true);
}

bool ShardFleet::offer(std::size_t lane, IngressItem&& item) {
  return engines_[shard_index(item.session)]->offer(lane, std::move(item));
}

void ShardFleet::start(Transport& transport) {
  if (running()) return;
  stop_.store(false, std::memory_order_release);
  force_stop_.store(false, std::memory_order_release);
  for (auto& e : engines_) e->set_transport(&transport);
  threads_.reserve(engines_.size());
  for (auto& e : engines_) {
    ShardEngine* eng = e.get();
    threads_.emplace_back([this, eng] {
      const auto t0 = Clock::now();
      while (true) {
        const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                            Clock::now() - t0)
                            .count();
        const std::size_t drained =
            eng->tick(virtual_at(us, config_.cycles_per_us));
        if (stop_.load(std::memory_order_acquire) &&
            (force_stop_.load(std::memory_order_acquire) ||
             eng->quiescent()))
          break;
        // A full chunk may have left more behind: tick again at once.
        if (drained != 0 && drained >= config_.drain_chunk) continue;
        eng->wait_for_work(wall_deadline(t0, eng->queue().next_deadline(),
                                         config_.cycles_per_us));
      }
    });
  }
}

void ShardFleet::stop(bool force) {
  if (!running()) return;
  force_stop_.store(force, std::memory_order_release);
  stop_.store(true, std::memory_order_release);
  for (auto& e : engines_) e->wake();
  for (std::thread& t : threads_) t.join();
  threads_.clear();
  stop_.store(false, std::memory_order_release);
  force_stop_.store(false, std::memory_order_release);
}

ShardStats ShardFleet::totals() const {
  ShardStats sum;
  for (const auto& e : engines_) sum += e->stats();
  return sum;
}

// --- deterministic sharded campaign ------------------------------------------

namespace {

/// Virtual-time safety valve per shard world.
constexpr core::Cycle kCampaignMaxCycles = 4'000'000;

/// Device half of one campaign session, and the lossy link it talks over.
struct CampaignDevice {
  std::unique_ptr<rng::Xoshiro256> rng;
  std::unique_ptr<protocol::SessionMachine> machine;
  std::unique_ptr<LossyLink> link;
  std::unique_ptr<DeviceEndpoint> endpoint;
};

/// What one shard world's sessions add to the campaign's counters.
struct WorldTally {
  LinkStats link;  ///< both directions
  std::uint64_t decode_failures = 0;
  std::uint64_t dup_suppressed = 0;
};

/// The campaign's in-process network, indexed by session id (tallies by
/// shard); each shard world touches only its own entries.
struct CampaignNet final : Transport {
  std::vector<CampaignDevice> devices;
  std::vector<campaign::SessionOutcome> outcomes;
  std::vector<WorldTally> tallies;
  void send_downlink(std::uint64_t session, const Peer&,
                     std::vector<std::uint8_t> bytes) override {
    devices[session].link->send(LossyLink::kDown, std::move(bytes));
  }
};

/// One shard world: open its sessions at cycle 0, run the failover drill
/// at cfg.failover_at, run every timer out, land every deferred verdict,
/// then read each session's outcome. Deferred mode emits identical wire
/// traffic and consumes identical rng (the challenge draw) to the inline
/// verifier, and the batch verifier is verdict-equivalent (honest
/// transcripts always pass; a failing batch falls back per item), so every
/// per-session outcome — and therefore the campaign digest — is
/// independent of the partition.
void run_world(ShardEngine& eng, std::size_t shards,
               const ChaosCampaignConfig& cfg, const campaign::Fixtures& fx,
               CampaignNet& net) {
  core::EventQueue& q = eng.queue();
  eng.set_transport(&net);
  for (std::uint64_t gid = 1; gid <= cfg.sessions; ++gid) {
    if (shard_of(gid, shards) != eng.index()) continue;
    CampaignDevice& d = net.devices[gid];
    d.rng = std::make_unique<rng::Xoshiro256>(mix_seed(cfg.seed, gid * 4));
    d.machine = campaign::device_factory(fx, gid)(*d.rng);
    d.link = std::make_unique<LossyLink>(q, mix_seed(cfg.seed, gid * 4 + 2),
                                         cfg.uplink, cfg.downlink);
    d.endpoint =
        std::make_unique<DeviceEndpoint>(q, gid, cfg.seed, *d.machine);
    LossyLink* link = d.link.get();
    DeviceEndpoint* dev = d.endpoint.get();
    dev->set_uplink([link](std::vector<std::uint8_t> bytes) {
      link->send(LossyLink::kUp, std::move(bytes));
    });
    link->set_receiver(LossyLink::kUp,
                       [&eng, gid](std::vector<std::uint8_t> bytes) {
                         // Downlinks find their link by session id, so
                         // any valid peer will do.
                         eng.ingest({gid, Peer{0, 1}, std::move(bytes)});
                       });
    link->set_receiver(LossyLink::kDown,
                       [dev](std::vector<std::uint8_t> bytes) {
                         dev->on_downlink(std::move(bytes));
                       });
    eng.open_session(gid);
    dev->start();
  }
  if (cfg.failover_at != 0) {
    eng.advance_to(cfg.failover_at);
    eng.fail_over();
  }
  while (q.pending() && q.now() < kCampaignMaxCycles) q.run_next();
  eng.flush_verifier();

  // Outcomes are read, and device halves freed, on the shard's own runner:
  // done serially after the join, this tail added ~8% to the wall time of
  // a 2,048-session campaign on a 4-core host.
  const GatewayServer& gw = eng.gateway();
  WorldTally tally;
  for (std::uint64_t gid = 1; gid <= cfg.sessions; ++gid) {
    if (shard_of(gid, shards) != eng.index()) continue;
    CampaignDevice& d = net.devices[gid];
    campaign::SessionOutcome& o = net.outcomes[gid];
    o.id = gid;
    const GatewaySessionStatus st = gw.status(gid);
    o.completed =
        d.endpoint->done() && st == GatewaySessionStatus::kCompleted;
    const auto rec = eng.records().find(gid);
    o.accepted =
        o.completed && rec != eng.records().end() && rec->second.accepted;
    o.failed = !o.completed &&
               (d.endpoint->failed() || st != GatewaySessionStatus::kActive);
    if (o.completed)
      o.cycle = std::max(d.endpoint->done_at(), gw.settled_at(gid));
    for (const DeliveryStats* ds :
         {&d.endpoint->stats(), gw.delivery_stats(gid)}) {
      if (ds == nullptr) continue;
      o.retransmits += ds->retransmits;
      tally.decode_failures += ds->decode_failures;
      tally.dup_suppressed += ds->dup_suppressed;
    }
    tally.link += d.link->stats(LossyLink::kUp);
    tally.link += d.link->stats(LossyLink::kDown);
    std::exchange(d, {});  // endpoint, link, machine, rng: reverse order
  }
  net.tallies[eng.index()] = tally;
}

}  // namespace

ShardedCampaignResult run_sharded_campaign(
    const ShardedCampaignConfig& config) {
  const ChaosCampaignConfig& cfg = config.chaos;
  const campaign::Fixtures fx = campaign::make_fixtures(cfg.seed);
  ShardFleetConfig fcfg;
  fcfg.shards = config.shards;
  fcfg.verify_batch = config.verify_batch;
  fcfg.seed = cfg.seed;
  fcfg.mailbox_capacity = 1;  // uplinks are ingested, never queued
  // Never start()ed: each shard's world runs on a pool runner below. The
  // fleet outlives `net`, whose endpoints cancel timers on its queues.
  ShardFleet fleet(fx.curve, fcfg, campaign::session_factory(fx, cfg.seed),
                   /*producers=*/1);
  const std::size_t shards = fleet.shards();
  CampaignNet net;
  net.devices.resize(cfg.sessions + 1);
  net.outcomes.resize(cfg.sessions + 1);
  net.tallies.resize(shards);

  const auto work = [&](std::size_t b, std::size_t e) {
    for (std::size_t s = b; s < e; ++s)
      run_world(fleet.shard(s), shards, cfg, fx, net);
  };
  std::unique_ptr<core::ThreadPool> owner;
  core::ThreadPool* pool = core::ThreadPool::for_config(cfg.threads, owner);
  if (pool != nullptr && shards > 1)
    pool->parallel_for(shards, 1, work);
  else
    work(0, shards);

  ShardedCampaignResult out;
  ChaosCampaignResult& c = out.chaos;
  c.sessions = cfg.sessions;
  LinkStats link;
  for (std::size_t s = 0; s < shards; ++s) {
    c.gateway += fleet.shard(s).gateway_stats();
    out.verifier += fleet.shard(s).verifier().stats();
    link += net.tallies[s].link;
    c.decode_failures += net.tallies[s].decode_failures;
    c.dup_suppressed += net.tallies[s].dup_suppressed;
  }
  // The digest folds in GLOBAL session order, so it does not depend on the
  // partition.
  std::vector<core::Cycle> latencies;
  std::uint64_t digest = 0xCBF29CE484222325ULL;
  for (std::uint64_t gid = 1; gid <= cfg.sessions; ++gid) {
    const campaign::SessionOutcome& o = net.outcomes[gid];
    if (o.completed) {
      ++c.completed;
      latencies.push_back(o.cycle);
    }
    if (o.accepted) ++c.accepted;
    if (o.failed) ++c.failed;
    if (!o.completed && !o.failed) ++c.stuck;
    c.retransmits += o.retransmits;
    digest = campaign::digest_outcome(digest, o);
  }
  c.frames_sent = link.sent;
  c.frames_dropped = link.dropped;
  c.frames_corrupted = link.corrupted;
  c.frames_duplicated = link.duplicated;
  c.frames_reordered = link.reordered;
  c.corrupt_accepted = link.corrupted_delivered > c.decode_failures
                           ? link.corrupted_delivered - c.decode_failures
                           : 0;
  c.digest = digest;
  std::sort(latencies.begin(), latencies.end());
  if (!latencies.empty()) {
    c.latency_p50 = latencies[latencies.size() / 2];
    c.latency_p99 = latencies[std::min(latencies.size() - 1,
                                       latencies.size() * 99 / 100)];
    c.latency_max = latencies.back();
  }
  return out;
}

}  // namespace medsec::engine
