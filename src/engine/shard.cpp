#include "engine/shard.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
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
      curve_(&curve),
      factory_(std::move(factory)),
      gateway_(std::make_unique<GatewayServer>(
          queue_, mix_seed(config.seed, 0x6A7E + index), config.gateway)),
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

std::size_t ShardEngine::drain_mailbox(std::size_t limit) {
  return mailbox_.drain(
      [this](IngressItem&& item) {
        ingress_.fetch_add(1, std::memory_order_relaxed);
        // Track the latest return address before any reply can fire: the
        // open path may emit a kReject downlink synchronously.
        if (item.peer.valid()) peers_[item.session] = item.peer;
        if (!gateway_->has_session(item.session)) open_from_ingress(item);
        gateway_->on_uplink(item.session, std::move(item.bytes));
      },
      limit);
}

void ShardEngine::record_verdict(std::uint64_t id, bool accepted) {
  Record& r = records_[id];
  r.completed = true;
  r.accepted = accepted;
  r.settled = queue_.now();
  completed_.fetch_add(1, std::memory_order_relaxed);
  (accepted ? accepted_ : rejected_)
      .fetch_add(1, std::memory_order_relaxed);
}

void ShardEngine::open_from_ingress(const IngressItem& item) {
  const std::uint64_t id = item.session;
  SessionSetup setup = factory_(id);
  if (!setup.machine) return;  // factory refused the id; datagram dropped

  GatewayServer::Downlink down = [this, id](std::vector<std::uint8_t> bytes) {
    if (transport_ == nullptr) return;
    const auto p = peers_.find(id);
    if (p != peers_.end())
      transport_->send_downlink(id, p->second, std::move(bytes));
  };

  GatewayServer::Judge judge;
  if (setup.deferred_schnorr) {
    // The machine finished the exchange without verifying; hand its wire
    // transcript to this shard's batch queue. The verdict lands via the
    // callback — possibly in this very call when the batch fills.
    judge = [this, id](const protocol::SessionMachine& m) {
      const auto& sv = static_cast<const protocol::SchnorrVerifier&>(m);
      PendingTranscript t;
      t.session = id;
      t.X = sv.public_key();
      t.commitment_wire = sv.commitment_wire();
      t.challenge = sv.challenge();
      t.response = sv.response();
      t.on_result = [this, id](bool ok) { record_verdict(id, ok); };
      verifier_.enqueue(std::move(t));
      return false;  // gateway's inline verdict is a placeholder
    };
  } else {
    judge = [this, id, inner = std::move(setup.judge)](
                const protocol::SessionMachine& m) {
      const bool ok = inner ? inner(m) : true;
      record_verdict(id, ok);
      return ok;
    };
  }

  if (gateway_->open_session(id, std::move(setup.machine), std::move(down),
                             std::move(judge), std::move(setup.rng)))
    opened_.fetch_add(1, std::memory_order_relaxed);
  else
    rejected_.fetch_add(1, std::memory_order_relaxed);
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
  for (const auto& e : engines_) {
    const ShardStats s = e->stats();
    sum.ingress += s.ingress;
    sum.mailbox_shed += s.mailbox_shed;
    sum.opened += s.opened;
    sum.completed += s.completed;
    sum.accepted += s.accepted;
    sum.rejected += s.rejected;
    sum.verifier_flushes += s.verifier_flushes;
    sum.ticks += s.ticks;
  }
  return sum;
}

// --- deterministic sharded campaign ------------------------------------------

namespace {

using campaign::Fixtures;
using campaign::SessionOutcome;

struct WorldResult {
  std::vector<SessionOutcome> outcomes;
  GatewayStats gateway;
  LinkStats link;
  std::uint64_t retransmits = 0;
  std::uint64_t decode_failures = 0;
  std::uint64_t dup_suppressed = 0;
  std::uint64_t frames_sent = 0;
  BatchVerifierStats verifier;
};

/// One shard's virtual world over an arbitrary gid set (a hash partition):
/// per-gid seeds, the failover drill and outcome extraction, with gid%4==0
/// Schnorr verdicts deferred through a per-shard SchnorrBatchVerifier.
/// Deferred mode emits identical wire traffic and consumes identical rng
/// (the challenge draw) to the inline verifier, and the batch verifier is
/// verdict-equivalent (honest transcripts always pass; a failing batch
/// falls back per item), so every per-session outcome — and therefore the
/// campaign digest — is independent of the partition.
WorldResult run_world(const ChaosCampaignConfig& cfg, const Fixtures& fx,
                      const std::vector<std::uint64_t>& gids,
                      std::size_t verify_batch) {
  const std::size_t count = gids.size();
  core::EventQueue q;
  GatewayConfig gcfg;
  gcfg.delivery = cfg.delivery;
  gcfg.session_deadline = cfg.session_deadline;
  gcfg.idle_timeout = cfg.idle_timeout;

  // Declared before the gateway: judge lambdas stored in gateway sessions
  // capture these by reference, and enqueued callbacks outlive a failover.
  SchnorrBatchVerifier bv(fx.curve, verify_batch,
                          mix_seed(cfg.seed, 0xB47C));
  std::map<std::uint64_t, bool> verdicts;

  auto gw = std::make_unique<GatewayServer>(q, mix_seed(cfg.seed, 0x6A7E),
                                            gcfg);

  const auto make_judge = [&bv, &verdicts](std::uint64_t gid)
      -> GatewayServer::Judge {
    if (gid % 4 != 0) return campaign::judge_for(gid);
    return [&bv, &verdicts, gid](const protocol::SessionMachine& m) {
      const auto& sv = static_cast<const protocol::SchnorrVerifier&>(m);
      PendingTranscript t;
      t.session = gid;
      t.X = sv.public_key();
      t.commitment_wire = sv.commitment_wire();
      t.challenge = sv.challenge();
      t.response = sv.response();
      t.on_result = [&verdicts, gid](bool ok) { verdicts[gid] = ok; };
      bv.enqueue(std::move(t));
      return false;  // placeholder; the outcome reads the batch verdict
    };
  };

  std::vector<std::unique_ptr<rng::Xoshiro256>> dev_rngs(count);
  std::vector<std::unique_ptr<protocol::SessionMachine>> dev_machines(count);
  std::vector<std::unique_ptr<LossyLink>> links(count);
  std::vector<std::unique_ptr<DeviceEndpoint>> devices(count);
  std::vector<campaign::MachineFactory> srv_factories(count);
  std::map<std::uint64_t, std::size_t> index;

  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t gid = gids[i];
    index[gid] = i;
    dev_rngs[i] =
        std::make_unique<rng::Xoshiro256>(mix_seed(cfg.seed, gid * 4));
    auto srv_rng =
        std::make_unique<rng::Xoshiro256>(mix_seed(cfg.seed, gid * 4 + 1));
    dev_machines[i] = campaign::device_factory(fx, gid)(*dev_rngs[i]);
    srv_factories[i] = campaign::server_factory(
        fx, gid, /*deferred_schnorr=*/gid % 4 == 0);
    auto srv_machine = srv_factories[i](*srv_rng);
    links[i] = std::make_unique<LossyLink>(
        q, mix_seed(cfg.seed, gid * 4 + 2), cfg.uplink, cfg.downlink);
    devices[i] = std::make_unique<DeviceEndpoint>(q, gid, cfg.seed,
                                                  *dev_machines[i],
                                                  cfg.delivery);
    LossyLink* link = links[i].get();
    DeviceEndpoint* dev = devices[i].get();
    dev->set_uplink([link](std::vector<std::uint8_t> bytes) {
      link->send(LossyLink::kUp, std::move(bytes));
    });
    link->set_receiver(LossyLink::kUp,
                       [&gw, gid](std::vector<std::uint8_t> bytes) {
                         if (gw) gw->on_uplink(gid, std::move(bytes));
                       });
    link->set_receiver(LossyLink::kDown,
                       [dev](std::vector<std::uint8_t> bytes) {
                         dev->on_downlink(std::move(bytes));
                       });
    gw->open_session(gid, std::move(srv_machine),
                     [link](std::vector<std::uint8_t> bytes) {
                       link->send(LossyLink::kDown, std::move(bytes));
                     },
                     make_judge(gid), std::move(srv_rng));
    dev->start();
  }

  GatewayStats pre_failover;
  if (cfg.failover_at != 0) {
    q.run_until(cfg.failover_at);
    std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>> snaps;
    for (const std::uint64_t id : gw->session_ids())
      snaps.emplace_back(id, gw->snapshot_session(id));
    pre_failover = gw->stats();
    gw.reset();
    gw = std::make_unique<GatewayServer>(q, mix_seed(cfg.seed, 0x6A7E),
                                         gcfg);
    for (auto& [id, snap] : snaps) {
      const std::size_t i = index.at(id);
      auto srv_rng = std::make_unique<rng::Xoshiro256>(0);  // state loaded
      auto machine = srv_factories[i](*srv_rng);
      LossyLink* link = links[i].get();
      gw->restore_session(id, std::move(machine),
                          [link](std::vector<std::uint8_t> bytes) {
                            link->send(LossyLink::kDown, std::move(bytes));
                          },
                          snap, make_judge(id), std::move(srv_rng));
    }
  }

  while (q.pending() && q.now() < cfg.max_cycles) q.run_next();
  bv.flush();  // land every still-queued deferred verdict

  WorldResult out;
  out.gateway = gw->stats();
  out.gateway.opened += pre_failover.opened;
  out.gateway.shed += pre_failover.shed;
  out.gateway.completed += pre_failover.completed;
  out.gateway.accepted += pre_failover.accepted;
  out.gateway.failed += pre_failover.failed;
  out.gateway.quarantined += pre_failover.quarantined;
  out.gateway.deadline_evicted += pre_failover.deadline_evicted;
  out.gateway.idle_evicted += pre_failover.idle_evicted;
  // Deferred judges returned the placeholder `false` at settle, so the
  // gateway never counted their accepts; fold the batch verdicts back in
  // so gateway.accepted counts every accepted session.
  for (const auto& [gid, ok] : verdicts)
    if (ok) ++out.gateway.accepted;
  out.verifier = bv.stats();

  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t gid = gids[i];
    SessionOutcome o;
    o.id = gid;
    const GatewaySessionStatus st = gw->status(gid);
    const bool dev_done = devices[i]->done();
    const bool dev_failed = devices[i]->failed();
    o.completed = dev_done && st == GatewaySessionStatus::kCompleted;
    const auto v = verdicts.find(gid);
    o.accepted = o.completed && (gid % 4 == 0
                                     ? v != verdicts.end() && v->second
                                     : gw->accepted(gid));
    o.failed = !o.completed &&
               (dev_failed || st != GatewaySessionStatus::kActive);
    if (o.completed)
      o.cycle = std::max(devices[i]->done_at(), gw->settled_at(gid));
    o.retransmits = devices[i]->stats().retransmits;
    if (const DeliveryStats* ds = gw->delivery_stats(gid)) {
      o.retransmits += ds->retransmits;
      out.decode_failures += ds->decode_failures;
      out.dup_suppressed += ds->dup_suppressed;
    }
    out.decode_failures += devices[i]->stats().decode_failures;
    out.dup_suppressed += devices[i]->stats().dup_suppressed;
    out.retransmits += o.retransmits;
    for (const auto dir : {LossyLink::kUp, LossyLink::kDown}) {
      const LinkStats& ls = links[i]->stats(dir);
      out.link.sent += ls.sent;
      out.link.delivered += ls.delivered;
      out.link.dropped += ls.dropped;
      out.link.corrupted += ls.corrupted;
      out.link.duplicated += ls.duplicated;
      out.link.reordered += ls.reordered;
      out.link.corrupted_delivered += ls.corrupted_delivered;
    }
    out.frames_sent += devices[i]->stats().data_sent +
                       devices[i]->stats().acks_sent;
    out.outcomes.push_back(o);
  }
  return out;
}

}  // namespace

ShardedCampaignResult run_sharded_campaign(
    const ShardedCampaignConfig& config) {
  ShardedCampaignConfig scfg = config;
  if (scfg.shards == 0) scfg.shards = 1;
  if (scfg.verify_batch == 0) scfg.verify_batch = 1;
  const ChaosCampaignConfig& cfg = scfg.chaos;
  const Fixtures fx = campaign::make_fixtures(cfg.seed);

  std::vector<std::vector<std::uint64_t>> parts(scfg.shards);
  for (std::size_t gid = 1; gid <= cfg.sessions; ++gid)
    parts[shard_of(gid, scfg.shards)].push_back(gid);

  std::vector<WorldResult> results(scfg.shards);
  const auto work = [&](std::size_t b, std::size_t e) {
    for (std::size_t s = b; s < e; ++s)
      results[s] = run_world(cfg, fx, parts[s], scfg.verify_batch);
  };
  std::unique_ptr<core::ThreadPool> owner;
  core::ThreadPool* pool = core::ThreadPool::for_config(cfg.threads, owner);
  if (pool != nullptr && scfg.shards > 1)
    pool->parallel_for(scfg.shards, 1, work);
  else
    work(0, scfg.shards);

  ShardedCampaignResult out;
  out.shards = scfg.shards;
  ChaosCampaignResult& c = out.chaos;
  c.sessions = cfg.sessions;
  std::vector<SessionOutcome> outcomes;
  outcomes.reserve(cfg.sessions);
  for (const WorldResult& r : results) {
    c.gateway.opened += r.gateway.opened;
    c.gateway.shed += r.gateway.shed;
    c.gateway.completed += r.gateway.completed;
    c.gateway.accepted += r.gateway.accepted;
    c.gateway.failed += r.gateway.failed;
    c.gateway.quarantined += r.gateway.quarantined;
    c.gateway.deadline_evicted += r.gateway.deadline_evicted;
    c.gateway.idle_evicted += r.gateway.idle_evicted;
    c.gateway.restored += r.gateway.restored;
    c.frames_sent += r.link.sent;
    c.frames_dropped += r.link.dropped;
    c.frames_corrupted += r.link.corrupted;
    c.frames_duplicated += r.link.duplicated;
    c.frames_reordered += r.link.reordered;
    c.retransmits += r.retransmits;
    c.decode_failures += r.decode_failures;
    c.dup_suppressed += r.dup_suppressed;
    c.corrupt_accepted += r.link.corrupted_delivered;
    out.verifier.items += r.verifier.items;
    out.verifier.batches += r.verifier.batches;
    out.verifier.accepted += r.verifier.accepted;
    out.verifier.rejected += r.verifier.rejected;
    out.verifier.decode_failures += r.verifier.decode_failures;
    out.verifier.rlc_failures += r.verifier.rlc_failures;
    out.verifier.single_fallbacks += r.verifier.single_fallbacks;
    outcomes.insert(outcomes.end(), r.outcomes.begin(), r.outcomes.end());
  }
  // The hash partition scatters gids across shards; the digest folds in
  // GLOBAL session order, so it does not depend on the partition.
  std::sort(outcomes.begin(), outcomes.end(),
            [](const SessionOutcome& a, const SessionOutcome& b) {
              return a.id < b.id;
            });
  std::vector<core::Cycle> latencies;
  std::uint64_t digest = 0xCBF29CE484222325ULL;
  for (const SessionOutcome& o : outcomes) {
    if (o.completed) {
      ++c.completed;
      latencies.push_back(o.cycle);
    }
    if (o.accepted) ++c.accepted;
    if (o.failed) ++c.failed;
    if (!o.completed && !o.failed) ++c.stuck;
    digest = campaign::digest_outcome(digest, o);
  }
  c.corrupt_accepted = c.corrupt_accepted > c.decode_failures
                           ? c.corrupt_accepted - c.decode_failures
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
