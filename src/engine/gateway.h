// gateway.h — the resilient serving layer: protocol sessions over a lossy
// channel, with graceful degradation and mid-protocol failover.
//
// Composition of the three layers below it:
//
//   protocol machines      what to say        (session.h)
//   delivery.h             say it until heard (ARQ windows, backoff)
//   transport.h            framing + faults   (CRC, LossyLink)
//
// A GatewayServer owns the server half of many sessions inside ONE shard's
// virtual world (one EventQueue, single-threaded). Its resilience policies:
//
//   * admission control — at max_live_sessions, new sessions are REFUSED
//     with an explicit kReject verdict (shed-new before degrade-existing);
//   * per-session deadlines and idle eviction on the virtual clock;
//   * poison-session quarantine — a machine that throws out of on_message
//     is isolated (session rejected, machine never stepped again) instead
//     of taking the process down;
//   * snapshot/restore — any session can be serialized mid-protocol and
//     resumed on a fresh GatewayServer, surviving node death with nothing
//     but a retransmit visible to the device.
//
// The chaos campaign types below belong to run_sharded_campaign()
// (shard.h), the proof harness: device ↔ gateway sessions over seeded
// LossyLinks, served by the same ShardEngines (and so the same
// GatewayServers and batch verifiers) as socket mode, bit-reproducible
// across reruns, shard and thread counts.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/event_queue.h"
#include "engine/delivery.h"
#include "engine/transport.h"
#include "protocol/session.h"
#include "rng/xoshiro.h"

namespace medsec::engine {

struct GatewayConfig {
  DeliveryConfig delivery;
  /// 0 = unlimited; otherwise open_session() refuses new sessions while
  /// this many are live (load shedding, the reject-new policy).
  std::size_t max_live_sessions = 0;
  /// 0 = none; a session still live this many cycles after opening is
  /// evicted as failed.
  core::Cycle session_deadline = 0;
  /// 0 = none; a session with no uplink activity for this many cycles is
  /// evicted as failed.
  core::Cycle idle_timeout = 0;
};

enum class GatewaySessionStatus : std::uint8_t {
  kActive = 0,
  kCompleted = 1,       ///< machine reached kDone; `accepted` holds verdict
  kFailed = 2,          ///< machine reached kFailed, or delivery gave up
  kQuarantined = 3,     ///< machine threw; isolated, never stepped again
  kDeadlineEvicted = 4,
  kIdleEvicted = 5,
};

struct GatewayStats {
  std::uint64_t opened = 0;
  std::uint64_t shed = 0;  ///< refused at admission
  std::uint64_t completed = 0;
  std::uint64_t accepted = 0;
  std::uint64_t failed = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t deadline_evicted = 0;
  std::uint64_t idle_evicted = 0;
  std::uint64_t restored = 0;  ///< sessions resumed from a snapshot
  // Device-reported fault telemetry, summed over sessions (see
  // report_fault_telemetry).
  std::uint64_t faults_detected = 0;
  std::uint64_t fault_retries = 0;
  std::uint64_t faults_unrecovered = 0;

  GatewayStats& operator+=(const GatewayStats& o) {
    opened += o.opened;
    shed += o.shed;
    completed += o.completed;
    accepted += o.accepted;
    failed += o.failed;
    quarantined += o.quarantined;
    deadline_evicted += o.deadline_evicted;
    idle_evicted += o.idle_evicted;
    restored += o.restored;
    faults_detected += o.faults_detected;
    fault_retries += o.fault_retries;
    faults_unrecovered += o.faults_unrecovered;
    return *this;
  }
};

/// One session's device-reported fault counters (carried through
/// snapshots, so failover does not launder a faulty device's history).
struct GatewayFaultTelemetry {
  std::uint64_t detected = 0;
  std::uint64_t retries = 0;
  bool unrecovered = false;
};

class GatewayServer {
 public:
  /// Extracts the verdict from a finished machine; empty = kDone is
  /// accepted.
  using Judge = std::function<bool(const protocol::SessionMachine&)>;
  /// Raw encoded frames headed for this session's device.
  using Downlink = std::function<void(std::vector<std::uint8_t>)>;

  GatewayServer(core::EventQueue& queue, std::uint64_t seed,
                const GatewayConfig& config = {});
  ~GatewayServer();

  GatewayServer(const GatewayServer&) = delete;
  GatewayServer& operator=(const GatewayServer&) = delete;

  /// Admit one session (server-side responder machine). Returns false —
  /// and emits one kReject frame on `downlink` — when admission control
  /// refuses it. `rng` (optional) is the machine's private randomness,
  /// kept alive and included in snapshots.
  bool open_session(std::uint64_t id,
                    std::unique_ptr<protocol::SessionMachine> machine,
                    Downlink downlink, Judge judge = {},
                    std::unique_ptr<rng::Xoshiro256> rng = nullptr);

  /// Feed raw bytes that arrived from a device. Unknown ids are dropped.
  void on_uplink(std::uint64_t id, std::vector<std::uint8_t> raw);

  bool has_session(std::uint64_t id) const {
    return sessions_.count(id) != 0;
  }
  GatewaySessionStatus status(std::uint64_t id) const;
  bool accepted(std::uint64_t id) const;
  /// Virtual cycle at which the session left kActive (0 if still active).
  core::Cycle settled_at(std::uint64_t id) const;
  std::size_t live_sessions() const;
  const DeliveryStats* delivery_stats(std::uint64_t id) const;

  /// Record the device's fault-recovery counters for this session (the
  /// front-end relays what the device's processor reported — see
  /// core::PointMultOutcome). Unknown ids are dropped, matching uplink
  /// semantics. The counters ride the session snapshot, so a failover
  /// target inherits the device's fault history.
  void report_fault_telemetry(std::uint64_t id, std::uint64_t detected,
                              std::uint64_t retries, bool unrecovered);
  const GatewayStats& stats() const { return stats_; }
  std::vector<std::uint64_t> session_ids() const;

  /// Serialize one session — status, verdict, machine state, delivery
  /// state, rng state — for failover. Works on settled sessions too (their
  /// delivery layer may still owe the device retransmits).
  std::vector<std::uint8_t> snapshot_session(std::uint64_t id) const;

  /// Resurrect a snapshot onto this server. `machine` must be freshly
  /// constructed with the same constructor arguments as the original;
  /// `rng` likewise (its state is overwritten from the snapshot). Throws
  /// protocol::SnapshotError on malformed input.
  void restore_session(std::uint64_t id,
                       std::unique_ptr<protocol::SessionMachine> machine,
                       Downlink downlink, std::span<const std::uint8_t> snap,
                       Judge judge = {},
                       std::unique_ptr<rng::Xoshiro256> rng = nullptr);

 private:
  struct Sess {
    std::unique_ptr<protocol::SessionMachine> machine;
    std::unique_ptr<ReliableEndpoint> endpoint;
    std::unique_ptr<rng::Xoshiro256> rng;
    Judge judge;
    GatewaySessionStatus status = GatewaySessionStatus::kActive;
    bool accepted = false;
    GatewayFaultTelemetry faults;
    core::Cycle settled_at = 0;
    core::Cycle last_activity = 0;
    core::EventId deadline_timer = core::kInvalidEvent;
    core::EventId idle_timer = core::kInvalidEvent;
  };

  void wire_endpoint(std::uint64_t id, Sess& s, Downlink downlink);
  void on_delivered(std::uint64_t id, const Frame& f);
  void settle(Sess& s, GatewaySessionStatus status,
              bool accepted);
  void arm_policy_timers(std::uint64_t id, Sess& s);
  void idle_check(std::uint64_t id);

  core::EventQueue* queue_;
  std::uint64_t seed_;
  GatewayConfig config_;
  /// std::map: session sweeps (failover, stats) iterate in id order —
  /// part of the determinism contract.
  std::map<std::uint64_t, Sess> sessions_;
  GatewayStats stats_;
};

/// Device half of one gateway session: the initiator machine plus its
/// reliable endpoint. The campaign owns the machine; the endpoint routes
/// its messages through the link.
class DeviceEndpoint {
 public:
  DeviceEndpoint(core::EventQueue& queue, std::uint64_t id,
                 std::uint64_t seed, protocol::SessionMachine& machine);

  void set_uplink(ReliableEndpoint::FrameSink sink) {
    endpoint_.set_frame_sink(std::move(sink));
  }

  /// Pump the machine's opening move(s) into the channel.
  void start();
  void on_downlink(std::vector<std::uint8_t> raw);

  bool done() const {
    return machine_->state() == protocol::SessionState::kDone;
  }
  bool failed() const {
    return failed_ ||
           machine_->state() == protocol::SessionState::kFailed;
  }
  /// Virtual cycle the machine reached kDone (0 until then).
  core::Cycle done_at() const { return done_at_; }
  const DeliveryStats& stats() const { return endpoint_.stats(); }
  ReliableEndpoint& endpoint() { return endpoint_; }

 private:
  void on_delivered(const Frame& f);
  void pump(protocol::StepResult r);

  core::EventQueue* queue_;
  protocol::SessionMachine* machine_;
  ReliableEndpoint endpoint_;
  bool failed_ = false;
  core::Cycle done_at_ = 0;
};

// --- chaos campaign ----------------------------------------------------------

/// The campaign knobs of run_sharded_campaign (shard.h). Output is
/// bit-identical for any shard count and any `threads`.
struct ChaosCampaignConfig {
  std::size_t sessions = 256;
  /// parallel_for fan-out over shard worlds: 0 = shared pool, 1 = serial,
  /// n = n runners.
  std::size_t threads = 0;
  std::uint64_t seed = 0xC4A05CA7;
  FaultProfile uplink;
  FaultProfile downlink;
  /// >0: at this virtual cycle each shard snapshots EVERY session, tears
  /// its GatewayServer down, and restores onto a fresh one — node death
  /// mid-protocol, the failover drill (ShardEngine::fail_over).
  core::Cycle failover_at = 0;
};

struct ChaosCampaignResult {
  std::size_t sessions = 0;
  std::size_t completed = 0;  ///< device done AND server verdict in
  std::size_t accepted = 0;
  std::size_t failed = 0;
  std::size_t stuck = 0;  ///< neither completed nor failed at shard end
  GatewayStats gateway;   ///< summed across shards
  // Channel + delivery aggregates (both directions, all sessions).
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t frames_corrupted = 0;
  std::uint64_t frames_duplicated = 0;
  std::uint64_t frames_reordered = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t decode_failures = 0;
  std::uint64_t dup_suppressed = 0;
  /// Frames a session machine saw whose bytes had been corrupted in
  /// flight: must be 0 — the CRC turns corruption into loss.
  std::uint64_t corrupt_accepted = 0;
  // Completion latency over completed sessions, virtual cycles.
  core::Cycle latency_p50 = 0;
  core::Cycle latency_p99 = 0;
  core::Cycle latency_max = 0;
  /// FNV-1a over every per-session outcome in session order — two runs
  /// are bit-identical iff their digests match.
  std::uint64_t digest = 0;
};

}  // namespace medsec::engine
