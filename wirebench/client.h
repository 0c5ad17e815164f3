// client.h — the benchmark's load client: simulated implants proving
// Schnorr identities to the gateway over loopback UDP.
//
// The client must stay cheap so the server is the measured bottleneck:
//   * every session's commitment (k_i, R_i) is precomputed per round and
//     R_i is already wrapped in its encoded first frame, so opening a
//     session is one pointer into a flat buffer;
//   * socket I/O is batched (sendmmsg / recvmmsg, up to kBatch datagrams
//     per syscall) and the thread sleeps in ppoll when there is nothing
//     to do;
//   * the device side of the ARQ is a minimal peer of the gateway's
//     ReliableEndpoint (one data frame in flight per direction), not a
//     full endpoint with an event queue per session.
// Every session has its own R_i, so no cache keyed on commitment bytes
// can win on a benchmark artifact.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ecc/curve.h"
#include "protocol/schnorr.h"
#include "stats.h"

namespace wirebench {

/// Device credentials: a pool of Schnorr keys; session id `id` proves
/// key `id % size()` (the server's session factory uses the same rule).
struct KeyPool {
  std::vector<medsec::protocol::SchnorrKeyPair> keys;
  /// x·2^192 mod n per key: the client's Montgomery form of the secret.
  std::vector<medsec::ecc::Scalar> x_mont;
  const medsec::protocol::SchnorrKeyPair& of(std::uint64_t id) const {
    return keys[id % keys.size()];
  }
};

KeyPool make_key_pool(const medsec::ecc::Curve& curve, std::uint64_t seed,
                      std::size_t n);

/// One round's precomputed client inputs.
struct RoundPlan {
  std::uint64_t id_base = 0;  ///< session i has id id_base + i
  std::size_t sessions = 0;
  std::vector<medsec::ecc::Scalar> k;  ///< commitment secrets
  std::size_t frame_len = 0;
  std::vector<std::uint8_t> commit_frames;  ///< sessions × frame_len
  std::vector<std::uint8_t> forged;         ///< 1: answers with a stale key
  /// Open loop: due time of each session, µs from round start. Empty for
  /// a closed loop.
  std::vector<double> due_us;

  const std::uint8_t* commit_frame(std::size_t i) const {
    return commit_frames.data() + i * frame_len;
  }
};

/// Distinct commitments for `sessions` sessions. `forge_every` > 0 makes
/// every forge_every-th session answer with a stale key.
RoundPlan make_round_plan(const medsec::ecc::Curve& curve,
                          std::uint64_t seed, std::uint64_t id_base,
                          std::size_t sessions, std::size_t forge_every);

struct ClientConfig {
  /// Closed loop: sessions kept live at once. 0 = open loop on
  /// RoundPlan::due_us.
  std::size_t window = 0;
  /// Off-path trickle from a second socket: junk, CRC-invalid frames with
  /// fresh ids, and CRC-invalid frames carrying a live session's id.
  bool hostile = false;
};

/// Length of one measurement window.
inline constexpr double kWindowMs = 250.0;

/// One fixed slice of a round's wall time. End-to-end figures are medians
/// over slices, so one host stall moves one slice, not the run.
struct Window {
  double seconds = 0.0;
  double process_cpu_s = 0.0;  ///< whole process
  double client_cpu_s = 0.0;   ///< the client thread
  std::size_t completed = 0;
  LatencySummary latency_us;   ///< sessions that completed in the slice
  double rss_mb = 0.0;         ///< resident set at the end of the slice
  /// Share of the machine's CPU time the hypervisor gave to other guests
  /// during the slice (steal time over all CPUs).
  double steal_share = 0.0;
};

struct RoundResult {
  std::size_t attempted = 0;
  /// Per session: kCompleted (response acknowledged by the gateway),
  /// kRefused (the gateway answered kReject), or 0 (client retries
  /// exhausted, or the round was cut).
  std::vector<std::uint8_t> outcome;
  static constexpr std::uint8_t kCompleted = 1;
  static constexpr std::uint8_t kRefused = 2;
  std::vector<Window> windows;      ///< complete slices, in time order
  std::vector<double> lateness_us;  ///< open loop: sent - due, per session
  std::vector<double> backlog;      ///< live sessions, sampled every 1 ms
  std::uint64_t retransmits = 0;    ///< the client's own repeats
  std::uint64_t offpath_downlinks = 0;  ///< datagrams the spoofer received
  /// Downlink frames as received (the first few hundred), for the codec
  /// and gateway layer timings.
  std::vector<std::vector<std::uint8_t>> recorded;
};

/// CPU seconds of the whole process / of the calling thread, and the
/// process's peak resident set in MB.
double process_cpu_s();
double thread_cpu_s();
double peak_rss_mb();
double current_rss_mb();
/// Machine-wide steal time so far, in seconds summed over CPUs.
double steal_s();
/// Share of the machine's CPU time stolen over the `wall_s` seconds since
/// the steal_s() reading `steal0`.
double steal_share_since(double steal0, double wall_s);

/// Run one round against the gateway listening on 127.0.0.1:`port`.
/// Blocks until every session completed or gave up.
RoundResult run_round(const medsec::ecc::Curve& curve, const KeyPool& keys,
                      std::uint16_t port, const RoundPlan& plan,
                      const ClientConfig& config);

}  // namespace wirebench
