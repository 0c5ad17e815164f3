// layers.h — per-call cost of each lower layer, timed by direct calls into
// the program's public functions on inputs captured during the run
// (commitment frames, recorded downlinks, transcripts at the observed
// batch size). Nothing here runs inside a timed end-to-end window.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "client.h"
#include "ecc/curve.h"

namespace wirebench {

struct LayerCosts {
  // gf2m: dependent chains through Gf163.
  double gf_mul_ns = 0, gf_sqr_ns = 0, gf_inv_ns = 0;
  // ecc
  double ladder_us = 0, comb_us = 0, decode_point_us = 0;
  // engine batch verifier
  double verify_b1_us = 0, verify_b64_us = 0;
  /// SchnorrBatchVerifier enqueue + flush per item (decode included) at
  /// the run's observed batch size.
  double verify_observed_us = 0;
  // protocol machines, per session: server on_message steps and device
  // steps, indexed like the chaos mix (gid % 4: Schnorr, Peeters–Hermans,
  // mutual auth, ECIES).
  std::array<double, 4> server_step_us{}, device_step_us{};
  // engine transport / gateway / core mailbox
  double encode_ns = 0, decode_ns = 0;
  double uplink_us = 0, snapshot_us = 0, restore_us = 0;
  double push_pop_ns = 0;
};

/// Time every layer. `plan` supplies commitments (and their secrets, so
/// honest transcripts can be formed); `recorded` holds received frames.
LayerCosts measure_layers(const medsec::ecc::Curve& curve,
                          const KeyPool& keys, const RoundPlan& plan,
                          const std::vector<std::vector<std::uint8_t>>& recorded,
                          double observed_batch, std::uint64_t seed);

}  // namespace wirebench
