#include "engine/batch_verifier.h"

#include <stdexcept>
#include <utility>

#include "ecc/scalar_mult.h"
#include "protocol/wire.h"

namespace medsec::engine {

namespace {
using ecc::Curve;
using ecc::Fe;
using ecc::Point;
using ecc::Scalar;
}  // namespace

std::vector<std::optional<Point>> decode_points_batch(
    const Curve& curve, const std::vector<std::vector<std::uint8_t>>& encoded) {
  std::vector<std::optional<Point>> out(encoded.size());

  // Pass 1: parse prefix + x and collect the x^2 decompression
  // denominators of every well-formed entry.
  struct Slot {
    std::size_t index;
    Fe x;
    int y_bit;
  };
  std::vector<Slot> slots;
  std::vector<Fe> denoms;  // x^2 per slot, inverted in one shared batch
  slots.reserve(encoded.size());
  denoms.reserve(encoded.size());
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    const auto& bytes = encoded[i];
    if (bytes.size() != 1 + protocol::kFeBytes) continue;
    if (bytes[0] != 0x02 && bytes[0] != 0x03) continue;  // incl. infinity
    Fe x;
    try {
      x = protocol::decode_fe({bytes.begin() + 1, bytes.end()});
    } catch (const std::invalid_argument&) {
      continue;
    }
    if (x.is_zero()) continue;  // the order-2 point: never a protocol point
    slots.push_back(Slot{i, x, bytes[0] & 1});
    denoms.push_back(Fe::sqr(x));
  }

  Fe::batch_inv(denoms.data(), denoms.size());

  // Pass 2: solve z^2 + z = x + a + b/x^2 per slot, pick the root with the
  // encoded parity, and gate on subgroup membership — the same pipeline as
  // protocol::decode_point, minus one inversion per point.
  for (std::size_t s = 0; s < slots.size(); ++s) {
    const Fe& x = slots[s].x;
    const Fe rhs = x + curve.a() + Fe::mul(curve.b(), denoms[s]);
    if (Fe::trace(rhs) != 0) continue;  // x is not on the curve
    Fe z = Fe::half_trace(rhs);
    if ((z.bit(0) ? 1 : 0) != slots[s].y_bit) z += Fe::one();
    const Point p = Point::affine(x, Fe::mul(x, z));
    if (!curve.validate_subgroup_point(p)) continue;
    out[slots[s].index] = p;
  }
  return out;
}

BatchVerifyOutcome schnorr_verify_batch(
    const Curve& curve,
    std::span<const protocol::SchnorrTranscript> transcripts,
    std::span<const Point> keys, rng::RandomSource& rng) {
  if (transcripts.size() != keys.size())
    throw std::invalid_argument("schnorr_verify_batch: size mismatch");
  const std::size_t n = transcripts.size();
  BatchVerifyOutcome out;
  out.ok.assign(n, false);
  std::vector<bool>& ok = out.ok;

  // Infinity commitments are rejected outright; the rest are live.
  std::vector<std::size_t> live;
  live.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    if (!transcripts[i].commitment.infinity) live.push_back(i);
  if (live.empty()) return out;
  if (live.size() == 1) {
    // One live transcript: the combination buys nothing. Check
    // s·P − e·X == R_c directly, the two-term equation schnorr_verify runs
    // (no coefficient draw, one term fewer, same verdict).
    const std::size_t i = live.front();
    ok[i] = protocol::schnorr_verify(curve, keys[i], transcripts[i]);
    return out;
  }

  const auto& ring = curve.scalar_ring();

  // Random linear combination:
  //   (sum c_i s_i)·P − sum c_i·R_i − sum (c_i e_i)·X_i == O.
  // Nonzero 64-bit coefficients keep the R_i terms short (64 add rows in
  // the interleaved MSM) at a 2^-64 per-batch forgery bound.
  std::vector<ecc::MsmTerm> terms;
  terms.reserve(2 * live.size() + 1);
  Scalar acc_s{};  // sum c_i s_i mod l
  for (const std::size_t i : live) {
    std::uint64_t c64;
    do {
      c64 = rng.next_u64();
    } while (c64 == 0);
    const Scalar c{c64};
    acc_s = ring.add(acc_s, ring.mul(c, transcripts[i].response));
    terms.push_back({c, curve.negate(transcripts[i].commitment)});
    terms.push_back(
        {ring.mul(c, transcripts[i].challenge), curve.negate(keys[i])});
  }
  terms.push_back({acc_s, curve.base_point()});

  if (ecc::multi_scalar_mult(curve, terms).infinity) {
    for (const std::size_t i : live) ok[i] = true;
    return out;
  }
  // The batch holds at least one forgery: isolate it per item so nobody
  // hides behind (or is condemned by) the batch.
  out.rlc_passed = false;
  for (const std::size_t i : live)
    ok[i] = protocol::schnorr_verify(curve, keys[i], transcripts[i]);
  return out;
}

SchnorrBatchVerifier::SchnorrBatchVerifier(const Curve& curve,
                                           std::size_t batch_size,
                                           std::uint64_t rlc_seed)
    : curve_(&curve),
      batch_size_(batch_size == 0 ? 1 : batch_size),
      rng_(rlc_seed) {}

void SchnorrBatchVerifier::enqueue(PendingTranscript t) {
  std::vector<PendingTranscript> batch;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(t));
    ++stats_.items;
    if (queue_.size() < batch_size_) return;
    batch.swap(queue_);
    in_verify_ += batch.size();
  }
  verify_batch(std::move(batch));
}

void SchnorrBatchVerifier::flush() {
  std::vector<PendingTranscript> batch;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) return;
    batch.swap(queue_);
    in_verify_ += batch.size();
  }
  verify_batch(std::move(batch));
}

std::size_t SchnorrBatchVerifier::pending() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return queue_.size() + in_verify_;
}

BatchVerifierStats SchnorrBatchVerifier::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void SchnorrBatchVerifier::verify_batch(std::vector<PendingTranscript> batch) {
  // Shared-inversion decode of every commitment in the batch.
  std::vector<std::vector<std::uint8_t>> wires;
  wires.reserve(batch.size());
  for (const auto& t : batch) wires.push_back(t.commitment_wire);
  const auto points = decode_points_batch(*curve_, wires);

  std::vector<protocol::SchnorrTranscript> transcripts;
  std::vector<Point> keys;
  std::vector<std::size_t> origin;  // batch index per live transcript
  std::size_t decode_failures = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (!points[i]) {
      ++decode_failures;
      continue;
    }
    transcripts.push_back(protocol::SchnorrTranscript{
        *points[i], batch[i].challenge, batch[i].response});
    keys.push_back(batch[i].X);
    origin.push_back(i);
  }

  BatchVerifyOutcome outcome;
  {
    const std::lock_guard<std::mutex> lock(rng_mu_);
    outcome = schnorr_verify_batch(*curve_, transcripts, keys, rng_);
  }

  std::vector<bool> accepted(batch.size(), false);
  for (std::size_t j = 0; j < origin.size(); ++j)
    accepted[origin[j]] = outcome.ok[j];

  std::size_t n_accepted = 0;
  for (const bool a : accepted) n_accepted += a ? 1 : 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++stats_.batches;
    stats_.accepted += n_accepted;
    stats_.rejected += batch.size() - n_accepted;
    stats_.decode_failures += decode_failures;
    if (!outcome.rlc_passed) {
      ++stats_.rlc_failures;
      stats_.single_fallbacks += transcripts.size();
    }
  }

  // Callbacks last, with no locks held.
  for (std::size_t i = 0; i < batch.size(); ++i)
    if (batch[i].on_result) batch[i].on_result(accepted[i]);

  // Verdicts delivered: this batch is no longer pending.
  {
    const std::lock_guard<std::mutex> lock(mu_);
    in_verify_ -= batch.size();
  }
}

}  // namespace medsec::engine
