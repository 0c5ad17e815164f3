// Tests for the engine layer: interleaved multi-scalar multiplication, the
// cofactor-2 fast subgroup gate, batch point decoding, random-linear-
// combination batch verification and its queue.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "ecc/curve.h"
#include "ecc/scalar_mult.h"
#include "engine/batch_verifier.h"
#include "protocol/schnorr.h"
#include "protocol/wire.h"
#include "rng/xoshiro.h"

namespace {

using medsec::ecc::Curve;
using medsec::ecc::Fe;
using medsec::ecc::MsmTerm;
using medsec::ecc::Point;
using medsec::ecc::Scalar;
using medsec::rng::Xoshiro256;
namespace proto = medsec::protocol;
namespace engine = medsec::engine;

Point random_subgroup_point(const Curve& c, Xoshiro256& rng) {
  return c.scalar_mult_reference(rng.uniform_nonzero(c.order()),
                                 c.base_point());
}

// --- multi-scalar multiplication ---------------------------------------------

TEST(Msm, MatchesReferenceAcrossSizes) {
  for (const Curve* c : {&Curve::k163(), &Curve::b163()}) {
    Xoshiro256 rng(1);
    for (std::size_t n = 0; n <= 6; ++n) {
      std::vector<MsmTerm> terms(n);
      Point expect = Point::at_infinity();
      for (auto& t : terms) {
        t.k = rng.uniform_nonzero(c->order());
        t.p = random_subgroup_point(*c, rng);
        expect = c->add(expect, c->scalar_mult_reference(t.k, t.p));
      }
      EXPECT_EQ(medsec::ecc::multi_scalar_mult(*c, terms), expect)
          << c->name() << " n=" << n;
    }
  }
}

TEST(Msm, HandlesDegenerateTerms) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(2);
  const Point p = random_subgroup_point(c, rng);
  const Scalar k = rng.uniform_nonzero(c.order());
  // Zero scalars and infinity points contribute nothing.
  const std::vector<MsmTerm> terms{
      {Scalar{}, p}, {k, Point::at_infinity()}, {k, p}};
  EXPECT_EQ(medsec::ecc::multi_scalar_mult(c, terms),
            c.scalar_mult_reference(k, p));
  EXPECT_TRUE(
      medsec::ecc::multi_scalar_mult(c, std::vector<MsmTerm>{}).infinity);
  // Scalars >= order reduce.
  const std::vector<MsmTerm> big{{c.order() + k, p}};
  EXPECT_EQ(medsec::ecc::multi_scalar_mult(c, big),
            c.scalar_mult_reference(k, p));
}

TEST(Msm, DoubleScalarShamir) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(3);
  for (int i = 0; i < 5; ++i) {
    const Point p = random_subgroup_point(c, rng);
    const Point q = random_subgroup_point(c, rng);
    const Scalar a = rng.uniform_nonzero(c.order());
    const Scalar b = rng.uniform_nonzero(c.order());
    EXPECT_EQ(medsec::ecc::double_scalar_mult(c, a, p, b, q),
              c.add(c.scalar_mult_reference(a, p),
                    c.scalar_mult_reference(b, q)));
  }
}

// --- fast subgroup gate ------------------------------------------------------

TEST(SubgroupGate, FastPathAgreesWithExactCheck) {
  for (const Curve* c : {&Curve::k163(), &Curve::b163()}) {
    Xoshiro256 rng(4);
    // Subgroup points: both accept.
    for (int i = 0; i < 8; ++i) {
      const Point p = random_subgroup_point(*c, rng);
      EXPECT_TRUE(c->validate_subgroup_point(p));
      EXPECT_TRUE(c->validate_subgroup_point_exact(p));
    }
    // Arbitrary decompressible x values: the two gates must agree, and
    // both cosets must actually occur (on-curve points in and out of the
    // prime-order subgroup).
    int in_subgroup = 0, out_of_subgroup = 0;
    for (int i = 0; in_subgroup + out_of_subgroup < 24 && i < 400; ++i) {
      medsec::bigint::U192 v;
      for (std::size_t l = 0; l < 3; ++l) v.set_limb(l, rng.next_u64());
      const Fe x = Fe::from_bits(v);
      if (x.is_zero()) continue;
      const auto p = c->decompress({x, static_cast<int>(i & 1)});
      if (!p) continue;
      const bool fast = c->validate_subgroup_point(*p);
      const bool exact = c->validate_subgroup_point_exact(*p);
      EXPECT_EQ(fast, exact) << c->name() << " x=" << x.to_hex();
      ++(fast ? in_subgroup : out_of_subgroup);
    }
    EXPECT_GT(in_subgroup, 0) << c->name();
    EXPECT_GT(out_of_subgroup, 0) << c->name();
  }
}

// --- batch point decoding ----------------------------------------------------

TEST(BatchDecode, AgreesWithSingleDecode) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(5);
  std::vector<std::vector<std::uint8_t>> wires;
  // Valid points.
  for (int i = 0; i < 6; ++i)
    wires.push_back(proto::encode_point(c, random_subgroup_point(c, rng)));
  // Infinity, bad prefix, truncation, garbage, order-2 point, random x.
  wires.push_back(std::vector<std::uint8_t>(1 + proto::kFeBytes, 0x00));
  auto bad_prefix = wires[0];
  bad_prefix[0] = 0x07;
  wires.push_back(bad_prefix);
  wires.push_back({0x02, 0xab});
  wires.push_back(std::vector<std::uint8_t>(1 + proto::kFeBytes, 0xff));
  wires.push_back(
      proto::encode_point(c, Point::affine(Fe::zero(), Fe::sqrt(c.b()))));
  for (int i = 0; i < 40; ++i) {
    std::vector<std::uint8_t> w(1 + proto::kFeBytes);
    rng.fill(w);
    w[0] = (i & 1) ? 0x02 : 0x03;
    w[1] &= 0x07;  // keep the top bits plausible
    wires.push_back(w);
  }

  const auto batch = engine::decode_points_batch(c, wires);
  ASSERT_EQ(batch.size(), wires.size());
  for (std::size_t i = 0; i < wires.size(); ++i) {
    const auto single = proto::decode_point(c, wires[i]);
    ASSERT_EQ(batch[i].has_value(), single.has_value()) << "entry " << i;
    if (single) {
      EXPECT_EQ(*batch[i], *single) << "entry " << i;
    }
  }
}

// --- batch verification ------------------------------------------------------

std::pair<proto::SchnorrTranscript, Point> honest_transcript(
    const Curve& c, Xoshiro256& rng) {
  const auto kp = proto::schnorr_keygen(c, rng);
  const auto session = proto::run_schnorr_session(c, kp, rng);
  return {session.view, kp.X};
}

TEST(BatchVerify, AcceptsHonestBatchWithOneMsm) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(6);
  std::vector<proto::SchnorrTranscript> ts;
  std::vector<Point> keys;
  for (int i = 0; i < 16; ++i) {
    auto [t, x] = honest_transcript(c, rng);
    ts.push_back(t);
    keys.push_back(x);
  }
  const auto out = engine::schnorr_verify_batch(c, ts, keys, rng);
  EXPECT_TRUE(out.rlc_passed);
  for (const bool ok : out.ok) EXPECT_TRUE(ok);
}

TEST(BatchVerify, FallbackIsolatesTheForgery) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(7);
  std::vector<proto::SchnorrTranscript> ts;
  std::vector<Point> keys;
  for (int i = 0; i < 8; ++i) {
    auto [t, x] = honest_transcript(c, rng);
    ts.push_back(t);
    keys.push_back(x);
  }
  // Forge item 3: response for a different key.
  ts[3].response = c.scalar_ring().add(ts[3].response, Scalar{1});
  const auto out = engine::schnorr_verify_batch(c, ts, keys, rng);
  EXPECT_FALSE(out.rlc_passed);
  for (std::size_t i = 0; i < out.ok.size(); ++i)
    EXPECT_EQ(out.ok[i], i != 3) << i;
}

TEST(BatchVerify, SingletonMatchesSchnorrVerifyWithoutCoefficient) {
  // A batch with one live transcript is checked alone: same verdict as
  // schnorr_verify for honest, forged and infinity commitments, and no
  // RLC coefficient is drawn.
  const Curve& c = Curve::k163();
  Xoshiro256 rng(9);
  auto [honest, key] = honest_transcript(c, rng);
  proto::SchnorrTranscript forged = honest;
  forged.response = c.scalar_ring().add(forged.response, Scalar{1});
  proto::SchnorrTranscript at_infinity = honest;
  at_infinity.commitment = Point::at_infinity();
  const Point wrong_key = proto::schnorr_keygen(c, rng).X;

  struct Case {
    proto::SchnorrTranscript t;
    Point x;
    bool want;
  };
  for (const Case& k : {Case{honest, key, true}, Case{forged, key, false},
                        Case{honest, wrong_key, false},
                        Case{at_infinity, key, false}}) {
    EXPECT_EQ(proto::schnorr_verify(c, k.x, k.t), k.want);
    Xoshiro256 coeffs(10), untouched(10);
    const auto out = engine::schnorr_verify_batch(
        c, std::span(&k.t, 1), std::span(&k.x, 1), coeffs);
    ASSERT_EQ(out.ok.size(), 1u);
    EXPECT_EQ(out.ok[0], k.want);
    EXPECT_TRUE(out.rlc_passed);
    EXPECT_EQ(coeffs.next_u64(), untouched.next_u64());
  }

  // One live transcript beside a rejected infinity commitment takes the
  // same single path.
  const std::vector<proto::SchnorrTranscript> ts{at_infinity, honest};
  const std::vector<Point> keys{key, key};
  Xoshiro256 coeffs(11);
  const auto out = engine::schnorr_verify_batch(c, ts, keys, coeffs);
  EXPECT_FALSE(out.ok[0]);
  EXPECT_TRUE(out.ok[1]);
}

TEST(BatchVerifierQueue, FlushesAtBatchSizeAndOnDemand) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(8);
  engine::SchnorrBatchVerifier q(c, 4);
  std::atomic<int> accepted{0}, rejected{0};
  const auto submit = [&](bool forge) {
    const auto kp = proto::schnorr_keygen(c, rng);
    proto::SchnorrProver prover(c, kp, rng);
    proto::SchnorrVerifier verifier(c, kp.X, rng,
                                    proto::SchnorrVerifier::Mode::kDeferred);
    proto::Transcript transcript;
    ASSERT_TRUE(proto::drive_session(prover, verifier, transcript));
    engine::PendingTranscript p;
    p.X = forge ? proto::schnorr_keygen(c, rng).X : kp.X;
    p.commitment_wire = verifier.commitment_wire();
    p.challenge = verifier.challenge();
    p.response = verifier.response();
    p.on_result = [&](bool ok) { ++(ok ? accepted : rejected); };
    q.enqueue(std::move(p));
  };
  for (int i = 0; i < 9; ++i) submit(/*forge=*/false);
  // 9 items, batch 4: two flushes fired, one item pending.
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(accepted.load(), 8);
  submit(/*forge=*/true);
  q.flush();
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_EQ(accepted.load(), 9);
  EXPECT_EQ(rejected.load(), 1);
  const auto st = q.stats();
  EXPECT_EQ(st.items, 10u);
  EXPECT_EQ(st.batches, 3u);
  EXPECT_EQ(st.accepted, 9u);
  EXPECT_EQ(st.rejected, 1u);
  EXPECT_EQ(st.rlc_failures, 1u);
}

// --- negative paths ----------------------------------------------------------

TEST(BatchVerify, AllForgedBatchRejectsEveryItem) {
  // The RLC equation fails, the per-item fallback runs — and with *every*
  // item forged, nothing may slip through on the strength of the batch.
  const Curve& c = Curve::k163();
  Xoshiro256 rng(20);
  std::vector<proto::SchnorrTranscript> ts;
  std::vector<Point> keys;
  for (int i = 0; i < 8; ++i) {
    auto [t, x] = honest_transcript(c, rng);
    // Forge every response.
    t.response = c.scalar_ring().add(t.response, Scalar{1u + (unsigned)i});
    ts.push_back(t);
    keys.push_back(x);
  }
  const auto out = engine::schnorr_verify_batch(c, ts, keys, rng);
  EXPECT_FALSE(out.rlc_passed);
  for (std::size_t i = 0; i < out.ok.size(); ++i)
    EXPECT_FALSE(out.ok[i]) << i;

  // Same through the queue: 8 forged items, 8 rejections, 1 RLC failure.
  engine::SchnorrBatchVerifier q(c, 8);
  std::atomic<int> accepted{0}, rejected{0};
  for (int i = 0; i < 8; ++i) {
    const auto kp = proto::schnorr_keygen(c, rng);
    proto::SchnorrProver prover(c, kp, rng);
    proto::SchnorrVerifier verifier(c, kp.X, rng,
                                    proto::SchnorrVerifier::Mode::kDeferred);
    proto::Transcript transcript;
    ASSERT_TRUE(proto::drive_session(prover, verifier, transcript));
    engine::PendingTranscript p;
    p.X = proto::schnorr_keygen(c, rng).X;  // wrong key: forged
    p.commitment_wire = verifier.commitment_wire();
    p.challenge = verifier.challenge();
    p.response = verifier.response();
    p.on_result = [&](bool ok) { ++(ok ? accepted : rejected); };
    q.enqueue(std::move(p));
  }
  q.flush();
  EXPECT_EQ(accepted.load(), 0);
  EXPECT_EQ(rejected.load(), 8);
  EXPECT_EQ(q.stats().rlc_failures, 1u);
}

}  // namespace
