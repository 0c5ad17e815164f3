// Tests for the extension features: w-NAF scalar multiplication, the
// Frobenius endomorphism (Koblitz structure), EC-Schnorr signatures,
// ECIES hybrid encryption, and fault-injection on the ladder outputs.
#include <gtest/gtest.h>

#include "ciphers/aes128.h"
#include "ciphers/present.h"
#include "ecc/curve.h"
#include "ecc/fixed_base.h"
#include "ecc/koblitz.h"
#include "ecc/ladder.h"
#include "ecc/scalar_mult.h"
#include "protocol/ecies.h"
#include "protocol/signature.h"
#include "rng/xoshiro.h"

namespace {

using medsec::ecc::Curve;
using medsec::ecc::Fe;
using medsec::ecc::MultAlgorithm;
using medsec::ecc::MultOptions;
using medsec::ecc::MultStats;
using medsec::ecc::Point;
using medsec::ecc::Scalar;
using medsec::rng::Xoshiro256;
namespace proto = medsec::protocol;

std::vector<std::uint8_t> bytes(const std::string& s) {
  return {s.begin(), s.end()};
}

// --- w-NAF ---------------------------------------------------------------------

TEST(Wnaf, DigitsReconstructTheScalar) {
  Xoshiro256 rng(1);
  const Curve& c = Curve::k163();
  for (unsigned width = 2; width <= 6; ++width) {
    const Scalar k = rng.uniform_nonzero(c.order());
    const auto digits = medsec::ecc::wnaf_digits(k, width);
    // Reconstruct sum(d_i * 2^i) in the scalar ring.
    const auto& ring = c.scalar_ring();
    Scalar acc;
    Scalar pow2{1};
    for (const int d : digits) {
      if (d > 0)
        acc = ring.add(acc, ring.mul(pow2, Scalar{static_cast<std::uint64_t>(d)}));
      else if (d < 0)
        acc = ring.sub(acc, ring.mul(pow2, Scalar{static_cast<std::uint64_t>(-d)}));
      pow2 = ring.add(pow2, pow2);
    }
    EXPECT_EQ(acc, k.mod(c.order())) << "width " << width;
  }
}

TEST(Wnaf, NonAdjacencyAndDigitRange) {
  Xoshiro256 rng(2);
  const Curve& c = Curve::k163();
  for (int trial = 0; trial < 5; ++trial) {
    const auto digits =
        medsec::ecc::wnaf_digits(rng.uniform_nonzero(c.order()), 4);
    int last_nonzero = -100;
    for (int i = 0; i < static_cast<int>(digits.size()); ++i) {
      const int d = digits[static_cast<std::size_t>(i)];
      if (d == 0) continue;
      EXPECT_EQ(d % 2 != 0, true) << "digit must be odd";
      EXPECT_LT(std::abs(d), 8);  // < 2^(w-1)
      EXPECT_GE(i - last_nonzero, 4) << "w consecutive positions";
      last_nonzero = i;
    }
  }
}

TEST(Wnaf, MultiplicationAgreesWithLadder) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(3);
  for (int i = 0; i < 8; ++i) {
    const Scalar k = rng.uniform_nonzero(c.order());
    MultOptions w;
    w.algorithm = MultAlgorithm::kWnaf;
    EXPECT_EQ(medsec::ecc::scalar_mult(c, k, c.base_point(), w),
              medsec::ecc::montgomery_ladder(c, k, c.base_point()));
  }
}

TEST(Wnaf, FewerAddsThanDoubleAndAdd) {
  // The classic ~m/5 vs ~m/2 addition count — and the reason neither is
  // used on the device: the *positions* of the adds remain key-dependent.
  const Curve& c = Curve::k163();
  Xoshiro256 rng(4);
  const Scalar k = rng.uniform_nonzero(c.order());
  MultStats da_stats, w_stats;
  MultOptions da, w;
  da.algorithm = MultAlgorithm::kDoubleAndAdd;
  da.stats = &da_stats;
  w.algorithm = MultAlgorithm::kWnaf;
  w.stats = &w_stats;
  medsec::ecc::scalar_mult(c, k, c.base_point(), da);
  medsec::ecc::scalar_mult(c, k, c.base_point(), w);
  EXPECT_LT(w_stats.point_adds, da_stats.point_adds / 2 + 10);
  // Still SPA-leaky: the op pattern is not uniform.
  bool has_zero = false, has_one = false;
  for (const auto b : w_stats.op_pattern) {
    has_zero = has_zero || b == 0;
    has_one = has_one || b == 1;
  }
  EXPECT_TRUE(has_zero && has_one);
}

TEST(Wnaf, RejectsBadWidth) {
  EXPECT_THROW(medsec::ecc::wnaf_digits(Scalar{5}, 1),
               std::invalid_argument);
  EXPECT_THROW(medsec::ecc::wnaf_digits(Scalar{5}, 9),
               std::invalid_argument);
  EXPECT_TRUE(medsec::ecc::wnaf_digits(Scalar{}, 4).empty());
}

// --- tau-adic engine (Koblitz) --------------------------------------------------

using medsec::ecc::MsmTerm;
using medsec::ecc::TauElement;

/// m + a + 3: Solinas' length bound for the TNAF of a reduced scalar.
constexpr std::size_t kReducedDigitBound = 163 + 1 + 3;

/// v·P for a signed 128-bit v, through the exact projective oracle.
Point times_int(const Curve& c, __int128 v, const Point& p) {
  const unsigned __int128 m = v < 0 ? -static_cast<unsigned __int128>(v)
                                    : static_cast<unsigned __int128>(v);
  Scalar s;
  s.set_limb(0, static_cast<std::uint64_t>(m));
  s.set_limb(1, static_cast<std::uint64_t>(m >> 64));
  const Point r = medsec::ecc::scalar_mult_ld(c, s, p);
  return v < 0 ? c.negate(r) : r;
}

Point random_subgroup_point(const Curve& c, Xoshiro256& rng) {
  return medsec::ecc::scalar_mult_ld(c, rng.uniform_nonzero(c.order()),
                                     c.base_point());
}

TEST(TauNaf, DigitsAreSignedBitsAndNonAdjacent) {
  Xoshiro256 rng(20);
  const Curve& c = Curve::k163();
  for (int trial = 0; trial < 5; ++trial) {
    const TauElement rho =
        medsec::ecc::tau_partial_reduce(c, rng.uniform_nonzero(c.order()));
    const auto digits = medsec::ecc::tau_naf_digits(rho, 1);
    EXPECT_LE(digits.size(), kReducedDigitBound);  // ~m, partially reduced
    for (std::size_t i = 0; i + 1 < digits.size(); ++i) {
      EXPECT_LE(std::abs(digits[i]), 1);
      EXPECT_FALSE(digits[i] != 0 && digits[i + 1] != 0)
          << "adjacent nonzero digits at " << i;
    }
    // Horner in Z[tau] (tau^2 = tau - 2 on K-163) gives rho back exactly.
    TauElement acc;
    for (std::size_t i = digits.size(); i-- > 0;) {
      acc = TauElement{-2 * acc.r1 + digits[i], acc.r0 + acc.r1};
    }
    EXPECT_TRUE(acc.r0 == rho.r0 && acc.r1 == rho.r1);
  }
  EXPECT_THROW(medsec::ecc::tau_naf_digits(TauElement{5, 0}, 0),
               std::invalid_argument);
  EXPECT_THROW(medsec::ecc::tau_naf_digits(TauElement{5, 0}, 1, 7),
               std::invalid_argument);
  EXPECT_TRUE(medsec::ecc::tau_naf_digits(TauElement{}, 1).empty());
}

TEST(TauNaf, PartialReductionPreservesThePoint) {
  // rho == k (mod delta) and delta kills the prime-order subgroup, so
  // r0·P + r1·tau(P) == k·P for every subgroup point; rho is ~sqrt(n) and
  // every window's expansion stays within m + a + 3 digits.
  const Curve& c = Curve::k163();
  Xoshiro256 rng(24);
  const __int128 bound = static_cast<__int128>(1) << 84;
  for (int i = 0; i < 12; ++i) {
    Scalar k = rng.uniform_nonzero(c.order());
    if (i % 3 == 1) k.add_in_place(c.order());  // k >= n reduces too
    if (i % 3 == 2) k = k.shl(28);              // up to 191 bits
    const TauElement rho = medsec::ecc::tau_partial_reduce(c, k);
    EXPECT_TRUE(rho.r0 < bound && rho.r0 > -bound && rho.r1 < bound &&
                rho.r1 > -bound);
    const Point p = random_subgroup_point(c, rng);
    EXPECT_EQ(c.add(times_int(c, rho.r0, p),
                    times_int(c, rho.r1, c.frobenius(p))),
              medsec::ecc::scalar_mult_ld(c, k, p))
        << "trial " << i;
    for (unsigned w = 2; w <= 6; ++w)
      EXPECT_LE(medsec::ecc::tau_naf_digits(rho, 1, w).size(),
                kReducedDigitBound)
          << "width " << w;
  }
  // n == 0 (mod delta): the subgroup order reduces to zero.
  const TauElement zero = medsec::ecc::tau_partial_reduce(c, c.order());
  EXPECT_TRUE(zero.r0 == 0 && zero.r1 == 0);
}

TEST(TauNaf, MultiplicationAgreesWithLadder) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(21);
  for (int i = 0; i < 8; ++i) {
    const MsmTerm t{rng.uniform_nonzero(c.order()), c.base_point()};
    EXPECT_EQ(medsec::ecc::tau_adic_mult(c, {&t, 1}),
              medsec::ecc::montgomery_ladder(c, t.k, c.base_point()));
  }
  for (std::uint64_t k = 0; k <= 16; ++k) {
    const MsmTerm t{Scalar{k}, c.base_point()};
    EXPECT_EQ(medsec::ecc::tau_adic_mult(c, {&t, 1}),
              c.scalar_mult_reference(Scalar{k}, c.base_point()))
        << "k=" << k;
  }
}

TEST(TauNaf, MatchesProjectiveOracleOnSubgroupPoints) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(25);
  const Scalar n = c.order();
  const Scalar one{1};
  std::vector<Scalar> edge{Scalar{}, Scalar{1}, Scalar{2}, n - one, n,
                           n + one, n + n - one};
  for (int i = 0; i < 6; ++i) {
    Scalar k = rng.uniform_nonzero(n);
    if (i % 2 == 1) k.add_in_place(n);
    edge.push_back(k);
  }
  for (int trial = 0; trial < 3; ++trial) {
    const Point p = random_subgroup_point(c, rng);
    for (const Point& base : {p, c.base_point()}) {
      for (const Scalar& k : edge) {
        const MsmTerm t{k, base};
        EXPECT_EQ(medsec::ecc::tau_adic_mult(c, {&t, 1}),
                  medsec::ecc::scalar_mult_ld(c, k, base))
            << k.to_hex();
      }
    }
    EXPECT_EQ(medsec::ecc::tau_adic_mult(c, std::vector<MsmTerm>{
                                                {Scalar{3}, p}}),
              c.scalar_mult_reference(Scalar{3}, p));
  }

  // Both terms of a two-term call: generator + point, two points, equal
  // points, cancelling terms, and degenerate terms.
  for (int trial = 0; trial < 6; ++trial) {
    const Point p = random_subgroup_point(c, rng);
    const Point q = trial % 2 ? c.base_point() : random_subgroup_point(c, rng);
    const Scalar a = edge[static_cast<std::size_t>(trial) % edge.size()];
    const Scalar b = rng.uniform_nonzero(n);
    const std::vector<MsmTerm> two{{a, p}, {b, q}};
    EXPECT_EQ(medsec::ecc::tau_adic_mult(c, two),
              c.add(medsec::ecc::scalar_mult_ld(c, a, p),
                    medsec::ecc::scalar_mult_ld(c, b, q)))
        << "trial " << trial;
  }
  const Point p = random_subgroup_point(c, rng);
  const Scalar k = rng.uniform_nonzero(n);
  EXPECT_EQ(medsec::ecc::tau_adic_mult(c, std::vector<MsmTerm>{{k, p},
                                                               {k, p}}),
            medsec::ecc::scalar_mult_ld(c, k + k, p));
  EXPECT_TRUE(medsec::ecc::tau_adic_mult(
                  c, std::vector<MsmTerm>{{k, p}, {n - k, p}})
                  .infinity);
  EXPECT_EQ(medsec::ecc::tau_adic_mult(
                c, std::vector<MsmTerm>{{k, Point::at_infinity()}, {k, p}}),
            medsec::ecc::scalar_mult_ld(c, k, p));
  EXPECT_TRUE(
      medsec::ecc::tau_adic_mult(c, std::vector<MsmTerm>{}).infinity);
}

TEST(TauNaf, RejectsUnsupportedCurvesAndWideCalls) {
  const Curve& k = Curve::k163();
  const Curve& b = Curve::b163();
  EXPECT_TRUE(medsec::ecc::tau_adic_supported(k));
  EXPECT_FALSE(medsec::ecc::tau_adic_supported(b));
  const MsmTerm t{Scalar{5}, b.base_point()};
  EXPECT_THROW(medsec::ecc::tau_adic_mult(b, {&t, 1}), std::invalid_argument);
  EXPECT_THROW(medsec::ecc::tau_partial_reduce(b, Scalar{5}),
               std::invalid_argument);
  const std::vector<MsmTerm> three(3, MsmTerm{Scalar{5}, k.base_point()});
  EXPECT_THROW(medsec::ecc::tau_adic_mult(k, three), std::invalid_argument);
}

TEST(TauNaf, UsesNoPointDoublings) {
  // The whole point of the Koblitz structure: doublings are replaced by
  // (nearly free) Frobenius maps.
  const Curve& c = Curve::k163();
  Xoshiro256 rng(22);
  MultStats st;
  MultOptions opt;
  opt.algorithm = MultAlgorithm::kTauNaf;
  opt.stats = &st;
  medsec::ecc::scalar_mult(c, rng.uniform_nonzero(c.order()), c.base_point(),
                           opt);
  EXPECT_EQ(st.point_doubles, 0u);
  // The generator's width-6 window over the ~m-digit reduced expansion:
  // nonzero density ~1/(w+1) = 1/7 of ~163 digits.
  EXPECT_GT(st.point_adds, 15u);
  EXPECT_LT(st.point_adds, 32u);
  EXPECT_LE(st.op_pattern.size(), kReducedDigitBound);
  EXPECT_EQ(st.op_slots, st.op_pattern.size() + st.point_adds);
}

TEST(TauNaf, DispatchThroughScalarMult) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(23);
  const Scalar k = rng.uniform_nonzero(c.order());
  MultOptions opt;
  opt.algorithm = MultAlgorithm::kTauNaf;
  EXPECT_EQ(medsec::ecc::scalar_mult(c, k, c.base_point(), opt),
            medsec::ecc::montgomery_ladder(c, k, c.base_point()));
}

// --- Frobenius -------------------------------------------------------------------

TEST(Frobenius, MapsCurvePointsToCurvePoints) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(5);
  Point p = c.base_point();
  for (int i = 0; i < 5; ++i) {
    const Point fp = c.frobenius(p);
    EXPECT_TRUE(c.is_on_curve(fp));
    EXPECT_FALSE(fp == p);
    p = c.dbl(p);
  }
  EXPECT_TRUE(c.frobenius(Point::at_infinity()).infinity);
}

TEST(Frobenius, SatisfiesCharacteristicEquation) {
  // phi^2(P) + 2P == mu * phi(P) with mu = +1 on K-163 (a = 1).
  const Curve& c = Curve::k163();
  ASSERT_EQ(c.frobenius_trace_mu(), 1);
  Xoshiro256 rng(6);
  for (int i = 0; i < 5; ++i) {
    const Scalar k = rng.uniform_nonzero(c.order());
    const Point p = c.scalar_mult_reference(k, c.base_point());
    const Point lhs = c.add(c.frobenius(c.frobenius(p)), c.dbl(p));
    const Point rhs = c.frobenius(p);  // mu = 1
    EXPECT_EQ(lhs, rhs);
  }
}

TEST(Frobenius, CommutesWithScalarMultiplication) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(7);
  const Scalar k = rng.uniform_nonzero(c.order());
  const Point p = c.base_point();
  EXPECT_EQ(c.frobenius(c.scalar_mult_reference(k, p)),
            c.scalar_mult_reference(k, c.frobenius(p)));
}

// --- EC-Schnorr signatures ----------------------------------------------------------

struct SignatureFixture : public ::testing::Test {
  const Curve& c = Curve::k163();
  Xoshiro256 rng{8};
  proto::SignatureKeyPair kp = proto::signature_keygen(c, rng);
};

TEST_F(SignatureFixture, SignVerifyRoundTrip) {
  for (const char* msg : {"", "HR=072", "a longer telemetry record with "
                              "several blocks of content in it........"}) {
    proto::EnergyLedger ledger;
    const auto sig = proto::ec_schnorr_sign(c, kp, bytes(msg), rng, &ledger);
    EXPECT_TRUE(proto::ec_schnorr_verify(c, kp.X, bytes(msg), sig)) << msg;
    EXPECT_EQ(ledger.ecpm, 1u);
    EXPECT_EQ(ledger.modmul, 1u);
  }
}

TEST_F(SignatureFixture, RejectsTampering) {
  const auto msg = bytes("dose=1.5u");
  const auto sig = proto::ec_schnorr_sign(c, kp, msg, rng);
  // Different message.
  EXPECT_FALSE(proto::ec_schnorr_verify(c, kp.X, bytes("dose=9.5u"), sig));
  // Corrupted components.
  auto bad = sig;
  bad.s = c.scalar_ring().add(bad.s, Scalar{1});
  EXPECT_FALSE(proto::ec_schnorr_verify(c, kp.X, msg, bad));
  bad = sig;
  bad.e = c.scalar_ring().add(bad.e, Scalar{1});
  EXPECT_FALSE(proto::ec_schnorr_verify(c, kp.X, msg, bad));
  // Wrong key.
  const auto other = proto::signature_keygen(c, rng);
  EXPECT_FALSE(proto::ec_schnorr_verify(c, other.X, msg, sig));
  // Degenerate values.
  EXPECT_FALSE(proto::ec_schnorr_verify(c, kp.X, msg, {Scalar{}, sig.s}));
  EXPECT_FALSE(proto::ec_schnorr_verify(c, kp.X, msg, {sig.e, c.order()}));
}

TEST_F(SignatureFixture, SignaturesAreRandomized) {
  const auto msg = bytes("same message");
  const auto s1 = proto::ec_schnorr_sign(c, kp, msg, rng);
  const auto s2 = proto::ec_schnorr_sign(c, kp, msg, rng);
  EXPECT_FALSE(s1.s == s2.s);  // fresh r each time
  EXPECT_TRUE(proto::ec_schnorr_verify(c, kp.X, msg, s1));
  EXPECT_TRUE(proto::ec_schnorr_verify(c, kp.X, msg, s2));
}

// --- ECIES ---------------------------------------------------------------------------

struct EciesFixture : public ::testing::Test {
  const Curve& c = Curve::k163();
  Xoshiro256 rng{9};
  proto::EciesKeyPair kp = proto::ecies_keygen(c, rng);
  proto::CipherFactory aes = [](std::span<const std::uint8_t> key) {
    return std::unique_ptr<medsec::ciphers::BlockCipher>(
        new medsec::ciphers::Aes128(key));
  };
};

TEST_F(EciesFixture, EncryptDecryptRoundTrip) {
  for (std::size_t len : {0u, 1u, 16u, 33u, 200u}) {
    std::vector<std::uint8_t> pt(len);
    rng.fill(pt);
    proto::EnergyLedger ledger;
    const auto ct = proto::ecies_encrypt(c, kp.Y, pt, aes, 16, rng, &ledger);
    EXPECT_EQ(ledger.ecpm, 2u) << "ephemeral + shared point mult";
    const auto back = proto::ecies_decrypt(c, kp.y, ct, aes, 16);
    ASSERT_TRUE(back.has_value()) << len;
    EXPECT_EQ(*back, pt);
  }
}

TEST_F(EciesFixture, RejectsTamperingAndWrongKey) {
  const auto pt = bytes("glucose=5.4mmol/L");
  auto ct = proto::ecies_encrypt(c, kp.Y, pt, aes, 16, rng);
  auto bad = ct;
  bad.body[0] ^= 1;
  EXPECT_FALSE(proto::ecies_decrypt(c, kp.y, bad, aes, 16));
  bad = ct;
  bad.tag[0] ^= 1;
  EXPECT_FALSE(proto::ecies_decrypt(c, kp.y, bad, aes, 16));
  bad = ct;
  bad.ephemeral = c.dbl(bad.ephemeral);  // different valid point
  EXPECT_FALSE(proto::ecies_decrypt(c, kp.y, bad, aes, 16));
  const auto other = proto::ecies_keygen(c, rng);
  EXPECT_FALSE(proto::ecies_decrypt(c, other.y, ct, aes, 16));
}

TEST_F(EciesFixture, RejectsInvalidEphemeralPoint) {
  const auto pt = bytes("x");
  auto ct = proto::ecies_encrypt(c, kp.Y, pt, aes, 16, rng);
  // Small-subgroup / off-curve injection at the trust boundary.
  ct.ephemeral = Point::affine(Fe::zero(), Fe::sqrt(c.b()));
  EXPECT_FALSE(proto::ecies_decrypt(c, kp.y, ct, aes, 16));
  ct.ephemeral = Point::at_infinity();
  EXPECT_FALSE(proto::ecies_decrypt(c, kp.y, ct, aes, 16));
}

TEST_F(EciesFixture, WorksWithLightweightCipher) {
  proto::CipherFactory present = [](std::span<const std::uint8_t> key) {
    return std::unique_ptr<medsec::ciphers::BlockCipher>(
        new medsec::ciphers::Present(key));
  };
  const auto pt = bytes("spo2=97%");
  const auto ct = proto::ecies_encrypt(c, kp.Y, pt, present, 10, rng);
  const auto back = proto::ecies_decrypt(c, kp.y, ct, present, 10);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, pt);
}

TEST_F(EciesFixture, EncryptToInvalidKeyThrows) {
  EXPECT_THROW(
      proto::ecies_encrypt(c, Point::at_infinity(), bytes("x"), aes, 16, rng),
      std::invalid_argument);
}

// --- fault injection on the ladder outputs -----------------------------------------

TEST(FaultInjection, CorruptedProjectiveOutputTripsTheCanary) {
  // The paper's fault-attack practice: validate before releasing a
  // result. recover_from_ladder re-checks the curve equation, so a fault
  // anywhere in the ladder state is caught instead of leaking a point on
  // a weaker curve (Biehl-Meyer-Mueller style).
  const Curve& c = Curve::k163();
  Xoshiro256 rng(10);
  const Scalar k = rng.uniform_nonzero(c.order());
  medsec::ecc::LadderState s =
      medsec::ecc::ladder_initial_state(c.b(), c.base_point().x);
  const Scalar padded = medsec::ecc::constant_length_scalar(c, k);
  for (std::size_t i = padded.bit_length() - 1; i-- > 0;)
    medsec::ecc::ladder_iteration(c.b(), c.base_point().x, s,
                                  padded.bit(i) ? 1 : 0);

  // Unfaulted state recovers fine.
  EXPECT_NO_THROW(medsec::ecc::recover_from_ladder(c, c.base_point(), s.x1,
                                                   s.z1, s.x2, s.z2));
  // Single-bit faults in each register must be detected.
  for (int reg = 0; reg < 4; ++reg) {
    Fe x1 = s.x1, z1 = s.z1, x2 = s.x2, z2 = s.z2;
    const Fe flip{1ull << 17};
    (reg == 0 ? x1 : reg == 1 ? z1 : reg == 2 ? x2 : z2) += flip;
    EXPECT_THROW(
        medsec::ecc::recover_from_ladder(c, c.base_point(), x1, z1, x2, z2),
        std::logic_error)
        << "fault in register " << reg << " escaped the canary";
  }
}

}  // namespace
