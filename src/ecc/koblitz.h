// koblitz.h — the reader-side tau-adic engine for Koblitz curves.
//
// The paper picks K-163 ("Our ECC chip uses a Koblitz curve") partly for
// the carry-free field and partly because Koblitz curves admit the
// cheapest known scalar multiplication: the Frobenius endomorphism
// tau(x, y) = (x^2, y^2) costs a few squarings, and tau satisfies
//
//     tau^2 - mu*tau + 2 = 0,      mu = (-1)^(1-a)  (+1 on K-163)
//
// so a scalar rewritten in base tau needs no point doublings at all, only
// Frobenius maps and additions. The engine follows Solinas, "Efficient
// arithmetic on Koblitz curves" (2000); Hankerson–Menezes–Vanstone, Guide
// to ECC, Alg. 3.61–3.70 has the same material:
//
//   1. Partial reduction. k is replaced by rho = r0 + r1*tau with
//      rho == k (mod delta), delta = (tau^m - 1)/(tau - 1). N(delta) = n,
//      so |r0|, |r1| ~ sqrt(n) ~ 2^82 and the walk runs on __int128; the
//      expansion has ~m digits instead of the ~2m of the integer k.
//   2. Width-w TNAF of rho: digit u (0 or odd, |u| < 2^(w-1)) stands for
//      alpha_u, the smallest-norm element congruent to u mod tau^w, and
//      w - 1 zeros follow every nonzero digit (density ~1/(w+1)).
//   3. Horner over ONE Frobenius chain in López–Dahab coordinates
//      (tau = three squarings), one mixed addition per nonzero digit; the
//      two terms of a double-scalar call share the chain. The alpha_u·P
//      tables come from an LD chain and one batch inversion; the
//      generator's width-6 table is built once per process and curve.
//
// PRECONDITION: every point has order n (the prime subgroup). delta kills
// exactly that subgroup, so for a point outside it rho·P != k·P in
// general. Every caller either validates first
// (Curve::validate_subgroup_point on commitments and ephemerals) or
// multiplies enrolled or generated keys. Curve::validate_subgroup_point_exact
// must NOT use this engine: n == 0 (mod delta), so n·P would come out as
// infinity for every point.
//
// Variable-time: digit positions and the adds they trigger depend on the
// scalar (SPA-visible). This is the energy-rich reader/gateway side; the
// device keeps the constant-schedule ladder and FixedBaseComb::mult_ct.
// The only entry from the rest of the code base is multi_scalar_mult,
// which sends Koblitz curves with at most two terms here.
#pragma once

#include <span>
#include <vector>

#include "ecc/curve.h"
#include "ecc/scalar_mult.h"

namespace medsec::ecc {

/// An element r0 + r1*tau of Z[tau].
struct TauElement {
  __int128 r0 = 0;
  __int128 r1 = 0;
};

/// True when the engine serves `curve`: a Koblitz curve (a in {0, 1},
/// b = 1) whose base-point order equals N(delta). Cached per curve.
bool tau_adic_supported(const Curve& curve);

/// rho == k (mod delta), rounded so that |r0|, |r1| ~ sqrt(n) (any k < 2^192,
/// including k >= n). Throws std::invalid_argument for unsupported curves.
TauElement tau_partial_reduce(const Curve& curve, const Scalar& k);

/// Width-w tau-adic NAF of rho, little-endian. Digit u is 0 or odd with
/// |u| < 2^(w-1) and stands for alpha_u (alpha_-u = -alpha_u); w - 1 zeros
/// follow every nonzero digit. Width 2 is the classic TNAF (alpha_+-1 =
/// +-1: signed bits, no two adjacent nonzero). mu = +-1 is the curve's
/// Frobenius trace sign; width in [2, 6]; |r0|, |r1| < 2^120 (a reduced
/// scalar is ~2^82).
std::vector<int> tau_naf_digits(const TauElement& rho, int mu,
                                unsigned width = 2);

/// sum k_i·P_i over one or two terms on a supported curve (see the
/// precondition above). Zero scalars and infinity points contribute
/// nothing. `stats` (optional) counts the Frobenius chain and the adds:
/// point_doubles stays 0. Throws std::invalid_argument for unsupported
/// curves or more than two terms.
Point tau_adic_mult(const Curve& curve, std::span<const MsmTerm> terms,
                    MultStats* stats = nullptr);

}  // namespace medsec::ecc
