// fixed_base.h — fixed-base comb scalar multiplication (Lim–Lee) with
// López–Dahab projective arithmetic.
//
// Every Schnorr signature, ECIES encapsulation, and key generation
// multiplies the *same* point — the curve generator. The comb method
// precomputes the 2^w - 1 "teeth" sums T[e] = sum_i e_i * 2^(i*d) * G once
// and then computes k*G in d ≈ 163/w point doublings plus at most d
// additions — with the doublings and additions running in López–Dahab
// projective coordinates (x = X/Z, y = Y/Z^2), so the whole multiplication
// costs ONE field inversion (the final affine conversion) instead of one
// per affine group operation.
//
// Two evaluation modes:
//   mult()    — variable-time table indexing; verifier/reader-side use
//               (public scalars, or the energy-rich server of the paper).
//   mult_ct() — fixed d-iteration schedule, every iteration performs one
//               double and one add, and the tooth is fetched with a masked
//               full-table scan (no secret-dependent addressing): the
//               device-side replacement for generator multiplications.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "ecc/curve.h"

namespace medsec::ecc {

/// A point in López–Dahab projective coordinates: x = X/Z, y = Y/Z^2.
/// Z == 0 encodes the point at infinity.
struct LdPoint {
  Fe X, Y, Z;

  static LdPoint infinity() { return LdPoint{}; }
  static LdPoint from_affine(const Point& p);
  Point to_affine() const;  ///< one field inversion
  bool is_infinity() const { return Z.is_zero(); }
};

/// Affine images of a list of López–Dahab points with one shared batch
/// inversion; infinity (Z == 0) entries come back as the point at infinity.
std::vector<Point> ld_to_affine_batch(std::span<const LdPoint> pts);

/// 2P in López–Dahab coordinates (5M + 5S, no inversion).
LdPoint ld_double(const Curve& curve, const LdPoint& p);
/// P + Q with Q affine ("mixed" addition, 9M + 5S, no inversion).
/// Handles P = infinity, P = Q (doubling) and P = -Q (infinity).
LdPoint ld_add_affine(const Curve& curve, const LdPoint& p, const Point& q);

class FixedBaseComb {
 public:
  static constexpr unsigned kWidth = 4;                  // comb rows
  static constexpr std::size_t kColumns = 41;            // ceil(163 / 4)
  static constexpr std::size_t kTableSize = 1u << kWidth;

  FixedBaseComb(const Curve& curve, const Point& base);

  const Point& base() const { return base_; }

  /// k·base, variable-time table indexing. Reduces k mod the group order.
  Point mult(const Scalar& k) const;

  /// k·base with a key-independent operation schedule: exactly kColumns
  /// double+add iterations, tooth selected by masked scan over the whole
  /// table. Reduces k mod the group order.
  Point mult_ct(const Scalar& k) const;

 private:
  Curve curve_;  // by value: the comb must outlive any caller-held Curve
  Point base_;
  /// table_[e] = sum of e_i * 2^(i*kColumns) * base over set bits of e;
  /// table_[0] is the point at infinity.
  std::array<Point, kTableSize> table_;
};

/// Process-wide comb for a curve's generator, built lazily on first use and
/// cached for the lifetime of the process. Cached by curve *identity*
/// (parameters, not address), so dynamically constructed Curve objects —
/// including ones whose addresses get recycled — are safe.
const FixedBaseComb& generator_comb(const Curve& curve);

/// Left-to-right double-and-add in López–Dahab coordinates over the EXACT
/// scalar (no modular reduction, no constant-length padding): one field
/// inversion for the whole multiplication instead of one per affine group
/// operation. Variable-time. It backs the order·P == infinity subgroup gate,
/// which must not reduce the scalar (the tau-adic engine of koblitz.h maps
/// n to zero), and is the tests' projective oracle; reader-side protocol
/// multiplications go through multi_scalar_mult instead.
Point scalar_mult_ld(const Curve& curve, const Scalar& k, const Point& p);

}  // namespace medsec::ecc
