#include "ecc/fixed_base.h"

#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>

namespace medsec::ecc {

namespace {

/// 1 if v == 0 else 0, computed without data-dependent branches (compiles
/// to or/setcc): feeds Fe::select masks in the constant-schedule paths.
std::uint64_t is_zero_mask(const Fe& v) {
  const std::uint64_t m = v.limb(0) | v.limb(1) | v.limb(2);
  return static_cast<std::uint64_t>(m == 0);
}

}  // namespace

LdPoint LdPoint::from_affine(const Point& p) {
  if (p.infinity) return LdPoint::infinity();
  return LdPoint{p.x, p.y, Fe::one()};
}

Point LdPoint::to_affine() const {
  if (is_infinity()) return Point::at_infinity();
  const Fe zi = Fe::inv(Z);
  return Point::affine(Fe::mul(X, zi), Fe::mul(Y, Fe::sqr(zi)));
}

std::vector<Point> ld_to_affine_batch(std::span<const LdPoint> pts) {
  std::vector<Fe> zinv(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) zinv[i] = pts[i].Z;
  Fe::batch_inv(zinv.data(), zinv.size());
  std::vector<Point> out(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (pts[i].is_infinity()) continue;  // stays at the default infinity
    out[i] = Point::affine(Fe::mul(pts[i].X, zinv[i]),
                           Fe::mul(pts[i].Y, Fe::sqr(zinv[i])));
  }
  return out;
}

LdPoint ld_double(const Curve& curve, const LdPoint& p) {
  // HMV "Guide to ECC" Alg 3.24 for y^2 + xy = x^3 + a x^2 + b:
  //   Z3 = X1^2 Z1^2,  X3 = X1^4 + b Z1^4,
  //   Y3 = b Z1^4 Z3 + X3 (a Z3 + Y1^2 + b Z1^4).
  const Fe x2 = Fe::sqr(p.X);
  const Fe z2 = Fe::sqr(p.Z);
  const Fe z4 = Fe::sqr(z2);
  const Fe bz4 = Fe::mul(curve.b(), z4);
  LdPoint r;
  r.Z = Fe::mul(x2, z2);
  r.X = Fe::sqr_add_mul(x2, curve.b(), z4);
  const Fe t = Fe::sqr_add_mul(p.Y, curve.a(), r.Z) + bz4;
  r.Y = Fe::mul_add_mul(bz4, r.Z, r.X, t);
  return r;
}

LdPoint ld_add_affine(const Curve& curve, const LdPoint& p, const Point& q) {
  if (q.infinity) return p;
  const std::uint64_t p_inf = is_zero_mask(p.Z);

  // lambda = A / C with A = Y1 + y2 Z1^2, B = X1 + x2 Z1, C = Z1 B.
  const Fe z2 = Fe::sqr(p.Z);
  const Fe A = p.Y + Fe::mul(q.y, z2);
  const Fe B = p.X + Fe::mul(q.x, p.Z);

  // P = Q (B == A == 0): the mixed formula degenerates; fall back to
  // doubling. P = -Q (B == 0, A != 0) needs no special case — the general
  // formula yields Z3 = 0, i.e. infinity. Both masks are evaluated
  // unconditionally (no short-circuit) so the instruction sequence stays
  // uniform; the branch itself tests a combined flag that is zero unless
  // the accumulator collides with a table tooth (~2^-159 per add for
  // uniform scalars).
  const std::uint64_t degenerate =
      (p_inf ^ 1) & is_zero_mask(B) & is_zero_mask(A);
  if (degenerate) return ld_double(curve, p);

  const Fe C = Fe::mul(p.Z, B);
  LdPoint r;
  r.Z = Fe::sqr(C);
  // X3 = A^2 + C (A + B^2 + a C)
  const Fe t = A + Fe::sqr_add_mul(B, curve.a(), C);
  r.X = Fe::sqr_add_mul(A, C, t);
  // Y3 = (E + Z3) F + G with E = A C, F = X3 + x2 Z3, G = (x2 + y2) Z3^2.
  const Fe E = Fe::mul(A, C);
  const Fe F = r.X + Fe::mul(q.x, r.Z);
  r.Y = Fe::mul_add_mul(E + r.Z, F, q.x + q.y, Fe::sqr(r.Z));

  // P at infinity: the sum is Q. Constant-time select so the comb's
  // leading zero columns don't take an accumulator-dependent branch.
  r.X = Fe::select(p_inf, r.X, q.x);
  r.Y = Fe::select(p_inf, r.Y, q.y);
  r.Z = Fe::select(p_inf, r.Z, Fe::one());
  return r;
}

FixedBaseComb::FixedBaseComb(const Curve& curve, const Point& base)
    : curve_(curve), base_(base) {
  if (base.infinity)
    throw std::invalid_argument("FixedBaseComb: base is infinity");

  // Row anchors R_i = 2^(i * kColumns) * base, doubled in projective
  // coordinates (construction is one-time per process).
  std::array<Point, kWidth> rows;
  rows[0] = base;
  for (unsigned i = 1; i < kWidth; ++i) {
    LdPoint acc = LdPoint::from_affine(rows[i - 1]);
    for (std::size_t j = 0; j < kColumns; ++j) acc = ld_double(curve, acc);
    rows[i] = acc.to_affine();
  }

  table_[0] = Point::at_infinity();
  for (std::size_t e = 1; e < kTableSize; ++e) {
    const unsigned low = static_cast<unsigned>(e & (~e + 1));  // lowest bit
    unsigned row = 0;
    while ((1u << row) != low) ++row;
    table_[e] = curve.add(table_[e ^ low], rows[row]);
  }
}

namespace {

unsigned comb_pattern(const Scalar& k, std::size_t column) {
  unsigned pattern = 0;
  for (unsigned r = 0; r < FixedBaseComb::kWidth; ++r) {
    const std::size_t bit = r * FixedBaseComb::kColumns + column;
    pattern |= static_cast<unsigned>(k.bit(bit)) << r;
  }
  return pattern;
}

}  // namespace

Point FixedBaseComb::mult(const Scalar& k0) const {
  const Scalar k = k0.mod(curve_.order());
  LdPoint acc = LdPoint::infinity();
  for (std::size_t j = kColumns; j-- > 0;) {
    acc = ld_double(curve_, acc);
    const unsigned pattern = comb_pattern(k, j);
    if (pattern != 0) acc = ld_add_affine(curve_, acc, table_[pattern]);
  }
  return acc.to_affine();
}

Point FixedBaseComb::mult_ct(const Scalar& k0) const {
  const Scalar k = k0.mod(curve_.order());
  LdPoint acc = LdPoint::infinity();
  for (std::size_t j = kColumns; j-- > 0;) {
    acc = ld_double(curve_, acc);
    const unsigned pattern = comb_pattern(k, j);

    // Masked full-table scan: every entry is read, the selected tooth is
    // kept (table_[1] stands in for the never-added pattern-0 tooth so the
    // add below always executes).
    Fe tx = table_[1].x, ty = table_[1].y;
    for (unsigned e = 2; e < kTableSize; ++e) {
      const std::uint64_t hit = static_cast<std::uint64_t>(pattern == e);
      tx = Fe::select(hit, tx, table_[e].x);
      ty = Fe::select(hit, ty, table_[e].y);
    }

    const LdPoint sum = ld_add_affine(curve_, acc, Point::affine(tx, ty));
    const std::uint64_t keep = static_cast<std::uint64_t>(pattern == 0);
    acc.X = Fe::select(keep, sum.X, acc.X);
    acc.Y = Fe::select(keep, sum.Y, acc.Y);
    acc.Z = Fe::select(keep, sum.Z, acc.Z);
  }
  return acc.to_affine();
}

Point scalar_mult_ld(const Curve& curve, const Scalar& k, const Point& p) {
  if (p.infinity) return p;
  LdPoint acc = LdPoint::infinity();
  for (std::size_t i = k.bit_length(); i-- > 0;) {
    acc = ld_double(curve, acc);
    if (k.bit(i)) acc = ld_add_affine(curve, acc, p);
  }
  return acc.to_affine();
}

const FixedBaseComb& generator_comb(const Curve& curve) {
  static std::mutex mu;
  static std::map<std::string, std::unique_ptr<FixedBaseComb>> cache;
  const std::lock_guard<std::mutex> lock(mu);
  auto& slot = cache[curve.cache_key()];
  if (!slot)
    slot = std::make_unique<FixedBaseComb>(curve, curve.base_point());
  return *slot;
}

}  // namespace medsec::ecc
