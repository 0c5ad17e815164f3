#include "ecc/curve.h"

#include <stdexcept>

#include "ecc/fixed_base.h"

namespace medsec::ecc {

Curve::Curve(std::string name, const Fe& a, const Fe& b, const Fe& gx,
             const Fe& gy, const Scalar& order, unsigned cofactor)
    : name_(std::move(name)),
      a_(a),
      b_(b),
      g_(Point::affine(gx, gy)),
      order_(order),
      cofactor_(cofactor),
      trace_a_(Fe::trace(a)),
      ring_(order),
      cache_key_(name_ + '/' + b_.to_hex() + '/' + g_.x.to_hex() + '/' +
                 g_.y.to_hex() + '/' + order_.to_hex()) {
  if (b_.is_zero())
    throw std::invalid_argument("Curve: b = 0 is singular");
  if (!is_on_curve(g_))
    throw std::invalid_argument("Curve: base point not on curve");
  // Sanity for the cofactor-2 halving-criterion subgroup gate: the base
  // point generates the prime-order subgroup, so it must pass the gate.
  if (cofactor_ == 2 && Fe::trace(g_.x) != trace_a_)
    throw std::invalid_argument("Curve: base point fails Tr(x) == Tr(a)");
}

const Curve& Curve::k163() {
  static const Curve c{
      "K-163",
      Fe::one(),
      Fe::one(),
      Fe::from_hex("2FE13C0537BBC11ACAA07D793DE4E6D5E5C94EEE8"),
      Fe::from_hex("289070FB05D38FF58321F2E800536D538CCDAA3D9"),
      Scalar::from_hex("4000000000000000000020108A2E0CC0D99F8A5EF"),
      2};
  return c;
}

const Curve& Curve::b163() {
  static const Curve c{
      "B-163",
      Fe::one(),
      Fe::from_hex("20A601907B8C953CA1481EB10512F78744A3205FD"),
      Fe::from_hex("3F0EBA16286A2D57EA0991168D4994637E8343E36"),
      Fe::from_hex("0D51FBC6C71A0094FA2CDD545B11C5C0C797324F1"),
      Scalar::from_hex("40000000000000000000292FE77E70C12A4234C33"),
      2};
  return c;
}

bool Curve::is_on_curve(const Point& p) const {
  if (p.infinity) return true;
  // y^2 + xy == x^3 + a x^2 + b
  const Fe lhs = Fe::sqr(p.y) + Fe::mul(p.x, p.y);
  const Fe x2 = Fe::sqr(p.x);
  const Fe rhs = Fe::mul(x2, p.x) + Fe::mul(a_, x2) + b_;
  return lhs == rhs;
}

bool Curve::validate_subgroup_point(const Point& p) const {
  if (p.infinity) return false;
  if (!is_on_curve(p)) return false;
  if (p.x.is_zero()) return false;  // the order-2 point (0, sqrt(b))
  if (cofactor_ == 2) {
    // Point-halving criterion (Knudsen): on y^2 + xy = x^3 + a x^2 + b an
    // affine point is in the image of doubling iff Tr(x) == Tr(a), and for
    // cofactor 2 that image is exactly the prime-order subgroup (it has
    // index 2 and contains no 2-torsion). One trace computation instead of
    // an order-length scalar multiplication — this is what lets the engine
    // layer validate thousands of incoming points per second.
    return Fe::trace(p.x) == trace_a_;
  }
  return validate_subgroup_point_exact(p);
}

bool Curve::validate_subgroup_point_exact(const Point& p) const {
  if (p.infinity) return false;
  if (!is_on_curve(p)) return false;
  if (p.x.is_zero()) return false;
  // Exact order·P in projective coordinates: one inversion total instead
  // of one per affine group operation. (The constant-length ladder cannot
  // be used here: its k -> k + n padding is only sound for points whose
  // order divides n, which is the very thing being checked.)
  return scalar_mult_ld(*this, order_, p).infinity;
}

Point Curve::negate(const Point& p) const {
  if (p.infinity) return p;
  return Point::affine(p.x, p.x + p.y);
}

Point Curve::frobenius(const Point& p) const {
  if (p.infinity) return p;
  return Point::affine(Fe::sqr(p.x), Fe::sqr(p.y));
}

int Curve::frobenius_trace_mu() const {
  // mu = (-1)^(1 - a); meaningful for Koblitz curves (a in {0, 1}, b = 1).
  // K-163 has a = 1 -> mu = +1.
  return a_ == Fe::one() ? 1 : -1;
}

Point Curve::add(const Point& p, const Point& q) const {
  if (p.infinity) return q;
  if (q.infinity) return p;
  if (p.x == q.x) {
    if (p.y == q.y) return dbl(p);
    return Point::at_infinity();  // q == -p
  }
  const Fe dx = p.x + q.x;
  const Fe lambda = Fe::mul(p.y + q.y, Fe::inv(dx));
  const Fe x3 = Fe::sqr(lambda) + lambda + dx + a_;
  const Fe y3 = Fe::mul(lambda, p.x + x3) + x3 + p.y;
  return Point::affine(x3, y3);
}

Point Curve::dbl(const Point& p) const {
  if (p.infinity) return p;
  if (p.x.is_zero()) return Point::at_infinity();  // order-2 point
  const Fe lambda = p.x + Fe::mul(p.y, Fe::inv(p.x));
  const Fe x3 = Fe::sqr(lambda) + lambda + a_;
  const Fe y3 = Fe::sqr(p.x) + Fe::mul(lambda + Fe::one(), x3);
  return Point::affine(x3, y3);
}

Point Curve::scalar_mult_reference(const Scalar& k, const Point& p) const {
  Point acc = Point::at_infinity();
  for (std::size_t i = k.bit_length(); i-- > 0;) {
    acc = dbl(acc);
    if (k.bit(i)) acc = add(acc, p);
  }
  return acc;
}

Curve::Compressed Curve::compress(const Point& p) const {
  if (p.infinity)
    throw std::invalid_argument("compress: cannot compress infinity");
  int bit = 0;
  if (!p.x.is_zero()) {
    const Fe z = Fe::mul(p.y, Fe::inv(p.x));
    bit = z.bit(0) ? 1 : 0;
  }
  return Compressed{p.x, bit};
}

std::optional<Point> Curve::decompress(const Compressed& c) const {
  if (c.x.is_zero()) {
    // y^2 = b -> the order-2 point.
    const Fe y = Fe::sqrt(b_);
    return Point::affine(c.x, y);
  }
  // Solve y^2 + xy = x^3 + a x^2 + b. Substitute y = x*z:
  // z^2 + z = x + a + b/x^2.
  const Fe x_inv = Fe::inv(c.x);
  const Fe rhs = c.x + a_ + Fe::mul(b_, Fe::sqr(x_inv));
  if (Fe::trace(rhs) != 0) return std::nullopt;  // no solution
  Fe z = Fe::half_trace(rhs);
  // half_trace solves z^2+z=rhs when Tr(rhs)=0; pick the root with the
  // requested low bit (the other root is z+1).
  if ((z.bit(0) ? 1 : 0) != c.y_bit) z += Fe::one();
  const Point p = Point::affine(c.x, Fe::mul(c.x, z));
  if (!is_on_curve(p)) return std::nullopt;
  return p;
}

}  // namespace medsec::ecc
