#include "ecc/koblitz.h"

#include <array>
#include <climits>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "ecc/fixed_base.h"

namespace medsec::ecc {

namespace {

using i128 = __int128;
using u128 = unsigned __int128;
using bigint::U384;

constexpr unsigned kMaxWidth = 6;
/// Window for a point seen once: 4 table entries, one batch inversion.
constexpr unsigned kPointWidth = 4;
/// Window for the generator, whose 16-entry table is built once.
constexpr unsigned kGeneratorWidth = 6;
/// Expansion-length canary (a reduced scalar needs ~m + 4 digits; any
/// TauElement fits in 2·128 + w).
constexpr std::size_t kMaxDigits = 2 * 128 + 2 * kMaxWidth + 8;

/// lambda_i = k·s_i/n is formed as k·F_i / 2^kRecipShift with the
/// reciprocal F_i = floor(|s_i|·2^kRecipShift / n); kFracBits of its
/// fraction feed the rounding. The truncation error (< k / 2^256) is far
/// below the kept fraction, and any rounding still gives rho == k mod delta
/// exactly — only the length of rho depends on it.
constexpr unsigned kRecipShift = 256;
constexpr unsigned kFracBits = 60;
constexpr std::int64_t kOne = std::int64_t{1} << kFracBits;

/// (c0 + c1·tau)·tau = -2·c1 + (c0 + mu·c1)·tau.
TauElement times_tau(const TauElement& e, int mu) {
  return TauElement{-2 * e.r1, e.r0 + (mu == 1 ? e.r1 : -e.r1)};
}

/// |a|·|b| widened to 384 bits.
U384 mag_mul(i128 a, i128 b) {
  const auto wide = [](i128 v) {
    const u128 m = v < 0 ? -static_cast<u128>(v) : static_cast<u128>(v);
    bigint::BigUInt<128> out;
    out.set_limb(0, static_cast<std::uint64_t>(m));
    out.set_limb(1, static_cast<std::uint64_t>(m >> 64));
    return out;
  };
  return widening_mul(wide(a), wide(b)).resize<384>();
}

/// floor(num / den), shift-subtract long division (setup only).
U384 div_floor(const U384& num, const U384& den) {
  U384 q, r;
  for (std::size_t i = num.bit_length(); i-- > 0;) {
    r = r.shl(1);
    r.set_bit(0, num.bit(i));
    if (r >= den) {
      r.sub_in_place(den);
      q.set_bit(i, true);
    }
  }
  return q;
}

/// The even solution t_w of t^2 - mu*t + 2 == 0 (mod 2^w): tau maps to t_w
/// under Z[tau]/(tau^w) ~ Z/2^w, so a + b*tau == a + b*t_w (mod 2^w)
/// decides which alpha_u a digit subtracts.
unsigned tau_modular_image(int mu, unsigned w) {
  const unsigned modulus = 1u << w;
  for (unsigned t = 0; t < modulus; t += 2) {
    const unsigned v = (t * t + modulus - (mu == 1 ? t : modulus - t) + 2u) &
                       (modulus - 1u);
    if (v == 0) return t;
  }
  throw std::logic_error("tau_modular_image: no root (unreachable)");
}

/// Digit set of the width-w TNAF: alpha[u/2] = (beta, gamma), the
/// smallest-norm beta + gamma*tau congruent to odd u modulo tau^w.
struct Alphas {
  unsigned tw = 0;
  std::array<std::array<int, 2>, std::size_t{1} << (kMaxWidth - 2)> alpha{};
};

const Alphas& alphas(int mu, unsigned w) {
  static const auto table = [] {
    std::array<std::array<Alphas, kMaxWidth + 1>, 2> t{};
    for (const int m : {-1, 1}) {
      for (unsigned width = 2; width <= kMaxWidth; ++width) {
        Alphas& a = t[m == 1][width];
        a.tw = tau_modular_image(m, width);
        const int mod = 1 << width;
        for (int u = 1; u < mod / 2; u += 2) {
          long best = LONG_MAX;
          for (int b = -mod; b <= mod; ++b) {
            for (int g = -mod; g <= mod; ++g) {
              if ((b + g * static_cast<int>(a.tw) - u) % mod != 0) continue;
              const long norm = long{b} * b + long{m} * b * g + 2L * g * g;
              if (norm < best) {
                best = norm;
                a.alpha[static_cast<std::size_t>(u / 2)] = {b, g};
              }
            }
          }
        }
      }
    }
    return t;
  }();
  return table[mu == 1][w];
}

/// alpha_u·P for odd u < 2^(w-1) (index u/2), affine: each alpha_u is a
/// short TNAF over tau^j(P), summed with mixed LD additions, and the whole
/// table is normalized with one batch inversion.
std::vector<Point> alpha_table(const Curve& curve, const Point& p, int mu,
                               unsigned w) {
  const Alphas& a = alphas(mu, w);
  const std::size_t n = std::size_t{1} << (w - 2);
  std::vector<std::vector<int>> expansions(n);
  std::size_t len = 1;
  for (std::size_t i = 0; i < n; ++i) {
    expansions[i] =
        tau_naf_digits(TauElement{a.alpha[i][0], a.alpha[i][1]}, mu, 2);
    if (expansions[i].size() > len) len = expansions[i].size();
  }
  std::vector<Point> frob(len);
  frob[0] = p;
  for (std::size_t j = 1; j < len; ++j) frob[j] = curve.frobenius(frob[j - 1]);

  std::vector<LdPoint> ld(n);
  for (std::size_t i = 0; i < n; ++i) {
    LdPoint acc = LdPoint::infinity();
    for (std::size_t j = 0; j < expansions[i].size(); ++j) {
      const int e = expansions[i][j];
      if (e != 0)
        acc = ld_add_affine(curve, acc,
                            e > 0 ? frob[j] : curve.negate(frob[j]));
    }
    ld[i] = acc;
  }
  return ld_to_affine_batch(ld);
}

/// tau^k(Q) in López–Dahab coordinates: k squarings of each coordinate,
/// a run of >= 5 as one multi-squaring table pass (Gf163::sqr_n).
LdPoint frobenius_pow(const LdPoint& q, unsigned k) {
  if (k == 0 || q.is_infinity()) return q;
  return LdPoint{Fe::sqr_n(q.X, k), Fe::sqr_n(q.Y, k), Fe::sqr_n(q.Z, k)};
}

/// Per-curve constants of the engine.
struct TauCurve {
  int mu = 1;
  TauElement delta;                  ///< (tau^m - 1)/(tau - 1)
  std::array<Scalar, 2> recip;       ///< floor(|s_i|·2^256 / n)
  std::array<bool, 2> s_negative{};  ///< sign of s_i (conj(delta) = s0 + s1 tau)
  std::vector<Point> generator_table;  ///< alpha_u·G, width kGeneratorWidth
};

/// nullptr when N(delta) != n: not a curve the reduction is sound for.
std::unique_ptr<TauCurve> build_tau_curve(const Curve& curve) {
  auto tc = std::make_unique<TauCurve>();
  tc->mu = curve.frobenius_trace_mu();
  TauElement t{1, 0};
  for (std::size_t i = 0; i < Fe::kBits; ++i) {
    tc->delta.r0 += t.r0;
    tc->delta.r1 += t.r1;
    t = times_tau(t, tc->mu);
  }
  const i128 d0 = tc->delta.r0, d1 = tc->delta.r1;

  // N(delta) = d0^2 + mu*d0*d1 + 2*d1^2 must be the subgroup order.
  U384 norm = mag_mul(d0, d0);
  norm.add_in_place(mag_mul(d1, d1).shl(1));
  const bool cross_negative = ((d0 < 0) != (d1 < 0)) != (tc->mu < 0);
  if (cross_negative)
    norm.sub_in_place(mag_mul(d0, d1));
  else
    norm.add_in_place(mag_mul(d0, d1));
  const U384 n = curve.order().resize<384>();
  if (!(norm == n)) return nullptr;

  // conj(delta) = (d0 + mu*d1) - d1*tau, so k/delta = k·conj(delta)/n.
  const std::array<i128, 2> s{d0 + (tc->mu == 1 ? d1 : -d1), -d1};
  for (std::size_t i = 0; i < 2; ++i) {
    tc->s_negative[i] = s[i] < 0;
    tc->recip[i] = div_floor(mag_mul(s[i], 1).shl(kRecipShift), n)
                       .resize<Scalar::kBits>();
  }
  tc->generator_table =
      alpha_table(curve, curve.base_point(), tc->mu, kGeneratorWidth);
  return tc;
}

bool koblitz_shape(const Curve& curve) {
  return curve.b() == Fe::one() &&
         (curve.a().is_zero() || curve.a() == Fe::one());
}

const TauCurve* tau_curve(const Curve& curve) {
  if (!koblitz_shape(curve)) return nullptr;
  static std::mutex mu;
  static std::map<std::string, std::unique_ptr<TauCurve>, std::less<>> cache;
  const std::lock_guard<std::mutex> lock(mu);
  const auto it = cache.find(curve.cache_key());
  if (it != cache.end()) return it->second.get();
  return cache.emplace(curve.cache_key(), build_tau_curve(curve))
      .first->second.get();
}

const TauCurve& require_tau_curve(const Curve& curve) {
  const TauCurve* tc = tau_curve(curve);
  if (tc == nullptr)
    throw std::invalid_argument("tau-adic engine: " + curve.name() +
                                " is not a supported Koblitz curve");
  return *tc;
}

TauElement reduce(const TauCurve& tc, const Scalar& k) {
  // lambda_i = k·s_i/n, split into the nearest integer f_i and the
  // remainder eta_i in [-1/2, 1/2) (scaled by kOne).
  std::array<i128, 2> f{};
  std::array<std::int64_t, 2> eta{};
  for (std::size_t i = 0; i < 2; ++i) {
    const U384 prod = widening_mul(k, tc.recip[i]);
    const U384 whole = prod.shr(kRecipShift);
    i128 fi = static_cast<i128>((static_cast<u128>(whole.limb(1)) << 64) |
                                whole.limb(0));
    auto ei = static_cast<std::int64_t>(
        prod.shr(kRecipShift - kFracBits).limb(0) &
        static_cast<std::uint64_t>(kOne - 1));
    if (tc.s_negative[i]) {
      fi = -fi;
      ei = -ei;
    }
    if (ei >= kOne / 2) {
      ++fi;
      ei -= kOne;
    } else if (ei < -kOne / 2) {
      --fi;
      ei += kOne;
    }
    f[i] = fi;
    eta[i] = ei;
  }

  // Round lambda0 + lambda1*tau to the nearest element of Z[tau]
  // (HMV Alg. 3.61).
  const std::int64_t mu = tc.mu;
  const std::int64_t e = 2 * eta[0] + mu * eta[1];
  const std::int64_t lo = eta[0] - 3 * mu * eta[1];
  const std::int64_t hi = eta[0] + 4 * mu * eta[1];
  int h0 = 0, h1 = 0;
  if (e >= kOne) {
    if (lo < -kOne) h1 = tc.mu; else h0 = 1;
  } else if (hi >= 2 * kOne) {
    h1 = tc.mu;
  }
  if (e < -kOne) {
    if (lo >= kOne) h1 = -tc.mu; else h0 = -1;
  } else if (hi < -2 * kOne) {
    h1 = -tc.mu;
  }
  const i128 q0 = f[0] + h0, q1 = f[1] + h1;

  // rho = k - q·delta with q·delta = (q0 d0 - 2 q1 d1) +
  // (q0 d1 + q1 d0 + mu q1 d1)·tau. The products exceed 128 bits but rho
  // does not, so wrapping arithmetic mod 2^128 yields it exactly.
  const u128 d0 = static_cast<u128>(tc.delta.r0);
  const u128 d1 = static_cast<u128>(tc.delta.r1);
  const u128 uq0 = static_cast<u128>(q0), uq1 = static_cast<u128>(q1);
  const u128 k_low = (static_cast<u128>(k.limb(1)) << 64) | k.limb(0);
  const u128 r0 = k_low - uq0 * d0 + 2 * uq1 * d1;
  const u128 r1 = u128{0} - (uq0 * d1 + uq1 * d0 +
                             static_cast<u128>(mu * q1) * d1);
  const TauElement rho{static_cast<i128>(r0), static_cast<i128>(r1)};
  const i128 bound = i128{1} << 100;
  if (rho.r0 >= bound || rho.r0 <= -bound || rho.r1 >= bound ||
      rho.r1 <= -bound)
    throw std::logic_error("tau_partial_reduce: rounding diverged");
  return rho;
}

}  // namespace

bool tau_adic_supported(const Curve& curve) {
  return tau_curve(curve) != nullptr;
}

TauElement tau_partial_reduce(const Curve& curve, const Scalar& k) {
  return reduce(require_tau_curve(curve), k);
}

std::vector<int> tau_naf_digits(const TauElement& rho, int mu,
                                unsigned width) {
  if (mu != 1 && mu != -1)
    throw std::invalid_argument("tau_naf_digits: mu must be +-1");
  if (width < 2 || width > kMaxWidth)
    throw std::invalid_argument("tau_naf_digits: width in [2, 6]");
  const Alphas& a = alphas(mu, width);
  const unsigned mask = (1u << width) - 1u;
  const int half = 1 << (width - 1);

  // Walk r0 + r1*tau, emitting a digit and dividing by tau:
  //   u = 0                              if r0 even
  //   u = (r0 + r1*t_w) mods 2^w         if r0 odd; rho -= alpha_u makes
  //                                       rho divisible by tau^w
  //   (r0, r1) <- (r1 + mu*(r0/2), -(r0/2))
  std::vector<int> out;
  out.reserve(Fe::kBits + 8);
  i128 r0 = rho.r0, r1 = rho.r1;
  while (r0 != 0 || r1 != 0) {
    int u = 0;
    if ((r0 & 1) != 0) {
      const unsigned res = (static_cast<unsigned>(r0) +
                            static_cast<unsigned>(r1) * a.tw) & mask;
      u = static_cast<int>(res) >= half ? static_cast<int>(res) - 2 * half
                                        : static_cast<int>(res);
      const auto& al = a.alpha[static_cast<std::size_t>((u > 0 ? u : -u) / 2)];
      r0 -= u > 0 ? al[0] : -al[0];
      r1 -= u > 0 ? al[1] : -al[1];
    }
    out.push_back(u);
    if (out.size() > kMaxDigits)
      throw std::logic_error("tau_naf_digits: expansion diverged");
    const i128 h = r0 / 2;
    r0 = r1 + (mu == 1 ? h : -h);
    r1 = -h;
  }
  return out;
}

Point tau_adic_mult(const Curve& curve, std::span<const MsmTerm> terms,
                    MultStats* stats) {
  const TauCurve& tc = require_tau_curve(curve);
  if (terms.size() > 2)
    throw std::invalid_argument("tau_adic_mult: at most two terms");

  struct Lane {
    std::vector<int> digits;
    std::vector<Point> own_table;
    const std::vector<Point>* table = nullptr;
  };
  std::array<Lane, 2> lanes;
  std::size_t live = 0, len = 0;
  for (const MsmTerm& t : terms) {
    if (t.p.infinity) continue;
    const TauElement rho = reduce(tc, t.k);
    if (rho.r0 == 0 && rho.r1 == 0) continue;
    Lane& lane = lanes[live++];
    if (t.p == curve.base_point()) {
      lane.digits = tau_naf_digits(rho, tc.mu, kGeneratorWidth);
      lane.table = &tc.generator_table;
    } else {
      lane.digits = tau_naf_digits(rho, tc.mu, kPointWidth);
      lane.own_table = alpha_table(curve, t.p, tc.mu, kPointWidth);
      lane.table = &lane.own_table;
    }
    if (lane.digits.size() > len) len = lane.digits.size();
  }
  if (stats) stats->op_pattern.reserve(stats->op_pattern.size() + len);

  // Horner over tau, most significant digit first: Q <- tau(Q), then
  // Q <- Q +- alpha_|u|·P_j for every lane with a nonzero digit here. The
  // Frobenius maps owed between two adds are applied together.
  LdPoint q = LdPoint::infinity();
  unsigned owed = 0;
  for (std::size_t i = len; i-- > 0;) {
    ++owed;
    std::size_t adds = 0;
    for (std::size_t j = 0; j < live; ++j) {
      const Lane& lane = lanes[j];
      if (i >= lane.digits.size()) continue;
      const int d = lane.digits[i];
      if (d == 0) continue;
      q = frobenius_pow(q, owed);
      owed = 0;
      const Point& m = (*lane.table)[static_cast<std::size_t>(
          (d > 0 ? d : -d) / 2)];
      q = ld_add_affine(curve, q, d > 0 ? m : curve.negate(m));
      ++adds;
    }
    if (stats) {
      stats->point_adds += adds;
      stats->op_slots += 1 + adds;  // one Frobenius, then the adds
      stats->op_pattern.push_back(adds != 0 ? 1 : 0);
    }
  }
  return frobenius_pow(q, owed).to_affine();
}

}  // namespace medsec::ecc
