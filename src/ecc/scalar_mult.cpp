#include "ecc/scalar_mult.h"

#include "ecc/fixed_base.h"
#include "ecc/koblitz.h"

#include <stdexcept>

namespace medsec::ecc {

namespace {

Point double_and_add(const Curve& curve, const Scalar& k, const Point& p,
                     MultStats* stats) {
  if (stats) stats->op_pattern.reserve(k.bit_length());
  Point acc = Point::at_infinity();
  for (std::size_t i = k.bit_length(); i-- > 0;) {
    acc = curve.dbl(acc);
    if (stats) {
      ++stats->point_doubles;
      ++stats->op_slots;
    }
    const bool bit = k.bit(i);
    if (bit) {
      acc = curve.add(acc, p);
      if (stats) {
        ++stats->point_adds;
        ++stats->op_slots;
      }
    }
    if (stats) stats->op_pattern.push_back(bit ? 1 : 0);
  }
  return acc;
}

Point wnaf_mult(const Curve& curve, const Scalar& k, const Point& p,
                unsigned width, MultStats* stats) {
  const std::vector<int> digits = wnaf_digits(k, width);
  if (stats) stats->op_pattern.reserve(digits.size());
  // Precompute odd multiples P, 3P, ..., (2^(w-1)-1)P.
  std::vector<Point> odd(std::size_t{1} << (width - 2));
  odd[0] = p;
  const Point p2 = curve.dbl(p);
  for (std::size_t i = 1; i < odd.size(); ++i)
    odd[i] = curve.add(odd[i - 1], p2);

  Point acc = Point::at_infinity();
  for (std::size_t i = digits.size(); i-- > 0;) {
    acc = curve.dbl(acc);
    if (stats) {
      ++stats->point_doubles;
      ++stats->op_slots;
    }
    const int d = digits[i];
    if (d != 0) {
      const Point& m = odd[static_cast<std::size_t>((d > 0 ? d : -d) / 2)];
      acc = curve.add(acc, d > 0 ? m : curve.negate(m));
      if (stats) {
        ++stats->point_adds;
        ++stats->op_slots;
      }
    }
    if (stats) stats->op_pattern.push_back(d != 0 ? 1 : 0);
  }
  return acc;
}

/// wNAF window for the interleaved MSM: 4 precomputed odd multiples
/// (1, 3, 5, 7)·P per term, ~163/5 additions per full-width scalar.
constexpr unsigned kMsmWidth = 4;
constexpr std::size_t kMsmOdd = std::size_t{1} << (kMsmWidth - 2);

}  // namespace

Point multi_scalar_mult(const Curve& curve, std::span<const MsmTerm> terms) {
  // One or two terms on a Koblitz curve: the tau-adic engine. Larger
  // calls (RLC batches, whose 64-bit coefficients would double in
  // tau-adic length) and other curves share the binary doubling chain.
  if (terms.size() <= 2 && tau_adic_supported(curve))
    return tau_adic_mult(curve, terms);
  return wnaf_multi_scalar_mult(curve, terms);
}

Point wnaf_multi_scalar_mult(const Curve& curve,
                             std::span<const MsmTerm> terms) {
  struct Entry {
    std::vector<int> digits;
    std::size_t table_offset = 0;  // into the flat odd-multiple table
  };
  std::vector<Entry> entries;
  entries.reserve(terms.size());

  // Phase 1: 2P for every live term, normalized together (1st batch_inv).
  std::vector<LdPoint> doubles;
  std::vector<const Point*> bases;
  for (const auto& t : terms) {
    if (t.p.infinity) continue;
    const Scalar k = t.k.mod(curve.order());
    if (k.is_zero()) continue;
    Entry e;
    e.digits = wnaf_digits(k, kMsmWidth);
    e.table_offset = bases.size() * kMsmOdd;
    entries.push_back(std::move(e));
    bases.push_back(&t.p);
    doubles.push_back(ld_double(curve, LdPoint::from_affine(t.p)));
  }
  if (entries.empty()) return Point::at_infinity();
  const std::vector<Point> two_p = ld_to_affine_batch(doubles);

  // Phase 2: odd multiples 1P, 3P, 5P, 7P per term — a mixed-addition chain
  // in projective coordinates, normalized together (2nd batch_inv).
  std::vector<LdPoint> odd_ld;
  odd_ld.reserve(bases.size() * kMsmOdd);
  for (std::size_t i = 0; i < bases.size(); ++i) {
    LdPoint acc = LdPoint::from_affine(*bases[i]);
    odd_ld.push_back(acc);
    for (std::size_t j = 1; j < kMsmOdd; ++j) {
      acc = ld_add_affine(curve, acc, two_p[i]);
      odd_ld.push_back(acc);
    }
  }
  const std::vector<Point> odd = ld_to_affine_batch(odd_ld);

  // Phase 3: one shared doubling chain, interleaved wNAF additions.
  std::size_t max_len = 0;
  for (const auto& e : entries)
    if (e.digits.size() > max_len) max_len = e.digits.size();

  LdPoint acc = LdPoint::infinity();
  for (std::size_t j = max_len; j-- > 0;) {
    acc = ld_double(curve, acc);
    for (const auto& e : entries) {
      if (j >= e.digits.size()) continue;
      const int d = e.digits[j];
      if (d == 0) continue;
      const Point& m =
          odd[e.table_offset + static_cast<std::size_t>(d > 0 ? d : -d) / 2];
      acc = ld_add_affine(curve, acc, d > 0 ? m : curve.negate(m));
    }
  }
  return acc.to_affine();
}

Point double_scalar_mult(const Curve& curve, const Scalar& k1, const Point& p1,
                         const Scalar& k2, const Point& p2) {
  const MsmTerm terms[2] = {{k1, p1}, {k2, p2}};
  return multi_scalar_mult(curve, terms);
}

std::vector<int> wnaf_digits(const Scalar& k0, unsigned width) {
  if (width < 2 || width > 8)
    throw std::invalid_argument("wnaf_digits: width must be in [2, 8]");
  std::vector<int> out;
  Scalar k = k0;
  const std::uint64_t modulus = 1ull << width;       // 2^w
  const std::int64_t half = 1ll << (width - 1);      // 2^(w-1)
  while (!k.is_zero()) {
    int digit = 0;
    if (k.bit(0)) {
      // k mods 2^w: the signed residue in (-2^(w-1), 2^(w-1)].
      const std::int64_t r =
          static_cast<std::int64_t>(k.limb(0) & (modulus - 1));
      digit = static_cast<int>(r >= half ? r - static_cast<std::int64_t>(modulus) : r);
      if (digit > 0) {
        k.sub_in_place(Scalar{static_cast<std::uint64_t>(digit)});
      } else {
        k.add_in_place(Scalar{static_cast<std::uint64_t>(-digit)});
      }
    }
    out.push_back(digit);
    k = k >> 1;
  }
  return out;
}

Point scalar_mult(const Curve& curve, const Scalar& k, const Point& p,
                  const MultOptions& options) {
  switch (options.algorithm) {
    case MultAlgorithm::kDoubleAndAdd:
      return double_and_add(curve, k.mod(curve.order()), p, options.stats);

    case MultAlgorithm::kWnaf:
      return wnaf_mult(curve, k.mod(curve.order()), p, /*width=*/4,
                       options.stats);

    case MultAlgorithm::kTauNaf: {
      const MsmTerm term{k, p};
      return tau_adic_mult(curve, {&term, 1}, options.stats);
    }

    case MultAlgorithm::kMontgomeryLadder:
    case MultAlgorithm::kLadderRpc: {
      const bool rpc = options.algorithm == MultAlgorithm::kLadderRpc;
      if (rpc && options.rng == nullptr)
        throw std::invalid_argument("scalar_mult: kLadderRpc requires an RNG");
      LadderOptions lo;
      lo.randomize_z = rpc;
      lo.rng = options.rng;
      lo.observer = options.observer;
      if (options.stats != nullptr) {
        // The ladder pads the scalar to a fixed order.bit_length()+1 bits
        // (see ladder.cpp), so the iteration count is a curve constant:
        // the schedule depends on nothing the adversary doesn't know.
        const std::size_t iters = curve.order().bit_length();
        options.stats->ladder_iterations = iters;
        options.stats->op_slots = iters;
        options.stats->op_pattern.assign(iters, 2);  // uniform schedule
      }
      return montgomery_ladder(curve, k, p, lo);
    }
  }
  throw std::logic_error("scalar_mult: unknown algorithm");
}

}  // namespace medsec::ecc
