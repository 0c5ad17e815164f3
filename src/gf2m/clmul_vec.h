// clmul_vec.h — VPCLMULQDQ mega-lane carry-less multiply kernels
// (internal).
//
// VPCLMULQDQ performs four independent 64x64 carry-less multiplies per
// instruction across the 128-bit lanes of a ZMM register (two per YMM in
// the VEX form). With the batch field layer's structure-of-arrays
// operands, limb word l of 8 consecutive lanes loads straight into one
// ZMM, and the 3-limb Karatsuba schedule (6 products per lane) becomes
// 12 VPCLMULQDQ instructions per 8 lanes — 48 carry-less multiplies —
// with the products staying vector-resident through recombination and
// the shift-reduce fold (reduce_163.h). The even/odd interleave trick:
//
//   Te = VPCLMULQDQ(A, B, 0x00)   products of SoA lanes 0,2,4,6
//   To = VPCLMULQDQ(A, B, 0x11)   products of SoA lanes 1,3,5,7
//
// leaves each 128-bit register lane holding one full (lo, hi) product,
// and because unpacklo/unpackhi_epi64 interleave qwords per 128-bit
// lane, UNPACKLO(Te, To) is exactly the SoA vector of product low words
// (lanes 0..7 in order) and UNPACKHI the high words — the gather back to
// word-major costs one shuffle per product.
//
// The same schedule at half width (4 lanes, YMM) covers
// VPCLMULQDQ+AVX2-only hosts. Kernels for both widths live in lanes.cpp;
// this header provides the 8- and 4-lane unreduced product blocks shared
// with the benches and tests.
#pragma once

#include <cstdint>

#include "gf2m/arch.h"
#include "gf2m/reduce_163.h"

#if MEDSEC_ARCH_X86_64

// vpclmulqdq does not imply the legacy 128-bit feature set for the
// compiler: pclmul+sse4.1 are listed too so the interleaved-clmul tail
// kernels (lanes.cpp) can inline into the vector loops.
#define MEDSEC_TARGET_VPCLMUL512 \
  __attribute__((                \
      target("vpclmulqdq,avx512f,avx512bw,avx512vl,pclmul,sse4.1")))
#define MEDSEC_TARGET_VPCLMUL256 \
  __attribute__((target("vpclmulqdq,avx2,pclmul,sse4.1")))

namespace medsec::gf2m::vclmul {

// GCC's unmasked AVX-512 unpack/shift intrinsics expand through
// _mm512_undefined_epi32(), which GCC 12 flags as use-of-uninitialized
// (bug PR105593). Header-wide false positive, not ours.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

/// Limb words of 8 (ZMM) or 4 (YMM) consecutive SoA lanes.
struct Soa512 {
  __m512i l[3];
};
struct Soa256 {
  __m256i l[3];
};

MEDSEC_TARGET_VPCLMUL512 inline Soa512 load_x8(const std::uint64_t* l0,
                                               const std::uint64_t* l1,
                                               const std::uint64_t* l2,
                                               std::size_t i) {
  return Soa512{{_mm512_loadu_si512(l0 + i), _mm512_loadu_si512(l1 + i),
                 _mm512_loadu_si512(l2 + i)}};
}

MEDSEC_TARGET_VPCLMUL256 inline Soa256 load_x4(const std::uint64_t* l0,
                                               const std::uint64_t* l1,
                                               const std::uint64_t* l2,
                                               std::size_t i) {
  return Soa256{{_mm256_loadu_si256(reinterpret_cast<const __m256i*>(l0 + i)),
                 _mm256_loadu_si256(reinterpret_cast<const __m256i*>(l1 + i)),
                 _mm256_loadu_si256(reinterpret_cast<const __m256i*>(l2 + i))}};
}

/// Unreduced 3x3-limb Karatsuba product of 8 SoA lanes: p[w] = word w of
/// a[i]·b[i] for the 8 lanes. 12 VPCLMULQDQ + XOR recombination + 10
/// qword unpacks, all ZMM-resident.
MEDSEC_TARGET_VPCLMUL512 inline void mul326_x8(const Soa512& a,
                                               const Soa512& b,
                                               __m512i p[6]) {
  const __m512i sa01 = _mm512_xor_si512(a.l[0], a.l[1]);
  const __m512i sb01 = _mm512_xor_si512(b.l[0], b.l[1]);
  const __m512i sa02 = _mm512_xor_si512(a.l[0], a.l[2]);
  const __m512i sb02 = _mm512_xor_si512(b.l[0], b.l[2]);
  const __m512i sa12 = _mm512_xor_si512(a.l[1], a.l[2]);
  const __m512i sb12 = _mm512_xor_si512(b.l[1], b.l[2]);

  const __m512i d0e = _mm512_clmulepi64_epi128(a.l[0], b.l[0], 0x00);
  const __m512i d0o = _mm512_clmulepi64_epi128(a.l[0], b.l[0], 0x11);
  const __m512i d1e = _mm512_clmulepi64_epi128(a.l[1], b.l[1], 0x00);
  const __m512i d1o = _mm512_clmulepi64_epi128(a.l[1], b.l[1], 0x11);
  const __m512i d2e = _mm512_clmulepi64_epi128(a.l[2], b.l[2], 0x00);
  const __m512i d2o = _mm512_clmulepi64_epi128(a.l[2], b.l[2], 0x11);
  const __m512i e01e = _mm512_clmulepi64_epi128(sa01, sb01, 0x00);
  const __m512i e01o = _mm512_clmulepi64_epi128(sa01, sb01, 0x11);
  const __m512i e02e = _mm512_clmulepi64_epi128(sa02, sb02, 0x00);
  const __m512i e02o = _mm512_clmulepi64_epi128(sa02, sb02, 0x11);
  const __m512i e12e = _mm512_clmulepi64_epi128(sa12, sb12, 0x00);
  const __m512i e12o = _mm512_clmulepi64_epi128(sa12, sb12, 0x11);

  // Same recombination as the scalar Karatsuba (backend.cpp), per product
  // half.
  const __m512i d01e = _mm512_xor_si512(d0e, d1e);
  const __m512i d01o = _mm512_xor_si512(d0o, d1o);
  const __m512i c1e = _mm512_xor_si512(e01e, d01e);
  const __m512i c1o = _mm512_xor_si512(e01o, d01o);
  const __m512i c2e = _mm512_xor_si512(e02e, _mm512_xor_si512(d01e, d2e));
  const __m512i c2o = _mm512_xor_si512(e02o, _mm512_xor_si512(d01o, d2o));
  const __m512i c3e = _mm512_xor_si512(e12e, _mm512_xor_si512(d1e, d2e));
  const __m512i c3o = _mm512_xor_si512(e12o, _mm512_xor_si512(d1o, d2o));

  p[0] = _mm512_unpacklo_epi64(d0e, d0o);
  p[1] = _mm512_xor_si512(_mm512_unpackhi_epi64(d0e, d0o),
                          _mm512_unpacklo_epi64(c1e, c1o));
  p[2] = _mm512_xor_si512(_mm512_unpackhi_epi64(c1e, c1o),
                          _mm512_unpacklo_epi64(c2e, c2o));
  p[3] = _mm512_xor_si512(_mm512_unpackhi_epi64(c2e, c2o),
                          _mm512_unpacklo_epi64(c3e, c3o));
  p[4] = _mm512_xor_si512(_mm512_unpackhi_epi64(c3e, c3o),
                          _mm512_unpacklo_epi64(d2e, d2o));
  p[5] = _mm512_unpackhi_epi64(d2e, d2o);
}

/// Unreduced squares of 8 SoA lanes (squaring over GF(2) has no cross
/// terms: one carry-less self-multiply per limb).
MEDSEC_TARGET_VPCLMUL512 inline void sqr326_x8(const Soa512& a,
                                               __m512i p[6]) {
  for (std::size_t l = 0; l < 3; ++l) {
    const __m512i se = _mm512_clmulepi64_epi128(a.l[l], a.l[l], 0x00);
    const __m512i so = _mm512_clmulepi64_epi128(a.l[l], a.l[l], 0x11);
    p[2 * l] = _mm512_unpacklo_epi64(se, so);
    p[2 * l + 1] = _mm512_unpackhi_epi64(se, so);
  }
}

/// Fold + store 8 lanes back to SoA memory (out may alias the inputs:
/// everything for these lanes was loaded before this call).
MEDSEC_TARGET_VPCLMUL512 inline void reduce_store_x8(const __m512i p[6],
                                                     std::uint64_t* l0,
                                                     std::uint64_t* l1,
                                                     std::uint64_t* l2,
                                                     std::size_t i) {
  __m512i r[3];
  reduce326_x8(p, r);
  _mm512_storeu_si512(l0 + i, r[0]);
  _mm512_storeu_si512(l1 + i, r[1]);
  _mm512_storeu_si512(l2 + i, r[2]);
}

// --- 4-lane YMM variants (VPCLMULQDQ without AVX-512) -----------------------

MEDSEC_TARGET_VPCLMUL256 inline void mul326_x4(const Soa256& a,
                                               const Soa256& b,
                                               __m256i p[6]) {
  const __m256i sa01 = _mm256_xor_si256(a.l[0], a.l[1]);
  const __m256i sb01 = _mm256_xor_si256(b.l[0], b.l[1]);
  const __m256i sa02 = _mm256_xor_si256(a.l[0], a.l[2]);
  const __m256i sb02 = _mm256_xor_si256(b.l[0], b.l[2]);
  const __m256i sa12 = _mm256_xor_si256(a.l[1], a.l[2]);
  const __m256i sb12 = _mm256_xor_si256(b.l[1], b.l[2]);

  const __m256i d0e = _mm256_clmulepi64_epi128(a.l[0], b.l[0], 0x00);
  const __m256i d0o = _mm256_clmulepi64_epi128(a.l[0], b.l[0], 0x11);
  const __m256i d1e = _mm256_clmulepi64_epi128(a.l[1], b.l[1], 0x00);
  const __m256i d1o = _mm256_clmulepi64_epi128(a.l[1], b.l[1], 0x11);
  const __m256i d2e = _mm256_clmulepi64_epi128(a.l[2], b.l[2], 0x00);
  const __m256i d2o = _mm256_clmulepi64_epi128(a.l[2], b.l[2], 0x11);
  const __m256i e01e = _mm256_clmulepi64_epi128(sa01, sb01, 0x00);
  const __m256i e01o = _mm256_clmulepi64_epi128(sa01, sb01, 0x11);
  const __m256i e02e = _mm256_clmulepi64_epi128(sa02, sb02, 0x00);
  const __m256i e02o = _mm256_clmulepi64_epi128(sa02, sb02, 0x11);
  const __m256i e12e = _mm256_clmulepi64_epi128(sa12, sb12, 0x00);
  const __m256i e12o = _mm256_clmulepi64_epi128(sa12, sb12, 0x11);

  const __m256i d01e = _mm256_xor_si256(d0e, d1e);
  const __m256i d01o = _mm256_xor_si256(d0o, d1o);
  const __m256i c1e = _mm256_xor_si256(e01e, d01e);
  const __m256i c1o = _mm256_xor_si256(e01o, d01o);
  const __m256i c2e = _mm256_xor_si256(e02e, _mm256_xor_si256(d01e, d2e));
  const __m256i c2o = _mm256_xor_si256(e02o, _mm256_xor_si256(d01o, d2o));
  const __m256i c3e = _mm256_xor_si256(e12e, _mm256_xor_si256(d1e, d2e));
  const __m256i c3o = _mm256_xor_si256(e12o, _mm256_xor_si256(d1o, d2o));

  p[0] = _mm256_unpacklo_epi64(d0e, d0o);
  p[1] = _mm256_xor_si256(_mm256_unpackhi_epi64(d0e, d0o),
                          _mm256_unpacklo_epi64(c1e, c1o));
  p[2] = _mm256_xor_si256(_mm256_unpackhi_epi64(c1e, c1o),
                          _mm256_unpacklo_epi64(c2e, c2o));
  p[3] = _mm256_xor_si256(_mm256_unpackhi_epi64(c2e, c2o),
                          _mm256_unpacklo_epi64(c3e, c3o));
  p[4] = _mm256_xor_si256(_mm256_unpackhi_epi64(c3e, c3o),
                          _mm256_unpacklo_epi64(d2e, d2o));
  p[5] = _mm256_unpackhi_epi64(d2e, d2o);
}

MEDSEC_TARGET_VPCLMUL256 inline void sqr326_x4(const Soa256& a,
                                               __m256i p[6]) {
  for (std::size_t l = 0; l < 3; ++l) {
    const __m256i se = _mm256_clmulepi64_epi128(a.l[l], a.l[l], 0x00);
    const __m256i so = _mm256_clmulepi64_epi128(a.l[l], a.l[l], 0x11);
    p[2 * l] = _mm256_unpacklo_epi64(se, so);
    p[2 * l + 1] = _mm256_unpackhi_epi64(se, so);
  }
}

MEDSEC_TARGET_VPCLMUL256 inline void reduce_store_x4(const __m256i p[6],
                                                     std::uint64_t* l0,
                                                     std::uint64_t* l1,
                                                     std::uint64_t* l2,
                                                     std::size_t i) {
  __m256i r[3];
  reduce326_x4(p, r);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(l0 + i), r[0]);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(l1 + i), r[1]);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(l2 + i), r[2]);
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

}  // namespace medsec::gf2m::vclmul

#endif  // MEDSEC_ARCH_X86_64
