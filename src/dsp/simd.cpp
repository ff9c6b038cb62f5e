#include "dsp/simd.h"

#include <atomic>
#include <cmath>
#include <limits>

#include "common/atomic.h"
#include "obs/metrics.h"

// The vector paths exist only for x86-64 under a GCC-compatible
// compiler and can be compiled out entirely with -DMDN_NO_SIMD=ON;
// every other configuration runs the scalar reference table.
#if !defined(MDN_NO_SIMD) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define MDN_SIMD_X86 1
#include <immintrin.h>
#else
#define MDN_SIMD_X86 0
#endif

namespace mdn::dsp::simd {
namespace {

// std::complex<double> is layout-compatible with double[2] ([re, im]);
// the standard guarantees reinterpret_cast access (26.4.4).
inline const double* flat(const Complex* p) noexcept {
  return reinterpret_cast<const double*>(p);
}
inline double* flat(Complex* p) noexcept {
  return reinterpret_cast<double*>(p);
}

// --- scalar reference kernels ------------------------------------------
//
// These define the semantics every vector kernel must match bit-for-bit:
// per-element operation order exactly as written (mdn_dsp is compiled
// with -ffp-contract=off, so no FMA contraction sneaks in).

void mul_scalar(const double* a, const double* b, double* out,
                std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

void mag_scale_aos_scalar(const Complex* bins, double scale, double* out,
                          std::size_t n) {
  const double* v = flat(bins);
  for (std::size_t i = 0; i < n; ++i) {
    const double re = v[2 * i], im = v[2 * i + 1];
    out[i] = std::sqrt(re * re + im * im) * scale;
  }
}

// The reference butterfly on one [re, im] pair each:
//   v = b * w  (vr = br*wr - bi*wi, vi = br*wi + bi*wr)
//   a = a + v,  b = a - v
inline void butterfly_scalar(double* a, double* b, const double* w) {
  const double wr = w[0], wi = w[1];
  const double br = b[0], bi = b[1];
  const double vr = br * wr - bi * wi;
  const double vi = br * wi + bi * wr;
  const double ar = a[0], ai = a[1];
  a[0] = ar + vr;
  a[1] = ai + vi;
  b[0] = ar - vr;
  b[1] = ai - vi;
}

void butterfly_aos_scalar(Complex* data, std::size_t n, std::size_t half,
                          const Complex* tw) {
  const double* wp = flat(tw);
  for (std::size_t i = 0; i < n; i += 2 * half) {
    double* a = flat(data + i);
    double* b = flat(data + i + half);
    for (std::size_t k = 0; k < half; ++k) {
      butterfly_scalar(a + 2 * k, b + 2 * k, wp + 2 * k);
    }
  }
}

void butterfly_pair_scalar(Complex* data, std::size_t n, std::size_t h,
                           const Complex* tw1, const Complex* tw2) {
  const double* w1 = flat(tw1);
  const double* w2 = flat(tw2);
  for (std::size_t i = 0; i < n; i += 4 * h) {
    double* x0 = flat(data + i);
    double* x1 = x0 + 2 * h;
    double* x2 = x0 + 4 * h;
    double* x3 = x0 + 6 * h;
    for (std::size_t o = 0; o < 2 * h; o += 2) {
      butterfly_scalar(x0 + o, x1 + o, w1 + o);
      butterfly_scalar(x2 + o, x3 + o, w1 + o);
      butterfly_scalar(x0 + o, x2 + o, w2 + o);
      butterfly_scalar(x1 + o, x3 + o, w2 + 2 * h + o);
    }
  }
}

// One k of Kernels::untangle_real (z, w, out as flat doubles).
inline void untangle_bin_scalar(const double* z, const double* w, double* out,
                                std::size_t half, std::size_t k) {
  const std::size_t m = half - k;
  const std::size_t zm = k == 0 ? 0 : m;
  const double ar = z[2 * k], ai = z[2 * k + 1];
  const double br = z[2 * zm], bi = z[2 * zm + 1];
  const double er = 0.5 * (ar + br);
  const double ei = 0.5 * (ai - bi);
  const double dr = ar - br;
  const double di = ai + bi;
  const double odr = 0.0 * dr - (-0.5) * di;
  const double odi = 0.0 * di + (-0.5) * dr;
  const double wr = w[2 * k], wi = w[2 * k + 1];
  out[2 * k] = er + (wr * odr - wi * odi);
  out[2 * k + 1] = ei + (wr * odi + wi * odr);
  const double mr = w[2 * m], mi = w[2 * m + 1];
  out[2 * m] = er + (mr * odr + mi * odi);
  out[2 * m + 1] = (mi * odr - mr * odi) - ei;
}

inline void untangle_nyquist(const double* z, double* out, std::size_t half) {
  out[2 * half] = z[0] - z[1];
  out[2 * half + 1] = 0.0;
}

void untangle_real_scalar(const Complex* z, const Complex* w, Complex* out,
                          std::size_t half) {
  for (std::size_t k = 0; k <= half / 2; ++k) {
    untangle_bin_scalar(flat(z), flat(w), flat(out), half, k);
  }
  untangle_nyquist(flat(z), flat(out), half);
}

void cmul_aos_scalar(const Complex* a, const Complex* b, Complex* out,
                     std::size_t n) {
  const double* ap = flat(a);
  const double* bp = flat(b);
  double* op = flat(out);
  for (std::size_t i = 0; i < n; ++i) {
    const double ar = ap[2 * i], ai = ap[2 * i + 1];
    const double br = bp[2 * i], bi = bp[2 * i + 1];
    const double re = ar * br - ai * bi;
    const double im = ar * bi + ai * br;
    op[2 * i] = re;
    op[2 * i + 1] = im;
  }
}

void goertzel_iterate_scalar(const double* x, std::size_t n,
                             const double* coeff, std::size_t nf, double* s1,
                             double* s2) {
  // Filter-major: each filter streams the block with its state in
  // registers — identical per-filter arithmetic to the vector paths,
  // which run groups of filters sample-major instead.
  for (std::size_t f = 0; f < nf; ++f) {
    const double c = coeff[f];
    double a = s1[f], b = s2[f];
    for (std::size_t i = 0; i < n; ++i) {
      const double s0 = x[i] + c * a - b;
      b = a;
      a = s0;
    }
    s1[f] = a;
    s2[f] = b;
  }
}

double chunk_max_scalar(const double* x, std::size_t n) {
  double m = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    if (x[i] > m) m = x[i];
  }
  return m;
}

constexpr Kernels kScalarKernels{
    mul_scalar,           mag_scale_aos_scalar, butterfly_aos_scalar,
    butterfly_pair_scalar, untangle_real_scalar, cmul_aos_scalar,
    goertzel_iterate_scalar, chunk_max_scalar,
};

#if MDN_SIMD_X86

// --- SSE2 kernels (x86-64 baseline, no target attribute needed) --------
//
// addsub does not exist in SSE2; `a - b` is computed as `a + (-b)` by
// flipping the sign bit, which is bitwise identical for every input
// (IEEE-754 negation is exact, and x + (-y) rounds exactly like x - y).

inline __m128d sse2_neg_lo(__m128d v) noexcept {
  const __m128d sign = _mm_set_pd(0.0, -0.0);  // [-0.0, 0.0] memory order
  return _mm_xor_pd(v, sign);
}

void mul_sse2(const double* a, const double* b, double* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    _mm_storeu_pd(out + i,
                  _mm_mul_pd(_mm_loadu_pd(a + i), _mm_loadu_pd(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

void mag_scale_aos_sse2(const Complex* bins, double scale, double* out,
                        std::size_t n) {
  const double* v = flat(bins);
  const __m128d s = _mm_set1_pd(scale);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d c0 = _mm_loadu_pd(v + 2 * i);      // [re0, im0]
    const __m128d c1 = _mm_loadu_pd(v + 2 * i + 2);  // [re1, im1]
    const __m128d sq0 = _mm_mul_pd(c0, c0);
    const __m128d sq1 = _mm_mul_pd(c1, c1);
    const __m128d res = _mm_shuffle_pd(sq0, sq1, 0b00);  // [re0^2, re1^2]
    const __m128d ims = _mm_shuffle_pd(sq0, sq1, 0b11);  // [im0^2, im1^2]
    const __m128d sum = _mm_add_pd(res, ims);
    _mm_storeu_pd(out + i, _mm_mul_pd(_mm_sqrt_pd(sum), s));
  }
  for (; i < n; ++i) {
    const double re = v[2 * i], im = v[2 * i + 1];
    out[i] = std::sqrt(re * re + im * im) * scale;
  }
}

// One complex (128 bits) per register: v = b*w via the swap/sign-flip
// identity, then a +- v with plain adds.
inline void sse2_butterfly(__m128d& a, __m128d& b, __m128d w) noexcept {
  const __m128d wr = _mm_unpacklo_pd(w, w);      // [wr, wr]
  const __m128d wi = _mm_unpackhi_pd(w, w);      // [wi, wi]
  const __m128d bs = _mm_shuffle_pd(b, b, 0b01);  // [bi, br]
  // v = [br*wr - bi*wi, bi*wr + br*wi]
  const __m128d v =
      _mm_add_pd(_mm_mul_pd(b, wr), sse2_neg_lo(_mm_mul_pd(bs, wi)));
  const __m128d a0 = a;
  a = _mm_add_pd(a0, v);
  b = _mm_sub_pd(a0, v);
}

// One fused radix-2^2 group: the two butterflies of the first stage,
// then the two of the second (see Kernels::butterfly_pair).
inline void sse2_pair_group(double* x0, double* x1, double* x2, double* x3,
                            const double* w1, const double* w2a,
                            const double* w2b) noexcept {
  __m128d y0 = _mm_loadu_pd(x0), y1 = _mm_loadu_pd(x1);
  __m128d y2 = _mm_loadu_pd(x2), y3 = _mm_loadu_pd(x3);
  const __m128d t1 = _mm_loadu_pd(w1);
  sse2_butterfly(y0, y1, t1);
  sse2_butterfly(y2, y3, t1);
  sse2_butterfly(y0, y2, _mm_loadu_pd(w2a));
  sse2_butterfly(y1, y3, _mm_loadu_pd(w2b));
  _mm_storeu_pd(x0, y0);
  _mm_storeu_pd(x1, y1);
  _mm_storeu_pd(x2, y2);
  _mm_storeu_pd(x3, y3);
}

void butterfly_aos_sse2(Complex* data, std::size_t n, std::size_t half,
                        const Complex* tw) {
  const double* wp = flat(tw);
  for (std::size_t i = 0; i < n; i += 2 * half) {
    double* a = flat(data + i);
    double* b = flat(data + i + half);
    for (std::size_t k = 0; k < half; ++k) {
      __m128d av = _mm_loadu_pd(a + 2 * k);
      __m128d bv = _mm_loadu_pd(b + 2 * k);
      sse2_butterfly(av, bv, _mm_loadu_pd(wp + 2 * k));
      _mm_storeu_pd(a + 2 * k, av);
      _mm_storeu_pd(b + 2 * k, bv);
    }
  }
}

void butterfly_pair_sse2(Complex* data, std::size_t n, std::size_t h,
                         const Complex* tw1, const Complex* tw2) {
  const double* w1 = flat(tw1);
  const double* w2 = flat(tw2);
  for (std::size_t i = 0; i < n; i += 4 * h) {
    double* x0 = flat(data + i);
    for (std::size_t o = 0; o < 2 * h; o += 2) {
      sse2_pair_group(x0 + o, x0 + 2 * h + o, x0 + 4 * h + o,
                      x0 + 6 * h + o, w1 + o, w2 + o, w2 + 2 * h + o);
    }
  }
}

void cmul_aos_sse2(const Complex* a, const Complex* b, Complex* out,
                   std::size_t n) {
  const double* ap = flat(a);
  const double* bp = flat(b);
  double* op = flat(out);
  for (std::size_t i = 0; i < n; ++i) {
    const __m128d av = _mm_loadu_pd(ap + 2 * i);      // [ar, ai]
    const __m128d bv = _mm_loadu_pd(bp + 2 * i);      // [br, bi]
    const __m128d ar = _mm_unpacklo_pd(av, av);       // [ar, ar]
    const __m128d ai = _mm_unpackhi_pd(av, av);       // [ai, ai]
    const __m128d bs = _mm_shuffle_pd(bv, bv, 0b01);  // [bi, br]
    // [ar*br - ai*bi, ar*bi + ai*br]
    const __m128d v =
        _mm_add_pd(_mm_mul_pd(ar, bv), sse2_neg_lo(_mm_mul_pd(ai, bs)));
    _mm_storeu_pd(op + 2 * i, v);
  }
}

void goertzel_iterate_sse2(const double* x, std::size_t n,
                           const double* coeff, std::size_t nf, double* s1,
                           double* s2) {
  std::size_t f = 0;
  for (; f + 2 <= nf; f += 2) {
    const __m128d c = _mm_loadu_pd(coeff + f);
    __m128d a = _mm_loadu_pd(s1 + f);
    __m128d b = _mm_loadu_pd(s2 + f);
    for (std::size_t i = 0; i < n; ++i) {
      const __m128d xv = _mm_set1_pd(x[i]);
      const __m128d s0 = _mm_sub_pd(_mm_add_pd(xv, _mm_mul_pd(c, a)), b);
      b = a;
      a = s0;
    }
    _mm_storeu_pd(s1 + f, a);
    _mm_storeu_pd(s2 + f, b);
  }
  if (f < nf) {
    goertzel_iterate_scalar(x, n, coeff + f, nf - f, s1 + f, s2 + f);
  }
}

double chunk_max_sse2(const double* x, std::size_t n) {
  if (n < 4) return chunk_max_scalar(x, n);
  __m128d m = _mm_loadu_pd(x);
  std::size_t i = 2;
  for (; i + 2 <= n; i += 2) m = _mm_max_pd(m, _mm_loadu_pd(x + i));
  double lanes[2];
  _mm_storeu_pd(lanes, m);
  double best = lanes[0] > lanes[1] ? lanes[0] : lanes[1];
  for (; i < n; ++i) {
    if (x[i] > best) best = x[i];
  }
  return best;
}

// The untangle mixes each bin with its mirror; one complex per SSE2
// register gains nothing over the scalar reference, which this table
// reuses.
constexpr Kernels kSse2Kernels{
    mul_sse2,           mag_scale_aos_sse2,   butterfly_aos_sse2,
    butterfly_pair_sse2, untangle_real_scalar, cmul_aos_sse2,
    goertzel_iterate_sse2, chunk_max_sse2,
};

// --- AVX2 kernels ------------------------------------------------------
//
// Compiled with a per-function target attribute so the rest of the
// translation unit (and the whole build) stays generic x86-64; the
// dispatcher only hands these out when the CPU reports AVX2.

#define MDN_AVX2 __attribute__((target("avx2")))

MDN_AVX2 void mul_avx2(const double* a, const double* b, double* out,
                       std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        out + i, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

MDN_AVX2 void mag_scale_aos_avx2(const Complex* bins, double scale,
                                 double* out, std::size_t n) {
  const double* v = flat(bins);
  const __m256d s = _mm256_set1_pd(scale);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d c0 = _mm256_loadu_pd(v + 2 * i);      // [re0 im0 re1 im1]
    const __m256d c1 = _mm256_loadu_pd(v + 2 * i + 4);  // [re2 im2 re3 im3]
    const __m256d sq0 = _mm256_mul_pd(c0, c0);
    const __m256d sq1 = _mm256_mul_pd(c1, c1);
    // hadd within 128-bit lanes: [re0²+im0², re2²+im2², re1²+im1², ...]
    const __m256d sum = _mm256_hadd_pd(
        _mm256_permute2f128_pd(sq0, sq1, 0x20),
        _mm256_permute2f128_pd(sq0, sq1, 0x31));
    _mm256_storeu_pd(out + i, _mm256_mul_pd(_mm256_sqrt_pd(sum), s));
  }
  for (; i < n; ++i) {
    const double re = v[2 * i], im = v[2 * i + 1];
    out[i] = std::sqrt(re * re + im * im) * scale;
  }
}

// Two complex values (256 bits) per register.  addsub computes
// [lo - x, hi + y] per 128-bit half — exactly vr = br*wr - bi*wi in the
// even lanes and vi = bi*wr + br*wi in the odd lanes.
MDN_AVX2 inline void avx2_butterfly(__m256d& a, __m256d& b,
                                    __m256d w) noexcept {
  const __m256d wr = _mm256_permute_pd(w, 0b0000);  // [wr0 wr0 wr1 wr1]
  const __m256d wi = _mm256_permute_pd(w, 0b1111);  // [wi0 wi0 wi1 wi1]
  const __m256d bs = _mm256_permute_pd(b, 0b0101);  // [bi0 br0 bi1 br1]
  const __m256d v =
      _mm256_addsub_pd(_mm256_mul_pd(b, wr), _mm256_mul_pd(bs, wi));
  const __m256d a0 = a;
  a = _mm256_add_pd(a0, v);
  b = _mm256_sub_pd(a0, v);
}

// With half (or h) == 1 there are no two neighbouring k to share a
// register, so that pass runs the SSE2 kernel; odd tails (which the
// power-of-two FFT never has) finish one complex at a time.
MDN_AVX2 void butterfly_aos_avx2(Complex* data, std::size_t n,
                                 std::size_t half, const Complex* tw) {
  if (half < 2) {
    butterfly_aos_sse2(data, n, half, tw);
    return;
  }
  const double* wp = flat(tw);
  for (std::size_t i = 0; i < n; i += 2 * half) {
    double* a = flat(data + i);
    double* b = flat(data + i + half);
    std::size_t o = 0;
    for (; o + 4 <= 2 * half; o += 4) {
      __m256d av = _mm256_loadu_pd(a + o);  // [ar0 ai0 ar1 ai1]
      __m256d bv = _mm256_loadu_pd(b + o);
      avx2_butterfly(av, bv, _mm256_loadu_pd(wp + o));
      _mm256_storeu_pd(a + o, av);
      _mm256_storeu_pd(b + o, bv);
    }
    if (o < 2 * half) {
      __m128d av = _mm_loadu_pd(a + o);
      __m128d bv = _mm_loadu_pd(b + o);
      sse2_butterfly(av, bv, _mm_loadu_pd(wp + o));
      _mm_storeu_pd(a + o, av);
      _mm_storeu_pd(b + o, bv);
    }
  }
}

MDN_AVX2 void butterfly_pair_avx2(Complex* data, std::size_t n,
                                  std::size_t h, const Complex* tw1,
                                  const Complex* tw2) {
  if (h < 2) {
    butterfly_pair_sse2(data, n, h, tw1, tw2);
    return;
  }
  const double* w1 = flat(tw1);
  const double* w2 = flat(tw2);
  for (std::size_t i = 0; i < n; i += 4 * h) {
    double* x0 = flat(data + i);
    double* x1 = x0 + 2 * h;
    double* x2 = x0 + 4 * h;
    double* x3 = x0 + 6 * h;
    std::size_t o = 0;
    for (; o + 4 <= 2 * h; o += 4) {
      __m256d y0 = _mm256_loadu_pd(x0 + o), y1 = _mm256_loadu_pd(x1 + o);
      __m256d y2 = _mm256_loadu_pd(x2 + o), y3 = _mm256_loadu_pd(x3 + o);
      const __m256d t1 = _mm256_loadu_pd(w1 + o);
      avx2_butterfly(y0, y1, t1);
      avx2_butterfly(y2, y3, t1);
      avx2_butterfly(y0, y2, _mm256_loadu_pd(w2 + o));
      avx2_butterfly(y1, y3, _mm256_loadu_pd(w2 + 2 * h + o));
      _mm256_storeu_pd(x0 + o, y0);
      _mm256_storeu_pd(x1 + o, y1);
      _mm256_storeu_pd(x2 + o, y2);
      _mm256_storeu_pd(x3 + o, y3);
    }
    if (o < 2 * h) {
      sse2_pair_group(x0 + o, x1 + o, x2 + o, x3 + o, w1 + o, w2 + o,
                      w2 + 2 * h + o);
    }
  }
}

// Bins k, k+1 and their mirrors half-k, half-k-1 per iteration; the
// mirrored loads and stores swap 128-bit halves so every lane pairs a
// bin with its own mirror.  Sign flips on the odd (imaginary) lanes turn
// the scalar's subtractions into the additions they equal bitwise.
MDN_AVX2 void untangle_real_avx2(const Complex* zc, const Complex* wc,
                                 Complex* outc, std::size_t half) {
  const double* z = flat(zc);
  const double* w = flat(wc);
  double* out = flat(outc);
  untangle_bin_scalar(z, w, out, half, 0);
  const __m256d neg_im = _mm256_set_pd(-0.0, 0.0, -0.0, 0.0);
  const __m256d half_v = _mm256_set1_pd(0.5);
  const __m256d zero_v = _mm256_setzero_pd();
  const __m256d neg_half_v = _mm256_set1_pd(-0.5);
  std::size_t k = 1;
  for (; k + 1 <= half / 2; k += 2) {
    const std::size_t m1 = half - k - 1;
    const __m256d a = _mm256_loadu_pd(z + 2 * k);  // z[k], z[k+1]
    const __m256d b_rev = _mm256_loadu_pd(z + 2 * m1);
    const __m256d b = _mm256_permute2f128_pd(b_rev, b_rev, 0x01);
    const __m256d bc = _mm256_xor_pd(b, neg_im);  // [br, -bi]
    const __m256d e = _mm256_mul_pd(half_v, _mm256_add_pd(a, bc));
    const __m256d d = _mm256_sub_pd(a, bc);
    const __m256d o =
        _mm256_addsub_pd(_mm256_mul_pd(d, zero_v),
                         _mm256_mul_pd(_mm256_permute_pd(d, 0b0101),
                                       neg_half_v));  // [or, oi]
    const __m256d os = _mm256_permute_pd(o, 0b0101);  // [oi, or]

    const __m256d wk = _mm256_loadu_pd(w + 2 * k);
    const __m256d v = _mm256_addsub_pd(
        _mm256_mul_pd(o, _mm256_permute_pd(wk, 0b0000)),
        _mm256_mul_pd(os, _mm256_permute_pd(wk, 0b1111)));
    _mm256_storeu_pd(out + 2 * k, _mm256_add_pd(e, v));

    const __m256d wm_rev = _mm256_loadu_pd(w + 2 * m1);
    const __m256d wm = _mm256_permute2f128_pd(wm_rev, wm_rev, 0x01);
    const __m256d x = _mm256_mul_pd(o, _mm256_permute_pd(wm, 0b0000));
    const __m256d y = _mm256_mul_pd(os, _mm256_permute_pd(wm, 0b1111));
    const __m256d u = _mm256_add_pd(y, _mm256_xor_pd(x, neg_im));
    const __m256d mirror = _mm256_add_pd(u, _mm256_xor_pd(e, neg_im));
    _mm256_storeu_pd(out + 2 * m1,
                     _mm256_permute2f128_pd(mirror, mirror, 0x01));
  }
  for (; k <= half / 2; ++k) untangle_bin_scalar(z, w, out, half, k);
  untangle_nyquist(z, out, half);
}

MDN_AVX2 void cmul_aos_avx2(const Complex* a, const Complex* b, Complex* out,
                            std::size_t n) {
  const double* ap = flat(a);
  const double* bp = flat(b);
  double* op = flat(out);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m256d av = _mm256_loadu_pd(ap + 2 * i);
    const __m256d bv = _mm256_loadu_pd(bp + 2 * i);
    const __m256d ar = _mm256_permute_pd(av, 0b0000);
    const __m256d ai = _mm256_permute_pd(av, 0b1111);
    const __m256d bs = _mm256_permute_pd(bv, 0b0101);
    // [ar*br - ai*bi, ar*bi + ai*br] per complex
    const __m256d v =
        _mm256_addsub_pd(_mm256_mul_pd(ar, bv), _mm256_mul_pd(ai, bs));
    _mm256_storeu_pd(op + 2 * i, v);
  }
  if (i < n) cmul_aos_sse2(a + i, b + i, out + i, n - i);
}

MDN_AVX2 void goertzel_iterate_avx2(const double* x, std::size_t n,
                                    const double* coeff, std::size_t nf,
                                    double* s1, double* s2) {
  std::size_t f = 0;
  for (; f + 4 <= nf; f += 4) {
    const __m256d c = _mm256_loadu_pd(coeff + f);
    __m256d a = _mm256_loadu_pd(s1 + f);
    __m256d b = _mm256_loadu_pd(s2 + f);
    for (std::size_t i = 0; i < n; ++i) {
      const __m256d xv = _mm256_set1_pd(x[i]);
      const __m256d s0 =
          _mm256_sub_pd(_mm256_add_pd(xv, _mm256_mul_pd(c, a)), b);
      b = a;
      a = s0;
    }
    _mm256_storeu_pd(s1 + f, a);
    _mm256_storeu_pd(s2 + f, b);
  }
  if (f < nf) {
    goertzel_iterate_sse2(x, n, coeff + f, nf - f, s1 + f, s2 + f);
  }
}

MDN_AVX2 double chunk_max_avx2(const double* x, std::size_t n) {
  if (n < 8) return chunk_max_sse2(x, n);
  __m256d m = _mm256_loadu_pd(x);
  std::size_t i = 4;
  for (; i + 4 <= n; i += 4) m = _mm256_max_pd(m, _mm256_loadu_pd(x + i));
  double lanes[4];
  _mm256_storeu_pd(lanes, m);
  double best = lanes[0];
  for (int l = 1; l < 4; ++l) {
    if (lanes[l] > best) best = lanes[l];
  }
  for (; i < n; ++i) {
    if (x[i] > best) best = x[i];
  }
  return best;
}

constexpr Kernels kAvx2Kernels{
    mul_avx2,           mag_scale_aos_avx2, butterfly_aos_avx2,
    butterfly_pair_avx2, untangle_real_avx2, cmul_aos_avx2,
    goertzel_iterate_avx2, chunk_max_avx2,
};

#endif  // MDN_SIMD_X86

Isa detect_isa() noexcept {
#if MDN_SIMD_X86
  if (__builtin_cpu_supports("avx2")) return Isa::kAvx2;
  return Isa::kSse2;  // SSE2 is the x86-64 baseline
#else
  return Isa::kScalar;
#endif
}

// Selected once (lazily) and then read with one relaxed load per call.
// set_active_isa_for_testing may rewrite it; both stores are idempotent
// with respect to concurrent detection, so the benign init race is fine.
// Declared through the check shim (common/atomic.h): std::atomic in
// normal builds; tests/model/ verifies the single-init protocol.
check::Atomic<const Kernels*> g_active_table{nullptr};
check::Atomic<int> g_active_isa{-1};

const Kernels* init_active() MDN_CHECK_NOEXCEPT {
  const Isa isa = detect_isa();
  const Kernels* table = &kernels_for(isa);
  // mo: idempotent hint (same value from every initializer); the table
  // pointer below carries the real publication
  g_active_isa.store(static_cast<int>(isa), std::memory_order_relaxed);
  // mo: release publishes the (immutable, static) table selection to
  // active_kernels' acquire load
  g_active_table.store(table, std::memory_order_release);
  return table;
}

}  // namespace

const char* isa_name(Isa isa) noexcept {
  switch (isa) {
    case Isa::kScalar: return "scalar";
    case Isa::kSse2: return "sse2";
    case Isa::kAvx2: return "avx2";
  }
  return "unknown";
}

bool isa_available(Isa isa) noexcept {
#if MDN_SIMD_X86
  if (isa == Isa::kAvx2) return __builtin_cpu_supports("avx2") != 0;
  return true;  // scalar and sse2 always
#else
  return isa == Isa::kScalar;
#endif
}

const Kernels& kernels_for(Isa isa) noexcept {
#if MDN_SIMD_X86
  switch (isa) {
    case Isa::kScalar: return kScalarKernels;
    case Isa::kSse2: return kSse2Kernels;
    case Isa::kAvx2:
      if (isa_available(Isa::kAvx2)) return kAvx2Kernels;
      return kScalarKernels;
  }
#else
  (void)isa;
#endif
  return kScalarKernels;
}

Isa active_isa() MDN_CHECK_NOEXCEPT {
  // mo: plain enum readback, no dependent data behind it
  const int isa = g_active_isa.load(std::memory_order_relaxed);
  if (isa < 0) {
    init_active();
    // mo: plain enum readback, no dependent data behind it
    return static_cast<Isa>(g_active_isa.load(std::memory_order_relaxed));
  }
  return static_cast<Isa>(isa);
}

const Kernels& active_kernels() MDN_CHECK_NOEXCEPT {
  // mo: pairs with init_active's release store; the table the pointer
  // leads to must be visible before use
  const Kernels* table = g_active_table.load(std::memory_order_acquire);
  if (table == nullptr) table = init_active();
  return *table;
}

Isa set_active_isa_for_testing(Isa isa) MDN_CHECK_NOEXCEPT {
  const Isa previous = active_isa();
  if (!isa_available(isa)) return previous;
  // mo: idempotent hint; the table pointer carries the publication
  g_active_isa.store(static_cast<int>(isa), std::memory_order_relaxed);
  // mo: release publishes the (immutable, static) table selection to
  // active_kernels' acquire load
  g_active_table.store(&kernels_for(isa), std::memory_order_release);
  return previous;
}

void reset_dispatch_for_testing() MDN_CHECK_NOEXCEPT {
  // mo: test-only teardown; callers quiesce the hot path first
  g_active_isa.store(-1, std::memory_order_relaxed);
  // mo: test-only teardown; callers quiesce the hot path first
  g_active_table.store(nullptr, std::memory_order_release);
}

void export_dispatch_metrics() {
  obs::Registry::global()
      .gauge("dsp/simd/dispatch")
      .set(static_cast<int>(active_isa()));
}

}  // namespace mdn::dsp::simd
