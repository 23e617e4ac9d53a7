/* AVX2 inner loops of Mat's three GEMM shapes (see mat.ml):

     nt  dst <- a·bᵀ (+ bias)   the dense forward
     nn  dst <- a·b             input gradients
     tn  dst <- dst + aᵀ·b      weight gradients

   Every vector lane computes one output cell's accumulation chain. A
   lane is an output column, never k: the chain is seeded exactly as in
   the OCaml kernels (+0.0 for nn and nt, the bias for nt with bias, the
   current dst cell for tn, or +0.0 for tn when asked to overwrite) and
   then steps acc = acc + a*b in ascending
   k, one _mm256_mul_pd and one _mm256_add_pd per step. Remainder rows
   and columns run the same chain in scalar C. So every cell is
   bit-identical to the OCaml kernels by construction (DESIGN §10).
   This holds only without contraction into fused multiply-adds: the
   build passes -ffp-contract=off and no -mfma, -march=native or
   -ffast-math (test_tensor.ml checks lib/tensor/dune and every stub
   file).

   The OCaml kernels' zero-skips are kept exactly, with I4 and K4 the
   4-aligned cut-offs of the full dimensions (for tn, of the sample
   range, counted from its first sample):
     nn  skips a[i][k] == 0 only when i >= I4 and k >= K4;
     tn  skips a[k][i] == 0 only when k >= K4.
   -0 compares equal to 0 and is skipped; NaN is not.

   The stubs are [@@noalloc] externals over flat float arrays and a
   [lo, hi) range of output rows (tn also takes a [klo, khi) range of
   samples): they allocate nothing, raise nothing
   and touch no global state. The AVX2 bodies carry
   __attribute__((target("avx2"))) behind an x86-64 guard, so the file
   builds on any host and no AVX2 instruction runs unless
   canopy_gemm_avx2_supported said so. */

#define CAML_NAME_SPACE
#include <caml/mlvalues.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define CANOPY_X86_64 1
#include <immintrin.h>
#endif

#define FLOATS(v) ((double *)(v))

value canopy_gemm_avx2_supported(value unit)
{
#ifdef CANOPY_X86_64
  __builtin_cpu_init();
  return Val_bool(__builtin_cpu_supports("avx2"));
#else
  return Val_false;
#endif
}

#ifdef CANOPY_X86_64

#define AVX2 __attribute__((target("avx2")))
#define LD(p) _mm256_loadu_pd(p)
#define ST(p, x) _mm256_storeu_pd((p), (x))
#define BC(p) _mm256_broadcast_sd(p)
/* acc + a*b, rounded twice, as the OCaml kernels do. */
#define STEP(acc, x, y) ((acc) = _mm256_add_pd((acc), _mm256_mul_pd((x), (y))))

/* The 8-row tiles of b, k-major: panel[8*jt*inner + 8*k + jj] =
   b[8*jt + jj][k], moved through 4×4 register transposes. A pure
   relayout (no arithmetic touches a value); rows past the last full
   tile stay in b. */
AVX2 static void nt_pack(const double *b, intnat rows, intnat inner,
                         double *panel)
{
  intnat j8 = rows - rows % 8, k4 = inner - inner % 4;
  for (intnat j = 0; j < j8; j += 8) {
    const double *bj = b + j * inner;
    double *p = panel + j * inner;
    intnat k = 0;
    for (; k < k4; k += 4) {
      for (intnat h = 0; h < 8; h += 4) {
        const double *r = bj + h * inner + k;
        __m256d r0 = LD(r), r1 = LD(r + inner), r2 = LD(r + 2 * inner),
                r3 = LD(r + 3 * inner);
        __m256d t0 = _mm256_unpacklo_pd(r0, r1);
        __m256d t1 = _mm256_unpackhi_pd(r0, r1);
        __m256d t2 = _mm256_unpacklo_pd(r2, r3);
        __m256d t3 = _mm256_unpackhi_pd(r2, r3);
        double *q = p + 8 * k + h;
        ST(q, _mm256_permute2f128_pd(t0, t2, 0x20));
        ST(q + 8, _mm256_permute2f128_pd(t1, t3, 0x20));
        ST(q + 16, _mm256_permute2f128_pd(t0, t2, 0x31));
        ST(q + 24, _mm256_permute2f128_pd(t1, t3, 0x31));
      }
    }
    for (; k < inner; k++)
      for (intnat jj = 0; jj < 8; jj++) p[8 * k + jj] = bj[jj * inner + k];
  }
}

/* nt: o[i][j] = seed(j) + sum_k a[i][k] * b[j][k], rows [lo, hi);
   n = rows of b = columns of o. */
AVX2 static void nt_avx2(const double *a, const double *panel, const double *b,
                         const double *bias, double *o, intnat inner,
                         intnat n, intnat lo, intnat hi)
{
  intnat j8 = n - n % 8;
  intnat i = lo;
  for (; i + 4 <= hi; i += 4) {
    const double *a0 = a + i * inner, *a1 = a0 + inner, *a2 = a1 + inner,
                 *a3 = a2 + inner;
    double *o0 = o + i * n, *o1 = o0 + n, *o2 = o1 + n, *o3 = o2 + n;
    for (intnat j = 0; j < j8; j += 8) {
      const double *p = panel + j * inner;
      __m256d sl = bias ? LD(bias + j) : _mm256_setzero_pd();
      __m256d sh = bias ? LD(bias + j + 4) : _mm256_setzero_pd();
      __m256d c0l = sl, c0h = sh, c1l = sl, c1h = sh;
      __m256d c2l = sl, c2h = sh, c3l = sl, c3h = sh;
      for (intnat k = 0; k < inner; k++, p += 8) {
        __m256d pl = LD(p), ph = LD(p + 4), x;
        x = BC(a0 + k);
        STEP(c0l, x, pl);
        STEP(c0h, x, ph);
        x = BC(a1 + k);
        STEP(c1l, x, pl);
        STEP(c1h, x, ph);
        x = BC(a2 + k);
        STEP(c2l, x, pl);
        STEP(c2h, x, ph);
        x = BC(a3 + k);
        STEP(c3l, x, pl);
        STEP(c3h, x, ph);
      }
      ST(o0 + j, c0l);
      ST(o0 + j + 4, c0h);
      ST(o1 + j, c1l);
      ST(o1 + j + 4, c1h);
      ST(o2 + j, c2l);
      ST(o2 + j + 4, c2h);
      ST(o3 + j, c3l);
      ST(o3 + j + 4, c3h);
    }
    for (intnat j = j8; j < n; j++) {
      const double *bj = b + j * inner;
      double s = bias ? bias[j] : 0.0;
      double c0 = s, c1 = s, c2 = s, c3 = s;
      for (intnat k = 0; k < inner; k++) {
        double bv = bj[k];
        c0 = c0 + a0[k] * bv;
        c1 = c1 + a1[k] * bv;
        c2 = c2 + a2[k] * bv;
        c3 = c3 + a3[k] * bv;
      }
      o0[j] = c0;
      o1[j] = c1;
      o2[j] = c2;
      o3[j] = c3;
    }
  }
  for (; i < hi; i++) {
    const double *ai = a + i * inner;
    double *oi = o + i * n;
    for (intnat j = 0; j < j8; j += 8) {
      const double *p = panel + j * inner;
      __m256d cl = bias ? LD(bias + j) : _mm256_setzero_pd();
      __m256d ch = bias ? LD(bias + j + 4) : _mm256_setzero_pd();
      for (intnat k = 0; k < inner; k++, p += 8) {
        __m256d x = BC(ai + k);
        STEP(cl, x, LD(p));
        STEP(ch, x, LD(p + 4));
      }
      ST(oi + j, cl);
      ST(oi + j + 4, ch);
    }
    for (intnat j = j8; j < n; j++) {
      const double *bj = b + j * inner;
      double c = bias ? bias[j] : 0.0;
      for (intnat k = 0; k < inner; k++) c = c + ai[k] * bj[k];
      oi[j] = c;
    }
  }
}

/* Each chain's seed: +0.0 when zero is set, else the current o cell. */
#define SEED(zero, p) ((zero) ? _mm256_setzero_pd() : LD(p))

/* One row of nn or tn: o[j] = seed + sum over k of s[k*ss] * b[k*n + j]
   for k in [0, nk), skipping s == 0 at k >= kskip. The seed is +0.0
   when zero is set (nn, an overwriting tn) and the o cell otherwise. */
AVX2 static void row_acc(const double *s, intnat ss, const double *b,
                         double *o, intnat nk, intnat n, intnat kskip,
                         intnat zero)
{
  intnat j = 0;
  for (; j + 16 <= n; j += 16) {
    __m256d c0 = SEED(zero, o + j), c1 = SEED(zero, o + j + 4),
            c2 = SEED(zero, o + j + 8), c3 = SEED(zero, o + j + 12);
    for (intnat k = 0; k < nk; k++) {
      double sv = s[k * ss];
      if (k >= kskip && sv == 0.0) continue;
      const double *bk = b + k * n + j;
      __m256d x = _mm256_set1_pd(sv);
      STEP(c0, x, LD(bk));
      STEP(c1, x, LD(bk + 4));
      STEP(c2, x, LD(bk + 8));
      STEP(c3, x, LD(bk + 12));
    }
    ST(o + j, c0);
    ST(o + j + 4, c1);
    ST(o + j + 8, c2);
    ST(o + j + 12, c3);
  }
  for (; j + 4 <= n; j += 4) {
    __m256d c = SEED(zero, o + j);
    for (intnat k = 0; k < nk; k++) {
      double sv = s[k * ss];
      if (k >= kskip && sv == 0.0) continue;
      STEP(c, _mm256_set1_pd(sv), LD(b + k * n + j));
    }
    ST(o + j, c);
  }
  for (; j < n; j++) {
    double c = zero ? 0.0 : o[j];
    for (intnat k = 0; k < nk; k++) {
      double sv = s[k * ss];
      if (k >= kskip && sv == 0.0) continue;
      c = c + sv * b[k * n + j];
    }
    o[j] = c;
  }
}

/* Four rows of nn or tn over the same b: row r's scalars are
   s[r*rs + k*ss]. Rows skip independently, at k >= kskip only. Seeds as
   row_acc. */
AVX2 static void rows4_acc(const double *s, intnat rs, intnat ss,
                           const double *b, double *o, intnat os, intnat nk,
                           intnat n, intnat kskip, intnat zero)
{
  double *o0 = o, *o1 = o0 + os, *o2 = o1 + os, *o3 = o2 + os;
  const double *s0 = s, *s1 = s0 + rs, *s2 = s1 + rs, *s3 = s2 + rs;
  intnat kfull = kskip < nk ? kskip : nk;
  intnat j = 0;
  for (; j + 8 <= n; j += 8) {
    __m256d c0l = SEED(zero, o0 + j), c0h = SEED(zero, o0 + j + 4);
    __m256d c1l = SEED(zero, o1 + j), c1h = SEED(zero, o1 + j + 4);
    __m256d c2l = SEED(zero, o2 + j), c2h = SEED(zero, o2 + j + 4);
    __m256d c3l = SEED(zero, o3 + j), c3h = SEED(zero, o3 + j + 4);
    const double *bk = b + j;
    intnat k = 0;
    for (; k < kfull; k++, bk += n) {
      __m256d bl = LD(bk), bh = LD(bk + 4), x;
      x = BC(s0 + k * ss);
      STEP(c0l, x, bl);
      STEP(c0h, x, bh);
      x = BC(s1 + k * ss);
      STEP(c1l, x, bl);
      STEP(c1h, x, bh);
      x = BC(s2 + k * ss);
      STEP(c2l, x, bl);
      STEP(c2h, x, bh);
      x = BC(s3 + k * ss);
      STEP(c3l, x, bl);
      STEP(c3h, x, bh);
    }
    for (; k < nk; k++, bk += n) {
      __m256d bl = LD(bk), bh = LD(bk + 4);
      double v;
      if ((v = s0[k * ss]) != 0.0) {
        STEP(c0l, _mm256_set1_pd(v), bl);
        STEP(c0h, _mm256_set1_pd(v), bh);
      }
      if ((v = s1[k * ss]) != 0.0) {
        STEP(c1l, _mm256_set1_pd(v), bl);
        STEP(c1h, _mm256_set1_pd(v), bh);
      }
      if ((v = s2[k * ss]) != 0.0) {
        STEP(c2l, _mm256_set1_pd(v), bl);
        STEP(c2h, _mm256_set1_pd(v), bh);
      }
      if ((v = s3[k * ss]) != 0.0) {
        STEP(c3l, _mm256_set1_pd(v), bl);
        STEP(c3h, _mm256_set1_pd(v), bh);
      }
    }
    ST(o0 + j, c0l);
    ST(o0 + j + 4, c0h);
    ST(o1 + j, c1l);
    ST(o1 + j + 4, c1h);
    ST(o2 + j, c2l);
    ST(o2 + j + 4, c2h);
    ST(o3 + j, c3l);
    ST(o3 + j + 4, c3h);
  }
  for (; j + 4 <= n; j += 4) {
    __m256d c0 = SEED(zero, o0 + j), c1 = SEED(zero, o1 + j),
            c2 = SEED(zero, o2 + j), c3 = SEED(zero, o3 + j);
    const double *bk = b + j;
    intnat k = 0;
    for (; k < kfull; k++, bk += n) {
      __m256d bv = LD(bk);
      STEP(c0, BC(s0 + k * ss), bv);
      STEP(c1, BC(s1 + k * ss), bv);
      STEP(c2, BC(s2 + k * ss), bv);
      STEP(c3, BC(s3 + k * ss), bv);
    }
    for (; k < nk; k++, bk += n) {
      __m256d bv = LD(bk);
      double v;
      if ((v = s0[k * ss]) != 0.0) STEP(c0, _mm256_set1_pd(v), bv);
      if ((v = s1[k * ss]) != 0.0) STEP(c1, _mm256_set1_pd(v), bv);
      if ((v = s2[k * ss]) != 0.0) STEP(c2, _mm256_set1_pd(v), bv);
      if ((v = s3[k * ss]) != 0.0) STEP(c3, _mm256_set1_pd(v), bv);
    }
    ST(o0 + j, c0);
    ST(o1 + j, c1);
    ST(o2 + j, c2);
    ST(o3 + j, c3);
  }
  for (; j < n; j++) {
    double c0 = zero ? 0.0 : o0[j], c1 = zero ? 0.0 : o1[j],
           c2 = zero ? 0.0 : o2[j], c3 = zero ? 0.0 : o3[j];
    const double *bk = b + j;
    intnat k = 0;
    for (; k < kfull; k++, bk += n) {
      double bv = *bk;
      c0 = c0 + s0[k * ss] * bv;
      c1 = c1 + s1[k * ss] * bv;
      c2 = c2 + s2[k * ss] * bv;
      c3 = c3 + s3[k * ss] * bv;
    }
    for (; k < nk; k++, bk += n) {
      double bv = *bk, v;
      if ((v = s0[k * ss]) != 0.0) c0 = c0 + v * bv;
      if ((v = s1[k * ss]) != 0.0) c1 = c1 + v * bv;
      if ((v = s2[k * ss]) != 0.0) c2 = c2 + v * bv;
      if ((v = s3[k * ss]) != 0.0) c3 = c3 + v * bv;
    }
    o0[j] = c0;
    o1[j] = c1;
    o2[j] = c2;
    o3[j] = c3;
  }
}

/* nn: o <- a·b over rows [lo, hi); a is m × kk, b is kk × n. */
AVX2 static void nn_avx2(const double *a, const double *b, double *o,
                         intnat m, intnat kk, intnat n, intnat lo, intnat hi)
{
  intnat i4 = m - m % 4, k4 = kk - kk % 4;
  intnat i = lo;
  for (; i + 4 <= hi && i + 4 <= i4; i += 4)
    rows4_acc(a + i * kk, kk, 1, b, o + i * n, n, kk, n, kk, 1);
  for (; i < hi; i++)
    row_acc(a + i * kk, 1, b, o + i * n, kk, n, i >= i4 ? k4 : kk, 1);
}

/* tn: o <- o + aᵀ·b (o <- aᵀ·b when zero is set) over o's rows
   [lo, hi); a is nk × m, b is nk × n. A sample range [klo, khi) of a
   longer a and b arrives as pointers offset to row klo and
   nk = khi - klo, so K4 is the range's own. */
AVX2 static void tn_avx2(const double *a, const double *b, double *o,
                         intnat nk, intnat m, intnat n, intnat lo, intnat hi,
                         intnat zero)
{
  intnat k4 = nk - nk % 4;
  intnat i = lo;
  for (; i + 4 <= hi; i += 4)
    rows4_acc(a + i, 1, m, b, o + i * n, n, nk, n, k4, zero);
  for (; i < hi; i++) row_acc(a + i, m, b, o + i * n, nk, n, k4, zero);
}

#endif /* CANOPY_X86_64 */

/* Entry points. The OCaml side calls them only after
   canopy_gemm_avx2_supported returned true; elsewhere they are never
   reached and do nothing. */

value canopy_gemm_nt_pack(value b, intnat rows, intnat inner, value panel)
{
#ifdef CANOPY_X86_64
  nt_pack(FLOATS(b), rows, inner, FLOATS(panel));
#endif
  return Val_unit;
}

value canopy_gemm_nt(value a, value panel, value b, value bias,
                     intnat has_bias, value dst, intnat inner, intnat n,
                     intnat lo, intnat hi)
{
#ifdef CANOPY_X86_64
  nt_avx2(FLOATS(a), FLOATS(panel), FLOATS(b), has_bias ? FLOATS(bias) : NULL,
          FLOATS(dst), inner, n, lo, hi);
#endif
  return Val_unit;
}

value canopy_gemm_nn(value dst, value a, value b, intnat m, intnat kk,
                     intnat n, intnat lo, intnat hi)
{
#ifdef CANOPY_X86_64
  nn_avx2(FLOATS(a), FLOATS(b), FLOATS(dst), m, kk, n, lo, hi);
#endif
  return Val_unit;
}

value canopy_gemm_tn(value dst, value a, value b, intnat klo, intnat khi,
                     intnat m, intnat n, intnat lo, intnat hi, intnat zero)
{
#ifdef CANOPY_X86_64
  tn_avx2(FLOATS(a) + klo * m, FLOATS(b) + klo * n, FLOATS(dst), khi - klo,
          m, n, lo, hi, zero);
#endif
  return Val_unit;
}

/* Bytecode entry points: tagged ints, arguments in an array past five. */

value canopy_gemm_nt_pack_byte(value b, value rows, value inner, value panel)
{
  return canopy_gemm_nt_pack(b, Long_val(rows), Long_val(inner), panel);
}

value canopy_gemm_nt_byte(value *argv, int argn)
{
  return canopy_gemm_nt(argv[0], argv[1], argv[2], argv[3], Long_val(argv[4]),
                        argv[5], Long_val(argv[6]), Long_val(argv[7]),
                        Long_val(argv[8]), Long_val(argv[9]));
}

value canopy_gemm_nn_byte(value *argv, int argn)
{
  return canopy_gemm_nn(argv[0], argv[1], argv[2], Long_val(argv[3]),
                        Long_val(argv[4]), Long_val(argv[5]),
                        Long_val(argv[6]), Long_val(argv[7]));
}

value canopy_gemm_tn_byte(value *argv, int argn)
{
  return canopy_gemm_tn(argv[0], argv[1], argv[2], Long_val(argv[3]),
                        Long_val(argv[4]), Long_val(argv[5]),
                        Long_val(argv[6]), Long_val(argv[7]),
                        Long_val(argv[8]), Long_val(argv[9]));
}
