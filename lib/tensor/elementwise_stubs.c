/* AVX2 element-wise passes (see elementwise.ml): of the training step,
   leaky ReLU forward and backward, the batch-norm training forward and
   backward over a [n × dim] batch, column sums, Adam, and the two
   vector updates (dst += src, dst = keep*dst + tau*src); and of the
   certifier, leaky ReLU over center-radius intervals.

   One vector lane is one cell, never a reduction axis: every lane runs
   exactly the OCaml loop's IEEE operations on its cell, in the same
   order, each rounded once (_mm256_mul_pd, _add_pd, _sub_pd, _div_pd
   and _sqrt_pd are the correctly rounded operations OCaml's *. +. -.
   /. and sqrt are). A column reduction (column sums, batch-norm
   statistics, gradient sums) keeps one chain per column in a lane,
   seeded as the OCaml loop seeds it and stepped in ascending row order.
   Remainder cells run the same operations in scalar C. So every result
   is bit-identical to the OCaml loops by construction (DESIGN §10).
   This holds only without contraction into fused multiply-adds: the
   build passes -ffp-contract=off and no -mfma, -march=native or
   -ffast-math (test_tensor.ml checks lib/tensor/dune and this file).

   The leaky forward's select compares with _CMP_GE_OQ (ordered, quiet):
   false for NaN, true for -0, as OCaml's [v >= 0.] is. The backward's
   select is the sign bit of the forward's output, which blendv reads
   straight from the output lanes, as the OCaml loop reads
   Float.sign_bit: -0, a negative NaN and a negative input whose slope
   product underflowed to -0 all take the slope. Both multiply by 1.0
   or the slope, as the OCaml table select does.

   Like the GEMM stubs these are [@@noalloc] externals over flat float
   arrays: they allocate nothing, raise nothing and touch no global
   state. The AVX2 bodies carry __attribute__((target("avx2"))) behind
   an x86-64 guard, so the file builds on any host, and the OCaml side
   calls them only where canopy_gemm_avx2_supported said so. */

#define CAML_NAME_SPACE
#include <caml/mlvalues.h>
#include <math.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define CANOPY_X86_64 1
#include <immintrin.h>
#endif

#define FLOATS(v) ((double *)(v))

#ifdef CANOPY_X86_64

#define AVX2 __attribute__((target("avx2")))
#define LD(p) _mm256_loadu_pd(p)
#define ST(p, x) _mm256_storeu_pd((p), (x))
#define SET1(x) _mm256_set1_pd(x)
#define ADD(x, y) _mm256_add_pd((x), (y))
#define SUB(x, y) _mm256_sub_pd((x), (y))
#define MUL(x, y) _mm256_mul_pd((x), (y))
#define DIV(x, y) _mm256_div_pd((x), (y))

/* The leaky factor of each lane: 1.0 where v >= 0, else the slope. */
#define LEAKY_FACTOR(v, s, one)                                          \
  _mm256_blendv_pd((s), (one),                                           \
                   _mm256_cmp_pd((v), _mm256_setzero_pd(), _CMP_GE_OQ))

/* o[i] = x[i] * (x[i] >= 0 ? 1 : slope); o may be x. */
AVX2 static void leaky(const double *x, double *o, double slope, intnat n)
{
  __m256d s = SET1(slope), one = SET1(1.0);
  intnat i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d v = LD(x + i);
    ST(o + i, MUL(v, LEAKY_FACTOR(v, s, one)));
  }
  for (; i < n; i++) {
    double v = x[i];
    o[i] = v * (v >= 0.0 ? 1.0 : slope);
  }
}

/* o[i] = g[i] * (signbit(y[i]) ? slope : 1), the mask read from the
   sign bit of the forward's output y; o may be g. */
AVX2 static void leaky_backward(const double *y, const double *g, double *o,
                                double slope, intnat n)
{
  __m256d s = SET1(slope), one = SET1(1.0);
  intnat i = 0;
  for (; i + 4 <= n; i += 4)
    ST(o + i, MUL(LD(g + i), _mm256_blendv_pd(one, s, LD(y + i))));
  for (; i < n; i++) o[i] = g[i] * (signbit(y[i]) ? slope : 1.0);
}

/* The interval image of leaky ReLU over center-radius cells, in place:
     l = c - r, h = c + r, lo = (l >= 0 ? l : slope*l),
     hi = (h >= 0 ? h : slope*h), c = 0.5*(hi + lo), r = 0.5*(hi - lo).
   Each arm is selected, not multiplied by 1.0, exactly as the OCaml loop
   branches: the slope product is formed in every lane and the blend keeps
   the operand itself where the compare holds. */
AVX2 static void interval_leaky(double *c, double *r, double slope, intnat n)
{
  __m256d s = SET1(slope), half = SET1(0.5), zero = _mm256_setzero_pd();
  intnat i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d ci = LD(c + i), ri = LD(r + i);
    __m256d l = SUB(ci, ri), h = ADD(ci, ri);
    __m256d lo = _mm256_blendv_pd(MUL(s, l), l,
                                  _mm256_cmp_pd(l, zero, _CMP_GE_OQ));
    __m256d hi = _mm256_blendv_pd(MUL(s, h), h,
                                  _mm256_cmp_pd(h, zero, _CMP_GE_OQ));
    ST(c + i, MUL(half, ADD(hi, lo)));
    ST(r + i, MUL(half, SUB(hi, lo)));
  }
  for (; i < n; i++) {
    double l = c[i] - r[i], h = c[i] + r[i];
    double lo = l >= 0.0 ? l : slope * l;
    double hi = h >= 0.0 ? h : slope * h;
    c[i] = 0.5 * (hi + lo);
    r[i] = 0.5 * (hi - lo);
  }
}

/* d[i] = d[i] + s[i]. */
AVX2 static void add_into(double *d, const double *s, intnat n)
{
  intnat i = 0;
  for (; i + 4 <= n; i += 4) ST(d + i, ADD(LD(d + i), LD(s + i)));
  for (; i < n; i++) d[i] = d[i] + s[i];
}

/* d[i] = keep*d[i] + tau*s[i]. */
AVX2 static void lerp_into(double *d, const double *s, double keep, double tau,
                           intnat n)
{
  __m256d k = SET1(keep), t = SET1(tau);
  intnat i = 0;
  for (; i + 4 <= n; i += 4)
    ST(d + i, ADD(MUL(k, LD(d + i)), MUL(t, LD(s + i))));
  for (; i < n; i++) d[i] = (keep * d[i]) + (tau * s[i]);
}

/* One Adam step over n parameters:
     m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g;
     x = x - (step*m) / (sqrt v + eps). */
AVX2 static void adam(double *x, const double *grad, double *m, double *v,
                      intnat n, double b1, double omb1, double b2, double omb2,
                      double step, double eps)
{
  __m256d vb1 = SET1(b1), vomb1 = SET1(omb1), vb2 = SET1(b2),
          vomb2 = SET1(omb2), vstep = SET1(step), veps = SET1(eps);
  intnat i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d g = LD(grad + i);
    __m256d mi = ADD(MUL(vb1, LD(m + i)), MUL(vomb1, g));
    __m256d vi = ADD(MUL(vb2, LD(v + i)), MUL(MUL(vomb2, g), g));
    ST(m + i, mi);
    ST(v + i, vi);
    ST(x + i, SUB(LD(x + i),
                  DIV(MUL(vstep, mi), ADD(_mm256_sqrt_pd(vi), veps))));
  }
  for (; i < n; i++) {
    double g = grad[i];
    double mi = (b1 * m[i]) + (omb1 * g);
    double vi = (b2 * v[i]) + ((omb2 * g) * g);
    m[i] = mi;
    v[i] = vi;
    x[i] = x[i] - ((step * mi) / (__builtin_sqrt(vi) + eps));
  }
}

/* Column sums of rows [klo, khi) of a row-major matrix with c columns:
   d[j] = seed + s[klo][j] + ... + s[khi-1][j], the seed +0 when zero is
   set and d[j] otherwise. Four vectors of columns per pass. */
AVX2 static void col_sum(double *d, const double *s, intnat c, intnat klo,
                         intnat khi, intnat zero)
{
  intnat j = 0;
  for (; j + 16 <= c; j += 16) {
    __m256d a0, a1, a2, a3;
    if (zero) a0 = a1 = a2 = a3 = _mm256_setzero_pd();
    else a0 = LD(d + j), a1 = LD(d + j + 4), a2 = LD(d + j + 8),
         a3 = LD(d + j + 12);
    for (intnat b = klo; b < khi; b++) {
      const double *r = s + b * c + j;
      a0 = ADD(a0, LD(r));
      a1 = ADD(a1, LD(r + 4));
      a2 = ADD(a2, LD(r + 8));
      a3 = ADD(a3, LD(r + 12));
    }
    ST(d + j, a0);
    ST(d + j + 4, a1);
    ST(d + j + 8, a2);
    ST(d + j + 12, a3);
  }
  for (; j + 4 <= c; j += 4) {
    __m256d a = zero ? _mm256_setzero_pd() : LD(d + j);
    for (intnat b = klo; b < khi; b++) a = ADD(a, LD(s + b * c + j));
    ST(d + j, a);
  }
  for (; j < c; j++) {
    double a = zero ? 0.0 : d[j];
    for (intnat b = klo; b < khi; b++) a = a + s[b * c + j];
    d[j] = a;
  }
}

/* Batch statistics of a [n × dim] batch, per column j:
     mu[j]  = 0 + inv_n*x[0][j] + ... + inv_n*x[n-1][j]
     var[j] = 0 + (d0*d0)/nf + ... with d = x[b][j] - mu[j]. */
AVX2 static void bn_stats(const double *x, double *mu, double *var, intnat n,
                          intnat dim, double inv_n, double nf)
{
  __m256d vinv = SET1(inv_n), vnf = SET1(nf);
  intnat j = 0;
  for (; j + 4 <= dim; j += 4) {
    __m256d a = _mm256_setzero_pd();
    for (intnat b = 0; b < n; b++) a = ADD(a, MUL(vinv, LD(x + b * dim + j)));
    __m256d s = _mm256_setzero_pd();
    for (intnat b = 0; b < n; b++) {
      __m256d d = SUB(LD(x + b * dim + j), a);
      s = ADD(s, DIV(MUL(d, d), vnf));
    }
    ST(mu + j, a);
    ST(var + j, s);
  }
  for (; j < dim; j++) {
    double a = 0.0;
    for (intnat b = 0; b < n; b++) a = a + (inv_n * x[b * dim + j]);
    double s = 0.0;
    for (intnat b = 0; b < n; b++) {
      double d = x[b * dim + j] - a;
      s = s + ((d * d) / nf);
    }
    mu[j] = a;
    var[j] = s;
  }
}

/* h = (x - mu)*istd; xhat = h; out = gamma*h + beta. out may be x;
   xhat is neither. */
AVX2 static void bn_normalize(const double *x, const double *mu,
                              const double *istd, const double *gamma,
                              const double *beta, double *xhat, double *out,
                              intnat n, intnat dim)
{
  for (intnat b = 0; b < n; b++) {
    const double *xb = x + b * dim;
    double *hb = xhat + b * dim, *ob = out + b * dim;
    intnat j = 0;
    for (; j + 4 <= dim; j += 4) {
      __m256d h = MUL(SUB(LD(xb + j), LD(mu + j)), LD(istd + j));
      ST(hb + j, h);
      ST(ob + j, ADD(MUL(LD(gamma + j), h), LD(beta + j)));
    }
    for (; j < dim; j++) {
      double h = (xb[j] - mu[j]) * istd[j];
      hb[j] = h;
      ob[j] = (gamma[j] * h) + beta[j];
    }
  }
}

/* The column sums of the batch-norm backward, per column j over
   ascending rows, with g = dout[b][j] and gh = g*gamma[j]:
     dgamma[j] += g*xhat, dbeta[j] += g   (only when param_grads)
     s1[j] = 0 + gh + ...,  s2[j] = 0 + gh*xhat + ...  */
AVX2 static void bn_backward_sums(const double *dout, const double *xhat,
                                  const double *gamma, double *dgamma,
                                  double *dbeta, double *s1, double *s2,
                                  intnat n, intnat dim, intnat param_grads)
{
  intnat j = 0;
  for (; j + 4 <= dim; j += 4) {
    __m256d gm = LD(gamma + j);
    __m256d dg = LD(dgamma + j), db = LD(dbeta + j);
    __m256d a1 = _mm256_setzero_pd(), a2 = _mm256_setzero_pd();
    for (intnat b = 0; b < n; b++) {
      __m256d g = LD(dout + b * dim + j), xh = LD(xhat + b * dim + j);
      if (param_grads) {
        dg = ADD(dg, MUL(g, xh));
        db = ADD(db, g);
      }
      __m256d gh = MUL(g, gm);
      a1 = ADD(a1, gh);
      a2 = ADD(a2, MUL(gh, xh));
    }
    if (param_grads) {
      ST(dgamma + j, dg);
      ST(dbeta + j, db);
    }
    ST(s1 + j, a1);
    ST(s2 + j, a2);
  }
  for (; j < dim; j++) {
    double dg = dgamma[j], db = dbeta[j], a1 = 0.0, a2 = 0.0;
    for (intnat b = 0; b < n; b++) {
      double g = dout[b * dim + j], xh = xhat[b * dim + j];
      if (param_grads) {
        dg = dg + (g * xh);
        db = db + g;
      }
      double gh = g * gamma[j];
      a1 = a1 + gh;
      a2 = a2 + (gh * xh);
    }
    if (param_grads) {
      dgamma[j] = dg;
      dbeta[j] = db;
    }
    s1[j] = a1;
    s2[j] = a2;
  }
}

/* dx = (istd/nf) * (((nf*(dout*gamma)) - s1) - xhat*s2); dx may be
   dout. */
AVX2 static void bn_backward_dx(const double *dout, const double *xhat,
                                const double *gamma, const double *istd,
                                const double *s1, const double *s2, double *dx,
                                intnat n, intnat dim, double nf)
{
  __m256d vnf = SET1(nf);
  intnat j = 0;
  for (; j + 4 <= dim; j += 4) {
    __m256d c = DIV(LD(istd + j), vnf);
    __m256d gm = LD(gamma + j), a1 = LD(s1 + j), a2 = LD(s2 + j);
    for (intnat b = 0; b < n; b++) {
      intnat k = b * dim + j;
      __m256d gh = MUL(LD(dout + k), gm);
      ST(dx + k, MUL(c, SUB(SUB(MUL(vnf, gh), a1), MUL(LD(xhat + k), a2))));
    }
  }
  for (; j < dim; j++) {
    double c = istd[j] / nf;
    for (intnat b = 0; b < n; b++) {
      intnat k = b * dim + j;
      double gh = dout[k] * gamma[j];
      dx[k] = c * (((nf * gh) - s1[j]) - (xhat[k] * s2[j]));
    }
  }
}

#endif /* CANOPY_X86_64 */

/* Entry points. The OCaml side calls them only after
   canopy_gemm_avx2_supported returned true; elsewhere they are never
   reached and do nothing. */

value canopy_ew_leaky(value x, value o, double slope, intnat n)
{
#ifdef CANOPY_X86_64
  leaky(FLOATS(x), FLOATS(o), slope, n);
#endif
  return Val_unit;
}

value canopy_ew_leaky_backward(value y, value g, value o, double slope,
                               intnat n)
{
#ifdef CANOPY_X86_64
  leaky_backward(FLOATS(y), FLOATS(g), FLOATS(o), slope, n);
#endif
  return Val_unit;
}

value canopy_ew_interval_leaky(value c, value r, double slope, intnat n)
{
#ifdef CANOPY_X86_64
  interval_leaky(FLOATS(c), FLOATS(r), slope, n);
#endif
  return Val_unit;
}

value canopy_ew_add(value d, value s, intnat n)
{
#ifdef CANOPY_X86_64
  add_into(FLOATS(d), FLOATS(s), n);
#endif
  return Val_unit;
}

value canopy_ew_lerp(value d, value s, double keep, double tau, intnat n)
{
#ifdef CANOPY_X86_64
  lerp_into(FLOATS(d), FLOATS(s), keep, tau, n);
#endif
  return Val_unit;
}

value canopy_ew_adam(value x, value grad, value m, value v, intnat n,
                     double b1, double omb1, double b2, double omb2,
                     double step, double eps)
{
#ifdef CANOPY_X86_64
  adam(FLOATS(x), FLOATS(grad), FLOATS(m), FLOATS(v), n, b1, omb1, b2, omb2,
       step, eps);
#endif
  return Val_unit;
}

value canopy_ew_col_sum(value d, value s, intnat c, intnat klo, intnat khi,
                        intnat zero)
{
#ifdef CANOPY_X86_64
  col_sum(FLOATS(d), FLOATS(s), c, klo, khi, zero);
#endif
  return Val_unit;
}

value canopy_ew_bn_stats(value x, value mu, value var, intnat n, intnat dim,
                         double inv_n, double nf)
{
#ifdef CANOPY_X86_64
  bn_stats(FLOATS(x), FLOATS(mu), FLOATS(var), n, dim, inv_n, nf);
#endif
  return Val_unit;
}

value canopy_ew_bn_normalize(value x, value mu, value istd, value gamma,
                             value beta, value xhat, value out, intnat n,
                             intnat dim)
{
#ifdef CANOPY_X86_64
  bn_normalize(FLOATS(x), FLOATS(mu), FLOATS(istd), FLOATS(gamma),
               FLOATS(beta), FLOATS(xhat), FLOATS(out), n, dim);
#endif
  return Val_unit;
}

value canopy_ew_bn_backward_sums(value dout, value xhat, value gamma,
                                 value dgamma, value dbeta, value s1,
                                 value s2, intnat n, intnat dim,
                                 intnat param_grads)
{
#ifdef CANOPY_X86_64
  bn_backward_sums(FLOATS(dout), FLOATS(xhat), FLOATS(gamma), FLOATS(dgamma),
                   FLOATS(dbeta), FLOATS(s1), FLOATS(s2), n, dim,
                   param_grads);
#endif
  return Val_unit;
}

value canopy_ew_bn_backward_dx(value dout, value xhat, value gamma,
                               value istd, value s1, value s2, value dx,
                               intnat n, intnat dim, double nf)
{
#ifdef CANOPY_X86_64
  bn_backward_dx(FLOATS(dout), FLOATS(xhat), FLOATS(gamma), FLOATS(istd),
                 FLOATS(s1), FLOATS(s2), FLOATS(dx), n, dim, nf);
#endif
  return Val_unit;
}

/* Bytecode entry points: tagged ints, boxed floats, arguments in an
   array past five. */

value canopy_ew_leaky_byte(value x, value o, value slope, value n)
{
  return canopy_ew_leaky(x, o, Double_val(slope), Long_val(n));
}

value canopy_ew_leaky_backward_byte(value y, value g, value o, value slope,
                                    value n)
{
  return canopy_ew_leaky_backward(y, g, o, Double_val(slope), Long_val(n));
}

value canopy_ew_interval_leaky_byte(value c, value r, value slope, value n)
{
  return canopy_ew_interval_leaky(c, r, Double_val(slope), Long_val(n));
}

value canopy_ew_add_byte(value d, value s, value n)
{
  return canopy_ew_add(d, s, Long_val(n));
}

value canopy_ew_lerp_byte(value d, value s, value keep, value tau, value n)
{
  return canopy_ew_lerp(d, s, Double_val(keep), Double_val(tau), Long_val(n));
}

value canopy_ew_adam_byte(value *argv, int argn)
{
  return canopy_ew_adam(argv[0], argv[1], argv[2], argv[3], Long_val(argv[4]),
                        Double_val(argv[5]), Double_val(argv[6]),
                        Double_val(argv[7]), Double_val(argv[8]),
                        Double_val(argv[9]), Double_val(argv[10]));
}

value canopy_ew_col_sum_byte(value *argv, int argn)
{
  return canopy_ew_col_sum(argv[0], argv[1], Long_val(argv[2]),
                           Long_val(argv[3]), Long_val(argv[4]),
                           Long_val(argv[5]));
}

value canopy_ew_bn_stats_byte(value *argv, int argn)
{
  return canopy_ew_bn_stats(argv[0], argv[1], argv[2], Long_val(argv[3]),
                            Long_val(argv[4]), Double_val(argv[5]),
                            Double_val(argv[6]));
}

value canopy_ew_bn_normalize_byte(value *argv, int argn)
{
  return canopy_ew_bn_normalize(argv[0], argv[1], argv[2], argv[3], argv[4],
                                argv[5], argv[6], Long_val(argv[7]),
                                Long_val(argv[8]));
}

value canopy_ew_bn_backward_sums_byte(value *argv, int argn)
{
  return canopy_ew_bn_backward_sums(argv[0], argv[1], argv[2], argv[3],
                                    argv[4], argv[5], argv[6],
                                    Long_val(argv[7]), Long_val(argv[8]),
                                    Long_val(argv[9]));
}

value canopy_ew_bn_backward_dx_byte(value *argv, int argn)
{
  return canopy_ew_bn_backward_dx(argv[0], argv[1], argv[2], argv[3], argv[4],
                                  argv[5], argv[6], Long_val(argv[7]),
                                  Long_val(argv[8]), Double_val(argv[9]));
}
