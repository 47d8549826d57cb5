/* Euler maps of the built-in potentials, and the engine's tick loop, in C.
 *
 * mlangevin._kernel compiles this file with -ffp-contract=off, so that no
 * multiply and add fuse: each operation below rounds once, as the numpy
 * expression it mirrors does.  A row map moves one point x (d doubles) by
 * the gradient step x <- x - h grad U(x):
 *
 *   quadratic  U = |x|^2 / 2:  x *= 1 - h
 *   logistic   U = log(1 + e^{c.x}) + lam |x|^2 / 2:
 *              t = c.x; t *= 0.5; t = tanh(t); t += 1; t *= 0.5 h;
 *              x *= 1 - h lam; x -= t c
 *
 * mlv_descend is Potential.descend of both on C-ordered rows, and
 * mlv_ticks runs a span of ticks of sde._Engine through the same row maps,
 * so euler_step and the engine move points alike, bit for bit.  mlv_ticks
 * also turns the raw standard normals into the Euler increments, as it
 * adds them: g * scale on a chain or fine row, ((g1 + g2) * (1 / sqrt 2))
 * * scale on a coarse row, from the two normals of its fine row, each
 * operation rounded alone as in numpy; no increment is stored.  It records
 * each tick in level order, in blocks of B rows copied from the state: the
 * chain at the tick's start and after call A, then each pair's coarse rows
 * and fine rows, so that every level reads one slice of the record.
 *
 * mlv_csum adds window values to compensated sums, one grid index at a
 * time in index order, so each slot's total depends on its values alone;
 * sde._CompensatedSum does the same arithmetic in numpy.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

enum { QUADRATIC = 0, LOGISTIC = 1 };

/* The sum of x[i] * c[i] in numpy's pairwise order (np.add.reduce along a
 * contiguous axis): plain below 8 terms, 8 accumulators up to 128 terms,
 * halves (at a multiple of 8) above. */
static double pairwise_dot(const double *x, const double *c, int64_t n)
{
    if (n < 8) {
        double s = 0.0;
        for (int64_t i = 0; i < n; i++)
            s += x[i] * c[i];
        return s;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (int k = 0; k < 8; k++)
            r[k] = x[k] * c[k];
        for (i = 8; i < n - n % 8; i += 8)
            for (int k = 0; k < 8; k++)
                r[k] += x[i + k] * c[i + k];
        double s = ((r[0] + r[1]) + (r[2] + r[3]))
                   + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            s += x[i] * c[i];
        return s;
    }
    int64_t half = n / 2;
    half -= half % 8;
    return pairwise_dot(x, c, half)
           + pairwise_dot(x + half, c + half, n - half);
}

static inline void map_row(int kind, double *x, int64_t d, double h,
                           const double *c, double lam)
{
    if (kind == QUADRATIC) {
        double f = 1.0 - h;
        for (int64_t i = 0; i < d; i++)
            x[i] *= f;
        return;
    }
    double t = pairwise_dot(x, c, d);
    t *= 0.5;
    t = tanh(t);
    t += 1.0;
    t *= 0.5 * h;
    double f = 1.0 - h * lam;
    for (int64_t i = 0; i < d; i++)
        x[i] *= f;
    for (int64_t i = 0; i < d; i++)
        x[i] -= t * c[i];
}

/* Rows x[r], r < rows, each of d doubles, take the step h[r * h_step]
 * (h_step 0: one step for all). */
void mlv_descend(int kind, double *x, int64_t rows, int64_t d,
                 const double *h, int64_t h_step, const double *c, double lam)
{
    for (int64_t r = 0; r < rows; r++)
        map_row(kind, x + r * d, d, h[r * h_step], c, lam);
}

/* Rows [r0, r1) of x take the step col[r] * s2 and then their increment
 * at fine step q of the chunk: row r's standard normals start at g[r], one
 * fine step every g_step[r] doubles, and scale[r] scales them.  A row below
 * lo is a coarse row, which reads its fine row's normals: its increment is
 * ((g1 + g2) * (1 / sqrt 2)) * scale[r] of fine steps q - 1 and q. */
static void advance_rows(int kind, double *x, int64_t d, const double *col,
                         double s2, const double *c, double lam, int64_t r0,
                         int64_t r1, const double *const *g,
                         const int64_t *g_step, const double *scale,
                         int64_t lo, int64_t q)
{
    const double inv_sqrt2 = 1.0 / sqrt(2.0);
    for (int64_t r = r0; r < r1; r++) {
        double *xr = x + r * d;
        double s = scale[r];
        map_row(kind, xr, d, col[r] * s2, c, lam);
        if (r < lo) {
            const double *g1 = g[r] + (q - 1) * g_step[r];
            const double *g2 = g1 + g_step[r];
            for (int64_t i = 0; i < d; i++)
                xr[i] += ((g1[i] + g2[i]) * inv_sqrt2) * s;
        } else {
            const double *gr = g[r] + q * g_step[r];
            for (int64_t i = 0; i < d; i++)
                xr[i] += gr[i] * s;
        }
    }
}

/* n ticks of the engine's state x, (rows, d), ticks j0 .. j0 + n - 1 of
 * the chunk whose normals g, g_step and scale describe (advance_rows).
 * Tick j records its blocks of bsz rows at hist + j * hist_step, block i
 * a copy of x's block src[i] (x's rows from src[i] * bsz on): each at the
 * tick's start, but block 1 of a group with a chain (chain 1), which is
 * the chain's state after call A.  Call A advances rows [a0, a1) by fine
 * step 2 (j0 + j), then call B rows [b0, b1) by fine step 2 (j0 + j) + 1,
 * the coarse rows among them by both.  Strides count doubles; rows lie d
 * doubles apart. */
void mlv_ticks(int kind, int64_t n, int64_t d, double *x, const double *col,
               double s2, const double *c, double lam, double *hist,
               int64_t hist_step, const int64_t *src, int64_t blocks,
               int64_t bsz, int64_t chain,
               int64_t a0, int64_t a1, int64_t b0, int64_t b1,
               const double *const *g, const int64_t *g_step,
               const double *scale, int64_t lo, int64_t j0)
{
    int64_t size = bsz * d;
    size_t bytes = (size_t)size * sizeof(double);
    for (int64_t j = 0; j < n; j++) {
        int64_t q = 2 * (j0 + j);
        double *rec = hist + j * hist_step;
        for (int64_t i = 0; i < blocks; i++)
            if (!(chain && i == 1))
                memcpy(rec + i * size, x + src[i] * size, bytes);
        advance_rows(kind, x, d, col, s2, c, lam, a0, a1, g, g_step, scale,
                     lo, q);
        if (chain)
            memcpy(rec + size, x + src[1] * size, bytes);
        advance_rows(kind, x, d, col, s2, c, lam, b0, b1, g, g_step, scale,
                     lo, q + 1);
    }
}

/* Add the w rows of n values at v, row i at v + i * v_step, to the slots'
 * compensated sums (s, c), a row at a time in order: Neumaier's sum, each
 * rounding error taken exactly by TwoSum (the same error as Neumaier's
 * branch, with no branch). */
void mlv_csum(int64_t w, int64_t n, const double *restrict v,
              int64_t v_step, double *restrict s, double *restrict c)
{
    for (int64_t i = 0; i < w; i++, v += v_step)
        for (int64_t j = 0; j < n; j++) {
            double t = s[j] + v[j], back = t - s[j];
            c[j] += (s[j] - (t - back)) + (v[j] - back);
            s[j] = t;
        }
}
