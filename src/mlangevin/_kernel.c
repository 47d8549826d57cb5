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
 * mlv_ticks runs a chunk of ticks of one sde._drive level through the same
 * row maps, so euler_step and the engine move points alike, bit for bit.
 * mlv_ticks also turns the raw standard normals into the Euler increments,
 * as it adds them: g * scale on a chain or fine row, ((g1 + g2) *
 * (1 / sqrt 2)) * scale on a coarse row, from the two normals of its fine
 * row, each operation rounded alone as in numpy; no increment is stored.
 * It reads the normals of row r at one stride per row, however the
 * level's streams split its rows into blocks (one row per stream, or all
 * rows on one).  A tick is one step of the level's grid, and it first
 * records a copy of the state.
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

/* Rows x[r], r < rows, each of d doubles, take the step h. */
void mlv_descend(int kind, double *x, int64_t rows, int64_t d, double h,
                 const double *c, double lam)
{
    for (int64_t r = 0; r < rows; r++)
        map_row(kind, x + r * d, d, h, c, lam);
}

/* Rows x[r], r < n, each of d doubles, take the step h and then their
 * increment at fine step q of the chunk: row r's standard normals start at
 * g + r * g_run, one fine step every g_step doubles, and s scales them.  A
 * coarse row reads two fine steps: its increment is ((g1 + g2) *
 * (1 / sqrt 2)) * s of fine steps q - 1 and q. */
static void advance_rows(int kind, double *x, int64_t n, int64_t d,
                         double h, const double *c, double lam,
                         const double *g, int64_t g_step, int64_t g_run,
                         double s, int coarse, int64_t q)
{
    const double inv_sqrt2 = 1.0 / sqrt(2.0);
    for (int64_t r = 0; r < n; r++) {
        double *xr = x + r * d;
        const double *gr = g + r * g_run + q * g_step;
        map_row(kind, xr, d, h, c, lam);
        if (coarse) {
            const double *g1 = gr - g_step;
            for (int64_t i = 0; i < d; i++)
                xr[i] += ((g1[i] + gr[i]) * inv_sqrt2) * s;
        } else {
            for (int64_t i = 0; i < d; i++)
                xr[i] += gr[i] * s;
        }
    }
}

/* n ticks of one level of B = bsz runs, its state x of d-double rows: a
 * chain's B rows at step h, or a pair's B coarse rows at step hc over its B
 * fine rows at step h.  The chunk's normals g, g_step and g_run are as
 * advance_rows reads them, B rows, a pair's fine and coarse row b both on
 * row b, scaled by s (sc on a coarse row).  Tick j first copies the state
 * to hist + j * size.  A chain then moves by fine step j; a pair moves its
 * fine rows by fine step 2j, its coarse rows by fine steps 2j and 2j + 1,
 * and its fine rows by 2j + 1. */
void mlv_ticks(int kind, int64_t n, int64_t d, int64_t bsz, int pair,
               double *x, double h, double hc, const double *c, double lam,
               double *hist, const double *g, int64_t g_step, int64_t g_run,
               double s, double sc)
{
    int64_t size = (pair ? 2 : 1) * bsz * d;
    double *fine = pair ? x + bsz * d : x;
    for (int64_t j = 0; j < n; j++) {
        memcpy(hist + j * size, x, (size_t)size * sizeof(double));
        if (pair) {
            advance_rows(kind, fine, bsz, d, h, c, lam, g, g_step, g_run, s,
                         0, 2 * j);
            advance_rows(kind, x, bsz, d, hc, c, lam, g, g_step, g_run, sc,
                         1, 2 * j + 1);
        }
        advance_rows(kind, fine, bsz, d, h, c, lam, g, g_step, g_run, s, 0,
                     pair ? 2 * j + 1 : j);
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
