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
 * so euler_step and the engine move points alike, bit for bit.
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

/* Rows [r0, r1) of x take the step col[r] * s2 and then the increment
 * inc[r]. */
static void advance_rows(int kind, double *x, int64_t d, const double *col,
                         double s2, const double *c, double lam, int64_t r0,
                         int64_t r1, const double *inc)
{
    for (int64_t r = r0; r < r1; r++) {
        double *xr = x + r * d;
        const double *g = inc + r * d;
        map_row(kind, xr, d, col[r] * s2, c, lam);
        for (int64_t i = 0; i < d; i++)
            xr[i] += g[i];
    }
}

/* n ticks of the engine's state x, (rows, d).  Tick j copies x to hist +
 * j * hist_step, advances call A's rows [a0, a1) by the increments at
 * inc_a + j * inc_step, copies the chain's rows [m0, m1) to mid + j *
 * mid_step, then advances call B's rows [b0, b1) by those at inc_b + j *
 * inc_step.  Strides count doubles; each record holds its rows in order,
 * d doubles apart, and the increment records all rows of x. */
void mlv_ticks(int kind, int64_t n, int64_t rows, int64_t d, double *x,
               const double *col, double s2, const double *c, double lam,
               double *hist, int64_t hist_step,
               int64_t a0, int64_t a1, const double *inc_a,
               int64_t b0, int64_t b1, const double *inc_b, int64_t inc_step,
               int64_t m0, int64_t m1, double *mid, int64_t mid_step)
{
    size_t state = (size_t)(rows * d) * sizeof(double);
    size_t chain = (size_t)((m1 - m0) * d) * sizeof(double);
    for (int64_t j = 0; j < n; j++) {
        memcpy(hist + j * hist_step, x, state);
        advance_rows(kind, x, d, col, s2, c, lam, a0, a1,
                     inc_a + j * inc_step);
        if (chain)
            memcpy(mid + j * mid_step, x + m0 * d, chain);
        advance_rows(kind, x, d, col, s2, c, lam, b0, b1,
                     inc_b + j * inc_step);
    }
}
