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
 * mlv_window reads a record of states, or of a user observable's values,
 * and adds the values of a built-in observable (the norm, sqrt of the
 * pairwise dot as numpy's norm sums it, or the identity), a pair's fine
 * minus coarse, to compensated sums, one grid index at a time in index
 * order, so each slot's total depends on its values alone;
 * sde._CompensatedSum does the same arithmetic in numpy.  It finds the
 * first non-finite value on the way.
 *
 * Built with -DMLV_NORMALS, and linked with numpy's static library
 * numpy/random/lib/libnpyrandom.a, it also has mlv_normals: numpy's
 * Generator.standard_normal on a Philox stream, the same bytes.  It
 * generates Philox4x64-10 blocks (Salmon et al., SC'11) 8 at a time and
 * takes the ziggurat's fast path (Marsaglia & Tsang, 2000) inline, the sign
 * set without a branch; every other word goes to numpy's own
 * random_standard_normal.  mlv_probe reads the fast path's tables from
 * that function, and mlangevin._kernel checks the draw against numpy's
 * bytes before any stream uses it.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

enum { QUADRATIC = 0, LOGISTIC = 1 };
enum { NORM = 0, IDENTITY = 1 };

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

/* Add v to the compensated sum (*s, *c): Neumaier's sum, the rounding
 * error of *s + v taken exactly by TwoSum (the same error as Neumaier's
 * branch, with no branch). */
static inline void two_sum_add(double *restrict s, double *restrict c,
                               double v)
{
    double t = *s + v, back = t - *s;
    *c += (*s - (t - back)) + (v - back);
    *s = t;
}

/* Add the values of the built-in observable obs on a record of w ticks,
 * tick i's rows at x + i * x_step, to the slots' compensated sums (s, c),
 * a tick at a time in order.  A tick holds B = bsz runs' rows of d
 * doubles: a chain's B rows, or a pair's B coarse rows over its B fine
 * rows.  Run b's value is its row's norm, sqrt(pairwise_dot(x, x, d)) in
 * slot b, or its row x, coordinate k in slot b * d + k; a pair's is its
 * fine row's value minus its coarse row's.  Returns i * bsz + b of the
 * first non-finite value, with the values before it added, or -1. */
int64_t mlv_window(int obs, int64_t w, int64_t bsz, int64_t d, int pair,
                   const double *x, int64_t x_step, double *restrict s,
                   double *restrict c)
{
    for (int64_t i = 0; i < w; i++, x += x_step) {
        const double *fine = pair ? x + bsz * d : x;
        for (int64_t b = 0; b < bsz; b++) {
            const double *xf = fine + b * d, *xc = x + b * d;
            if (obs == NORM) {
                double v = sqrt(pairwise_dot(xf, xf, d));
                if (pair)
                    v -= sqrt(pairwise_dot(xc, xc, d));
                if (!isfinite(v))
                    return i * bsz + b;
                two_sum_add(s + b, c + b, v);
                continue;
            }
            for (int64_t k = 0; k < d; k++) {
                double v = pair ? xf[k] - xc[k] : xf[k];
                if (!isfinite(v))
                    return i * bsz + b;
                two_sum_add(s + b * d + k, c + b * d + k, v);
            }
        }
    }
    return -1;
}

#ifdef MLV_NORMALS

/* numpy's bit generator interface (numpy/random/bitgen.h) and its normal
 * draw, from the static library numpy ships for C extensions
 * (numpy/random/lib/libnpyrandom.a). */
typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

double random_standard_normal(bitgen_t *bitgen_state);

/* numpy's ziggurat tables, read from random_standard_normal by
 * mlv_probe; until then ki is all zero and every word takes the slow path,
 * numpy's own code. */
static double wi[256];
static uint64_t ki[256];

/* One stream's words, as numpy's Philox state holds them, and up to 8
 * blocks of 4 words generated ahead: block b has counter ctr + b, and buf
 * holds len words, the next at pos. */
enum { CTR = 0, KEY = 4, BUF = 6, POS = 10, BLOCKS = 8 };

typedef struct {
    uint64_t key[2], ctr[4], buf[4 * BLOCKS], first;
    int64_t pos, len;
    int fed;  /* next_uint64 returns first before the stream */
} stream_t;

static void add_ctr(uint64_t c[4], uint64_t k)
{
    c[0] += k;
    if (c[0] < k)
        for (int i = 1; i < 4 && ++c[i] == 0; i++)
            ;
}

/* Philox4x64-10 of the BLOCKS counters from s->ctr on, the block after the
 * ones buf held.  The blocks are independent, so the processor overlaps
 * their rounds; interleaving 2, 4 or 8 of them by hand measured slower. */
static void refill(stream_t *s)
{
    const uint64_t m0 = 0xD2E7470EE14C6C93ULL, m1 = 0xCA5A826395121157ULL;
    add_ctr(s->ctr, (uint64_t)s->len / 4);
    uint64_t c[4] = {s->ctr[0], s->ctr[1], s->ctr[2], s->ctr[3]};
    for (uint64_t *o = s->buf; o < s->buf + 4 * BLOCKS; o += 4) {
        uint64_t v0 = c[0], v1 = c[1], v2 = c[2], v3 = c[3];
        uint64_t k0 = s->key[0], k1 = s->key[1];
        for (int round = 0; round < 10; round++) {
            unsigned __int128 p0 = (unsigned __int128)m0 * v0;
            unsigned __int128 p1 = (unsigned __int128)m1 * v2;
            v0 = (uint64_t)(p1 >> 64) ^ v1 ^ k0;
            v1 = (uint64_t)p1;
            v2 = (uint64_t)(p0 >> 64) ^ v3 ^ k1;
            v3 = (uint64_t)p0;
            k0 += 0x9E3779B97F4A7C15ULL;
            k1 += 0xBB67AE8584CAA73BULL;
        }
        o[0] = v0, o[1] = v1, o[2] = v2, o[3] = v3;
        add_ctr(c, 1);
    }
    s->pos = 0;
    s->len = 4 * BLOCKS;
}

static uint64_t fed_uint64(void *st)
{
    stream_t *s = st;
    if (s->fed) {
        s->fed = 0;
        return s->first;
    }
    if (s->pos >= s->len)
        refill(s);
    return s->buf[s->pos++];
}

/* Philox's next_double of a word */
static double to_double(uint64_t u)
{
    return (double)(u >> 11) * (1.0 / 9007199254740992.0);
}

static double fed_double(void *st)
{
    return to_double(fed_uint64(st));
}

/* Fill out[0..n) with the standard normals of the stream whose state is
 * words, numpy's Philox state field for field: counter[4], key[2],
 * buffer[4] and the buffer position.  A word r gives rabs * wi[r & 0xff],
 * rabs = (r >> 9) mod 2^52, its sign bit 8 of r, when rabs < ki[r & 0xff]
 * (numpy's fast path); any other word goes to random_standard_normal,
 * whose first next_uint64 returns r and whose later calls continue the
 * stream (the tail and the wedges).  The words are left as numpy's state
 * after the same draw: the counter of the block the last word came from,
 * its 4 words and the position after that word.  Returns the number of
 * words that took numpy's path. */
int64_t mlv_normals(uint64_t *words, int64_t n, double *out)
{
    int64_t slow = 0;
    if (n <= 0)
        return slow;
    stream_t s;
    memcpy(s.ctr, words + CTR, sizeof s.ctr);
    memcpy(s.key, words + KEY, sizeof s.key);
    memcpy(s.buf, words + BUF, 4 * sizeof(uint64_t));
    s.pos = (int64_t)words[POS];
    s.len = 4;
    s.fed = 0;
    /* random_standard_normal calls only next_uint64 and next_double */
    bitgen_t fed = {&s, fed_uint64, NULL, fed_double, fed_uint64};
    int64_t pos = s.pos, len = s.len;
    for (int64_t i = 0; i < n; i++) {
        if (pos >= len) {
            s.len = len;
            refill(&s);
            pos = 0, len = s.len;
        }
        uint64_t r = s.buf[pos++];
        int idx = (int)(r & 0xff);
        uint64_t rabs = (r >> 9) & 0x000fffffffffffffULL;
        union { double d; uint64_t u; } x = {(double)rabs * wi[idx]};
        x.u ^= (r & 0x100) << 55;
        if (__builtin_expect(rabs < ki[idx], 1)) {
            out[i] = x.d;
        } else {
            s.pos = pos, s.len = len;
            s.first = r, s.fed = 1;
            out[i] = random_standard_normal(&fed);
            slow++;
            pos = s.pos, len = s.len;
        }
    }
    /* the counter of the block the last word came from */
    int64_t b = (pos - 1) / 4;
    add_ctr(s.ctr, (uint64_t)b);
    memcpy(words + CTR, s.ctr, sizeof s.ctr);
    memcpy(words + BUF, s.buf + 4 * b, 4 * sizeof(uint64_t));
    words[POS] = (uint64_t)(pos - 4 * b);
    return slow;
}

/* Probe words for random_standard_normal: first, then `then` ever after,
 * counting the words it asks for. */
typedef struct {
    uint64_t first, then;
    int64_t used;
} probe_t;

static uint64_t probe_uint64(void *st)
{
    probe_t *p = st;
    return p->used++ ? p->then : p->first;
}

static double probe_double(void *st)
{
    return to_double(probe_uint64(st));
}

static double probe(uint64_t first, uint64_t then, int64_t *used)
{
    probe_t p = {first, then, 0};
    bitgen_t bg = {&p, probe_uint64, NULL, probe_double, probe_uint64};
    double x = random_standard_normal(&bg);
    *used = p.used;
    return x;
}

/* Read numpy's tables from its draw: wi[i] is its value on the word
 * (1 << 9) | i, followed by zeros; ki[i] the least rabs whose word
 * (rabs << 9) | i asks for a second one, by bisection (the words after it
 * are 1 << 63, so the tail and the wedges accept at once). */
void mlv_probe(void)
{
    int64_t used;
    for (uint64_t i = 0; i < 256; i++) {
        uint64_t lo = 0, hi = 1ULL << 52;
        while (lo < hi) {
            uint64_t mid = lo + (hi - lo) / 2;
            probe((mid << 9) | i, 1ULL << 63, &used);
            if (used > 1)
                hi = mid;
            else
                lo = mid + 1;
        }
        ki[i] = lo;
        wi[i] = probe((1ULL << 9) | i, 0, &used);
    }
}

#endif
