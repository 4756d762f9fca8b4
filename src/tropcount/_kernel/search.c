/* Compiled lane of the point-constraint assignment search.
 *
 * A step-for-step twin of search_points in pure.py: the same DFS over
 * edge multisets, the same fraction-free echelon, dependence check,
 * adjugate solve, sign-pruned assignment recursion and leaf checks, and
 * candidates emitted in the same order.  The library is loaded with
 * ctypes; it touches no Python object.
 *
 * Arithmetic is exact in 128-bit integers.  Every stored entry (inputs,
 * echelon rows, adjugate, per-slot contributions) is kept within 2^62,
 * so the product of two of them cannot overflow; sums of products whose
 * length depends on the input are checked.  Anything outside those
 * bounds aborts with OVERFLOW and the caller reruns the pure search, so
 * results are always exact.
 *
 * Inputs are flat row-major int64 arrays, with U = n + nb unknowns,
 * E edges, r rows per block and l constraints (l * r == U):
 *   blocks[E][r][U]  coefficient block of each edge
 *   rhs[E][l][r]     right-hand sides of each edge under each constraint
 *   lbounded[E]      bounded-edge index of each edge, or -1
 *   tuj[E], hrow[E][U], pj[E][l]   parameter-recovery data (tdata, pj)
 * Candidates come out as 2*l int64 each: the edges, then sigma.
 */

#include <stdint.h>
#include <stdlib.h>

__extension__ typedef __int128 i128;

enum { OK = 0, NON_GENERAL = 1, OVERFLOW = 2, BAD_INPUT = 3, NO_MEMORY = 4 };

#define LIMIT (((i128)1) << 62)
#define BIG(v) ((v) > LIMIT || (v) < -LIMIT)

typedef struct {
    int64_t n, nb, u, r, l, ne;
    const int64_t *blocks, *rhs, *lbounded, *tuj, *hrow, *pj;
    int status;

    /* echelon of the pushed rows: vector, multipliers, pivot */
    i128 *evec, *emult, *pivots, *w, *m;
    int64_t *pivcol, *chosen, nech;

    /* dependence check: per-slot right-hand values of the relation */
    i128 *gvals, *gsfxmin, *gsfxmax;
    int64_t gslots;
    char *gused;

    /* full-rank solve and assignment recursion */
    i128 det, *adjm, *vval, *sfxmin, *sfxmax, *acc;
    int64_t *sigma;
    char *used;

    int64_t *out, ncand, cap;
} Search;

#define BLOCK(s, e, i, j) ((i128)(s)->blocks[((e) * (s)->r + (i)) * (s)->u + (j)])
#define RHS(s, e, c, i) ((i128)(s)->rhs[((e) * (s)->l + (c)) * (s)->r + (i)])

/* *x += a * b for a, b within LIMIT, whose product cannot overflow;
 * 0 if the sum does */
static int add_product(i128 *x, i128 a, i128 b)
{
    return !__builtin_add_overflow(*x, (i128)(int64_t)a * (int64_t)b, x);
}

/* *x -= a * b; 0 on overflow */
static int sub_product(i128 *x, i128 a, i128 b)
{
    i128 p;
    return !__builtin_mul_overflow(a, b, &p) && !__builtin_sub_overflow(*x, p, x);
}

/* One fraction-free step, *x = (p * *x - f * y) / prev, on entries within
 * LIMIT; 0 if the division is inexact or the result leaves LIMIT.  The
 * entries fit in 64 bits, so each product is one widening multiply, and
 * the quotient takes a 64-bit division whenever the numerator fits. */
static int bareiss(i128 *x, i128 p, i128 f, i128 y, i128 prev)
{
    i128 num = (i128)(int64_t)p * (int64_t)*x - (i128)(int64_t)f * (int64_t)y;
    i128 q;
    if (num > INT64_MIN && num <= INT64_MAX)
        q = (int64_t)num / (int64_t)prev;
    else
        q = num / prev;
    if (q * prev != num)
        return 0;
    *x = q;
    return !BIG(q);
}

static int zero_rec(Search *s, int64_t i, i128 acc)
{
    int64_t c;
    if (i == s->gslots)
        return acc == 0;
    if (acc + s->gsfxmin[i] > 0 || acc + s->gsfxmax[i] < 0)
        return 0;
    for (c = 0; c < s->l; c++) {
        if (!s->gused[c]) {
            s->gused[c] = 1;
            if (zero_rec(s, i + 1, acc + s->gvals[i * s->l + c])) {
                s->gused[c] = 0;
                return 1;
            }
            s->gused[c] = 0;
        }
    }
    return 0;
}

/* _exists_zero_assignment over gvals[0..gslots) */
static int exists_zero(Search *s)
{
    int64_t k, c, l = s->l;
    s->gsfxmin[s->gslots] = 0;
    s->gsfxmax[s->gslots] = 0;
    for (k = s->gslots - 1; k >= 0; k--) {
        i128 lo = s->gvals[k * l], hi = lo;
        for (c = 1; c < l; c++) {
            i128 v = s->gvals[k * l + c];
            if (v < lo)
                lo = v;
            if (v > hi)
                hi = v;
        }
        s->gsfxmin[k] = s->gsfxmin[k + 1] + lo;
        s->gsfxmax[k] = s->gsfxmax[k + 1] + hi;
    }
    for (c = 0; c < l; c++)
        s->gused[c] = 0;
    return zero_rec(s, 0, 0);
}

/* Row ridx of edge e as slot `slot`: reduce against the echelon and
 * append it (0), or find it dependent (1, setting NON_GENERAL when some
 * assignment makes the relation consistent); -1 on overflow. */
static int push_row(Search *s, int64_t e, int64_t ridx, int64_t slot)
{
    int64_t u = s->u, r = s->r, l = s->l, i, j, k, c;
    i128 *w = s->w, *m = s->m, prev = 1;

    for (j = 0; j < u; j++) {
        w[j] = BLOCK(s, e, ridx, j);
        m[j] = 0;
    }
    m[slot * r + ridx] = 1;
    for (i = 0; i < s->nech; i++) {
        i128 p = s->pivots[i], f = w[s->pivcol[i]];
        const i128 *ev = s->evec + i * u, *em = s->emult + i * u;
        for (j = 0; j < u; j++)
            if (!bareiss(&w[j], p, f, ev[j], prev))
                return -1;
        for (j = 0; j < u; j++)
            if (!bareiss(&m[j], p, f, em[j], prev))
                return -1;
        prev = p;
    }
    for (c = 0; c < u; c++) {
        if (w[c] != 0) {
            for (j = 0; j < u; j++) {
                s->evec[s->nech * u + j] = w[j];
                s->emult[s->nech * u + j] = m[j];
            }
            s->pivots[s->nech] = w[c];
            s->pivcol[s->nech] = c;
            s->nech++;
            return 0;
        }
    }
    s->gslots = 0;
    for (k = 0; k <= slot; k++) {
        int have = 0;
        for (c = 0; c < l; c++) {
            i128 g = 0;
            for (j = 0; j < r; j++) {
                i128 mu = m[k * r + j];
                if (mu != 0) {
                    have = 1;
                    if (!add_product(&g, mu, RHS(s, s->chosen[k], c, j)))
                        return -1;
                }
            }
            if (BIG(g))
                return -1;
            s->gvals[s->gslots * l + c] = g;
        }
        if (have)
            s->gslots++;
    }
    if (exists_zero(s))
        s->status = NON_GENERAL;
    return 1;
}

/* det and adjugate of the stacked chosen blocks by fraction-free
 * Gauss-Jordan on [M | I]: 1 on success, 0 if singular, -1 on overflow.
 * Leaves adj(M)[i][j] in adjm[i][u + j]. */
static int adjugate(Search *s)
{
    int64_t u = s->u, w2 = 2 * s->u, t, i, j, k, ridx, row = 0;
    i128 *a = s->adjm, sign = 1, prev = 1;

    for (k = 0; k < s->l; k++) {
        for (ridx = 0; ridx < s->r; ridx++, row++) {
            for (j = 0; j < u; j++) {
                a[row * w2 + j] = BLOCK(s, s->chosen[k], ridx, j);
                a[row * w2 + u + j] = row == j;
            }
        }
    }
    for (t = 0; t < u; t++) {
        i128 piv;
        if (a[t * w2 + t] == 0) {
            i = t + 1;
            while (i < u && a[i * w2 + t] == 0)
                i++;
            if (i == u)
                return 0;
            for (j = 0; j < w2; j++) {
                i128 tmp = a[t * w2 + j];
                a[t * w2 + j] = a[i * w2 + j];
                a[i * w2 + j] = tmp;
            }
            sign = -sign;
        }
        piv = a[t * w2 + t];
        for (i = 0; i < u; i++) {
            if (i != t) {
                i128 f = a[i * w2 + t];
                for (j = 0; j < w2; j++)
                    if (!bareiss(&a[i * w2 + j], piv, f, a[t * w2 + j], prev))
                        return -1;
            }
        }
        prev = piv;
    }
    s->det = sign * a[(u - 1) * w2 + u - 1];
    if (sign < 0)
        for (i = 0; i < u; i++)
            for (j = u; j < w2; j++)
                a[i * w2 + j] = -a[i * w2 + j];
    return 1;
}

static void emit(Search *s)
{
    int64_t k, l = s->l, *row;
    if (s->ncand == s->cap) {
        int64_t cap = s->cap ? 2 * s->cap : 64;
        int64_t *out = realloc(s->out, (size_t)cap * 2 * (size_t)l * sizeof *out);
        if (!out) {
            s->status = NO_MEMORY;
            return;
        }
        s->out = out;
        s->cap = cap;
    }
    row = s->out + s->ncand * 2 * l;
    for (k = 0; k < l; k++) {
        row[k] = s->chosen[k];
        row[l + k] = s->sigma[k];
    }
    s->ncand++;
}

/* 1 if the solution acc[l] / det passes; may set NON_GENERAL or OVERFLOW */
static int leaf_checks(Search *s)
{
    int64_t u = s->u, n = s->n, b, k, i;
    const i128 *acc = s->acc + s->l * u;
    int pos = s->det > 0;

    for (b = 0; b < s->nb; b++) {
        i128 q = acc[n + b];
        if (q == 0) {
            s->status = NON_GENERAL;
            return 0;
        }
        if ((q > 0) != pos)
            return 0;
    }
    for (k = 0; k < s->l; k++) {
        int64_t e = s->chosen[k], lb = s->lbounded[e];
        i128 uj = s->tuj[e], du = pos ? uj : -uj;
        i128 tt = s->det * (i128)s->pj[e * s->l + s->sigma[k]];
        for (i = 0; i < u; i++) {
            i128 h = s->hrow[e * u + i];
            if (h != 0 && !sub_product(&tt, h, acc[i])) {
                s->status = OVERFLOW;
                return 0;
            }
        }
        if (tt == 0) {
            s->status = NON_GENERAL;
            return 0;
        }
        if ((tt > 0) != (du > 0))
            return 0;
        if (lb >= 0) {
            i128 qq = tt;
            if (!sub_product(&qq, acc[n + lb], uj)) {
                s->status = OVERFLOW;
                return 0;
            }
            if (qq == 0) {
                s->status = NON_GENERAL;
                return 0;
            }
            if ((qq > 0) == (du > 0))
                return 0;
        }
    }
    return 1;
}

static void assign_rec(Search *s, int64_t k)
{
    int64_t u = s->u, i, c;
    const i128 *acc = s->acc + k * u;
    int pos = s->det > 0;

    if (s->status != OK)
        return;
    /* every length coordinate must be able to reach the correct strict
     * sign; exact zero is kept so the boundary case still reaches the
     * leaf and raises the resample flag */
    for (i = s->n; i < u; i++) {
        if (pos && acc[i] + s->sfxmax[k * u + i] < 0)
            return;
        if (!pos && acc[i] + s->sfxmin[k * u + i] > 0)
            return;
    }
    if (k == s->l) {
        if (leaf_checks(s))
            emit(s);
        return;
    }
    for (c = 0; c < s->l; c++) {
        if (!s->used[c]) {
            const i128 *v = s->vval + (k * s->l + c) * u;
            i128 *next = s->acc + (k + 1) * u;
            s->used[c] = 1;
            s->sigma[k] = c;
            for (i = 0; i < u; i++)
                next[i] = acc[i] + v[i];
            assign_rec(s, k + 1);
            s->used[c] = 0;
            if (s->status != OK)
                return;
        }
    }
}

/* Full-rank subset: solve by adjugate, then branch over injective
 * constraint assignments with sign pruning. */
static void full_subset(Search *s)
{
    int64_t u = s->u, l = s->l, r = s->r, k, c, i, j;
    int res = adjugate(s);

    if (res < 0) {
        s->status = OVERFLOW;
        return;
    }
    if (res == 0)
        return;
    /* vval[k][c] = contribution of slot k under constraint c to adj * b */
    for (k = 0; k < l; k++) {
        int64_t e = s->chosen[k];
        i128 *vmin = s->sfxmin + k * u, *vmax = s->sfxmax + k * u;
        for (c = 0; c < l; c++) {
            i128 *v = s->vval + (k * l + c) * u;
            for (i = 0; i < u; i++) {
                i128 sum = 0;
                for (j = 0; j < r; j++) {
                    i128 q = RHS(s, e, c, j);
                    if (q != 0 && !add_product(&sum, s->adjm[i * 2 * u + u + k * r + j], q)) {
                        s->status = OVERFLOW;
                        return;
                    }
                }
                if (BIG(sum)) {
                    s->status = OVERFLOW;
                    return;
                }
                v[i] = sum;
                if (c == 0 || sum < vmin[i])
                    vmin[i] = sum;
                if (c == 0 || sum > vmax[i])
                    vmax[i] = sum;
            }
        }
    }
    /* suffix sums of the per-slot extremes, in place */
    for (i = 0; i < u; i++) {
        s->sfxmin[l * u + i] = 0;
        s->sfxmax[l * u + i] = 0;
        s->acc[i] = 0;
    }
    for (k = l - 1; k >= 0; k--) {
        for (i = 0; i < u; i++) {
            s->sfxmin[k * u + i] += s->sfxmin[(k + 1) * u + i];
            s->sfxmax[k * u + i] += s->sfxmax[(k + 1) * u + i];
        }
    }
    for (c = 0; c < l; c++)
        s->used[c] = 0;
    assign_rec(s, 0);
}

static void dfs(Search *s, int64_t start, int64_t depth)
{
    int64_t e, ridx;
    if (s->status != OK)
        return;
    if (depth == s->l) {
        full_subset(s);
        return;
    }
    for (e = start; e < s->ne; e++) {
        int64_t saved = s->nech;
        int dead = 0;
        s->chosen[depth] = e;
        for (ridx = 0; ridx < s->r; ridx++) {
            int res = push_row(s, e, ridx, depth);
            if (res < 0) {
                s->status = OVERFLOW;
                return;
            }
            if (res == 1) {
                dead = 1;
                break;
            }
        }
        if (!dead)
            dfs(s, e, depth + 1);
        s->nech = saved;
        if (s->status != OK)
            return;
    }
}

static int all_small(const int64_t *v, int64_t len)
{
    int64_t i;
    for (i = 0; i < len; i++)
        if (BIG((i128)v[i]))
            return 0;
    return 1;
}

/* Returns OK, NON_GENERAL, OVERFLOW, BAD_INPUT or NO_MEMORY.  On OK,
 * *out holds *ncand candidates (free it with tc_free); otherwise *out
 * is NULL. */
int64_t tc_search_points(int64_t n, int64_t nb, int64_t ne, int64_t r, int64_t l,
                         const int64_t *blocks, const int64_t *rhs,
                         const int64_t *lbounded, const int64_t *tuj,
                         const int64_t *hrow, const int64_t *pj,
                         int64_t **out, int64_t *ncand)
{
    Search s = {0};
    int64_t u = n + nb, e;
    size_t nwide, nint;
    i128 *wide;
    int64_t *ints;

    *out = NULL;
    *ncand = 0;
    if (n < 0 || nb < 0 || ne < 1 || r < 1 || l < 1 || l * r != u)
        return BAD_INPUT;
    for (e = 0; e < ne; e++)
        if (lbounded[e] < -1 || lbounded[e] >= nb)
            return BAD_INPUT;
    if (!all_small(blocks, ne * r * u) || !all_small(rhs, ne * l * r) ||
        !all_small(tuj, ne) || !all_small(hrow, ne * u) || !all_small(pj, ne * l))
        return OVERFLOW;

    s.n = n;
    s.nb = nb;
    s.u = u;
    s.r = r;
    s.l = l;
    s.ne = ne;
    s.blocks = blocks;
    s.rhs = rhs;
    s.lbounded = lbounded;
    s.tuj = tuj;
    s.hrow = hrow;
    s.pj = pj;

    nwide = (size_t)(2 * u * u + 3 * u      /* evec, emult, pivots, w, m */
                     + l * l + 2 * (l + 1)  /* gvals, gsfxmin, gsfxmax */
                     + 2 * u * u            /* adjm */
                     + l * l * u            /* vval */
                     + 3 * (l + 1) * u);    /* sfxmin, sfxmax, acc */
    nint = (size_t)(u + 2 * l);             /* pivcol, chosen, sigma */
    wide = malloc(nwide * sizeof *wide);
    ints = malloc(nint * sizeof *ints);
    s.gused = malloc((size_t)(2 * l));
    if (!wide || !ints || !s.gused) {
        free(wide);
        free(ints);
        free(s.gused);
        return NO_MEMORY;
    }
    s.evec = wide;
    s.emult = s.evec + u * u;
    s.pivots = s.emult + u * u;
    s.w = s.pivots + u;
    s.m = s.w + u;
    s.gvals = s.m + u;
    s.gsfxmin = s.gvals + l * l;
    s.gsfxmax = s.gsfxmin + l + 1;
    s.adjm = s.gsfxmax + l + 1;
    s.vval = s.adjm + 2 * u * u;
    s.sfxmin = s.vval + l * l * u;
    s.sfxmax = s.sfxmin + (l + 1) * u;
    s.acc = s.sfxmax + (l + 1) * u;
    s.pivcol = ints;
    s.chosen = s.pivcol + u;
    s.sigma = s.chosen + l;
    s.used = s.gused + l;

    dfs(&s, 0, 0);

    free(wide);
    free(ints);
    free(s.gused);
    if (s.status != OK) {
        free(s.out);
        return s.status;
    }
    *out = s.out;
    *ncand = s.ncand;
    return OK;
}

void tc_free(int64_t *p)
{
    free(p);
}
