/* Compiled lane of the assignment search.
 *
 * A step-for-step twin of search_points in pure.py: the same DFS over
 * one edge multiset per constraint group, the same fraction-free
 * echelon, dependence check, adjugate solve, sign-pruned assignment
 * recursion and leaf checks, and candidates emitted in the same order.
 * The library is loaded with ctypes; it touches no Python object.
 *
 * Arithmetic is exact in 128-bit integers.  Every stored entry (inputs,
 * echelon rows, adjugate, per-slot contributions) is kept within 2^62,
 * so the product of two of them cannot overflow; sums of products whose
 * length depends on the input are checked.  Anything outside those
 * bounds aborts with OVERFLOW and the caller reruns the pure search, so
 * results are always exact.
 *
 * Inputs are flat row-major int64 arrays, with U = n + nb unknowns, E
 * edges, G groups of constraints sharing a basis and l constraints in
 * all.  Group g has l_g constraints and r_g block rows per edge
 * (gshape[g] = r_g, l_g; the sum of l_g * r_g is U).  rows, rhs and uj
 * hold one record per edge and group: group 0's, then group 1's, and so
 * on.
 *   members[l]            each group's constraints, by index among all
 *   rows[E][r_g + 1][U]   each edge's coefficient block, then its last
 *                         row: the parameter row, or the row beyond the
 *                         block when the edge is parallel to the span
 *   rhs[E][l_g][r_g + 1]  the right-hand sides of those rows under each
 *                         constraint of the group
 *   uj[E]                 the parameter's coefficient, 0 when parallel
 * The edges e < nb are the bounded ones, of length x[n + e].
 * Candidates come out as 2*l int64 each: the edges, then the index of
 * the constraint each carries.
 */

#include <stdint.h>
#include <stdlib.h>

__extension__ typedef __int128 i128;

enum { OK = 0, NON_GENERAL = 1, OVERFLOW = 2, BAD_INPUT = 3, NO_MEMORY = 4 };

#define LIMIT (((i128)1) << 62)
#define BIG(v) ((v) > LIMIT || (v) < -LIMIT)

typedef struct {
    const int64_t *rows, *rhs, *uj;
    int64_t r, l, first;
} Group;

typedef struct {
    int64_t n, nb, u, l, ne;
    const int64_t *members;
    int status;

    /* per slot: its group and the offset of its rows */
    const Group **sg;
    int64_t *roff;

    /* echelon of the pushed rows: vector, multipliers, pivot */
    i128 *evec, *emult, *pivots, *w, *m;
    int64_t *pivcol, *chosen, nech;

    /* dependence check: per-slot right-hand values of the relation */
    i128 *gvals, *gsfxmin, *gsfxmax;
    const Group **ggroup;
    int64_t gslots;
    char *gused;

    /* full-rank solve and assignment recursion */
    i128 det, *adjm, *vval, *sfxmin, *sfxmax, *acc;
    int64_t *sigma;
    char *used;

    int64_t *out, ncand, cap;
} Search;

#define BLOCK(g, e, i, j, u) ((i128)(g)->rows[((e) * ((g)->r + 1) + (i)) * (u) + (j)])
#define RHS(g, e, c, i) ((i128)(g)->rhs[((e) * (g)->l + (c)) * ((g)->r + 1) + (i)])

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
    const Group *g;
    int64_t c;
    if (i == s->gslots)
        return acc == 0;
    if (acc + s->gsfxmin[i] > 0 || acc + s->gsfxmax[i] < 0)
        return 0;
    g = s->ggroup[i];
    for (c = 0; c < g->l; c++) {
        if (!s->gused[g->first + c]) {
            s->gused[g->first + c] = 1;
            if (zero_rec(s, i + 1, acc + s->gvals[i * s->l + c])) {
                s->gused[g->first + c] = 0;
                return 1;
            }
            s->gused[g->first + c] = 0;
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
        for (c = 1; c < s->ggroup[k]->l; c++) {
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
    int64_t u = s->u, i, j, k, c;
    i128 *w = s->w, *m = s->m, prev = 1;

    for (j = 0; j < u; j++) {
        w[j] = BLOCK(s->sg[slot], e, ridx, j, u);
        m[j] = 0;
    }
    m[s->roff[slot] + ridx] = 1;
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
        const Group *g = s->sg[k];
        int have = 0;
        for (c = 0; c < g->l; c++) {
            i128 v = 0;
            for (j = 0; j < g->r; j++) {
                i128 mu = m[s->roff[k] + j];
                if (mu != 0) {
                    have = 1;
                    if (!add_product(&v, mu, RHS(g, s->chosen[k], c, j)))
                        return -1;
                }
            }
            if (BIG(v))
                return -1;
            s->gvals[s->gslots * s->l + c] = v;
        }
        if (have)
            s->ggroup[s->gslots++] = g;
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
        for (ridx = 0; ridx < s->sg[k]->r; ridx++, row++) {
            for (j = 0; j < u; j++) {
                a[row * w2 + j] = BLOCK(s->sg[k], s->chosen[k], ridx, j, u);
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
        row[l + k] = s->members[s->sg[k]->first + s->sigma[k]];
    }
    s->ncand++;
}

/* *t = det * (last right-hand side) - last row . acc[l] of slot k: det
 * times the residual of that row at the solution acc[l] / det; 0 on
 * overflow */
static int last_value(Search *s, int64_t k, i128 *t)
{
    const Group *g = s->sg[k];
    int64_t u = s->u, e = s->chosen[k], i;
    const int64_t *row = g->rows + (e * (g->r + 1) + g->r) * u;
    const i128 *acc = s->acc + s->l * u;

    *t = s->det * RHS(g, e, s->sigma[k], g->r);
    for (i = 0; i < u; i++)
        if (row[i] != 0 && !sub_product(t, row[i], acc[i]))
            return 0;
    return 1;
}

/* 1 if the solution acc[l] / det passes; may set NON_GENERAL or OVERFLOW */
static int leaf_checks(Search *s)
{
    int64_t n = s->n, b, k;
    const i128 *acc = s->acc + s->l * s->u;
    int pos = s->det > 0;
    i128 t;

    /* an edge parallel to its span has one row more than the search
     * used: a nonzero residual means no solution at all */
    for (k = 0; k < s->l; k++) {
        if (s->sg[k]->uj[s->chosen[k]] != 0)
            continue;
        if (!last_value(s, k, &t)) {
            s->status = OVERFLOW;
            return 0;
        }
        if (t != 0)
            return 0;
    }
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
        int64_t e = s->chosen[k];
        i128 uj = s->sg[k]->uj[e], du = pos ? uj : -uj;
        if (uj == 0) {
            /* consistent although overdetermined: the marked point is
             * free along its edge */
            s->status = NON_GENERAL;
            return 0;
        }
        if (!last_value(s, k, &t)) {
            s->status = OVERFLOW;
            return 0;
        }
        if (t == 0) {
            s->status = NON_GENERAL;
            return 0;
        }
        if ((t > 0) != (du > 0))
            return 0;
        if (e < s->nb) {
            if (!sub_product(&t, acc[n + e], uj)) {
                s->status = OVERFLOW;
                return 0;
            }
            if (t == 0) {
                s->status = NON_GENERAL;
                return 0;
            }
            if ((t > 0) == (du > 0))
                return 0;
        }
    }
    return 1;
}

static void assign_rec(Search *s, int64_t k)
{
    int64_t u = s->u, i, c;
    const i128 *acc = s->acc + k * u;
    const Group *g;
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
    g = s->sg[k];
    for (c = 0; c < g->l; c++) {
        if (!s->used[g->first + c]) {
            const i128 *v = s->vval + (k * s->l + c) * u;
            i128 *next = s->acc + (k + 1) * u;
            s->used[g->first + c] = 1;
            s->sigma[k] = c;
            for (i = 0; i < u; i++)
                next[i] = acc[i] + v[i];
            assign_rec(s, k + 1);
            s->used[g->first + c] = 0;
            if (s->status != OK)
                return;
        }
    }
}

/* Full-rank subset: solve by adjugate, then branch over constraint
 * assignments, injective inside each group, with sign pruning. */
static void full_subset(Search *s)
{
    int64_t u = s->u, l = s->l, k, c, i, j;
    int res = adjugate(s);

    if (res < 0) {
        s->status = OVERFLOW;
        return;
    }
    if (res == 0)
        return;
    /* vval[k][c] = contribution of slot k under its group's c-th
     * constraint to adj * b */
    for (k = 0; k < l; k++) {
        const Group *g = s->sg[k];
        int64_t e = s->chosen[k];
        i128 *vmin = s->sfxmin + k * u, *vmax = s->sfxmax + k * u;
        for (c = 0; c < g->l; c++) {
            i128 *v = s->vval + (k * l + c) * u;
            for (i = 0; i < u; i++) {
                i128 sum = 0;
                for (j = 0; j < g->r; j++) {
                    i128 q = RHS(g, e, c, j);
                    if (q != 0 && !add_product(&sum, s->adjm[i * 2 * u + u + s->roff[k] + j], q)) {
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
    /* a group's edges form a multiset: non-decreasing within it */
    if (depth == 0 || s->sg[depth - 1] != s->sg[depth])
        start = 0;
    for (e = start; e < s->ne; e++) {
        int64_t saved = s->nech;
        int dead = 0;
        s->chosen[depth] = e;
        for (ridx = 0; ridx < s->sg[depth]->r; ridx++) {
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
int64_t tc_search(int64_t n, int64_t nb, int64_t ne, int64_t ng,
                  const int64_t *gshape, const int64_t *members,
                  const int64_t *rows, const int64_t *rhs, const int64_t *uj,
                  int64_t **out, int64_t *ncand)
{
    Search s = {0};
    Group *groups;
    int64_t u = n + nb, l = 0, nrows = 0, sumr = 0, g, k;
    size_t nwide, nint;
    i128 *wide;
    int64_t *ints;

    *out = NULL;
    *ncand = 0;
    if (n < 0 || nb < 0 || ne < 1 || ng < 1)
        return BAD_INPUT;
    for (g = 0; g < ng; g++) {
        if (gshape[2 * g] < 1 || gshape[2 * g + 1] < 1)
            return BAD_INPUT;
        l += gshape[2 * g + 1];
        sumr += gshape[2 * g] + 1;
        nrows += gshape[2 * g] * gshape[2 * g + 1];
    }
    if (nrows != u)
        return BAD_INPUT;
    groups = malloc((size_t)ng * sizeof *groups);
    if (!groups)
        return NO_MEMORY;
    for (g = 0; g < ng; g++) {
        Group *gr = &groups[g];
        gr->r = gshape[2 * g];
        gr->l = gshape[2 * g + 1];
        gr->first = g ? groups[g - 1].first + groups[g - 1].l : 0;
        gr->rows = g ? groups[g - 1].rows + ne * (groups[g - 1].r + 1) * u : rows;
        gr->rhs = g ? groups[g - 1].rhs + ne * groups[g - 1].l * (groups[g - 1].r + 1) : rhs;
        gr->uj = uj + g * ne;
    }
    if (!all_small(rows, ne * sumr * u) || !all_small(rhs, ne * (u + l)) ||
        !all_small(uj, ng * ne)) {
        free(groups);
        return OVERFLOW;
    }

    s.n = n;
    s.nb = nb;
    s.u = u;
    s.l = l;
    s.ne = ne;
    s.members = members;

    nwide = (size_t)(2 * u * u + 3 * u      /* evec, emult, pivots, w, m */
                     + l * l + 2 * (l + 1)  /* gvals, gsfxmin, gsfxmax */
                     + 2 * u * u            /* adjm */
                     + l * l * u            /* vval */
                     + 3 * (l + 1) * u);    /* sfxmin, sfxmax, acc */
    nint = (size_t)(u + 3 * l);             /* pivcol, chosen, sigma, roff */
    wide = malloc(nwide * sizeof *wide);
    ints = malloc(nint * sizeof *ints);
    s.sg = malloc((size_t)(2 * l) * sizeof *s.sg);
    s.gused = malloc((size_t)(2 * l));
    if (!wide || !ints || !s.sg || !s.gused) {
        free(wide);
        free(ints);
        free(s.sg);
        free(s.gused);
        free(groups);
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
    s.roff = s.sigma + l;
    s.ggroup = s.sg + l;
    s.used = s.gused + l;
    for (g = 0, k = 0, nrows = 0; g < ng; g++) {
        int64_t c;
        for (c = 0; c < groups[g].l; c++, k++) {
            s.sg[k] = &groups[g];
            s.roff[k] = nrows;
            nrows += groups[g].r;
        }
    }

    dfs(&s, 0, 0);

    free(wide);
    free(ints);
    free(s.sg);
    free(s.gused);
    free(groups);
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
