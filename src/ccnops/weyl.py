"""Hyperoctahedral / affine type-C combinatorics on weights and roots.

Weights are tuples of rationals sharing a parity class (all integral or all
half-integral).  Two partial orders are exposed:

* the root-lattice dominance order (`dominance_leq`): integral difference
  with even coordinate sum and nonnegative partial sums;
* the coroot order (`coroot_leq`): integral difference with nonnegative
  partial sums only.

Bruhat intervals can be taken in either lattice; the section solver uses the
coroot one, which is the order in which single coordinates may drop by 1.

Every rank and nullspace dimension of the package is decided by one function,
`rank_certificate`, and one rule: the singular values above 2^-(prec//2)
count.  That absolute floor assumes entries of order one (s_max between
10^-0.2 and 10^2.6 at nonzero rank in the tests and the benchmark).  The
entries are cut to F = prec + 32 bits, so the Gram matrix A^H A is exact on
Python integers, summed only where two columns share nonzero rows.  A
diagonally pivoted LDL^H of it at 2F bits (Higham, "Analysis of the Cholesky
decomposition of a semi-definite matrix", 1990) stops at the floor squared,
and its exact residual gives a certified lower bound on the last kept
singular value and a certified upper bound on the first dropped one.  A rank
stands only with the lower bound above the floor, the upper one at or below
it, and a RANK_GAP ratio between them; otherwise ArithmeticError is raised,
never a rank the bounds do not prove.  The nullspace is the free part of the
factorization, orthonormalized on integers.  No Python float is involved.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from operator import mul

from mpmath import mp, mpc, mpf
from mpmath.libmp import from_man_exp, round_nearest, to_fixed

from .curve import (
    GAUSS_ONE,
    GAUSS_ZERO,
    GUARD_BITS,
    CurveContext,
    at_context_precision,
    gauss_add,
    gauss_div,
    gauss_exact,
    gauss_fixed,
    gauss_mul,
    gauss_quotient,
    gauss_round,
    gauss_scale,
    memo,
    point_key,
)

#: least ratio between the certified lower bound on the last singular value
#: `rank_certificate` keeps and the certified upper bound on the first it
#: drops; a smaller one raises ArithmeticError.
RANK_GAP = 10**6


def as_weight(entries):
    w = tuple(Fraction(x) for x in entries)
    pars = {x - int(x) for x in w}
    if len(pars) > 1:
        raise ValueError("weight entries must share a parity class")
    return w


def is_dominant(w):
    return all(w[i] >= w[i + 1] for i in range(len(w) - 1)) and (not w or w[-1] >= 0)


def _check_dominant_pair(lam, mu):
    lam, mu = as_weight(lam), as_weight(mu)
    if not (is_dominant(lam) and is_dominant(mu)):
        raise ValueError("dominance order requires dominant weights")
    if len(lam) != len(mu):
        raise ValueError("weights of different rank")
    d = [m - l for l, m in zip(lam, mu)]
    if any(x.denominator != 1 for x in d):
        raise ValueError("weights in different parity classes")
    return d


def dominance_leq(lam, mu):
    """lam <= mu in the root-lattice dominance order (even difference sum)."""
    d = _check_dominant_pair(lam, mu)
    if sum(d) % 2 != 0:
        return False
    run = Fraction(0)
    for x in d:
        run += x
        if run < 0:
            return False
    return True


def coroot_leq(lam, mu):
    """lam <= mu in the coroot order (partial sums only)."""
    d = _check_dominant_pair(lam, mu)
    run = Fraction(0)
    for x in d:
        run += x
        if run < 0:
            return False
    return True


def weight_orbit(lam):
    """All signed permutations of a dominant weight, deduplicated."""
    lam = as_weight(lam)
    out = set()
    n = len(lam)
    for perm in itertools.permutations(range(n)):
        base = tuple(lam[p] for p in perm)
        nz = [i for i in range(n) if base[i] != 0]
        for signs in itertools.product((1, -1), repeat=len(nz)):
            v = list(base)
            for i, s in zip(nz, signs):
                v[i] = base[i] * s
            out.add(tuple(v))
    return out


def bruhat_interval(lam, lattice="root"):
    """All dominant mu <= lam, topologically sorted by the chosen order.

    lattice="root" uses `dominance_leq`, lattice="coroot" uses `coroot_leq`.
    """
    lam = as_weight(lam)
    if not is_dominant(lam):
        raise ValueError("leading weight must be dominant")
    leq = dominance_leq if lattice == "root" else coroot_leq
    n = len(lam)
    par = lam[0] - int(lam[0]) if n else Fraction(0)
    top = lam[0]
    values = []
    v = par if par else Fraction(0)
    while v <= top:
        values.append(v)
        v += 1
    found = []
    for combo in itertools.combinations_with_replacement(sorted(values, reverse=True), n):
        mu = tuple(combo)
        if not is_dominant(mu):
            continue
        try:
            if leq(mu, lam):
                found.append(mu)
        except ValueError:
            continue
    found.sort(key=lambda m: (sum(m), m))
    return found


# ---------------------------------------------------------------------------
# affine roots and inversion sets


@dataclass(frozen=True)
class AffineRoot:
    """Finite part beta plus level m (the +m*q part).

    kind: "sum" (z_i+z_j) or "diff" (z_i-z_j), i < j.
    """

    kind: str
    i: int
    j: int
    level: int

    def pairing(self, lam):
        if self.kind == "sum":
            return lam[self.i] + lam[self.j]
        return lam[self.i] - lam[self.j]


def positive_finite_roots(n):
    """The positive roots z_i +- z_j (i < j) of type D."""
    roots = []
    for i in range(n):
        for j in range(i + 1, n):
            roots.append(AffineRoot("diff", i, j, 0))
            roots.append(AffineRoot("sum", i, j, 0))
    return roots


def inversion_set(lam):
    """Positive affine roots of type D sent negative by t_lam.

    For each positive finite root beta with c = <beta, lam> > 0, the levels
    0 <= m < c appear.
    """
    lam = as_weight(lam)
    n = len(lam)
    out = []
    for root in positive_finite_roots(n):
        c = root.pairing(lam)
        if c <= 0:
            continue
        m = 0
        while m < c:
            out.append(AffineRoot(root.kind, root.i, root.j, m))
            m += 1
    return out


def inversion_set_bruteforce(lam):
    """Oracle: explicit sign check of t_lam on affine roots of type D and bounded level."""
    lam = as_weight(lam)
    n = len(lam)
    max_level = int(2 * max([abs(x) for x in lam] + [Fraction(1)])) + 2
    out = []
    for root in positive_finite_roots(n):
        c = root.pairing(lam)
        for m in range(0, max_level + 1):
            # t_lam sends beta + m q to beta + (m - <beta,lam>) q, which is
            # negative iff its level is below 0 (at level 0, beta stays positive)
            m2 = Fraction(m) - c
            if m2 < 0:
                out.append(AffineRoot(root.kind, root.i, root.j, m))
    return out


# ---------------------------------------------------------------------------
# signed permutations


def signed_permutations(n):
    """The full hyperoctahedral group as (perm, signs) pairs."""
    out = []
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            out.append((perm, signs))
    return out


def hyperoctahedral_generators(n):
    """Adjacent transpositions plus the last-coordinate sign flip."""
    gens = []
    for i in range(n - 1):
        perm = list(range(n))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        gens.append((tuple(perm), (1,) * n))
    signs = [1] * n
    if n:
        signs[n - 1] = -1
    gens.append((tuple(range(n)), tuple(signs)))
    return gens


def sp_apply(w, vec):
    """Apply the signed permutation w = (perm, signs): (w.vec)_i = s_i * vec_{perm(i)}."""
    perm, signs = w
    return tuple(signs[i] * vec[perm[i]] for i in range(len(vec)))


def sp_inverse(w):
    perm, signs = w
    n = len(perm)
    iperm = [0] * n
    isigns = [1] * n
    for i in range(n):
        iperm[perm[i]] = i
        isigns[perm[i]] = signs[i]
    return (tuple(iperm), tuple(isigns))


def sp_compose(w1, w2):
    """w1 after w2: (w1*w2).vec = w1.(w2.vec)."""
    perm1, signs1 = w1
    perm2, signs2 = w2
    n = len(perm1)
    perm = tuple(perm2[perm1[i]] for i in range(n))
    signs = tuple(signs1[i] * signs2[perm1[i]] for i in range(n))
    return (perm, signs)


def sp_matrix(w):
    perm, signs = w
    n = len(perm)
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][perm[i]] = signs[i]
    return g


# ---------------------------------------------------------------------------
# invariant dimensions


def _mat_mul(a, b):
    n, m, k = len(a), len(b[0]), len(b)
    return tuple(
        tuple(sum(a[i][l] * b[l][j] for l in range(k)) for j in range(m)) for i in range(n)
    )


def _mat_T(a):
    return tuple(tuple(a[j][i] for j in range(len(a))) for i in range(len(a[0])))


def group_closure(gens):
    """Close a set of integer matrices under multiplication."""
    gens = [tuple(tuple(int(x) for x in row) for row in g) for g in gens]
    n = len(gens[0])
    ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = _mat_mul(a, g)
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
        if len(seen) > 100000:
            raise ValueError("group closure too large")
    return sorted(seen)


def _q_inverse(Q):
    n = len(Q)
    # exact inverse over Q by Gauss-Jordan
    a = [[Fraction(Q[i][j]) for j in range(n)] + [Fraction(1 if i == j else 0) for j in range(n)]
         for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col])
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [[a[i][n + j] for j in range(n)] for i in range(n)]


def _det_int(Q):
    n = len(Q)
    a = [[Fraction(x) for x in row] for row in Q]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return int(det)


def discriminant_group(Q):
    """Representatives of Q^{-1} Z^n / Z^n as tuples of Fractions in [0,1)."""
    n = len(Q)
    det = abs(_det_int(Q))
    qinv = _q_inverse(Q)
    seen = set()
    for k in itertools.product(range(det), repeat=n):
        c = tuple(
            sum(qinv[i][j] * k[j] for j in range(n)) % 1 for i in range(n)
        )
        seen.add(c)
    if len(seen) != det:
        raise ValueError("discriminant enumeration mismatch")
    return sorted(seen)


def invariant_dimension(Q, gens):
    """Number of orbits of the group generated by gens on Q^{-1}Z^n / Z^n.

    Each generator must preserve Q (g^T Q g = Q) and Q must be positive
    definite with even diagonal.
    """
    n = len(Q)
    Q = tuple(tuple(int(x) for x in row) for row in Q)
    if any(Q[i][j] != Q[j][i] for i in range(n) for j in range(n)):
        raise ValueError("Q must be symmetric")
    if any(Q[i][i] % 2 for i in range(n)):
        raise ValueError("Q must have even diagonal")
    if _det_int(Q) <= 0 or any(_det_int([row[: k + 1] for row in Q[: k + 1]]) <= 0 for k in range(n)):
        raise ValueError("Q must be positive definite")
    for g in gens:
        if _mat_mul(_mat_T(g), _mat_mul(Q, g)) != tuple(tuple(int(x) for x in r) for r in Q):
            raise ValueError("generator does not preserve Q")
    elements = discriminant_group(Q)
    group = group_closure(gens) if gens else []
    index = {c: i for i, c in enumerate(elements)}
    seen = set()
    orbits = 0
    for c in elements:
        if c in seen:
            continue
        orbits += 1
        frontier = [c]
        seen.add(c)
        while frontier:
            x = frontier.pop()
            for g in group:
                y = tuple(
                    sum(Fraction(g[i][j]) * x[j] for j in range(n)) % 1 for i in range(n)
                )
                if y not in seen:
                    if y not in index:
                        raise ValueError("group does not preserve the discriminant group")
                    seen.add(y)
                    frontier.append(y)
    return orbits


def automorphism_group(Q):
    """All integer matrices with g^T Q g = Q (finite for positive definite Q)."""
    n = len(Q)
    Q = [[int(x) for x in row] for row in Q]
    bound = max(Q[i][i] for i in range(n))
    # columns v must satisfy v^T Q v = Q[j][j]; search a box
    box = math.isqrt(bound * n) + 2
    cols = {j: [] for j in range(n)}
    for v in itertools.product(range(-box, box + 1), repeat=n):
        nrm = sum(v[i] * Q[i][j] * v[j] for i in range(n) for j in range(n))
        for j in range(n):
            if nrm == Q[j][j]:
                cols[j].append(v)
    out = []
    for combo in itertools.product(*(cols[j] for j in range(n))):
        g = tuple(tuple(combo[j][i] for j in range(n)) for i in range(n))
        if _mat_mul(_mat_T(g), _mat_mul(Q, g)) == tuple(tuple(r) for r in Q):
            out.append(g)
    return out


def _int_powers(x, K, F):
    """[x^0, ..., x^K, x^-K, ..., x^-1] as Gaussian floats cut to F bits, so that x^k sits at index k."""
    up, down = [GAUSS_ONE], [GAUSS_ONE]
    xinv = gauss_quotient(GAUSS_ONE, x, F)
    for _ in range(K):
        up.append(gauss_mul(up[-1], x, F))
        down.append(gauss_mul(down[-1], xinv, F))
    return up + down[:0:-1]


def _ellipsoid_rows(Q, d, bound, residues):
    """Per r in residues, the points M = r (mod d) with M^T Q M <= bound, row by row.

    Each row is a pair (M, L): M is the row's first point and its L points
    are M + t d e_n for 0 <= t < L; empty rows are left out.  For fixed
    M_1..M_(i-1), M_i runs where the minimum of M^T Q M over real
    M_(i+1)..M_n, the form with matrix the inverse of the leading i x i
    block of Q^-1, stays within the bound, so every nonempty row is
    reached.  All arithmetic is on integers.
    """
    n = len(Q)
    qinv = _q_inverse(Q)
    forms = []  # per i, the minimum scaled to an integer form: (A_i, D_i)
    for i in range(1, n + 1):
        P = _q_inverse([row[:i] for row in qinv[:i]])
        D = math.lcm(*(x.denominator for row in P for x in row))
        forms.append(([[int(x * D) for x in row] for row in P], D))

    def rows(r, prefix):
        i = len(prefix)
        A, D = forms[i]
        a = A[i][i]
        b = sum(A[i][j] * prefix[j] for j in range(i))
        c = sum(A[j][l] * prefix[j] * prefix[l] for j in range(i) for l in range(i)) - D * bound
        disc = b * b - a * c
        if disc < 0:
            return
        # a M^2 + 2 b M + c <= 0 iff |a M + b| <= isqrt(b^2 - a c); then M = r_i (mod d)
        s = math.isqrt(disc)
        lo, hi = -((b + s) // a), (s - b) // a
        tlo, thi = -((r[i] - lo) // d), (hi - r[i]) // d
        if i == n - 1:
            if tlo <= thi:
                yield prefix + (d * tlo + r[i],), thi - tlo + 1
        else:
            for t in range(tlo, thi + 1):
                yield from rows(r, prefix + (d * t + r[i],))

    return [list(rows(r, ())) for r in residues]


@at_context_precision
def theta_basis_values(Q, points, ctx):
    """The degree-Q theta basis at `points`: one row per c of `discriminant_group(Q)`.

    f_c(z) = sum_{m in Z^n + c} e(m^T Q m tau/2 + m^T Q z), truncated to the
    ellipsoid m^T Q m <= R = (rho + 2S)^2 with

        rho^2 = (prec + 32) ln 2 / (pi Im tau),
        S = max over the points of ||u||_Q,  u = Im z / Im tau,

    where ||v||_Q = sqrt(v^T Q v).  Soundness (the tail bound of Deconinck,
    Heil, Bobenko, van Hoeij & Schmies, "Computing Riemann theta functions",
    Math. Comp. 2004): with r = ||m||_Q, Cauchy-Schwarz gives
    |m^T Q u| <= r S, so

        |e(m^T Q m tau/2 + m^T Q z)| = exp(-pi Im tau (r^2 + 2 m^T Q u))
                                     <= exp(-pi Im tau r (r - 2S)),

    and r >= rho + 2S makes that at most exp(-pi Im tau rho^2) =
    2^-(prec + 32).  At r = rho + 2S + x, r (r - 2S) >= rho^2 + 2 rho x, so
    the terms beyond the ellipsoid fall off geometrically and their sum is a
    small multiple of that bound.

    Enumeration is on integers: with d the common denominator of the
    discriminant group, M = d m runs over the M = d c (mod d) with
    M^T Q M <= d^2 R (`_ellipsoid_rows`), and k = Qm = QM/d is an integer
    vector.  Each term is

        e(m^T Q m tau/2 + m^T Q z) = w(c, m) * prod_j e(z_j)^(k_j),

    with z-free weights w(c, m) = e(m^T Q m tau/2), one e call per distinct
    (d m^T Q m, d), memoized on the context as Gaussian floats.  Along a
    row, m_1..m_(n-1) fixed and m_n rising by 1, k rises by Q e_n, so
    consecutive terms differ by the factor y = prod_j e(z_j)^(Q_jn) besides
    their weights.  Per point, a row of weights w_0..w_(L-1) from its first
    point m is

        prod_j e(z_j)^(k_j(m)) * (w_0 + y (w_1 + y (w_2 + ...))),

    by Horner in y on integers (Brent & Zimmermann, Modern Computer
    Arithmetic, 2010, section 4.4; the theta kernel's `curve._horner`), F =
    `ctx._fix` bits.  Each weight keeps its whole mantissa at scale
    2^(F + s_t), 2^-s_t ~ |w_t|, and y enters at its own per-point scale,
    y 2^(F + s_y) with |y| ~ 2^-s_y, so that a small |y| (large |Im z| and
    Q_nn) keeps all its bits; step t shifts the product of the partial sum
    and y right by F + s_(t+1) - s_t + s_y, which brings it to the scale of
    w_t.  Where that shift would be negative (term_t below 2^-F of
    term_(t+1), at the edge of a row), y of that row is taken at the larger
    scale that makes every shift of the row nonnegative.  Error: step t
    truncates one unit of 2^-(F + s_t), about 2^-F |w_t|, and the steps
    below multiply it by y^t and the start factor, so it reaches the sum as
    about 2^-F |w_t| |y|^t |start| = 2^-F |term_t|.  The integer powers of
    e(z_j), y and the start factors are Gaussian floats cut to F bits after
    each product (`gauss_mul`), each row's sum is multiplied by its start
    factor, the rows of one c add exactly (`gauss_add`), and their sum is
    rounded once, to `ctx._wp` bits.
    """
    return [[gauss_round(v, ctx._wp) for v in row] for row in _theta_basis(Q, discriminant_group(Q), points, ctx)]


def _theta_basis(Q, elements, points, ctx):
    """`theta_basis_values` before its rounding, as Gaussian floats; `elements` is `discriminant_group(Q)`."""
    n = len(Q)
    Q = [[int(x) for x in row] for row in Q]
    d = math.lcm(*(x.denominator for c in elements for x in c))
    im_tau = ctx.tau.imag
    rho = mp.sqrt((ctx.prec + 32) * mp.ln2 / (mp.pi * im_tau))
    S = mpf(0)
    for z in points:
        u = [mp.im(zj) / im_tau for zj in z]
        S = max(S, mp.sqrt(sum(u[i] * Q[i][j] * u[j] for i in range(n) for j in range(n))))
    bound = int(mp.floor(d * d * (rho + 2 * S) ** 2))
    half_tau = ctx.tau / 2
    F = ctx._fix
    col = [Q[j][n - 1] for j in range(n)]
    terms = []  # per c, per row: (k at the row's first point, Horner table, s_0, least shift)
    for ellipsoid in _ellipsoid_rows(Q, d, bound, [[int(d * x) for x in c] for c in elements]):
        rows = []
        for M, L in ellipsoid:
            k = [sum(Q[i][j] * M[j] for j in range(n)) // d for i in range(n)]
            mk, kn, ws = sum(Mi * ki for Mi, ki in zip(M, k)), k[-1], []  # mk = d m^T Q m
            for _ in range(L):
                ws.append(memo(ctx._lattice_weight_cache, (mk, d), lambda: gauss_exact(ctx.e(mk * half_tau / d))))
                # m_n -> m_n + 1: d m^T Q m grows by d (2 k_n + Q_nn), k_n by Q_nn
                mk += d * (2 * kn + col[-1])
                kn += col[-1]
            scales = [gauss_scale(w) for w in ws]
            table = [
                (*gauss_fixed(ws[t], F + scales[t]), F + scales[t + 1] - scales[t] if t + 1 < L else F)
                for t in reversed(range(L))
            ]
            rows.append((k, table, scales[0], min(shift for _, _, shift in table)))
        terms.append(rows)
    Ks = [max([abs(col[j])] + [abs(k[j]) for rows in terms for k, _, _, _ in rows]) for j in range(n)]
    values = [[] for _ in terms]
    for z in points:
        powers = [_int_powers(gauss_exact(ctx.e(zj)), K, F) for zj, K in zip(z, Ks)]
        y = powers[0][col[0]]
        for pj, qj in zip(powers[1:], col[1:]):
            y = gauss_mul(y, pj[qj], F)
        sy = gauss_scale(y)
        yr, yi = gauss_fixed(y, F + sy)
        for out, rows in zip(values, terms):
            total = GAUSS_ZERO
            for k, table, s0, least in rows:
                s, ur, ui = (sy, yr, yi) if least + sy >= 0 else (-least, *gauss_fixed(y, F - least))
                ar = ai = 0
                for cr, ci, shift in table:
                    shift += s
                    ar, ai = ((ar * ur - ai * ui) >> shift) + cr, ((ar * ui + ai * ur) >> shift) + ci
                start = powers[0][k[0]]
                for pj, kj in zip(powers[1:], k[1:]):
                    start = gauss_mul(start, pj[kj], F)
                total = gauss_add(total, gauss_mul((ar, ai, -F - s0), start, F))
            out.append(total)
    return values


@at_context_precision
def theta_symmetrization_rows(Q, gens, ctx):
    """The group average of the theta basis at |Q^-1 Z^n / Z^n| + 3 seeded points.

    One row per c of the discriminant group, one column per point.  The
    basis values of a column's group-translated points add exactly, and
    their average is rounded once, to `ctx._wp` bits.
    """
    n = len(Q)
    group = [tuple(tuple(int(x) for x in row) for row in g) for g in group_closure(gens)] if gens else [tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))]
    elements = discriminant_group(Q)
    rng = random.Random(20240601)
    pts = []
    for _ in range(len(elements) + 3):
        pts.append(tuple(mpc(rng.uniform(-0.45, 0.45), rng.uniform(-0.35, 0.35)) for _ in range(n)))
    # evaluate the basis once per distinct group-translated point
    gpts = {}  # exact point key -> (column, point), in first-seen order
    index = []
    for z in pts:
        cols = []
        for g in group:
            gz = tuple(sum(g[i][j] * z[j] for j in range(n)) for i in range(n))
            cols.append(gpts.setdefault(tuple(map(point_key, gz)), (len(gpts), gz))[0])
        index.append(cols)
    vals = _theta_basis(Q, elements, [gz for _, gz in gpts.values()], ctx)
    size = (len(group), 0, 0)
    return [[gauss_div(functools.reduce(gauss_add, (row[col] for col in cols)), size, ctx._wp) for cols in index] for row in vals]


def theta_symmetrization_rank(Q, gens, ctx=None):
    """Oracle for `invariant_dimension`: numeric rank of the symmetrizer.

    The degree-Q theta bundle on E^n has the basis f_c of
    `theta_basis_values`, indexed by the discriminant group Q^{-1} Z^n / Z^n.
    Each c lies in Q^{-1} Z^n, so Qc is an integer vector and so is k = Qm for
    every m in Z^n + c; hence e(m^T Q z) = prod_j e(z_j)^(k_j), and every term
    of f_c(z) is a z-free weight e(m^T Q m tau/2) times integer powers of
    e(z_j).  The sums run over the ellipsoid m^T Q m <= (rho + 2S)^2 that
    the tail bound sizes from the precision and the points' imaginary parts,
    row by row in the last coordinate, each row by Horner in
    y = prod_j e(z_j)^(Q_jn).  The basis is averaged over the group at
    seeded points and the rank of that value matrix is read from its
    singular value gap.
    """
    ctx = ctx or CurveContext(0.06 + 1.13j, 96)
    return numeric_rank(theta_symmetrization_rows(Q, gens, ctx), prec=ctx.prec)


def _fixed_columns(keys, F):
    """The columns of a matrix of point keys as F-bit fixed-point Gaussian integers, and their exponent.

    The entries are scaled by one power of two to at most 1: entry (i, j)
    is (cols[j][0][i] + i cols[j][1][i]) 2^exp.
    """
    top = max((p[2] + p[3] for row in keys for key in row for p in key if p[1]), default=0)
    cols = [
        ([to_fixed(re, F - top) for re, _ in col], [to_fixed(im, F - top) for _, im in col])
        for col in zip(*keys)
    ]
    return cols, top - F


def _dot(ar, ai, br, bi):
    """a^H b for Gaussian vectors held as real and imaginary parts, exactly."""
    return (
        sum(map(mul, ar, br)) + sum(map(mul, ai, bi)),
        sum(map(mul, ar, bi)) - sum(map(mul, ai, br)),
    )


def _gram_upper(cols):
    """The upper triangle of G = A^H A for `_fixed_columns` output, exactly: row j holds G_jk for k >= j.

    Rows of A are grouped by the columns where they are nonzero, and each
    group adds the products of its own columns only, so zero rows and zero
    blocks cost nothing.
    """
    n = len(cols)
    groups = {}
    for i, row in enumerate(zip(*(zip(re, im) for re, im in cols))):
        support = tuple(j for j, (x, y) in enumerate(row) if x or y)
        if support:
            groups.setdefault(support, []).append(i)
    upper = [([0] * (n - j), [0] * (n - j)) for j in range(n)]
    for support, idx in groups.items():
        sub = {j: ([cols[j][0][i] for i in idx], [cols[j][1][i] for i in idx]) for j in support}
        for a, j in enumerate(support):
            gr, gi = upper[j]
            for k in support[a:]:
                xr, xi = _dot(*sub[j], *sub[k])
                gr[k - j] += xr
                gi[k - j] += xi
    return upper


def _frobenius_sq(upper):
    """The squared Frobenius norm of a Hermitian matrix held as its upper triangle, rows as in `_gram_upper`."""
    return sum(r[0] * r[0] + 2 * (sum(map(mul, r[1:], r[1:])) + sum(map(mul, i[1:], i[1:]))) for r, i in upper)


def _isqrt_up(x):
    s = math.isqrt(x)
    return s if s * s == x else s + 1


def _above(x, t):
    """x > 2^t for an integer x, on integers."""
    return x << max(-t, 0) > 1 << max(t, 0)


@dataclass(frozen=True)
class RankCertificate:
    """A rank and certified bounds on the singular values on either side of it.

    sigma_rank >= lower (+inf at rank 0) and sigma_(rank+1) <= upper (0 at
    full column rank), for the matrix exactly as given.  `null` is an
    orthonormal basis of the nullspace, one vector per entry, if it was
    asked for.
    """

    rank: int
    lower: object
    upper: object
    null: list | None = None


def rank_certificate(rows, prec, want_null=False):
    """The package's one rank decision: the rank of the matrix `rows` at the floor 2^-(prec//2).

    The entries are cut to F = prec + 32 bits: A + dA = a 2^e, a Gaussian
    integer, ||dA||_F < sqrt(p) 2^e with p the nonzero real and imaginary
    parts.  G = a^H a is exact (`_gram_upper`).  The LDL^H runs on
    S = G 2^(2W), W = 2F: each pivot d is the largest diagonal S_pp cut to
    an integer, l_i = S_ip / (d 2^W) is cut to W bits, and S -= l d l^H is
    exact, so at the end S holds H = G 2^(2W) - L D L^H exactly.  It stops
    once S_pp is at or below floor^2 (or one unit of G).  With r pivots and
    L11 the pivot rows of L:

    * sigma_(r+1)(a)^2 <= lambda_1(H) <= ||H||_F (Weyl; L D L^H has rank
      r), for the PSD Schur complement at most its trace;
    * sigma_r(a)^2 >= lambda_r(L D L^H) - ||H||_F, and lambda_r(L D L^H) >=
      1 / ||D^(-1/2) L11^-1||_F^2, i.e. 1/||R11^-1||_F^2 for the Cholesky
      factor R11 = D^(1/2) L11^H; with X from `_unit_lower_inverse`,
      L11^-1 = X (I + Y)^-1 and ||Y||_F < r 2^-W.

    Both bounds are rounded in their safe direction on integers and widened
    by sqrt(p) 2^e.  The rank r stands when lower > 2^-(prec//2) >= upper
    and lower >= RANK_GAP upper; otherwise ArithmeticError is raised, which
    is also what a Kahan matrix, whose pivots hide a small sigma_r, gets.
    The nullspace is spanned by (-L11^-H L21^H y, y) over the unit vectors
    y of the free columns, orthonormalized on integers (modified
    Gram-Schmidt, twice) at F bits; at rank 0 it is exactly the identity.
    Without `want_null` a wide matrix goes in transposed (same values).
    """
    F = prec + 32
    W, h = 2 * F, prec // 2
    keys = [[point_key(x) for x in row] for row in rows]
    if not want_null and len(keys) < len(keys[0]):
        keys = [list(col) for col in zip(*keys)]
    cols, e = _fixed_columns(keys, F)
    n = len(cols)
    parts = sum(1 for row in keys for key in row for p in key if p[1])
    S = [([x << 2 * W for x in gr], [x << 2 * W for x in gi]) for gr, gi in _gram_upper(cols)]
    # S_pp at or below this is at or below floor^2, or below one unit of G
    limit = max(1 << max(2 * (W - e - h), 0), (1 << 2 * W) - 1)
    free, pivots, ls, ds, hsq = list(range(n)), [], [], [], 0
    while free:
        p = max(range(len(free)), key=lambda a: S[a][0][0])
        if S[p][0][0] <= limit:
            break
        d = S[p][0][0] >> 2 * W
        dw = d << W
        col = [(S[a][0][p - a], S[a][1][p - a]) if a <= p else (S[p][0][a - p], -S[p][1][a - p]) for a in range(len(free))]
        lr, li = [x // dw for x, _ in col], [y // dw for _, y in col]
        lr[p], li[p] = 1 << W, 0
        for a, (sr, si) in enumerate(S):
            mr, mi, ur, ui = lr[a] * d, li[a] * d, lr[a:], li[a:]
            S[a] = (
                [x - (mr * u + mi * v) for x, u, v in zip(sr, ur, ui)],
                [y - (mi * u - mr * v) for y, u, v in zip(si, ur, ui)],
            )
        # the pivot's row and column are final: they hold its part of H
        hsq += _frobenius_sq([S[p]]) + 2 * sum(S[a][0][p - a] ** 2 + S[a][1][p - a] ** 2 for a in range(p))
        for a in range(p):
            del S[a][0][p - a], S[a][1][p - a]
        del S[p]
        ls.append(dict(zip(free, zip(lr, li))))
        ds.append(d)
        pivots.append(free.pop(p))
    r = len(pivots)
    hF = _isqrt_up(hsq + _frobenius_sq(S))  # ||H||_F 2^(2W), rounded up
    X = _unit_lower_inverse([[ls[m][pivots[k]] for m in range(k)] for k in range(r)], W)
    inv = sum(-((sum(map(mul, xr, xr)) + sum(map(mul, xi, xi)) << 2 * W) // -d) for (xr, xi), d in zip(X, ds))
    # sigma_r(a)^2 2^(2W) >= (1 - r 2^-W)^2 / ||D^(-1/2) X||_F^2 - ||H||_F, and sigma_(r+1)(a)^2 2^(2W) <= hF
    lam = ((((1 << W) - r) ** 2 << 4 * W) // inv - hF) if r else 0
    cut = _isqrt_up(parts << 2 * W)
    lo = math.isqrt(max(lam, 0)) - cut
    up = _isqrt_up(hF) + cut if r < n else 0
    t = W - h - e  # the floor 2^-h as a singular value of a, scaled by 2^W, is 2^t
    lower = mp.make_mpf(from_man_exp(lo, e - W)) if r else mp.inf
    upper = mp.make_mpf(from_man_exp(up, e - W))
    if (r and not (_above(lo, t) and lo >= RANK_GAP * up)) or _above(up, t):
        raise ArithmeticError(
            "singular value gap ambiguous at the floor 2^-%d: sigma_%d >= %s, sigma_%d <= %s"
            % (h, r, mp.nstr(lower, 5), r + 1, mp.nstr(upper, 5))
        )
    if not want_null:
        return RankCertificate(r, lower, upper)
    basis = []
    for j in free:
        # t_c = sum_m X_mc l_jm, and the vector has -conj(t_c) at pivot c and 1 at j
        tr, ti = _row_combination(X, [ls[m][j] for m in range(r)])
        vr, vi = [0] * n, [0] * n
        for c, k in enumerate(pivots):
            vr[k], vi[k] = -tr[c] >> (2 * W - F), ti[c] >> (2 * W - F)
        vr[j] = 1 << F
        basis.append((vr, vi))
    for _ in range(2):
        for j in range(len(basis)):
            wr, wi = basis[j]
            for kr, ki in basis[:j]:
                cr, ci = (x >> F for x in _dot(kr, ki, wr, wi))
                wr = [a - ((x * cr - y * ci) >> F) for a, x, y in zip(wr, kr, ki)]
                wi = [a - ((x * ci + y * cr) >> F) for a, x, y in zip(wi, kr, ki)]
            norm = math.isqrt(sum(map(mul, wr, wr)) + sum(map(mul, wi, wi)))
            basis[j] = [(x << F) // norm for x in wr], [(x << F) // norm for x in wi]
    wp = prec + GUARD_BITS
    null = [
        [mp.make_mpc((from_man_exp(x, -F, wp, round_nearest), from_man_exp(y, -F, wp, round_nearest))) for x, y in zip(*v)]
        for v in basis
    ]
    return RankCertificate(r, lower, upper, null)


def _row_combination(X, coeffs):
    """sum_m coeffs[m] X[m] at scale 2^(2W), X's rows as (re, im) lists of growing length m + 1."""
    tr, ti = [0] * len(X), [0] * len(X)
    for (xr, xi), (cr, ci) in zip(X, coeffs):
        k = len(xr)
        tr[:k] = [a + cr * u - ci * v for a, u, v in zip(tr, xr, xi)]
        ti[:k] = [b + cr * v + ci * u for b, u, v in zip(ti, xr, xi)]
    return tr, ti


def _unit_lower_inverse(L, W):
    """X ~ L^-1 for a unit lower triangular L at scale 2^W, given by its rows below the diagonal.

    L[k] lists L_km for m < k as (re, im) integer pairs.  Row k of X is
    floor(-sum_(m<k) L_km X_m / 2^W) below the diagonal and 2^W on it, so
    L X = I + Y with Y strictly lower triangular and each part of it in
    (-2^-W, 0].
    """
    X = []
    for row in L:
        tr, ti = _row_combination(X, row)
        X.append(([-x >> W for x in tr] + [1 << W], [-y >> W for y in ti] + [0]))
    return X


def numeric_rank(rows, prec):
    """Rank of the matrix `rows` by `rank_certificate`."""
    return rank_certificate(rows, prec).rank
