"""Hyperoctahedral / affine type-C combinatorics on weights and roots.

Weights are tuples of rationals sharing a parity class (all integral or all
half-integral).  Two partial orders are exposed:

* the root-lattice dominance order (`dominance_leq`): integral difference
  with even coordinate sum and nonnegative partial sums;
* the coroot order (`coroot_leq`): integral difference with nonnegative
  partial sums only.

Bruhat intervals can be taken in either lattice; the section solver uses the
coroot one, which is the order in which single coordinates may drop by 1.

Every rank and nullspace dimension of the package is decided by one SVD
(`svd_spectrum`) and one rule (`spectrum_rank`): the singular values above
2^-(prec//2) count.  That absolute floor assumes entries of order one (s_max
between 10^-0.2 and 10^2.6 at nonzero rank in the tests and the benchmark);
the margin of a decision is read from `svd_spectrum`.  The SVD runs on Python
integers at F = prec + 32 bits.  A matrix (a wide one as its conjugate
transpose, or padded to square with zero rows when its right singular vectors
are asked for) is reduced to the R of an integer Householder QR: A = QR gives
A^H A = R^H R, so the singular values and right singular vectors are those of
A (the R-SVD of Chan, ACM TOMS 1982), and Householder QR is backward stable
(Higham, Accuracy and Stability of Numerical Algorithms, ch. 19).  R's SVD is
a cyclic one-sided complex Jacobi (Hestenes; Demmel & Veselic, "Jacobi's
method is more accurate than QR", SIAM J. Matrix Anal. Appl. 1992), seeded by
the same Jacobi in Python floats.  Its rotations come from exact integer Gram
entries, with each phase read at 2F bits, and the sweeps stop after one that
finds every pair of columns orthogonal to 2^-(F-16) or at rounding level.
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
from mpmath.libmp import from_man_exp, fzero, mpf_neg, mpf_sqrt, round_nearest, to_fixed

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

#: least ratio between the last singular value `spectrum_rank` keeps, above
#: the floor 2^-(prec//2) for entries of order one (s_max 10^-0.2 to 10^2.6 at
#: nonzero rank in the tests and the benchmark), and the first it drops; a
#: smaller one raises ArithmeticError.  The least ratio at a cut there is
#: 10^31.2 (96 bits) and 10^74.8 (256 bits).  Margins are read from
#: `svd_spectrum`.
RANK_GAP = mpf("1e6")


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


def _householder_r(cols, F):
    """The R of a complex Householder QR of F-bit fixed-point columns, no more than rows, on integers.

    The rest x of column k is reflected onto alpha e_k,
    alpha = -phase(x0) ||x||, by H = I - 2 v v^H / (v^H v) with
    v = x - alpha e_k.  A column that is dependent up to rounding leaves an
    x of rounding noise, with a pivot x0 of only a few significant bits, yet
    its H acts on the columns after it at full size.  So v^H v is summed
    exactly, which keeps H a reflection whatever v is, and x0's phase is
    read at 2F bits, which makes H x = alpha e_k to 2^-F.  With x0's own
    rounded phase and the textbook v^H v = 2 ||x|| (||x|| + |x0|) instead,
    the later columns of a van Diejen n=2 solve came out off by 1e-5.  Each
    operation truncates once at 2^-F.  `cols`, as `_fixed_columns` gives
    them, is overwritten; returns the ncols x ncols R as rows of (re, im)
    integer pairs at the same scale.
    """
    ncols = len(cols)
    R = [[(0, 0)] * ncols for _ in range(ncols)]
    for k, (colr, coli) in enumerate(cols):
        vr, vi = colr[k:], coli[k:]  # x, then v = x - alpha e_k
        norm2 = sum(map(mul, vr, vr)) + sum(map(mul, vi, vi))
        alpha = (0, 0)
        if norm2:
            norm = math.isqrt(norm2)
            x0r, x0i = vr[0], vi[0]
            a0 = math.isqrt((x0r * x0r + x0i * x0i) << (2 * F))  # |x0| 2^F, at 2F bits
            pr, pi = ((x0r << (2 * F)) // a0, (x0i << (2 * F)) // a0) if a0 else (1 << F, 0)
            alpha = (-((pr * norm) >> F), -((pi * norm) >> F))
            vr[0], vi[0] = x0r - alpha[0], x0i - alpha[1]
            vv = norm2 - x0r * x0r - x0i * x0i + vr[0] * vr[0] + vi[0] * vi[0]  # v^H v, exactly
            for ar, ai in cols[k + 1 :]:
                wr, wi = _dot(vr, vi, ar[k:], ai[k:])  # v^H a
                fr, fi = (wr << (F + 1)) // vv, (wi << (F + 1)) // vv
                ar[k:] = [a - ((x * fr - y * fi) >> F) for a, x, y in zip(ar[k:], vr, vi)]
                ai[k:] = [a - ((x * fi + y * fr) >> F) for a, x, y in zip(ai[k:], vr, vi)]
        R[k][k] = alpha
        for j in range(k + 1, ncols):
            R[k][j] = (cols[j][0][k], cols[j][1][k])
    return R


def _dot(ar, ai, br, bi):
    """a^H b for Gaussian vectors held as real and imaginary parts, exactly."""
    return (
        sum(map(mul, ar, br)) + sum(map(mul, ai, bi)),
        sum(map(mul, ar, bi)) - sum(map(mul, ai, br)),
    )


def _float_seed(R, F):
    """Right singular vectors of the integer R (scaled by 2^F) by a one-sided Jacobi in floats.

    Returns the columns of V0 as lists of Python complex, orthonormal to
    about 1e-15.  It only seeds the integer sweeps of `_jacobi_svd`, which
    take the same rotations, so it stops after 30 sweeps whether converged
    or not.
    """
    n, scale = len(R), 1 << F
    B = [[complex(R[i][j][0] / scale, R[i][j][1] / scale) for i in range(n)] for j in range(n)]
    W = [[complex(i == j) for i in range(n)] for j in range(n)]
    norms = [sum(map(mul, map(complex.conjugate, b), b)).real for b in B]
    for _ in range(30):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                a, b = norms[p], norms[q]
                g = sum(map(mul, map(complex.conjugate, B[p]), B[q]))
                if abs(g) <= 1e-15 * math.sqrt(a) * math.sqrt(b):
                    continue
                rotated = True
                zeta = (b - a) / (2 * abs(g))
                t = math.copysign(1, zeta) / (abs(zeta) + math.hypot(1, zeta))
                c = 1 / math.hypot(1, t)
                sw = c * t * g.conjugate() / abs(g)
                for M in (B, W):
                    x, y = M[p], M[q]
                    M[p] = [c * u - sw * v for u, v in zip(x, y)]
                    M[q] = [sw.conjugate() * u + c * v for u, v in zip(x, y)]
                norms[p], norms[q] = (sum(map(mul, map(complex.conjugate, x), x)).real for x in (B[p], B[q]))
        if not rotated:
            break
    return W


def _rotate(x, y, cp, sr, si, F):
    """The columns x, y as (re, im) integer lists, rotated to c x - s y and conj(s) x + c y.

    c = 1 - cp 2^-F is real and s = (sr + i si) 2^-F; cp and s are small
    once the sweeps converge, so every product is of a short integer.
    """
    (ur, ui), (xr, xi) = x, y
    return (
        [u + ((si * b - cp * u - sr * a) >> F) for u, a, b in zip(ur, xr, xi)],
        [u + ((-cp * u - sr * b - si * a) >> F) for u, a, b in zip(ui, xr, xi)],
    ), (
        [a + ((sr * u + si * v - cp * a) >> F) for a, u, v in zip(xr, ur, ui)],
        [b + ((sr * v - si * u - cp * b) >> F) for b, u, v in zip(xi, ur, ui)],
    )


def _jacobi_svd(R, F, want_v):
    """The one-sided Jacobi SVD of an upper-triangular integer R: (squared column norms, V).

    R is n x n, rows of (re, im) integer pairs scaled by 2^F.  The columns
    of W, F-bit fixed point, start from the float seed orthonormalized on
    integers (modified Gram-Schmidt, twice) and B = R W.  Then cyclic sweeps
    rotate pairs of B's columns to orthogonality (Hestenes), each rotation
    taken from the exact Gram entries alpha = ||b_p||^2, beta = ||b_q||^2,
    gamma = b_p^H b_q, with gamma's phase read at 2F bits: read from
    gamma cut to F bits, it leaves rotations that are not unitary once
    gamma is small, and V of a seeded rank-9 30 x 12 matrix came out
    orthonormal only to 0.3.  A pair is left alone when |gamma|^2 <= 2^-2(F-16) alpha beta (orthogonal
    to working precision) or |gamma|^2 <= 2^20 (alpha + beta) (rounding
    level), and the sweeps stop after one that rotates no pair.  Returns
    the squared column norms of B = R W, the squared singular values scaled
    by 2^2F, and W's columns as (re, im) lists, or None without `want_v`;
    W is only carried through the sweeps if it is wanted.
    """
    n = len(R)

    def fixed(x):
        return round(math.ldexp(x, 62)) << (F - 62)

    W = [([fixed(x.real) for x in w], [fixed(x.imag) for x in w]) for w in _float_seed(R, F)]
    for _ in range(2):
        for j in range(n):
            wr, wi = W[j]
            for kr, ki in W[:j]:
                cr, ci = (x >> F for x in _dot(kr, ki, wr, wi))
                wr = [a - ((x * cr - y * ci) >> F) for a, x, y in zip(wr, kr, ki)]
                wi = [a - ((x * ci + y * cr) >> F) for a, x, y in zip(wi, kr, ki)]
            norm = math.isqrt(sum(map(mul, wr, wr)) + sum(map(mul, wi, wi)))
            W[j] = [(x << F) // norm for x in wr], [(x << F) // norm for x in wi]
    Rr = [[x for x, _ in row[i:]] for i, row in enumerate(R)]
    Ri = [[-y for _, y in row[i:]] for i, row in enumerate(R)]  # conjugated, for _dot
    B = []
    for wr, wi in W:
        col = [_dot(ar, ai, wr[i:], wi[i:]) for i, (ar, ai) in enumerate(zip(Rr, Ri))]
        B.append(([x >> F for x, _ in col], [y >> F for _, y in col]))
    norms = [sum(map(mul, br, br)) + sum(map(mul, bi, bi)) for br, bi in B]
    tiny, noise, one = 2 * (F - 16), 1 << 20, 1 << F
    for _ in range(64):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                a, b = norms[p], norms[q]
                gr, gi = _dot(*B[p], *B[q])
                g2 = gr * gr + gi * gi
                if (g2 << tiny) <= a * b or g2 <= noise * (a + b):
                    continue
                rotated = True
                g = math.isqrt(g2 << (2 * F))  # |gamma| 2^F, at 2F bits
                d = (b - a) << F
                t = (2 * g << F) // (abs(d) + math.isqrt(d * d + 4 * g * g))  # tan 2^F
                if d < 0:
                    t = -t
                h = math.isqrt((1 << 2 * F) + t * t)  # sec 2^F
                cp, s = one - (1 << 2 * F) // h, (t << F) // h
                # s conj(phase(gamma)) 2^F, the phase read at 2F bits
                sr, si = (s * gr << F) // g, -((s * gi << F) // g)
                B[p], B[q] = _rotate(B[p], B[q], cp, sr, si, F)
                if want_v:
                    W[p], W[q] = _rotate(W[p], W[q], cp, sr, si, F)
                norms[p], norms[q] = (sum(map(mul, x, x)) + sum(map(mul, y, y)) for x, y in (B[p], B[q]))
        if not rotated:
            return norms, W if want_v else None
    raise ArithmeticError("Jacobi SVD: no convergence in 64 sweeps")


def svd_spectrum(rows, prec, V=False):
    """Singular values of the matrix `rows` at prec + GUARD_BITS bits, largest first.

    The package's one SVD, on Python integers at F = prec + 32 bits.  If V
    is an ncols x ncols matrix it receives the conjugated right singular
    vectors as its rows, A = U S V, in the order of the values.  S has
    min(nrows, ncols) values, or ncols if V is asked for.

    The matrix is reduced to the n x n R of a Householder QR on integers
    (`_householder_r`).  A = QR with Q unitary gives A^H A = R^H R, so S
    and V are those of A in exact arithmetic (the R-SVD of Chan, "An
    improved algorithm for computing the singular value decomposition", ACM
    TOMS 1982), and the QR is backward stable (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., ch. 19): it is the SVD of
    A + dA with ||dA|| a small multiple of 2^-F ||A||.  A wide matrix goes
    in as its conjugate transpose (same nonzero singular values), or, if V
    is asked for, with zero rows added to make it square (same V).

    The SVD of R is a cyclic one-sided (Hestenes) complex Jacobi
    (`_jacobi_svd`), the method that Demmel and Veselic ("Jacobi's method
    is more accurate than QR", SIAM J. Matrix Anal. Appl. 13, 1992) show
    to be accurate to the scaled condition of R.  A Jacobi in Python floats
    on R seeds V; its columns, orthonormalized on integers, turn R into
    B = R V0 with nearly orthogonal columns (to about 1e-13 for the 34
    columns of a van Diejen n=2 solve), and the integer sweeps converge
    quadratically from there: on that R of 561 pairs they rotate 561, 561,
    506, 29, 1 and 0 pairs.  From V0 = I they rotate all 561 pairs for
    ten sweeps, and that SVD takes 3.9-4.4 s instead of 1.4 s (2-core VM).
    Each rotation reads its angle from the exact integer Gram entries and
    the phase of gamma at 2F bits, and the sweeps stop after one that finds
    every pair orthogonal to 2^-(F-16) or at rounding level.
    """
    F = prec + 32
    keys = [[point_key(x) for x in row] for row in rows]
    ncols = len(rows[0])
    if len(rows) < ncols and V is not False:
        keys += [[(fzero, fzero)] * ncols] * (ncols - len(rows))
    elif len(rows) < ncols:
        keys = [[(re, mpf_neg(im)) for re, im in col] for col in zip(*keys)]
    cols, exp = _fixed_columns(keys, F)
    norms, W = _jacobi_svd(_householder_r(cols, F), F, V is not False)
    order = sorted(range(len(norms)), key=norms.__getitem__, reverse=True)
    wp = prec + GUARD_BITS
    if W is not None:
        for i, j in enumerate(order):
            for k, (re, im) in enumerate(zip(*W[j])):
                V[i, k] = mp.make_mpc(
                    (from_man_exp(re, -F, wp, round_nearest), from_man_exp(-im, -F, wp, round_nearest))
                )
    return [mp.make_mpf(mpf_sqrt(from_man_exp(norms[j], 2 * exp), wp, round_nearest)) for j in order]


def spectrum_rank(svals, prec):
    """The package's one rank rule: the number of singular values above 2^-(prec//2).

    `svals`, largest first, is the spectrum of a matrix with entries of order
    one, which every caller scales to.  A cut with the last kept value less
    than RANK_GAP times the first dropped one raises ArithmeticError.  In the
    tests and the benchmark, s_max lies between 10^-0.2 and 10^2.6 at nonzero
    rank, and a rank-zero spectrum (conditions that cancel identically) is
    rounding noise, at most 10^-80.2 at 256 bits (10^-79.2 for a test's
    1e-80 noise).  Kept values sit at least 11.9 (96 bits) and 34.8 (256
    bits) decades above the floor, but 33.1 and 31.1 for the van Diejen n=1
    sections that a test breaks by moving x1 by 1e-6 and 1e-8; dropped ones
    sit at least 16.9 and 40.7 below it.  `svd_spectrum` shows a decision's
    margin.
    """
    floor = mpf(2) ** -(prec // 2)
    rank = sum(1 for s in svals if s > floor)
    if 0 < rank < len(svals) and svals[rank - 1] < mp.fmul(RANK_GAP, svals[rank], exact=True):
        raise ArithmeticError(
            "singular value gap ambiguous at the floor %s: %s vs %s" % (floor, svals[rank - 1], svals[rank])
        )
    return rank


def numeric_rank(rows, prec):
    """Rank of the matrix `rows` by `spectrum_rank` of its singular values."""
    return spectrum_rank(svd_spectrum(rows, prec), prec)
