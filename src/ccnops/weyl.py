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
the margin of a decision is read from `singular_values`.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from mpmath import matrix, mp, mpc, mpf
from mpmath.libmp import mpc_add, mpc_mul, mpc_zero, round_nearest
from mpmath.matrices.eigen_symmetric import svd_c_raw

from .curve import GUARD_BITS, CurveContext, at_context_precision, point_key

#: least ratio between the last singular value `spectrum_rank` keeps, above
#: the floor 2^-(prec//2) for entries of order one (s_max 10^-0.2 to 10^2.6 at
#: nonzero rank in the tests and the benchmark), and the first it drops; a
#: smaller one raises ArithmeticError.  Margins are read from `singular_values`.
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

    kind: "sum" (z_i+z_j), "diff" (z_i-z_j), "double" (2 z_i), "single" (z_i).
    """

    kind: str
    i: int
    j: int  # unused for double/single
    level: int

    def pairing(self, lam):
        if self.kind == "sum":
            return lam[self.i] + lam[self.j]
        if self.kind == "diff":
            return lam[self.i] - lam[self.j]
        if self.kind == "double":
            return 2 * lam[self.i]
        return lam[self.i]


def positive_finite_roots(n, filter="D"):
    """Positive roots of the requested type.

    filter "D": z_i +- z_j (i<j); "C": D plus 2 z_i; "B": D plus z_i;
    "all": D plus z_i plus 2 z_i.
    """
    roots = []
    for i in range(n):
        for j in range(i + 1, n):
            roots.append(AffineRoot("diff", i, j, 0))
            roots.append(AffineRoot("sum", i, j, 0))
    if filter in ("C", "all"):
        roots.extend(AffineRoot("double", i, 0, 0) for i in range(n))
    if filter in ("B", "all"):
        roots.extend(AffineRoot("single", i, 0, 0) for i in range(n))
    return roots


def inversion_set(lam, filter="D"):
    """Positive affine roots of the given type sent negative by t_lam.

    For each positive finite root beta with c = <beta, lam> > 0, the levels
    0 <= m < c appear.
    """
    lam = as_weight(lam)
    n = len(lam)
    out = []
    for root in positive_finite_roots(n, filter):
        c = root.pairing(lam)
        if c <= 0:
            continue
        m = 0
        while m < c:
            out.append(AffineRoot(root.kind, root.i, root.j, m))
            m += 1
    return out


def inversion_set_bruteforce(lam, filter="D", max_level=None):
    """Oracle: explicit sign check of t_lam on affine roots of bounded level."""
    lam = as_weight(lam)
    n = len(lam)
    if max_level is None:
        max_level = int(2 * max([abs(x) for x in lam] + [Fraction(1)])) + 2
    out = []
    for root in positive_finite_roots(n, filter):
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


def _int_powers(x, K):
    """[x^0, ..., x^K, x^-K, ..., x^-1], so that x^k sits at index k for -K <= k <= K."""
    up, down = [mpc(1)], [mpc(1)]
    xinv = 1 / x
    for _ in range(K):
        up.append(up[-1] * x)
        down.append(down[-1] * xinv)
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

    with z-free weights w(c, m) = e(m^T Q m tau/2), one e call per term per
    call.  Along a row, m_1..m_(n-1) fixed and m_n rising by 1, k rises by
    Q e_n, so consecutive terms differ by the factor y = prod_j e(z_j)^(Q_jn)
    besides their weights.  Per point, a row of weights w_0..w_(L-1) from
    its first point m is

        prod_j e(z_j)^(k_j(m)) * (w_0 + y (w_1 + y (w_2 + ...))),

    by Horner in y: one multiply and one add per term, and n multiplies per
    row from the integer-power tables of e(z_j).
    """
    n = len(Q)
    Q = [[int(x) for x in row] for row in Q]
    elements = discriminant_group(Q)
    d = math.lcm(*(x.denominator for c in elements for x in c))
    im_tau = ctx.tau.imag
    rho = mp.sqrt((ctx.prec + 32) * mp.ln2 / (mp.pi * im_tau))
    S = mpf(0)
    for z in points:
        u = [mp.im(zj) / im_tau for zj in z]
        S = max(S, mp.sqrt(sum(u[i] * Q[i][j] * u[j] for i in range(n) for j in range(n))))
    bound = int(mp.floor(d * d * (rho + 2 * S) ** 2))
    half_tau = ctx.tau / 2
    col = [Q[j][n - 1] for j in range(n)]
    terms = []  # per c, per row: (k at the row's first point, weights last to first)
    for ellipsoid in _ellipsoid_rows(Q, d, bound, [[int(d * x) for x in c] for c in elements]):
        rows = []
        for M, L in ellipsoid:
            k = [sum(Q[i][j] * M[j] for j in range(n)) // d for i in range(n)]
            mk, kn, ws = sum(Mi * ki for Mi, ki in zip(M, k)), k[-1], []  # mk = d m^T Q m
            for _ in range(L):
                ws.append(ctx.e(mk * half_tau / d)._mpc_)
                # m_n -> m_n + 1: d m^T Q m grows by d (2 k_n + Q_nn), k_n by Q_nn
                mk += d * (2 * kn + col[-1])
                kn += col[-1]
            rows.append((k, ws[-1], ws[-2::-1]))
        terms.append(rows)
    Ks = [max([abs(col[j])] + [abs(k[j]) for rows in terms for k, _, _ in rows]) for j in range(n)]
    prec = ctx._wp
    values = [[] for _ in terms]
    for z in points:
        powers = [[p._mpc_ for p in _int_powers(ctx.e(zj), K)] for zj, K in zip(z, Ks)]
        y = powers[0][col[0]]
        for pj, qj in zip(powers[1:], col[1:]):
            y = mpc_mul(y, pj[qj], prec, round_nearest)
        for out, rows in zip(values, terms):
            total = mpc_zero
            for k, acc, rest in rows:
                for w in rest:
                    acc = mpc_add(mpc_mul(acc, y, prec, round_nearest), w, prec, round_nearest)
                for pj, kj in zip(powers, k):
                    acc = mpc_mul(acc, pj[kj], prec, round_nearest)
                total = mpc_add(total, acc, prec, round_nearest)
            out.append(mp.make_mpc(total))
    return values


@at_context_precision
def theta_symmetrization_rows(Q, gens, ctx):
    """The group average of the theta basis at |Q^-1 Z^n / Z^n| + 3 seeded points.

    One row per c of the discriminant group, one column per point.
    """
    n = len(Q)
    group = [tuple(tuple(int(x) for x in row) for row in g) for g in group_closure(gens)] if gens else [tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))]
    rng = random.Random(20240601)
    pts = []
    for _ in range(len(discriminant_group(Q)) + 3):
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
    vals = theta_basis_values(Q, [gz for _, gz in gpts.values()], ctx)
    return [[sum((row[col] for col in cols), mpc(0)) / len(group) for cols in index] for row in vals]


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


def svd_spectrum(rows, prec, V=False):
    """Singular values of the matrix `rows` at prec + GUARD_BITS bits, largest first.

    The package's one SVD: mpmath's `svd_c` kernel without the U that no
    caller reads.  If V is an ncols x ncols matrix it receives the right
    singular vectors as its rows, in the order of the values.
    """
    with mp.workprec(prec + GUARD_BITS):
        A = matrix(rows)
        S = svd_c_raw(mp, A, V, calc_u=False)
        return [abs(S[i]) for i in range(min(A.rows, A.cols))]


def singular_values(rows, prec=192):
    """Singular values of the matrix `rows` at prec + GUARD_BITS bits, largest first."""
    return svd_spectrum(rows, prec)


def spectrum_rank(svals, prec):
    """The package's one rank rule: the number of singular values above 2^-(prec//2).

    `svals`, largest first, is the spectrum of a matrix with entries of order
    one, which every caller scales to.  A cut with the last kept value less
    than RANK_GAP times the first dropped one raises ArithmeticError.  In the
    tests and the benchmark, s_max lies between 10^-0.2 and 10^2.6 at nonzero
    rank, and a rank-zero spectrum (conditions that cancel identically) is
    rounding noise, at most 10^-80 at 256 bits.  Kept values sit at least 11.9
    (96 bits) and 34.8 (256 bits) decades above the floor, dropped ones at
    least 16.8 and 41.5 below it; `singular_values` shows a decision's margin.
    """
    floor = mpf(2) ** -(prec // 2)
    rank = sum(1 for s in svals if s > floor)
    if 0 < rank < len(svals) and svals[rank - 1] < mp.fmul(RANK_GAP, svals[rank], exact=True):
        raise ArithmeticError(
            "singular value gap ambiguous at the floor %s: %s vs %s" % (floor, svals[rank - 1], svals[rank])
        )
    return rank


def numeric_rank(rows, prec=192):
    """Rank of the matrix `rows` by `spectrum_rank` of its singular values."""
    return spectrum_rank(singular_values(rows, prec), prec)
