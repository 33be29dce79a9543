"""Hyperoctahedral / affine type-C combinatorics on weights and roots.

Weights are tuples of rationals sharing a parity class (all integral or all
half-integral).  Two partial orders are exposed:

* the root-lattice dominance order (`dominance_leq`): integral difference
  with even coordinate sum and nonnegative partial sums;
* the coroot order (`coroot_leq`): integral difference with nonnegative
  partial sums only.

Bruhat intervals can be taken in either lattice; the section solver uses the
coroot one, which is the order in which single coordinates may drop by 1.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from mpmath import matrix, mp, mpc, mpf

from .curve import CurveContext, point_key


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
    box = int(mp.sqrt(bound * n)) + 2
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


def _theta_radius(Q, ctx):
    """Truncation radius B of the theta sums: m - c runs over the box [-B, B]^n."""
    with mp.workprec(ctx.prec + 16):
        lam_min = min(mp.re(x) for x in mp.eigsy(_mp_matrix(Q), eigvals_only=True))
        return int(mp.sqrt((ctx.prec + 32) * mp.log(2) * 2 / (lam_min * 2 * mp.pi * ctx.tau.imag))) + 2


def _int_powers(x, K):
    """[x^0, ..., x^K, x^-K, ..., x^-1], so that x^k sits at index k for -K <= k <= K."""
    up, down = [mpc(1)], [mpc(1)]
    xinv = 1 / x
    for _ in range(K):
        up.append(up[-1] * x)
        down.append(down[-1] * xinv)
    return up + down[:0:-1]


def theta_basis_values(Q, points, ctx):
    """The degree-Q theta basis at `points`: one row per c of `discriminant_group(Q)`.

    f_c(z) = sum_{m in Z^n + c} e(m^T Q m tau/2 + m^T Q z), truncated to m - c
    in [-B, B]^n and summed at prec + 16 bits.  With k = Qm, an integer vector
    (Qc is integral for c in Q^{-1} Z^n), each term is

        e(m^T Q m tau/2 + m^T Q z) = w(c, m) * prod_j e(z_j)^(k_j),

    so the z-free weights w(c, m) = e(m^T Q m tau/2) cost one e call per
    (c, m), with m^T Q m exact, and each point costs one e call per
    coordinate; the powers come by repeated multiplication.
    """
    n = len(Q)
    Q = [[int(x) for x in row] for row in Q]
    B = _theta_radius(Q, ctx)
    box = list(itertools.product(range(-B, B + 1), repeat=n))
    with mp.workprec(ctx.prec + 16):
        half_tau = ctx.tau / 2
        terms = []  # per c: (w(c, m), Qm) for m - c in the box
        for c in discriminant_group(Q):
            qc = [int(sum(Q[i][j] * c[j] for j in range(n))) for i in range(n)]
            row = []
            for m0 in box:
                k = tuple(qc[i] + sum(Q[i][j] * m0[j] for j in range(n)) for i in range(n))
                quad = sum((m0[i] + c[i]) * k[i] for i in range(n))
                row.append((ctx.e(quad.numerator * half_tau / quad.denominator), k))
            terms.append(row)
        K = max(abs(x) for row in terms for _, k in row for x in k)
        values = [[] for _ in terms]
        for z in points:
            powers = [_int_powers(ctx.e(zj), K) for zj in z]
            for out, row in zip(values, terms):
                total = mpc(0)
                for w, k in row:
                    for pj, kj in zip(powers, k):
                        w *= pj[kj]
                    total += w
                out.append(total)
    return values


def theta_symmetrization_rows(Q, gens, ctx, samples=None):
    """The group average of the theta basis at seeded points: one row per c, one column per point."""
    n = len(Q)
    group = [tuple(tuple(int(x) for x in row) for row in g) for g in group_closure(gens)] if gens else [tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))]
    samples = samples or (len(discriminant_group(Q)) + 3)
    rng = random.Random(20240601)
    pts = []
    for _ in range(samples):
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


def theta_symmetrization_rank(Q, gens, ctx=None, samples=None, gap=mpf("1e6")):
    """Oracle for `invariant_dimension`: numeric rank of the symmetrizer.

    The degree-Q theta bundle on E^n has the basis f_c of
    `theta_basis_values`, indexed by the discriminant group Q^{-1} Z^n / Z^n.
    Each c lies in Q^{-1} Z^n, so Qc is an integer vector and so is k = Qm for
    every m in Z^n + c; hence e(m^T Q z) = prod_j e(z_j)^(k_j), and every term
    of f_c(z) is a z-free weight e(m^T Q m tau/2) times integer powers of
    e(z_j).  The basis is averaged over the group at seeded points and the
    rank of that value matrix is read from its singular value gap.
    """
    ctx = ctx or CurveContext(mpc("0.06", "1.13"), 96)
    return numeric_rank(theta_symmetrization_rows(Q, gens, ctx, samples), gap=gap, prec=ctx.prec)


def _mp_matrix(Q):
    n = len(Q)
    A = matrix(n, n)
    for i in range(n):
        for j in range(n):
            A[i, j] = Q[i][j]
    return A


def singular_values(rows, prec=192):
    """Singular values of the matrix `rows` at prec + 16 bits, largest first."""
    with mp.workprec(prec + 16):
        A = matrix(len(rows), len(rows[0]))
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                A[i, j] = v
        S = mp.svd_c(A, compute_uv=False)
        return sorted((abs(S[i]) for i in range(len(S))), reverse=True)


def numeric_rank(rows, gap=mpf("1e6"), prec=192):
    """Rank detection by singular-value gap at multiprecision."""
    svals = singular_values(rows, prec)
    if not svals or svals[0] == 0:
        return 0
    with mp.workprec(prec + 16):
        for r in range(1, len(svals)):
            if svals[r] == 0 or svals[r - 1] / max(svals[r], mpf("1e-99999")) > gap:
                return r
    return len(svals)
