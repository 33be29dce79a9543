"""Constructors for the named operator families.

Covers the first-order spanning family, the degree cascade and its torsion-q
closed form, the formal Fourier kernel and transform, braid-relation checks,
the commuting van Diejen family, the t=0 wedge construction, and the two
trigonometric lowering-operator degenerations.

One builder writes the C_n root factors of every theta coefficient family,
`weyl_denominator`: 1/theta(2 z_i; q)_d for each long root and
theta(t + z_i + z_j; q)_d / theta(z_i + z_j; q)_d for each pair.  Its six
readers are `first_order` (after the u-factors), `d_torsion_closed_form`,
`cascade_leading_expr`, `van_diejen_leading_expr` (between the x-block and
the cross factors), `conditions.first_order_model` (its shared block) and
`_TailSolver._coefficient` (at the moved coordinates y).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from mpmath import mp, mpc, mpf

from .curve import TorsionError, at_context_precision, exact_mpc, memo
from .diffop import (
    DegreeVector,
    DifferenceOperator,
    ExprCoefficient,
    identity_operator,
    mul_scales,
    multiplication_operator,
)
from .formal import (
    FormalGaugedOperator,
    Tail,
    compare_gauged,
    gamma_multiplier,
    gauged_from_operator,
)
from .symbols import AffineForm, GammaProduct, ThetaExpr, zvar

_FRESH = itertools.count()

#: how close to the lattice d q may lie for `d_torsion_closed_form` to call
#: q d-torsion
TORSION_TOL = mpf("1e-6")

#: least distance from the lattice of k q, 1 <= k <= order, for a FourierKernel
TORSION_MARGIN = mpf("1e-8")


def _fresh(name):
    return "%s_%d" % (name, next(_FRESH))


def _as_form(x, name, params):
    """x itself if it is an affine form over the params, else params[name] = x, kept exactly."""
    if isinstance(x, AffineForm):
        return x
    params[name] = exact_mpc(x)
    return AffineForm.var(name)


def weyl_denominator(zs, t, d=1):
    """The factors of prod_i 1/theta(2 z_i; q)_d prod_{i<j} theta(t + z_i + z_j; q)_d / theta(z_i + z_j; q)_d.

    zs are coordinate forms, signed (s_i z_i) or moved (y_i), t is an affine
    form, and theta(x; q)_d = prod_{l<d} theta(x + l q).  The order is each
    long root, then each pair i < j, with l innermost.
    """
    q = AffineForm.var("q")
    factors = [(z * 2 + q * l, -1) for z in zs for l in range(d)]
    for a, b in itertools.combinations(zs, 2):
        for l in range(d):
            factors += [(t + a + b + q * l, 1), (a + b + q * l, -1)]
    return factors


# ---------------------------------------------------------------------------
# first-order family


def first_order(ulist, t, q, n, params=None):
    """The symmetrized first-order operator with shifts T_i^{sigma_i/2}.

    Coefficient at sigma:  prod_i prod_r theta(u_r + s_i z_i)/theta(2 s_i z_i)
    * prod_{i<j} theta(t + s_i z_i + s_j z_j)/theta(s_i z_i + s_j z_j).
    The derived parameter is eta' = sum(u) - q.  Each u (and t) is a number,
    stored exactly under a fresh symbol, or an affine form over the params.
    """
    params = dict(params or {})
    params.setdefault("q", exact_mpc(q))
    if isinstance(t, AffineForm):
        tsym = t
    else:
        params.setdefault("t", exact_mpc(t))
        tsym = AffineForm.var("t")
    usyms = [_as_form(uv, _fresh("u"), params) for uv in ulist]
    coeffs = {}
    for sigma in itertools.product((1, -1), repeat=n):
        zs = [zvar(i + 1) * s for i, s in enumerate(sigma)]
        factors = [(u + z, 1) for z in zs for u in usyms] + weyl_denominator(zs, tsym)
        expr = ThetaExpr(tuple(factors), n)
        key = tuple(Fraction(s, 2) for s in sigma)
        coeffs[key] = ExprCoefficient(expr, params)
    dprime = len(ulist) // 2 - 1
    degree = (DegreeVector(), DegreeVector(0, 1, dprime))
    return DifferenceOperator(n, coeffs, params, degree)


def theta_pm_multiplier(u, n, params, exponent=1):
    """The multiplication operator prod_i theta(z_i + u) theta(z_i - u); u a number or a form."""
    params = dict(params)
    uform = _as_form(u, _fresh("v"), params)
    factors = []
    for i in range(n):
        factors.append((zvar(i + 1) + uform, exponent))
        factors.append((zvar(i + 1) - uform, exponent))
    return multiplication_operator(n, ThetaExpr(tuple(factors), n), params)


# ---------------------------------------------------------------------------
# cascade


def d_cascade(d, q, t, n, u_probe):
    """D_d by the recurrence D_{d+1} = D((d+1)q/2 +- u) D_d prod theta(z_i +- u)^{-1}.

    The result is independent of the probe u; callers are expected to verify
    that at a second probe.  The parameters (d+1)q/2 +- u are affine forms in
    q and the probe's symbol, so the evaluating context forms them.
    """
    params = {"q": exact_mpc(q), "t": exact_mpc(t)}
    probe = _as_form(u_probe, _fresh("v"), params)
    div = theta_pm_multiplier(probe, n, params, exponent=-1)
    op = identity_operator(n, params)
    op = DifferenceOperator(op.n, op.coeffs, op.params, (DegreeVector(0, 0, 0), DegreeVector(0, 0, 0)))
    for level in range(d):
        shift = AffineForm.var("q", Fraction(level + 1, 2))
        head = first_order([shift + probe, shift - probe], t, q, n, params)
        op = head.compose(op).compose(div)
    degree = (DegreeVector(0, 0, d), DegreeVector(0, d, 0))
    return DifferenceOperator(op.n, op.coeffs, op.params, degree)


def cascade_leading_expr(d, n):
    """prod_{i<j} theta(t-z_i-z_j;q)_d / prod_{i<=j} theta(-z_i-z_j;q)_d."""
    zs = [zvar(i) * -1 for i in range(1, n + 1)]
    return ThetaExpr(tuple(weyl_denominator(zs, AffineForm.var("t"), d)), n)


@at_context_precision
def d_torsion_closed_form(d, q, t, n, ctx):
    """Closed form at q of exact order d: only the 2^n extreme shifts survive."""
    if ctx.dist_to_lattice(d * mpc(q)) > TORSION_TOL:
        raise TorsionError("q is not d-torsion within tolerance")
    for k in range(1, d):
        if ctx.dist_to_lattice(k * mpc(q)) < TORSION_TOL:
            raise TorsionError("q has order smaller than d")
    params = {"q": exact_mpc(q), "t": exact_mpc(t)}
    tf = AffineForm.var("t")
    coeffs = {}
    for sigma in itertools.product((1, -1), repeat=n):
        zs = [zvar(i + 1) * s for i, s in enumerate(sigma)]
        expr = ThetaExpr(tuple(weyl_denominator(zs, tf, d)), n)
        key = tuple(Fraction(s * d, 2) for s in sigma)
        coeffs[key] = ExprCoefficient(expr, params)
    degree = (DegreeVector(0, 0, d), DegreeVector(0, d, 0))
    return DifferenceOperator(n, coeffs, params, degree)


# ---------------------------------------------------------------------------
# the formal Fourier kernel


def kernel_head(n, c, t):
    """prod_{i<=j} G(-z_i-z_j)/G(-2c-z_i-z_j) prod_{i<j} G(t-2c-z_i-z_j)/G(t-z_i-z_j)."""
    terms = []
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            arg = zvar(i) * -1 - zvar(j)
            terms.append((arg, 1))
            terms.append((arg - c * 2, -1))
            if j > i:
                terms.append((t + arg - c * 2, 1))
                terms.append((t + arg, -1))
    return GammaProduct(terms=tuple(terms))


class _TailSolver:
    """The defining relation that a FourierKernel's tail entries solve.

    `solve` is the rule of the kernel's tail (`formal.Tail`): it reads the
    lower entries through the tail that `Tail.eval` hands it, so the solver
    holds no tail and a kernel is freed with its last reference.
    """

    def __init__(self, ctx, c_form, t_form, params, n):
        self.ctx, self.c_form, self.t_form, self.params, self.n = ctx, c_form, t_form, params, n
        self._coeffs = {}

    def A(self, sigma, z, mprime, j):
        """Coefficient of D(c +- u; t)|_{u=z_j} at T^{sigma/2}, read at y = z + q mprime.

        An `ExprCoefficient` over the forms c + u = z_j, c - u = 2c - z_j and
        y_i = z_i + m'_i q, memoized per (sigma, mprime, j) and evaluated at z
        on the context's argument table; a denominator theta that vanishes
        raises PoleProximityError naming its divisor.
        """
        coeff = memo(self._coeffs, (sigma, mprime, j), lambda: self._coefficient(sigma, mprime, j))
        return coeff.eval(self.ctx, z)

    def _coefficient(self, sigma, mprime, j):
        """The factors of `first_order` with u-list [z_j, 2c - z_j] at the shift sigma/2, written at y."""
        qf, uj = AffineForm.var("q"), zvar(j + 1)
        us = (uj, self.c_form * 2 - uj)
        ys = [(zvar(i + 1) + qf * mprime[i]) * sigma[i] for i in range(self.n)]
        factors = [(u + y, 1) for y in ys for u in us] + weyl_denominator(ys, self.t_form)
        return ExprCoefficient(ThetaExpr(tuple(factors), self.n), self.params)

    def solve(self, ctx, m, w, tail):
        """e_m(w): 1 at m = 0, else from the defining relation at the pivot coordinate.

        The lower entries e_m'(w) are read from `tail`, the kernel's own.  The
        tail is solved from the kernel's own thetas, so an entry m != 0 asked
        for under another context raises instead of returning this one's value.
        """
        if not any(m):
            return mpc(1)
        if ctx is not self.ctx:
            raise ValueError("a FourierKernel tail evaluates only under the kernel's own context")
        q, n = self.params["q"], self.n
        # pivot: coordinate with m_j >= 1 maximizing |theta(-m_j q)|
        best, j = None, None
        for i in range(n):
            if m[i] >= 1:
                mag = abs(ctx.theta(-m[i] * q))
                if best is None or mag > best:
                    best, j = mag, i
        total = mpc(0)
        pivot = None
        for sigma in itertools.product((1, -1), repeat=n):
            mprime = tuple(m[i] - (1 + sigma[i]) // 2 for i in range(n))
            if any(x < 0 for x in mprime):
                continue
            a = self.A(sigma, w, mprime, j)
            if all(s == -1 for s in sigma):
                pivot = a
            else:
                total += tail.eval(ctx, mprime, w) * a
        return -total / pivot


class FourierKernel(FormalGaugedOperator):
    """The unique formal gauging operator annihilated by D(c +- u)|_{u=z_j}.

    Tail coefficients are solved triangularly in the componentwise order,
    pivoting on the coordinate j maximizing |theta(-m_j q)|: the tail's keys
    are the m with total degree <= order and its one rule is `_TailSolver.solve`.
    `c` and `t` may be given as numbers (a fresh parameter symbol is
    allocated) or as AffineForms over symbols supplied through
    `extra_params`, which lets related kernels share symbols so that
    composite heads stay balanced.
    """

    @at_context_precision
    def __init__(self, ctx, c, q, t, n, order, extra_params=None):
        self.ctx = ctx
        params = {"q": exact_mpc(q)}
        params.update(extra_params or {})
        c_form = _as_form(c, _fresh("c"), params)
        if isinstance(t, AffineForm):
            t_form = t
        else:
            params.setdefault("t", exact_mpc(t))
            t_form = AffineForm.var("t")
        margin = min(ctx.dist_to_lattice(k * mpc(q)) for k in range(1, order + 1)) if order else mpf(1)
        if order and margin < TORSION_MARGIN:
            raise TorsionError("q is numerically torsion up to the truncation order")

        self._solver = _TailSolver(ctx, c_form, t_form, params, n)
        keys = [m for m in itertools.product(range(order + 1), repeat=n) if sum(m) <= order]
        tail = Tail(n, keys, order, self._solver.solve)
        super().__init__(n, kernel_head(n, c_form, t_form), c_form, tail, params)

    def tail_value(self, m, w):
        """e_m(w), read through the tail's memo."""
        return self.tail.eval(self.ctx, m, w)

    def defining_residual(self, z, order=None):
        """Max |coefficient| of D(c) D(c +- u)|_{u=z_j} over tail orders <= order."""
        order = self.order if order is None else order
        with mp.workprec(self.ctx._wp):
            n = self.n
            worst = mpf(0)
            for j in range(n):
                for s_off in itertools.product(range(-1, order + 1), repeat=n):
                    # only test equations whose every contribution is within the
                    # solved truncation (the sigma = -1 vector needs s_off + 1)
                    if sum(s_off) + n > self.order or sum(x + 1 for x in s_off) > order + n:
                        continue
                    total = mpc(0)
                    scale = mpf(0)
                    for sigma in itertools.product((1, -1), repeat=n):
                        mprime = tuple(s_off[i] + (1 - sigma[i]) // 2 for i in range(n))
                        if any(x < 0 for x in mprime):
                            continue
                        term = self.tail_value(mprime, z) * self._solver.A(sigma, z, mprime, j)
                        total += term
                        scale = max(scale, abs(term))
                    if scale > 0:
                        worst = max(worst, abs(total) / scale)
            return worst


# ---------------------------------------------------------------------------
# Fourier transform of a finite operator


@at_context_precision
def fourier_transform(ctx, op, c, d, dprime, order):
    """D-hat = K(c - (d'-d) q/2) . D . K(-c), truncated to the given order.

    `op` must have degree (0, d s + d' f) with eta' = 2c; the kernels are
    solved to order + support width automatically.
    """
    q = op.params["q"]
    n = op.n
    sums = [sum(k) for k in op.support()]
    width = int(max(sums) - min(sums))
    korder = order + width
    params = dict(op.params)
    cf = _as_form(c, _fresh("cF"), params)
    qf = AffineForm.var("q")
    cprime = cf + qf * Fraction(d - dprime, 2)
    K1 = FourierKernel(ctx, cprime, q, AffineForm.var("t"), n, korder, extra_params=params)
    K2 = FourierKernel(ctx, cf * -1, q, AffineForm.var("t"), n, korder, extra_params=params)
    middle = gauged_from_operator(op)
    return K1.compose(middle, order=korder).compose(K2, order=order)


def braid_multiplier(n, a, b, params):
    """prod_i Gamma(a - b +- z_i)/Gamma(a + b +- z_i) for affine forms a, b."""
    terms = []
    for i in range(1, n + 1):
        for sz in (1, -1):
            terms.append((a - b + zvar(i) * sz, 1))
            terms.append((a + b + zvar(i) * sz, -1))
    return gamma_multiplier(n, GammaProduct(terms=tuple(terms)), params)


@at_context_precision
def braid_check(ctx, c, d, t0, q, t, n, order, points):
    """Both sides of the braid identity plus K(c)^{-1} = K(-c).

    Returns (defect_braid, defect_inverse).  c, d, t0 may be numbers or
    affine forms in q (for cascade specializations).
    """
    params = {"q": exact_mpc(q), "t": exact_mpc(t)}
    cf = _as_form(c, "braid_c", params)
    df = _as_form(d, "braid_d", params)
    t0f = _as_form(t0, "braid_t0", params)
    Kcd = FourierKernel(ctx, cf + df, q, AffineForm.var("t"), n, order, extra_params=params)
    Kc = FourierKernel(ctx, cf, q, AffineForm.var("t"), n, order, extra_params=params)
    Kd = FourierKernel(ctx, df, q, AffineForm.var("t"), n, order, extra_params=params)
    left = (
        braid_multiplier(n, t0f, df, params)
        .compose(Kcd, order=order)
        .compose(braid_multiplier(n, t0f, cf, params), order=order)
    )
    right = Kc.compose(braid_multiplier(n, t0f, cf + df, params), order=order).compose(
        Kd, order=order
    )
    defect_braid = compare_gauged(ctx, left, right, points, order=order)
    Kminus = FourierKernel(ctx, cf * -1, q, AffineForm.var("t"), n, order, extra_params=params)
    prod = Kc.compose(Kminus, order=order)
    ident = gamma_multiplier(n, GammaProduct.one(), params)
    defect_inv = compare_gauged(ctx, prod, ident, points, order=order)
    return defect_braid, defect_inv


# ---------------------------------------------------------------------------
# van Diejen family


def van_diejen_leading_expr(m, n):
    """Corner coefficient of the section with leading weight (1^m, 0^{n-m}).

    Factor order: the x-block of each i <= m, then `weyl_denominator` of
    -z_1..-z_m at d = 2 (the long roots of i <= m, then the pairs
    i < j <= m), then the cross factors of i <= m < j.
    """
    q = AffineForm.var("q")
    t = AffineForm.var("t")
    factors = []
    for i in range(1, m + 1):
        for jx in range(1, 9):  # the eight blowup parameters x1..x8
            factors.append((q * Fraction(1, 2) + AffineForm.var("x%d" % jx) - zvar(i), 1))
    factors += weyl_denominator([zvar(i) * -1 for i in range(1, m + 1)], t, 2)
    for i in range(1, m + 1):
        for j in range(m + 1, n + 1):
            for sz in (1, -1):
                factors.append((t - zvar(i) + zvar(j) * sz, 1))
                factors.append((zvar(i) * -1 + zvar(j) * sz, -1))
    return ThetaExpr(tuple(factors), n)


# ---------------------------------------------------------------------------
# the t=0 wedge


def wedge_section(univariate_ops, params):
    """det_{ij} D'_i(z_j) divided by prod_{i<j} theta(z_i +- z_j); needs t = 0.

    The univariate coefficients must be ThetaExpr-backed, so the result
    carries structured coefficients and supports the residue checkers.
    """
    t = mpc(params.get("t", 0))
    if abs(t) > mpf("1e-30"):
        raise ValueError("the wedge construction requires t = 0")
    n = len(univariate_ops)
    if n == 1:
        return univariate_ops[0]
    full = dict(params)
    for op in univariate_ops:
        full.update(op.params)
    denom_factors = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            denom_factors.append((zvar(i) + zvar(j), -1))
            denom_factors.append((zvar(i) - zvar(j), -1))
    denom = ThetaExpr(tuple(denom_factors), n)
    support = {}
    for perm in itertools.permutations(range(n)):
        sign = _perm_sign(perm)
        for combo in itertools.product(*(op.support() for op in univariate_ops)):
            k = [Fraction(0)] * n
            for i in range(n):
                k[perm[i]] += combo[i][0]
            support.setdefault(tuple(k), []).append((sign, perm, combo))
    coeffs = {}
    for k, terms in support.items():
        parts = []
        for sign, perm, combo in terms:
            slot_parts = []
            for i in range(n):
                c = univariate_ops[i].coefficient(combo[i])
                if not isinstance(c, ExprCoefficient):
                    raise ValueError("wedge needs ThetaExpr-backed univariate operators")
                slot_parts.append(
                    [(s, e.substitute({"z1": zvar(perm[i] + 1)})) for s, e, _ in c.parts]
                )
            for choice in itertools.product(*slot_parts):
                expr = denom
                scale = sign
                for s, e in choice:
                    expr = expr * e
                    scale = mul_scales(scale, s)
                parts.append(ExprCoefficient(expr, full, scale))
        coeffs[k] = ExprCoefficient.sum(parts)
    return DifferenceOperator(n, coeffs, full)


def _perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


# ---------------------------------------------------------------------------
# trigonometric degenerations (multiplicative variables, exact rationals)


def lowering_star(n, q, t):
    """The C_n-symmetric lowering operator (multiplicative variables).

    Returns a TrigOperator: sum over sign vectors of
    prod_i z_i^{s_i}/(1-z_i^{2 s_i}) prod_{i<j} (1-t z_i^{s_i} z_j^{s_j})/(1-z_i^{s_i} z_j^{s_j})
    with shifts T_i^{s_i/2}.
    """

    def coeff(sigma, z, tval):
        val = Fraction(1) if isinstance(z[0], Fraction) else mpc(1)
        for i in range(n):
            zi = z[i] if sigma[i] == 1 else 1 / z[i]
            val *= zi / (1 - zi * zi)
        for i in range(n):
            for j in range(i + 1, n):
                zi = z[i] if sigma[i] == 1 else 1 / z[i]
                zj = z[j] if sigma[j] == 1 else 1 / z[j]
                val *= (1 - tval * zi * zj) / (1 - zi * zj)
        return val

    terms = {
        tuple(Fraction(s, 2) for s in sigma): (lambda z, t=t, sigma=sigma: coeff(sigma, z, t))
        for sigma in itertools.product((1, -1), repeat=n)
    }
    return TrigOperator(n, q, terms)


def lowering_starstar(n, q, t):
    """The S_n-symmetric lowering operator of GL-type Macdonald theory."""

    def coeff(I, z, tval):
        one = Fraction(1) if isinstance(z[0], Fraction) else mpc(1)
        val = one * (-1) ** len(I) * tval ** (len(I) * (len(I) - 1) // 2)
        for zi in z:
            val /= zi
        for i in I:
            for j in range(n):
                if j in I:
                    continue
                val *= (z[j] - tval * z[i]) / (z[j] - z[i])
        return val

    terms = {}
    for r in range(n + 1):
        for I in itertools.combinations(range(n), r):
            k = tuple(Fraction(1, 2) if i in I else Fraction(-1, 2) for i in range(n))
            terms[k] = (lambda z, I=I, t=t: coeff(I, z, t))
    return TrigOperator(n, q, terms)


class TrigOperator:
    """Difference operator in multiplicative variables: T_i rescales z_i by q."""

    def __init__(self, n, q, terms):
        self.n = n
        self.q = q
        self.terms = dict(terms)

    def apply_with_sqrt(self, f, z, q_sqrt):
        """Apply using an explicit square root of q for half-integer shifts."""
        total = None
        for k, cf in self.terms.items():
            zz = tuple(z[i] * q_sqrt ** int(2 * k[i]) for i in range(self.n))
            term = cf(z) * f(zz)
            total = term if total is None else total + term
        return total


# ---------------------------------------------------------------------------
# curious kernel identities (n = 2)


@at_context_precision
def hilbert_gauge_identities(ctx, u1, u2, u3, q, tval, c, order, points):
    """The two n=2 kernel identities.

    (i)  K_{q,2u1}(u2-u3) K_{q,2u2}(u3-u1) K_{q,2u3}(u1-u2) = 1;
    (ii) K_{q,t+q}(-c-q/2) K_{q,t}(c) = the first-order operator with pair
         parameter t+2c+q and empty u-list.
    Returns (defect_triple, defect_pair).
    """
    n = 2
    params = {
        name: exact_mpc(x)
        for name, x in (("q", q), ("hu1", u1), ("hu2", u2), ("hu3", u3), ("hc", c), ("ht", tval))
    }
    f1, f2, f3 = AffineForm.var("hu1"), AffineForm.var("hu2"), AffineForm.var("hu3")
    K1 = FourierKernel(ctx, f2 - f3, q, f1 * 2, n, order, extra_params=params)
    K2 = FourierKernel(ctx, f3 - f1, q, f2 * 2, n, order, extra_params=params)
    K3 = FourierKernel(ctx, f1 - f2, q, f3 * 2, n, order, extra_params=params)
    prod = K1.compose(K2, order=order).compose(K3, order=order)
    ident = gamma_multiplier(n, GammaProduct.one(), params)
    defect_triple = compare_gauged(ctx, prod, ident, points, order=order)

    qf = AffineForm.var("q")
    cf, tf = AffineForm.var("hc"), AffineForm.var("ht")
    KA = FourierKernel(ctx, cf * -1 - qf * Fraction(1, 2), q, tf + qf, n, order, extra_params=params)
    KB = FourierKernel(ctx, cf, q, tf, n, order, extra_params=params)
    lhs = KA.compose(KB, order=order)
    target = first_order([], tf + cf * 2 + qf, q, n, params)
    rhs = gauged_from_operator(target)
    defect_pair = compare_gauged(ctx, lhs, rhs, points, order=min(order, 1))
    return defect_triple, defect_pair
