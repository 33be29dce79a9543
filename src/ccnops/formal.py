"""Formal gauged operators: Gamma-symbol head times a unit tail.

An element is  Gamma(z) * T_w(c) * sum_m e_m(z) T^m  with integer tail keys,
where T_w(c) translates every variable by c.  The tail lives in the
completion where |sum c_k T^k| = max exp(-sum k_i); truncation keeps offsets
with total degree <= order above the support corner.

A Gamma head commutes through a tail key m as the ratio
rho_m(z) = Gamma(z + q m) / Gamma(z), resolved to a ThetaExpr; a ratio that
does not resolve raises `symbols.UnbalancedError`.  The ratios of
`compose` and `invert`, and the ratio of two heads in `compare_gauged`, are
`diffop.ExprCoefficient`s, so they are read on the context's compiled
argument table (`factors`) like every finite coefficient.
"""

from __future__ import annotations

import itertools
import weakref
from fractions import Fraction

from mpmath import mp, mpc, mpf

from .curve import at_context_precision, memo, point_key
from .diffop import ExprCoefficient, shift_point
from .symbols import AffineForm, GammaProduct, zvar


class Tail:
    """Integer-keyed coefficient map; values memoized per (context, key, exact point)."""

    def __init__(self, n, entries, order):
        self.n = n
        self.entries = dict(entries)  # key tuple -> fn(ctx, z) or 1
        self.order = order  # reliable total degree above the corner
        self._memo = {}

    def corner(self):
        if not self.entries:
            return (0,) * self.n
        return tuple(min(k[i] for k in self.entries) for i in range(self.n))

    def keys_within(self, order=None):
        order = self.order if order is None else min(order, self.order)
        base = self.corner()
        return sorted(
            k for k in self.entries if sum(k) - sum(base) <= order
        )

    def eval(self, ctx, k, z):
        fn = self.entries.get(tuple(k))
        if fn is None:
            return mpc(0)
        if fn == 1:
            return mpc(1)

        def compute():
            with mp.workprec(ctx._wp):
                return fn(ctx, z)

        return memo(self._memo, (ctx, tuple(k), tuple(map(point_key, z))), compute)


class _InverseSolver:
    """The recursion that the tail entries of `FormalGaugedOperator.invert` solve.

    With G = Gamma(z-c)^{-1} T(-c) D', F*G has tail U * D' where
    U_m(z) = e_m(z + c) rho_m(z + c), rho the inverse head's ratios as
    `ExprCoefficient`s; the inverse tail's entry m is
    -sum_l U_l(z) D'_(m-l)(z + q l) over the nonzero keys l <= m, read
    through the inverse tail's own memo.  The solver holds the
    source tail and the operator's global shift, not the operator, and the
    inverse tail only through the weak reference of `solved_tail`.
    """

    def __init__(self, source, rho, c_form, params, q):
        self.source, self.rho, self.c_form, self.params, self.q = source, rho, c_form, params, q
        self.tail = None  # weakref.ref to the inverse tail (`solved_tail`)

    def _u(self, ctx, m, z):
        c = self.c_form.eval(self.params, ctx._wp)
        zc = tuple(w + c for w in z)
        v = self.source.eval(ctx, m, zc)
        if v == 0:
            return v
        return v * self.rho[m].eval(ctx, zc)

    def solve(self, ctx, m, z):
        """D'_m(z) for a nonzero key m."""
        inverse = self.tail()
        total = mpc(0)
        for l in self.source.entries:
            if all(x == 0 for x in l) or any(a > b for a, b in zip(l, m)):
                continue
            rest = tuple(a - b for a, b in zip(m, l))
            total += self._u(ctx, l, z) * inverse.eval(ctx, rest, shift_point(z, self.q, l))
        return -total


def unit_tail(n, order):
    return Tail(n, {(0,) * n: 1}, order)


def solved_tail(n, order, solver):
    """The tail of total degree <= order with 1 at key 0 and solver.solve(ctx, m, z) at every other key m.

    The solver gets the tail only as a weak reference, `solver.tail`: its
    entries hold the solver, so a strong reference made a reference cycle
    that kept the tail, its operator and, for a `families.FourierKernel`,
    its context with every memo alive until a full garbage collection.  An
    entry runs from its own tail's `eval`, or from a `rebased` copy, which
    keeps the tail; so the tail is alive whenever the solver reads it.
    """
    entries = {}
    for m in itertools.product(range(order + 1), repeat=n):
        if sum(m) <= order:
            entries[m] = (lambda ctx, z, m=m: solver.solve(ctx, m, z)) if any(m) else 1
    tail = Tail(n, entries, order)
    solver.tail = weakref.ref(tail)
    return tail


class FormalGaugedOperator:
    """head (GammaProduct, global shift form) times a degree-truncated tail."""

    def __init__(self, n, gamma, c_form, tail, params):
        self.n = n
        self.gamma = gamma
        self.c_form = c_form if isinstance(c_form, AffineForm) else AffineForm.const_form(c_form)
        self.tail = tail
        self.params = dict(params)

    def c_value(self, ctx):
        """The global shift c at the parameter values, rounded to the context's working precision."""
        return self.c_form.eval(self.params, ctx._wp)

    @property
    def order(self):
        return self.tail.order

    # -- composition --------------------------------------------------------

    def compose(self, other, order=None):
        """self * other; Gamma symbols are commuted through tails symbolically."""
        if self.n != other.n:
            raise ValueError("arity mismatch")
        n = self.n
        params = dict(other.params)
        params.update(self.params)
        q = params["q"]
        order = min(
            self.tail.order,
            other.tail.order,
        ) if order is None else order
        # rho_m(z) = resolve(Gamma2(z + q m) / Gamma2(z)) for the keys of our tail
        rho = {m: ExprCoefficient(other.gamma.shift_ratio(m, n), params) for m in self.tail.entries}
        # new tail: [self.tail * rho], shifted by other's c, times other.tail
        entries = {}
        base1 = self.tail.corner()
        base2 = other.tail.corner()
        base = tuple(a + b for a, b in zip(base1, base2))
        for m1 in self.tail.entries:
            for m2 in other.tail.entries:
                k = tuple(a + b for a, b in zip(m1, m2))
                if sum(k) - sum(base) > order:
                    continue
                entries.setdefault(k, []).append((m1, m2))

        tail1, tail2 = self.tail, other.tail

        def make(pairs):
            # F1 F2 = Gamma1 Gamma2^{(c1)} T(c1+c2) D1'' D2 with
            # D1''_m(z) = e1_m(z - c2) rho_m(z - c2) and
            # (D1'' D2)_k(z) = sum d1''_{m1}(z) d2_{m2}(z + q m1).
            def fn(ctx, z, pairs=pairs):
                c2 = other.c_value(ctx)
                total = mpc(0)
                for m1, m2 in pairs:
                    zc = tuple(w - c2 for w in z)
                    v = tail1.eval(ctx, m1, zc)
                    if v == 0:
                        continue
                    v *= rho[m1].eval(ctx, zc)
                    v *= tail2.eval(ctx, m2, shift_point(z, q, m1))
                    total += v
                return total

            return fn

        new_entries = {k: make(pairs) for k, pairs in entries.items()}
        shift_assign = {"z%d" % (i + 1): zvar(i + 1) + self.c_form for i in range(n)}
        gamma = self.gamma * other.gamma.substitute(shift_assign)
        return FormalGaugedOperator(
            n, gamma, self.c_form + other.c_form, Tail(n, new_entries, order), params
        )

    def invert(self, order=None):
        """Formal inverse; the tail constant term must be a unit (it is 1)."""
        n = self.n
        order = self.tail.order if order is None else order
        if order > self.tail.order:
            raise ValueError("truncation order exceeds available tail data")
        base = self.tail.corner()
        if any(base):
            raise ValueError("inversion requires a unit tail based at 0")
        params = self.params
        q = params["q"]
        # U = tail twisted by its own head's ratios, shifted by -c:
        # from F*G = Gamma*Gamma'(..)*T(0)*[U * tailG] with U_m(z) = e_m(z-c+?) …
        # Solving F*G=1 with G = (Gamma(z-c))^{-1} T(-c) D' gives
        # U_m(z) = e_m(z - c) * rho_m(z - c) where rho_m resolves
        # Gamma'(z+qm)/Gamma'(z) for Gamma' = Gamma(z - c)^{-1}.
        shift_minus_c = {"z%d" % (i + 1): zvar(i + 1) - self.c_form for i in range(n)}
        gamma_inv = self.gamma.substitute(shift_minus_c).inverse()
        rho = {m: ExprCoefficient(gamma_inv.shift_ratio(m, n), params) for m in self.tail.entries}

        if self.tail.entries.get((0,) * n) != 1:
            raise ValueError("inversion requires tail constant term exactly 1")

        inverse = solved_tail(n, order, _InverseSolver(self.tail, rho, self.c_form, params, q))
        return FormalGaugedOperator(n, gamma_inv, self.c_form * -1, inverse, params)

    def rebased(self, r):
        """Rewrite with global shift c - r*q by moving T(q r) into the tail keys."""
        r = int(r)
        if r == 0:
            return self
        n = self.n
        q = self.params["q"]
        entries = {}
        for m, fn in self.tail.entries.items():
            key = tuple(x + r for x in m)
            if fn == 1:
                def fn2(ctx, z):
                    return mpc(1)
            else:
                # the source tail stays alive while its entries run (see `solved_tail`)
                def fn2(ctx, z, fn=fn, source=self.tail):
                    return fn(ctx, shift_point(z, q, (r,) * n))
            entries[key] = fn2
        c_form = self.c_form - AffineForm.var("q") * r
        return FormalGaugedOperator(n, self.gamma, c_form, Tail(n, entries, self.tail.order), self.params)


def gauged_from_operator(op):
    """Lift a finite difference operator to a trivial-head gauged operator."""
    n = op.n
    keys = op.support()
    par = keys[0][0] - int(keys[0][0]) if keys else Fraction(0)
    for k in keys:
        for x in k:
            if (x - par).denominator != 1:
                raise ValueError("support not in a single parity coset")
    cpar = AffineForm.var("q") * par
    entries = {}
    for k in keys:
        m = tuple(int(x - par) for x in k)

        def fn(ctx, z, k=k):
            return op.coefficient(k).eval(ctx, shift_point(z, op.params["q"], (-par,) * n))

        entries[m] = fn
    return FormalGaugedOperator(n, GammaProduct.one(), cpar, Tail(n, entries, mp.inf), op.params)


def gamma_multiplier(n, gamma, params):
    """A pure Gamma-symbol gauge as a formal gauged operator (unit tail)."""
    return FormalGaugedOperator(n, gamma, AffineForm.const_form(0), unit_tail(n, mp.inf), params)


@at_context_precision
def compare_gauged(ctx, F1, F2, points, order=None):
    """Max over the points of the largest coefficient difference over the largest |coefficient|.

    At each point the tail coefficients of F1 (times the heads' ratio) and
    of F2 are compared over the keys within the order, and the largest
    |difference| is measured against the largest |coefficient| compared
    there, so a coefficient that is 0 in one operator reads its rounding
    against the operator's scale.  The heads' ratio must be balanced
    (`symbols.UnbalancedError` otherwise); it is resolved and folded into
    the comparison, so the two operators may carry different-looking heads.
    """
    c1, c2 = F1.c_value(ctx), F2.c_value(ctx)
    if abs(c1 - c2) > mpf("1e-20"):
        q = mpc(F1.params["q"])
        r = (c1 - c2) / q
        rint = mp.nint(r.real)
        if abs(r - rint) > mpf("1e-20"):
            raise ValueError("gauged operators with different global shifts")
        F1 = F1.rebased(int(rint))
    ratio = ExprCoefficient((F1.gamma * F2.gamma.inverse()).reduce(arity=F1.n), {**F1.params, **F2.params})
    order = min(F1.order, F2.order) if order is None else order
    keys = set(F1.tail.keys_within(order)) | set(F2.tail.keys_within(order))
    c = F1.c_value(ctx)
    worst = mpf(0)
    for z in points:
        r = ratio.eval(ctx, z)
        zc = tuple(w + c for w in z)
        pairs = [(r * F1.tail.eval(ctx, k, zc), F2.tail.eval(ctx, k, zc)) for k in keys]
        scale = max((max(abs(a), abs(b)) for a, b in pairs), default=0)
        if scale:
            worst = max(worst, max(abs(a - b) for a, b in pairs) / scale)
    return worst
