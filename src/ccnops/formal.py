"""Formal gauged operators: Gamma-symbol head times a unit tail.

An element is  Gamma(z) * T_w(c) * sum_m e_m(z) T^m  with integer tail keys,
where T_w(c) translates every variable by c.  The tail lives in the
completion where |sum c_k T^k| = max exp(-sum k_i); truncation keeps offsets
with total degree <= order above the support corner.

A tail is its keys, in order, and one rule: rule(ctx, k, z, tail) is e_k(z).
`Tail.eval` runs it under the context's precision and memoizes the value per
(context, key, exact point).  The rule receives its tail as an argument, so
a rule that reads its own lower entries (a `families.FourierKernel`'s) never
holds the tail, and a kernel, its tail and its context go with their last
reference rather than waiting for the cycle collector.  A rule that reads
another tail (`compose`, `rebased`) holds that one, so it stays alive while
it is read.

A Gamma head commutes through a tail key m as the ratio
rho_m(z) = Gamma(z + q m) / Gamma(z), resolved to a ThetaExpr; a ratio that
does not resolve raises `symbols.UnbalancedError`.  The ratios of
`compose` and the ratio of two heads in `compare_gauged` are
`diffop.ExprCoefficient`s, so they are read on the context's compiled
argument table (`factors`) like every finite coefficient.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp, mpc, mpf

from .curve import at_context_precision, memo, point_key
from .diffop import ExprCoefficient, shift_point
from .symbols import AffineForm, GammaProduct, zvar


class Tail:
    """Integer-keyed coefficients given by one rule; values memoized per (context, key, exact point)."""

    def __init__(self, n, keys, order, rule):
        self.n = n
        self.keys = tuple(keys)  # key tuples, in the order sums over them run
        self.order = order  # reliable total degree above the corner
        self.rule = rule  # rule(ctx, k, z, tail) -> e_k(z)
        self._memo = {}

    def corner(self):
        if not self.keys:
            return (0,) * self.n
        return tuple(min(k[i] for k in self.keys) for i in range(self.n))

    def keys_within(self, order=None):
        order = self.order if order is None else min(order, self.order)
        base = self.corner()
        return sorted(
            k for k in self.keys if sum(k) - sum(base) <= order
        )

    def eval(self, ctx, k, z):
        k = tuple(k)
        if k not in self.keys:
            return mpc(0)

        def compute():
            with mp.workprec(ctx._wp):
                return self.rule(ctx, k, z, self)

        return memo(self._memo, (ctx, k, tuple(map(point_key, z))), compute)


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
        tail1, tail2 = self.tail, other.tail
        # rho_m(z) = resolve(Gamma2(z + q m) / Gamma2(z)) for the keys of our tail
        rho = {m: ExprCoefficient(other.gamma.shift_ratio(m, n), params) for m in tail1.keys}
        # new tail: [self.tail * rho], shifted by other's c, times other.tail
        pairs = {}
        base = tuple(a + b for a, b in zip(tail1.corner(), tail2.corner()))
        for m1 in tail1.keys:
            for m2 in tail2.keys:
                k = tuple(a + b for a, b in zip(m1, m2))
                if sum(k) - sum(base) <= order:
                    pairs.setdefault(k, []).append((m1, m2))

        def rule(ctx, k, z, tail):
            # F1 F2 = Gamma1 Gamma2^{(c1)} T(c1+c2) D1'' D2 with
            # D1''_m(z) = e1_m(z - c2) rho_m(z - c2) and
            # (D1'' D2)_k(z) = sum d1''_{m1}(z) d2_{m2}(z + q m1).
            c2 = other.c_value(ctx)
            zc = tuple(w - c2 for w in z)
            total = mpc(0)
            for m1, m2 in pairs[k]:
                v = tail1.eval(ctx, m1, zc)
                if v == 0:
                    continue
                v *= rho[m1].eval(ctx, zc)
                v *= tail2.eval(ctx, m2, shift_point(z, q, m1))
                total += v
            return total

        shift_assign = {"z%d" % (i + 1): zvar(i + 1) + self.c_form for i in range(n)}
        gamma = self.gamma * other.gamma.substitute(shift_assign)
        return FormalGaugedOperator(
            n, gamma, self.c_form + other.c_form, Tail(n, pairs, order, rule), params
        )

    def rebased(self, r):
        """Rewrite with global shift c - r*q by moving T(q r) into the tail keys."""
        r = int(r)
        if r == 0:
            return self
        n, q, source = self.n, self.params["q"], self.tail

        def rule(ctx, k, z, tail):
            return source.eval(ctx, tuple(x - r for x in k), shift_point(z, q, (r,) * n))

        keys = [tuple(x + r for x in m) for m in source.keys]
        c_form = self.c_form - AffineForm.var("q") * r
        return FormalGaugedOperator(n, self.gamma, c_form, Tail(n, keys, source.order, rule), self.params)


def gauged_from_operator(op):
    """Lift a finite difference operator to a trivial-head gauged operator.

    The support shares one parity class (`DifferenceOperator` refuses any
    other), so its keys less par, the leading key's first entry less its
    integer part, are integers and the global shift is q par.  `op.parity`
    differs from par by 1 for a negative leading key, which would move the
    keys and c by one step of q.
    """
    n, q = op.n, op.params["q"]
    keys = op.support()
    par = keys[0][0] - int(keys[0][0]) if keys else Fraction(0)
    shifts = {tuple(int(x - par) for x in k): k for k in keys}

    def rule(ctx, m, z, tail):
        return op.coefficient(shifts[m]).eval(ctx, shift_point(z, q, (-par,) * n))

    tail = Tail(n, shifts, mp.inf, rule)
    return FormalGaugedOperator(n, GammaProduct.one(), AffineForm.var("q") * par, tail, op.params)


def gamma_multiplier(n, gamma, params):
    """A pure Gamma-symbol gauge as a formal gauged operator (unit tail)."""
    unit = Tail(n, [(0,) * n], mp.inf, lambda ctx, k, z, tail: mpc(1))
    return FormalGaugedOperator(n, gamma, AffineForm.const_form(0), unit, params)


@at_context_precision
def compare_gauged(ctx, F1, F2, points, order=None):
    """Max over the points of the largest coefficient difference over the largest |coefficient|.

    At each point the tail coefficients of F1 (times the heads' ratio) and
    of F2 are compared over the keys within the order, and the largest
    |difference| is measured against the largest |coefficient| compared
    there, so a coefficient that is 0 in one operator reads its rounding
    against the operator's scale.  A NaN coefficient makes the result inf:
    it compares False with everything, so a max would drop it.  The heads'
    ratio must be balanced (`symbols.UnbalancedError` otherwise); it is
    resolved and folded into the comparison, so the two operators may carry
    different-looking heads.
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
        if any(mp.isnan(x) for pair in pairs for x in pair):
            return mp.inf
        scale = max((max(abs(a), abs(b)) for a, b in pairs), default=0)
        if scale:
            worst = max(worst, max(abs(a - b) for a, b in pairs) / scale)
    return worst
