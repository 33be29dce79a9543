"""Formal gauged operators: Gamma-symbol head times a unit tail.

An element is  Gamma(z) * T_w(c) * sum_m e_m(z) T^m  with integer tail keys,
where T_w(c) translates every variable by c.  The tail lives in the
completion where |sum c_k T^k| = max exp(-sum k_i); truncation keeps offsets
with total degree <= order above the support corner.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from mpmath import mp, mpc, mpf

from .curve import at_context_precision, memo, point_key
from .diffop import DifferenceOperator, FnCoefficient, bindings_for, rel_defect, shift_point
from .symbols import AffineForm, GammaProduct, Unbalanced, zvar


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


def unit_tail(n, order):
    return Tail(n, {(0,) * n: 1}, order)


class FormalGaugedOperator:
    """head (GammaProduct, global shift form) times a degree-truncated tail."""

    def __init__(self, n, gamma, c_form, tail, params):
        self.n = n
        self.gamma = gamma
        self.c_form = c_form if isinstance(c_form, AffineForm) else AffineForm.const_form(c_form)
        self.tail = tail
        self.params = dict(params)

    @property
    def c_value(self):
        return self.c_form.eval(self.params)

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
        rho = {}
        for m in self.tail.entries:
            rho[m] = other.gamma.shift_ratio(m, n)
            if isinstance(rho[m], Unbalanced):
                raise ValueError("head does not commute through the tail at %s" % (m,))
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
        gslf = params

        def make(pairs):
            # F1 F2 = Gamma1 Gamma2^{(c1)} T(c1+c2) D1'' D2 with
            # D1''_m(z) = e1_m(z - c2) rho_m(z - c2) and
            # (D1'' D2)_k(z) = sum d1''_{m1}(z) d2_{m2}(z + q m1).
            def fn(ctx, z, pairs=pairs):
                c2 = other.c_value
                total = mpc(0)
                for m1, m2 in pairs:
                    zc = tuple(w - c2 for w in z)
                    v = tail1.eval(ctx, m1, zc)
                    if v == 0:
                        continue
                    v *= rho[m1].eval(ctx, bindings_for(gslf, zc))
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
        rho = {}
        for m in self.tail.entries:
            rho[m] = gamma_inv.shift_ratio(m, n)
            if isinstance(rho[m], Unbalanced):
                raise ValueError("inversion head ratio unbalanced")

        tail = self.tail

        if self.tail.entries.get((0,) * n) != 1:
            raise ValueError("inversion requires tail constant term exactly 1")

        # with G = Gamma(z-c)^{-1} T(-c) D', F*G has tail U * D' where
        # U_m(z) = e_m(z + c) rho_m(z + c), rho from the inverse head
        def u_val(ctx, m, z):
            c = self.c_value
            zc = tuple(w + c for w in z)
            v = tail.eval(ctx, m, zc)
            if v == 0:
                return v
            return v * rho[m].eval(ctx, bindings_for(params, zc))

        # the recursion reads lower keys through the inverse tail's own memo
        def v_val(ctx, m, z):
            total = mpc(0)
            for l in tail.entries:
                if all(x == 0 for x in l) or any(a > b for a, b in zip(l, m)):
                    continue
                rest = tuple(a - b for a, b in zip(m, l))
                total += u_val(ctx, l, z) * inverse.eval(ctx, rest, shift_point(z, q, l))
            return -total

        entries = {}
        for m in itertools.product(range(order + 1), repeat=n):
            if sum(m) > order:
                continue
            if all(x == 0 for x in m):
                entries[m] = 1
            else:
                entries[m] = (lambda ctx, z, m=m: v_val(ctx, m, z))
        inverse = Tail(n, entries, order)
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
                def fn2(ctx, z, fn=fn):
                    return fn(ctx, shift_point(z, q, (r,) * n))
            entries[key] = fn2
        c_form = self.c_form - AffineForm.var("q") * r
        return FormalGaugedOperator(n, self.gamma, c_form, Tail(n, entries, self.tail.order), self.params)

    # -- conversions ---------------------------------------------------------

    def resolved_head(self):
        """The head Gamma product as a ThetaExpr, if balanced."""
        res = self.gamma.reduce(arity=self.n)
        if isinstance(res, Unbalanced):
            raise ValueError("head is not balanced: %s" % (res,))
        return res

    def to_difference_operator(self, order=None):
        """Render as a finite operator when the head resolves and c in (q/2)Z."""
        n = self.n
        head = self.resolved_head()
        params = self.params
        half = self.c_form.coeff("q")
        if self.c_form != AffineForm.var("q", half) or half.denominator > 2:
            raise ValueError("global shift is not a half-integer multiple of q")
        order = self.tail.order if order is None else min(order, self.tail.order)
        coeffs = {}
        for m in self.tail.keys_within(order):
            shift = tuple(half + x for x in m)

            def fn(ctx, z, m=m):
                v = head.eval(ctx, bindings_for(params, z))
                return v * self.tail.eval(ctx, m, shift_point(z, params["q"], (half,) * n))

            coeffs[shift] = FnCoefficient(fn)
        return DifferenceOperator(n, coeffs, params)


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
    """Max relative coefficient defect between two gauged operators.

    The heads' ratio must be balanced; it is resolved and folded into the
    comparison, so the two operators may carry different-looking heads.
    """
    if abs(F1.c_value - F2.c_value) > mpf("1e-20"):
        q = mpc(F1.params["q"])
        r = (F1.c_value - F2.c_value) / q
        rint = mp.nint(r.real)
        if abs(r - rint) > mpf("1e-20"):
            raise ValueError("gauged operators with different global shifts")
        F1 = F1.rebased(int(rint))
    ratio = F1.gamma * F2.gamma.inverse()
    res = ratio.reduce(arity=F1.n)
    if isinstance(res, Unbalanced):
        raise ValueError("heads differ by an unbalanced Gamma product")
    order = min(F1.order, F2.order) if order is None else order
    keys = set(F1.tail.keys_within(order)) | set(F2.tail.keys_within(order))
    c = F1.c_value
    worst = mpf(0)
    for z in points:
        r = res.eval(ctx, bindings_for({**F1.params, **F2.params}, z))
        zc = tuple(w + c for w in z)
        for k in keys:
            worst = max(worst, rel_defect(r * F1.tail.eval(ctx, k, zc), F2.tail.eval(ctx, k, zc)))
    return worst
