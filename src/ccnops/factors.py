"""Compiled theta arguments: one table per context behind coefficient values and residues.

A theta factor's argument is an affine form in the curve coordinates z_j and
in parameter symbols.  One rule (`_compile`) splits it into a constant c,
summed at F + GUARD_BITS bits and cut to F-bit fixed point (F = `ctx._fix`),
and integer z-coefficients k_j; a form with a non-integer z-coefficient
raises ValueError.  Each argument compiles once per context and per (form,
values of the parameters it reads) into the context's table
(`compile_argument`), and is named by its id from then on: a compiled factor
is an (id, exponent) pair, and a pole of the residue checkers is an id
(`pole_arguments`).  At a point the argument c + sum_j k_j z_j is an integer
sum.  Two readers share the table, each with the theta kernel its traffic
suits:

* coefficient values (`compile_parts`, `CompiledParts`), behind
  `ThetaExpr.eval`, `ExprCoefficient.eval` (which `conditions.check_vanishing`
  reads) and the composites of `DifferenceOperator.compose`.  Each theta is
  `CurveContext.theta_of_fixed`, memoized on the fixed-point argument, each
  part a quotient of Gaussian-float products, and the parts are summed
  exactly; a shift z -> z + q s moves the fixed-point coordinates by q s_j
  (`fixed_shift`), so no shifted point is formed.  Values repeat: the memo
  answers 8,748 of the 10,116 theta reads of a bench `verify` pass, and
  reading them through `theta_fixed` with a point memo cost `verify` 5% in
  wall time and 17% in peak memory;
* residues, for condition rows and residue checks (`TablePoint`), at random
  sample points where nothing repeats.  e(+-c/2) is formed once per
  argument and context, only for the arguments a sweep reads, and
  e(+-z_j/2) once per point and coordinate, and theta is
  `CurveContext.theta_fixed`.  Through `theta_of_fixed` each of the 14,234
  factors of a bench `solve` pass would cost one more `half_e`, about
  0.57 s on a 1.3 s pass.

Both multiply their parts through one prefix loop (`prefix_products`): the
parts are sorted by their factors, and each multiplies only the factors
after the prefix it shares with the part before it.  A coefficient's parts
share it in `CompiledParts`; the residue sweep (`conditions._sweep`) sorts
the parts of every column at once, so the columns of a solver's ansatz,
which share their leading blocks, multiply each shared block once per
sample point.
"""

from __future__ import annotations

from mpmath import mp, mpc
from mpmath.libmp import to_fixed

from .curve import (
    GAUSS_ONE,
    GAUSS_ZERO,
    GUARD_BITS,
    PoleProximityError,
    exact_mpc,
    gauss_add,
    gauss_exact,
    gauss_mul,
    gauss_quotient,
    memo,
    point_key,
    pole_text,
)


def z_index(sym):
    """j for the curve coordinate symbol z_(j+1), else None."""
    return int(sym[1:]) - 1 if sym[0] == "z" and sym[1:].isdigit() else None


def _reads(form, values):
    """The parameter values a form reads from `values`, and their exact key ((s, point key), ...) in name order."""
    reads = {s: values[s] for s in form.coeffs if s in values and z_index(s) is None}
    return reads, tuple(sorted((s, point_key(v)) for s, v in reads.items()))


def compile_argument(ctx, form, values):
    """The id of the form's argument in the context's table, compiled on first use.

    The key is the form's `layout` (its coefficients in their stored order
    and its constant) and the exact values of the parameters it reads.  The
    entry `ctx._arguments[id]` is (re c, im c, ((j, k_j), ...), c): c in
    F-bit fixed point, the z-coefficients, and c at F + GUARD_BITS bits, from
    which a residue sweep forms e(+-c/2) (`TablePoint`).
    """

    def compute():
        ctx._arguments.append(_compile(ctx, form, reads))
        return len(ctx._arguments) - 1

    reads, key = _reads(form, values)
    return memo(ctx._argument_cache, (form.layout(), key), compute)


def _compile(ctx, form, reads):
    """(re c, im c, ((j, k_j), ...), c): c summed at F + GUARD_BITS bits, then cut to F-bit fixed point."""
    F = ctx._fix
    zk = []
    with mp.workprec(F + GUARD_BITS):
        c = mpc(form.const.numerator) / form.const.denominator
        for s, k in form.coeffs.items():
            j = z_index(s)
            if j is not None:
                if k.denominator != 1:
                    raise ValueError("theta arguments need integer z-coefficients, got %s in %s" % (k, form))
                zk.append((j, int(k)))
            else:
                c += exact_mpc(reads[s]) * mpc(k.numerator) / k.denominator
    re, im = c._mpc_
    return to_fixed(re, F), to_fixed(im, F), tuple(zk), c


def z_coefficients(ctx, i):
    """{j: k_j}: the integer z-coefficients of argument i."""
    return dict(ctx._arguments[i][2])


def pole_arguments(ctx, coeffs):
    """The ids of the poles of structured coefficients, one per distinct pole, in first-seen order.

    A pole is a denominator factor's form, up to the order of its
    coefficients (`form.key()`), and the values it reads; the first argument
    seen for it stands for it.  An absent (None) coefficient has none.
    """
    poles = {}
    for coeff in coeffs:
        for _, expr, values in coeff.parts if coeff is not None else ():
            for form, m in expr.factors:
                if m < 0:
                    pole = form.key(), _reads(form, values)[1]
                    if pole not in poles:
                        poles[pole] = compile_argument(ctx, form, values)
    return list(poles.values())


def fixed_point(ctx, z):
    """The point z as F-bit fixed-point integers, one (re, im) pair per coordinate."""
    F = ctx._fix
    return tuple((to_fixed(re, F), to_fixed(im, F)) for re, im in map(point_key, z))


# ---------------------------------------------------------------------------
# coefficient values


def compile_parts(ctx, parts):
    """Parts (scale, ThetaExpr, values) as (scale, ((id, m), ...)) under ctx.

    scale is a Gaussian float, id a factor's argument in the context's table
    (`compile_argument`) and m its exponent.
    """
    return tuple(
        (gauss_exact(scale), tuple((compile_argument(ctx, form, values), m) for form, m in expr.factors))
        for scale, expr, values in parts
    )


def fixed_shift(ctx, q, shift):
    """q s_j for each coordinate j as F-bit fixed-point integers, from q at F + GUARD_BITS bits.

    Added to a point's `fixed_point` coordinates it reads a coefficient at
    z + q s with no shifted point formed; each offset is rounded toward
    -infinity.
    """
    qr, qi = (to_fixed(x, ctx._fix + GUARD_BITS) for x in point_key(q))
    return tuple(
        (x.numerator * qr // (x.denominator << GUARD_BITS), x.numerator * qi // (x.denominator << GUARD_BITS))
        for x in shift
    )


def prefix_products(seqs, theta, F):
    """(numerator, denominator) of each factor sequence, a prefix shared with the sequence before it multiplied once.

    A factor is a tuple whose last entry is its exponent m, and theta(factor)
    its theta value as a Gaussian float; a factor with m > 0 multiplies the
    numerator m times and one with m < 0 the denominator -m times, each
    product cut to F bits (`gauss_mul`).  The products of the first i
    factors of a sequence are kept on a stack, and the next sequence starts
    from the entry of the prefix it shares with this one.  Sorting the
    sequences first makes the shared prefixes long.
    """
    prefix, prev = [(GAUSS_ONE, GAUSS_ONE)], ()  # (numerator, denominator) of the first i factors of prev
    for factors in seqs:
        n, top = 0, min(len(prev), len(factors))
        while n < top and prev[n] == factors[n]:
            n += 1
        del prefix[n + 1:]
        num, den = prefix[-1]
        for factor in factors[n:]:
            v, m = theta(factor), factor[-1]
            if m > 0:
                for _ in range(m):
                    num = gauss_mul(num, v, F)
            else:
                for _ in range(-m):
                    den = gauss_mul(den, v, F)
            prefix.append((num, den))
        prev = factors
        yield num, den


class CompiledParts:
    """A coefficient's parts compiled under one context; values memoized per fixed point.

    The parts are sorted by their factors, so the parts of a solved
    operator, which share their leading blocks, multiply each shared prefix
    once (`prefix_products`).
    """

    __slots__ = ("ctx", "parts", "_values")

    def __init__(self, ctx, parts):
        self.ctx = ctx
        self.parts = tuple(sorted(parts, key=lambda part: part[1]))
        self._values = {}

    def value(self, zf):
        """The sum of the parts at the fixed point zf, a Gaussian float, unrounded.

        Each part is its scale times the product of its numerator thetas
        over the product of its denominator thetas (`gauss_mul`, cut to F
        bits each), one quotient of F bits (`gauss_quotient`); the parts
        add exactly.  Memoized per zf.  A denominator theta that vanishes at
        zf raises PoleProximityError naming its divisor.
        """
        return memo(self._values, zf, lambda: self._value(zf))

    def _value(self, zf):
        ctx = self.ctx
        F, args = ctx._fix, ctx._arguments

        def theta(factor):
            cr, ci, zk, c = args[factor[0]]
            for j, k in zk:
                cr += k * zf[j][0]
                ci += k * zf[j][1]
            value = ctx.theta_of_fixed(cr, ci)
            if factor[-1] < 0 and value == GAUSS_ZERO:
                raise PoleProximityError("the point lies on the pole %s" % pole_text(zk, c))
            return value

        total = GAUSS_ZERO
        products = prefix_products([factors for _, factors in self.parts], theta, F)
        for (scale, _), (num, den) in zip(self.parts, products):
            total = gauss_add(total, gauss_quotient(gauss_mul(scale, num, F), den, F))
        return total


# ---------------------------------------------------------------------------
# residues at a sample point


class TablePoint:
    """The context's arguments at the point z: each one's reduction and theta, computed once on first use.

    Everything is on integers.  The argument c + sum_j k_j z_j is summed in
    F-bit fixed point and reduced by `CurveContext.reduce_fixed`; e(+-arg/2)
    is e(+-c/2), formed once per argument and context, times
    e(+-z_j/2)^k_j, formed once per point and coordinate, and
    `CurveContext.theta_fixed` turns them into theta as a Gaussian float.
    """

    def __init__(self, ctx, z):
        self.ctx = ctx
        self.z = z
        self._fixed = fixed_point(ctx, z)
        self._halves = {}
        self._powers = {}
        self._reduced = {}
        self._factors = {}

    def reduced(self, i):
        """(w0r, w0i, m, n) of argument i: its `reduce_fixed` lattice reduction."""

        def compute():
            ar, ai, zk, _ = self.ctx._arguments[i]
            for j, k in zk:
                ar += k * self._fixed[j][0]
                ai += k * self._fixed[j][1]
            return self.ctx.reduce_fixed(ar, ai)

        return memo(self._reduced, i, compute)

    def dist2(self, i):
        """Squared distance of argument i to the lattice, scaled by 2^(2F)."""
        w0r, w0i, _, _ = self.reduced(i)
        return self.ctx.fixed_dist2(w0r, w0i)

    def factor(self, i):
        """theta(argument i) as a Gaussian float."""

        def compute():
            ctx = self.ctx
            F, (_, _, zk, c) = ctx._fix, ctx._arguments[i]
            half, inv_half = memo(ctx._argument_halves, i, lambda: ctx.half_e(c))
            for j, k in zk:
                half = gauss_mul(half, self._power(j, k), F)
                inv_half = gauss_mul(inv_half, self._power(j, -k), F)
            return ctx.theta_fixed(self.reduced(i), half, inv_half)

        return memo(self._factors, i, compute)

    def _power(self, j, k):
        """e(k z_j / 2) as a Gaussian float."""

        def compute():
            if abs(k) == 1:
                return memo(self._halves, j, lambda: self.ctx.half_e(self.z[j]))[k < 0]
            step = 1 if k > 0 else -1
            return gauss_mul(self._power(j, step), self._power(j, k - step), self.ctx._fix)

        return memo(self._powers, (j, k), compute)
