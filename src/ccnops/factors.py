"""Compiled theta arguments: one table per context behind coefficient values and residues.

A theta factor's argument is an affine form in the curve coordinates z_j and
in parameter symbols.  One rule (`_compile`) splits it into a constant c,
summed at F + GUARD_BITS bits and cut to F-bit fixed point (F = `ctx._fix`),
and integer z-coefficients k_j; a form with a non-integer z-coefficient
raises ValueError.  Each argument compiles once per context and per (form,
values of the parameters it reads) into the context's table
(`compile_argument`), and is named by its id from then on: a compiled factor
is an (id, exponent) pair, and a residue sample point avoids the ids of the
denominator factors it reads (`conditions._residue_entries`).  At a point
the argument c + sum_j k_j z_j is an integer sum.  Two readers share the
table, each with the theta kernel its traffic suits:

* coefficient values (`compile_parts`, `CompiledParts`), behind
  `ThetaExpr.eval`, `ExprCoefficient.eval` (which `conditions.check_vanishing`
  reads), the composites of `DifferenceOperator.compose`, and the formal
  layer: the head ratios of `formal` (`FormalGaugedOperator.compose`,
  `invert` and `compare_gauged`) and the Fourier kernel's tail relation
  (`families._TailSolver.A`).  Each theta is
  `CurveContext.theta_of_fixed`, memoized on the fixed-point argument, each
  part a quotient of Gaussian-float products, and the parts are summed
  exactly; a shift z -> z + q s moves the fixed-point coordinates by q s_j
  (`fixed_shift`), so no shifted point is formed.  Values repeat: the memo
  answers 13,503 of the 15,204 theta reads of a bench `verify` pass, and
  reading them through a per-point table with a point memo cost `verify` 5%
  in wall time and 17% in peak memory;
* residues, for condition rows and residue checks (`TablePoint`), at random
  sample points where no point repeats.  e(+-c/2) is formed once per
  argument and context, only for the arguments a sweep reads, and
  e(+-z_j/2) once per point and coordinate.  At a point the arguments fall
  into lattice classes, one per reduced w0 (`CurveContext.reduce_fixed`):
  on the divisor component beta(z) + m q = lambda, lambda in
  {0, 1, tau, 1 + tau}, an argument a(z) and its image a(s z) under the
  affine reflection s = s_(beta + m q) differ by <k, beta^v> lambda, a
  lattice point (k the argument's z-coefficients).  A class runs one theta
  series, formed from the first argument that reaches it, and each
  argument of the class is that theta(w0) times its translate factor
  (`CurveContext.theta_translate`).
  The classes serve 4,281 of the 11,486 theta reads of a bench `solve` pass
  (seed 1, 37%) and 972 of the 3,104 of a `verify` pass (31%) without a
  series.  Through `theta_of_fixed` each factor would cost one more
  `half_e`, about 0.57 s on a 1.3 s pass.

Both multiply their parts through one prefix loop (`prefix_products`): the
parts are sorted by their factors, and each multiplies only the factors
after the prefix it shares with the part before it.  A coefficient's parts
share it in `CompiledParts`; the residue sweep (`conditions._sweep`) sorts
the parts of every column at once, so the columns of a solver's ansatz,
which share their leading blocks, multiply each shared block once per
sample point.
"""

from __future__ import annotations

import math
from fractions import Fraction

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


def compile_argument(ctx, form, values):
    """The id of the form's argument in the context's table, compiled on first use.

    The key is the form's `layout` (its integer numerators in their stored
    order, its constant's numerator and its common denominator) and the
    exact values of the parameters it reads.  The entry
    `ctx._arguments[id]` is (re c, im c, ((j, k_j), ...), c): c in F-bit
    fixed point, the z-coefficients, and c at F + GUARD_BITS bits, from
    which a residue sweep forms e(+-c/2) (`TablePoint`).
    """

    def compute():
        ctx._arguments.append(_compile(ctx, form, reads))
        return len(ctx._arguments) - 1

    reads = {s: values[s] for s in form.nums if s in values and z_index(s) is None}
    key = tuple(sorted((s, point_key(v)) for s, v in reads.items()))
    return memo(ctx._argument_cache, (form.layout(), key), compute)


def _compile(ctx, form, reads):
    """(re c, im c, ((j, k_j), ...), c): c summed at F + GUARD_BITS bits, then cut to F-bit fixed point.

    The constant and each parameter coefficient enter c as their own
    reduced fractions, in stored order.
    """
    F, den = ctx._fix, form.den
    zk = []
    with mp.workprec(F + GUARD_BITS):
        c = _fraction_mpc(form.num, den)
        for s, n in form.nums.items():
            j = z_index(s)
            if j is not None:
                if n % den:
                    raise ValueError("theta arguments need integer z-coefficients, got %s in %s" % (Fraction(n, den), form))
                zk.append((j, n // den))
            else:
                c += exact_mpc(reads[s]) * _fraction_mpc(n, den)
    re, im = c._mpc_
    return to_fixed(re, F), to_fixed(im, F), tuple(zk), c


def _fraction_mpc(n, d):
    """n/d at the working precision: the reduced numerator as an mpc over the reduced denominator."""
    g = math.gcd(n, d)
    return mpc(n // g) / (d // g)


def z_coefficients(ctx, i):
    """{j: k_j}: the integer z-coefficients of argument i."""
    return dict(ctx._arguments[i][2])


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
    F-bit fixed point and reduced by `CurveContext.reduce_fixed` to
    w0 + m + n tau.  Arguments with the same w0 form one lattice class,
    which runs one theta series: the first argument to reach it forms
    e(+-arg/2) as e(+-c/2), formed once per argument and context, times
    e(+-z_j/2)^k_j, formed once per point and coordinate, then
    x0 = e(w0/2) = (-1)^m e(-n tau/2) e(arg/2) and 1/x0, and theta(w0)
    (`CurveContext.theta_reduced`); every argument of the class is theta(w0)
    times its own translate factor (`CurveContext.theta_translate`).
    """

    def __init__(self, ctx, z):
        self.ctx = ctx
        self.z = z
        self._fixed = fixed_point(ctx, z)
        self._halves = {}
        self._powers = {}
        self._reduced = {}
        self._classes = {}
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
        """theta(argument i) as a Gaussian float: its lattice class's theta(w0) times its translate factor."""

        def compute():
            w0r, w0i, m, n = self.reduced(i)
            val, x, y = memo(self._classes, (w0r, w0i), lambda: self._class_entry(i))
            return self.ctx.theta_translate(val, x, y, m, n)

        return memo(self._factors, i, compute)

    def _class_entry(self, i):
        """(theta(w0), x0, 1/x0) for the lattice class of argument i, formed from argument i."""
        ctx = self.ctx
        F, (_, _, zk, c) = ctx._fix, ctx._arguments[i]
        w0r, w0i, m, n = self.reduced(i)
        x, y = memo(ctx._argument_halves, i, lambda: ctx.half_e(c))
        for j, k in zk:
            x = gauss_mul(x, self._power(j, k), F)
            y = gauss_mul(y, self._power(j, -k), F)
        if n:
            x = gauss_mul(x, ctx.half_tau_power(-n), F)
            y = gauss_mul(y, ctx.half_tau_power(n), F)
        if m % 2:
            x, y = (-x[0], -x[1], x[2]), (-y[0], -y[1], y[2])
        return ctx.theta_reduced(w0r, w0i, x, y), x, y

    def _power(self, j, k):
        """e(k z_j / 2) as a Gaussian float."""

        def compute():
            if abs(k) == 1:
                return memo(self._halves, j, lambda: self.ctx.half_e(self.z[j]))[k < 0]
            step = 1 if k > 0 else -1
            return gauss_mul(self._power(j, step), self._power(j, k - step), self.ctx._fix)

        return memo(self._powers, (j, k), compute)
