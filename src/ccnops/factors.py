"""Compiled theta arguments: one table per context behind coefficient values and residues.

A theta factor's argument is an affine form in the curve coordinates z_j and
in parameter symbols.  One rule (`_compile`) splits it into a constant c
and integer z-coefficients k_j; a form with a non-integer z-coefficient
raises ValueError.  c = (num + sum_s n_s v_s) / den is summed exactly on
integers from the exact mantissas of the parameter values v_s and floored
once to F-bit fixed point (F = `ctx._fix`), and the entry keeps that
decomposition.  Each argument compiles once per context and per (form,
values of the parameters it reads) into the context's table
(`compile_argument`), and is named by its id from then on: a compiled factor
is an (id, exponent) pair, and a condition's sample point avoids the ids of
the denominator factors it reads (`conditions._divisor_points`).  At a point
the argument a = c + sum_j k_j z_j is an integer sum.

Both readers form e(+-a/2) by multiplication (`argument_halves`): e(c/2) is
the root of unity e(1/2den)^r times e(v_s/2den)^(n_s), formed once per
argument, and e(z_j/2)^(k_j) comes per fixed coordinate value, all integer
powers by the context's one powering rule (`CurveContext.half_power`, on
bases v/den formed by `CurveContext.over`), so `half_e` runs once per
(parameter value, den), per den and per coordinate value, never per
argument, and a power |k| deep costs about log2 |k| products.  Then
x0 = e(w0/2) = (-1)^m e(-n tau/2) e(a/2) (`CurveContext.reduced_halves`)
feeds the theta kernel.  The two readers
share the table, each with the memo its traffic suits:

* coefficient values (`compile_parts`, `CompiledParts`), behind
  `ThetaExpr.eval`, `ExprCoefficient.eval` (which `conditions.check_vanishing`
  reads), the composites of `DifferenceOperator.compose`, and the formal
  layer: the head ratios of `formal` (`FormalGaugedOperator.compose`,
  `invert` and `compare_gauged`) and the Fourier kernel's tail relation
  (`families._TailSolver.A`).  Each theta is
  `CurveContext.theta_of_fixed`, memoized on the fixed-point argument: the
  first argument to reach a key forms its value, and a later one reads it.
  Each part is a quotient of Gaussian-float products, and the parts are
  summed exactly; a shift z -> z + q s moves the fixed-point coordinates by
  q s_j (`fixed_shift`), so no shifted point is formed.  Values repeat: the
  memo answers 13,503 of the 15,204 theta reads of a bench `verify` pass
  (seed 3), and its 1,701 misses read 129 distinct coordinate values;
  reading them through a per-point table with a point memo cost `verify` 5%
  in wall time and 17% in peak memory;
* residues, for condition rows and residue checks (`TablePoint`), at random
  sample points where no point repeats.  At a point the arguments fall
  into lattice classes, one per reduced w0 (`CurveContext.reduce_fixed`):
  on the divisor component beta(z) + m q = lambda, lambda in
  {0, 1, tau, 1 + tau}, an argument a(z) and its image a(s z) under the
  affine reflection s = s_(beta + m q) differ by <k, beta^v> lambda, a
  lattice point (k the argument's z-coefficients).  A class runs one theta
  series, formed from the first argument that reaches it, and each
  argument of the class is that theta(w0) times its translate factor
  (`CurveContext.theta_translate`).  The classes serve 369 of the 1,934
  theta reads of a bench `solve` pass (seed 1, 19%) and 900 of the 2,960
  of a `verify` pass (seed 3, 30%) without a series.

Both multiply their parts through one prefix loop (`prefix_products`): the
parts are sorted by their factors, and each multiplies only the factors
after the prefix it shares with the part before it.  A coefficient's parts
share it in `CompiledParts`; the residue sweep (`conditions._sweep`) sorts
the parts of every column at once, so the columns of a solver's ansatz,
which share their leading blocks, multiply each shared block once per
sample point.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp
from mpmath.libmp import from_man_exp, to_fixed

from .curve import (
    GAUSS_ONE,
    GAUSS_ZERO,
    GUARD_BITS,
    PoleProximityError,
    gauss_add,
    gauss_exact,
    gauss_mul,
    gauss_quotient,
    memo,
    point_key,
    pole_text,
)

_ONE = point_key(1)  # the base of a constant's root of unity e(1/2den)^r


def z_index(sym):
    """j for the curve coordinate symbol z_(j+1), else None."""
    return int(sym[1:]) - 1 if sym[0] == "z" and sym[1:].isdigit() else None


def compile_argument(ctx, form, values):
    """The id of the form's argument in the context's table, compiled on first use.

    The key is the form's `layout` (its integer numerators in their stored
    order, its constant's numerator and its common denominator) and the
    exact values of the parameters it reads.  The entry
    `ctx._arguments[id]` is (re c, im c, ((j, k_j), ...), (num, den, terms)):
    c in F-bit fixed point, the z-coefficients, and c's decomposition
    c = (num + sum n v) / den over the terms (point key of v, n), from which
    both readers form e(+-c/2) by products (`_constant_halves`).
    """

    def compute():
        ctx._arguments.append(_compile(ctx, form, reads))
        return len(ctx._arguments) - 1

    reads = {s: values[s] for s in form.nums if s in values and z_index(s) is None}
    key = tuple(sorted((s, point_key(v)) for s, v in reads.items()))
    return memo(ctx._argument_cache, (form.layout(), key), compute)


def _compile(ctx, form, reads):
    """(re c, im c, ((j, k_j), ...), (num, den, ((point key of v, n), ...))): c = floor(2^F c) on integers.

    Each parameter value v is an exact mantissa and exponent, so
    2^F (num + sum n v) is summed exactly and divided by den once, with the
    floor (`_fixed_sum`).
    """
    den, zk, terms = form.den, [], []
    for s, n in form.nums.items():
        j = z_index(s)
        if j is not None:
            if n % den:
                raise ValueError("theta arguments need integer z-coefficients, got %s in %s" % (Fraction(n, den), form))
            zk.append((j, n // den))
        else:
            terms.append((point_key(reads[s]), n))
    re = _fixed_sum(ctx._fix, form.num, den, [(key[0], n) for key, n in terms])
    im = _fixed_sum(ctx._fix, 0, den, [(key[1], n) for key, n in terms])
    return re, im, tuple(zk), (form.num, den, tuple(terms))


def _fixed_sum(F, num, den, terms):
    """floor(2^F (num + sum n v) / den) for terms (v, n), v an mpf tuple (sign, man, exp, bc), on integers."""
    e = min([0] + [v[2] for v, _ in terms if v[1]])
    total = num << -e
    for (sign, man, exp, _), n in terms:
        total += (-n if sign else n) * man << (exp - e)
    s = F + e
    return (total << s) // den if s >= 0 else total // (den << -s)


def _constant(ctx, i):
    """The constant c of argument i as an mpc at `ctx._wp` bits, from its decomposition (for messages)."""
    num, den, terms = ctx._arguments[i][3]
    with mp.workprec(ctx._wp):
        return (num + mp.fsum(n * mp.make_mpc(key) for key, n in terms)) / den


def _constant_halves(ctx, i):
    """(e(c/2), e(-c/2)) for the constant c of argument i, memoized per id.

    c/2 = num/2den + sum n v/2den, so e(c/2) is the root of unity
    e(1/2den)^r, r = num mod 2den taken in (-den, den], times
    e(v/2den)^n per term: powers of the context's half-exponentials
    (`CurveContext.half_power`, each base v/den formed by
    `CurveContext.over`), one `half_e` per (value, den) and per den,
    multiplied at F bits.
    """

    def compute():
        num, den, terms = ctx._arguments[i][3]
        F, x, y = ctx._fix, GAUSS_ONE, GAUSS_ONE
        r = num % (2 * den)
        if r > den:
            r -= 2 * den
        if r:
            terms = terms + ((_ONE, r),)
        for key, n in terms:
            px, py = ctx.half_power((key, den), n, lambda: ctx.over(key, den))
            x, y = gauss_mul(x, px, F), gauss_mul(y, py, F)
        return x, y

    return memo(ctx._argument_halves, i, compute)


def argument_halves(ctx, i, zf):
    """(e(a/2), e(-a/2)) for argument i at the fixed point zf: e(+-c/2) times e(+-zf_j/2)^k_j.

    Every factor is a power of the context's half-exponentials
    (`CurveContext.half_power`, one `half_e` per fixed coordinate value),
    each product cut to F bits: e(a/2) carries an absolute error of a few
    units of 2^-F, the order of the error of a itself.
    """
    F = ctx._fix
    x, y = _constant_halves(ctx, i)
    for j, k in ctx._arguments[i][2]:
        zr, zi = zf[j]
        px, py = ctx.half_power((zr, zi), k, lambda: mp.make_mpc((from_man_exp(zr, -F), from_man_exp(zi, -F))))
        x, y = gauss_mul(x, px, F), gauss_mul(y, py, F)
    return x, y


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
            i = factor[0]
            cr, ci, zk, _ = args[i]
            for j, k in zk:
                cr += k * zf[j][0]
                ci += k * zf[j][1]
            value = ctx.theta_of_fixed(cr, ci, lambda: argument_halves(ctx, i, zf))
            if factor[-1] < 0 and value == GAUSS_ZERO:
                raise PoleProximityError("the point lies on the pole %s" % pole_text(zk, _constant(ctx, i)))
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
    e(+-arg/2) by products (`argument_halves`: e(+-c/2) once per argument
    and context, e(+-z_j/2)^k_j once per coordinate value and power), then
    x0 = e(w0/2) = (-1)^m e(-n tau/2) e(arg/2) and 1/x0, and theta(w0)
    (`CurveContext.theta_reduced`); every argument of the class is theta(w0)
    times its own translate factor (`CurveContext.theta_translate`).
    """

    def __init__(self, ctx, z):
        self.ctx = ctx
        self.z = z
        self._fixed = fixed_point(ctx, z)
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
        w0r, w0i, m, n = self.reduced(i)
        x, y = ctx.reduced_halves(*argument_halves(ctx, i, self._fixed), m, n)
        return ctx.theta_reduced(w0r, w0i, x, y), x, y
