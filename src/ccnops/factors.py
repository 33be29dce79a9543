"""Compiled theta arguments: the one fixed-point table behind coefficient values and condition rows.

A theta factor's argument is an affine form in the curve coordinates z_j and
in parameter symbols.  One rule (`_compile`) splits it into a constant c,
summed at F + GUARD_BITS bits and cut to F-bit fixed point (F = `ctx._fix`),
and integer z-coefficients k_j; a form with a non-integer z-coefficient
raises ValueError.  At a point the argument c + sum_j k_j z_j is an integer
sum.  Two readers share that rule:

* coefficient values (`compile_parts`, `CompiledParts`), behind
  `ThetaExpr.eval`, `ExprCoefficient.eval` (which `conditions.check_vanishing`
  reads) and the composites of `DifferenceOperator.compose`.  Each argument
  compiles once per context and per (form, values of the parameters it
  reads) (`compile_argument`), each theta is `CurveContext.theta_of_fixed`
  of the fixed-point argument, each part a quotient of Gaussian-float
  products, and the parts are summed exactly; a shift z -> z + q s moves
  the fixed-point coordinates by q s_j (`fixed_shift`), so no shifted point
  is formed;
* residues, for condition rows and residue checks (`FactorTable`,
  `TablePoint`), which compile each argument once per table, form e(+-c/2)
  once per argument and e(+-z_j/2) once per point and coordinate, and read
  theta through `CurveContext.theta_fixed`.

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
    exact_mpc,
    gauss_add,
    gauss_exact,
    gauss_mul,
    gauss_quotient,
    memo,
    point_key,
)


def z_index(sym):
    """j for the curve coordinate symbol z_(j+1), else None."""
    return int(sym[1:]) - 1 if sym[0] == "z" and sym[1:].isdigit() else None


def _reads(form, values):
    """The parameter values a form reads from `values`, and their exact key (s, point key, ...)."""
    reads = {s: values[s] for s in form.coeffs if s in values and z_index(s) is None}
    return reads, tuple(x for s, v in reads.items() for x in (s, point_key(v)))


def compile_argument(ctx, form, values):
    """The form under ctx as (re c, im c, ((j, k_j), ...)), c in F-bit fixed point; memoized per context.

    The key is the form's `layout` (its coefficients in their stored order
    and its constant) and the exact values of the parameters it reads.
    """

    def compute():
        (cr, ci), zk, _ = _compile(ctx, form, reads)
        return cr, ci, zk

    reads, key = _reads(form, values)
    return memo(ctx._argument_cache, (form.layout(), key), compute)


def _compile(ctx, form, reads):
    """((re c, im c) in F-bit fixed point, ((j, k_j), ...), c): c summed at F + GUARD_BITS bits."""
    F = ctx._fix
    zk = []
    with mp.workprec(F + GUARD_BITS):
        c = mpc(form.const.numerator) / form.const.denominator
        for s, k in form.coeffs.items():
            j = z_index(s)
            if j is not None:
                if k.denominator != 1:
                    raise ValueError("factor tables need integer z-coefficients, got %s in %s" % (k, form))
                zk.append((j, int(k)))
            else:
                c += exact_mpc(reads[s]) * mpc(k.numerator) / k.denominator
    re, im = c._mpc_
    return (to_fixed(re, F), to_fixed(im, F)), tuple(zk), c


def fixed_point(ctx, z):
    """The point z as F-bit fixed-point integers, one (re, im) pair per coordinate."""
    F = ctx._fix
    return tuple((to_fixed(re, F), to_fixed(im, F)) for re, im in map(point_key, z))


# ---------------------------------------------------------------------------
# coefficient values


def compile_parts(ctx, parts):
    """Parts (scale, ThetaExpr, values) as (scale, ((cr, ci, zk, m), ...)) under ctx.

    scale is a Gaussian float, (cr, ci) a factor's compiled constant, zk its
    z-coefficients and m its exponent.
    """
    return tuple(
        (gauss_exact(scale), tuple((*compile_argument(ctx, form, values), m) for form, m in expr.factors))
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
        add exactly.  Memoized per zf.
        """
        return memo(self._values, zf, lambda: self._value(zf))

    def _value(self, zf):
        ctx = self.ctx
        F = ctx._fix

        def theta(factor):
            cr, ci, zk, _ = factor
            for j, k in zk:
                cr += k * zf[j][0]
                ci += k * zf[j][1]
            return ctx.theta_of_fixed(cr, ci)

        total = GAUSS_ZERO
        products = prefix_products([factors for _, factors in self.parts], theta, F)
        for (scale, _), (num, den) in zip(self.parts, products):
            total = gauss_add(total, gauss_quotient(gauss_mul(scale, num, F), den, F))
        return total


# ---------------------------------------------------------------------------
# the residue checkers' factor table


class FactorTable:
    """The distinct theta arguments of a set of structured coefficients.

    `add` encodes a coefficient as parts (scale, ((argument, exponent), ...))
    in factor order, the scale an exact Gaussian float.  An argument is a
    (form, bindings of the parameters it reads) pair, keyed as
    `compile_argument` keys it, so equal keys are one argument.  `poles` keeps one argument per distinct denominator pole
    (`form.key()` plus those values), in first-seen order.

    `compiled(ctx)` compiles each argument once per table, as
    `compile_argument` does, into its constant c and its integer
    z-coefficients k_j, and forms e(+-c/2), so a sample point needs only
    e(+-z_j/2) (see `TablePoint`).
    """

    def __init__(self):
        self.args = []
        self.poles = {}
        self._index = {}
        self._ctx = None
        self._compiled = []

    def add(self, coeff):
        """The encoded parts of a coefficient; () for an absent one."""
        from .diffop import ExprCoefficient

        if coeff is None:
            return ()
        if not isinstance(coeff, ExprCoefficient):
            raise ValueError("condition checks need structured coefficients")
        return tuple(
            (gauss_exact(scale), tuple((self._arg(form, params, m < 0), m) for form, m in expr.factors))
            for scale, expr, params in coeff.parts
        )

    def _arg(self, form, params, pole):
        reads, values = _reads(form, params)
        i = self._index.setdefault((form.layout(), values), len(self.args))
        if i == len(self.args):
            self.args.append((form, reads))
        if pole:
            self.poles.setdefault((form.key(), tuple(sorted((s, point_key(v)) for s, v in reads.items()))), i)
        return i

    def compiled(self, ctx):
        """Per argument: (c as F-bit fixed-point integers, ((j, k_j), ...), e(c/2), e(-c/2))."""
        if ctx is not self._ctx:
            self._ctx, self._compiled = ctx, []
        for form, reads in self.args[len(self._compiled):]:
            fixed, zk, c = _compile(ctx, form, reads)
            self._compiled.append((fixed, zk, *ctx.half_e(c)))
        return self._compiled


class TablePoint:
    """A factor table at the point z: each argument's reduction and theta, computed once on first use.

    Everything is on integers.  The argument c + sum_j k_j z_j is summed in
    F-bit fixed point and reduced by `CurveContext.reduce_fixed`; e(+-arg/2)
    is e(+-c/2) from the table times e(+-z_j/2)^k_j, formed once per point
    and coordinate, and `CurveContext.theta_fixed` turns them into theta as
    a Gaussian float.
    """

    def __init__(self, ctx, table, z):
        self.ctx = ctx
        self.table = table
        self.z = z
        self._args = table.compiled(ctx)
        self._fixed = fixed_point(ctx, z)
        self._halves = {}
        self._powers = {}
        self._reduced = {}
        self._factors = {}

    def reduced(self, i):
        """(w0r, w0i, m, n) of argument i: its `reduce_fixed` lattice reduction."""

        def compute():
            (ar, ai), zk, _, _ = self._args[i]
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
            F = self.ctx._fix
            _, zk, half, inv_half = self._args[i]
            for j, k in zk:
                half = gauss_mul(half, self._power(j, k), F)
                inv_half = gauss_mul(inv_half, self._power(j, -k), F)
            return self.ctx.theta_fixed(self.reduced(i), half, inv_half)

        return memo(self._factors, i, compute)

    def _power(self, j, k):
        """e(k z_j / 2) as a Gaussian float."""

        def compute():
            if abs(k) == 1:
                return memo(self._halves, j, lambda: self.ctx.half_e(self.z[j]))[k < 0]
            step = 1 if k > 0 else -1
            return gauss_mul(self._power(j, step), self._power(j, k - step), self.ctx._fix)

        return memo(self._powers, (j, k), compute)
