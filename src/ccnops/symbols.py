"""Formal layer: affine forms, theta-product expressions, Gamma products.

All coefficients are exact rationals.  A ThetaExpr is a finite product of
theta factors with affine-linear arguments, an integer exponent each; a
GammaProduct is a formal product of elliptic Gamma symbols with a fixed step,
resolved into a ThetaExpr through the functional equation whenever its class
in Z[Hom/q] is trivial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp
from mpmath.libmp import from_int, fzero, mpf_add, mpf_div, mpf_mul, round_nearest

from .curve import gauss_round, memo, point_key
from .factors import CompiledParts, compile_parts, fixed_point, z_coefficients


# ---------------------------------------------------------------------------
# affine forms


class AffineForm:
    """Affine-linear form sum_i c_i * sym_i + const with rational coefficients."""

    __slots__ = ("coeffs", "const", "_scaled")

    def __init__(self, coeffs=None, const=0):
        self._scaled = None
        self.coeffs = {}
        if coeffs:
            for s, c in coeffs.items():
                if c:
                    self.coeffs[s] = c if isinstance(c, Fraction) else Fraction(c)
        self.const = const if isinstance(const, Fraction) else Fraction(const)

    @staticmethod
    def var(sym, c=1):
        return AffineForm({sym: Fraction(c)})

    @staticmethod
    def const_form(c):
        return AffineForm({}, c)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return AffineForm(self.coeffs, self.const + Fraction(other))
        out = dict(self.coeffs)
        for s, c in other.coeffs.items():
            out[s] = out.get(s, Fraction(0)) + c
        return AffineForm(out, self.const + other.const)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return AffineForm({s: -c for s, c in self.coeffs.items()}, -self.const)

    def __mul__(self, k):
        k = Fraction(k)
        return AffineForm({s: c * k for s, c in self.coeffs.items()}, self.const * k)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, AffineForm)
            and self.coeffs == other.coeffs
            and self.const == other.const
        )

    def __hash__(self):
        return hash((tuple(sorted(self.coeffs.items())), self.const))

    def key(self):
        return (tuple(sorted(self.coeffs.items())), self.const)

    def layout(self):
        """(s, numerator, denominator) of each coefficient in stored order, then the constant's, as one flat tuple.

        Equal only for identical forms, coefficient order included.
        """
        out = [x for s, c in self.coeffs.items() for x in (s, c.numerator, c.denominator)]
        return (*out, self.const.numerator, self.const.denominator)

    def coeff(self, sym):
        return self.coeffs.get(sym, Fraction(0))

    def substitute(self, assignments):
        """Replace symbols by affine forms; assignments: sym -> AffineForm.

        One dict accumulates the terms in order; a symbol that cancels is
        removed, so that if it comes back it comes last, as in the sum
        of the substituted terms taken one at a time.
        """
        coeffs, const = {}, self.const
        for s, c in self.coeffs.items():
            if s in assignments:
                sub = assignments[s]
                terms = [(t, a * c) for t, a in sub.coeffs.items()]
                const += sub.const * c
            else:
                terms = ((s, c),)
            for t, a in terms:
                v = coeffs.get(t, 0) + a
                if v:
                    coeffs[t] = v
                else:
                    del coeffs[t]
        return AffineForm(coeffs, const)

    def eval(self, bind):
        """The form at the bindings, an mpc summed exactly and rounded once to mp.prec.

        With D the common denominator of the coefficients and the constant,
        D const + sum_i (D c_i) sym_i has integer coefficients and is summed
        exactly from the bound values' point keys (libmp at prec 0); the one
        division by D rounds it, to nearest at mp.prec bits.
        """
        if self._scaled is None:
            den = math.lcm(self.const.denominator, *(c.denominator for c in self.coeffs.values()))
            self._scaled = den, int(self.const * den), [(s, from_int(int(c * den))) for s, c in self.coeffs.items()]
        den, const, terms = self._scaled
        re, im = from_int(const), fzero
        for s, k in terms:
            r, i = point_key(bind[s])
            re, im = mpf_add(re, mpf_mul(r, k)), mpf_add(im, mpf_mul(i, k))
        den, prec = from_int(den), mp.prec
        return mp.make_mpc((mpf_div(re, den, prec, round_nearest), mpf_div(im, den, prec, round_nearest)))

    def __repr__(self):
        bits = []
        for s, c in sorted(self.coeffs.items()):
            bits.append("%s*%s" % (c, s))
        if self.const or not bits:
            bits.append(str(self.const))
        return " + ".join(bits)


def zvar(i):
    """The i-th curve coordinate symbol (1-based)."""
    return AffineForm.var("z%d" % i)


# ---------------------------------------------------------------------------
# polarization records


@dataclass(frozen=True)
class PolarizationRecord:
    """Symmetric quadratic form Q (rational entries) plus integer weight."""

    Q: tuple
    w: int

    @staticmethod
    def zero(n):
        return PolarizationRecord(tuple(tuple(Fraction(0) for _ in range(n)) for _ in range(n)), 0)

    def __add__(self, other):
        n = len(self.Q)
        Q = tuple(
            tuple(self.Q[i][j] + other.Q[i][j] for j in range(n)) for i in range(n)
        )
        return PolarizationRecord(Q, self.w + other.w)

    def pullback(self, g):
        """Pull back through the integer matrix g: Q -> g^T Q g (w unchanged)."""
        rows_g = len(g)
        cols_g = len(g[0]) if rows_g else 0
        if rows_g != len(self.Q):
            raise ValueError("dimension mismatch in polarization pullback")
        Q = [[Fraction(0)] * cols_g for _ in range(cols_g)]
        for a in range(cols_g):
            for b in range(cols_g):
                s = Fraction(0)
                for i in range(rows_g):
                    for j in range(rows_g):
                        s += Fraction(g[i][a]) * self.Q[i][j] * Fraction(g[j][b])
                Q[a][b] = s
        return PolarizationRecord(tuple(tuple(r) for r in Q), self.w)


# ---------------------------------------------------------------------------
# theta expressions


class ThetaExpr:
    """Product of theta factors over `arity` curve coordinates; immutable.

    factors: tuple of (AffineForm, int exponent).  Evaluations are memoized
    per (context, exact bindings).
    """

    __slots__ = ("factors", "arity", "_cache")

    def __init__(self, factors=(), arity=0):
        self.factors = tuple((form, int(m)) for form, m in factors if int(m))
        self.arity = arity
        self._cache = {}

    @staticmethod
    def one(arity=0):
        return ThetaExpr((), arity)

    def __mul__(self, other):
        return ThetaExpr(self.factors + other.factors, max(self.arity, other.arity))

    def zpart_quadratic(self, n):
        """The z-variable quadratic form of the polarization as a matrix."""
        Q = [[Fraction(0)] * n for _ in range(n)]
        for form, m in self.factors:
            for i in range(n):
                ci = form.coeff("z%d" % (i + 1))
                if not ci:
                    continue
                for j in range(n):
                    cj = form.coeff("z%d" % (j + 1))
                    Q[i][j] += Fraction(m) * ci * cj
        return tuple(tuple(row) for row in Q)

    def substitute(self, assignments):
        return ThetaExpr(tuple((f.substitute(assignments), m) for f, m in self.factors), self.arity)

    def eval(self, ctx, bind):
        """The product at the bindings, rounded once; memoized per (context, exact bindings).

        The factors are compiled on the context's argument table and read at
        the fixed point of the bound z_j (`factors.CompiledParts`).
        """

        def compute():
            parts = compile_parts(ctx, ((1, self, bind),))
            n = max((j + 1 for _, factors in parts for i, _ in factors for j in z_coefficients(ctx, i)), default=0)
            zf = fixed_point(ctx, [bind["z%d" % (j + 1)] for j in range(n)])
            return gauss_round(CompiledParts(ctx, parts).value(zf), ctx._wp)

        key = (ctx, tuple(sorted((s, point_key(v)) for s, v in bind.items())))
        return memo(self._cache, key, compute)

    def __repr__(self):
        return " * ".join("theta(%s)^%d" % (f, m) for f, m in self.factors) or "1"


# ---------------------------------------------------------------------------
# Gamma products


@dataclass(frozen=True)
class Unbalanced:
    """Non-trivial class of a Gamma product; carries each unbalanced class and its net exponent."""

    residual: tuple  # tuple of (class representative AffineForm, net exponent)


class GammaProduct:
    """Formal product prod_i gamma_step(a_i)^{m_i} with a common step form."""

    __slots__ = ("step", "terms")

    def __init__(self, step=None, terms=()):
        self.step = step if step is not None else AffineForm.var("q")
        canon = []
        for form, m in terms:
            m = int(m)
            if m:
                canon.append((form, m))
        self.terms = tuple(canon)

    @staticmethod
    def one():
        return GammaProduct(terms=())

    def __mul__(self, other):
        if self.step != other.step:
            raise ValueError("Gamma products with different steps")
        return GammaProduct(self.step, self.terms + other.terms)

    def inverse(self):
        return GammaProduct(self.step, tuple((f, -m) for f, m in self.terms))

    def substitute(self, assignments):
        return GammaProduct(
            self.step.substitute(assignments),
            tuple((f.substitute(assignments), m) for f, m in self.terms),
        )

    def shift_ratio(self, k, arity):
        """self(z + q k) / self(z) resolved by reduce(arity): a ThetaExpr, or Unbalanced."""
        qform = AffineForm.var("q")
        shift = {"z%d" % (i + 1): zvar(i + 1) + qform * k[i] for i in range(arity)}
        return (self.substitute(shift) * self.inverse()).reduce(arity=arity)

    def _classes(self):
        """[rep, {k: exponent}] per class of terms a = rep + k*step.

        A term's class is its `_step_class` key (floor of the step multiple
        taken out), k = n_term - n_rep; classes, reps and k are first-seen.
        """
        classes = {}  # key -> [rep, {k: exponent}, n_rep]
        for form, m in self.terms:
            key, n = _step_class(form, self.step)
            cls = classes.get(key)
            if cls is None:
                classes[key] = [form, {0: m}, n]
            else:
                k = n - cls[2]
                cls[1][k] = cls[1].get(k, 0) + m
        return [cls[:2] for cls in classes.values()]

    def reduce(self, arity=0):
        """Resolve a balanced product into a ThetaExpr; else return Unbalanced.

        gamma(a + k*step) = theta(a; step)_k * gamma(a), so within each class
        the Gamma symbols cancel and the theta shifted factorials remain.
        Classes are `_classes`' (class key, floor, first-seen order), so
        factors and residuals come in a fixed order.
        """
        classes = self._classes()
        residual = []
        for rep, ks in classes:
            net = sum(ks.values())
            if net:
                residual.append((rep, net))
        if residual:
            return Unbalanced(tuple(residual))
        factors = []
        for rep, ks in classes:
            for k, m in ks.items():
                if not m:
                    continue
                if k >= 0:
                    for i in range(k):
                        factors.append((rep + self.step * i, m))
                else:
                    for i in range(1, -k + 1):
                        factors.append((rep - self.step * i, -m))
        return ThetaExpr(tuple(factors), arity)

    def __repr__(self):
        return " * ".join("Gamma(%s)^%d" % (f, m) for f, m in self.terms) or "Gamma()"


def _step_class(form, step):
    """(key, n), n = floor(form / step) on the step's anchor, key = (form - n step).key().

    The anchor is the step's first coefficient, else its constant.  Forms
    differ by an integer multiple of the step iff their keys agree.
    """
    if step.coeffs:
        sym, c = next(iter(step.coeffs.items()))
        n = math.floor(form.coeff(sym) / c)
    else:
        n = math.floor(form.const / step.const)
    return (form - step * n if n else form).key(), n

