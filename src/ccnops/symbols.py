"""Formal layer: affine forms, theta-product expressions, Gamma-symbol ledgers.

All coefficients are exact rationals.  A ThetaExpr is a finite product of
theta factors with affine-linear arguments, an integer exponent each; a
GammaProduct is a formal product of elliptic Gamma symbols with a fixed step,
tracked by the polarization/weight ledger

    pol(gamma_q(a)) = a(a-q)(2a-q) / 12q,      wt(gamma_q(a)) = -a/q,

and resolved into a ThetaExpr through the functional equation whenever its
class in Z[Hom/q] is trivial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpc

from .curve import memo, point_key


# ---------------------------------------------------------------------------
# polynomials over Q in named symbols, with negative powers of q permitted


class Poly:
    """Sparse polynomial over Q; monomials may carry negative exponents of 'q'."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for mono, c in terms.items():
                c = Fraction(c)
                if c:
                    self.terms[mono] = self.terms.get(mono, Fraction(0)) + c
            self.terms = {m: c for m, c in self.terms.items() if c}

    @staticmethod
    def const(c):
        c = Fraction(c)
        return Poly({(): c} if c else {})

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return Poly(out)

    def __sub__(self, other):
        return self + other * Fraction(-1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly({m: c * Fraction(other) for m, c in self.terms.items()})
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return Poly(out)

    __rmul__ = __mul__

    def __neg__(self):
        return self * Fraction(-1)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def is_zero(self):
        return not self.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m, c in sorted(self.terms.items()):
            mono = "*".join("%s^%d" % (s, e) if e != 1 else s for s, e in m) or "1"
            bits.append("%s*%s" % (c, mono))
        return " + ".join(bits)


def _mono_mul(m1, m2):
    d = {}
    for s, e in m1:
        d[s] = d.get(s, 0) + e
    for s, e in m2:
        d[s] = d.get(s, 0) + e
    return tuple(sorted((s, e) for s, e in d.items() if e))


# ---------------------------------------------------------------------------
# affine forms


class AffineForm:
    """Affine-linear form sum_i c_i * sym_i + const with rational coefficients."""

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs=None, const=0):
        self.coeffs = {}
        if coeffs:
            for s, c in coeffs.items():
                c = Fraction(c)
                if c:
                    self.coeffs[s] = c
        self.const = Fraction(const)

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

    def coeff(self, sym):
        return self.coeffs.get(sym, Fraction(0))

    def substitute(self, assignments):
        """Replace symbols by affine forms; assignments: sym -> AffineForm."""
        out = AffineForm({}, self.const)
        for s, c in self.coeffs.items():
            if s in assignments:
                out = out + assignments[s] * c
            else:
                out = out + AffineForm({s: c})
        return out

    def eval(self, bind):
        total = mpc(self.const.numerator) / self.const.denominator
        for s, c in self.coeffs.items():
            total += mpc(bind[s]) * mpc(c.numerator) / c.denominator
        return total

    def to_poly(self):
        terms = {((s, 1),): c for s, c in self.coeffs.items()}
        if self.const:
            terms[()] = self.const
        return Poly(terms)

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

    def weight(self):
        return -sum(m for _, m in self.factors)

    def polarization_poly(self):
        """sum_i m_i * l_i^2 / 2 as a polynomial (all symbols included)."""
        total = Poly()
        for form, m in self.factors:
            p = form.to_poly()
            total = total + p * p * Fraction(m, 2)
        return total

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

    def is_function_on_curve_power(self, n):
        """Whether the well-definedness constraints hold (weight 0, trivial form)."""
        if self.weight() != 0:
            return False
        Q = self.zpart_quadratic(n)
        return all(not Q[i][j] for i in range(n) for j in range(n))

    def substitute(self, assignments):
        return ThetaExpr(tuple((f.substitute(assignments), m) for f, m in self.factors), self.arity)

    def eval(self, ctx, bind):
        """The product at the bindings, memoized per (context, exact bindings)."""

        def compute():
            with mp.workprec(ctx._wp):
                val = mpc(1)
                for form, m in self.factors:
                    val *= ctx.theta(form.eval(bind)) ** m
            return val

        key = (ctx, tuple(sorted((s, point_key(v)) for s, v in bind.items())))
        return memo(self._cache, key, compute)

    def __repr__(self):
        return " * ".join("theta(%s)^%d" % (f, m) for f, m in self.factors) or "1"


# ---------------------------------------------------------------------------
# Gamma products


@dataclass(frozen=True)
class Unbalanced:
    """Non-trivial class of a Gamma product; carries the residual ledger."""

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

    def polarization_poly(self):
        """Ledger polarization sum m * a(a-q)(2a-q)/12q, q = the step."""
        q = self.step.to_poly()
        total = Poly()
        for form, m in self.terms:
            a = form.to_poly()
            p = a * (a - q) * (a * 2 - q) * Fraction(m, 12)
            total = total + _poly_div_form(p, self.step)
        return total

    def weight_poly(self):
        """Ledger weight sum m * (-a/q)."""
        total = Poly()
        for form, m in self.terms:
            total = total + _poly_div_form(form.to_poly() * Fraction(-m), self.step)
        return total

    def _classes(self):
        """Group terms by argument modulo integer multiples of the step."""
        classes = []  # list of [rep AffineForm, dict k -> exponent]
        for form, m in self.terms:
            placed = False
            for cls in classes:
                rep = cls[0]
                diff = form - rep
                r = _integer_step_multiple(diff, self.step)
                if r is not None:
                    cls[1][r] = cls[1].get(r, 0) + m
                    placed = True
                    break
            if not placed:
                classes.append([form, {0: m}])
        return classes

    def reduce(self, arity=0):
        """Resolve a balanced product into a ThetaExpr; else return Unbalanced.

        gamma(a + k*step) = theta(a; step)_k * gamma(a), so within each class
        the Gamma symbols cancel and the theta shifted factorials remain.
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


def _integer_step_multiple(diff, step):
    """If diff == n*step with n an integer, return n, else None."""
    if not diff.coeffs and not diff.const:
        return 0
    # match against n*step: pick any anchor coefficient of step
    if step.coeffs:
        sym, c = next(iter(step.coeffs.items()))
        n = diff.coeff(sym) / c
    elif step.const:
        n = diff.const / step.const
    else:
        return None
    if n.denominator != 1:
        return None
    if (step * n).key() == diff.key():
        return int(n)
    return None


def _poly_div_form(poly, form):
    """Divide a polynomial by an affine form c*q (single-symbol) exactly."""
    syms = list(form.coeffs.items())
    if form.const or len(syms) != 1:
        raise ValueError("step must be a rational multiple of a single symbol")
    sym, c = syms[0]
    out = {}
    for mono, coeff in poly.terms.items():
        out[_mono_mul(mono, ((sym, -1),))] = coeff / c
    return Poly(out)
