"""Formal layer: affine forms, theta-product expressions, Gamma products.

An AffineForm is held on integers: a numerator per symbol, in stored order,
a constant numerator and one positive common denominator, normalized so that
the gcd of the denominator and every numerator is 1.  Equal forms are then
equal field by field, so `key`, `layout`, hashing and equality read ints, and
+, -, scalar * and `substitute` cost one lcm and one gcd each; the Fraction
views `coeffs` and `const` are for tests and serialization.  A ThetaExpr is
a finite product of theta factors with affine-linear arguments, an integer
exponent each; a GammaProduct is a formal product of elliptic Gamma symbols
with a fixed step, resolved into a ThetaExpr through the functional equation
(`GammaProduct.reduce`, and `shift_ratio` through it) when its class in
Z[Hom/q] is trivial, and raising `UnbalancedError`, which carries the
unbalanced classes, when it is not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp
from mpmath.libmp import from_int, fzero, mpf_add, mpf_div, mpf_mul, round_nearest

from .curve import gauss_round, point_key
from .factors import CompiledParts, compile_parts, fixed_point, z_coefficients


# ---------------------------------------------------------------------------
# affine forms


def _ratio(x):
    """(numerator, denominator) of the rational x, reduced, the denominator positive; ints and Fractions are read as they are."""
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    return x.numerator, x.denominator


def _form(nums, num, den):
    """The form (sum_s nums[s] s + num) / den, the common factor taken out; nums holds no zeros and den > 0."""
    g = math.gcd(den, num, *nums.values())
    if g != 1:
        nums = {s: a // g for s, a in nums.items()}
        num //= g
        den //= g
    form = object.__new__(AffineForm)
    form.nums, form.num, form.den = nums, num, den
    return form


def _as_form(x):
    """x as a form: a form as it is, a rational as a constant form."""
    return x if isinstance(x, AffineForm) else AffineForm({}, x)


class AffineForm:
    """Affine-linear form (sum_s nums[s] * s + num) / den over one denominator.

    nums maps each symbol to a nonzero int numerator, in stored order; num
    is the constant's numerator and den > 0 the common denominator, with
    gcd(den, num, *nums) = 1.  `coeffs` and `const` are Fraction views.
    """

    __slots__ = ("nums", "num", "den")

    def __init__(self, coeffs=None, const=0):
        """sum_s coeffs[s] * s + const, from ints or rationals; zero coefficients are dropped.

        den is the lcm of the reduced denominators, so the gcd is already 1.
        """
        pairs = {s: _ratio(c) for s, c in coeffs.items() if c} if coeffs else {}
        cn, cd = _ratio(const)
        den = math.lcm(cd, *(d for _, d in pairs.values()))
        self.nums = {s: n * (den // d) for s, (n, d) in pairs.items()}
        self.num, self.den = cn * (den // cd), den

    @staticmethod
    def var(sym, c=1):
        return _form({sym: c}, 0, 1) if isinstance(c, int) and c else AffineForm({sym: c})

    @staticmethod
    def const_form(c):
        return AffineForm({}, c)

    @property
    def coeffs(self):
        """{sym: Fraction coefficient} in stored order (a copy)."""
        return {s: Fraction(n, self.den) for s, n in self.nums.items()}

    @property
    def const(self):
        return Fraction(self.num, self.den)

    def _plus(self, other, k):
        """self + k * other for a form other and an int k != 0; a symbol that cancels is removed."""
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, k * den // other.den
        nums = {s: n * a for s, n in self.nums.items()}
        for s, n in other.nums.items():
            v = nums.get(s, 0) + n * b
            if v:
                nums[s] = v
            else:
                del nums[s]
        return _form(nums, self.num * a + other.num * b, den)

    def __add__(self, other):
        return self._plus(_as_form(other), 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(_as_form(other), -1)

    def __rsub__(self, other):
        return _as_form(other)._plus(self, -1)

    def __neg__(self):
        return _form({s: -n for s, n in self.nums.items()}, -self.num, self.den)

    def __mul__(self, k):
        n, d = _ratio(k)
        if not n:
            return _form({}, 0, 1)
        return _form({s: a * n for s, a in self.nums.items()}, self.num * n, self.den * d)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, AffineForm)
            and self.den == other.den
            and self.num == other.num
            and self.nums == other.nums
        )

    def __hash__(self):
        return hash(self.key())

    def key(self):
        """The form up to the order of its coefficients: equal exactly for equal forms."""
        return tuple(sorted(self.nums.items())), self.num, self.den

    def layout(self):
        """((sym, numerator), ...) in stored order, the constant's numerator and the denominator.

        Equal only for identical forms, coefficient order included: the
        fields are normalized, so equal forms have equal numerators.
        """
        return tuple(self.nums.items()), self.num, self.den

    def coeff(self, sym):
        return Fraction(self.nums.get(sym, 0), self.den)

    def substitute(self, assignments):
        """Replace symbols by affine forms; assignments: sym -> AffineForm.

        The terms are summed as numerators over den * L, L the lcm of the
        substituted forms' denominators, in one dict in order; a symbol that
        cancels is removed, so that if it comes back it comes last, as in
        the sum of the substituted terms taken one at a time.
        """
        subs = {s: assignments[s] for s in self.nums if s in assignments}
        L = math.lcm(*(f.den for f in subs.values()))
        nums, num = {}, self.num * L
        for s, c in self.nums.items():
            sub = subs.get(s)
            if sub is None:
                terms = ((s, c * L),)
            else:
                k = c * (L // sub.den)
                terms = [(t, a * k) for t, a in sub.nums.items()]
                num += sub.num * k
            for t, a in terms:
                v = nums.get(t, 0) + a
                if v:
                    nums[t] = v
                else:
                    del nums[t]
        return _form(nums, num, self.den * L)

    def eval(self, bind, prec):
        """The form at the bindings, an mpc summed exactly and rounded once to prec bits.

        num + sum_s nums[s] sym_s has integer coefficients and is summed
        exactly from the bound values' point keys (libmp at prec 0); the one
        division by den rounds it, to nearest at prec bits.
        """
        re, im = from_int(self.num), fzero
        for s, n in self.nums.items():
            r, i = point_key(bind[s])
            k = from_int(n)
            re, im = mpf_add(re, mpf_mul(r, k)), mpf_add(im, mpf_mul(i, k))
        den = from_int(self.den)
        return mp.make_mpc((mpf_div(re, den, prec, round_nearest), mpf_div(im, den, prec, round_nearest)))

    def __repr__(self):
        bits = []
        for s, c in sorted(self.coeffs.items()):
            bits.append("%s*%s" % (c, s))
        if self.num or not bits:
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

    factors: tuple of (AffineForm, int exponent).
    """

    __slots__ = ("factors", "arity")

    def __init__(self, factors=(), arity=0):
        self.factors = tuple((form, int(m)) for form, m in factors if int(m))
        self.arity = arity

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
        """The product at the bindings, rounded once.

        The factors are compiled on the context's argument table and read at
        the fixed point of the bound z_j (`factors.CompiledParts`).
        """
        parts = compile_parts(ctx, ((1, self, bind),))
        n = max((j + 1 for _, factors in parts for i, _ in factors for j in z_coefficients(ctx, i)), default=0)
        zf = fixed_point(ctx, [bind["z%d" % (j + 1)] for j in range(n)])
        return gauss_round(CompiledParts(ctx, parts).value(zf), ctx._wp)

    def __repr__(self):
        return " * ".join("theta(%s)^%d" % (f, m) for f, m in self.factors) or "1"


# ---------------------------------------------------------------------------
# Gamma products


class UnbalancedError(ValueError):
    """A Gamma product whose class is not trivial; `residual` holds ((class representative, net exponent), ...)."""

    def __init__(self, residual):
        super().__init__("unbalanced Gamma product: " + " * ".join("Gamma(%s)^%d" % r for r in residual))
        self.residual = residual


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
        """self(z + q k) / self(z) resolved by reduce(arity) to a ThetaExpr; UnbalancedError if it does not resolve."""
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
        """Resolve a balanced product into a ThetaExpr; else raise UnbalancedError.

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
            raise UnbalancedError(tuple(residual))
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

    The anchor is the step's first coefficient, else its constant; the
    floor is an int floor of the cross-multiplied numerators.  Forms differ
    by an integer multiple of the step iff their keys agree.
    """
    if step.nums:
        sym, c = next(iter(step.nums.items()))
        n = form.nums.get(sym, 0) * step.den // (form.den * c)
    else:
        n = form.num * step.den // (form.den * step.num)
    return (form._plus(step, -n) if n else form).key(), n
