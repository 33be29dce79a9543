"""n-variable elliptic difference operators and their algebra.

An operator is a finite map from shift vectors k (all congruent to the same
half-integer parity class) to coefficient evaluators:

    (D f)(z) = sum_k c_k(z) f(z + q*k),

so T_i pulls a function back through z_i -> z_i + q.  A coefficient is either
structured, an `ExprCoefficient` (a sum of scaled ThetaExprs, so its
denominator theta factors are explicit and the condition checkers evaluate
residues on divisors instead of extracting limits), or a
`CompositeCoefficient` (a coefficient of `DifferenceOperator.compose`: a sum
of products of shifted structured coefficients).  Both are evaluated on the
context's fixed-point argument table (`factors`), as are the formal layer's
head ratios and Fourier-kernel tail relations, which are `ExprCoefficient`s.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpc, mpf
from mpmath.libmp import mpc_mul

from .curve import (
    GAUSS_ONE,
    GAUSS_ZERO,
    at_context_precision,
    exact_mpc,
    gauss_add,
    gauss_cut,
    gauss_mul,
    gauss_round,
    memo,
    point_key,
)
from .factors import CompiledParts, compile_parts, fixed_point, fixed_shift
from .symbols import AffineForm, GammaProduct, ThetaExpr, zvar
from .weyl import act, hyperoctahedral_generators


@dataclass(frozen=True)
class DegreeVector:
    """Degree ledger: coefficients of delta, s, f and the blowup classes e_j."""

    delta: int = 0
    s: int = 0
    f: int = 0
    e: tuple = ()


def bindings_for(params, z):
    """The parameter bindings extended by z1, z2, ... for the point z."""
    bind = dict(params)
    for i, w in enumerate(z):
        bind["z%d" % (i + 1)] = w
    return bind


def transpose_substitution(w):
    """The substitution z -> w^T z of the symbols z1..zn, for an n x n integer matrix w.

    For w in W, w^T = w^-1: c(w^T z) is the coefficient c moved by w, as
    `DifferenceOperator.group_act` and `conditions._orbit_coefficients` read it.
    """
    n = len(w)
    return {"z%d" % (i + 1): AffineForm({"z%d" % (j + 1): w[j][i] for j in range(n)}) for i in range(n)}


def shift_point(z, q, k):
    """z + q k, the point that the shift k of an operator over q reads; q is taken exactly.

    `apply` and the formal tails form their shifted points here, at the
    caller's (the context's) precision, so equal points get equal memo keys.
    """
    q = exact_mpc(q)
    return tuple(w + q * mpc(x.numerator) / x.denominator for w, x in zip(z, k))


def rel_defect(a, b):
    """Symmetric relative defect |a - b| / max(|a|, |b|, 1e-30); inf where that is NaN.

    A NaN would compare False with everything, so `max(worst, nan)` would
    drop it and a check folding defects by max would pass; inf fails it.
    """
    d = abs(a - b) / max(abs(a), abs(b), mpf("1e-30"))
    return d if d == d else mp.inf


@at_context_precision
def op_defect(ctx, A, B, pts):
    """Worst rel_defect of the coefficients of A and B over their joint support at pts."""
    worst = mpf(0)
    keys = set(A.support()) | set(B.support())
    for z in pts:
        for k in keys:
            worst = max(worst, rel_defect(A.eval_coeff(ctx, k, z), B.eval_coeff(ctx, k, z)))
    return worst


class ExprCoefficient:
    """A structured coefficient: the sum of scale * expr over its parts.

    parts: tuple of (scale, ThetaExpr, params) triples, params binding each
    expression's parameter symbols.  `ExprCoefficient(expr, params, scale)`
    is the one-part coefficient and `ExprCoefficient.sum` joins several.
    """

    def __init__(self, expr, params, scale=1):
        self.parts = ((scale, expr, dict(params)),)
        self._compiled = {}

    @staticmethod
    def sum(coeffs):
        """One coefficient holding the parts of every coefficient in coeffs, in order."""
        out = object.__new__(ExprCoefficient)
        out.parts = tuple(part for c in coeffs for part in c.parts)
        out._compiled = {}
        return out

    def compiled(self, ctx):
        """The parts compiled under ctx (`factors.compile_parts`); memoized per context."""
        return memo(self._compiled, ctx, lambda: CompiledParts(ctx, compile_parts(ctx, self.parts)))

    def eval(self, ctx, z):
        """The sum of the parts at z, rounded once to `ctx._wp` bits."""
        return gauss_round(self.compiled(ctx).value(fixed_point(ctx, z)), ctx._wp)

    def transformed(self, assignments):
        """Precompose with an affine substitution of z symbols."""
        return ExprCoefficient.sum(
            ExprCoefficient(expr.substitute(assignments), prms, scale)
            for scale, expr, prms in self.parts
        )

    def scaled(self, factor):
        return ExprCoefficient.sum(
            ExprCoefficient(expr, prms, mul_scales(scale, factor))
            for scale, expr, prms in self.parts
        )

    def scaled_expr(self, expr):
        """Each part's expression times expr, read under the part's own parameters."""
        return ExprCoefficient.sum(
            ExprCoefficient(e * expr, prms, scale) for scale, e, prms in self.parts
        )


class CompositeCoefficient:
    """A coefficient of a composed operator: sum over terms of prod_i c_i(z + q s_i).

    terms: tuple of terms, each a tuple of (shift s_i, ExprCoefficient c_i);
    params: the composed operator's parameters, q among them.
    A value forms z's fixed point once and reads each c_i at it moved by
    q s_i (`factors.fixed_shift`, one integer sum per coordinate).  The
    factors' Gaussian-float values multiply, the terms add exactly, and the
    sum is rounded once.
    """

    def __init__(self, n, params, terms):
        self.n = n
        self.params = params
        self.terms = tuple(tuple(term) for term in terms)
        self._compiled = {}

    def eval(self, ctx, z):
        terms, shifts = memo(self._compiled, ctx, lambda: self._compile(ctx))
        F = ctx._fix
        zf = fixed_point(ctx, z)
        points = [tuple((r + dr, i + di) for (r, i), (dr, di) in zip(zf, offsets)) for offsets in shifts]
        total = GAUSS_ZERO
        for term in terms:
            v = GAUSS_ONE
            for i, parts in term:
                v = gauss_mul(v, gauss_cut(*parts.value(points[i]), F), F)
            total = gauss_add(total, v)
        return gauss_round(total, ctx._wp)

    def _compile(self, ctx):
        """Per term, (index of its shift, compiled parts) per factor, and the distinct shifts in fixed point."""
        index = {}  # shift -> its index, in first-seen order
        terms = [[(index.setdefault(s, len(index)), c.compiled(ctx)) for s, c in term] for term in self.terms]
        return terms, [fixed_shift(ctx, self.params["q"], s) for s in index]

    def transformed(self, assignments):
        """Precompose with an affine substitution of z symbols.

        c_i(w + q s_i) at w = assignments(z) is c_i precomposed with
        z_j -> assignments_j + q s_ij, q read from each part's own "q" as
        `DifferenceOperator.selberg_adjoint` reads it.
        """
        qform = AffineForm.var("q")
        names = ["z%d" % (j + 1) for j in range(self.n)]
        zero = (Fraction(0),) * self.n
        done = {}

        def moved(s, c):
            assign = {z: assignments.get(z, AffineForm.var(z)) + qform * x for z, x in zip(names, s)}
            return zero, c.transformed(assign)

        return CompositeCoefficient(
            self.n, self.params, [[memo(done, (s, c), lambda: moved(s, c)) for s, c in term] for term in self.terms]
        )

    def scaled_expr(self, expr):
        """One more unshifted factor in every term: expr, read under the operator's parameters."""
        zero = (Fraction(0),) * self.n
        factor = (zero, ExprCoefficient(expr, self.params))
        return CompositeCoefficient(self.n, self.params, [term + (factor,) for term in self.terms])


def mul_scales(a, b):
    """The product of two coefficient scales, formed exactly (no rounding)."""
    if a == 1:
        return b
    if b == 1:
        return a
    return mp.make_mpc(mpc_mul(exact_mpc(a)._mpc_, exact_mpc(b)._mpc_, 0))


class DifferenceOperator:
    """Finite difference operator with tagged degree data; immutable."""

    def __init__(self, n, coeffs, params, degree=None):
        self.n = n
        self.coeffs = {tuple(Fraction(x) for x in k): v for k, v in coeffs.items()}
        self.params = dict(params)
        self.degree = degree
        pars = {x % 1 for k in self.coeffs for x in k} or {Fraction(0)}
        if len(pars) > 1:
            raise ValueError("support keys do not share a parity class")
        self.parity = pars.pop()

    @property
    def q(self):
        return self.params["q"]

    def support(self):
        return sorted(self.coeffs)

    def coefficient(self, k):
        return self.coeffs.get(tuple(Fraction(x) for x in k))

    def eval_coeff(self, ctx, k, z):
        c = self.coefficient(k)
        if c is None:
            return mpc(0)
        return c.eval(ctx, z)

    @at_context_precision
    def apply(self, ctx, f, z):
        """(D f)(z) = sum_k c_k(z) f(z + q k)."""
        total = mpc(0)
        for k, c in self.coeffs.items():
            total += c.eval(ctx, z) * f(shift_point(z, self.q, k))
        return total

    def compose(self, other):
        """self after other: (A B) f = A (B f), with `CompositeCoefficient`s; nested composites flatten."""
        if self.n != other.n:
            raise ValueError("arity mismatch")
        if point_key(self.q) != point_key(other.q):
            raise ValueError("operators built over different q")
        zero = (Fraction(0),) * self.n
        sums = {}  # (s, ka) -> s + ka, one tuple per distinct sum

        def terms(c):
            if isinstance(c, ExprCoefficient):
                return (((zero, c),),)
            if isinstance(c, CompositeCoefficient):
                return c.terms
            raise ValueError("only operators with structured or composite coefficients compose")

        def moved(s, ka):
            return memo(sums, (s, ka), lambda: tuple(x + y for x, y in zip(s, ka)))

        by_shift = {}
        for ka, ca in self.coeffs.items():
            for kb, cb in other.coeffs.items():
                # ca(z) cb(z + q ka): every factor of cb's terms moves by ka
                by_shift.setdefault(tuple(a + b for a, b in zip(ka, kb)), []).extend(
                    ta + tuple((moved(s, ka), c) for s, c in tb) for ta in terms(ca) for tb in terms(cb)
                )
        coeffs = {k: CompositeCoefficient(self.n, self.params, ts) for k, ts in by_shift.items()}
        degree = None
        if self.degree and other.degree:
            degree = (other.degree[0], self.degree[1])
        return DifferenceOperator(self.n, coeffs, self.params, degree)

    def scaled(self, factor):
        """factor * self; every coefficient must be structured."""
        if not all(isinstance(c, ExprCoefficient) for c in self.coeffs.values()):
            raise ValueError("only operators with structured coefficients scale")
        return DifferenceOperator(
            self.n, {k: c.scaled(factor) for k, c in self.coeffs.items()}, self.params, self.degree
        )

    # -- group action -----------------------------------------------------

    def group_act(self, w):
        """Conjugation by w in W, an integer matrix: the coefficient c at k moves to w k as c(w^T z).

        The substitution z -> w^T z is `transpose_substitution`(w).
        """
        assignments = transpose_substitution(w)
        coeffs = {act(w, k): c.transformed(assignments) for k, c in self.coeffs.items()}
        return DifferenceOperator(self.n, coeffs, self.params, self.degree)

    @at_context_precision
    def is_invariant(self, ctx, samples):
        """Max relative defect of D - w D w^{-1} over group generators at samples; mp.inf if the supports differ."""
        worst = mpf(0)
        for w in hyperoctahedral_generators(self.n):
            Dw = self.group_act(w)
            if set(Dw.coeffs) != set(self.coeffs):
                return mp.inf
            for z in samples:
                for k in self.coeffs:
                    a = self.eval_coeff(ctx, k, z)
                    worst = max(worst, rel_defect(a, Dw.eval_coeff(ctx, k, z)))
        return worst

    # -- gauges and adjoints -----------------------------------------------

    def gauge_conjugate(self, gamma_out, gamma_in):
        """Gamma_out . D . Gamma_in^{-1}; each shift's ratio must be balanced (`symbols.UnbalancedError` otherwise)."""
        qform = AffineForm.var("q")
        coeffs = {}
        for k, c in self.coeffs.items():
            shift = {"z%d" % (i + 1): zvar(i + 1) + qform * k[i] for i in range(self.n)}
            ratio = gamma_out * gamma_in.substitute(shift).inverse()
            coeffs[k] = c.scaled_expr(ratio.reduce(arity=self.n))
        return DifferenceOperator(self.n, coeffs, self.params, self.degree)

    def selberg_adjoint(self, density):
        """Formal adjoint for the density; involutive anti-homomorphism, 1 -> 1.

        Coefficientwise: c~_k(z) = c_k(-z - q k) * [Delta(z + q k)/Delta(z)],
        the bracket resolved through the Gamma functional equation.
        """
        qform = AffineForm.var("q")
        coeffs = {}
        for k, c in self.coeffs.items():
            ratio = density.shift_ratio(k)
            neg = {"z%d" % (i + 1): zvar(i + 1) * -1 - qform * k[i] for i in range(self.n)}
            moved = c.transformed(neg)
            coeffs[k] = moved.scaled_expr(ratio)
        return DifferenceOperator(self.n, coeffs, self.params, self.degree)

    # -- serialization -----------------------------------------------------

    def to_text(self):
        from .serialize import operator_to_text

        return operator_to_text(self)

    @staticmethod
    def from_text(text):
        from .serialize import operator_from_text

        return operator_from_text(text)


class SelbergDensity:
    """prod_i prod_u Gamma(u +- z_i)/Gamma(+-2z_i) prod_{i<j} Gamma(t+-z_i+-z_j)/Gamma(+-z_i+-z_j).

    `ulist` holds affine forms (in parameter symbols) for elementary
    transformation factors; the pure Selberg density has none.
    """

    def __init__(self, n, ulist=()):
        self.n = n
        self.ulist = tuple(u if isinstance(u, AffineForm) else AffineForm.const_form(u) for u in ulist)
        terms = []
        t = AffineForm.var("t")
        for i in range(1, n + 1):
            z = zvar(i)
            for u in self.ulist:
                terms.append((u + z, 1))
                terms.append((u - z, 1))
            terms.append((z * 2, -1))
            terms.append((z * -2, -1))
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                zi, zj = zvar(i), zvar(j)
                for si in (1, -1):
                    for sj in (1, -1):
                        arg = zi * si + zj * sj
                        terms.append((t + arg, 1))
                        terms.append((arg, -1))
        self.product = GammaProduct(terms=tuple(terms))
        self._ratio_cache = {}

    def shift_ratio(self, k):
        """Delta(z + q k) / Delta(z) resolved to a ThetaExpr, memoized per shift."""
        k = tuple(Fraction(x) for x in k)
        return memo(self._ratio_cache, k, lambda: self.product.shift_ratio(k, self.n))


def identity_operator(n, params):
    return DifferenceOperator(n, {tuple([0] * n): ExprCoefficient(ThetaExpr.one(n), params)}, params)


def multiplication_operator(n, expr, params):
    """The operator 'multiply by expr(z)'."""
    return DifferenceOperator(n, {tuple([0] * n): ExprCoefficient(expr, params)}, params)
