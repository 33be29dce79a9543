"""n-variable elliptic difference operators and their algebra.

An operator is a finite map from shift vectors k (all congruent to the same
half-integer parity class) to coefficient evaluators:

    (D f)(z) = sum_k c_k(z) f(z + q*k),

so T_i pulls a function back through z_i -> z_i + q.  A coefficient is either
structured, an `ExprCoefficient` (a sum of scaled ThetaExprs, so its
denominator theta factors are explicit and the condition checkers evaluate
residues on divisors instead of extracting limits), or an opaque
`FnCoefficient` (compositions, formal tails).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpc, mpf
from mpmath.libmp import mpc_mul

from .curve import at_context_precision, exact_mpc, memo, point_key
from .symbols import AffineForm, GammaProduct, ThetaExpr, Unbalanced, zvar


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


def shift_point(z, q, k):
    """z + q k, the point that the shift k of an operator over q reads; q is taken exactly.

    `apply`, `compose` and the formal tails all form their shifted points
    here, at the caller's (the context's) precision, so equal points get
    equal memo keys.
    """
    q = exact_mpc(q)
    return tuple(w + q * mpc(x.numerator) / x.denominator for w, x in zip(z, k))


def rel_defect(a, b):
    """Symmetric relative defect |a - b| / max(|a|, |b|, 1e-30)."""
    return abs(a - b) / max(abs(a), abs(b), mpf("1e-30"))


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

    @staticmethod
    def sum(coeffs):
        """One coefficient holding the parts of every coefficient in coeffs, in order."""
        out = object.__new__(ExprCoefficient)
        out.parts = tuple(part for c in coeffs for part in c.parts)
        return out

    def eval(self, ctx, z):
        with mp.workprec(ctx._wp):
            total = mpc(0)
            for scale, expr, params in self.parts:
                v = expr.eval(ctx, bindings_for(params, z))
                total += v if scale == 1 else mpc(scale) * v
        return total

    def transformed(self, assignments, params=None):
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

    def scaled_expr(self, expr, params=None):
        return ExprCoefficient.sum(
            ExprCoefficient(e * expr, prms, scale) for scale, e, prms in self.parts
        )


class FnCoefficient:
    """Opaque evaluator (operator products, formal tails); memoized per (context, exact point)."""

    def __init__(self, fn):
        self.fn = fn
        self._cache = {}

    def eval(self, ctx, z):
        def compute():
            with mp.workprec(ctx._wp):
                return self.fn(ctx, z)

        return memo(self._cache, (ctx, tuple(map(point_key, z))), compute)

    def transformed(self, assignments, params=None):
        def fn(ctx, z, assignments=assignments, inner=self, params=params):
            bind = bindings_for(params or {}, z)
            w = tuple(assignments["z%d" % (i + 1)].eval(bind) if "z%d" % (i + 1) in assignments
                      else z[i] for i in range(len(z)))
            return inner.eval(ctx, w)

        return FnCoefficient(fn)

    def scaled_expr(self, expr, params):
        def fn(ctx, z, inner=self, expr=expr, params=params):
            return inner.eval(ctx, z) * expr.eval(ctx, bindings_for(params, z))

        return FnCoefficient(fn)


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
        """self after other: (A B) f = A (B f)."""
        if self.n != other.n:
            raise ValueError("arity mismatch")
        if point_key(self.q) != point_key(other.q):
            raise ValueError("operators built over different q")
        new = {}
        for ka, ca in self.coeffs.items():
            for kb, cb in other.coeffs.items():
                k = tuple(a + b for a, b in zip(ka, kb))
                new.setdefault(k, []).append((ka, ca, cb))
        coeffs = {}
        for k, terms in new.items():
            def fn(ctx, z, terms=terms, q=self.q):
                total = mpc(0)
                for ka, ca, cb in terms:
                    total += ca.eval(ctx, z) * cb.eval(ctx, shift_point(z, q, ka))
                return total

            coeffs[k] = FnCoefficient(fn)
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
        """Conjugation by the signed permutation w: coefficients and keys move together."""
        from .weyl import sp_apply, sp_inverse

        winv = sp_inverse(w)
        assignments = {}
        iperm, isigns = winv
        for i in range(self.n):
            assignments["z%d" % (i + 1)] = AffineForm({"z%d" % (iperm[i] + 1): isigns[i]})
        coeffs = {}
        for k, c in self.coeffs.items():
            coeffs[sp_apply(w, k)] = c.transformed(assignments)
        return DifferenceOperator(self.n, coeffs, self.params, self.degree)

    @at_context_precision
    def is_invariant(self, ctx, samples, tol=None):
        """Max relative defect of D - w D w^{-1} over group generators at samples."""
        from .weyl import hyperoctahedral_generators

        worst = mpf(0)
        for w in hyperoctahedral_generators(self.n):
            Dw = self.group_act(w)
            if set(Dw.coeffs) != set(self.coeffs):
                return False if tol is not None else mp.inf
            for z in samples:
                for k in self.coeffs:
                    a = self.eval_coeff(ctx, k, z)
                    worst = max(worst, rel_defect(a, Dw.eval_coeff(ctx, k, z)))
        if tol is None:
            return worst
        return worst < tol

    # -- structure --------------------------------------------------------

    def orbit_weights(self):
        """Dominant representatives of the support orbits."""
        reps = set()
        for k in self.coeffs:
            reps.add(tuple(sorted((abs(x) for x in k), reverse=True)))
        return sorted(reps)

    def leading_terms(self):
        """Dominance-maximal dominant weights with the corner (-mu) coefficients."""
        from .weyl import dominance_leq

        if not self.coeffs:
            raise ValueError("empty operator")
        reps = self.orbit_weights()
        maxima = []
        for mu in reps:
            dominated = False
            for nu in reps:
                if nu == mu:
                    continue
                try:
                    if dominance_leq(mu, nu):
                        dominated = True
                        break
                except ValueError:
                    continue
            if not dominated:
                maxima.append(mu)
        out = []
        for mu in maxima:
            corner = tuple(-x for x in mu)
            out.append((mu, self.coefficient(corner)))
        return out

    # -- gauges and adjoints -----------------------------------------------

    def gauge_conjugate(self, gamma_out, gamma_in):
        """Gamma_out . D . Gamma_in^{-1}; each shift's ratio must be balanced."""
        qform = AffineForm.var("q")
        coeffs = {}
        for k, c in self.coeffs.items():
            shift = {"z%d" % (i + 1): zvar(i + 1) + qform * k[i] for i in range(self.n)}
            ratio = gamma_out * gamma_in.substitute(shift).inverse()
            resolved = ratio.reduce(arity=self.n)
            if isinstance(resolved, Unbalanced):
                raise ValueError("unbalanced gauge at shift %s: %s" % (k, resolved))
            coeffs[k] = c.scaled_expr(resolved, self.params)
        return DifferenceOperator(self.n, coeffs, self.params, self.degree)

    def selberg_adjoint(self, density=None):
        """Formal adjoint for the density; involutive anti-homomorphism, 1 -> 1.

        Coefficientwise: c~_k(z) = c_k(-z - q k) * [Delta(z + q k)/Delta(z)],
        the bracket resolved through the Gamma functional equation.
        """
        density = density or SelbergDensity(self.n)
        qform = AffineForm.var("q")
        coeffs = {}
        for k, c in self.coeffs.items():
            ratio = density.shift_ratio(k)
            neg = {"z%d" % (i + 1): zvar(i + 1) * -1 - qform * k[i] for i in range(self.n)}
            moved = c.transformed(neg, self.params)
            coeffs[k] = moved.scaled_expr(ratio, self.params)
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
        return memo(self._ratio_cache, k, lambda: self._resolve_ratio(k))

    def _resolve_ratio(self, k):
        resolved = self.product.shift_ratio(k, self.n)
        if isinstance(resolved, Unbalanced):
            raise ValueError("density ratio unbalanced at shift %s" % (k,))
        return resolved


def identity_operator(n, params):
    return DifferenceOperator(n, {tuple([0] * n): ExprCoefficient(ThetaExpr.one(n), params)}, params)


def multiplication_operator(n, expr, params):
    """The operator 'multiply by expr(z)'."""
    return DifferenceOperator(n, {tuple([0] * n): ExprCoefficient(expr, params)}, params)


def monomial_operator(n, k, expr, params):
    """expr(z) * T^k."""
    return DifferenceOperator(n, {tuple(k): ExprCoefficient(expr, params)}, params)
