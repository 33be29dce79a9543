"""n-variable elliptic difference operators and their algebra.

An operator is a finite map from shift vectors k (all congruent to the same
half-integer parity class) to coefficient evaluators:

    (D f)(z) = sum_k c_k(z) f(z + q*k),

so T_i pulls a function back through z_i -> z_i + q.  Coefficients carry
their denominator theta factors explicitly, which lets the condition
checkers evaluate residues on divisors instead of extracting limits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpc, mpf

from .curve import memo, point_key
from .symbols import AffineForm, GammaProduct, ThetaExpr, Unbalanced, zvar


@dataclass(frozen=True)
class DegreeVector:
    """Degree ledger: coefficients of delta, s, f and the blowup classes e_j."""

    delta: int = 0
    s: int = 0
    f: int = 0
    e: tuple = ()

    def __sub__(self, other):
        ne = tuple(a - b for a, b in zip(self.e or (0,) * len(other.e or ()), other.e or (0,) * len(self.e or ())))
        return DegreeVector(self.delta - other.delta, self.s - other.s, self.f - other.f, ne)


def bindings_for(params, z):
    """The parameter bindings extended by z1, z2, ... for the point z."""
    bind = dict(params)
    for i, w in enumerate(z):
        bind["z%d" % (i + 1)] = w
    return bind


def rel_defect(a, b):
    """Symmetric relative defect |a - b| / max(|a|, |b|, 1e-30)."""
    return abs(a - b) / max(abs(a), abs(b), mpf("1e-30"))


def op_defect(ctx, A, B, pts):
    """Worst rel_defect of the coefficients of A and B over their joint support at pts."""
    worst = mpf(0)
    keys = set(A.support()) | set(B.support())
    for z in pts:
        for k in keys:
            worst = max(worst, rel_defect(A.eval_coeff(ctx, k, z), B.eval_coeff(ctx, k, z)))
    return worst


class Coefficient:
    """Base evaluator; subclasses add residue support where structure allows."""

    denominators = ()

    def eval(self, ctx, z):
        raise NotImplementedError

    def transformed(self, assignments, params=None):
        """Precompose the evaluator with an affine substitution of z symbols."""
        raise NotImplementedError

    def scaled(self, expr_or_const):
        raise NotImplementedError

    def residue_parts(self):
        """List of (scale, ThetaExpr, params) if residue-capable, else None."""
        return None


class ExprCoefficient(Coefficient):
    """ThetaExpr-backed coefficient with parameter bindings."""

    def __init__(self, expr, params, scale=1):
        self.expr = expr
        self.params = dict(params)
        self.scale = scale

    def eval(self, ctx, z):
        v = self.expr.eval(ctx, bindings_for(self.params, z))
        return v if self.scale == 1 else mpc(self.scale) * v

    @property
    def denominators(self):
        return self.expr.denominator_forms()

    def transformed(self, assignments, params=None):
        return ExprCoefficient(self.expr.substitute(assignments), self.params, self.scale)

    def scaled(self, factor):
        if isinstance(factor, ThetaExpr):
            return ExprCoefficient(self.expr * factor, self.params, self.scale)
        return ExprCoefficient(self.expr, self.params, _scale_mul(self.scale, factor))

    def scaled_expr(self, expr, params=None):
        return ExprCoefficient(self.expr * expr, self.params, self.scale)

    def residue_parts(self):
        return [(self.scale, self.expr, self.params)]


class SumCoefficient(Coefficient):
    """Linear combination of ThetaExpr-backed coefficients (residue-capable)."""

    def __init__(self, parts):
        self.parts = [p if isinstance(p, ExprCoefficient) else ExprCoefficient(*p) for p in parts]

    def eval(self, ctx, z):
        return sum((p.eval(ctx, z) for p in self.parts), mpc(0))

    @property
    def denominators(self):
        out = []
        for p in self.parts:
            out.extend(p.denominators)
        return tuple(out)

    def transformed(self, assignments, params=None):
        return SumCoefficient([p.transformed(assignments, params) for p in self.parts])

    def scaled(self, factor):
        return SumCoefficient([p.scaled(factor) for p in self.parts])

    def scaled_expr(self, expr, params=None):
        return SumCoefficient([p.scaled_expr(expr) for p in self.parts])

    def residue_parts(self):
        return [(p.scale, p.expr, p.params) for p in self.parts]


class FnCoefficient(Coefficient):
    """Opaque evaluator (operator products, solver output); memoized per (context, exact point)."""

    def __init__(self, fn, denominators=()):
        self.fn = fn
        self.denominators = tuple(denominators)
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

    def scaled(self, factor):
        if isinstance(factor, ThetaExpr):
            raise ValueError("opaque coefficients need scaled_expr for symbolic factors")

        def fn(ctx, z, inner=self, factor=factor):
            return mpc(factor) * inner.eval(ctx, z)

        return FnCoefficient(fn, self.denominators)

    def scaled_expr(self, expr, params):
        def fn(ctx, z, inner=self, expr=expr, params=params):
            return inner.eval(ctx, z) * expr.eval(ctx, bindings_for(params, z))

        return FnCoefficient(fn, self.denominators + expr.denominator_forms())


def _scale_mul(a, b):
    if a == 1:
        return b
    if b == 1:
        return a
    return mpc(a) * mpc(b)


class DifferenceOperator:
    """Finite difference operator with tagged degree data; immutable."""

    def __init__(self, n, coeffs, params, degree=None, parity=None):
        self.n = n
        self.coeffs = {tuple(Fraction(x) for x in k): v for k, v in coeffs.items()}
        self.params = dict(params)
        self.degree = degree
        pars = {x - int(x) if x >= 0 else x - int(x) + (1 if x % 1 else 0)
                for k in self.coeffs for x in k}
        pars = {Fraction(p) % 1 for p in pars} or {Fraction(0)}
        if len(pars) > 1:
            raise ValueError("support keys do not share a parity class")
        self.parity = parity if parity is not None else pars.pop()

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

    def apply(self, ctx, f, z):
        """(D f)(z) = sum_k c_k(z) f(z + q k)."""
        q = mpc(self.q)
        total = mpc(0)
        for k, c in self.coeffs.items():
            shifted = tuple(z[i] + q * mpc(k[i].numerator) / k[i].denominator for i in range(self.n))
            total += c.eval(ctx, z) * f(shifted)
        return total

    def compose(self, other):
        """self after other: (A B) f = A (B f)."""
        if self.n != other.n:
            raise ValueError("arity mismatch")
        if mpc(self.q) != mpc(other.q):
            raise ValueError("operators built over different q")
        q = mpc(self.q)
        new = {}
        for ka, ca in self.coeffs.items():
            for kb, cb in other.coeffs.items():
                k = tuple(a + b for a, b in zip(ka, kb))
                new.setdefault(k, []).append((ka, ca, cb))
        coeffs = {}
        for k, terms in new.items():
            def fn(ctx, z, terms=terms, q=q, n=self.n):
                total = mpc(0)
                for ka, ca, cb in terms:
                    zs = tuple(z[i] + q * mpc(ka[i].numerator) / ka[i].denominator for i in range(n))
                    total += ca.eval(ctx, z) * cb.eval(ctx, zs)
                return total

            coeffs[k] = FnCoefficient(fn)
        degree = None
        if self.degree and other.degree:
            degree = (other.degree[0], self.degree[1])
        return DifferenceOperator(self.n, coeffs, self.params, degree)

    def __mul__(self, other):
        return self.compose(other)

    def scaled(self, factor):
        return DifferenceOperator(
            self.n, {k: c.scaled(factor) for k, c in self.coeffs.items()}, self.params, self.degree
        )

    def add(self, other, scale=1):
        keys = set(self.coeffs) | set(other.coeffs)
        coeffs = {}
        for k in keys:
            a, b = self.coefficient(k), other.coefficient(k)
            if a is not None and b is not None:
                def fn(ctx, z, a=a, b=b, scale=scale):
                    return a.eval(ctx, z) + mpc(scale) * b.eval(ctx, z)

                coeffs[k] = FnCoefficient(fn)
            elif a is not None:
                coeffs[k] = a
            else:
                coeffs[k] = b if scale == 1 else b.scaled(scale)
        return DifferenceOperator(self.n, coeffs, self.params, self.degree)

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

    def __init__(self, n, ulist=(), with_t=True):
        self.n = n
        self.ulist = tuple(u if isinstance(u, AffineForm) else AffineForm.const_form(u) for u in ulist)
        self.with_t = with_t
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
                        if self.with_t:
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
