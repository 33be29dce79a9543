"""Membership conditions for the spherical families and the section solver.

Residue conditions relate coefficients at shift vectors linked by an affine
reflection; vanishing conditions ask one coefficient to vanish along an x- or
t-divisor.  A single sampling pipeline feeds both of its consumers:

* `_residue_samples` draws points on components of a root divisor
  {beta(z) + m q = lambda}, lambda in 0, 1, tau (and 1+tau), away from the
  poles of the coefficients under test, and evaluates the displayed theta
  correction bracket there at one or more u-probes;
* `_vanishing_samples` draws points on an x- or t-divisor, each with a
  nearby reference point that sets the scale.

Every point is put on its root divisor by the one rule `_place_on_root`.
Residues of structured coefficients (`ExprCoefficient`) read the compiled
parts of their values (`ExprCoefficient.compiled`), whose factors are ids in
the context's one argument table, and the poles a sample point avoids are
ids too (`factors.pole_arguments`).  At a point each argument is evaluated
once (`factors.TablePoint`): the pole test, the search for the unique
vanishing factor and the numerator product all read those values, so
holomorphy along a divisor is never a limit extraction.  `check_residue`
reads the two coefficients under test and uses three components and two
u-probes; `SectionModel.condition_rows` reads every basis coefficient and
uses four components and one probe.  `check_vanishing` reads coefficient
values through `eval` (`factors.CompiledParts`).

The residue path runs on Python integers (see `curve` and `factors`).  An
argument is a parameter constant c and integer z-coefficients k_j (+-1 or
+-2 in every model); e(+-c/2) is formed once per context, and a point forms
e(+-z_j/2) once per coordinate.  An argument's F-bit fixed-point value
c + sum_j k_j z_j serves the pole tests and the lattice reduction, and its
theta comes from `CurveContext.theta_fixed` as a Gaussian float, F =
`ctx._wp` + GUARD_BITS.  One sweep per sample point (`_sweep`) reads the
residues of many columns: each part's unique vanishing denominator factor
is found and left out, the parts of all columns are sorted by the factors
left in them, and each part multiplies only the factors after the prefix it
shares with the part before it (`factors.prefix_products`); its scale,
slope and theta' multiply in after that.  A part is a numerator and a
denominator of Gaussian-float products, divided once (`gauss_quotient`):
its relative error is the theta values' own (a few units of 2^-F each, more
only near a theta zero) plus 2^(2-F) per product.  A column's parts add
exactly, and each column is rounded once, to `ctx._wp` bits.
`condition_rows` runs the sweep once per point, over the parts of every
column at the shift k and then at k2; `check_residue` runs it with the two
coefficients as two columns.

Dimensions are decided by the one rank rule of `weyl.rank_certificate`: the
solver's `nullspace_basis` and `operator_span_contains` scale their matrices
to entries of order one (s_max between 10^-0.2 and 10^2.6 at nonzero rank in
the tests and the benchmark), and a rank stands only with certified bounds
on either side of the floor 2^-(prec//2), a RANK_GAP ratio apart, from a
pivoted Cholesky of the exact integer Gram matrix A^H A.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from mpmath import mp, mpc, mpf

from .curve import (
    GAUSS_ZERO,
    MAX_RETRIES,
    PoleProximityError,
    at_context_precision,
    exact_mpc,
    gauss_add,
    gauss_mul,
    gauss_quotient,
    gauss_round,
    memo,
)
from .diffop import (
    DegreeVector,
    DifferenceOperator,
    ExprCoefficient,
    identity_operator,
    rel_defect,
)
from .factors import TablePoint, pole_arguments, prefix_products, z_coefficients
from .families import van_diejen_leading_expr
from .symbols import AffineForm, ThetaExpr, zvar
from .weyl import (
    bruhat_interval,
    inversion_set,
    numeric_rank,
    rank_certificate,
    signed_permutations,
    sp_apply,
    sp_inverse,
    weight_orbit,
)


# ---------------------------------------------------------------------------
# condition specifications


@dataclass(frozen=True)
class ConditionSpec:
    kind: str  # "residue-pair" | "x-vanish" | "t-vanish"
    beta: tuple = ()  # ("sum", i, j) | ("diff", i, j) | ("double", i)
    level: int = 0
    k: tuple = ()
    k2: tuple = ()
    exponent: int = 0
    divisor_var: int = 0  # x-vanish / t-vanish: which z_i
    divisor_point: object = None  # x-vanish: affine form for the point


@dataclass
class ConditionRecord:
    spec_id: str
    defect: object
    passed: bool


@dataclass
class ConditionReport:
    records: list = field(default_factory=list)
    tolerance: object = mpf("1e-25")

    @property
    def passed(self):
        return all(r.passed for r in self.records)

    @property
    def max_defect(self):
        return max((mpf(abs(r.defect)) for r in self.records), default=mpf(0))

    def add(self, spec_id, defect):
        self.records.append(ConditionRecord(spec_id, defect, bool(abs(defect) < self.tolerance)))


def _beta_form(beta, n):
    kind = beta[0]
    v = [Fraction(0)] * n
    if kind == "sum":
        v[beta[1]] += 1
        v[beta[2]] += 1
    elif kind == "diff":
        v[beta[1]] += 1
        v[beta[2]] -= 1
    else:  # double
        v[beta[1]] += 2
    return tuple(v)


def reflect_shift(beta, m, k):
    """Image of the shift vector k under the affine reflection for beta + m q."""
    k = list(k)
    if beta[0] == "sum":
        i, j = beta[1], beta[2]
        k[i], k[j] = m - k[j], m - k[i]
    elif beta[0] == "diff":
        i, j = beta[1], beta[2]
        k[i], k[j] = k[j] + m, k[i] - m
    else:
        i = beta[1]
        k[i] = m - k[i]
    return tuple(k)


def pair_exponent(beta, m, k):
    if beta[0] == "sum":
        return int(2 * (m - k[beta[1]] - k[beta[2]]))
    if beta[0] == "diff":
        return int(2 * (m - k[beta[1]] + k[beta[2]]))
    return int(m - 2 * k[beta[1]])


def enumerate_conditions(degree, lam, params, n):
    """Complete condition list for the Hom space of the given degree.

    degree: (DegreeVector, DegreeVector); lam: leading dominant weight.  The
    support is the orbit union over the coroot Bruhat interval of lam;
    residue pairs are enumerated between support shifts, x-vanishing from
    the blowup data of the degree, and t-vanishing from inversion sets.
    """
    d1, d2 = degree
    interval = bruhat_interval(lam, lattice="coroot")
    support = set()
    for mu in interval:
        support |= weight_orbit(mu)
    specs = []
    # residue pairs
    betas = []
    for i in range(n):
        betas.append(("double", i))
        for j in range(i + 1, n):
            betas.append(("sum", i, j))
            betas.append(("diff", i, j))
    seen = set()
    top = max((sum(abs(x) for x in k) for k in support), default=0)
    for k in sorted(support):
        for beta in betas:
            for m in range(-2 * int(top) - 2, 2 * int(top) + 3):
                k2 = reflect_shift(beta, m, k)
                if k2 == k or k2 not in support:
                    continue
                key = (beta, m, tuple(sorted((k, k2))))
                if key in seen:
                    continue
                seen.add(key)
                specs.append(
                    ConditionSpec("residue-pair", beta, m, k, k2, pair_exponent(beta, m, k))
                )
    # x-vanishing from the blowup data
    r1 = d1.e or ()
    r2 = d2.e or ()
    nx = max(len(r1), len(r2))
    r1 = tuple(r1) + (0,) * (nx - len(r1))
    r2 = tuple(r2) + (0,) * (nx - len(r2))
    qf = AffineForm.var("q")
    for k in sorted(support):
        for i in range(n):
            for jx in range(nx):
                lo = k[i] + Fraction(d2.s - d1.s, 2) + r1[jx]
                for l in range(math.ceil(lo), r2[jx]):
                    point = AffineForm.var("x%d" % (jx + 1)) - qf * Fraction(2 * l - d2.s + 1, 2)
                    specs.append(ConditionSpec("x-vanish", (), l, k, (), 0, i, point))
                lo = -k[i] + Fraction(d2.s - d1.s, 2) + r1[jx]
                for l in range(math.ceil(lo), r2[jx]):
                    point = AffineForm.var("x%d" % (jx + 1)) * -1 + qf * Fraction(2 * l - d2.s + 1, 2)
                    specs.append(ConditionSpec("x-vanish", (), l, k, (), 0, i, point))
    # t-vanishing at the corner of each interval weight
    for mu in interval:
        corner = tuple(-x for x in mu)
        for root in inversion_set(mu):
            beta = (root.kind, root.i, root.j)
            specs.append(ConditionSpec("t-vanish", beta, root.level, corner, (), 0))
    return specs


# ---------------------------------------------------------------------------
# residue extraction


def _fixed_square(ctx, bound):
    """(bound 2^F)^2 for a rational bound: a squared distance threshold of the fixed point."""
    return ((bound.numerator << ctx._fix) // bound.denominator) ** 2


#: |reduced argument| below which a denominator factor vanishes at a sample
_ON_DIVISOR = Fraction(1, 10**9)

#: least distance of a sample point from the poles
_POLE_MARGIN = Fraction(5, 1000)


def _sweep(ctx, point, columns, beta_coeffs):
    """The residue of each column at a `TablePoint`, along the divisor with beta form beta_coeffs.

    columns: the compiled parts (`_residue_parts`) of each column.  The
    residue is taken along the divisor through the point, in the local
    coordinate s = beta(z) + m q - lambda, traversed by varying the first
    coordinate beta involves.  Each part contributes through its unique
    vanishing denominator factor, which is left out of its product and
    stands in as the exact lattice derivative of theta times the factor's
    slope in s; a part with none contributes 0, and two vanishing factors or
    a vanishing one of higher order raise PoleProximityError.

    The parts of all columns are sorted by the factors left in them, and
    each multiplies only the factors after the prefix it shares with the
    part before it (`factors.prefix_products`).  The scale, the slope and
    theta' multiply in after that shared product; each part is one quotient
    of F bits (`gauss_quotient`), a column's parts add exactly, and each
    column is rounded once, to `ctx._wp` bits.
    """
    F = ctx._fix
    seqs, heads = [], []  # per part: its factors left; (column, numerator head, denominator head)
    svar = next(i for i, c in enumerate(beta_coeffs) if c)
    bslope = beta_coeffs[svar]
    on_divisor = _fixed_square(ctx, _ON_DIVISOR)
    slopes, derivs = {}, {}
    for col, parts in enumerate(columns):
        for scale, factors in parts:
            vanishing = None
            for idx, (arg, m) in enumerate(factors):
                if m >= 0:
                    continue
                w0r, w0i, a, b = point.reduced(arg)
                if w0r * w0r + w0i * w0i < on_divisor:
                    if vanishing is not None:
                        raise PoleProximityError("two denominator factors vanish at the sample")
                    if m != -1:
                        raise PoleProximityError("higher-order pole along the divisor")
                    vanishing = (idx, arg, a, b)
            if vanishing is None:
                continue
            idx, arg, a, b = vanishing
            slope = memo(slopes, arg, lambda: z_coefficients(ctx, arg).get(svar, 0) / bslope)
            dr, di, de = memo(derivs, (a, b), lambda: ctx.theta_deriv_fixed(a, b))
            seqs.append(factors[:idx] + factors[idx + 1:])
            heads.append((
                col,
                (scale[0] * slope.denominator, scale[1] * slope.denominator, scale[2]),
                (dr * slope.numerator, di * slope.numerator, de),
            ))
    order = sorted(range(len(seqs)), key=seqs.__getitem__)
    seqs = [seqs[i] for i in order]
    totals = [GAUSS_ZERO] * len(columns)
    products = prefix_products(seqs, lambda factor: point.factor(factor[0]), F)
    for i, (num, den) in zip(order, products):
        col, head, tail = heads[i]
        den = gauss_mul(den, tail, F)
        totals[col] = gauss_add(totals[col], gauss_quotient(gauss_mul(num, head, F), den, F))
    return [gauss_round(total, ctx._wp) for total in totals]


def _residue_parts(ctx, coeff):
    """A coefficient's compiled parts (`ExprCoefficient.compiled`) for `_sweep`; () for an absent one."""
    if coeff is None:
        return ()
    if not isinstance(coeff, ExprCoefficient):
        raise ValueError("condition checks need structured coefficients")
    return coeff.compiled(ctx).parts


def _parallel(zk, beta_coeffs):
    """Whether the z-part {j: k_j} of an argument is a nonzero multiple of the divisor's."""
    zc = [zk.get(i, 0) for i in range(len(beta_coeffs))]
    return any(zc) and all(a * d == b * c for a, b in zip(zc, beta_coeffs) for c, d in zip(zc, beta_coeffs))


# ---------------------------------------------------------------------------
# the sampling pipeline shared by the checkers and the solver

#: divisor components checked by check_residue and used by the solver
_CHECK_COMPONENTS = ("0", "1", "tau")
_SOLVE_COMPONENTS = ("0", "1", "tau", "1+tau")

#: boxes (real range, imaginary range) of the successive u-probes
_PROBE_BOXES = (((0.1, 0.5), (0.05, 0.4)), ((-0.5, -0.1), (0.05, 0.4)))

_VANISHING = ("x-vanish", "t-vanish")


def _env_values(env, n):
    """(q, t, X) from a condition environment; X = q + (n-1) t + eta'."""
    q = mpc(env["q"])
    t = mpc(env.get("t", 0))
    x = mpc(env.get("eta_prime", 0))
    return q, t, q + (n - 1) * t + x


def _place_on_root(z, beta, target):
    """Move the first coordinate beta involves so that beta(z) = target."""
    i = beta[1]
    if beta[0] == "sum":
        z[i] = target - z[beta[2]]
    elif beta[0] == "diff":
        z[i] = target + z[beta[2]]
    else:
        z[i] = target / 2


def _divisor_sample(ctx, rng, n, beta, target, poles):
    """A random point of {beta(z) = target} at least 5e-3 from each of `poles` (argument ids).

    Returns the arguments' values at the point (a `TablePoint`).
    """
    margin = _fixed_square(ctx, _POLE_MARGIN)
    for _ in range(MAX_RETRIES):
        z = [mpc(rng.uniform(-0.4, 0.4), rng.uniform(-0.35, 0.35)) for _ in range(n)]
        _place_on_root(z, beta, target)
        point = TablePoint(ctx, tuple(z))
        if all(point.dist2(i) >= margin for i in poles):
            return point
    raise PoleProximityError("could not sample the divisor away from other poles")


def _bracket(ctx, spec, zstar, u, X, q, n):
    """The displayed correction factor at a point of the divisor."""
    beta_coeffs = _beta_form(spec.beta, n)
    sval = sum(
        mpc(beta_coeffs[i].numerator) / beta_coeffs[i].denominator * zstar[i] for i in range(n)
    ) + spec.level * q
    return ctx.theta(u) * ctx.theta(X + u + sval) / (ctx.theta(u + sval) * ctx.theta(X + u))


def _residue_samples(ctx, rng, spec, n, env, components, samples, probes, poles):
    """Sample points for a residue-pair condition, away from `poles` (argument ids, `factors.pole_arguments`).

    Yields (component, sample number, point, brackets): `samples` points on
    each component {beta(z) + m q = lambda} of the divisor, each a
    `TablePoint`, with the correction bracket, raised to the pair exponent,
    at `probes` u-probes.  The RNG draws the point first, then the probes.
    Poles parallel to the divisor are not avoided: their vanishing is the
    pole under examination.
    """
    beta_coeffs = _beta_form(spec.beta, n)
    poles = [i for i in poles if not _parallel(z_coefficients(ctx, i), beta_coeffs)]
    q, _, X = _env_values(env, n)
    offsets = {"0": mpc(0), "1": mpc(1), "tau": ctx.tau, "1+tau": 1 + ctx.tau}
    for comp in components:
        target = offsets[comp] - spec.level * q
        for snum in range(samples):
            point = _divisor_sample(ctx, rng, n, spec.beta, target, poles)
            brackets = []
            for re_box, im_box in _PROBE_BOXES[:probes]:
                u = mpc(rng.uniform(*re_box), rng.uniform(*im_box))
                brackets.append(_bracket(ctx, spec, point.z, u, X, q, n) ** spec.exponent)
            yield comp, snum, point, brackets


def _vanishing_samples(rng, spec, n, env, samples):
    """Sample points for an x- or t-vanishing condition.

    Yields (sample number, point, reference point): the point lies on the
    condition's divisor, the reference point a small random step off it.
    """
    q, t, _ = _env_values(env, n)
    for snum in range(samples):
        z = [mpc(rng.uniform(-0.4, 0.4), rng.uniform(-0.3, 0.3)) for _ in range(n)]
        if spec.kind == "x-vanish":
            z[spec.divisor_var] = spec.divisor_point.eval(env)
        else:
            _place_on_root(z, spec.beta, t + spec.level * q)
        z = tuple(z)
        zref = tuple(w + mpc(rng.uniform(0.05, 0.15), rng.uniform(0.02, 0.1)) for w in z)
        yield snum, z, zref


# ---------------------------------------------------------------------------
# checkers


@at_context_precision
def check_residue(ctx, op, specs, env, samples=2, seed=11, tol=mpf("1e-25")):
    """Residue-pair conditions for an operator; returns a ConditionReport.

    env: dict with at least q, t and eta'.
    """
    rng = random.Random(seed)
    n = op.n
    report = ConditionReport(tolerance=tol)
    for spec in specs:
        if spec.kind != "residue-pair":
            continue
        coeffs = [op.coefficient(spec.k), op.coefficient(spec.k2)]
        parts = [_residue_parts(ctx, c) for c in coeffs]
        beta_coeffs = _beta_form(spec.beta, n)
        for comp, snum, point, (b1, b2) in _residue_samples(
            ctx, rng, spec, n, env, _CHECK_COMPONENTS, samples, 2, pole_arguments(ctx, coeffs)
        ):
            res_a, res_b = _sweep(ctx, point, parts, beta_coeffs)
            probe_defect = rel_defect(b1, b2)
            combo = res_b + b1 * res_a
            scale = abs(res_b) + abs(b1 * res_a) + mpf("1e-30")
            report.add(
                "residue[%s;m=%d;%s<->%s;comp=%s;#%d]"
                % (spec.beta, spec.level, spec.k, spec.k2, comp, snum),
                abs(combo) / scale,
            )
            report.add(
                "residue-probe[%s;m=%d;comp=%s;#%d]" % (spec.beta, spec.level, comp, snum),
                probe_defect,
            )
    return report


@at_context_precision
def check_vanishing(ctx, op, specs, env, samples=2, seed=13, tol=mpf("1e-25")):
    """x-vanishing and t-vanishing conditions (zeros of coefficients on divisors)."""
    rng = random.Random(seed)
    report = ConditionReport(tolerance=tol)
    for spec in specs:
        if spec.kind not in _VANISHING:
            continue
        c = op.coefficient(spec.k)
        if c is None:
            continue
        for snum, z, zref in _vanishing_samples(rng, spec, op.n, env, samples):
            if spec.kind == "x-vanish":
                label = "x-vanish[k=%s;i=%d;l=%d;#%d]" % (
                    spec.k,
                    spec.divisor_var,
                    spec.level,
                    snum,
                )
            else:
                label = "t-vanish[k=%s;%s;m=%d;#%d]" % (spec.k, spec.beta, spec.level, snum)
            report.add(label, abs(c.eval(ctx, z)) / (abs(c.eval(ctx, zref)) + mpf("1e-30")))
    return report


@at_context_precision
def check_polarization(ctx, coeff, expected, samples=2, seed=17, tol=mpf("1e-25")):
    """Measured tau-translation multipliers against the predicted (Q, w) form.

    coeff: a coefficient, read through coeff.eval; expected: PolarizationRecord.
    The z-independent constant of each multiplier is free (it absorbs the
    bundle's C-constants); the z-dependent part must match e(-(Q z)_i - ...).
    """
    rng = random.Random(seed)
    n = len(expected.Q)
    report = ConditionReport(tolerance=tol)
    tau = ctx.tau
    for i in range(n):
        pairs = []
        for _ in range(samples + 1):
            z = tuple(mpc(rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2)) for _ in range(n))
            zshift = tuple(z[j] + (tau if j == i else 0) for j in range(n))
            mplier = coeff.eval(ctx, zshift) / coeff.eval(ctx, z)
            pairs.append((z, mplier))
        z0, m0 = pairs[0]
        for s, (z1, m1) in enumerate(pairs[1:]):
            dz = [z1[j] - z0[j] for j in range(n)]
            pred = ctx.e(-sum(
                mpc(expected.Q[i][j].numerator) / expected.Q[i][j].denominator * dz[j]
                for j in range(n)
            ))
            got = m1 / m0
            report.add(
                "polarization[i=%d;#%d]" % (i, s),
                abs(got - pred) / max(abs(pred), mpf("1e-30")),
            )
    return report


# ---------------------------------------------------------------------------
# theta bases for the section solver


def _univariate_basis(params, zsym, count, zero_sum, rng):
    """ThetaExpr products prod_r theta(a_r - z) with sum(a_r) = zero_sum."""
    out = []
    for b in range(count):
        syms = []
        for r in range(count - 1):
            s = "a%s_%d_%d" % (zsym, b, r)
            params[s] = mpc(rng.uniform(-0.45, 0.45), rng.uniform(-0.3, 0.3))
            syms.append(s)
        last = "a%s_%d_last" % (zsym, b)
        params[last] = mpc(zero_sum) - sum(params[s] for s in syms)
        forms = [AffineForm.var(s) - AffineForm.var(zsym) for s in syms]
        forms.append(AffineForm.var(last) - AffineForm.var(zsym))
        out.append(ThetaExpr(tuple((f, 1) for f in forms), 1))
    return out


def _even_univariate_basis(params, zsym, degree, rng, tag):
    """Even products prod_r theta(a_r + z) theta(a_r - z); degree = #pairs*2.

    Spans the even part of the degree-`degree` space (dimension degree/2+1).
    """
    npairs = degree // 2
    dim = npairs + 1
    out = []
    for b in range(dim):
        forms = []
        for r in range(npairs):
            s = "e%s_%s_%d_%d" % (tag, zsym, b, r)
            params[s] = mpc(rng.uniform(-0.45, 0.45), rng.uniform(-0.3, 0.3))
            a = AffineForm.var(s)
            forms.append((a + AffineForm.var(zsym), 1))
            forms.append((a - AffineForm.var(zsym), 1))
        out.append(ThetaExpr(tuple(forms), 1))
    return out


def _shift_var(expr, i):
    """Rename z1 -> z_i in a univariate ThetaExpr."""
    return expr.substitute({"z1": AffineForm.var("z%d" % i)})


def _symmetric_square(shared, uni):
    """Corner parts of shared * Sym^2(uni) in (z1, z2), one list per column.

    The column for a < b is the symmetrized pair u_a(z1) u_b(z2) + u_b(z1) u_a(z2).
    """
    out = []
    for a in range(len(uni)):
        for b in range(a, len(uni)):
            parts = [shared * (uni[a] * _shift_var(uni[b], 2))]
            if a != b:
                parts.append(shared * (uni[b] * _shift_var(uni[a], 2)))
            out.append(parts)
    return out


# ---------------------------------------------------------------------------
# section models


def _orbit_coefficients(n, mu, corner_parts, params):
    """Spread a corner at shift -mu over its signed-permutation orbit by invariance.

    corner_parts: ThetaExprs summed at the corner.  Returns shift -> their
    ExprCoefficient.
    """
    corner = tuple(-x for x in mu)
    coeffs = {}
    for w in signed_permutations(n):
        k = sp_apply(w, corner)
        if k in coeffs:
            continue
        iperm, isigns = sp_inverse(w)
        mapping = {
            "z%d" % (i + 1): AffineForm({"z%d" % (iperm[i] + 1): isigns[i]}) for i in range(n)
        }
        coeffs[k] = ExprCoefficient.sum(
            ExprCoefficient(p.substitute(mapping), params) for p in corner_parts
        )
    return coeffs


class SectionModel:
    """Ansatz for one Hom-space solve: per-weight corner bases plus conditions."""

    def __init__(self, ctx, n, params, env, degree, lam):
        self.ctx = ctx
        self.n = n
        self.params = params
        self.env = env
        self.degree = degree
        self.lam = lam
        self.basis_ops = []  # one (mu, DifferenceOperator) per column

    def add_weight_basis(self, mu, columns):
        """Append one column per entry of `columns`, a list of corner parts at -mu."""
        for corner_parts in columns:
            coeffs = _orbit_coefficients(self.n, mu, corner_parts, self.params)
            op = DifferenceOperator(self.n, coeffs, self.params, self.degree)
            self.basis_ops.append((tuple(mu), op))

    def condition_rows(self, specs, seed=29):
        """Linear condition matrix over the ansatz basis, one row per sample.

        Each entry combines two residues, rb + b1 ra, and each row is divided
        by the largest |rb| + |b1 ra| of its entries, so the matrix has
        entries of order one.
        """
        with mp.workprec(self.ctx._wp):
            rng = random.Random(seed)
            ctx, n = self.ctx, self.n
            rows = []
            ops = [op for _, op in self.basis_ops]
            columns = [{k: _residue_parts(ctx, c) for k, c in op.coeffs.items()} for op in ops]
            poles = pole_arguments(ctx, [op.coefficient(k) for op in ops for k in op.support()])
            for spec in specs:
                if spec.kind != "residue-pair":
                    raise ValueError("condition rows are built from residue-pair specs only")
                beta_coeffs = _beta_form(spec.beta, n)
                parts = [col.get(k, ()) for k in (spec.k, spec.k2) for col in columns]
                for _, _, point, (b1,) in _residue_samples(
                    ctx, rng, spec, n, self.env, _SOLVE_COMPONENTS, 2, 1, poles
                ):
                    row = []
                    scale = mpf(0)
                    residues = _sweep(ctx, point, parts, beta_coeffs)
                    for ra, rb in zip(residues[:len(columns)], residues[len(columns):]):
                        bra = b1 * ra
                        row.append(rb + bra)
                        scale = max(scale, abs(rb) + abs(bra))
                    if scale > mpf("1e-60"):
                        rows.append([v / scale for v in row])
            return rows

    def nullspace(self, specs, seed=29):
        rows = self.condition_rows(specs, seed=seed)
        return nullspace_basis(rows, len(self.basis_ops), prec=self.ctx.prec)

    def operator_from_vector(self, vec):
        with mp.workprec(self.ctx._wp):
            terms = {}
            for x, (_, op) in zip(vec, self.basis_ops):
                if abs(x) < mpf("1e-40"):
                    continue
                for k, c in op.coeffs.items():
                    terms.setdefault(k, []).append(c.scaled(x))
            coeffs = {k: ExprCoefficient.sum(cs) for k, cs in terms.items()}
            return DifferenceOperator(self.n, coeffs, self.params, self.degree)


def nullspace_basis(rows, ncols, prec=256):
    """Nullspace of a complex matrix with `ncols` columns, one vector per row of the result.

    The rows are normalized to entries of order one (`condition_rows`
    divides each by the size of its largest ingredients), so the absolute
    floor of `weyl.rank_certificate` decides the dimension; its orthonormal
    basis spans the nullspace, and at rank 0 it is the identity.
    """
    if not rows:
        return [[mpc(1) if i == j else mpc(0) for j in range(ncols)] for i in range(ncols)]
    return rank_certificate(rows, prec, want_null=True).null


# ---------------------------------------------------------------------------
# concrete solvers


@at_context_precision
def first_order_model(ctx, n, dprime, eta_prime, q, t, seed=31):
    """Ansatz for degree (0, s + d'f): single orbit of (1/2,...,1/2)."""
    rng = random.Random(seed)
    params = {"q": exact_mpc(q), "t": exact_mpc(t)}
    K = 2 * dprime + 2
    zero_sum = mpc(q) + mpc(eta_prime)
    uni = _univariate_basis(params, "z1", K, zero_sum, rng)
    # shared pair factor and 1/theta(-2 z_i)
    tf = AffineForm.var("t")
    shared = []
    for i in range(1, n + 1):
        shared.append((zvar(i) * -2, -1))
        for j in range(i + 1, n + 1):
            arg = zvar(i) * -1 - zvar(j)
            shared.append((tf + arg, 1))
            shared.append((arg, -1))
    shared_expr = ThetaExpr(tuple(shared), n)
    lam = tuple(Fraction(1, 2) for _ in range(n))
    env = {"q": params["q"], "t": params["t"], "eta_prime": exact_mpc(eta_prime)}
    degree = (DegreeVector(), DegreeVector(0, 1, dprime))
    model = SectionModel(ctx, n, params, env, degree, lam)
    if n == 1:
        columns = [[shared_expr * b] for b in uni]
    elif n == 2:
        columns = _symmetric_square(shared_expr, uni)
    else:
        raise NotImplementedError("first-order solve implemented for n <= 2")
    model.add_weight_basis(lam, columns)
    return model


def section_solve_first_order(ctx, n, dprime, eta_prime, q, t, seed=31):
    """Nullspace basis for degree (0, s+d'f); expected dimension 2d'+2."""
    model = first_order_model(ctx, n, dprime, eta_prime, q, t, seed=seed)
    specs = enumerate_conditions(model.degree, model.lam, model.params, n)
    null = model.nullspace([s for s in specs if s.kind == "residue-pair"], seed=seed)
    ops = [model.operator_from_vector(v) for v in null]
    return model, null, ops


# -- van Diejen model --------------------------------------------------------


@at_context_precision
def vandiejen_model(ctx, xs, q, t, n, eta_prime=None, seed=37):
    """Ansatz for degree (0, 2s+2f-e_1-...-e_8) over the coroot interval of (1^n)."""
    if n not in (1, 2):
        raise NotImplementedError("van Diejen solve implemented for n <= 2")
    rng = random.Random(seed)
    params = {"q": exact_mpc(q), "t": exact_mpc(t)}
    for j, xv in enumerate(xs):
        params["x%d" % (j + 1)] = exact_mpc(xv)
    env = dict(params)
    env["eta_prime"] = sum(xs, mpc(0)) / 2 if eta_prime is None else exact_mpc(eta_prime)
    qf = AffineForm.var("q")
    degree = (DegreeVector(), DegreeVector(0, 2, 2, (1,) * 8))
    lam = tuple([Fraction(1)] * n)
    model = SectionModel(ctx, n, params, env, degree, lam)

    def gblock(i):
        """1 / theta(-q-2z_i, q-2z_i)."""
        return ThetaExpr((((qf * -1) - zvar(i) * 2, -1), (qf - zvar(i) * 2, -1)), n)

    def cross_block(i, j):
        """1/[theta(z_i+z_j+q) theta(z_i+z_j-q) theta(z_i-z_j+q) theta(z_i-z_j-q)]."""
        fs = []
        for sz in (1, -1):
            arg = zvar(i) + zvar(j) * sz
            fs.append((arg + qf, -1))
            fs.append((arg - qf, -1))
        return ThetaExpr(tuple(fs), n)

    # top weight (1^n): the prescribed 1-dimensional corner
    model.add_weight_basis(lam, [[van_diejen_leading_expr(n, n)]])

    # even univariate numerators (one basis, shifted into each variable)
    v8 = _even_univariate_basis(params, "z1", 8, rng, "g8")
    if n == 1:
        model.add_weight_basis((Fraction(0),), [[gblock(1) * b] for b in v8])
    else:
        mid = van_diejen_leading_expr(1, 2) * gblock(2)
        model.add_weight_basis((Fraction(1), Fraction(0)), [[mid * _shift_var(b, 2)] for b in v8])
        v12 = _even_univariate_basis(params, "z1", 12, rng, "g12")
        shared00 = gblock(1) * gblock(2) * cross_block(1, 2)
        model.add_weight_basis((Fraction(0), Fraction(0)), _symmetric_square(shared00, v12))
    return model


def vandiejen_nullspace(ctx, xs, q, t, n, eta_prime=None, seed=37):
    """(model, nullspace vectors) for the van Diejen degree."""
    model = vandiejen_model(ctx, xs, q, t, n, eta_prime=eta_prime, seed=seed)
    specs = enumerate_conditions(model.degree, model.lam, model.params, n)
    pair_specs = [s for s in specs if s.kind == "residue-pair"]
    null = model.nullspace(pair_specs, seed=seed)
    return model, null


def vandiejen_sections(ctx, xs, q, t, n, eta_prime=None, seed=37):
    """(model, all n+1 sections) from one nullspace solve, triangularized by weight."""
    model, null = vandiejen_nullspace(ctx, xs, q, t, n, eta_prime=eta_prime, seed=seed)
    return model, sections_by_weight(model, null)


def sections_by_weight(model, null):
    """The n+1 sections of a solved van Diejen model, in echelon form by weight.

    They depend only on the span of `null`, not on its basis.  Each weight,
    from the top down, gets one pivot column: its column with the largest
    diagonal entry of the nullspace projector P = sum_v v v^H, after the
    pivots above it are eliminated (P - P e_p e_p^H P / P_pp is the
    projector onto the nullspace vectors that vanish at the pivot p).  The
    member with leading weight (1^m, 0^(n-m)) is the nullspace vector with
    1 at its own pivot and 0 at the other weights' pivots, the weight-0
    pivot included; for m = n the pivot is the prescribed corner.  The
    weight-0 member is the identity.
    """
    with mp.workprec(model.ctx._wp):
        n = model.n
        weights = sorted({mu for mu, _ in model.basis_ops}, key=sum, reverse=True)
        if len(null) > len(weights):
            raise ArithmeticError("nullspace of dimension %d for %d sections" % (len(null), len(weights)))
        ncols = len(model.basis_ops)
        P = [[sum(v[a] * mp.conj(v[b]) for v in null) for b in range(ncols)] for a in range(ncols)]
        pivots = []
        for mu in weights:
            cols = [i for i, (nu, _) in enumerate(model.basis_ops) if nu == mu]
            p = max(cols, key=lambda i: P[i][i].real)
            if P[p][p].real < mpf("1e-40"):
                raise ArithmeticError("no section with leading weight %s exists" % (mu,))
            pivots.append(p)
            col = [P[a][p] / mp.sqrt(P[p][p].real) for a in range(ncols)]
            P = [[x - ca * mp.conj(cb) for x, cb in zip(row, col)] for row, ca in zip(P, col)]
        # Gauss-Jordan on the fixed pivots, the largest entry leading
        rest, echelon = [list(v) for v in null], []
        for p in pivots:
            lead = rest.pop(max(range(len(rest)), key=lambda j: abs(rest[j][p])))
            lead = [x / lead[p] for x in lead]
            rest = [[x - v[p] * y for x, y in zip(v, lead)] for v in rest]
            echelon = [[x - v[p] * y for x, y in zip(v, lead)] for v in echelon] + [lead]
        sections = [identity_operator(n, model.params)] + [None] * n
        for mu, vec in zip(weights, echelon):
            if any(mu):
                sections[sum(1 for x in mu if x != 0)] = model.operator_from_vector(vec)
        return sections


# ---------------------------------------------------------------------------
# public dispatcher


def section_solve(ctx, degree, lam, leading, params, seed=31):
    """Numeric basis of the section space for a supported degree family.

    degree: pair of DegreeVectors.  Supported families: (0,0) (constants),
    (0, s+d'f) for n <= 2, and (0, 2s+2f-e_1-...-e_8) for n <= 2.  `leading`
    is "free" (full nullspace) or "prescribed" (van Diejen normalization).
    Returns (dimension, list of operators).
    """
    d1, d2 = degree
    n = len(lam)
    q = params["q"]
    t = params.get("t", 0)
    if d2.s == 0 and d2.f == 0 and not any(d2.e or ()):
        return 1, [identity_operator(n, {"q": exact_mpc(q), "t": exact_mpc(t)})]
    if d2.s == 1 and not any(d2.e or ()):
        eta = params.get("eta_prime")
        if eta is None:
            raise ValueError("the first-order family needs eta_prime")
        model, null, ops = section_solve_first_order(ctx, n, d2.f, eta, q, t, seed=seed)
        return len(null), ops
    if d2.s == 2 and d2.f == 2 and tuple(d2.e or ()) == (1,) * 8:
        xs = [params["x%d" % (j + 1)] for j in range(8)]
        if leading == "prescribed":
            _, sections = vandiejen_sections(
                ctx, xs, q, t, n, eta_prime=params.get("eta_prime"), seed=seed
            )
            return len(sections), sections
        model, null = vandiejen_nullspace(
            ctx, xs, q, t, n, eta_prime=params.get("eta_prime"), seed=seed
        )
        return len(null), [model.operator_from_vector(v) for v in null]
    raise NotImplementedError("section solving implemented for the supported degree families")


@at_context_precision
def operator_span_contains(ctx, basis_ops, op, points):
    """Whether op lies in the numeric span of basis_ops on sampled coefficients."""
    keys = set()
    for b in basis_ops:
        keys |= set(b.support())
    keys |= set(op.support())
    cols = []
    for b in basis_ops + [op]:
        col = []
        for z in points:
            for k in sorted(keys):
                col.append(b.eval_coeff(ctx, k, z))
        cols.append(col)
    scale = max(abs(v) for v in cols[-1]) or mpf(1)
    cols = [[v / scale for v in col] for col in cols]
    rows = [[col[i] for col in cols] for i in range(len(cols[0]))]
    r_with = numeric_rank(rows, prec=ctx.prec)
    rows_without = [row[:-1] for row in rows]
    r_without = numeric_rank(rows_without, prec=ctx.prec)
    return r_with == r_without
