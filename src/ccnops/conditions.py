"""Membership conditions for the spherical families and the section solver.

Residue conditions relate coefficients at shift vectors linked by an affine
reflection; vanishing conditions ask one coefficient to vanish along an x- or
t-divisor.  Every condition point comes from one generator
(`_divisor_points`), which reads a spec's divisor {c . z = target} as an
integer vector c and its targets: c = beta and lambda - m q on the
components lambda in 0, 1, tau (and 1+tau) for a residue pair, c = beta and
t + m q for a t-vanishing spec, and c = e_i and the blowup point for an
x-vanishing spec.  The checker (`check_residue`) and the solver
(`SectionModel.condition_rows`) read one residue-pair path, from spec to
entry (`_residue_entries`): it runs one sweep per point (`_sweep`) and
yields the pair (rb, b1 ra) of each column.  The checker reads one column,
the operator's coefficients at k and k2, on three components; the solver
reads every basis column on four.  `check_vanishing` reads a coefficient's
value at each point through `eval` (`factors.CompiledParts`), against a
reference point a small random step off it that sets the scale.

Each residue pair and each t-vanishing condition is carried by a
`weyl.AffineRoot` beta + m q: beta's integer coefficient vector (e_i +- e_j
or 2 e_i) and the level m.  A pair's second shift is k under the reflection
s_(beta + m q), its exponent is 4 (m - <beta, k>)/(beta, beta), and the
sweep's local coordinate reads the same vector.  Every point is drawn by
the one sampler `_divisor_sample` and put on its divisor by the one rule
`_place_on_root`: the first coordinate z_i that c involves becomes
(target - sum_(j > i) c_j z_j) / c_i.  Targets, points and correction
factors are formed at the context's precision, whatever the global mp.prec.
Conditions read structured coefficients (`ExprCoefficient`) only, through
the compiled parts of their values (`ExprCoefficient.compiled`), whose
factors are ids in the context's one argument table.  One pole rule serves
every kind: a sample point avoids the ids of the denominator factors of the
parts it reads, less those parallel to the divisor, which no point of the
divisor avoids (for a residue their vanishing is the pole under
examination).  At a residue point each argument is evaluated once
(`factors.TablePoint`): the pole test, the search for the unique vanishing
factor and the numerator product all read those values, so holomorphy
along a divisor is never a limit extraction.

A pair's two residues are related by the displayed correction bracket
theta(u) theta(X + u + s) / (theta(u + s) theta(X + u)) to the pair
exponent, s = beta(z) + m q, X = q + (n-1) t + eta'.  On the component
lambda = a + b tau, s = lambda, and theta(w + a + b tau) = (-1)^(a+b)
e(-b w - b^2 tau/2) theta(w) at w = X + u and at w = u leaves e(-b X) for
every u: one constant e(-b exponent X) per spec and component (`_correction`).

The residue path runs on Python integers (see `curve` and `factors`).  An
argument is a parameter constant c and integer z-coefficients k_j (+-1 or
+-2 in every model); e(+-c/2) is formed once per context, and a point forms
e(+-z_j/2) once per coordinate.  An argument's F-bit fixed-point value
c + sum_j k_j z_j serves the pole tests and the lattice reduction, and its
theta comes from its lattice class at the point (`factors.TablePoint`) as
a Gaussian float, F = `ctx._wp` + GUARD_BITS.  One sweep per sample point
(`_sweep`) reads the residues of many columns: each part's unique vanishing
denominator factor is found and left out, the parts of all columns are
sorted by the factors left in them, and each part multiplies only the
factors after the prefix it shares with the part before it
(`factors.prefix_products`); its scale, slope and theta' multiply in after
that.  A part is a numerator and a denominator of Gaussian-float products,
divided once (`gauss_quotient`): its relative error is the theta values'
own (a few units of 2^-F each, more only near a theta zero) plus 2^(2-F)
per product.  A column's parts add exactly, and the sweep returns each
column's sum unrounded.
`_residue_entries` runs the sweep once per point, over the parts of every
column at the shift k and then at k2, and cuts b1 ra to F bits, so that
rb + b1 ra adds exactly: `condition_rows` scales each row by a power of two
and rounds each entry once, and `check_residue` rounds the entry and its two
terms once each.

Dimensions are decided by the one rank rule of `weyl.rank_certificate`: the
solver's `nullspace_basis` scales its matrix to entries of order one (s_max
between 10^-0.2 and 10^2.6 at nonzero rank in the tests and the benchmark),
and a rank stands only with certified bounds on either side of the floor
2^-(prec//2), a RANK_GAP ratio apart, from a pivoted Cholesky of the exact
integer Gram matrix A^H A.

Both section models follow one ansatz rule for every n.  A weight mu's
columns are a shared theta block times Sym^k of a univariate theta basis in
k of the coordinates (`_symmetric_power`), spread over the orbit of the
corner -mu by invariance: the first-order model takes the Weyl denominator
and all n coordinates, and the van Diejen model takes, at each weight
(1^m, 0^(n-m)), the block named in `vandiejen_model` and the n - m zero
coordinates.  Models and condition rows build at any n.  Solving is limited
to n <= `MAX_SOLVE_N` = 2, where the fixed 2 samples on each of 4 components
per orbit representative (below) are known to reach the full rank;
`SectionModel.nullspace` and, for the CLI, `cli._solvable_n` read that one
constant.

The solver reads one residue-pair spec per W-orbit (`orbit_representatives`),
W = `weyl.signed_permutations(n)`, integer matrices acting by `weyl.act`.
Every column is W-invariant, c_(w k)(w z) = c_k(z) for every w
(`_orbit_coefficients` spreads each corner so), and for an invariant
operator the condition at (w k, w beta + m q) is the image under w of the
one at (k, beta + m q) (Macdonald 2003, ch. 1): the representative's rows
stand for its orbit.  A spec of level 0 pairs k with s_beta k on a divisor
fixed by s_beta, which lies in W, and an invariant operator meets it
identically (its rows have certified rank 0 in the tests); the solver drops
it, so a first-order model, whose specs are all of level 0,
builds no rows and keeps every column.  The key reads w beta as a vector, not
up to sign, so it keeps the sign of the level: the image of (k, beta + m q)
under a w with w beta negative is, with a positive root, (w k, beta' - m q),
the same divisor and reflection, but merging the two is wrong (at van Diejen
n=2 its 3 representatives give 24 rows of nullity 14, not 3).  The
level-signed key leaves van Diejen 2, 6 and 10 representatives of 3, 28 and
171 specs at n = 1, 2 and 3.  `check_residue` reads every spec: the operator
it checks need not be invariant.
"""

from __future__ import annotations

import itertools
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
    gauss_exact,
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
    transpose_substitution,
)
from .factors import TablePoint, prefix_products, z_coefficients
from .families import van_diejen_leading_expr, weyl_denominator
from .symbols import AffineForm, ThetaExpr, zvar
from .weyl import (
    AffineRoot,
    act,
    bruhat_interval,
    inversion_set,
    positive_roots,
    rank_certificate,
    signed_permutations,
    weight_orbit,
)


#: the default relative tolerance of a condition check and of `identities.run_identity`
TOLERANCE = mpf("1e-25")


# ---------------------------------------------------------------------------
# condition specifications


@dataclass(frozen=True)
class ConditionSpec:
    kind: str  # "residue-pair" | "x-vanish" | "t-vanish"
    k: tuple = ()
    root: AffineRoot = None  # residue-pair / t-vanish: the divisor beta(z) + m q = 0
    divisor_var: int = 0  # x-vanish: which z_i
    divisor_point: object = None  # x-vanish: affine form for the point

    @property
    def k2(self):
        """residue-pair: the shift paired with k, its image under the root's reflection."""
        return self.root.reflect(self.k)

    @property
    def exponent(self):
        """residue-pair: the power of the correction bracket."""
        return self.root.exponent(self.k)


@dataclass
class ConditionRecord:
    spec_id: str
    defect: object
    passed: bool


@dataclass
class ConditionReport:
    records: list = field(default_factory=list)
    tolerance: object = TOLERANCE

    @property
    def passed(self):
        return all(r.passed for r in self.records)

    @property
    def max_defect(self):
        """The largest record defect; inf if any is NaN, which `max` would otherwise drop."""
        defects = [mpf(abs(r.defect)) for r in self.records]
        return mp.inf if any(mp.isnan(x) for x in defects) else max(defects, default=mpf(0))

    def add(self, spec_id, defect):
        self.records.append(ConditionRecord(spec_id, defect, bool(abs(defect) < self.tolerance)))


def enumerate_conditions(degree, lam, params, n):
    """Complete condition list for the Hom space of the given degree.

    degree: (DegreeVector, DegreeVector); lam: leading dominant weight.  The
    support is the orbit union over the coroot Bruhat interval of lam;
    residue pairs are enumerated between support shifts, x-vanishing from
    the blowup data of the degree, and t-vanishing from inversion sets.
    """
    d1, d2 = degree
    interval = bruhat_interval(lam)
    support = set()
    for mu in interval:
        support |= weight_orbit(mu)
    specs = []
    # residue pairs
    seen = set()
    top = max((sum(abs(x) for x in k) for k in support), default=0)
    roots = positive_roots(n)
    levels = range(-2 * int(top) - 2, 2 * int(top) + 3)
    for k in sorted(support):
        for beta in roots:
            for root, k2 in beta.reflections(k, levels):
                if k2 not in support:
                    continue
                key = (root, tuple(sorted((k, k2))))
                if key in seen:
                    continue
                seen.add(key)
                specs.append(ConditionSpec("residue-pair", k, root))
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
                for sign in (1, -1):
                    lo = sign * k[i] + Fraction(d2.s - d1.s, 2) + r1[jx]
                    for l in range(math.ceil(lo), r2[jx]):
                        point = (AffineForm.var("x%d" % (jx + 1)) - qf * Fraction(2 * l - d2.s + 1, 2)) * sign
                        specs.append(ConditionSpec("x-vanish", k, divisor_var=i, divisor_point=point))
    # t-vanishing at the corner of each interval weight
    for mu in interval:
        corner = tuple(-x for x in mu)
        specs += [ConditionSpec("t-vanish", corner, root) for root in inversion_set(mu)]
    return specs


def orbit_representatives(specs, n):
    """One residue-pair spec per W-orbit of nonzero level, the first of each in enumeration order.

    W is `weyl.signed_permutations(n)`, acting by `weyl.act`.  A spec
    (k, beta + m q) is keyed on the least (sorted(w k, w k2), w beta, m)
    over w in W, with w beta not sign-normalized, so the sign of the level
    is kept.  Specs of level 0 are dropped.  The module docstring says why
    the representatives carry the solver's conditions.
    """
    group = signed_permutations(n)
    reps = {}
    for spec in specs:
        if spec.kind != "residue-pair":
            raise ValueError("condition rows are built from residue-pair specs only")
        if spec.root.level == 0:
            continue
        pair = (spec.k, spec.k2)
        key = min(
            (tuple(sorted(act(w, k) for k in pair)), act(w, spec.root.coeffs), spec.root.level)
            for w in group
        )
        reps.setdefault(key, spec)
    return list(reps.values())


# ---------------------------------------------------------------------------
# residue extraction


def _fixed_square(ctx, bound):
    """(bound 2^F)^2 for a rational bound: a squared distance threshold of the fixed point."""
    return ((bound.numerator << ctx._fix) // bound.denominator) ** 2


#: |reduced argument| below which a denominator factor vanishes at a sample
_ON_DIVISOR = Fraction(1, 10**9)

#: least distance of a sample point from the poles
_POLE_MARGIN = Fraction(5, 1000)


def _sweep(ctx, point, columns, root):
    """The residue of each column at a `TablePoint`, along the divisor of the `weyl.AffineRoot` root.

    columns: the compiled parts (`_compiled_parts`) of each column.  The
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
    of F bits (`gauss_quotient`), and a column's parts add exactly.  The
    column sums are returned unrounded, as Gaussian floats, for
    `_residue_entries` to combine.
    """
    F = ctx._fix
    seqs, heads = [], []  # per part: its factors left; (column, numerator head, denominator head)
    svar = next(i for i, c in enumerate(root.coeffs) if c)
    bslope = root.coeffs[svar]
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
            slope = memo(slopes, arg, lambda: Fraction(z_coefficients(ctx, arg).get(svar, 0), bslope))
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
    return totals


def _compiled_parts(ctx, coeff):
    """A coefficient's compiled parts (`ExprCoefficient.compiled`) for the pole rule and `_sweep`; () if absent."""
    if coeff is None:
        return ()
    if not isinstance(coeff, ExprCoefficient):
        raise ValueError("condition checks need structured coefficients")
    return coeff.compiled(ctx).parts


def _parallel(zk, vector):
    """Whether the z-part {j: k_j} of an argument is a nonzero multiple of the integer vector."""
    zc = [zk.get(i, 0) for i in range(len(vector))]
    return any(zc) and all(a * d == b * c for a, b in zip(zc, vector) for c, d in zip(zc, vector))


# ---------------------------------------------------------------------------
# the residue-pair path shared by the checker and the solver

#: divisor components checked by check_residue and used by the solver
_CHECK_COMPONENTS = ("0", "1", "tau")
_SOLVE_COMPONENTS = ("0", "1", "tau", "1+tau")

#: each divisor component lambda = a + b tau as (a, b)
_LATTICE_POINTS = {"0": (0, 0), "1": (1, 0), "tau": (0, 1), "1+tau": (1, 1)}

#: the largest n whose section solve is established (see the module docstring)
MAX_SOLVE_N = 2


def _env_values(ctx, env, n):
    """(q, t, X) from a condition environment at the context's precision; X = q + (n-1) t + eta'."""
    with mp.workprec(ctx._wp):
        q, t, x = mpc(env["q"]), mpc(env.get("t", 0)), mpc(env.get("eta_prime", 0))
        return q, t, q + (n - 1) * t + x


def _place_on_root(z, vector, target):
    """Move the first coordinate z_i the integer vector c involves so that c . z = target.

    z_i = (target - sum_(j > i) c_j z_j) / c_i.  Each c_j is +-1 and c_i is
    1 or 2, so for coordinates at the working precision z_i is rounded once,
    as target - z_j, target + z_j or target / 2 would be.
    """
    i = next(i for i, c in enumerate(vector) if c)
    for j in range(i + 1, len(z)):
        if vector[j]:
            target = target - vector[j] * z[j]
    z[i] = target / vector[i]


def _divisor_sample(ctx, rng, vector, target, poles):
    """A random point of {vector . z = target} at least 5e-3 from each of `poles` (argument ids).

    Returns the arguments' values at the point (a `TablePoint`).
    """
    margin = _fixed_square(ctx, _POLE_MARGIN)
    for _ in range(MAX_RETRIES):
        z = [mpc(rng.uniform(-0.4, 0.4), rng.uniform(-0.35, 0.35)) for _ in vector]
        with mp.workprec(ctx._wp):
            _place_on_root(z, vector, target)
        point = TablePoint(ctx, tuple(z))
        if all(point.dist2(i) >= margin for i in poles):
            return point
    raise PoleProximityError("could not sample the divisor away from other poles")


def _correction(ctx, spec, n, env, comp):
    """A pair's correction bracket to its exponent on the component a + b tau: e(-b exponent X), for every u."""
    X = _env_values(ctx, env, n)[2]
    with mp.workprec(ctx._wp):
        return ctx.e(-_LATTICE_POINTS[comp][1] * spec.exponent * X)


def _divisor_points(ctx, rng, spec, n, env, parts, components, samples):
    """Sample points on a spec's divisor {c . z = target}, away from the poles of `parts`.

    The divisor is an integer vector c and its targets: c = beta and
    lambda - m q on each component lambda of `components` for a residue
    pair, c = beta and t + m q for a t-vanishing spec, and c = e_i and the
    evaluated point for an x-vanishing spec, whose one target is yielded as
    component None.  Yields (component, sample number, point), `samples`
    points per target, each a `TablePoint` (`_divisor_sample`); the RNG
    draws nothing but the points.  A point avoids the denominator factors of
    the compiled parts `parts` (one tuple per coefficient read) less those
    parallel to the divisor: no point of the divisor avoids them, and for a
    residue their vanishing is the pole under examination.
    """
    q, t, _ = _env_values(ctx, env, n)
    with mp.workprec(ctx._wp):
        if spec.kind == "x-vanish":
            vector = tuple(int(j == spec.divisor_var) for j in range(n))
            targets = {None: spec.divisor_point.eval(env, ctx._wp)}
        elif spec.kind == "t-vanish":
            vector, targets = spec.root.coeffs, {None: t + spec.root.level * q}
        else:
            vector, level = spec.root.coeffs, spec.root.level
            targets = {c: _LATTICE_POINTS[c][0] + _LATTICE_POINTS[c][1] * ctx.tau - level * q for c in components}
    poles = dict.fromkeys(arg for p in parts for _, factors in p for arg, m in factors if m < 0)
    poles = [i for i in poles if not _parallel(z_coefficients(ctx, i), vector)]
    for comp, target in targets.items():
        for snum in range(samples):
            yield comp, snum, _divisor_sample(ctx, rng, vector, target, poles)


def _residue_entries(ctx, rng, spec, n, env, columns, components, samples):
    """The pair (rb, b1 ra) of each column at each sample point of a residue-pair spec.

    columns: one mapping shift -> compiled parts (`_compiled_parts`) per
    column.  ra and rb are a column's residues (`_sweep`, unrounded) at the
    shifts k and k2, and b1 the correction factor on the point's component
    (`_correction`); b1 ra is cut to F bits, so a reader's rb + b1 ra
    (`gauss_add`) is exact.  A point avoids the denominator factors of the
    parts it reads (`_divisor_points`).  Yields (component, sample number,
    [(rb, b1 ra) per column]).
    """
    if spec.kind != "residue-pair":
        raise ValueError("condition rows are built from residue-pair specs only")
    parts = [col.get(k, ()) for k in (spec.k, spec.k2) for col in columns]
    factors = {c: gauss_exact(_correction(ctx, spec, n, env, c)) for c in components}
    for comp, snum, point in _divisor_points(ctx, rng, spec, n, env, parts, components, samples):
        residues = _sweep(ctx, point, parts, spec.root)
        b1 = factors[comp]
        yield comp, snum, [
            (rb, gauss_mul(b1, ra, ctx._fix)) for ra, rb in zip(residues[:len(columns)], residues[len(columns):])
        ]


# ---------------------------------------------------------------------------
# checkers


@at_context_precision
def check_residue(ctx, op, specs, env, samples=2, seed=11, tol=TOLERANCE):
    """Residue-pair conditions for an operator; returns a ConditionReport.

    env: dict with at least q, t and eta'.  A point's defect is
    |rb + b1 ra| / (|rb| + |b1 ra| + 1e-30) (`_residue_entries`), each term
    rounded once; the floor passes a pair whose residues are both noise.
    """
    rng = random.Random(seed)
    report = ConditionReport(tolerance=tol)
    for spec in specs:
        if spec.kind != "residue-pair":
            continue
        k2 = spec.k2
        column = {k: _compiled_parts(ctx, op.coefficient(k)) for k in (spec.k, k2)}
        for comp, snum, ((rb, bra),) in _residue_entries(
            ctx, rng, spec, op.n, env, [column], _CHECK_COMPONENTS, samples
        ):
            combo, rb, bra = (gauss_round(x, ctx._wp) for x in (gauss_add(rb, bra), rb, bra))
            report.add(
                "residue[%s;m=%d;%s<->%s;comp=%s;#%d]"
                % (spec.root.coeffs, spec.root.level, spec.k, k2, comp, snum),
                abs(combo) / (abs(rb) + abs(bra) + mpf("1e-30")),
            )
    return report


@at_context_precision
def check_vanishing(ctx, op, specs, env, samples=2, seed=13, tol=TOLERANCE):
    """x-vanishing and t-vanishing conditions (zeros of coefficients on divisors).

    Each point lies on the condition's divisor, off the poles of the
    coefficient it reads (`_divisor_points`), and its defect is
    |c(z)| / (|c(z_ref)| + 1e-30), z_ref a small random step off the point.
    """
    rng = random.Random(seed)
    report = ConditionReport(tolerance=tol)
    for spec in specs:
        if spec.kind == "residue-pair":
            continue
        c = op.coefficient(spec.k)
        if c is None:
            continue
        for _, snum, point in _divisor_points(ctx, rng, spec, op.n, env, [_compiled_parts(ctx, c)], (), samples):
            z, zref = point.z, tuple(w + mpc(rng.uniform(0.05, 0.15), rng.uniform(0.02, 0.1)) for w in point.z)
            if spec.kind == "x-vanish":
                label = "x-vanish[k=%s;z%d=%s;#%d]" % (spec.k, spec.divisor_var + 1, spec.divisor_point, snum)
            else:
                label = "t-vanish[k=%s;%s;m=%d;#%d]" % (spec.k, spec.root.coeffs, spec.root.level, snum)
            report.add(label, abs(c.eval(ctx, z)) / (abs(c.eval(ctx, zref)) + mpf("1e-30")))
    return report


@at_context_precision
def check_polarization(ctx, coeff, expected, samples=2, seed=17, tol=TOLERANCE):
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
    return expr if i == 1 else expr.substitute({"z1": AffineForm.var("z%d" % i)})


def _symmetric_power(shared, uni, coords):
    """Corner parts of shared * Sym^k(uni) in the k coordinates `coords`, one list per column.

    The column of a multiset a_1 <= ... <= a_k of basis indices sums
    u_(b_1)(z_(c_1)) ... u_(b_k)(z_(c_k)) over the distinct orderings b of
    the multiset, in lexicographic order; at k = 0 the one column is shared.
    """
    out = []
    for multiset in itertools.combinations_with_replacement(range(len(uni)), len(coords)):
        parts = []
        for order in sorted(set(itertools.permutations(multiset))):
            product = ThetaExpr.one()
            for b, c in zip(order, coords):
                product = product * _shift_var(uni[b], c)
            parts.append(shared * product)
        out.append(parts)
    return out


# ---------------------------------------------------------------------------
# section models


def _orbit_coefficients(n, mu, corner_parts, params):
    """Spread a corner at shift -mu over its W-orbit by invariance.

    corner_parts: ThetaExprs summed at the corner c.  Returns shift -> its
    ExprCoefficient: at w(-mu), c(w^T z) (`diffop.transpose_substitution`)
    for the first w of `weyl.signed_permutations`(n) that reaches the shift.
    """
    corner = ExprCoefficient.sum(ExprCoefficient(p, params) for p in corner_parts)
    shift = tuple(-x for x in mu)
    coeffs = {}
    for w in signed_permutations(n):
        k = act(w, shift)
        if k not in coeffs:
            coeffs[k] = corner.transformed(transpose_substitution(w))
    return coeffs


class SectionModel:
    """Ansatz for one Hom-space solve: per-weight corner bases plus conditions.

    Every column must be W-invariant, c_(w k)(w z) = c_k(z) for each signed
    permutation w, as `add_weight_basis` builds it: `nullspace` reads the
    orbit representatives of the conditions only (`orbit_representatives`),
    which stand for their orbits on invariant columns alone.
    """

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

        Each entry is a column's rb + b1 ra (`_residue_entries`), summed
        exactly.  A row is scaled by 2^-E, E the exponent of its largest
        |rb| or |b1 ra| (the larger part of that one lies in
        [2^(E-1), 2^E)), which leaves its nullspace unchanged and puts its
        entries below 2^(3/2) in modulus, so the matrix has entries of order
        one; then each entry is rounded once, to `ctx._wp` bits.  A row whose
        ingredients are all 0, or all below the rank floor 2^-(prec//2) of
        `weyl.rank_certificate` (E <= -(prec//2)), is dropped: scaled up, its
        rounding would count as rank.  No specs give no rows, with nothing
        compiled.
        """
        if not specs:
            return []
        with mp.workprec(self.ctx._wp):
            rng = random.Random(seed)
            ctx, floor = self.ctx, -(self.ctx.prec // 2)
            columns = [{k: _compiled_parts(ctx, c) for k, c in op.coeffs.items()} for _, op in self.basis_ops]
            rows = []
            for spec in specs:
                for _, _, pairs in _residue_entries(ctx, rng, spec, self.n, self.env, columns, _SOLVE_COMPONENTS, 2):
                    top = max(
                        ((abs(re) | abs(im)).bit_length() + e for pair in pairs for re, im, e in pair if re or im),
                        default=floor,
                    )
                    if top > floor:
                        row = (gauss_add(rb, bra) for rb, bra in pairs)
                        rows.append([gauss_round((re, im, e - top), ctx._wp) for re, im, e in row])
            return rows

    def nullspace(self, seed=29):
        """Nullspace of the rows of the orbit representatives of the model's residue specs; n <= `MAX_SOLVE_N` only."""
        if self.n > MAX_SOLVE_N:
            raise NotImplementedError(
                "section solving is established for n <= %d only: 2 samples on each of 4 components "
                "per orbit representative are not shown to reach the full rank at n = %d" % (MAX_SOLVE_N, self.n)
            )
        specs = enumerate_conditions(self.degree, self.lam, self.params, self.n)
        reps = orbit_representatives([s for s in specs if s.kind == "residue-pair"], self.n)
        rows = self.condition_rows(reps, seed=seed)
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
    scales each by the power of two at its largest ingredient), so the absolute
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
    """Ansatz for degree (0, s + d'f): single orbit of (1/2,...,1/2); d' >= 0."""
    if dprime < 0:
        raise ValueError("dprime must be at least 0, got %d" % dprime)
    rng = random.Random(seed)
    params = {"q": exact_mpc(q), "t": exact_mpc(t)}
    K = 2 * dprime + 2
    zero_sum = mpc(q) + mpc(eta_prime)
    uni = _univariate_basis(params, "z1", K, zero_sum, rng)
    # the shared block: the Weyl denominator at -z
    zs = [zvar(i) * -1 for i in range(1, n + 1)]
    shared_expr = ThetaExpr(tuple(weyl_denominator(zs, AffineForm.var("t"))), n)
    lam = tuple(Fraction(1, 2) for _ in range(n))
    env = {"q": params["q"], "t": params["t"], "eta_prime": exact_mpc(eta_prime)}
    degree = (DegreeVector(), DegreeVector(0, 1, dprime))
    model = SectionModel(ctx, n, params, env, degree, lam)
    model.add_weight_basis(lam, _symmetric_power(shared_expr, uni, range(1, n + 1)))
    return model


def section_solve_first_order(ctx, n, dprime, eta_prime, q, t, seed=31):
    """Nullspace basis for degree (0, s+d'f); expected dimension 2d'+2."""
    model = first_order_model(ctx, n, dprime, eta_prime, q, t, seed=seed)
    null = model.nullspace(seed=seed)
    ops = [model.operator_from_vector(v) for v in null]
    return model, null, ops


# -- van Diejen model --------------------------------------------------------


@at_context_precision
def vandiejen_model(ctx, xs, q, t, n, eta_prime=None, seed=37):
    """Ansatz for degree (0, 2s+2f-e_1-...-e_8) over the coroot interval of (1^n).

    The weights (1^m, 0^(n-m)) come from m = n down to 0.  A weight's columns
    are its shared block, `van_diejen_leading_expr(m, n)` times `gblock(j)`
    for each zero coordinate j and `cross_block(i, j)` for each pair of them,
    times Sym^(n-m) of an even univariate basis of degree 4 + 4(n-m) in the
    zero coordinates (`_symmetric_power`); the top weight is the prescribed
    corner alone and draws no basis.
    """
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

    for m in range(n, -1, -1):
        zeros = range(m + 1, n + 1)
        shared = van_diejen_leading_expr(m, n)
        for j in zeros:
            shared = shared * gblock(j)
        for i, j in itertools.combinations(zeros, 2):
            shared = shared * cross_block(i, j)
        d = 4 + 4 * len(zeros)
        uni = _even_univariate_basis(params, "z1", d, rng, "g%d" % d) if zeros else []
        mu = tuple([Fraction(1)] * m + [Fraction(0)] * len(zeros))
        model.add_weight_basis(mu, _symmetric_power(shared, uni, zeros))
    return model


def vandiejen_nullspace(ctx, xs, q, t, n, eta_prime=None, seed=37):
    """(model, nullspace vectors) for the van Diejen degree."""
    model = vandiejen_model(ctx, xs, q, t, n, eta_prime=eta_prime, seed=seed)
    return model, model.nullspace(seed=seed)


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
