import random
from fractions import Fraction as F

import pytest

import ccnops.conditions as conditions
import ccnops.factors as factors
import ccnops.weyl as weyl
from mpmath import matrix, mp, mpc, mpf
from mpmath.libmp import from_man_exp

from ccnops.conditions import (
    ConditionReport,
    ConditionSpec,
    _divisor_points,
    _place_on_root,
    _sweep,
    check_polarization,
    check_residue,
    check_vanishing,
    enumerate_conditions,
    first_order_model,
    nullspace_basis,
    operator_span_contains,
    orbit_representatives,
    section_solve,
    section_solve_first_order,
    sections_by_weight,
    vandiejen_model,
    vandiejen_nullspace,
    vandiejen_sections,
)
from ccnops.curve import (
    GAUSS_ONE,
    GAUSS_ZERO,
    CurveContext,
    PoleProximityError,
    gauss_add,
    gauss_div,
    gauss_mul,
    gauss_quotient,
    point_key,
)
from ccnops.diffop import DegreeVector, DifferenceOperator, ExprCoefficient, bindings_for
from ccnops.factors import TablePoint, compile_argument, z_coefficients
from ccnops.families import first_order, van_diejen_leading_expr
from ccnops.symbols import AffineForm, PolarizationRecord, ThetaExpr, zvar
from ccnops.weyl import AffineRoot, numeric_rank, positive_roots
from conftest import ETA, Q, T, TAU, TOL, op_defect, rel, sample_points


def test_reflect_shift_conventions():
    assert AffineRoot((1, 1), 1).reflect((F(0), F(0))) == (F(1), F(1))
    assert AffineRoot((2, 0), -1).reflect((F(-1), F(0))) == (F(0), F(0))
    assert AffineRoot((1, -1), 0).reflect((F(-1), F(1))) == (F(1), F(-1))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_place_on_root_matches_the_per_kind_formulas(n):
    # z_i = target - z_j on e_i + e_j, target + z_j on e_i - e_j, target / 2
    # on 2 e_i and target on the x-divisor vector e_i, bit for bit, at
    # points with full mantissas
    rng = random.Random(43 + n)
    units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    with mp.workprec(272):

        def rand():
            return mpc(*(mpf(rng.getrandbits(272) - 2**271) / 2**271 for _ in range(2)))

        for vector in [root.coeffs for root in positive_roots(n)] + units:
            i, *rest = [j for j, c in enumerate(vector) if c]
            for _ in range(20):
                z, target = [rand() for _ in range(n)], rand()
                want = list(z)
                if not rest:
                    want[i] = target / vector[i]
                elif vector[rest[0]] == 1:
                    want[i] = target - z[rest[0]]
                else:
                    want[i] = target + z[rest[0]]
                _place_on_root(z, vector, target)
                assert [w._mpc_ for w in z] == [w._mpc_ for w in want]


def test_enumerate_scalar_degree_is_empty():
    degree = (DegreeVector(), DegreeVector())
    specs = enumerate_conditions(degree, (F(0), F(0)), {}, 2)
    assert [s for s in specs if s.kind == "residue-pair"] == []
    assert [s for s in specs if s.kind == "x-vanish"] == []


def test_enumerate_first_order_n1():
    degree = (DegreeVector(), DegreeVector(0, 1, 0))
    specs = enumerate_conditions(degree, (F(1, 2),), {}, 1)
    pairs = [s for s in specs if s.kind == "residue-pair"]
    assert len(pairs) == 1
    (s,) = pairs
    assert s.root == AffineRoot((2,), 0)
    assert sorted((s.k, s.k2)) == [(F(-1, 2),), (F(1, 2),)]
    assert s.exponent == 1  # m - 2 k_1 at k = -1/2


def test_enumerate_blowup_ranges():
    # k = 0 coefficient: the l-range collapses (1 <= l < 1)
    degree = (DegreeVector(), DegreeVector(0, 2, 2, (1,) * 8))
    specs = enumerate_conditions(degree, (F(1),), {}, 1)
    xv = [s for s in specs if s.kind == "x-vanish"]
    assert all(s.k != (F(0),) for s in xv)
    # the k = -1 coefficient vanishes at z = x_j + q/2 for all j
    corners = [s for s in xv if s.k == (F(-1),)]
    assert len(corners) == 8
    bind = {"q": Q}
    for j, s in enumerate(sorted(corners, key=lambda s: sorted(s.divisor_point.coeffs))):
        bind["x%d" % (j + 1)] = mpc(j + 1)
    vals = {str(s.divisor_point) for s in corners}
    assert len(vals) == 8


def test_check_residue_first_order_passes(ctx):
    D = first_order([Q / 2 + mpc("0.1", "0.06"), Q / 2 - mpc("0.1", "0.06") + ETA], T, Q, 2)
    degree = (DegreeVector(), DegreeVector(0, 1, 0))
    specs = enumerate_conditions(degree, (F(1, 2), F(1, 2)), D.params, 2)
    env = {"q": Q, "t": T, "eta_prime": ETA}
    rep = check_residue(ctx, D, specs, env, samples=1)
    assert rep.passed
    rep2 = check_vanishing(ctx, D, specs, env, samples=1)
    assert rep2.passed


def test_check_residue_soundness(ctx):
    # a 1e-6 perturbation of one orbit coefficient fails proportionally
    D = first_order([Q / 2 + mpc("0.1", "0.06"), Q / 2 - mpc("0.1", "0.06") + ETA], T, Q, 2)
    eps = mpf("1e-6")
    k0 = (F(1, 2), F(1, 2))
    coeffs = {k: (c.scaled(1 + eps) if k == k0 else c) for k, c in D.coeffs.items()}
    Dp = DifferenceOperator(2, coeffs, D.params, D.degree)
    degree = (DegreeVector(), DegreeVector(0, 1, 0))
    specs = enumerate_conditions(degree, (F(1, 2), F(1, 2)), D.params, 2)
    env = {"q": Q, "t": T, "eta_prime": ETA}
    rep = check_residue(ctx, Dp, specs, env, samples=1)
    assert not rep.passed
    assert eps / 10 < rep.max_defect < eps * 10


def test_nan_defect_record_reads_inf():
    # a NaN record fails the report; max would drop it and read 1e-40
    report = ConditionReport()
    report.add("small", mpf("1e-40"))
    report.add("nan", mpf("nan"))
    assert not report.passed
    assert report.max_defect == mp.inf


def test_check_vanishing_detects_generic_failure(ctx, xs8):
    # a generic first-order operator does not vanish at the blowup points
    D = first_order([Q / 2 + mpc("0.1", "0.06"), Q / 2 - mpc("0.1", "0.06") + ETA], T, Q, 1)
    degree = (DegreeVector(), DegreeVector(0, 1, 0, (1,)))
    point = AffineForm.var("x1") + AffineForm.var("q") * F(1, 2)
    specs = [ConditionSpec("x-vanish", (F(-1, 2),), divisor_var=0, divisor_point=point)]
    env = {"q": Q, "t": T, "eta_prime": ETA, "x1": xs8[0]}
    rep = check_vanishing(ctx, D, specs, env, samples=1)
    assert not rep.passed


def test_check_vanishing_vandiejen_corner(ctx, xs8):
    _, (_, H) = vandiejen_sections(ctx, xs8, Q, T, 1)
    degree = (DegreeVector(), DegreeVector(0, 2, 2, (1,) * 8))
    specs = enumerate_conditions(degree, (F(1),), H.params, 1)
    env = dict(H.params)
    env["eta_prime"] = sum(xs8) / 2
    rep = check_vanishing(ctx, H, [s for s in specs if s.kind == "x-vanish"], env, samples=1)
    assert rep.passed


def test_check_polarization(ctx):
    c_theta = ExprCoefficient(ThetaExpr(((zvar(1), 1),), arity=1), {"q": Q, "t": T})
    rep = check_polarization(ctx, c_theta, PolarizationRecord(((F(1),),), -1))
    assert rep.passed
    c_one = ExprCoefficient(ThetaExpr.one(1), {"q": Q})
    rep = check_polarization(ctx, c_one, PolarizationRecord(((F(0),),), 0))
    assert rep.passed
    c_sq = ExprCoefficient(ThetaExpr(((zvar(1), 2),), arity=1), {"q": Q})
    rep = check_polarization(ctx, c_sq, PolarizationRecord(((F(2),),), -2))
    assert rep.passed
    # wrong prediction fails
    rep = check_polarization(ctx, c_sq, PolarizationRecord(((F(1),),), -1))
    assert not rep.passed


def test_section_solve_dispatcher_constants(ctx):
    degree = (DegreeVector(), DegreeVector())
    dim, ops = section_solve(ctx, degree, (F(0),), "free", {"q": Q, "t": T})
    assert dim == 1 and ops[0].support() == [(F(0),)]


def test_section_solve_first_order_dimensions(ctx):
    for dprime in (0, 1):
        model, null, ops = section_solve_first_order(ctx, 1, dprime, ETA, Q, T)
        assert len(null) == 2 * dprime + 2
    model, null, ops = section_solve_first_order(ctx, 2, 0, ETA, Q, T)
    assert len(null) == 3  # Sym^2 of the univariate two-dimensional space


def test_section_solutions_are_sections(ctx):
    model, null, ops = section_solve_first_order(ctx, 1, 1, ETA, Q, T)
    degree = (DegreeVector(), DegreeVector(0, 1, 1))
    specs = enumerate_conditions(degree, (F(1, 2),), model.params, 1)
    env = {"q": Q, "t": T, "eta_prime": ETA}
    for op in ops[:2]:
        rep = check_residue(ctx, op, specs, env, samples=1)
        assert rep.passed


def test_section_solve_reproducible(ctx):
    _, null_a, _ = section_solve_first_order(ctx, 1, 1, ETA, Q, T, seed=31)
    _, null_b, _ = section_solve_first_order(ctx, 1, 1, ETA, Q, T, seed=97)
    assert len(null_a) == len(null_b)
    from ccnops.curve import CurveContext
    from conftest import TAU

    ctx512 = CurveContext(TAU, 512)
    _, null_c, _ = section_solve_first_order(ctx512, 1, 1, ETA, Q, T, seed=31)
    assert len(null_c) == len(null_a)


def test_vandiejen_dimension_and_collapse(ctx, xs8):
    _, null = vandiejen_nullspace(ctx, xs8, Q, T, 1)
    assert len(null) == 2
    # x1 off the balancing constraint by delta breaks one section; its singular
    # value, about delta times s_max, stands some 70 decades above the rounding
    # noise even at 1e-8, so the absolute floor keeps it
    xs_bad = list(xs8)
    for delta in ("1e-3", "1e-6", "1e-8"):
        xs_bad[0] = xs8[0] + mpf(delta)
        _, null_bad = vandiejen_nullspace(ctx, xs_bad, Q, T, 1, eta_prime=sum(xs8) / 2)
        assert len(null_bad) == 1, delta


def test_vandiejen_section_failure_raises(ctx, xs8):
    xs_bad = list(xs8)
    xs_bad[0] = xs8[0] + mpf("1e-3")
    with pytest.raises(ArithmeticError):
        vandiejen_sections(ctx, xs_bad, Q, T, 1, eta_prime=sum(xs8) / 2)


def test_sections_do_not_depend_on_the_nullspace_basis(ctx, xs8):
    # the echelon form reads its pivots from the nullspace projector, so a
    # unitary change of basis leaves every section as it was
    model, null = vandiejen_nullspace(ctx, xs8, Q, T, 2)
    k = len(null)
    U = _unitary(random.Random(53), k)
    with mp.workprec(256 + 16):
        turned = [[sum(U[i, j] * null[j][a] for j in range(k)) for a in range(len(null[0]))] for i in range(k)]
    pts = sample_points(2, 2, seed=59)
    for A, B in zip(sections_by_weight(model, null), sections_by_weight(model, turned)):
        assert op_defect(ctx, A, B, pts) < mpf("1e-70")


def test_operator_span_contains(ctx):
    D1 = first_order([], T, Q, 1)
    D2 = first_order([mpc("0.1", "0.2"), Q + ETA - mpc("0.1", "0.2")], T, Q, 1)
    pts = sample_points(1, 3)
    assert operator_span_contains(ctx, [D1, D2], D1.scaled(mpc("2.5", "0.5")), pts)
    other = first_order([mpc("0.3", "-0.1"), mpc("0.05", "0.15")], T, Q, 1)
    assert not operator_span_contains(ctx, [D1], other, pts)


def test_vandiejen_t_zero_and_wedge(ctx, xs8):
    # the solve stays 3-dimensional at t = 0, and the wedge of the n = 1
    # sections passes the same residue suite there.  The wedge lives in the
    # Hom space whose degree is shifted by delta, so it is not expected to
    # lie in the span of the solved sections; the last assertion pins that.
    from ccnops.families import wedge_section

    model, null = vandiejen_nullspace(ctx, xs8, Q, mpc(0), 2)
    assert len(null) == 3
    _, secs1 = vandiejen_sections(ctx, xs8, Q, mpc(0), 1)
    W = wedge_section([secs1[0], secs1[1]], {"q": Q, "t": mpc(0)})
    degree = (DegreeVector(), DegreeVector(0, 2, 2, (1,) * 8))
    specs = enumerate_conditions(degree, (F(1), F(1)), W.params, 2)
    env = dict(W.params)
    env["eta_prime"] = sum(xs8) / 2
    env["t"] = mpc(0)
    rep = check_residue(ctx, W, [s for s in specs if s.kind == "residue-pair"], env, samples=1)
    assert rep.passed
    ops = [model.operator_from_vector(v) for v in null]
    pts = sample_points(2, 3, seed=211)
    assert not operator_span_contains(ctx, ops, W, pts)


BETAS = (AffineRoot((2, 0)), AffineRoot((1, 1)), AffineRoot((1, -1)))


def _parts(ctx, forms, params):
    """The compiled parts of the coefficient 1 / prod theta(form), one tuple in a list, as `_divisor_points` reads them."""
    return [conditions._compiled_parts(ctx, ExprCoefficient(ThetaExpr(tuple((f, -1) for f in forms), 2), params))]


def _z_parallel(form, vector):
    """Whether the z-part of a form in z1, z2 is a nonzero multiple of the vector."""
    a, b = form.coeff("z1"), form.coeff("z2")
    return bool(a or b) and a * vector[1] == b * vector[0]


@pytest.mark.parametrize("beta", BETAS, ids=["double", "sum", "diff"])
def test_shared_sampler_on_divisor_and_off_poles(ctx, beta):
    # the one generator puts the points of a residue pair (on each
    # component), of a t-vanishing spec and of an x-vanishing spec on their
    # divisors and away from every pole not parallel to the divisor; each
    # divisor's own vanishing form is parallel and must not be avoided
    m = 1
    env = {"q": Q, "t": T, "eta_prime": ETA, "x1": mpc("0.05", "0.03")}
    params = {"q": Q, "t": T, "x1": env["x1"], "a": mpc("0.1", "0.05"), "b": mpc("-0.2", "0.1")}
    zf = [AffineForm.var("z1"), AffineForm.var("z2")]
    qf, tf, x1 = AffineForm.var("q"), AffineForm.var("t"), AffineForm.var("x1")
    others = [zf[0] - zf[1] + AffineForm.var("a"), zf[1] * 2 + AffineForm.var("b"), zf[0] + zf[1], zf[0] * 2 - qf]
    beta_form = sum((f * c for f, c in zip(zf, beta.coeffs)), AffineForm())
    point = x1 + qf * F(1, 2)
    lams = {"0": mpc(0), "1": mpc(1), "tau": ctx.tau, "1+tau": 1 + ctx.tau}
    with mp.workprec(ctx._wp):
        cases = [  # (spec, components, divisor vector, its form vanishing on the divisor, {component: target})
            (ConditionSpec("residue-pair", (F(1, 2), F(1, 2)), beta.at_level(m)), tuple(lams), beta.coeffs,
             beta_form + qf * m, {c: lam - m * Q for c, lam in lams.items()}),
            (ConditionSpec("t-vanish", (F(-1), F(0)), beta.at_level(m)), (), beta.coeffs,
             beta_form - tf - qf * m, {None: T + m * Q}),
            (ConditionSpec("x-vanish", (F(-1), F(0)), divisor_var=0, divisor_point=point), (), (1, 0),
             zf[0] - point, {None: env["x1"] + Q / 2}),
        ]
    eps = mpf(2) ** (8 - ctx.prec)
    for spec, components, vector, own, targets in cases:
        got = list(_divisor_points(ctx, random.Random(7), spec, 2, env, _parts(ctx, others + [own], params), components, 2))
        assert [(c, s) for c, s, _ in got] == [(c, s) for c in targets for s in (0, 1)], spec.kind
        for comp, _, p in got:
            assert abs(sum(c * w for c, w in zip(vector, p.z)) - targets[comp]) < eps, spec.kind
            for f in others:
                if not _z_parallel(f, vector):
                    assert ctx.dist_to_lattice(f.eval(bindings_for(params, p.z), ctx._wp)) >= mpf("5e-3"), (spec.kind, f)
        # a pole that no point of the divisor avoids stops the generator
        stuck = _parts(ctx, [AffineForm.var("p")], {"p": 1 + ctx.tau})
        with pytest.raises(PoleProximityError, match="away from other poles"):
            next(_divisor_points(ctx, random.Random(7), spec, 2, env, stuck, components, 1))
    # and so stops a vanishing check of a coefficient that carries it
    vanishing = [spec for spec, *_ in cases[1:]]
    coeff = ExprCoefficient(ThetaExpr(((AffineForm.var("p"), -1), (zf[0], 1)), 2), {"q": Q, "p": 1 + ctx.tau})
    op = DifferenceOperator(2, {vanishing[0].k: coeff}, {"q": Q, "t": T})
    for spec in vanishing:
        with pytest.raises(PoleProximityError, match="away from other poles"):
            check_vanishing(ctx, op, [spec], env, samples=1)


@pytest.mark.parametrize("prec", [53, 320])
def test_points_and_entries_do_not_read_the_global_precision(ctx, xs8, prec):
    # targets, points and correction factors are formed at the context's
    # precision: under a global mp.prec of 53 or 320 bits the generator's
    # points for every spec kind, and the entries of `_residue_entries`, are
    # those of a call under mp.workprec(ctx._wp), bit for bit
    model = vandiejen_model(ctx, xs8, Q, T, 2)
    specs = enumerate_conditions(model.degree, model.lam, model.params, 2)
    kinds = ("residue-pair", "t-vanish", "x-vanish")
    specs = [next(s for s in specs if s.kind == kind and (s.root is None or s.root.level)) for kind in kinds]
    columns = [{k: conditions._compiled_parts(ctx, c) for k, c in op.coeffs.items()} for _, op in model.basis_ops]

    def run():
        out = []
        for spec in specs:
            parts = [col.get(spec.k, ()) for col in columns]
            comps = conditions._SOLVE_COMPONENTS if spec.kind == "residue-pair" else ()
            points = _divisor_points(ctx, random.Random(3), spec, 2, model.env, parts, comps, 2)
            out += [(c, s, [w._mpc_ for w in p.z]) for c, s, p in points]
            if spec.kind == "residue-pair":
                out += list(conditions._residue_entries(ctx, random.Random(3), spec, 2, model.env, columns, comps, 2))
        return out

    with mp.workprec(ctx._wp):
        want = run()
    with mp.workprec(prec):
        assert run() == want


def _bracket_oracle(ctx, root, z, u, X, q):
    """The four-theta correction bracket that `conditions._correction` replaced, kept as its oracle."""
    s = sum(mpc(c) * w for c, w in zip(root.coeffs, z)) + root.level * q
    return ctx.theta(u) * ctx.theta(X + u + s) / (ctx.theta(u + s) * ctx.theta(X + u))


@pytest.mark.parametrize("prec", [96, 256])
def test_correction_against_the_four_theta_oracle(prec):
    # on every component lambda = a + b tau the bracket, raised to the pair
    # exponent, is e(-b exponent X) whatever u is: for every positive root at
    # n = 1..3 and levels -2..2, at two random u per sample point; the shift
    # k = 3/2 beta^v puts <beta, k> = 3, so no exponent is 0
    ctx = CurveContext(TAU, prec)
    env = {"q": Q, "t": T, "eta_prime": ETA}
    rng = random.Random(19)
    boxes = (((0.1, 0.5), (0.05, 0.4)), ((-0.5, -0.1), (0.05, 0.4)))
    checked = 0
    with mp.workprec(ctx._wp):
        for n in (1, 2, 3):
            X = Q + (n - 1) * T + ETA
            for beta in positive_roots(n):
                for m in range(-2, 3):
                    spec = ConditionSpec("residue-pair", tuple(F(3, 2) * c for c in beta.coroot), beta.at_level(m))
                    assert spec.exponent != 0
                    for comp, _, point in _divisor_points(ctx, rng, spec, n, env, [], conditions._SOLVE_COMPONENTS, 1):
                        got = conditions._correction(ctx, spec, n, env, comp)
                        for re_box, im_box in boxes:
                            u = mpc(rng.uniform(*re_box), rng.uniform(*im_box))
                            want = _bracket_oracle(ctx, spec.root, point.z, u, X, Q) ** spec.exponent
                            assert abs(got - want) <= abs(want) * mpf(2) ** (8 - prec), (n, beta, m, comp)
                            checked += 1
    assert checked == 2 * 4 * 5 * (1 + 4 + 9)


def test_inverted_correction_is_rejected(ctx, xs8, monkeypatch):
    # the factor carries weight: with e(+b exponent X) in place of
    # e(-b exponent X) a solved van Diejen n=1 section fails its residue
    # check, and the n=1 solve no longer finds its two sections
    _, (_, H) = vandiejen_sections(ctx, xs8, Q, T, 1)
    specs = enumerate_conditions((DegreeVector(), DegreeVector(0, 2, 2, (1,) * 8)), (F(1),), H.params, 1)
    env = {**H.params, "eta_prime": sum(xs8) / 2}
    assert check_residue(ctx, H, specs, env, samples=1).passed
    correction = conditions._correction
    monkeypatch.setattr(conditions, "_correction", lambda *args: 1 / correction(*args))
    assert not check_residue(ctx, H, specs, env, samples=1).passed
    _, null = vandiejen_nullspace(ctx, xs8, Q, T, 1)
    assert len(null) != 2


def test_vandiejen_corner_matches_leading_expr(ctx, xs8):
    # the m = n = 1 section, normalized to corner coefficient 1, carries the
    # closed-form leading coefficient at the corner shift k = (-1,)
    model, sections = vandiejen_sections(ctx, xs8, Q, T, 1)
    corner = sections[1].coefficient((F(-1),))
    expr = van_diejen_leading_expr(1, 1)
    for z in sample_points(1, 2, seed=307):
        assert rel(corner.eval(ctx, z), expr.eval(ctx, bindings_for(model.params, z))) < TOL


SUM_SPEC = ConditionSpec("residue-pair", (F(1, 2), F(1, 2)), AffineRoot((1, 1), 0))


def _one_coefficient_operator(factors):
    params = {"q": Q, "t": T}
    return DifferenceOperator(2, {SUM_SPEC.k: ExprCoefficient(ThetaExpr(factors, 2), params)}, params)


def test_check_residue_rejects_opaque_coefficients(ctx):
    # both checkers read compiled parts, so neither takes a composite coefficient
    D = first_order([], T, Q, 1)
    env = {"q": Q, "t": T, "eta_prime": ETA}
    spec = ConditionSpec("residue-pair", (F(-1),), AffineRoot((2,), 0))
    with pytest.raises(ValueError, match="structured coefficients"):
        check_residue(ctx, D.compose(D), [spec], env, samples=1)
    tspec = ConditionSpec("t-vanish", (F(-1),), AffineRoot((2,), 0))
    with pytest.raises(ValueError, match="structured coefficients"):
        check_vanishing(ctx, D.compose(D), [tspec], env, samples=1)


def test_check_residue_rejects_a_double_pole(ctx):
    op = _one_coefficient_operator(((zvar(1) + zvar(2), -2),))
    with pytest.raises(PoleProximityError, match="higher-order pole"):
        check_residue(ctx, op, [SUM_SPEC], {"q": Q, "t": T, "eta_prime": ETA}, samples=1)


def test_check_residue_rejects_two_vanishing_factors(ctx):
    op = _one_coefficient_operator(((zvar(1) + zvar(2), -1), (zvar(1) + zvar(2) + 1, -1)))
    with pytest.raises(PoleProximityError, match="two denominator factors"):
        check_residue(ctx, op, [SUM_SPEC], {"q": Q, "t": T, "eta_prime": ETA}, samples=1)


def _poles_read(ctx, spec, n, columns, monkeypatch):
    """The denominator ids, first seen first, of the parts `_residue_entries` hands the generator for the spec on the columns."""
    seen = []
    monkeypatch.setattr(conditions, "_divisor_points", lambda *args: seen.append(args[5]) or iter(()))
    env = {"q": Q, "t": T, "eta_prime": ETA}
    list(conditions._residue_entries(ctx, random.Random(1), spec, n, env, columns, ("0",), 1))
    return list(dict.fromkeys(arg for parts in seen[0] for _, factors in parts for arg, m in factors if m < 0))


def test_context_table_shares_arguments_and_poles(monkeypatch):
    ctx = CurveContext(TAU, 96)  # a fresh table: ids count from 0
    a = mpc("0.1", "0.05")
    expr = ThetaExpr(((AffineForm.var("a") - zvar(1), -1), (zvar(1), 1)), 1)
    coeffs = [ExprCoefficient(expr, {"q": Q, "a": a})]
    spec = ConditionSpec("residue-pair", (F(1),), AffineRoot((2,), 1))

    def poles():
        columns = [{spec.k: conditions._compiled_parts(ctx, c)} for c in coeffs]
        return len(ctx._arguments), _poles_read(ctx, spec, 1, columns, monkeypatch)

    # parts are (scale, ((argument id, exponent), ...)) in factor order
    assert coeffs[0].compiled(ctx).parts == ((GAUSS_ONE, ((0, -1), (1, 1))),)
    # no factor reads q, so a different q shares every argument and its pole
    coeffs.append(ExprCoefficient(expr, {"q": T, "a": a}))
    assert coeffs[1].compiled(ctx).parts == ((GAUSS_ONE, ((0, -1), (1, 1))),)
    assert poles() == (2, [0])
    # a different value of a is a second argument and a second pole
    coeffs.append(ExprCoefficient(expr, {"a": a + 1}))
    assert coeffs[2].compiled(ctx).parts == ((GAUSS_ONE, ((2, -1), (1, 1))),)
    assert poles() == (3, [0, 2])
    # the same form stored in another order is its own argument, and a
    # point tests its pole once more
    coeffs.append(ExprCoefficient(ThetaExpr(((AffineForm({"z1": -1, "a": 1}), -1),), 1), {"a": a}))
    assert coeffs[3].compiled(ctx).parts == ((GAUSS_ONE, ((3, -1),)),)
    assert poles() == (4, [0, 2, 3])
    # an absent coefficient has no parts and no poles
    assert conditions._compiled_parts(ctx, None) == ()
    assert _poles_read(ctx, spec, 1, [{}], monkeypatch) == []


@pytest.mark.parametrize("where", ["k", "k2", "unread"])
def test_a_point_avoids_the_poles_of_the_parts_it_reads_only(ctx, where):
    # a pole that no point of the divisor avoids (theta(p), p = 1 + tau)
    # stops both readers when it sits in a coefficient at k or k2, and
    # rejects no point when it sits at a shift the spec does not read
    spec = ConditionSpec("residue-pair", (F(1, 2), F(1, 2)), AffineRoot((1, 1), 1))
    unread = (F(-1, 2), F(1, 2))
    assert unread not in (spec.k, spec.k2)
    params = {"q": Q, "t": T, "p": 1 + ctx.tau}
    shift = {"k": spec.k, "k2": spec.k2, "unread": unread}[where]
    coeffs = {
        spec.k: ExprCoefficient(ThetaExpr(((zvar(1) + zvar(2), 1),), 2), params),
        shift: ExprCoefficient(ThetaExpr(((AffineForm.var("p"), -1), (zvar(1), 1)), 2), params),
    }
    op = DifferenceOperator(2, coeffs, params)
    env = {"q": Q, "t": T, "eta_prime": ETA}
    model = conditions.SectionModel(ctx, 2, params, env, None, None)
    model.basis_ops.append(((F(0), F(0)), op))
    if where == "unread":
        assert check_residue(ctx, op, [spec], env, samples=1).passed
        assert model.condition_rows([spec]) == []  # every residue is 0
    else:
        with pytest.raises(PoleProximityError, match="away from other poles"):
            check_residue(ctx, op, [spec], env, samples=1)
        with pytest.raises(PoleProximityError, match="away from other poles"):
            model.condition_rows([spec])


def test_one_compile_per_argument_and_one_half_e_per_base_value(monkeypatch):
    # residue checks over several specs, condition rows and coefficient
    # values on one context compile each distinct argument once, and run
    # half_e never per argument: once per base of the context's one
    # powering rule, from the context's construction on: a (parameter
    # value, den) pair that an argument reads, the root of unity e(1/2den)
    # of a constant num/den, a fixed coordinate value, and tau/d
    keys, calls = [], []
    compile_, half_e = factors._compile, CurveContext.half_e

    def counted_compile(ctx, form, reads):
        keys.append((form.layout(), tuple(sorted((s, point_key(v)) for s, v in reads.items()))))
        return compile_(ctx, form, reads)

    def counted_half_e(self, z):
        calls.append(point_key(z))
        return half_e(self, z)

    monkeypatch.setattr(factors, "_compile", counted_compile)
    monkeypatch.setattr(CurveContext, "half_e", counted_half_e)
    ctx = CurveContext(TAU, 96)
    D = first_order([Q / 2 + mpc("0.1", "0.06"), Q / 2 - mpc("0.1", "0.06") + ETA], T, Q, 2)
    specs = enumerate_conditions((DegreeVector(), DegreeVector(0, 1, 0)), (F(1, 2), F(1, 2)), D.params, 2)
    pairs = [s for s in specs if s.kind == "residue-pair"]
    assert len({s.k for s in pairs} | {s.k2 for s in pairs}) < 2 * len(pairs)  # specs share coefficients
    env = {"q": Q, "t": T, "eta_prime": ETA}
    assert check_residue(ctx, D, pairs, env, samples=1).passed
    model = first_order_model(ctx, 1, 0, ETA, Q, T)
    model.condition_rows([s for s in enumerate_conditions(model.degree, model.lam, model.params, 1)
                          if s.kind == "residue-pair"])
    for k in D.support():
        D.eval_coeff(ctx, k, sample_points(2, 1)[0])
    assert check_residue(ctx, D, pairs, env, samples=1).passed
    assert keys and len(keys) == len(set(keys))
    # the parameter bases the arguments read: (value, den) per term, and
    # (1, den) for a constant num/den that is not an even integer
    values = {(key, den) for _, _, _, (num, den, terms) in ctx._arguments for key, _ in terms}
    roots = {(point_key(1), den) for _, _, _, (num, den, _) in ctx._arguments if num % (2 * den)}
    taus = {key for key, _ in ctx._half_powers if key[0] == ctx._tau_exact}  # tau/d: (tau, d)
    bases = {key for key, k in ctx._half_powers if k == 1}
    coordinates = {key for key in bases if isinstance(key[0], int)}  # (re, im) of a fixed coordinate
    assert coordinates and taus and bases - coordinates - taus <= values | roots
    assert len(calls) == len(bases)  # one call per base
    assert len(calls) <= len(values | roots) + len(coordinates) + len(taus)


def _table_point(ctx, forms, params, z):
    """The point z and the argument ids of the forms."""
    return TablePoint(ctx, z), [compile_argument(ctx, f, params) for f in forms]


def test_table_theta_against_the_product_formula(ctx):
    # the integer theta of a table argument c + z1, at lattice shifts of
    # both signs, against the product formula of the untouched mpc path
    rng = random.Random(8)
    tau = mp.make_mpc(point_key(ctx.tau))
    forms = [AffineForm.var("p") + zvar(1), AffineForm.var("p") - zvar(1) * 2]
    for n in range(-3, 4):
        for m in (-5, -2, 0, 3, 5):
            with mp.workprec(600):
                p = m + n * tau + mpc(rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2))
                z = (mpc(rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2)),)
                args = (p + z[0], p - 2 * z[0])
            point, ids = _table_point(ctx, forms, {"p": p}, z)
            for i, arg in zip(ids, args):
                got = gauss_div(point.factor(i), GAUSS_ONE, ctx._wp)
                want = ctx.theta_product(arg)
                assert rel(got, want) < mpf("1e-75"), (m, n, i)


def test_table_theta_zero_rule(ctx):
    # a reduced argument below 2^-wp is a lattice point up to rounding: exactly 0
    tiny = mpf(2) ** -(ctx._wp + 2)
    with mp.workprec(600):
        lattice = 1 + mp.make_mpc(point_key(ctx.tau))
        z = (lattice + mpc(tiny, -tiny) / 2,)
    point, (i,) = _table_point(ctx, [zvar(1) - AffineForm.var("p")], {"p": lattice}, z)
    assert point.factor(i) == (0, 0, 0)
    assert point.reduced(i)[2:] == (0, 0)


@pytest.mark.parametrize("prec", [96, 256])
def test_table_factor_on_lattice_translates(prec):
    # the arguments p + z1, p = m + n tau for m, n in -3..3, share one
    # lattice class (tau and the point are dyadic, so every translate is
    # exact in fixed point), entered first by the translate (3, -2): each is
    # the class's theta(w0) times its own translate factor, against
    # ctx.theta and the product formula to 2^(8-prec) relative; two
    # arguments on the lattice, under the zero rule, give exactly 0
    tau = mpc("0.125", "1.09375")
    ctx = CurveContext(tau, prec)
    w = mpc("0.2109375", "0.0703125")
    shifts = [(3, -2)] + [(m, n) for m in range(-3, 4) for n in range(-3, 4) if (m, n) != (3, -2)]
    with mp.workprec(600):
        values = {"p%d" % i: m + n * tau for i, (m, n) in enumerate(shifts)}
        values["zero0"], values["zero1"] = 2 + tau - w, -1 - 3 * tau - w
        args = [values[name] + w for name in values]
    point, ids = _table_point(ctx, [zvar(1) + AffineForm.var(name) for name in values], values, (w,))
    bound = mpf(2) ** (8 - prec)
    for i, arg, name in zip(ids, args, values):
        got = point.factor(i)
        if name.startswith("zero"):
            assert got == GAUSS_ZERO
            continue
        got = gauss_div(got, GAUSS_ONE, ctx._wp)
        assert rel(got, ctx.theta(arg)) < bound, name
        assert rel(got, ctx.theta_product(arg)) < bound, name
    assert len(point._classes) == 2
    assert {point.reduced(i)[:2] for i in ids[:-2]} == {point.reduced(ids[0])[:2]}


def test_residue_of_parts_against_the_mpc_path(ctx):
    # residue along 2 z1 = tau (lattice point (0, 1)) against eps * c(z) a
    # distance eps off the divisor, evaluated through ThetaExpr.eval
    params = {"q": Q, "a": mpc("0.12", "0.05")}
    a = AffineForm.var("a")
    first = ThetaExpr(((zvar(1) * 2, -1), (zvar(1) + a, 1), (zvar(1) - AffineForm.var("q"), -1)), 1)
    second = ThetaExpr(((zvar(1) * -2, -1), (a - zvar(1), 2), (zvar(1) + a, -1)), 1)
    coeff = ExprCoefficient.sum(
        [ExprCoefficient(first, params), ExprCoefficient(second, params, mpc("0.3", "-1.7"))]
    )
    parts = coeff.compiled(ctx).parts
    beta = AffineRoot((2,))
    with mp.workprec(600):
        z = (mp.make_mpc(point_key(ctx.tau)) / 2,)
    (got,) = map(_exact, _sweep(ctx, TablePoint(ctx, z), [parts], beta))
    eps = mpf("1e-30")
    with mp.workprec(600):
        off = (z[0] + eps / 2,)  # s = 2 z1 - tau moves by eps
    want = eps * coeff.eval(ctx, off)
    assert abs(got) > mpf("1e-3")
    assert rel(got, want) < mpf("1e-25")
    # the value path of check_vanishing against the sweep's thetas, at a
    # point away from every pole
    away = (z[0] + mpc("0.1", "0.05"),)
    (value,) = map(_exact, _per_part_oracle(ctx, TablePoint(ctx, away), [parts]))
    assert rel(coeff.eval(ctx, away), value) < mpf("1e-70")


def _exact(a):
    """A Gaussian float as an mpc, exactly."""
    return mp.make_mpc((from_man_exp(a[0], a[2]), from_man_exp(a[1], a[2])))


def _per_part_oracle(ctx, point, columns, root=None):
    """The per-part path that `conditions._sweep` replaced, kept as its oracle.

    Each part is seeded with its scale (and, for a residue, the slope and
    theta'), multiplied factor by factor with nothing shared and divided at
    F bits; a column's parts add exactly, into an unrounded Gaussian float
    as the sweep returns it.  With no root it gives each column's value from
    the point's thetas.
    """
    bits = ctx._fix
    on_divisor = conditions._fixed_square(ctx, conditions._ON_DIVISOR)
    out = []
    for parts in columns:
        total = GAUSS_ZERO
        for scale, factors in parts:
            num, den, skip = scale, GAUSS_ONE, None
            if root is not None:
                svar = next(i for i, c in enumerate(root.coeffs) if c)
                for idx, (arg, m) in enumerate(factors):
                    w0r, w0i, a, b = point.reduced(arg)
                    if m < 0 and w0r * w0r + w0i * w0i < on_divisor:
                        skip, lattice, zk = idx, (a, b), z_coefficients(ctx, arg)
                if skip is None:
                    continue
                slope = F(zk.get(svar, 0), root.coeffs[svar])
                num = gauss_mul(scale, (slope.denominator, 0, 0), bits)
                den = gauss_mul(ctx.theta_deriv_fixed(*lattice), (slope.numerator, 0, 0), bits)
            for j, (arg, m) in enumerate(factors):
                if j == skip:
                    continue
                v = point.factor(arg)
                for _ in range(abs(m)):
                    if m > 0:
                        num = gauss_mul(num, v, bits)
                    else:
                        den = gauss_mul(den, v, bits)
            total = gauss_add(total, gauss_quotient(num, den, bits))
        out.append(total)
    return out


def test_sweep_on_shared_prefixes_against_the_per_part_oracle(ctx):
    # parts of several columns that share prefixes of several lengths once
    # sorted, parts whose vanishing factor is not their first denominator
    # (the second, and the last), a part with no vanishing factor and an
    # absent column: residues along 2 z1 = tau from the sweep, and values
    # off the divisor from each column's `eval`
    params = {"q": Q, "a": mpc("0.12", "0.05"), "b": mpc("-0.21", "0.08")}
    a, b, q, z = AffineForm.var("a"), AffineForm.var("b"), AffineForm.var("q"), zvar(1)
    pole, head = (z * 2, -1), [(z + a, 1), (z - q, -1)]
    columns = [
        [head + [pole, (b - z, 2)], head + [(z + b, -1), pole, (a - z, 1)], head + [(b - z, 1)]],
        [head + [pole], head + [pole, (b - z, 1), (z + a + b, -1)], [(z - b, 1), pole]],
        [],
        [head + [(z + b, -1), (a - z, 2), pole], [(a + b - z, 1), pole, (z + q, 1)]],
    ]
    scales = (1, mpc("0.3", "-1.7"), mpc("-2.5", "0.25"))
    coeffs = [
        ExprCoefficient.sum([ExprCoefficient(ThetaExpr(p, 1), params, s) for p, s in zip(col, scales)])
        if col else None
        for col in columns
    ]
    encoded = [conditions._compiled_parts(ctx, c) for c in coeffs]
    beta = AffineRoot((2,))
    with mp.workprec(600):
        on = (mp.make_mpc(point_key(ctx.tau)) / 2 + mpc("0.5"),)
        away = (on[0] + mpc("0.1", "0.05"),)
    on_point, away_point = TablePoint(ctx, on), TablePoint(ctx, away)
    cases = (
        ([_exact(r) for r in _sweep(ctx, on_point, encoded, beta)], on_point, beta),
        ([c.eval(ctx, away) if c else mpc(0) for c in coeffs], away_point, None),
    )
    for got, point, mode in cases:
        want = [_exact(r) for r in _per_part_oracle(ctx, point, encoded, mode)]
        assert got[2] == want[2] == 0
        for x, y in zip(got, want):
            assert abs(x - y) <= abs(y) * mpf(2) ** (8 - ctx.prec)
        assert all(abs(x) > mpf("1e-3") for i, x in enumerate(got) if i != 2)


def _row_model(ctx, xs8, name):
    if name == "van-diejen-n1":
        return vandiejen_model(ctx, xs8, Q, T, 1), 1
    if name == "van-diejen-n2":
        return vandiejen_model(ctx, xs8, Q, T, 2), 2
    return first_order_model(ctx, 2, 1, ETA, Q, T), 2


@pytest.mark.parametrize("name", ["van-diejen-n1", "van-diejen-n2", "first-order-n2-d1"])
def test_condition_rows_match_the_per_part_oracle(ctx, xs8, name, monkeypatch):
    # one sweep per sample point and shift gives the rows of one residue per
    # part and column, to 2^(8-prec) relative to each row's scale (the rows
    # come scaled by its power of two); every sampled row is kept
    model, n = _row_model(ctx, xs8, name)
    specs = [s for s in enumerate_conditions(model.degree, model.lam, model.params, n) if s.kind == "residue-pair"]
    rows = model.condition_rows(specs)
    monkeypatch.setattr(conditions, "_sweep", _per_part_oracle)
    want = model.condition_rows(specs)
    kept = {"van-diejen-n1": 24, "van-diejen-n2": 224, "first-order-n2-d1": 48}[name]
    assert len(rows) == len(want) == kept == 8 * len(specs)
    for row, ref in zip(rows, want):
        assert max(abs(x - y) for x, y in zip(row, ref)) <= mpf(2) ** (8 - ctx.prec)


def test_checker_records_match_the_per_part_oracle(ctx, xs8, monkeypatch):
    # check_residue gives the same records, pass or fail, with defects equal
    # to 2^(8-prec), on a solved van Diejen section and a first-order
    # operator in two variables; check_vanishing reads `eval`, not the
    # sweep, so its records only keep the two lists aligned
    _, (_, H) = vandiejen_sections(ctx, xs8, Q, T, 1)
    D = first_order([Q / 2 + mpc("0.1", "0.06"), Q / 2 - mpc("0.1", "0.06") + ETA], T, Q, 2)
    cases = (
        (H, enumerate_conditions((DegreeVector(), DegreeVector(0, 2, 2, (1,) * 8)), (F(1),), H.params, 1)),
        (D, enumerate_conditions((DegreeVector(), DegreeVector(0, 1, 0)), (F(1, 2), F(1, 2)), D.params, 2)),
    )
    env = {**H.params, "eta_prime": sum(xs8) / 2}

    def records():
        out = []
        for op, specs in cases:
            out += check_residue(ctx, op, specs, env, samples=1).records
            out += check_vanishing(ctx, op, specs, env, samples=1).records
        return out

    got = records()
    monkeypatch.setattr(conditions, "_sweep", _per_part_oracle)
    want = records()
    assert len(got) == len(want) > 0
    assert [(r.spec_id, r.passed) for r in got] == [(r.spec_id, r.passed) for r in want]
    assert all(abs(r.defect - s.defect) <= mpf(2) ** (8 - ctx.prec) for r, s in zip(got, want))


def test_condition_rows_reject_vanishing_specs(ctx):
    model = first_order_model(ctx, 1, 0, ETA, Q, T)
    tspec = ConditionSpec("t-vanish", (F(-1, 2),), AffineRoot((2,), 0))
    with pytest.raises(ValueError, match="residue-pair"):
        model.condition_rows([tspec])


def _rank_nine_rows():
    """A seeded 30 x 12 complex matrix of rank 9 with entries of order one."""
    rng = random.Random(41)

    def rand(r, c):
        return [[mpc(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(c)] for _ in range(r)]

    with mp.workprec(256 + 16):
        return (matrix(rand(30, 9)) * matrix(rand(9, 12))).tolist()


def _few_bit_pivot_rows():
    """A seeded 40 x 12 complex matrix of rank 9 whose pivots have few significant bits.

    Entry (0, 0) is about 1e-60 in a column of order one, and columns 3, 7
    and 11 are exact sums of two others, so after the columns before them
    are eliminated their rest is rounding noise.
    """
    rng = random.Random(43)
    free = [[mpc(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(40)] for _ in range(9)]
    free[0][0] = mpc(2.0**-200, -(2.0**-201))
    with mp.workprec(256 + 16):  # sums of doubles: exact
        cols = free[:3] + [[a + b for a, b in zip(free[0], free[1])]]
        cols += free[3:6] + [[a - b for a, b in zip(free[2], free[4])]]
        cols += free[6:9] + [[a + b for a, b in zip(free[5], free[8])]]
    return [list(row) for row in zip(*cols)]


def _reference_svd(rows, prec):
    """mp.svd_c of the whole matrix, 128 bits above `prec`: ncols values (zeros past min(m, n)) and V."""
    ncols = len(rows[0])
    with mp.workprec(prec + 128):
        _, S, V = mp.svd_c(matrix(rows), full_matrices=True)
    return list(S) + [mpf(0)] * (ncols - len(S)), V


def _assert_certificate_contract(rows, rank, prec=256):
    """The rank certificate against mp.svd_c of the whole matrix.

    The rank is mp.svd_c's count above the floor 2^-(prec//2), the certified
    bounds bracket mp.svd_c's sigma_r and sigma_(r+1), the nullspace
    projectors agree to 1e-70, and the nullspace basis is orthonormal to
    2^-prec.
    """
    ncols = len(rows[0])
    S_ref, V_ref = _reference_svd(rows, prec)
    cert = weyl.rank_certificate(rows, prec, want_null=True)
    null = cert.null
    assert cert.rank == rank == sum(1 for s in S_ref if s > mpf(2) ** -(prec // 2))
    assert numeric_rank(rows, prec=prec) == rank and nullspace_basis(rows, ncols, prec=prec) == null
    assert len(null) == ncols - rank
    with mp.workprec(prec + 128):
        assert cert.lower <= (S_ref[rank - 1] if rank else mp.inf)
        assert (S_ref[rank] if rank < ncols else 0) <= cert.upper
        want = [[mp.conj(V_ref[j, i]) for i in range(ncols)] for j in range(rank, ncols)]
        for a in range(ncols):
            for b in range(ncols):
                got = sum(v[a] * mp.conj(v[b]) for v in null)
                ref = sum(v[a] * mp.conj(v[b]) for v in want)
                assert abs(got - ref) < mpf("1e-70")
        for i, u in enumerate(null):
            for j, v in enumerate(null):
                assert abs(sum(x * mp.conj(y) for x, y in zip(u, v)) - (i == j)) <= mpf(2) ** -prec, (i, j)


def _unitary(rng, n):
    """A seeded n x n unitary: the Q of a complex Gaussian matrix."""
    with mp.workprec(256 + 16):
        Q_, _ = mp.qr(matrix([[mpc(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)] for _ in range(n)]))
    return Q_


def _with_singular_values(rng, m, svals):
    """A seeded m x len(svals) matrix U diag(svals) V^H with U, V from `_unitary`."""
    n = len(svals)
    U, V = _unitary(rng, m), _unitary(rng, n)
    with mp.workprec(256 + 16):
        return [[sum(U[i, k] * svals[k] * mp.conj(V[j, k]) for k in range(n)) for j in range(n)] for i in range(m)]


def _gauss_rows(rng, r, c, scale=1):
    return [[mpc(rng.gauss(0, 1), rng.gauss(0, 1)) * scale for _ in range(c)] for _ in range(r)]


def _low_rank_rows(rng, r, c, rank):
    with mp.workprec(256 + 16):
        return (matrix(_gauss_rows(rng, r, rank)) * matrix(_gauss_rows(rng, rank, c))).tolist()


SVD_INPUTS = {
    # name: (rows from a seeded generator, rank)
    "wide-8x11": (lambda rng: _gauss_rows(rng, 8, 11), 8),
    "square-rank-7": (lambda rng: _low_rank_rows(rng, 10, 10, 7), 7),
    "tall-rank-9": (lambda rng: _rank_nine_rows(), 9),
    # the scale of the rows of a level-0 spec, such as all of a first-order
    # model's, which invariant columns meet identically: rounding noise
    "noise-1e-81": (lambda rng: _gauss_rows(rng, 20, 6, mpf("1e-81")), 0),
    "zero": (lambda rng: [[mpc(0)] * 5 for _ in range(9)], 0),
    "threefold-value": (lambda rng: _with_singular_values(rng, 14, [2, 1, 1, 1, mpf("0.5"), 0, 0, 0]), 5),
}


@pytest.mark.parametrize("name", sorted(SVD_INPUTS))
def test_svd_contract_on_more_shapes(name):
    make, rank = SVD_INPUTS[name]
    _assert_certificate_contract(make(random.Random(47)), rank)


def test_rank_certificate_on_few_bit_pivots():
    _assert_certificate_contract(_few_bit_pivot_rows(), 9)


def test_rank_and_nullspace_dimension_add_up():
    rows = _rank_nine_rows()
    assert numeric_rank(rows, prec=256) + len(nullspace_basis(rows, 12, prec=256)) == 12


def test_rank_cut_without_a_gap_raises():
    # the floor at 256 bits is 2^-128 ~ 2.9e-39; 1e-37 and 1e-40 straddle it
    # only 1e3 apart, short of RANK_GAP
    diag = [mpc(1), mpc("1e-37"), mpc("1e-40")]
    rows = [[d if i == j else mpc(0) for j in range(3)] for i, d in enumerate(diag)]
    with pytest.raises(ArithmeticError, match="ambiguous"):
        numeric_rank(rows, prec=256)
    with pytest.raises(ArithmeticError, match="ambiguous"):
        nullspace_basis(rows, 3, prec=256)


def _kahan_rows(n, c, prec):
    """Kahan's upper-triangular matrix, rows scaled by s^i (s^2 + c^2 = 1), its column j scaled by (1 - 1e-6)^j.

    The column scaling keeps a diagonally pivoted Cholesky of A^H A in the
    natural order, where its last pivot, s^(n-1) squared, hides a far
    smaller sigma_n (Kahan, 1966; Higham, Accuracy and Stability of
    Numerical Algorithms, section 20.1).
    """
    with mp.workprec(prec + 64):
        c = mpf(c)
        s = mp.sqrt(1 - c * c)
        return [[mpc(0) if j < i else s**i * (1 if i == j else -c) * (1 - mpf("1e-6")) ** j for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("prec", [64, 96])
def test_rank_certificate_on_a_kahan_matrix(prec):
    # sigma_30 = 2.6e-14 and sigma_29 = 8.2e-7, while every pivot stays at or
    # above (3.7e-7)^2: at 64 bits the floor 2.3e-10 falls between the two
    # values, every pivot passes it, and only the certified lower bound shows
    # that sigma_30 does not; at 96 bits (floor 3.6e-15) the rank is full
    rows = _kahan_rows(30, "0.8", prec)
    S_ref, _ = _reference_svd(rows, prec)
    rank = sum(1 for s in S_ref if s > mpf(2) ** -(prec // 2))
    try:
        cert = weyl.rank_certificate(rows, prec)
    except ArithmeticError as exc:
        assert prec == 64 and rank == 29 and "ambiguous" in str(exc)
    else:
        assert prec == 96 and cert.rank == rank == 30
        assert cert.lower <= S_ref[29]


def _pair_specs(model):
    return [s for s in enumerate_conditions(model.degree, model.lam, model.params, model.n) if s.kind == "residue-pair"]


def _certified_solves(model, seed):
    """(rank certificate, nullity) of a model's residue-pair rows: all specs, then the solver's orbit representatives.

    No rows (a first-order model has no representatives) give the
    certificate None and the column count as nullity.
    """
    specs = _pair_specs(model)
    out = []
    for chosen in (specs, orbit_representatives(specs, model.n)):
        rows = model.condition_rows(chosen, seed=seed)
        cert = weyl.rank_certificate(rows, model.ctx.prec) if rows else None
        out.append((cert, len(model.basis_ops) - (cert.rank if cert else 0)))
    return out


def test_solved_dimensions_hold_across_seeds_and_moduli(xs8):
    # every dimension is the expected one at 5 seeds and 2 moduli, on the
    # rows of all specs and on the solver's rows of orbit representatives,
    # and at nonzero rank the certified bounds stand at least 60 decades
    # apart; a first-order model's specs are all of level 0, so its rows of
    # all specs are rounding noise of rank 0 and the solver builds none
    for tau in (mpc("0.13", "1.09"), mpc("-0.21", "1.13")):
        ctx = CurveContext(tau, 256)
        for seed in (1, 2, 3, 4, 5):
            for model, dim in (
                (first_order_model(ctx, 1, 1, ETA, Q, T, seed=seed), 4),
                (first_order_model(ctx, 2, 1, ETA, Q, T, seed=seed), 10),
                (vandiejen_model(ctx, xs8, Q, T, 1, seed=seed), 2),
            ):
                (cert, nullity), (rep_cert, rep_nullity) = _certified_solves(model, seed)
                assert nullity == rep_nullity == dim, (tau, seed, model.n, dim)
                assert cert.rank == 0 or cert.lower >= mpf("1e60") * cert.upper, (tau, seed, model.n, dim)
                if rep_cert is None:
                    assert cert.rank == 0, (tau, seed, model.n, dim)
                else:
                    assert rep_cert.lower >= mpf("1e60") * rep_cert.upper, (tau, seed, model.n, dim)


def test_vandiejen_n2_certified_gap(ctx, xs8):
    # three sections of the n=2 van Diejen degree, the rank cut certified
    # with a gap of about 1e78, on the rows of all 28 specs and on the
    # solver's rows of their 6 orbit representatives
    for cert, nullity in _certified_solves(vandiejen_model(ctx, xs8, Q, T, 2), 37):
        assert nullity == 3
        assert cert.lower >= mpf("1e60") * cert.upper


def _projector(null):
    return matrix([[sum(v[a] * mp.conj(v[b]) for v in null) for b in range(len(null[0]))] for a in range(len(null[0]))])


@pytest.mark.parametrize("n", [1, 2])
def test_orbit_representatives_give_the_all_spec_nullspace(xs8, n):
    # at two moduli the solver's nullspace, from the rows of the orbit
    # representatives (2 of 3 specs at n=1, 6 of 28 at n=2), has the
    # projector of the nullspace of all specs' rows to 1e-70, and its rank
    # cut is certified with a gap of at least 1e60
    for tau in (mpc("0.13", "1.09"), mpc("-0.21", "1.13")):
        model = vandiejen_model(CurveContext(tau, 256), xs8, Q, T, n)
        specs = _pair_specs(model)
        reps = orbit_representatives(specs, n)
        assert len(reps) == {1: 2, 2: 6}[n] and all(s.root.level for s in reps)
        full = weyl.rank_certificate(model.condition_rows(specs, seed=37), 256, want_null=True)
        cert = weyl.rank_certificate(model.condition_rows(reps, seed=37), 256, want_null=True)
        assert cert.null == model.nullspace(seed=37)
        assert len(cert.null) == len(full.null) == n + 1
        assert cert.lower >= mpf("1e60") * cert.upper
        with mp.workprec(256):
            assert mp.mnorm(_projector(cert.null) - _projector(full.null), 1) < mpf("1e-70"), tau


@pytest.mark.parametrize("family,n,dprime", [
    ("van-diejen", 1, None), ("van-diejen", 2, None),
    *(("first-order", n, dprime) for n in (1, 2) for dprime in (0, 1, 2)),
])
def test_level_zero_conditions_hold_identically(ctx, xs8, family, n, dprime):
    # a level-0 spec pairs k with s_beta k on a divisor s_beta fixes, so the
    # invariant columns meet it identically: its 8 rows are all kept and
    # their certified rank is 0 (the solver drops these specs)
    if family == "van-diejen":
        model = vandiejen_model(ctx, xs8, Q, T, n)
    else:
        model = first_order_model(ctx, n, dprime, ETA, Q, T)
    level0 = [s for s in _pair_specs(model) if s.root.level == 0]
    assert level0 and orbit_representatives(level0, n) == []
    rows = model.condition_rows(level0)
    assert len(rows) == 8 * len(level0)
    assert weyl.rank_certificate(rows, ctx.prec).rank == 0


def _invariance_defect(ctx, model, points):
    """The largest |c_(w k)(w z) - c_k(z)| / |c_k(z)| over the columns, their shifts k, the signed permutations w and the points."""
    worst = mpf(0)
    group = weyl.signed_permutations(model.n)
    for _, op in model.basis_ops:
        for k in op.support():
            for z in points:
                ref = op.eval_coeff(ctx, k, z)
                for w in group:
                    got = op.eval_coeff(ctx, weyl.act(w, k), weyl.act(w, z))
                    worst = max(worst, abs(got - ref) / abs(ref))
    return worst


@pytest.mark.parametrize("family,n", [("van-diejen", 1), ("van-diejen", 2), ("first-order", 1), ("first-order", 2)])
def test_columns_are_weyl_invariant(ctx, xs8, family, n):
    # the orbit argument of `orbit_representatives` needs W-invariant
    # columns: c_(w k)(w z) = c_k(z) to rounding at two seeded points; a
    # copy with one non-corner coefficient of one column scaled by 1 + 1e-6
    # must fail the same test
    if family == "van-diejen":
        model = vandiejen_model(ctx, xs8, Q, T, n)
    else:
        model = first_order_model(ctx, n, 1, ETA, Q, T)
    points = sample_points(n, seed=53)
    assert _invariance_defect(ctx, model, points) <= mpf(2) ** (16 - ctx.prec)
    i = next(i for i, (_, op) in enumerate(model.basis_ops) if len(op.coeffs) > 1)
    mu, op = model.basis_ops[i]
    corner = tuple(-x for x in mu)
    k = next(k for k in op.support() if k != corner)
    coeffs = dict(op.coeffs)
    coeffs[k] = coeffs[k].scaled(1 + mpf("1e-6"))
    model.basis_ops[i] = (mu, DifferenceOperator(n, coeffs, op.params, op.degree))
    assert _invariance_defect(ctx, model, points) > mpf("1e-7")


def test_vandiejen_model_at_n3_follows_the_ansatz_rule(ctx, xs8):
    # the weight (1^m, 0^(3-m)) has Sym^(3-m) of an even basis of 2(3-m)+3
    # functions, 1/5/28/165 columns, and every part at its corner starts
    # with the factors of the leading expression of m
    model = vandiejen_model(ctx, xs8, Q, T, 3)
    for m, count in zip((3, 2, 1, 0), (1, 5, 28, 165)):
        mu = (F(1),) * m + (F(0),) * (3 - m)
        ops = [op for nu, op in model.basis_ops if nu == mu]
        assert len(ops) == count
        lead = van_diejen_leading_expr(m, 3).factors
        for op in ops:
            parts = op.coefficient(tuple(-x for x in mu)).parts
            assert parts and all(expr.factors[:len(lead)] == lead for _, expr, _ in parts)
    assert len(model.basis_ops) == 199


@pytest.mark.parametrize("dprime", [0, 1, 2])
def test_first_order_model_at_n3_is_a_symmetric_cube(ctx, dprime):
    # K = 2d'+2 univariate functions in three coordinates: C(K+2, 3) columns
    K = 2 * dprime + 2
    model = first_order_model(ctx, 3, dprime, ETA, Q, T)
    assert len(model.basis_ops) == (K + 2) * (K + 1) * K // 6


def test_nullspace_refuses_n3_before_building_rows(ctx, xs8, monkeypatch):
    # solving is established for n <= 2 only; the n = 3 model still gives rows
    model = first_order_model(ctx, 3, 0, ETA, Q, T)
    specs = [s for s in enumerate_conditions(model.degree, model.lam, model.params, 3) if s.kind == "residue-pair"]
    rows = model.condition_rows(specs[:1])
    assert len(rows) == 8 and all(len(row) == 4 for row in rows)

    def no_rows(*args, **kwargs):
        raise AssertionError("rows built")

    monkeypatch.setattr(model, "condition_rows", no_rows)
    with pytest.raises(NotImplementedError, match="n <= 2"):
        model.nullspace(seed=29)
