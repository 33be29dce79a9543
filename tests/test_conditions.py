import random
from fractions import Fraction as F

import pytest

import ccnops.conditions as conditions
from mpmath import matrix, mp, mpc, mpf

from ccnops.conditions import (
    ConditionSpec,
    _beta_form,
    _Factors,
    _residue_samples,
    _vanishing_samples,
    check_polarization,
    check_residue,
    check_vanishing,
    enumerate_conditions,
    first_order_model,
    nullspace_basis,
    operator_span_contains,
    reflect_shift,
    section_solve,
    section_solve_first_order,
    vandiejen_nullspace,
    vandiejen_sections,
)
from ccnops.curve import PoleProximityError, point_key
from ccnops.diffop import DegreeVector, DifferenceOperator, ExprCoefficient, bindings_for
from ccnops.families import first_order, van_diejen_leading_expr
from ccnops.symbols import AffineForm, PolarizationRecord, ThetaExpr, zvar
from conftest import ETA, Q, T, TOL, op_defect, rel, sample_points


def test_reflect_shift_conventions():
    assert reflect_shift(("sum", 0, 1), 1, (F(0), F(0))) == (F(1), F(1))
    assert reflect_shift(("double", 0), -1, (F(-1), F(0))) == (F(0), F(0))
    assert reflect_shift(("diff", 0, 1), 0, (F(-1), F(1))) == (F(1), F(-1))


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
    assert s.beta == ("double", 0) and s.level == 0
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


def test_check_vanishing_detects_generic_failure(ctx, xs8):
    # a generic first-order operator does not vanish at the blowup points
    D = first_order([Q / 2 + mpc("0.1", "0.06"), Q / 2 - mpc("0.1", "0.06") + ETA], T, Q, 1)
    degree = (DegreeVector(), DegreeVector(0, 1, 0, (1,)))
    specs = [
        ConditionSpec(
            "x-vanish",
            "even",
            (),
            0,
            (F(-1, 2),),
            (),
            0,
            0,
            __import__("ccnops.symbols", fromlist=["AffineForm"]).AffineForm.var("x1")
            + __import__("ccnops.symbols", fromlist=["AffineForm"]).AffineForm.var("q") * F(1, 2),
        )
    ]
    env = {"q": Q, "t": T, "eta_prime": ETA, "x1": xs8[0]}
    rep = check_vanishing(ctx, D, specs, env, samples=1)
    assert not rep.passed


def test_check_vanishing_vandiejen_corner(ctx, xs8):
    H = None
    from ccnops.conditions import section_solve_vandiejen

    H = section_solve_vandiejen(ctx, xs8, Q, T, 1, 1)
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
    xs_bad = list(xs8)
    xs_bad[0] = xs8[0] + mpf("1e-3")
    _, null_bad = vandiejen_nullspace(ctx, xs_bad, Q, T, 1, eta_prime=sum(xs8) / 2)
    assert len(null_bad) == 1


def test_vandiejen_section_failure_raises(ctx, xs8):
    xs_bad = list(xs8)
    xs_bad[0] = xs8[0] + mpf("1e-3")
    with pytest.raises(ArithmeticError):
        vandiejen_sections(ctx, xs_bad, Q, T, 1, eta_prime=sum(xs8) / 2)


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


BETAS = (("double", 0), ("sum", 0, 1), ("diff", 0, 1))


def _beta_value(beta, z):
    return sum(mpc(c.numerator) / c.denominator * w for c, w in zip(_beta_form(beta, 2), z))


@pytest.mark.parametrize("beta", BETAS, ids=[b[0] for b in BETAS])
def test_shared_sampler_on_divisor_and_off_poles(ctx, beta):
    m = 1
    spec = ConditionSpec("residue-pair", "even", beta, m, (F(1, 2), F(1, 2)), (), 1)
    env = {"q": Q, "t": T, "eta_prime": ETA}
    params = {"q": Q, "a": mpc("0.1", "0.05"), "b": mpc("-0.2", "0.1")}
    zf = [AffineForm.var("z1"), AffineForm.var("z2")]
    # the divisor's own form is parallel and must not be avoided
    parallel = sum((f * c for f, c in zip(zf, _beta_form(beta, 2))), AffineForm.var("q") * m)
    others = [zf[0] - zf[1] + AffineForm.var("a"), zf[1] * 2 + AffineForm.var("b"), zf[0] + zf[1]]
    table = _Factors()
    table.add(ExprCoefficient(ThetaExpr(tuple((f, -1) for f in others + [parallel]), 2), params))
    offsets = {"0": mpc(0), "1": mpc(1), "tau": ctx.tau, "1+tau": 1 + ctx.tau}
    eps = mpf(2) ** -(ctx.prec - 8)
    for comp, lam in offsets.items():
        rng = random.Random(7)
        samples = list(_residue_samples(ctx, rng, spec, 2, env, (comp,), 2, 2, table))
        assert [(c, s) for c, s, _, _ in samples] == [(comp, 0), (comp, 1)]
        for _, _, point, brackets in samples:
            z = point.z
            assert len(brackets) == 2
            assert abs(_beta_value(beta, z) + m * Q - lam) < eps
            for f in others:
                assert ctx.dist_to_lattice(f.eval(bindings_for(params, z))) >= mpf("5e-3")
    # a pole that no point of the divisor avoids
    stuck = _Factors()
    stuck.add(ExprCoefficient(ThetaExpr(((AffineForm.var("p"), -1),), 2), {"p": 1 + ctx.tau}))
    with pytest.raises(PoleProximityError):
        next(_residue_samples(ctx, random.Random(7), spec, 2, env, ("0",), 1, 1, stuck))
    # the t-vanishing sampler puts its points on beta(z) = t + m q
    tspec = ConditionSpec("t-vanish", "even", beta, m, (F(-1), F(0)))
    for _, z, zref in _vanishing_samples(random.Random(7), tspec, 2, env, 2):
        assert abs(_beta_value(beta, z) - T - m * Q) < eps
        assert all(0 < (r - w).real < 0.15 and 0 < (r - w).imag < 0.1 for r, w in zip(zref, z))


def test_vandiejen_corner_matches_leading_expr(ctx, xs8):
    # the m = n = 1 section, normalized to corner coefficient 1, carries the
    # closed-form leading coefficient at the corner shift k = (-1,)
    model, sections = vandiejen_sections(ctx, xs8, Q, T, 1)
    corner = sections[1].coefficient((F(-1),))
    expr = van_diejen_leading_expr(1, 1)
    for z in sample_points(1, 2, seed=307):
        assert rel(corner.eval(ctx, z), expr.eval(ctx, bindings_for(model.params, z))) < TOL


SUM_SPEC = ConditionSpec("residue-pair", "even", ("sum", 0, 1), 0, (F(1, 2), F(1, 2)), (F(-1, 2), F(-1, 2)), 1)


def _one_coefficient_operator(factors):
    params = {"q": Q, "t": T}
    return DifferenceOperator(2, {SUM_SPEC.k: ExprCoefficient(ThetaExpr(factors, 2), params)}, params)


def test_check_residue_rejects_opaque_coefficients(ctx):
    D = first_order([], T, Q, 1)
    spec = ConditionSpec("residue-pair", "even", ("double", 0), 0, (F(-1),), (F(1),), 2)
    with pytest.raises(ValueError, match="structured coefficients"):
        check_residue(ctx, D.compose(D), [spec], {"q": Q, "t": T, "eta_prime": ETA}, samples=1)


def test_check_residue_rejects_a_double_pole(ctx):
    op = _one_coefficient_operator(((zvar(1) + zvar(2), -2),))
    with pytest.raises(PoleProximityError, match="higher-order pole"):
        check_residue(ctx, op, [SUM_SPEC], {"q": Q, "t": T, "eta_prime": ETA}, samples=1)


def test_check_residue_rejects_two_vanishing_factors(ctx):
    op = _one_coefficient_operator(((zvar(1) + zvar(2), -1), (zvar(1) + zvar(2) + 1, -1)))
    with pytest.raises(PoleProximityError, match="two denominator factors"):
        check_residue(ctx, op, [SUM_SPEC], {"q": Q, "t": T, "eta_prime": ETA}, samples=1)


def test_factor_table_shares_arguments_and_poles():
    a = mpc("0.1", "0.05")
    expr = ThetaExpr(((AffineForm.var("a") - zvar(1), -1), (zvar(1), 1)), 1)
    table = _Factors()
    # parts are (scale, ((argument, exponent), ...)) in factor order
    assert table.add(ExprCoefficient(expr, {"q": Q, "a": a})) == ((1, ((0, -1), (1, 1))),)
    # no factor reads q, so a different q shares every argument
    assert table.add(ExprCoefficient(expr, {"q": T, "a": a})) == ((1, ((0, -1), (1, 1))),)
    assert (len(table.args), len(table.poles)) == (2, 1)
    # a different value of a is a second argument and a second pole
    assert table.add(ExprCoefficient(expr, {"a": a + 1})) == ((1, ((2, -1), (1, 1))),)
    assert (len(table.args), len(table.poles)) == (3, 2)
    # the same form stored in another order is its own argument but the same pole
    table.add(ExprCoefficient(ThetaExpr(((AffineForm({"z1": -1, "a": 1}), -1),), 1), {"a": a}))
    assert (len(table.args), len(table.poles)) == (4, 2)
    assert table.add(None) == ()


def test_condition_rows_reject_vanishing_specs(ctx):
    model = first_order_model(ctx, 1, 0, ETA, Q, T)
    tspec = ConditionSpec("t-vanish", "even", ("double", 0), 0, (F(-1, 2),))
    with pytest.raises(ValueError, match="residue-pair"):
        model.condition_rows([tspec])


def test_nullspace_svd_equals_svd_c(monkeypatch):
    # nullspace_basis skips U; its S and V must be mp.svd_c's, bit for bit
    rng = random.Random(41)

    def rand(r, c):
        return [[mpc(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(c)] for _ in range(r)]

    with mp.workprec(256 + 16):
        rows = (matrix(rand(30, 9)) * matrix(rand(9, 12))).tolist()
        _, S_ref, V_ref = mp.svd_c(matrix(rows))
    seen = []
    raw = conditions.svd_c_raw

    def spy(ctx, A, V, calc_u):
        S = raw(ctx, A, V, calc_u=calc_u)
        seen.append((S, V, calc_u))
        return S

    monkeypatch.setattr(conditions, "svd_c_raw", spy)
    null = nullspace_basis(rows, 12, prec=256)
    ((S, V, calc_u),) = seen
    assert not calc_u
    assert [point_key(x) for x in S] == [point_key(x) for x in S_ref]
    assert [point_key(x) for x in V] == [point_key(x) for x in V_ref]
    assert len(null) == 3
    with mp.workprec(256 + 16):
        want = [[mp.conj(V_ref[j, i]) for i in range(12)] for j in range(9, 12)]
    assert [[point_key(x) for x in v] for v in null] == [[point_key(x) for x in v] for v in want]
