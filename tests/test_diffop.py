import json
import random
from fractions import Fraction as F

import pytest
from mpmath import mp, mpc, mpf

from ccnops.conditions import section_solve_first_order
from ccnops.curve import CurveContext, point_key
from ccnops.diffop import (
    CompositeCoefficient,
    DifferenceOperator,
    ExprCoefficient,
    FnCoefficient,
    SelbergDensity,
    bindings_for,
    identity_operator,
    monomial_operator,
    multiplication_operator,
    shift_point,
)
from ccnops.families import first_order, theta_pm_multiplier
from ccnops.formal import gauged_from_operator
from ccnops.symbols import AffineForm, GammaProduct, ThetaExpr, zvar
from conftest import ETA, Q, TAU, T, TOL, op_defect, rel, sample_points

PARAMS = {"q": Q, "t": T}
US = [mpc("0.12", "0.05"), mpc("-0.07", "0.11")]


def test_apply_identity(ctx):
    D = identity_operator(2, PARAMS)
    f = lambda z: z[0] * z[0] + 3 * z[1]
    z = sample_points(2, 1)[0]
    assert rel(D.apply(ctx, f, z), f(z)) < TOL


def test_apply_shift_convention(ctx):
    # T_1 pulls back through z_1 -> z_1 + q
    D = monomial_operator(2, (1, 0), ThetaExpr.one(2), PARAMS)
    f = lambda z: ctx.theta(z[0] + 2 * z[1])
    z = sample_points(2, 1)[0]
    assert rel(D.apply(ctx, f, z), f((z[0] + Q, z[1]))) < TOL


def test_apply_monomial(ctx):
    c = ThetaExpr(((zvar(1) + zvar(2), 1),), arity=2)
    D = monomial_operator(2, (F(1), F(-1)), c, PARAMS)
    f = lambda z: ctx.theta(z[0]) * ctx.theta(z[1] + F(1, 3))
    z = sample_points(2, 1)[0]
    want = ctx.theta(z[0] + z[1]) * f((z[0] + Q, z[1] - Q))
    assert rel(D.apply(ctx, f, z), want) < TOL


def test_compose_identity(ctx):
    B = first_order([mpc("0.1", "0.05"), mpc("0.2", "-0.1")], T, Q, 2)
    C = identity_operator(2, PARAMS).compose(B)
    assert op_defect(ctx, B, C, sample_points(2, 2)) < TOL


def test_compose_commutation_rule(ctx):
    # g(z) T^k vs T^k g(z): coefficients g(z) vs g(z + q k)
    g = ThetaExpr(((zvar(1) * 2 + zvar(2), 1),), arity=2)
    mult = multiplication_operator(2, g, PARAMS)
    shift = monomial_operator(2, (F(1), F(2)), ThetaExpr.one(2), PARAMS)
    left = mult.compose(shift)
    right = shift.compose(mult)
    z = sample_points(2, 1)[0]
    k = (F(1), F(2))
    bind = {"q": Q, "t": T, "z1": z[0], "z2": z[1]}
    assert rel(left.eval_coeff(ctx, k, z), g.eval(ctx, bind)) < TOL
    bind2 = {"q": Q, "t": T, "z1": z[0] + Q, "z2": z[1] + 2 * Q}
    assert rel(right.eval_coeff(ctx, k, z), g.eval(ctx, bind2)) < TOL


def test_compose_apply_consistency(ctx):
    A = first_order([mpc("0.1", "0.05"), mpc("0.2", "-0.1")], T, Q, 2)
    B = first_order([mpc("-0.15", "0.12"), mpc("0.07", "0.21")], T, Q, 2)
    f = lambda z: ctx.theta(z[0] + mpc("0.3", "0.1")) * ctx.theta(z[1] - mpc("0.2", "0.05"))
    for z in sample_points(2, 2):
        a = A.compose(B).apply(ctx, f, z)
        b = A.apply(ctx, lambda w: B.apply(ctx, f, w), z)
        assert rel(a, b) < TOL


def test_compose_associative(ctx):
    ops = [
        first_order([mpc("0.1", "0.05"), mpc("0.2", "-0.1")], T, Q, 2),
        first_order([mpc("-0.15", "0.12"), mpc("0.07", "0.21")], T, Q, 2),
        theta_pm_multiplier(mpc("0.23", "-0.11"), 2, PARAMS),
    ]
    lhs = ops[0].compose(ops[1]).compose(ops[2])
    rhs = ops[0].compose(ops[1].compose(ops[2]))
    assert op_defect(ctx, lhs, rhs, sample_points(2, 2)) < TOL


def test_group_act_identity(ctx):
    D = first_order([mpc("0.1", "0.05"), mpc("0.2", "-0.1")], T, Q, 2)
    w = ((0, 1), (1, 1))
    assert op_defect(ctx, D, D.group_act(w), sample_points(2, 1)) < TOL


def test_group_action_composition(ctx):
    from ccnops.weyl import signed_permutations, sp_compose

    rng = random.Random(13)
    els = signed_permutations(2)
    D = first_order([mpc("0.1", "0.05"), mpc("0.2", "-0.1")], T, Q, 2)
    pts = sample_points(2, 1)
    for _ in range(6):
        w1, w2 = rng.choice(els), rng.choice(els)
        lhs = D.group_act(w2).group_act(w1)
        rhs = D.group_act(sp_compose(w1, w2))
        assert op_defect(ctx, lhs, rhs, pts) < TOL


def test_is_invariant(ctx):
    D = first_order([mpc("0.1", "0.05"), mpc("0.2", "-0.1")], T, Q, 2)
    assert D.is_invariant(ctx, sample_points(2, 2)) < TOL
    single = monomial_operator(2, (F(1), F(0)), ThetaExpr(((zvar(1), 1),), arity=2), PARAMS)
    assert single.is_invariant(ctx, sample_points(2, 1), tol=TOL) is False


def test_leading_terms(ctx):
    D = first_order([mpc("0.1", "0.05"), mpc("0.2", "-0.1")], T, Q, 2)
    terms = D.leading_terms()
    assert [mu for mu, _ in terms] == [(F(1, 2), F(1, 2))]
    # 1 + orbit of (1,1): single maximum (1,1)
    coeffs = {(F(0), F(0)): ExprCoefficient(ThetaExpr.one(2), PARAMS)}
    for k in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        coeffs[tuple(F(x) for x in k)] = ExprCoefficient(ThetaExpr.one(2), PARAMS)
    D2 = DifferenceOperator(2, coeffs, PARAMS)
    assert [mu for mu, _ in D2.leading_terms()] == [(F(1), F(1))]
    # dominance-incomparable supports are both returned
    coeffs = {}
    for mu in ((3, 0), (2, 2)):
        from ccnops.weyl import weight_orbit

        for k in weight_orbit(mu):
            coeffs[k] = ExprCoefficient(ThetaExpr.one(2), PARAMS)
    D3 = DifferenceOperator(2, coeffs, PARAMS)
    assert sorted(mu for mu, _ in D3.leading_terms()) == [(F(2), F(2)), (F(3), F(0))]
    with pytest.raises(ValueError):
        DifferenceOperator(2, {}, PARAMS).leading_terms()


def test_gauge_trivial(ctx):
    D = first_order([mpc("0.1", "0.05"), mpc("0.2", "-0.1")], T, Q, 2)
    G = GammaProduct.one()
    assert op_defect(ctx, D, D.gauge_conjugate(G, G), sample_points(2, 1)) < TOL


def test_gauge_resolves_to_pochhammer(ctx):
    # Gamma(x +- z_i) on a single shift: ratio is a theta factorial
    params = dict(PARAMS)
    params["x"] = mpc("0.31", "0.21")
    xf = AffineForm.var("x")
    terms = []
    for i in (1, 2):
        terms.append((xf + zvar(i), 1))
        terms.append((xf - zvar(i), 1))
    G = GammaProduct(terms=tuple(terms))
    D = monomial_operator(2, (F(1), F(0)), ThetaExpr.one(2), params)
    Dg = D.gauge_conjugate(G, G)
    z = sample_points(2, 1)[0]
    x = params["x"]
    # ratio = G(z)/G(z + q e_1) = 1/[theta(x+z_1) theta(-(x - z_1) - q)- style]
    want = 1 / (ctx.theta(x + z[0]) * ctx.theta(x - z[0] - Q) * (-1))
    got = Dg.eval_coeff(ctx, (F(1), F(0)), z)
    # direct check through the functional equation instead of sign juggling:
    want = (1 / ctx.theta(x + z[0])) * ctx.theta(x - z[0] - Q)
    assert rel(got, want) < TOL


def test_gauge_unbalanced_raises(ctx):
    params = dict(PARAMS)
    params["x"] = mpc("0.31", "0.21")
    G = GammaProduct(terms=((AffineForm.var("x") + zvar(1), 1),))
    D = monomial_operator(2, (F(1, 2), F(1, 2)), ThetaExpr.one(2), params)
    with pytest.raises(ValueError):
        D.gauge_conjugate(G, G)


def test_gauge_t_reflection(ctx):
    # conjugation by Gamma(t +- z_i +- z_j) swaps t and q - t up to a constant
    D = first_order([mpc("0.1", "0.05"), mpc("0.2", "-0.1")], T, Q, 2)
    tf = AffineForm.var("t")
    terms = []
    for si in (1, -1):
        for sj in (1, -1):
            terms.append((tf + zvar(1) * si + zvar(2) * sj, 1))
    G = GammaProduct(terms=tuple(terms))
    Dg = D.gauge_conjugate(G, G)
    Dswap = first_order([mpc("0.1", "0.05"), mpc("0.2", "-0.1")], Q - T, Q, 2)
    ratios = []
    for z in sample_points(2, 2):
        for k in D.support():
            ratios.append(Dg.eval_coeff(ctx, k, z) / Dswap.eval_coeff(ctx, k, z))
    assert max(abs(r - ratios[0]) for r in ratios) < mpf("1e-60")
    assert rel(ratios[0], mpc(-1)) < TOL  # (-1)^{n(n-1)/2} at n = 2


def test_adjoint_identity_is_identity(ctx):
    D = identity_operator(2, PARAMS)
    Dad = D.selberg_adjoint(SelbergDensity(2))
    assert op_defect(ctx, D, Dad, sample_points(2, 1)) < TOL


def test_adjoint_parameter_swap(ctx):
    u0, u1 = mpc("0.11", "0.07"), mpc("-0.13", "0.21")
    D = first_order([u0, u1], T, Q, 2)
    target = first_order([Q / 2 - u0, Q / 2 - u1], T, Q, 2)
    assert op_defect(ctx, D.selberg_adjoint(SelbergDensity(2)), target, sample_points(2, 2)) < TOL


def test_adjoint_involution_antihom(ctx):
    dens = SelbergDensity(2)
    rng = random.Random(14)
    pts = sample_points(2, 1)
    for trial in range(3):
        A = first_order([mpc(rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2)) for _ in range(2)], T, Q, 2)
        B = first_order([mpc(rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2)) for _ in range(2)], T, Q, 2)
        assert op_defect(ctx, A.selberg_adjoint(dens).selberg_adjoint(dens), A, pts) < TOL
        lhs = A.compose(B).selberg_adjoint(dens)
        rhs = B.selberg_adjoint(dens).compose(A.selberg_adjoint(dens))
        assert op_defect(ctx, lhs, rhs, pts) < TOL


def test_serialization_roundtrip(ctx):
    D = first_order([mpc("0.1", "0.05"), mpc("0.2", "-0.1")], T, Q, 2)
    text = D.to_text()
    D2 = DifferenceOperator.from_text(text)
    assert D2.support() == D.support()
    # exact round trip: coefficients agree to working precision
    z = sample_points(2, 1)[0]
    for k in D.support():
        assert rel(D.eval_coeff(ctx, k, z), D2.eval_coeff(ctx, k, z)) == 0
    # the 320-bit parameters survive a round trip made under a 53-bit global precision
    with mp.workprec(53):
        D3 = DifferenceOperator.from_text(D.to_text())
    assert {s: v._mpc_ for s, v in D3.params.items()} == {s: v._mpc_ for s, v in D.params.items()}


def test_serialization_roundtrip_solved_operator(ctx):
    # a dense combination of the solved nullspace sums scaled basis columns,
    # so its coefficients have several parts
    model, null, _ = section_solve_first_order(ctx, 1, 1, ETA, Q, T)
    D = model.operator_from_vector([sum(v[i] for v in null) for i in range(len(null[0]))])
    assert any(len(D.coefficient(k).parts) > 1 for k in D.support())
    text = D.to_text()
    D2 = DifferenceOperator.from_text(text)
    assert D2.to_text() == text
    z = sample_points(1, 1)[0]
    for k in D.support():
        assert D2.eval_coeff(ctx, k, z)._mpc_ == D.eval_coeff(ctx, k, z)._mpc_


@pytest.mark.parametrize(
    "field, value", [("pref_const", {"frac": "2/1"}), ("pref_exp", [[[["q", 1]], "1/2"]])]
)
def test_serialization_rejects_a_prefactor(field, value):
    doc = json.loads(first_order(US, T, Q, 1).to_text())
    doc["terms"][0]["parts"][0]["expr"][field] = value
    with pytest.raises(ValueError):
        DifferenceOperator.from_text(json.dumps(doc))


def test_parity_enforced():
    with pytest.raises(ValueError):
        DifferenceOperator(
            2,
            {
                (F(1, 2), F(1, 2)): ExprCoefficient(ThetaExpr.one(2), PARAMS),
                (F(1), F(0)): ExprCoefficient(ThetaExpr.one(2), PARAMS),
            },
            PARAMS,
        )


def _memoized_evaluators(z):
    """One structured, one composite and one formal-tail coefficient and one Tail entry of new operators, as f(ctx)."""
    D = first_order(US, T, Q, 1)
    k = D.support()[-1]
    DD = D.compose(D)
    kk = DD.support()[-1]
    gauged = gauged_from_operator(D)
    tail = gauged.tail
    m = max(tail.entries)
    DF = gauged.to_difference_operator()
    kf = DF.support()[-1]
    assert isinstance(D.coefficient(k), ExprCoefficient)
    assert isinstance(DD.coefficient(kk), CompositeCoefficient)
    assert isinstance(DF.coefficient(kf), FnCoefficient)
    return {
        "expr": lambda c: D.coefficient(k).eval(c, z),
        "composite": lambda c: DD.coefficient(kk).eval(c, z),
        "fn": lambda c: DF.coefficient(kf).eval(c, z),
        "tail": lambda c: tail.eval(c, m, z),
    }


def test_memos_are_scoped_to_the_context(ctx):
    # a second context at the same precision but another modulus must not
    # read the values memoized under the first
    other = CurveContext(mpc("0.27", "0.93"), 256)
    z = sample_points(1, 1)[0]
    used = _memoized_evaluators(z)
    fresh = _memoized_evaluators(z)
    for name, f in used.items():
        f(ctx)
        assert rel(f(other), fresh[name](other)) < mpf("1e-70"), name


def test_fn_coefficient_runs_at_the_context_precision(ctx):
    # an opaque coefficient first evaluated under a 53-bit global precision
    # must still carry the context's precision when read back at 320 bits
    z = sample_points(1, 1)[0]
    used = _memoized_evaluators(z)["fn"]
    with mp.workprec(53):
        used(ctx)
    assert rel(used(ctx), _memoized_evaluators(z)["fn"](ctx)) < mpf("1e-70")


def test_op_defect_measures_a_leading_perturbation(ctx):
    # the shared defect measure reads 0 on equal operators and the size of a
    # 1e-6 relative change of the leading coefficient
    D = first_order(US, T, Q, 2)
    pts = sample_points(2, 2)
    assert op_defect(ctx, D, D, pts) == 0
    corner = tuple(-x for x in D.leading_terms()[0][0])
    coeffs = {k: (c.scaled(1 + mpf("1e-6")) if k == corner else c) for k, c in D.coeffs.items()}
    perturbed = DifferenceOperator(D.n, coeffs, D.params, D.degree)
    assert mpf("1e-7") < op_defect(ctx, D, perturbed, pts) < mpf("1e-5")


def test_scaling_an_opaque_operator_raises():
    D = first_order(US, T, Q, 1)
    assert D.scaled(2).support() == D.support()
    with pytest.raises(ValueError):
        D.compose(D).scaled(2)


def _three_part_coefficient(params):
    """A sum of three parts with unit and non-unit scales and exponents +-1 and +-2.

    Every part has the factor theta(z1 + a), to the power -1 in the second.
    """
    a, b, q = AffineForm.var("a"), AffineForm.var("b"), AffineForm.var("q")
    z1, z2 = zvar(1), zvar(2)
    exprs = [
        ThetaExpr(((z1 + a, 1), (z2 - z1 + b, 2), (z1 * 2, -1)), 2),
        ThetaExpr(((z1 + a, -1), (z1 + z2 - q, -2), (q - z2, 1)), 2),
        ThetaExpr(((z1 + a, 1), (z2 * -2 + b, -1), (z1 - z2 + q, 1)), 2),
    ]
    scales = [1, mpc("0.3", "-1.7"), mpc("-2.5", "0.25")]
    return ExprCoefficient.sum([ExprCoefficient(e, params, s) for e, s in zip(exprs, scales)])


def _mpc_value(ref, coeff, z):
    """The coefficient as the mpc sum of products of ref.theta, at ref's precision."""
    with mp.workprec(ref._wp):
        total = mpc(0)
        for scale, expr, params in coeff.parts:
            bind = bindings_for(params, z)
            val = mpc(scale)
            for form, m in expr.factors:
                val *= ref.theta(form.eval(bind)) ** m
            total += val
        return total


@pytest.mark.parametrize("prec", [96, 256])
def test_expr_coefficient_against_the_mpc_product(prec):
    # the fixed-point value against the mpc product at prec + 128 bits, at
    # points where theta(z1 + a) is near a zero (|w0| down to 1e-9, on
    # lattice points m + n tau of both signs) and at points moved by +-3 tau
    ctx, ref = CurveContext(TAU, prec), CurveContext(TAU, prec + 128)
    rng = random.Random(prec)
    params = {"q": Q, "a": mpc("0.11", "0.07"), "b": mpc("-0.23", "0.13")}
    coeff = _three_part_coefficient(params)
    with mp.workprec(prec + 200):
        tau = mp.make_mpc(point_key(TAU))
        points = list(sample_points(2, 4, seed=prec))
        for m, n in ((0, 0), (1, -1), (-2, 1), (0, 2)):
            for size in ("1e-3", "1e-6", "1e-9"):
                w0 = mpf(size) * mp.expjpi(mpf(rng.uniform(-1, 1)))
                points.append((m + n * tau - params["a"] + w0, mpc(rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2))))
        for z in sample_points(2, 3, seed=prec + 1):
            points += [(z[0] + 3 * tau, z[1]), (z[0], z[1] - 3 * tau), (z[0] - 3 * tau, z[1] + 3 * tau)]
    bound = mpf(2) ** (4 - prec)
    for z in points:
        assert rel(coeff.eval(ctx, z), _mpc_value(ref, coeff, z)) < bound, z


def _closure_compose(A, B, q):
    """k -> fn(ctx, z) of A after B, by closures over mpc shifted points (the old `compose`, the oracle).

    A and B map shifts to fn(ctx, z) as well.
    """
    terms = {}
    for ka, fa in A.items():
        for kb, fb in B.items():
            terms.setdefault(tuple(a + b for a, b in zip(ka, kb)), []).append((ka, fa, fb))

    def make(ts):
        def fn(ctx, z):
            with mp.workprec(ctx._wp):
                return sum((fa(ctx, z) * fb(ctx, shift_point(z, q, ka)) for ka, fa, fb in ts), mpc(0))

        return fn

    return {k: make(ts) for k, ts in terms.items()}


def test_nested_composites_against_the_closure_oracle(ctx):
    # both nestings flatten into structured terms; each coefficient must
    # match the closures over shifted points, with leaves evaluated as mpc
    # products of ctx.theta, independently of the fixed-point path
    A = first_order([mpc("0.1", "0.05"), mpc("0.2", "-0.1")], T, Q, 2)
    B = first_order([mpc("0.23", "-0.11"), mpc("-0.04", "0.16")], T, Q, 2)
    C1 = first_order([mpc("-0.15", "0.12"), mpc("0.07", "0.21")], T, Q, 2)
    C2 = first_order([mpc("0.31", "-0.02"), mpc("-0.12", "0.17")], T, Q, 2)
    C = DifferenceOperator(
        2, {k: ExprCoefficient.sum([c, C2.coefficient(k).scaled(mpc("0.4", "-1.3"))]) for k, c in C1.coeffs.items()}, PARAMS
    )
    leaves = [{k: (lambda ctx, z, c=c: _mpc_value(ctx, c, z)) for k, c in op.coeffs.items()} for op in (A, B, C)]
    left = _closure_compose(_closure_compose(leaves[0], leaves[1], Q), leaves[2], Q)
    right = _closure_compose(leaves[0], _closure_compose(leaves[1], leaves[2], Q), Q)
    pts = sample_points(2, 2, seed=53)
    for got, want in ((A.compose(B).compose(C), left), (A.compose(B.compose(C)), right)):
        assert set(got.support()) == set(want)
        for k in got.support():
            assert isinstance(got.coefficient(k), CompositeCoefficient)
            for z in pts:
                assert rel(got.eval_coeff(ctx, k, z), want[k](ctx, z)) < mpf("1e-70"), k


def test_non_integer_z_coefficients_raise(ctx):
    # the fixed-point table sums integer multiples of z_j; theta(z1/2) has no such form
    coeff = ExprCoefficient(ThetaExpr(((zvar(1) * F(1, 2), 1),), 1), PARAMS)
    with pytest.raises(ValueError, match="integer z-coefficients"):
        coeff.eval(ctx, sample_points(1, 1)[0])
