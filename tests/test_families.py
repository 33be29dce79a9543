import itertools
from fractions import Fraction as F

import pytest
from mpmath import mp, mpc, mpf

from ccnops.curve import CurveContext, TorsionError
from ccnops.diffop import DegreeVector, SelbergDensity
from ccnops.families import (
    cascade_leading_expr,
    d_cascade,
    d_torsion_closed_form,
    first_order,
    theta_pm_multiplier,
    wedge_section,
    weyl_denominator,
)
from ccnops.symbols import AffineForm, ThetaExpr, zvar
from conftest import ETA, Q, T, TOL, TAU, op_defect, rel, sample_points

PARAMS = {"q": Q, "t": T}


def test_first_order_n1_explicit(ctx):
    # empty parameter list: 1/theta(2z) T^{1/2} + 1/theta(-2z) T^{-1/2}
    D = first_order([], T, Q, 1)
    z = sample_points(1, 1)[0]
    assert rel(D.eval_coeff(ctx, (F(1, 2),), z), 1 / ctx.theta(2 * z[0])) < TOL
    assert rel(D.eval_coeff(ctx, (F(-1, 2),), z), 1 / ctx.theta(-2 * z[0])) < TOL


def test_first_order_invariance(ctx):
    D = first_order([mpc("0.1", "0.05"), mpc("0.2", "-0.1")], T, Q, 2)
    assert D.is_invariant(ctx, sample_points(2, 2)) < TOL


def test_first_order_degree():
    D = first_order([mpc(1, 1)] * 4, T, Q, 2)
    assert D.degree[1] == DegreeVector(0, 1, 1)
    assert D.parity == F(1, 2)


@pytest.mark.parametrize("n, d", [(n, d) for n in (1, 2, 3) for d in (1, 2, 3)])
def test_weyl_denominator_against_theta_products(ctx, n, d):
    # prod_i 1/theta(2 y_i; q)_d prod_{i<j} theta(t + y_i + y_j; q)_d / theta(y_i + y_j; q)_d at y = sigma z,
    # with theta(x; q)_d = prod_{l<d} theta(x + l q), written from ctx.theta at every sigma
    def pochhammer(x):
        return mp.fprod(ctx.theta(x + l * Q) for l in range(d))

    for z in sample_points(n, 2, seed=211):
        bind = {"q": Q, "t": T, **{"z%d" % (i + 1): zi for i, zi in enumerate(z)}}
        for sigma in itertools.product((1, -1), repeat=n):
            forms = [zvar(i + 1) * s for i, s in enumerate(sigma)]
            got = ThetaExpr(tuple(weyl_denominator(forms, AffineForm.var("t"), d)), n).eval(ctx, bind)
            y = [s * zi for s, zi in zip(sigma, z)]
            want = 1 / mp.fprod(pochhammer(2 * yi) for yi in y)
            for a, b in itertools.combinations(y, 2):
                want *= pochhammer(T + a + b) / pochhammer(a + b)
            assert rel(got, want) < mpf("1e-70")


def test_cascade_d1_is_first_order(ctx):
    D1 = d_cascade(1, Q, T, 2, mpc("0.111", "0.077"))
    target = first_order([], T, Q, 2)
    assert op_defect(ctx, D1, target, sample_points(2, 2)) < TOL


def test_cascade_probe_independent(ctx):
    Da = d_cascade(2, Q, T, 2, mpc("0.111", "0.077"))
    Db = d_cascade(2, Q, T, 2, mpc("-0.081", "0.133"))
    assert op_defect(ctx, Da, Db, sample_points(2, 2)) < TOL


def test_cascade_leading_coefficient(ctx):
    D = d_cascade(2, Q, T, 2, mpc("0.111", "0.077"))
    expr = cascade_leading_expr(2, 2)
    z = sample_points(2, 1)[0]
    bind = {"q": Q, "t": T, "z1": z[0], "z2": z[1]}
    assert rel(expr.eval(ctx, bind), D.eval_coeff(ctx, (F(-1), F(-1)), z)) < TOL


def test_cascade_support_bound(ctx):
    D = d_cascade(3, Q, T, 2, mpc("0.111", "0.077"))
    for k in D.support():
        assert all(abs(x) <= F(3, 2) for x in k)


def test_torsion_closed_form_two_terms(ctx):
    C = d_torsion_closed_form(2, mpf(1) / 2, T, 1, ctx)
    assert C.support() == [(F(-1),), (F(1),)]
    # coefficient structure: 1/theta(2z; q)_2 at sigma = +
    z = sample_points(1, 1)[0]
    q = mpf(1) / 2
    want = 1 / (ctx.theta(2 * z[0]) * ctx.theta(q + 2 * z[0]))
    assert rel(C.eval_coeff(ctx, (F(1),), z), want) < TOL


def test_torsion_requires_exact_order(ctx):
    with pytest.raises(TorsionError):
        d_torsion_closed_form(2, mpc("0.21", "0.39"), T, 1, ctx)
    with pytest.raises(TorsionError):
        d_torsion_closed_form(4, mpf(1) / 2, T, 1, ctx)  # order 2, not 4


def test_torsion_limit_of_cascade(ctx):
    qtor = mpf(1) / 2
    C = d_torsion_closed_form(2, qtor, T, 1, ctx)
    z = sample_points(1, 1)[0]
    defects = []
    for eps in (mpf("1e-8"), mpf("1e-10")):
        qe = qtor + eps * mpc("1.1", "0.83")
        D = d_cascade(2, qe, T, 1, mpc("0.111", "0.077"))
        worst = mpf(0)
        for k in C.support():
            worst = max(worst, rel(D.eval_coeff(ctx, k, z), C.eval_coeff(ctx, k, z)))
        interior = abs(D.eval_coeff(ctx, (F(0),), z))
        defects.append(max(worst, interior))
    assert defects[0] < mpf("1e-5")
    # convergence order >= 1 in eps
    assert defects[1] < defects[0] * mpf("0.05")


def test_wedge_passthrough_n1(ctx):
    D = first_order([mpc("0.1", "0.05"), mpc("0.2", "-0.1")], mpc(0), Q, 1)
    W = wedge_section([D], {"q": Q, "t": mpc(0)})
    assert W is D


def test_wedge_requires_t_zero():
    D = first_order([mpc("0.1", "0.05"), mpc("0.2", "-0.1")], T, Q, 1)
    with pytest.raises(ValueError):
        wedge_section([D, D], {"q": Q, "t": T})


def test_wedge_equal_rows_vanish(ctx):
    D = first_order([mpc("0.1", "0.05"), mpc("0.2", "-0.1")], mpc(0), Q, 1)
    W = wedge_section([D, D], {"q": Q, "t": mpc(0)})
    z = sample_points(2, 1)[0]
    assert max(abs(W.eval_coeff(ctx, k, z)) for k in W.support()) < mpf("1e-60")


def test_wedge_invariant_and_residues(ctx):
    u0a = mpc("0.11", "0.07")
    Da = first_order([u0a, Q + ETA - u0a], mpc(0), Q, 1)
    u0b = mpc("-0.21", "0.13")
    Db = first_order([u0b, Q + ETA - u0b], mpc(0), Q, 1)
    W = wedge_section([Da, Db], {"q": Q, "t": mpc(0)})
    assert W.is_invariant(ctx, sample_points(2, 1)) < TOL
    from ccnops.conditions import check_residue, enumerate_conditions

    degree = (DegreeVector(), DegreeVector(0, 1, 0))
    specs = enumerate_conditions(degree, (F(1, 2), F(1, 2)), W.params, 2)
    env = {"q": Q, "t": mpc(0), "eta_prime": ETA}
    rep = check_residue(ctx, W, specs, env, samples=1)
    assert rep.passed, rep.max_defect
