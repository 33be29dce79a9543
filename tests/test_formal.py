from fractions import Fraction as F

import pytest
from mpmath import mpc, mpf

from ccnops.diffop import monomial_operator
from ccnops.families import FourierKernel, first_order
from ccnops.formal import (
    FormalGaugedOperator,
    Tail,
    compare_gauged,
    gauged_from_operator,
    unit_tail,
)
from ccnops.symbols import AffineForm, GammaProduct, ThetaExpr, zvar
from conftest import Q, T, TOL, rel, sample_points

PARAMS = {"q": Q, "t": T}


def identity_gauged(n, order=4):
    return FormalGaugedOperator(
        n, GammaProduct.one(), AffineForm.const_form(0), unit_tail(n, order), PARAMS
    )


def test_invert_identity(ctx):
    one = identity_gauged(1)
    inv = one.invert()
    assert compare_gauged(ctx, inv, one, sample_points(1, 2), order=3) < TOL


def test_invert_geometric_series(ctx):
    # (1 + c T)^{-1} = 1 - c T + c(.)c(.+q) T^2 - ...
    cexpr = ThetaExpr(((zvar(1) + AffineForm.var("t"), 1),), arity=1)

    def centry(ctx2, z):
        return cexpr.eval(ctx2, {"q": Q, "t": T, "z1": z[0]})

    F1 = FormalGaugedOperator(
        1,
        GammaProduct.one(),
        AffineForm.const_form(0),
        Tail(1, {(0,): 1, (1,): centry}, 3),
        PARAMS,
    )
    inv = F1.invert()
    z = sample_points(1, 1)[0]
    c0 = centry(ctx, z)
    c1 = centry(ctx, (z[0] + Q,))
    c2 = centry(ctx, (z[0] + 2 * Q,))
    assert rel(inv.tail.eval(ctx, (1,), z), -c0) < TOL
    assert rel(inv.tail.eval(ctx, (2,), z), c0 * c1) < TOL
    assert rel(inv.tail.eval(ctx, (3,), z), -c0 * c1 * c2) < TOL
    # composition oracle
    prod = F1.compose(inv)
    assert compare_gauged(ctx, prod, identity_gauged(1, 3), sample_points(1, 2), order=3) < TOL


def test_invert_two_term_composition(ctx):
    K = FourierKernel(ctx, mpc("0.123", "0.221"), Q, T, 1, 4)
    prod = K.compose(K.invert())
    assert compare_gauged(ctx, prod, identity_gauged(1), sample_points(1, 2), order=3) < mpf("1e-40")


def test_invert_requires_unit(ctx):
    bad = FormalGaugedOperator(
        1,
        GammaProduct.one(),
        AffineForm.const_form(0),
        Tail(1, {(0,): lambda c, z: mpc(2)}, 2),
        PARAMS,
    )
    with pytest.raises(ValueError):
        bad.invert()


def test_order_guard(ctx):
    K = FourierKernel(ctx, mpc("0.1", "0.2"), Q, T, 1, 2)
    with pytest.raises(ValueError):
        K.invert(order=5)


def test_gauged_from_operator_halfinteger(ctx):
    D = first_order([mpc("0.1", "0.05"), mpc("0.2", "-0.1")], T, Q, 1)
    G = gauged_from_operator(D)
    z = sample_points(1, 1)[0]
    # honest coefficient at shift +1/2: head trivial, c = q/2, key (1,)
    got = G.tail.eval(ctx, (1,), (z[0] + G.c_value(ctx),))
    want = D.eval_coeff(ctx, (F(1, 2),), z)
    assert rel(got, want) < TOL


def test_rebase(ctx):
    K = FourierKernel(ctx, mpc("0.123", "0.221"), Q, T, 1, 3)
    R = K.rebased(1)
    assert rel(R.c_value(ctx), K.c_value(ctx) - Q) < TOL
    assert compare_gauged(ctx, K, R, sample_points(1, 2), order=2) < TOL


def _with_tail(F1, tail):
    return FormalGaugedOperator(F1.n, F1.gamma, F1.c_form, tail, F1.params)


@pytest.mark.parametrize("n", [1, 2])
def test_compare_gauged_measures_against_the_largest_coefficient(ctx, n):
    # a tail scaled by 1 + 1e-6 reads 1e-6; the tail of K(c + 1e-6) under the
    # head of K(c) reads the kernel's change, which grows with the tail order
    K = FourierKernel(ctx, mpc("0.123", "0.221"), Q, T, n, 3)
    pts = sample_points(n, 2)
    assert compare_gauged(ctx, K, K, pts) == 0
    eps = mpf("1e-6")
    scaled = Tail(n, {k: (lambda c, z, k=k: (1 + eps) * K.tail.eval(c, k, z)) for k in K.tail.entries}, K.order)
    assert mpf("1e-7") < compare_gauged(ctx, K, _with_tail(K, scaled), pts) < mpf("1e-5")
    moved = FourierKernel(ctx, mpc("0.123", "0.221") + eps, Q, T, n, 3)
    assert mpf("1e-6") < compare_gauged(ctx, K, _with_tail(K, moved.tail), pts) < mpf("1e-3")
