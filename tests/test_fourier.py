import gc
import itertools
import weakref
from fractions import Fraction as F

import pytest
from mpmath import mpc, mpf

from ccnops.curve import CurveContext, TorsionError
from ccnops.diffop import shift_point
from ccnops.families import (
    FourierKernel,
    braid_check,
    d_cascade,
    first_order,
    fourier_transform,
    hilbert_gauge_identities,
    theta_pm_multiplier,
)
from ccnops.formal import compare_gauged, gauged_from_operator
from ccnops.symbols import AffineForm
from conftest import Q, T, TOL, op_defect, rel, sample_points

PARAMS = {"q": Q, "t": T}


def test_kernel_c_zero_is_identity(ctx):
    K0 = FourierKernel(ctx, mpc(0), Q, T, 1, 3)
    z = sample_points(1, 1)[0]
    for m in ((1,), (2,), (3,)):
        assert abs(K0.tail_value(m, z)) < mpf("1e-60")


def test_kernel_matches_first_cascade_step(ctx):
    K = FourierKernel(ctx, AffineForm.var("q") * F(-1, 2), Q, T, 1, 3)
    D1 = first_order([], T, Q, 1)
    assert compare_gauged(ctx, K, gauged_from_operator(D1), sample_points(1, 2), order=1) < TOL
    # beyond the finite support the tail vanishes
    z = sample_points(1, 1)[0]
    assert abs(K.tail_value((2,), z)) < mpf("1e-60")


def test_kernel_tail_rejects_another_context(ctx):
    # the tail is solved from the kernel's own thetas: under another modulus
    # it must raise rather than return (and memoize) this kernel's value
    K = FourierKernel(ctx, AffineForm.var("q") * F(-1, 2), Q, T, 1, 3)
    other = CurveContext(mpc("0.27", "0.93"), 256)
    z = sample_points(1, 1)[0]
    with pytest.raises(ValueError):
        K.tail.eval(other, (1,), z)
    assert K.tail.eval(ctx, (1,), z) == K.tail_value((1,), z)


def test_kernel_matches_d2(ctx):
    K = FourierKernel(ctx, AffineForm.var("q") * F(-1), Q, T, 1, 4)
    D2 = d_cascade(2, Q, T, 1, mpc("0.111", "0.077"))
    assert compare_gauged(ctx, K, gauged_from_operator(D2), sample_points(1, 2), order=2) < TOL


def test_defining_residual(ctx):
    for n, order in ((1, 4), (2, 3)):
        K = FourierKernel(ctx, mpc("0.123", "0.221"), Q, T, n, order)
        z = sample_points(n, 1)[0]
        assert K.defining_residual(z, order=order - 1) < TOL


@pytest.mark.parametrize("n", [1, 2])
def test_tail_relation_matches_the_first_order_coefficient(ctx, n):
    # the solver's A(sigma, z, m', j) is the coefficient of D(c +- u; t) at
    # u = z_j, that is of first_order([z_j, 2c - z_j]) at T^(sigma/2), read at
    # z + q m', for every m' within the order
    c, order = mpc("0.123", "0.221"), 3
    K = FourierKernel(ctx, c, Q, T, n, order)
    z = sample_points(n, 1)[0]
    for j in range(n):
        D = first_order([z[j], 2 * c - z[j]], T, Q, n)
        for sigma in itertools.product((1, -1), repeat=n):
            for mprime in itertools.product(range(order + 1), repeat=n):
                if sum(mprime) <= order:
                    want = D.eval_coeff(ctx, tuple(F(s, 2) for s in sigma), shift_point(z, Q, mprime))
                    assert rel(K._solver.A(sigma, z, mprime, j), want) < mpf("1e-70")


def test_kernel_torsion_guard(ctx):
    with pytest.raises(TorsionError):
        FourierKernel(ctx, mpc("0.1", "0.1"), mpf(1) / 2, T, 1, 3)


def test_kernel_inverse_is_negated_argument(ctx):
    cval = mpc("0.123", "0.221")
    params = {"q": Q, "t": T, "cS": cval}
    cf = AffineForm.var("cS")
    Kc = FourierKernel(ctx, cf, Q, AffineForm.var("t"), 1, 4, extra_params=params)
    Km = FourierKernel(ctx, cf * -1, Q, AffineForm.var("t"), 1, 4, extra_params=params)
    assert compare_gauged(ctx, Kc.invert(), Km, sample_points(1, 2), order=3) < mpf("1e-40")


def test_kernel_operator_relations(ctx):
    # K(c) D(c +- u; t) = prod theta(z_i +- u) K(c - q/2)
    n = 1
    cval = mpc("0.08", "0.21")
    u = mpc("0.23", "-0.11")
    params = {"q": Q, "t": T, "cS": cval}
    cf = AffineForm.var("cS")
    qf = AffineForm.var("q")
    order = 3
    Kc = FourierKernel(ctx, cf, Q, AffineForm.var("t"), n, order + 1, extra_params=params)
    Km = FourierKernel(ctx, cf - qf * F(1, 2), Q, AffineForm.var("t"), n, order, extra_params=params)
    D = first_order([cval + u, cval - u], T, Q, n)
    lhs = Kc.compose(gauged_from_operator(D), order=order)
    mult = theta_pm_multiplier(u, n, PARAMS)
    rhs = gauged_from_operator(mult).compose(Km, order=order)
    assert compare_gauged(ctx, lhs, rhs, sample_points(n, 2), order=order - 1) < TOL
    # D(-c +- u; t) K(c + q/2) = K(c) prod theta(z_i +- u)
    Kp = FourierKernel(ctx, cf + qf * F(1, 2), Q, AffineForm.var("t"), n, order + 1, extra_params=params)
    D2 = first_order([-cval + u, -cval - u], T, Q, n)
    lhs = gauged_from_operator(D2).compose(Kp, order=order)
    rhs = Kc.compose(gauged_from_operator(mult), order=order)
    assert compare_gauged(ctx, lhs, rhs, sample_points(n, 2), order=order - 1) < TOL


def test_kernel_exchange_relation(ctx):
    # K(c) D(u0..u3; t) = D(u0-c, ..., u3-c; t) K(c) when sum u = q + 2c
    n = 1
    cval = mpc("0.08", "0.21")
    u0, u1, u2 = mpc("0.11", "0.07"), mpc("-0.13", "0.21"), mpc("0.31", "0.05")
    u3 = Q + 2 * cval - u0 - u1 - u2
    params = {"q": Q, "t": T, "cS": cval}
    cf = AffineForm.var("cS")
    order = 3
    Kc = FourierKernel(ctx, cf, Q, AffineForm.var("t"), n, order + 2, extra_params=params)
    A = first_order([u0, u1, u2, u3], T, Q, n)
    B = first_order([u0 - cval, u1 - cval, u2 - cval, u3 - cval], T, Q, n)
    lhs = Kc.compose(gauged_from_operator(A), order=order)
    rhs = gauged_from_operator(B).compose(Kc, order=order)
    assert compare_gauged(ctx, lhs, rhs, sample_points(n, 2), order=order - 1) < TOL


def test_braid_relation_n1(ctx):
    db, di = braid_check(
        ctx, mpc("0.12", "0.08"), mpc("-0.07", "0.15"), mpc("0.21", "-0.11"), Q, T, 1, 3,
        sample_points(1, 2),
    )
    assert db < TOL and di < TOL


def test_braid_relation_at_cascade_points(ctx):
    # (c, d) = (-q/2, -q/2): both sides buildable from cascades
    db, di = braid_check(
        ctx,
        AffineForm.var("q") * F(-1, 2),
        AffineForm.var("q") * F(-1, 2),
        mpc("0.21", "-0.11"),
        Q,
        T,
        1,
        4,
        sample_points(1, 2),
    )
    assert db < TOL and di < TOL


def test_transform_instances_n1(ctx):
    c = mpc("0.08", "0.21")
    u = mpc("0.23", "-0.11")
    n = 1
    D = theta_pm_multiplier(u, n, PARAMS)
    Fh = fourier_transform(ctx, D, c, 0, 1, 2)
    tgt = first_order([Q / 2 - c + u, Q / 2 - c - u], T, Q, n)
    assert compare_gauged(ctx, Fh, gauged_from_operator(tgt), sample_points(n, 2), order=1) < TOL
    D = first_order([c + Q / 2 + u, c + Q / 2 - u], T, Q, n)
    Fh = fourier_transform(ctx, D, c, 1, 0, 2)
    tgt = theta_pm_multiplier(u, n, PARAMS)
    assert compare_gauged(ctx, Fh, gauged_from_operator(tgt), sample_points(n, 2), order=1) < TOL
    u0, u1, u2 = mpc("0.11", "0.07"), mpc("-0.13", "0.21"), mpc("0.31", "0.05")
    u3 = Q + 2 * c - u0 - u1 - u2
    D = first_order([u0, u1, u2, u3], T, Q, n)
    Fh = fourier_transform(ctx, D, c, 1, 1, 2)
    tgt = first_order([u0 - c, u1 - c, u2 - c, Q + c - u0 - u1 - u2], T, Q, n)
    assert compare_gauged(ctx, Fh, gauged_from_operator(tgt), sample_points(n, 2), order=1) < TOL


def test_curious_identities_collapse_case(ctx):
    # u2 = u3 collapses the triple identity to K(c) K(-c) = 1
    u1v, u23 = mpc("0.11", "0.19"), mpc("-0.07", "0.23")
    dt, dp = hilbert_gauge_identities(
        ctx, u1v, u23, u23, Q, T, mpc("0.09", "0.12"), 2, sample_points(2, 1)
    )
    assert dt < TOL


def test_kernel_is_freed_without_the_cycle_collector(ctx):
    # tail entries hold the tail weakly, so a kernel and its tail go with
    # their last reference; a tail kept past its kernel, or the tail of a
    # rebased copy, still solves new points
    z1, z2, z3 = sample_points(1, 3, seed=61)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        K = FourierKernel(ctx, mpc("0.123", "0.221"), Q, T, 1, 3)
        want = K.tail_value((2,), z1)
        kernel, tail = weakref.ref(K), K.tail
        R = K.rebased(1)
        del K
        assert kernel() is None
        assert tail.eval(ctx, (2,), z1) == want
        assert rel(tail.eval(ctx, (2,), z2), FourierKernel(ctx, mpc("0.123", "0.221"), Q, T, 1, 3).tail_value((2,), z2)) < TOL
        source = weakref.ref(tail)
        del tail
        assert source() is not None  # the rebased copy keeps its source tail
        R.tail.eval(ctx, (3,), z3)
        del R
        assert source() is None
    finally:
        if was_enabled:
            gc.enable()


def test_inverse_is_freed_without_the_cycle_collector(ctx):
    # the inverse tail's entries hold their tail weakly and the source tail,
    # not the inverted operator, so both go with their last reference; an
    # inverse tail kept past its operator still solves new points
    z1, z2 = sample_points(1, 2, seed=67)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        K = FourierKernel(ctx, mpc("0.123", "0.221"), Q, T, 1, 3)
        inv = K.invert()
        want = inv.tail.eval(ctx, (2,), z1)
        kernel, inverse = weakref.ref(K), weakref.ref(inv)
        del inv, K
        assert kernel() is None and inverse() is None
        K = FourierKernel(ctx, mpc("0.123", "0.221"), Q, T, 1, 3)
        tail = K.invert().tail
        assert tail.eval(ctx, (2,), z1) == want
        assert rel(tail.eval(ctx, (3,), z2), K.invert().tail.eval(ctx, (3,), z2)) < TOL
    finally:
        if was_enabled:
            gc.enable()
