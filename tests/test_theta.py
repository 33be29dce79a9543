import random

import pytest
from mpmath import mp, mpc, mpf

from ccnops.curve import (
    GAUSS_ONE,
    CurveContext,
    CurvePoint,
    ModulusError,
    PoleProximityError,
    PrecisionError,
    gauss_div,
)
from conftest import TAU, TOL, rel


def test_theta_vanishes_at_zero(ctx):
    assert abs(ctx.theta(0)) == 0


def test_theta_oddness(ctx):
    rng = random.Random(2)
    for _ in range(10):
        z = mpc(rng.uniform(-0.4, 0.4), rng.uniform(-0.3, 0.3))
        assert rel(ctx.theta(-z), -ctx.theta(z)) < TOL


def test_sum_vs_product(ctx):
    rng = random.Random(3)
    for _ in range(10):
        z = mpc(rng.uniform(-0.4, 0.4), rng.uniform(-0.3, 0.3))
        assert rel(ctx.theta(z), ctx.theta_product(z)) < mpf("1e-30")


def test_sum_vs_product_random_moduli():
    # seeded sweep over (z, tau) with Im tau in [0.3, 2]
    rng = random.Random(4)
    for _ in range(60):
        tau = mpc(rng.uniform(-0.5, 0.5), rng.uniform(0.3, 2.0))
        c = CurveContext(tau, 256)
        z = mpc(rng.uniform(-0.45, 0.45), rng.uniform(-0.4, 0.4))
        assert rel(c.theta(z), c.theta_product(z)) < mpf("1e-30")


def test_quasi_periodicity(ctx):
    rng = random.Random(5)
    for _ in range(10):
        z = mpc(rng.uniform(-0.4, 0.4), rng.uniform(-0.3, 0.3))
        v = ctx.theta(z)
        assert rel(ctx.theta(z + 1), -v) < TOL
        assert rel(ctx.theta(z + ctx.tau), -ctx.e(-z - ctx.tau / 2) * v) < TOL


def test_pochhammer():
    ctx = CurveContext(TAU, 192)
    q = mpc("0.05", "0.41")
    z = mpc("0.17", "0.23")
    assert ctx.theta_pochhammer(z, 0, q) == 1
    want = ctx.theta(z) * ctx.theta(q + z)
    assert rel(ctx.theta_pochhammer(z, 2, q), want) < TOL
    assert rel(ctx.theta_pochhammer(z, -1, q), 1 / ctx.theta(-q + z)) < TOL


def test_pochhammer_pole_guard():
    ctx = CurveContext(TAU, 192)
    q = mpc("0.05", "0.41")
    with pytest.raises(PoleProximityError):
        ctx.theta_pochhammer(q, -1, q)  # hits theta(0)


def test_threshold_errors():
    with pytest.raises(ModulusError):
        CurveContext(mpc("0.1", "0.1"), 128)
    with pytest.raises(PrecisionError):
        CurveContext(TAU, 32)


def test_curve_point_reduction(ctx):
    p = CurvePoint(TAU, mpc("3.7", "2.9"))
    r1 = p.reduced(ctx)
    r2 = r1.reduced(ctx)
    assert abs(r1.value - r2.value) < mpf("1e-40")
    z0, m, n = ctx.lattice_reduce(p.value)
    assert abs(p.value - (z0 + m + n * ctx.tau)) < mpf("1e-40")


def test_theta_memo_key_is_exact_below_global_precision():
    # two points that differ past bit 53 keep separate memo entries even when
    # the global mp.prec is lower than the context's precision
    z = mpc("0.1") + mpc(0, 1) / 7
    z2 = z + mpf(2) ** -100
    fresh = CurveContext(TAU, 256)
    with mp.workprec(53):
        fresh.theta(z)
        got = fresh.theta(z2)
        want = CurveContext(TAU, 256).theta(z2)
    assert rel(got, want) < mpf("1e-70")


def test_theta_deriv_at_lattice(ctx):
    # numeric derivative against the exact lattice multiplier
    eps = mpf("1e-30")
    for (m, n) in ((0, 0), (1, 0), (0, 1), (1, 1), (0, -1), (1, 2), (-1, -2)):
        lam = m + n * ctx.tau
        approx = ctx.theta(lam + eps) / eps
        exact = gauss_div(ctx.theta_deriv_fixed(m, n), GAUSS_ONE, ctx._wp)
        assert rel(approx, exact) < mpf("1e-20")


@pytest.mark.parametrize("prec", [96, 256])
@pytest.mark.parametrize("tau", [mpc("0.13", "1.09"), mpc("-0.4", "0.31"), mpc("0.2", "1.95")])
def test_theta_against_the_product_formula_at_800_bits(prec, tau):
    # the fixed-point kernel keeps all but a few bits of the context's
    # precision, over the whole fundamental domain and near the zero at 0
    c = CurveContext(tau, prec)
    ref = CurveContext(tau, 800)
    rng = random.Random(6)
    points = [
        mpc(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5) * tau.imag) for _ in range(12)
    ]
    points += [z + 2 - 3 * tau for z in points[:4]]  # n = -3 lattice shifts
    smalls = ("1e-3", "1e-6", "1e-9")
    points += [mpc(small, small) / 3 for small in smalls]
    points += [mpc(small) + 2 - 3 * tau for small in smalls]
    for z in points:
        want = ref.theta_product(z)
        with mp.workprec(820):
            assert abs(c.theta(z) - want) <= abs(want) * mpf(2) ** (8 - prec)


def test_theta_zero_rule(ctx):
    # a reduced argument below 2^-wp is a lattice point up to rounding: exactly 0
    tiny = mpf(2) ** -(ctx._wp + 2)
    for z in (tiny, mpc(0, tiny), 1 + ctx.tau + mpc(tiny, -tiny) / 2):
        assert ctx.theta(z) == 0
    # above it, theta is its linear term 2 pi i z0; the cancellation in the
    # sum leaves about GUARD_BITS + 8 = 24 of the kernel's bits at this size
    z0 = mpf(2) ** -(ctx._wp - 8)
    want = ctx.two_pi_i * z0
    assert abs(ctx.theta(z0) - want) < abs(want) * mpf(2) ** -20
