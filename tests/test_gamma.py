import random

import pytest
from mpmath import mp, mpc, mpf

from ccnops.curve import CurveContext, PoleProximityError
from conftest import TAU, TOL, rel


def draw_q(rng, ctx):
    return mpc(rng.uniform(-0.3, 0.3), rng.uniform(0.35, float(ctx.tau.imag) * 0.7))


def test_gamma_functional_equation(ctx):
    rng = random.Random(7)
    for _ in range(5):
        z = mpc(rng.uniform(-0.4, 0.4), rng.uniform(-0.3, 0.3))
        q = draw_q(rng, ctx)
        lhs = ctx.gamma(q + z, q) / ctx.gamma(z, q)
        assert rel(lhs, ctx.theta(z)) < TOL


def test_gamma_against_double_product(ctx):
    rng = random.Random(8)
    for _ in range(3):
        z = mpc(rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2))
        q = draw_q(rng, ctx)
        assert rel(ctx.gamma(z, q), ctx.gamma_double_product(z, q)) < TOL


def test_gamma_reflection_sign(ctx):
    # gamma(z) gamma(q-z) is negated by z -> z+q; the (0,-1) ledger entry
    # itself is symbolic (see test_symbols.test_reflection_ledger)
    rng = random.Random(9)
    for _ in range(4):
        z = mpc(rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2))
        q = draw_q(rng, ctx)
        f = lambda w: ctx.gamma(w, q) * ctx.gamma(q - w, q)
        assert rel(f(z + q), -f(z)) < TOL


def test_multiplication_principle(ctx):
    # gamma_q(z) = prod_j gamma_{kq}(z + j q) up to the explicit constant
    # fixed by the principal-branch prefactor; also z-independent
    rng = random.Random(10)
    q = draw_q(rng, ctx)
    for k in (2, 3):
        corr = ctx.e(q * (k * k - 1) / mpf(24)) * mp.exp(-mpf(k - 1) / 2 * ctx._log_c())
        for _ in range(3):
            z = mpc(rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2))
            rhs = mpc(1)
            for j in range(k):
                rhs *= ctx.gamma(z + j * q, k * q)
            assert rel(ctx.gamma(z, q) * corr, rhs) < TOL


@pytest.mark.parametrize("prec", [96, 256])
def test_gamma_against_a_high_precision_double_product(prec):
    # with Im q = 0.35 the shift k = nint((Im z - (Im tau + Im q)/2) / Im q)
    # into the series' strip is -3, -2, 0 and 1 at these Im z
    ctx, ref = CurveContext(TAU, prec), CurveContext(TAU, prec + 128)
    q = mpc("0.1", "0.35")
    shifts = set()
    for im in ("-0.35", "0", "0.6", "1.0"):
        shifts.add(int(mp.nint((mpf(im) - (TAU.imag + q.imag) / 2) / q.imag)))
        for re in ("-0.27", "0.23", "0.41"):
            z = mpc(re, im)
            assert abs(ctx.gamma(z, q) / ref.gamma_double_product(z, q) - 1) < mpf(2) ** (4 - prec)
    assert min(shifts) < 0 < max(shifts) and 0 in shifts


def test_gamma_at_a_pole_raises_a_typed_error(ctx):
    # the divisor theta of the shift to the series' strip is exactly 0 there
    q = mpc("0.21", "0.39")
    for z in (0, -q, -TAU):
        with pytest.raises(PoleProximityError):
            ctx.gamma(z, q)
