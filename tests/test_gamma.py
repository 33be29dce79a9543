import random

import pytest
from mpmath import mp, mpc, mpf

from ccnops.curve import MIN_IM, CurveContext, ModulusError, PoleProximityError
from conftest import TAU, TOL, rel

#: most factors per row, and rows, of `gamma_double_product`
DOUBLE_PRODUCT_TERMS = 400


def gamma_double_product(ctx, z, q):
    """Reference evaluation of the Gamma symbol by its raw double product, at the context's precision.

    p^j Q^k (p = e(tau), Q = e(q)) and its modulus are running products;
    a row stops once |p^j Q^k| (|x| + 1/|x|) is below the context's cutoff.
    """
    with mp.workprec(ctx._wp):
        z = mpc(z)
        q = mpc(q)
        if q.imag < MIN_IM:
            raise ModulusError("Im(q) below threshold")
        logc = ctx._log_c()
        pref = mp.exp(-(z / q) * logc) * ctx.e(-z * (z - q) / (4 * q))
        p = ctx.e(ctx.tau)
        Q = ctx.e(q)
        x = ctx.e(z)
        pq_x = p * Q / x
        size = abs(x) + 1 / abs(x)
        abs_p, abs_Q = abs(p), abs(Q)
        val = mpc(1)
        pj, abs_pj = mpc(1), mpf(1)
        for _ in range(DOUBLE_PRODUCT_TERMS):
            row = mpc(1)
            done_row = False
            pjk, abs_pjk = pj, abs_pj  # p^j Q^k and its modulus
            for kk in range(DOUBLE_PRODUCT_TERMS):
                row *= (1 - pjk * pq_x) / (1 - pjk * x)
                if abs_pjk * size < ctx._cutoff:
                    done_row = kk > 0
                    break
                pjk, abs_pjk = pjk * Q, abs_pjk * abs_Q
            val *= row
            if done_row and abs_pj * size < ctx._cutoff:
                break
            pj, abs_pj = pj * p, abs_pj * abs_p
        return pref * val


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
        assert rel(ctx.gamma(z, q), gamma_double_product(ctx, z, q)) < TOL


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
            assert abs(ctx.gamma(z, q) / gamma_double_product(ref, z, q) - 1) < mpf(2) ** (4 - prec)
    assert min(shifts) < 0 < max(shifts) and 0 in shifts


def test_gamma_at_a_pole_raises_a_typed_error(ctx):
    # the divisor theta of the shift to the series' strip is exactly 0 there
    q = mpc("0.21", "0.39")
    for z in (0, -q, -TAU):
        with pytest.raises(PoleProximityError):
            ctx.gamma(z, q)
