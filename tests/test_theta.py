import random
from fractions import Fraction as F

import pytest
from mpmath import mp, mpc, mpf
from mpmath.libmp import to_fixed

from ccnops.curve import (
    GAUSS_ONE,
    CurveContext,
    ModulusError,
    PrecisionError,
    gauss_div,
    gauss_round,
    point_key,
)
from ccnops.factors import CompiledParts, compile_parts, fixed_point, fixed_shift
from ccnops.symbols import AffineForm, ThetaExpr, zvar
from conftest import Q, TAU, TOL, rel


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


def test_threshold_errors():
    with pytest.raises(ModulusError):
        CurveContext(mpc("0.1", "0.1"), 128)
    with pytest.raises(PrecisionError):
        CurveContext(TAU, 32)


def test_curve_point_reduction(ctx):
    z = mpc("3.7", "2.9")
    z0, m, n = ctx.lattice_reduce(z)
    assert abs(z - (z0 + m + n * ctx.tau)) < mpf("1e-40")
    assert ctx.lattice_reduce(z0) == (z0, 0, 0)


def test_lattice_reduce_rounds_as_the_fixed_point_kernel(ctx):
    # at the half-periods, where half up and half to even disagree, and at
    # 300 random points, lattice_reduce reads the lattice point that every
    # theta value and pole test reads
    def kernel(z):
        return ctx.reduce_fixed(*(to_fixed(x, ctx._fix) for x in point_key(z)))[2:]

    tau = TAU
    assert ctx.lattice_reduce(mpc("0.5"))[1:] == (1, 0)
    rng = random.Random(19)
    points = [mpc("0.5"), mpc("-0.5"), tau / 2, -tau / 2, (1 + tau) / 2, (1 - tau) / 2, 2.5 + 3 * tau / 2]
    points += [mpc(rng.uniform(-4, 4), rng.uniform(-4, 4)) for _ in range(300)]
    for z in points:
        assert ctx.lattice_reduce(z)[1:] == kernel(z)


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
    # precision, over the whole fundamental domain, on lattice shifts of it
    # (|n| = 3, and |Im z| near 2.5) and near the zero at 0
    c = CurveContext(tau, prec)
    ref = CurveContext(tau, 800)
    rng = random.Random(6)
    points = [
        mpc(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5) * tau.imag) for _ in range(12)
    ]
    points += [z + 2 - 3 * tau for z in points[:4]]  # n = -3 lattice shifts
    points += [z - 2 + 3 * tau for z in points[4:8]]  # n = +3
    points += [mpc(rng.uniform(-0.5, 0.5), sign * rng.uniform(2.4, 2.6)) for sign in (1, -1, 1, -1)]
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


def test_theta_near_a_zero_at_shifted_points():
    # near the zero 2 - 3 tau, theta keeps the relative error it has near 0:
    # w0 = z - m - n tau is formed exactly and x0 = e(w0/2) read from it
    ctx, ref = CurveContext(TAU, 256), CurveContext(TAU, 1100)
    small = mpf(2) ** -(ctx._wp - 32)

    def error(z):
        with mp.workprec(1100):
            want = ref.theta_product(z)
            return abs(ctx.theta(z) - want) / abs(want)

    with mp.workprec(1100):  # exact: TAU has 320 bits
        shifted = [m + n * TAU + small for m, n in ((2, -3), (2, 3), (1, 1), (0, -1))]
    base = error(small)
    for z in shifted:
        assert error(z) <= 4 * base


def test_theta_reads_the_integer_kernel(monkeypatch):
    # at a shifted point ctx.theta is theta_at_x0 at the F-bit fixed point of
    # the exact w0 = z - m - n tau, with x0 = e(w0/2), rounded once; it calls
    # the exponential once, at w0/2 (the translate factor's base tau is read
    # here first), and never the mpc lattice reduction
    ctx = CurveContext(TAU, 256)
    ctx.tau_power(1)
    calls = []
    for name in ("e", "lattice_reduce"):
        original = getattr(CurveContext, name)

        def spy(self, *args, _name=name, _original=original):
            calls.append(_name)
            return _original(self, *args)

        monkeypatch.setattr(CurveContext, name, spy)
    z = mpc("0.17", "0.23") - 2 + 3 * ctx.tau
    got = ctx.theta(z)
    assert calls == ["e"]
    F = ctx._fix
    reduced = ctx.reduce_fixed(*(to_fixed(x, F) for x in point_key(z)))
    assert reduced[2:] == (-2, 3)
    with mp.workprec(1100):  # exact
        w0 = z + 2 - 3 * mp.make_mpc(point_key(TAU))
    exact = (*(to_fixed(x, F) for x in point_key(w0)), -2, 3)
    want = gauss_div(ctx.theta_at_x0(exact, *ctx.half_e(w0)), GAUSS_ONE, ctx._wp)
    assert got._mpc_ == want._mpc_ and got != 0


@pytest.mark.parametrize("prec", [96, 256])
def test_theta_at_the_edge_of_the_reduced_domain(prec):
    # |Im w0| -> Im tau/2, where |t| = |x + 1/x| is largest: the Horner
    # coefficients c_k keep their whole mantissas, so c_k t^k stays good to
    # 2^-F relative to theta there (stored at plain F bits, the top c_k
    # times t^k would lose up to 44 bits at 256 bits)
    tau = mpc("0.2", "1.95")
    c, ref = CurveContext(tau, prec), CurveContext(tau, 800)
    rng = random.Random(12)
    points = [
        mpc(rng.uniform(-0.5, 0.5), sign * (1 - mpf(10) ** -k) * tau.imag / 2)
        for k in (2, 4, 8)
        for sign in (1, -1)
        for _ in range(3)
    ]
    for z in points:
        want = ref.theta_product(z)
        with mp.workprec(820):
            assert abs(c.theta(z) - want) <= abs(want) * mpf(2) ** (4 - prec), z


def test_theta_kernel_against_its_own_sum_at_f_plus_400_bits():
    # theta_at_x0, unrounded, against the same N-term sum over the same
    # weights w_j, from the same x0 and 1/x0, at F + 400 bits: the
    # denominator D = sum_j (2j+1) w_j is summed exactly from the weights,
    # so no systematic error is left (1/D rounded to ctx._wp bits put about
    # 5e-6 units of 2^-prec into every theta)
    ctx = CurveContext(TAU, 256)
    F = ctx._fix
    rng = random.Random(18)
    worst = mpf(0)

    def exact(g):  # a Gaussian float (re, im, e) as an mpc
        return mpc(mp.ldexp(g[0], g[2]), mp.ldexp(g[1], g[2]))

    with mp.workprec(F + 400):
        # the kernel's N weights w_j = (-1)^j e((j+1/2)^2 tau/2), one per Horner entry
        weights = [(-1) ** j * exact(ctx.tau_power((2 * j + 1) ** 2, 4)) for j in range(len(ctx._theta_horner))]
        denom = sum((2 * j + 1) * w for j, w in enumerate(weights))
        for _ in range(200):
            w0 = mpc(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5) * ctx.tau.imag)
            reduced = (*(to_fixed(x, F) for x in point_key(w0)), 0, 0)
            w0 = mpc(mp.ldexp(reduced[0], -F), mp.ldexp(reduced[1], -F))  # the kernel's fixed point, exactly
            x, y = ctx.half_e(w0)
            got, x0, y0 = exact(ctx.theta_at_x0(reduced, x, y)), exact(x), exact(y)
            want = sum(w * (x0 ** (2 * j + 1) - y0 ** (2 * j + 1)) for j, w in enumerate(weights)) / denom
            worst = max(worst, abs(got - want) / abs(want))
    assert worst * mpf(2) ** ctx.prec <= mpf("1e-8"), worst * mpf(2) ** ctx.prec


def _per_call_product(ctx, z):
    """theta(z) by the product formula with every power of p and every factor formed per call.

    The loop `CurveContext.theta_product` ran before it read a per-context
    table, kept as its oracle: it stops once |p^j| (|x| + 1/|x| + 2) is
    below 2^-wp for this z's own x, and divides by x per term.
    """
    with mp.workprec(ctx._wp):
        z, m, n = ctx.lattice_reduce(z)
        mult = mpc(1)
        if m or n:
            mult = ctx.e(-n * z - n * n * ctx.tau / 2)
            if (m + n) % 2:
                mult = -mult
        xh = ctx.e(z / 2)
        x = xh * xh
        val = xh - 1 / xh
        denom = mpc(1)
        p = ctx.e(ctx.tau)
        pj = p
        while True:
            val *= (1 - pj * x) * (1 - pj / x)
            denom *= (1 - pj) ** 2
            if abs(pj) * (abs(x) + 1 / abs(x) + 2) < ctx._cutoff:
                break
            pj *= p
        return mult * val / denom


@pytest.mark.parametrize("prec", [96, 256, 800])
def test_theta_product_against_the_per_call_loop(prec):
    # the per-context table of p^j and prod (1-p^j)^2, with its term count
    # fixed from |Im z0| <= Im tau/2, against the per-call loop: at the edge
    # of the reduced domain (where the fixed count is just enough), inside
    # it, and at lattice translates of both; the two differ by the rounding
    # of ctx._wp = prec + 16 bits
    tau = mpc("0.13", "1.09")
    ctx = CurveContext(tau, prec)
    rng = random.Random(31)
    with mp.workprec(prec + 64):
        edge = [mpc(rng.uniform(-0.5, 0.5), sign * tau.imag / 2) for sign in (1, -1) for _ in range(3)]
        inner = [mpc(rng.uniform(-0.5, 0.5), rng.uniform(-0.4, 0.4) * tau.imag) for _ in range(4)]
        points = [z + m + n * tau for z in edge + inner for m, n in ((0, 0), (3, -2), (-1, 1))]
    with mp.workprec(prec + 64):
        worst = max(rel(ctx.theta_product(z), _per_call_product(ctx, z)) for z in points)
    assert worst < mpf(2) ** (-8 - prec)


def _compiled_theta(ctx, form, values, zf, rounded=True):
    """theta of one compiled argument at the fixed point zf (`factors.CompiledParts`), rounded once or as its Gaussian float."""
    parts = compile_parts(ctx, ((1, ThetaExpr(((form, 1),), len(zf)), values),))
    value = CompiledParts(ctx, parts).value(zf)
    return gauss_round(value, ctx._wp) if rounded else value


def _shifted_fixed_point(ctx, z, shift):
    """The fixed point of z moved by q s, as a coefficient value at z + q s reads it."""
    return tuple((r + dr, i + di) for (r, i), (dr, di) in zip(fixed_point(ctx, z), fixed_shift(ctx, Q, shift)))


@pytest.mark.parametrize("prec", [96, 256])
def test_product_formed_theta_values(prec):
    # theta of compiled arguments (n_a a + n_b b + num)/den + k_1 z_1 + k_2 z_2,
    # |n| <= 4 over den 1, 2 and 3, |k_j| <= 3, at points z and z + q s; each
    # value is formed from x0 = (-1)^m e(-n tau/2) e(c/2) prod_j e(z_j/2)^k_j,
    # products of the context's half-exponentials, and is checked against
    # ctx.theta at the exact argument
    ctx = CurveContext(TAU, prec)
    rng = random.Random(41 + prec)
    bound = mpf(2) ** (8 - prec)
    tau = mp.make_mpc(point_key(TAU))
    shifts = [(0, 0), (F(1, 2), F(-1, 2)), (1, 0), (F(-1, 2), F(3, 2))]
    nums = [n for n in range(-4, 5) if n]
    covered = set()
    for case in range(90):
        den, (na, nb), num = 1 + case % 3, rng.sample(nums, 2), rng.randint(-5, 5)
        k = (rng.randint(-3, 3), rng.randint(-3, 3))
        shift = shifts[case % 4]
        form = AffineForm({"a": F(na, den), "b": F(nb, den), "z1": k[0], "z2": k[1]}, F(num, den))
        with mp.workprec(600):
            a, b, *z = (mpc(rng.uniform(-0.5, 0.5), rng.uniform(-0.4, 0.4)) for _ in range(4))
            a += rng.randint(-3, 3) + rng.randint(-2, 2) * tau
            arg = (na * a + nb * b + num) / den + sum(kj * (zj + Q * sj) for kj, zj, sj in zip(k, z, shift))
        got = _compiled_theta(ctx, form, {"a": a, "b": b}, _shifted_fixed_point(ctx, z, shift))
        assert rel(got, ctx.theta(arg)) < bound, (case, form)
        _, m, n = ctx.lattice_reduce(arg)
        covered.add((m % 2, n != 0, num % (2 * den) != 0 and den > 1))
    assert covered == {(m, n, r) for m in (0, 1) for n in (False, True) for r in (False, True)}


@pytest.mark.parametrize("prec", [96, 256])
def test_product_formed_theta_near_a_zero(prec):
    # an argument (3 a + 1)/2 - 2 z1 at a distance |w0| of the lattice
    # point m + n tau, down to |w0| = 1e-9: the argument's fixed point and
    # x0 each carry an absolute error of a few units of 2^-F, so the
    # relative error is a few units of 2^-F/|w0|, and under 2^(8-prec)
    # where |w0| >= 1e-3
    ctx = CurveContext(TAU, prec)
    form = AffineForm({"a": F(3, 2), "z1": -2}, F(1, 2))
    tau = mp.make_mpc(point_key(TAU))
    for eps in ("1e-3", "1e-6", "1e-9"):
        for m, n, phase in ((1, 1, "0.1"), (-2, -1, "0.6"), (3, 2, "-0.3"), (0, 0, "0.35")):
            with mp.workprec(600):
                w0 = mpf(eps) * mp.expjpi(mpf(phase))
                z = (mpc("0.1234", "-0.0567"),)
                target = m + n * tau + w0
                a = (2 * (target + 2 * z[0]) - 1) / 3
            got = _compiled_theta(ctx, form, {"a": a}, fixed_point(ctx, z))
            err = rel(got, ctx.theta(target))
            assert err * abs(w0) < 16 * mpf(2) ** -ctx._fix, (eps, m, n)
            if abs(w0) >= mpf("1e-3"):
                assert err < mpf(2) ** (8 - prec), (eps, m, n)


@pytest.mark.parametrize("prec", [96, 256])
def test_product_formed_theta_is_the_first_comers_value(prec):
    # a + z1 at z and (2 b + 1)/2 + 2 z1 at z/2, b = a - 1/2, reach one
    # fixed-point key (every value is dyadic, so exact in fixed point): the
    # second reads the value the first formed, which agrees with the value
    # the second forms on a fresh context to 2^(8-prec)
    a, z = mpc("1.2109375", "2.0703125"), mpc("0.140625", "-0.046875")
    first_form, second_form = AffineForm({"a": 1, "z1": 1}), AffineForm({"b": 1, "z1": 2}, F(1, 2))
    second_at = ({"b": a - F(1, 2)}, (z / 2,))
    ctx, fresh = CurveContext(TAU, prec), CurveContext(TAU, prec)
    first = _compiled_theta(ctx, first_form, {"a": a}, fixed_point(ctx, (z,)), rounded=False)
    second = _compiled_theta(ctx, second_form, second_at[0], fixed_point(ctx, second_at[1]), rounded=False)
    own = _compiled_theta(fresh, second_form, second_at[0], fixed_point(fresh, second_at[1]), rounded=False)
    assert second == first
    assert own != first  # the two paths differ in their last bits
    own, first = gauss_round(own, ctx._wp), gauss_round(first, ctx._wp)
    assert rel(own, first) < mpf(2) ** (8 - prec)
    assert rel(first, ctx.theta(a + z)) < mpf(2) ** (8 - prec)


@pytest.mark.parametrize("prec", [96, 256])
def test_deep_root_of_unity_power(prec):
    # the constant 399/800 is the root of unity e(1/1600)^399 and -601/1000
    # is e(1/2000)^-601 (r = num mod 2den in (-den, den]): powers hundreds
    # deep, formed by squaring (a linear chain of products overflowed the
    # recursion limit past |k| ~ 330), against ctx.theta at the exact argument
    ctx = CurveContext(TAU, prec)
    z = mpc("0.1234", "-0.0567")
    for c in (F(399, 800), F(-601, 1000)):
        expr = ThetaExpr(((zvar(1) + AffineForm.const_form(c), 1),), 1)
        with mp.workprec(600):
            want = ctx.theta(z + mpf(c.numerator) / c.denominator)
        assert rel(expr.eval(ctx, {"z1": z}), want) < mpf(2) ** (8 - prec), c


@pytest.mark.parametrize("prec", [96, 256])
def test_e_takes_its_argument_exactly(prec):
    # e reduces x exactly: at x = 10^40 + 1/4 (135 bits) e(x) = i to F bits,
    # where 2 pi i x formed at the working precision lost x's 133 integer bits
    ctx = CurveContext(TAU, prec)
    with mp.workprec(200):
        x = mpf(10**40) + mpf(1) / 4
    assert abs(ctx.e(x) - mpc(0, 1)) < mpf(2) ** -prec
    z = mpc("0.3", "-0.2")
    with mp.workprec(2 * prec):
        want = mp.exp(2j * mp.pi * z)
    assert rel(ctx.e(z), want) < mpf(2) ** -prec
