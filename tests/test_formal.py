import itertools
from fractions import Fraction as F

import pytest
from mpmath import mp, mpc, mpf

from ccnops.families import FourierKernel, first_order
from ccnops.formal import (
    FormalGaugedOperator,
    Tail,
    compare_gauged,
    gauged_from_operator,
)
from conftest import Q, T, TOL, rel, sample_points


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
    scaled = Tail(n, K.tail.keys, K.order, lambda c, k, z, tail: (1 + eps) * K.tail.eval(c, k, z))
    assert mpf("1e-7") < compare_gauged(ctx, K, _with_tail(K, scaled), pts) < mpf("1e-5")
    moved = FourierKernel(ctx, mpc("0.123", "0.221") + eps, Q, T, n, 3)
    assert mpf("1e-6") < compare_gauged(ctx, K, _with_tail(K, moved.tail), pts) < mpf("1e-3")


#: (n, key) for every key of a kernel of order 3 at n = 1 and 2
_KERNEL_KEYS = [(n, m) for n in (1, 2) for m in itertools.product(range(4), repeat=n) if sum(m) <= 3]


@pytest.mark.parametrize("swap", [False, True], ids=["nan-second", "nan-first"])
@pytest.mark.parametrize("n, key", _KERNEL_KEYS, ids=["n%d-m%s" % (n, "".join(map(str, m))) for n, m in _KERNEL_KEYS])
def test_compare_gauged_reads_inf_on_a_nan_coefficient(ctx, n, key, swap):
    # a NaN compares False with everything, so a max over the differences
    # would drop it and every fourier check would pass on a NaN kernel
    K = FourierKernel(ctx, mpc("0.123", "0.221"), Q, T, n, 3)
    nan = Tail(n, K.tail.keys, K.order, lambda c, k, z, tail: mpc(mp.nan) if k == key else K.tail.eval(c, k, z))
    F1, F2 = K, _with_tail(K, nan)
    if swap:
        F1, F2 = F2, F1
    assert compare_gauged(ctx, F1, F2, sample_points(n, 2)) == mp.inf


def test_compose_refuses_an_arity_mismatch(ctx):
    K1 = FourierKernel(ctx, mpc("0.123", "0.221"), Q, T, 1, 3)
    K2 = FourierKernel(ctx, mpc("0.123", "0.221"), Q, T, 2, 3)
    for A, B in ((K1, K2), (K2, K1)):
        with pytest.raises(ValueError, match="arity mismatch"):
            A.compose(B)


def test_compare_gauged_refuses_different_global_shifts(ctx):
    # c differs by 0.1, not by a multiple of q, so no rebasing lines the tails up
    K1 = FourierKernel(ctx, mpc("0.123", "0.221"), Q, T, 1, 3)
    K2 = FourierKernel(ctx, mpc("0.223", "0.221"), Q, T, 1, 3)
    with pytest.raises(ValueError, match="different global shifts"):
        compare_gauged(ctx, K1, K2, sample_points(1, 2))
