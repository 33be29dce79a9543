import itertools
import random
from fractions import Fraction as F

import pytest
from mpmath import mp, mpc, mpf

from ccnops.curve import CurveContext
from ccnops.weyl import (
    AffineRoot,
    automorphism_group,
    bruhat_interval,
    coroot_leq,
    discriminant_group,
    dominance_leq,
    hyperoctahedral_generators,
    invariant_dimension,
    inversion_set,
    inversion_set_bruteforce,
    numeric_rank,
    rank_certificate,
    sp_apply,
    sp_compose,
    sp_inverse,
    sp_matrix,
    signed_permutations,
    theta_basis_values,
    theta_symmetrization_rank,
    theta_symmetrization_rows,
    weight_orbit,
)
from conftest import even_positive_definite


def test_dominance_examples():
    assert dominance_leq((1, 1), (2, 0))
    assert not dominance_leq((2, 0), (1, 1))
    # odd difference sum: incomparable in the root-lattice order
    assert not dominance_leq((0, 0), (1, 0))
    assert not dominance_leq((1, 0), (0, 0))


def test_dominance_partial_order():
    rng = random.Random(11)
    weights = []
    while len(weights) < 24:
        w = tuple(sorted((rng.randrange(4) for _ in range(3)), reverse=True))
        weights.append(w)
    for _ in range(200):
        a, b, c = rng.choice(weights), rng.choice(weights), rng.choice(weights)
        assert dominance_leq(a, a)
        if dominance_leq(a, b) and dominance_leq(b, a):
            assert a == b
        if dominance_leq(a, b) and dominance_leq(b, c):
            assert dominance_leq(a, c)


def test_weight_orbits():
    assert weight_orbit((0, 0)) == {(0, 0)}
    assert weight_orbit((1, 0)) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert len(weight_orbit((F(1, 2), F(1, 2)))) == 4


def test_bruhat_intervals():
    assert bruhat_interval((1, 1)) == [(F(0), F(0)), (F(1), F(1))]
    assert bruhat_interval((2, 0)) == [(F(0), F(0)), (F(1), F(1)), (F(2), F(0))]
    # the half-integer example needs the coroot lattice
    got = bruhat_interval((F(3, 2), F(1, 2)), lattice="coroot")
    assert got == [(F(1, 2), F(1, 2)), (F(3, 2), F(1, 2))]
    # downward closure + consistency with the corresponding order
    for lam, lattice in (((2, 2), "root"), ((2, 1), "coroot")):
        leq = dominance_leq if lattice == "root" else coroot_leq
        interval = bruhat_interval(lam, lattice=lattice)
        for mu in interval:
            assert leq(mu, tuple(F(x) for x in lam))
            sub = bruhat_interval(mu, lattice=lattice)
            for nu in sub:
                assert nu in interval


def test_inversion_sets():
    got = {(r.kind, r.i, r.j, r.level) for r in inversion_set((1, 0))}
    assert got == {("diff", 0, 1, 0), ("sum", 0, 1, 0)}
    got = {(r.kind, r.i, r.j, r.level) for r in inversion_set((1, 1))}
    assert got == {("sum", 0, 1, 0), ("sum", 0, 1, 1)}
    assert inversion_set((0, 0)) == []


def test_inversion_against_bruteforce():
    for lam in ((1, 0), (1, 1), (2, 1), (3, 1), (F(3, 2), F(1, 2))):
        a = sorted((r.kind, r.i, r.j, r.level) for r in inversion_set(lam))
        b = sorted((r.kind, r.i, r.j, r.level) for r in inversion_set_bruteforce(lam))
        assert a == b
        # cardinality = sum of positive pairings, levels within [0, pairing)
        total = 0
        for r in inversion_set(lam):
            assert 0 <= r.level < r.pairing(tuple(F(x) for x in lam))
            total += 1
        from ccnops.weyl import positive_finite_roots

        want = sum(
            max(int(r.pairing(tuple(F(x) for x in lam))), 0)
            for r in positive_finite_roots(len(lam))
        )
        assert total == want


def test_group_action_structure():
    rng = random.Random(12)
    els = signed_permutations(3)
    for _ in range(30):
        w1, w2 = rng.choice(els), rng.choice(els)
        v = tuple(F(rng.randrange(-3, 4)) for _ in range(3))
        assert sp_apply(sp_compose(w1, w2), v) == sp_apply(w1, sp_apply(w2, v))
        assert sp_apply(sp_inverse(w1), sp_apply(w1, v)) == v


def test_invariant_dimension_examples():
    assert invariant_dimension([[2]], [[[-1]]]) == 2
    gens = [sp_matrix(g) for g in hyperoctahedral_generators(2)]
    assert invariant_dimension([[2, 0], [0, 2]], gens) == 3
    assert invariant_dimension([[4, 1], [1, 4]], []) == 15


def test_invariant_dimension_validates_inputs():
    with pytest.raises(ValueError):
        invariant_dimension([[2, 0], [0, 2]], [[[1, 1], [0, 1]]])  # not an isometry
    with pytest.raises(ValueError):
        invariant_dimension([[1]], [])  # odd diagonal
    with pytest.raises(ValueError):
        invariant_dimension([[-2]], [])  # not positive definite


def test_theta_rank_oracle_basic():
    assert theta_symmetrization_rank([[2]], [[[-1]]]) == 2
    gens = [sp_matrix(g) for g in hyperoctahedral_generators(2)]
    assert theta_symmetrization_rank([[2, 0], [0, 2]], gens) == 3


def test_automorphism_group_preserves():
    Q = [[2, 1], [1, 2]]
    auts = automorphism_group(Q)
    assert len(auts) == 12  # the hexagonal lattice
    assert invariant_dimension(Q, auts) == theta_symmetrization_rank(Q, auts)


#: the rank oracle's default context
ORACLE_CTX = CurveContext(mpc("0.06", "1.13"), 96)
BASIS_FORMS = ([[2]], [[8]], [[2, 1], [1, 4]])


def _oracle_points(n, count=2, seed=29):
    rng = random.Random(seed)
    return [
        tuple(mpc(rng.uniform(-0.45, 0.45), rng.uniform(-0.35, 0.35)) for _ in range(n))
        for _ in range(count)
    ]


#: points far off the real axis, Im z_j = +-0.9, where the terms' Gaussian
#: is centred away from m = 0 and the truncation must widen with the points
FAR_POINTS = {
    1: [(mpc("0.17", "0.9"),), (mpc("-0.23", "-0.9"),)],
    2: [
        (mpc("0.17", "0.9"), mpc("-0.31", "0.9")),
        (mpc("-0.23", "0.9"), mpc("0.08", "-0.9")),
        (mpc("0.41", "-0.9"), mpc("-0.12", "-0.9")),
    ],
}
BASIS_CASES = [pytest.param(Q, False, id=str(Q)) for Q in BASIS_FORMS] + [
    pytest.param(Q, True, id=str(Q) + "-far") for Q in ([[8]], [[2, 1], [1, 4]])
]


def _theta_by_definition(ctx, Q, c, z):
    """sum over m in Z^n + c of e(m^T Q m tau/2 + m^T Q z), term by term.

    The box |m - c| <= 12 holds every term above 2^-(prec + 32) at the test
    points, far points included.
    """
    n = len(Q)
    total = mpc(0)
    with mp.workprec(ctx._wp):
        for m0 in itertools.product(range(-12, 13), repeat=n):
            m = [m0[i] + mpf(c[i].numerator) / c[i].denominator for i in range(n)]
            quad = sum(m[i] * Q[i][j] * m[j] for i in range(n) for j in range(n))
            lin = sum(m[i] * Q[i][j] * z[j] for i in range(n) for j in range(n))
            total += ctx.e(quad * ctx.tau / 2 + lin)
    return total


@pytest.mark.parametrize("Q, far", BASIS_CASES)
def test_theta_basis_values_match_the_definition(Q, far):
    pts = FAR_POINTS[len(Q)] if far else _oracle_points(len(Q))
    rows = theta_basis_values(Q, pts, ORACLE_CTX)
    elements = discriminant_group(Q)
    assert len(rows) == len(elements)
    for c, row in zip(elements, rows):
        for z, got in zip(pts, row):
            want = _theta_by_definition(ORACLE_CTX, Q, c, z)
            assert abs(got - want) / abs(want) < mpf("1e-25"), (c, z)


@pytest.mark.parametrize("prec", [96, 256])
def test_theta_basis_values_against_300_more_bits(prec):
    # the integer Horner rows against the same code 300 bits up, relative to
    # each column's largest entry; Im z_j up to 0.8 and the far points make
    # |y| small for Q_nn = 8, where y taken at an absolute scale 2^-F loses bits
    tau = ORACLE_CTX.tau
    ctx, ref = CurveContext(tau, prec), CurveContext(tau, prec + 300)
    for Q in even_positive_definite(8):
        n = len(Q)
        rng = random.Random(31 + n)
        seeded = [tuple(mpc(rng.uniform(-0.45, 0.45), rng.uniform(-0.8, 0.8)) for _ in range(n)) for _ in range(3)]
        for pts in (seeded, FAR_POINTS[n]):
            got, want = theta_basis_values(Q, pts, ctx), theta_basis_values(Q, pts, ref)
            for j in range(len(pts)):
                top = max(abs(row[j]) for row in want)
                worst = max(abs(g[j] - w[j]) for g, w in zip(got, want))
                assert worst <= top * mpf(2) ** (4 - prec), (Q, pts[j], worst / top * mpf(2) ** prec)


@pytest.mark.parametrize("Q", BASIS_FORMS, ids=str)
def test_theta_basis_values_are_periodic(Q):
    n = len(Q)
    z = _oracle_points(n, 1)[0]
    shifted = [tuple(z[i] + (i == j) for i in range(n)) for j in range(n)]
    for row in theta_basis_values(Q, [z] + shifted, ORACLE_CTX):
        for val in row[1:]:
            assert abs(val - row[0]) / abs(row[0]) < mpf("1e-25")


def _assert_rank_gap(Q, ctx):
    # the rank is read from a certified gap far above the 1e6 threshold; at
    # full rank the gap is measured against the rounding floor of the
    # Frobenius norm, which bounds the largest singular value
    prec = ctx.prec
    for gens in ([], automorphism_group(Q)):
        rows = theta_symmetrization_rows(Q, gens, ctx)
        cert = rank_certificate(rows, prec)
        assert cert.rank == numeric_rank(rows, prec=prec) == invariant_dimension(Q, gens), (Q, len(gens))
        below = cert.upper or mp.sqrt(sum(abs(x) ** 2 for row in rows for x in row)) * mpf(2) ** -prec
        assert cert.lower / below >= mpf("1e20"), (Q, len(gens), cert.rank)


@pytest.mark.parametrize("Q", BASIS_FORMS + ([[2, 0], [0, 2]], [[2, 1], [1, 2]]), ids=str)
def test_theta_rank_gap(Q):
    _assert_rank_gap(Q, ORACLE_CTX)


@pytest.mark.parametrize("tau", [mpc("-0.21", "1.13"), mpc("0.18", "1.6")], ids=str)
def test_theta_rank_gap_at_other_moduli(tau):
    # the oracle's ranks and gaps do not hinge on its default modulus
    ctx = CurveContext(tau, 96)
    for Q in even_positive_definite(8):
        _assert_rank_gap(Q, ctx)


def test_numeric_rank_of_rounding_noise_is_zero():
    # every singular value of 1e-80 noise lies below the floor 2^-128
    rng = random.Random(43)
    rows = [[mpc(rng.gauss(0, 1), rng.gauss(0, 1)) * mpf("1e-80") for _ in range(4)] for _ in range(6)]
    assert numeric_rank(rows, prec=256) == 0
