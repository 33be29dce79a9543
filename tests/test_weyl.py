import itertools
import math
import random
from fractions import Fraction as F

import pytest
from mpmath import mp, mpc, mpf

from ccnops import weyl
from ccnops.curve import CurveContext, gauss_round
from ccnops.weyl import (
    _det_int,
    _seeded_base_points,
    _q_inverse,
    AffineRoot,
    act,
    as_weight,
    automorphism_group,
    bruhat_interval,
    coroot_leq,
    discriminant_group,
    group_closure,
    hyperoctahedral_generators,
    invariant_dimension,
    inversion_set,
    numeric_rank,
    positive_finite_roots,
    positive_roots,
    rank_certificate,
    signed_permutations,
    theta_symmetrization_rank,
    theta_symmetrization_rows,
    weight_orbit,
)
from conftest import even_positive_definite


def test_weight_orbits():
    assert weight_orbit((0, 0)) == {(0, 0)}
    assert weight_orbit((1, 0)) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert len(weight_orbit((F(1, 2), F(1, 2)))) == 4


def test_bruhat_intervals():
    # coroot intervals hold (1, 0), whose differences from (1, 1) and (2, 0) have odd sums
    assert bruhat_interval((1, 1)) == [(F(0), F(0)), (F(1), F(0)), (F(1), F(1))]
    assert bruhat_interval((2, 0)) == [(F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(2), F(0))]
    got = bruhat_interval((F(3, 2), F(1, 2)))
    assert got == [(F(1, 2), F(1, 2)), (F(3, 2), F(1, 2))]
    # downward closure + consistency with the coroot order
    for lam in ((2, 2), (2, 1), (F(5, 2), F(3, 2), F(1, 2))):
        interval = bruhat_interval(lam)
        for mu in interval:
            assert coroot_leq(mu, tuple(F(x) for x in lam))
            for nu in bruhat_interval(mu):
                assert nu in interval


def test_inversion_sets():
    assert inversion_set((1, 0)) == [AffineRoot((1, -1), 0), AffineRoot((1, 1), 0)]
    assert inversion_set((1, 1)) == [AffineRoot((1, 1), 0), AffineRoot((1, 1), 1)]
    assert inversion_set((0, 0)) == []


SHIFTS = (F(-1), F(-1, 2), F(0), F(1, 2), F(1))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_affine_root_reflection_and_exponent(n):
    # every positive root of type C at levels -3..3, on every shift with
    # entries in {-1, -1/2, 0, 1/2, 1}: s_(beta + m q) is an involution that
    # sends <beta, k> to 2m - <beta, k>, and agrees with the per-kind
    # formulas, as does the pair exponent
    roots = positive_roots(n)
    assert len(roots) == n * n
    for beta in roots:
        i, *rest = [j for j, c in enumerate(beta.coeffs) if c]
        for m in range(-3, 4):
            root = beta.at_level(m)
            for k in itertools.product(SHIFTS, repeat=n):
                k2 = root.reflect(k)
                assert all(isinstance(x, F) for x in k2)
                assert root.reflect(k2) == k
                assert root.pairing(k2) == 2 * m - root.pairing(k)
                want = list(k)
                if not rest:
                    want[i] = m - k[i]
                    exponent = m - 2 * k[i]
                else:
                    j = rest[0]
                    if beta.coeffs[j] == 1:
                        want[i], want[j] = m - k[j], m - k[i]
                    else:
                        want[i], want[j] = k[j] + m, k[i] - m
                    exponent = 2 * (m - k[i] - beta.coeffs[j] * k[j])
                assert k2 == tuple(want)
                assert root.exponent(k) == int(exponent)


def _inversion_set_bruteforce(lam):
    """Oracle: explicit sign check of t_lam on affine roots of type D and bounded level."""
    lam = as_weight(lam)
    n = len(lam)
    max_level = int(2 * max([abs(x) for x in lam] + [F(1)])) + 2
    out = []
    for root in positive_finite_roots(n):
        c = root.pairing(lam)
        for m in range(0, max_level + 1):
            # t_lam sends beta + m q to beta + (m - <beta,lam>) q, which is
            # negative iff its level is below 0 (at level 0, beta stays positive)
            m2 = F(m) - c
            if m2 < 0:
                out.append(root.at_level(m))
    return out


def test_inversion_against_bruteforce():
    for lam in ((1, 0), (1, 1), (2, 1), (3, 1), (F(3, 2), F(1, 2))):
        a = sorted((r.coeffs, r.level) for r in inversion_set(lam))
        b = sorted((r.coeffs, r.level) for r in _inversion_set_bruteforce(lam))
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
    # composition is the matrix product and the inverse is the transpose
    rng = random.Random(12)
    els = signed_permutations(3)
    for _ in range(30):
        w1, w2 = rng.choice(els), rng.choice(els)
        v = tuple(F(rng.randrange(-3, 4)) for _ in range(3))
        assert act(weyl._mat_mul(w1, w2), v) == act(w1, act(w2, v))
        assert act(weyl._mat_T(w1), act(w1, v)) == v
        assert weyl._mat_mul(weyl._mat_T(w1), w1) == weyl._identity(3)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_signed_permutations_are_the_group_the_generators_generate(n):
    els = signed_permutations(n)
    assert len(els) == len(set(els)) == 2**n * math.factorial(n)
    assert set(els) == set(group_closure(hyperoctahedral_generators(n)))


def test_signed_permutations_keep_their_enumeration_order():
    # permutations in lexicographic order, then signs in itertools.product order:
    # conditions._orbit_coefficients keeps the first w that reaches each shift
    assert signed_permutations(2) == [
        ((1, 0), (0, 1)),
        ((1, 0), (0, -1)),
        ((-1, 0), (0, 1)),
        ((-1, 0), (0, -1)),
        ((0, 1), (1, 0)),
        ((0, 1), (-1, 0)),
        ((0, -1), (1, 0)),
        ((0, -1), (-1, 0)),
    ]


def test_invariant_dimension_examples():
    assert invariant_dimension([[2]], [[[-1]]]) == 2
    assert invariant_dimension([[2, 0], [0, 2]], hyperoctahedral_generators(2)) == 3
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
    assert theta_symmetrization_rank([[2, 0], [0, 2]], hyperoctahedral_generators(2)) == 3


def test_rank_oracle_rejects_a_generator_that_does_not_preserve_q():
    # the translate rule g^T k and the bound ||g u||_Q = ||u||_Q both need g^T Q g = Q
    for oracle in (theta_symmetrization_rows, theta_symmetrization_rank):
        with pytest.raises(ValueError, match=r"generator \[\[1, 1\], \[0, 1\]\] does not preserve Q"):
            oracle([[2, 0], [0, 2]], [[[1, 1], [0, 1]]], ORACLE_CTX)


def _discriminant_by_fractions(Q):
    """Q^-1 Z^n / Z^n enumerated in Fractions, Q^-1 k mod 1 over k in [0, |det Q|)^n, sorted."""
    n = len(Q)
    qinv = _q_inverse(Q)
    seen = {
        tuple(sum(qinv[i][j] * k[j] for j in range(n)) % 1 for i in range(n))
        for k in itertools.product(range(abs(_det_int(Q))), repeat=n)
    }
    return sorted(seen)


A3 = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]


@pytest.mark.parametrize("Q", even_positive_definite(8) + [A3], ids=str)
def test_integer_discriminant_group_matches_the_fraction_enumeration(Q, monkeypatch):
    # the same Fractions in the same order, and the same invariant dimension
    # under the full automorphism group with either enumeration
    got = discriminant_group(Q)
    assert got == _discriminant_by_fractions(Q)
    assert all(type(x) is F for c in got for x in c)
    auts = automorphism_group(Q)
    dim = invariant_dimension(Q, auts)
    monkeypatch.setattr(weyl, "discriminant_group", _discriminant_by_fractions)
    assert invariant_dimension(Q, auts) == dim


def test_automorphism_group_preserves():
    Q = [[2, 1], [1, 2]]
    auts = automorphism_group(Q)
    assert len(auts) == 12  # the hexagonal lattice
    assert invariant_dimension(Q, auts) == theta_symmetrization_rank(Q, auts)


@pytest.mark.parametrize("Q, shear", [([[2, 5], [5, 14]], 2), ([[2, 7], [7, 26]], 3)], ids=str)
def test_automorphism_group_of_a_non_reduced_form(Q, shear):
    # A2 in another basis, g^T A2 g for g = [[1, shear], [0, 1]]: its
    # isometries have coordinates beyond a box of isqrt(max Q_jj n) + 2,
    # which found 10 and 6 of the 12, and those 10 were not a group
    g = ((1, shear), (0, 1))
    assert weyl._mat_mul(weyl._mat_T(g), weyl._mat_mul(((2, 1), (1, 2)), g)) == tuple(map(tuple, Q))
    auts = automorphism_group(Q)
    assert len(auts) == 12
    assert sorted(auts) == weyl.group_closure(auts)


@pytest.mark.parametrize("Q", [[[2, 3], [3, 2]], [[0]], [[2, 1], [1, 0]]], ids=str)
def test_automorphism_group_rejects_a_form_that_is_not_positive_definite(Q):
    # an indefinite or singular form can have infinitely many isometries, and
    # Cauchy-Schwarz bounds no search box for it
    with pytest.raises(ValueError, match="positive definite"):
        automorphism_group(Q)


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


def theta_basis_values(Q, points, ctx):
    """The degree-Q theta basis at `points`: one row per c of `discriminant_group(Q)`.

    The reference view of the rank oracle: `weyl._theta_basis` at the
    identity group, each value rounded once to `ctx._wp` bits.
    """
    with mp.workprec(ctx._wp):
        rows = weyl._theta_basis(Q, discriminant_group(Q), points, [weyl._identity(len(Q))], ctx)
        return [[gauss_round(v, ctx._wp) for v in row] for row in rows]


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


def test_every_half_exponential_is_one_call_of_e(monkeypatch):
    # half_e reads e(b/2) from e, the context's one exponential, so counting
    # e counts every exponential: the theta weights' base tau/4 at
    # construction, the rank oracle's bases (each coordinate of a base point
    # and tau/d) and a theta's exact w0
    calls = []
    for name in ("e", "half_e"):
        original = getattr(CurveContext, name)

        def spy(self, *args, _name=name, _original=original):
            calls.append(_name)
            return _original(self, *args)

        monkeypatch.setattr(CurveContext, name, spy)
    ctx = CurveContext(mpc("0.1", "1.1"), 96)
    built = len(calls)
    A2 = [[2, -1], [-1, 2]]
    assert theta_symmetrization_rank(A2, automorphism_group(A2), ctx=ctx) == invariant_dimension(A2, automorphism_group(A2))
    ctx.theta(mpc("0.17", "0.23"))
    assert built == 2 and len(calls) > built
    assert calls.count("e") == calls.count("half_e")


@pytest.mark.parametrize("prec", [96, 256])
def test_translated_columns_match_direct_evaluation(prec):
    # the oracle evaluates f_c(g z) at pairs (z, g), with exponents g^T k on
    # the base point's e(z_j); here the points g z are formed explicitly and
    # the basis there is averaged over the full automorphism group
    ctx = CurveContext(ORACLE_CTX.tau, prec)
    for Q in even_positive_definite(8):
        n, group = len(Q), automorphism_group(Q)
        got = theta_symmetrization_rows(Q, group, ctx)
        bases = _seeded_base_points(n, len(got) + 3)
        translated = [tuple(sum(g[i][j] * z[j] for j in range(n)) for i in range(n)) for z in bases for g in group]
        direct = theta_basis_values(Q, translated, ctx)
        for j in range(len(bases)):
            want = [sum(row[j * len(group) : (j + 1) * len(group)]) / len(group) for row in direct]
            top = max(abs(w) for w in want)
            worst = max(abs(row[j] - w) for row, w in zip(got, want))
            assert worst <= top * mpf(2) ** (8 - prec), (Q, j, worst / top * mpf(2) ** prec)


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
