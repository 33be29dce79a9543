from fractions import Fraction as F

from ccnops.families import lowering_star, lowering_starstar


def coefficients_at(op, z):
    """The coefficient of a `families.TrigOperator` at each of its shifts, at z."""
    return {k: cf(z) for k, cf in op.terms.items()}


def test_star_kills_constants_exactly():
    # z/(1-z^2) + z^{-1}/(1-z^{-2}) = 0, exact rational arithmetic
    for n in (1, 2):
        op = lowering_star(n, F(1, 4), F(1, 3))
        z = tuple(F(3 + i, 7 + 2 * i) for i in range(n))
        assert op.apply_with_sqrt(lambda w: F(1), z, F(1, 2)) == 0


def test_star_coefficients_c_symmetric():
    op = lowering_star(2, F(1, 4), F(1, 3))
    z = (F(3, 7), F(2, 9))
    coeffs = coefficients_at(op, z)
    zinv = (F(7, 3), F(2, 9))  # z_1 -> 1/z_1
    flipped = coefficients_at(op, zinv)
    # the coefficient at (s1, s2) at z equals the one at (-s1, s2) at 1/z_1
    for (s1, s2), val in coeffs.items():
        assert flipped[(-s1, s2)] == val


def test_starstar_is_gl_lowering():
    op = lowering_starstar(2, F(1, 4), F(1, 3))
    # S_n-invariance: symmetric input, swapped evaluation points agree
    f = lambda z: z[0] * z[1] + z[0] + z[1]
    v1 = op.apply_with_sqrt(f, (F(3, 7), F(2, 9)), F(1, 2))
    v2 = op.apply_with_sqrt(f, (F(2, 9), F(3, 7)), F(1, 2))
    assert v1 == v2


def test_starstar_kills_constants():
    # sum_I (-1)^{|I|} t^{..} prod (z_j - t z_i)/(z_j - z_i) / prod z = 0 on 1
    for n in (1, 2, 3):
        op = lowering_starstar(n, F(1, 4), F(1, 3))
        z = tuple(F(2 + i, 5 + i) for i in range(n))
        assert op.apply_with_sqrt(lambda w: F(1), z, F(1, 2)) == 0
