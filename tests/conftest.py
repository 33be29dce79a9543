import random

import pytest
from mpmath import mp, mpc, mpf

#: the tests' own input precision: constants and derived inputs of the tests
#: are formed at 320 bits; the library computes at each context's precision
INPUT_PREC = 320

mp.prec = INPUT_PREC  # for the module constants parsed at import

from ccnops.diffop import op_defect, rel_defect as rel  # noqa: E402,F401 (shared with the test modules)

TAU = mpc("0.13", "1.09")
Q = mpc("0.21", "0.39")
T = mpc("0.31", "0.17")
ETA = mpc("0.17", "0.11")
TOL = mpf("1e-25")


@pytest.fixture(autouse=True)
def input_precision():
    """Pin the input precision before each test; a CLI session run earlier may have changed it."""
    mp.prec = INPUT_PREC


@pytest.fixture(scope="session")
def ctx():
    from ccnops.curve import CurveContext

    return CurveContext(TAU, 256)


@pytest.fixture(scope="session")
def xs8():
    rng = random.Random(5)
    return [mpc(rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2)) for _ in range(8)]


def sample_points(n, count=2, seed=101):
    rng = random.Random(seed)
    return [
        tuple(mpc(rng.uniform(-0.35, 0.35), rng.uniform(-0.25, 0.25)) for _ in range(n))
        for _ in range(count)
    ]


def even_positive_definite(max_det):
    """Even positive definite forms of rank 1 and 2 with det <= max_det.

    Rank 2 takes one [[a, b], [b, c]] per a <= c and 0 <= b <= a/2.
    """
    mats = [[[d]] for d in range(2, max_det + 1, 2)]
    seen = set()
    for a in range(2, 2 * max_det + 1, 2):
        for c in range(a, 2 * max_det + 1, 2):
            for b in range(0, a // 2 + 1):
                det = a * c - b * b
                if 0 < det <= max_det:
                    key = (a, b, c)
                    if key not in seen:
                        seen.add(key)
                        mats.append([[a, b], [b, c]])
    return mats
