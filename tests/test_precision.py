"""Library results do not depend on mpmath's global mp.prec.

Each case builds its contexts and operators from the same module-level
inputs twice, once under a 53-bit global precision and once at the tests'
320 bits, and the two runs must give the same exact values: precision flows
from the CurveContext alone.
"""

import random
from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf

from ccnops.conditions import (
    check_residue,
    check_vanishing,
    enumerate_conditions,
    section_solve_first_order,
    vandiejen_model,
)
from ccnops.curve import CurveContext, point_key
from ccnops.diffop import DegreeVector, op_defect
from ccnops.families import FourierKernel, d_cascade, first_order
from ccnops.formal import compare_gauged, gauged_from_operator
from ccnops.symbols import AffineForm
from ccnops.weyl import (
    automorphism_group,
    invariant_dimension,
    numeric_rank,
    svd_spectrum,
    theta_symmetrization_rows,
)
from conftest import ETA, Q, T, TAU, TOL, rel, sample_points

US = [mpc("0.12", "0.05"), mpc("-0.07", "0.11"), mpc("0.21", "-0.13")]
MEMBER_US = US + [Q + ETA - sum(US)]  # balanced: sum(u) = q + eta'
PROBES = (mpc("0.111", "0.077"), mpc("-0.081", "0.133"))
C = mpc("0.13", "-0.07")
F_SHIFTS = (mpc("0.3", "0.1"), mpc("0.2", "0.05"))
LATTICE_Q = ((2, 1), (1, 4))
ORACLE_TAU = mpc("0.06", "1.13")
_XS_RNG = random.Random(5)
XS8 = [mpc(_XS_RNG.uniform(-0.3, 0.3), _XS_RNG.uniform(-0.2, 0.2)) for _ in range(8)]


def _exact(x):
    """Nested lists of numbers as nested tuples of exact point keys."""
    if isinstance(x, (list, tuple)):
        return tuple(_exact(v) for v in x)
    if isinstance(x, (bool, str)):
        return x
    return point_key(x)


def _first_order_nullspace(n, dim):
    def case():
        _, null, _ = section_solve_first_order(CurveContext(TAU, 256), n, 1, ETA, Q, T)
        assert len(null) == dim
        return null

    return case


def _vandiejen_rows():
    # the integer residue path: arguments, thetas and residues
    model = vandiejen_model(CurveContext(TAU, 256), XS8, Q, T, 1)
    specs = enumerate_conditions(model.degree, model.lam, model.params, 1)
    rows = model.condition_rows([s for s in specs if s.kind == "residue-pair"])
    assert len(rows) == 24
    return rows


def _checker_records():
    ctx = CurveContext(TAU, 256)
    D = first_order(MEMBER_US, T, Q, 2)
    lam = (Fraction(1, 2), Fraction(1, 2))
    specs = enumerate_conditions((DegreeVector(), DegreeVector(0, 1, 1)), lam, D.params, 2)
    env = {"q": Q, "t": T, "eta_prime": ETA}
    records = []
    for report in (check_residue(ctx, D, specs, env, samples=1), check_vanishing(ctx, D, specs, env, samples=1)):
        assert report.records and report.passed
        records += [(r.spec_id, r.defect, r.passed) for r in report.records]
    return records


def _cascade_probe_independence():
    ctx = CurveContext(TAU, 256)
    Da, Db = (d_cascade(2, Q, T, 2, u) for u in PROBES)
    pts = sample_points(2, 2)
    defect = op_defect(ctx, Da, Db, pts)
    assert defect < mpf("1e-60")
    return [defect] + [Da.eval_coeff(ctx, k, z) for z in pts for k in Da.support()]


def _compose_against_nested_apply():
    ctx = CurveContext(TAU, 256)
    A = first_order(US[:2], T, Q, 2)
    B = first_order(US[1:], T, Q, 2)
    f = lambda z: ctx.theta(z[0] + F_SHIFTS[0]) * ctx.theta(z[1] - F_SHIFTS[1])
    out = []
    for z in sample_points(2, 2):
        a = A.compose(B).apply(ctx, f, z)
        b = A.apply(ctx, lambda w: B.apply(ctx, f, w), z)
        assert rel(a, b) < TOL
        out += [a, b]
    return out


def _fourier_tail_and_compare():
    ctx = CurveContext(TAU, 256)
    pts = sample_points(1, 2)
    K = FourierKernel(ctx, C, Q, T, 1, 3)
    tails = [K.tail_value(m, z) for z in pts for m in sorted(K.tail.entries)]
    Km = FourierKernel(ctx, AffineForm.var("q", Fraction(-1, 2)), Q, T, 1, 3)
    defect = compare_gauged(ctx, Km, gauged_from_operator(first_order([], T, Q, 1)), pts, order=1)
    assert defect < TOL
    return tails + [defect]


def _theta_symmetrization_rows():
    ctx = CurveContext(ORACLE_TAU, 96)
    gens = automorphism_group(LATTICE_Q)
    rows = theta_symmetrization_rows(LATTICE_Q, gens, ctx)
    rank = numeric_rank(rows, prec=ctx.prec)
    assert rank == invariant_dimension(LATTICE_Q, gens)
    svals = svd_spectrum(rows, ctx.prec)
    assert svals[rank - 1] / svals[rank] > mpf("1e30")
    return rows


CASES = {
    "first-order-n1-d1": _first_order_nullspace(1, 4),
    "first-order-n2-d1": _first_order_nullspace(2, 10),
    "checkers": _checker_records,
    "cascade": _cascade_probe_independence,
    "compose-apply": _compose_against_nested_apply,
    "fourier": _fourier_tail_and_compare,
    "theta-lattice": _theta_symmetrization_rows,
    "vandiejen-n1-rows": _vandiejen_rows,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_results_do_not_depend_on_global_precision(name):
    with mp.workprec(53):
        low = _exact(CASES[name]())
    high = _exact(CASES[name]())
    assert low == high
