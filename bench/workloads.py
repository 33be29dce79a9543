"""The benchmark's workloads: seeded inputs, one timed pass, correctness gates.

Each workload turns a seed into a fixed batch of inputs (``inputs``) and runs
one pass over it (``run_pass``).  A pass times only the calls a user would
wait for, through ``Meter.timed``; every operation then goes through an
untimed correctness gate and yields one ``Outcome``.  Operations that raise
are caught here, counted as failed, and never dropped.  See NOTES.md for why
each workload was chosen.
"""

from __future__ import annotations

import random
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mpc, mpf

#: suite tolerance the CLI applies (its "tol" default); every check must pass it
TOL = mpf("1e-25")

#: suite checks whose defect is set by the Fourier kernel's truncation order,
#: not by the working precision; they are gated at TOL but kept out of
#: defect_digits, where their 1e-42..1e-50 would mask a loss of precision
TRUNCATION_LIMITED = ("fourier/",)

#: relative size of the perturbation in the soundness control
SOUNDNESS_EPS = mpf("1e-6")

#: (family, n, d') solved on `solve`; van Diejen n=2 (81 s a solve) is left out
SOLVE_MIX = (
    ("first-order", 1, 2),
    ("first-order", 2, 1),
    ("first-order", 2, 2),
    ("van-diejen", 1, None),
)

#: suites run on `verify`, with the n each one runs at
VERIFY_SUITES = (
    ("kernel-identities", 2),
    ("operator-algebra", 2),
    ("cascade", 2),
    ("fourier", 2),
    ("van-diejen", 1),
)

#: criterion-11 forms with det <= 8
LATTICE_FORMS = (
    ((2,),),
    ((4,),),
    ((6,),),
    ((8,),),
    ((2, 0), (0, 2)),
    ((2, 1), (1, 2)),
    ((2, 0), (0, 4)),
    ((2, 1), (1, 4)),
)

#: Im(tau) of the lattice oracle's own default context.  The truncation
#: radius is a step function of Im(tau), so it is held fixed to keep the
#: work per pass independent of the seed.
LATTICE_IM_TAU = 1.13
LATTICE_PREC = 96

# CLI defaults; the seed perturbs each around these values
BASE = {"tau": 0.13 + 1.09j, "q": 0.21 + 0.39j, "t": 0.31 + 0.17j, "eta_prime": 0.17 + 0.11j}


@dataclass(frozen=True)
class Outcome:
    op: str
    ok: bool
    detail: object = None  # dimension, rank or defect, for the run log
    defect: float | None = None  # relative defect that feeds defect_digits


class Meter:
    """Accumulates wall and process CPU time over the timed parts of a pass.

    With a tracer, spans are recorded inside the timed parts only, so the
    untimed correctness gates never show in the per-layer metrics.  With a
    host sampler, reference samples are taken inside the timed parts only,
    and their own time is left out of ``wall`` and ``cpu``.
    """

    def __init__(self, tracer=None, sampler=None):
        self.wall = 0.0
        self.cpu = 0.0
        self.tracer = tracer
        self.sampler = sampler

    @contextmanager
    def timed(self):
        tracer, sampler = self.tracer, self.sampler
        if sampler:
            sampler.start()
            sw0, sc0 = sampler.wall, sampler.cpu
        if tracer:
            tracer.on = True
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            if tracer:
                tracer.on = False
            if sampler:
                sampler.stop()
                w0 += sampler.wall - sw0
                c0 += sampler.cpu - sc0
            self.wall += time.perf_counter() - w0
            self.cpu += time.process_time() - c0


def _failed(op, exc):
    traceback.print_exception(type(exc), exc, exc.__traceback__, file=sys.stderr)
    return Outcome(op, False, "%s: %s" % (type(exc).__name__, exc))


def _cnum(z):
    return "%.12f%+.12fj" % (z.real, z.imag)


def _near(rng, z, re, im):
    return z + complex(rng.uniform(-re, re), rng.uniform(-im, im))


def _session_overrides(rng, **extra):
    """A CLI configuration whose parameters are seeded perturbations of the defaults."""
    cfg = {
        "tau": _cnum(_near(rng, BASE["tau"], 0.05, 0.03)),
        "q": _cnum(_near(rng, BASE["q"], 0.03, 0.03)),
        "t": _cnum(_near(rng, BASE["t"], 0.03, 0.03)),
        "eta_prime": _cnum(_near(rng, BASE["eta_prime"], 0.03, 0.03)),
        "seed": str(rng.randrange(1, 10**6)),
    }
    cfg.update({k: str(v) for k, v in extra.items()})
    return cfg


def _draw_u(rng):
    return complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2))


# ---------------------------------------------------------------------------
# solve: seeded section solves, a fresh session and CurveContext each


@dataclass(frozen=True)
class SolveItem:
    family: str
    n: int
    dprime: int | None
    overrides: tuple  # sorted (key, value) pairs for cli.load_config
    gate_seed: int

    @property
    def label(self):
        return "solve %s n=%d d'=%s" % (self.family, self.n, self.dprime)


@dataclass(frozen=True)
class SolveInputs:
    items: tuple

    @property
    def setup_overrides(self):
        return dict(self.items[0].overrides)


def solve_inputs(seed):
    rng = random.Random("solve:%d" % seed)
    items = []
    for family, n, dprime in SOLVE_MIX:
        extra = {"n": n}
        if family == "van-diejen":
            extra.update({"x%d" % (j + 1): _cnum(_draw_u(rng)) for j in range(8)})
        cfg = _session_overrides(rng, **extra)
        items.append(SolveItem(family, n, dprime, tuple(sorted(cfg.items())), rng.randrange(10**6)))
    return SolveInputs(tuple(items))


def expected_dimension(family, n, dprime):
    """Section-space dimensions the tier-1 tests assert."""
    if family == "van-diejen":
        return n + 1
    K = 2 * dprime + 2
    return K if n == 1 else K * (K + 1) // 2


def solve_one(prog, item):
    """One `ccnops solve-section` invocation: returns (session, model, nullspace)."""
    S = prog.cli.session_from_config(prog.cli.load_config(None, dict(item.overrides)))
    cond = prog.conditions
    if item.family == "first-order":
        model, null, _ = cond.section_solve_first_order(
            S["ctx"], S["n"], item.dprime, S["eta_prime"], S["q"], S["t"], seed=S["seed"]
        )
    else:
        model, null = cond.vandiejen_nullspace(S["ctx"], S["xs"], S["q"], S["t"], S["n"], seed=S["seed"])
    return S, model, null


def gate_solve(prog, item, S, model, null):
    """Dimension must match; one solved operator must pass the residue check."""
    dim = len(null)
    if dim != expected_dimension(item.family, item.n, item.dprime):
        return Outcome(item.label, False, dim)
    cond = prog.conditions
    specs = cond.enumerate_conditions(model.degree, model.lam, model.params, item.n)
    pairs = [s for s in specs if s.kind == "residue-pair"]
    rep = cond.check_residue(
        S["ctx"], model.operator_from_vector(null[0]), pairs, model.env, samples=1, seed=item.gate_seed
    )
    return Outcome(item.label, rep.passed, dim, float(rep.max_defect))


def solve_pass(prog, inputs, meter):
    outcomes = []
    for item in inputs.items:
        try:
            with meter.timed():
                S, model, null = solve_one(prog, item)
            outcomes.append(gate_solve(prog, item, S, model, null))
        except Exception as exc:
            outcomes.append(_failed(item.label, exc))
    return outcomes


# ---------------------------------------------------------------------------
# verify: membership checks with a soundness control, then CLI suites


@dataclass(frozen=True)
class MemberCase:
    n: int
    dprime: int
    us: tuple  # 2d'+1 free parameters; the balancing one is added at run time
    seeds: tuple  # (residue, vanishing, perturbed residue)


@dataclass(frozen=True)
class VerifyInputs:
    overrides: tuple
    cases: tuple
    suites: tuple

    @property
    def setup_overrides(self):
        return dict(self.overrides)


def verify_inputs(seed):
    rng = random.Random("verify:%d" % seed)
    cfg = _session_overrides(rng)
    cases = []
    for n in (1, 2):
        for dprime in (0, 1, 2):
            us = tuple(_draw_u(rng) for _ in range(2 * dprime + 1))
            seeds = tuple(rng.randrange(10**6) for _ in range(3))
            cases.append(MemberCase(n, dprime, us, seeds))
    return VerifyInputs(tuple(sorted(cfg.items())), tuple(cases), VERIFY_SUITES)


def membership_reports(prog, S, case):
    """check_residue and check_vanishing on a first_order operator and a perturbed copy."""
    q, t, eta = S["q"], S["t"], S["eta_prime"]
    us = [mpc(u) for u in case.us]
    us.append(q + eta - sum(us, mpc(0)))
    D = prog.families.first_order(us, t, q, case.n)
    DV = prog.diffop.DegreeVector
    lam = tuple([Fraction(1, 2)] * case.n)
    specs = prog.conditions.enumerate_conditions((DV(), DV(0, 1, case.dprime)), lam, D.params, case.n)
    env = {"q": q, "t": t, "eta_prime": eta}
    seed_r, seed_v, seed_p = case.seeds
    res = prog.conditions.check_residue(S["ctx"], D, specs, env, samples=1, seed=seed_r)
    van = prog.conditions.check_vanishing(S["ctx"], D, specs, env, samples=1, seed=seed_v)
    coeffs = {k: (c.scaled(1 + SOUNDNESS_EPS) if k == lam else c) for k, c in D.coeffs.items()}
    Dp = prog.diffop.DifferenceOperator(case.n, coeffs, D.params, D.degree)
    bad = prog.conditions.check_residue(S["ctx"], Dp, specs, env, samples=1, seed=seed_p)
    return res, van, bad


def gate_membership(case, res, van, bad):
    """The operator passes; its perturbed copy fails with a defect near the perturbation."""
    tag = "n=%d d'=%d" % (case.n, case.dprime)
    defect = max(res.max_defect, van.max_defect)
    member = Outcome("member " + tag, res.passed and van.passed, float(defect), float(defect))
    lo, hi = SOUNDNESS_EPS / 10, SOUNDNESS_EPS * 10
    rejected = not bad.passed and lo < bad.max_defect < hi
    return [member, Outcome("soundness " + tag, rejected, float(bad.max_defect))]


def gate_suite(report):
    out = []
    for rec in report["checks"]:
        precision_limited = not rec["id"].startswith(TRUNCATION_LIMITED)
        out.append(Outcome(rec["id"], rec["pass"], rec["defect"], rec["defect"] if precision_limited else None))
    return out


def verify_pass(prog, inputs, meter):
    outcomes = []
    cfg = dict(inputs.overrides)
    try:
        with meter.timed():
            S = prog.cli.session_from_config(prog.cli.load_config(None, cfg))
    except Exception as exc:
        return [_failed("verify session", exc)]
    for case in inputs.cases:
        try:
            with meter.timed():
                reports = membership_reports(prog, S, case)
            outcomes.extend(gate_membership(case, *reports))
        except Exception as exc:
            outcomes.append(_failed("member n=%d d'=%d" % (case.n, case.dprime), exc))
    for name, n in inputs.suites:
        try:
            with meter.timed():
                _, report = prog.cli.run_suite(name, prog.cli.load_config(None, dict(cfg, n=str(n))))
            outcomes.extend(gate_suite(report))
        except Exception as exc:
            outcomes.append(_failed("suite " + name, exc))
    return outcomes


# ---------------------------------------------------------------------------
# lattice: the theta-symmetrization rank oracle against invariant_dimension


@dataclass(frozen=True)
class LatticeInputs:
    overrides: tuple
    pairs: tuple  # (form, "trivial" | "full") in seeded order
    points: tuple  # where the kernel's sum and product formulas are compared

    @property
    def setup_overrides(self):
        return dict(self.overrides)


def lattice_inputs(seed):
    rng = random.Random("lattice:%d" % seed)
    tau = complex(rng.uniform(-0.25, 0.25), LATTICE_IM_TAU)
    cfg = {"tau": _cnum(tau), "prec": str(LATTICE_PREC), "seed": str(rng.randrange(1, 10**6))}
    pairs = [(Q, group) for Q in LATTICE_FORMS for group in ("trivial", "full")]
    rng.shuffle(pairs)
    points = tuple(complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.35, 0.35)) for _ in range(2))
    return LatticeInputs(tuple(sorted(cfg.items())), tuple(pairs), points)


def lattice_pass(prog, inputs, meter):
    weyl = prog.weyl
    try:
        with meter.timed():
            S = prog.cli.session_from_config(prog.cli.load_config(None, dict(inputs.overrides)))
    except Exception as exc:
        return [_failed("lattice session", exc)]
    outcomes = []
    for Q, group in inputs.pairs:
        op = "rank %s %s" % (Q, group)
        try:
            with meter.timed():
                gens = weyl.automorphism_group(Q) if group == "full" else []
                rank = weyl.theta_symmetrization_rank(Q, gens, ctx=S["ctx"])
            outcomes.append(Outcome(op, rank == weyl.invariant_dimension(Q, gens), rank))
        except Exception as exc:
            outcomes.append(_failed(op, exc))
    # the rank is exact; the defect reported here is the oracle context's
    # theta accuracy, sum formula against product formula
    ctx = S["ctx"]
    try:
        worst = max(abs(ctx.theta(z) - ctx.theta_product(z)) / abs(ctx.theta_product(z)) for z in inputs.points)
        outcomes.append(Outcome("theta sum vs product", worst < TOL, float(worst), float(worst)))
    except Exception as exc:
        outcomes.append(_failed("theta sum vs product", exc))
    return outcomes


@dataclass(frozen=True)
class Workload:
    inputs: object
    run_pass: object


WORKLOADS = {
    "solve": Workload(solve_inputs, solve_pass),
    "verify": Workload(verify_inputs, verify_pass),
    "lattice": Workload(lattice_inputs, lattice_pass),
}
