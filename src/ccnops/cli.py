"""Command-line front end: suites, ad-hoc evaluation, solver access, reports.

Commands: suite, eval, solve-section, fourier-kernel, report-schema.
Configuration is a flat key=value file; the flags --seed, --prec, --tol, --n
and --trunc override environment variables (CCNOPS_<KEY>), which override
the file.  The accepted keys are those of DEFAULTS (prec, tol, seed, n, trunc,
tau, q, t, eta_prime, samples) and x1..x8, the van Diejen parameters.  These
are rejected with a ConfigError naming the key: any other key, n, trunc or
samples below 1 (a suite would pass without a sample or a truncation order
to test), prec below 64, a tol that is not finite and greater than 0, and a
non-finite tau, q, t, eta_prime or x_j.  Every complex value, configured or
given on the command line (an eval or fourier-kernel point, u, probe, c),
is read by `parse_complex`, which rejects a non-finite one the same way.
Both van Diejen commands need exactly eight x's with sum(x_j) = 2 eta_prime
(`_van_diejen_xs`).
Checks run one after another in the calling thread.  Reports are versioned
JSON with one record per check; exit status 0 means every check passed, 1
means some check failed, 2 means the configuration or the command line was
rejected.

Every library result is computed at its CurveContext's working precision.
The session still sets the global mp.prec to prec + 48, but only as this
process's precision for its own input arithmetic: the suites derive inputs
such as (d+1)q/2 + u, and callers of `session_from_config` such as the
benchmark form sums like q + eta - sum(u) after it returns, which are off
by about 1e-17 at mpmath's default 53 bits.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import random
import sys
import time
from fractions import Fraction

from mpmath import mp, mpc, mpf

SCHEMA_VERSION = "1"

SUITES = (
    "kernel-identities",
    "operator-algebra",
    "cascade",
    "fourier",
    "van-diejen",
    "degenerations",
    "all",
)

DEFAULTS = {
    "prec": "256",
    "tol": "1e-25",
    "seed": "1",
    "n": "1",
    "trunc": "3",
    "tau": "0.13+1.09j",
    "q": "0.21+0.39j",
    "t": "0.31+0.17j",
    "eta_prime": "0.17+0.11j",
    "samples": "20",
}


#: the keys a configuration may hold besides those of DEFAULTS: the van Diejen parameters
X_KEYS = tuple("x%d" % j for j in range(1, 9))


class ConfigError(ValueError):
    pass


def parse_complex(text, name):
    """text as an mpc; a ConfigError naming `name` unless it is a finite complex literal."""
    try:
        z = mpc(complex(text.replace(" ", "")))
    except ValueError as exc:
        raise ConfigError("bad complex literal %r" % text) from exc
    if not mp.isfinite(z):
        raise ConfigError("%s must be finite, got %s" % (name, text))
    return z


def default_point(n):
    """The eval and fourier-kernel point when none is given: 0.11+0.13j, then distinct steps of 0.07-0.05j."""
    return tuple(mpc(complex(0.11, 0.13) + k * complex(0.07, -0.05)) for k in range(n))


def parse_point(text, n):
    """The point z_1;...;z_n as a tuple; a ConfigError unless it has exactly n coordinates."""
    z = tuple(parse_complex(p, "point") for p in text.split(";"))
    if len(z) != n:
        raise ConfigError("point %r has %d coordinates, not n = %d" % (text, len(z), n))
    return z


def load_config(path=None, overrides=None):
    cfg = dict(DEFAULTS)
    if path:
        if not os.path.exists(path):
            raise ConfigError("config file %s not found" % path)
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError("bad config line %r" % line)
                key, val = line.split("=", 1)
                cfg[key.strip()] = val.strip()
    for key in (*DEFAULTS, *X_KEYS):
        env = os.environ.get("CCNOPS_" + key.upper())
        if env is not None:
            cfg[key] = env
    for key, val in (overrides or {}).items():
        if val is not None:
            cfg[key] = str(val)
    unknown = sorted(set(cfg) - set(DEFAULTS) - set(X_KEYS))
    if unknown:
        known = ", ".join(DEFAULTS)
        raise ConfigError("unknown config key(s) %s; known: %s and x1..x8" % (", ".join(unknown), known))
    return cfg


def session_from_config(cfg):
    """Validate thresholds and build the evaluation context."""
    from .curve import MIN_IM, CurveContext, ModulusError, PrecisionError

    try:
        prec = int(cfg["prec"])
        seed = int(cfg["seed"])
        n = int(cfg["n"])
        trunc = int(cfg["trunc"])
        tol = mpf(cfg["tol"])
        samples = int(cfg["samples"])
    except (KeyError, ValueError) as exc:
        raise ConfigError("bad session values: %s" % exc) from exc
    if prec < 64:
        raise ConfigError("precision below the supported minimum (64 bits)")
    for key, value in (("n", n), ("trunc", trunc), ("samples", samples)):
        if value < 1:
            raise ConfigError("%s must be at least 1, got %d" % (key, value))
    if not (mp.isfinite(tol) and tol > 0):
        raise ConfigError("tol must be finite and greater than 0, got %s" % cfg["tol"])
    values = {key: parse_complex(cfg[key], key) for key in ("tau", "q", "t", "eta_prime", *X_KEYS) if key in cfg}
    tau, q, t, eta = (values[key] for key in ("tau", "q", "t", "eta_prime"))
    if tau.imag < MIN_IM or q.imag < MIN_IM:
        raise ConfigError("Im(tau) and Im(q) must be at least %s" % MIN_IM)
    # the process's precision for its own input arithmetic (module docstring)
    mp.prec = prec + 48
    try:
        ctx = CurveContext(tau, prec)
    except (ModulusError, PrecisionError) as exc:
        raise ConfigError(str(exc)) from exc
    xs = [values[key] for key in X_KEYS if key in values]
    return {
        "ctx": ctx,
        "prec": prec,
        "seed": seed,
        "n": n,
        "trunc": trunc,
        "tol": tol,
        "tau": tau,
        "q": q,
        "t": t,
        "eta_prime": eta,
        "xs": xs,
        "samples": samples,
    }


# ---------------------------------------------------------------------------
# suite checks


def _check(name, statement, fn):
    return {"id": name, "statement": statement, "fn": fn}


def _suite_kernel_identities(S):
    from .identities import CATALOGUE, run_identity

    checks = []
    ns = {"sym-An": 3, "sym-Bn": 2, "sym-Cn": 2, "sym-Dn": 3}
    for name in CATALOGUE:
        samples = S["samples"] if not name.startswith("sym") else max(4, S["samples"] // 4)

        def fn(name=name, samples=samples):
            rep = run_identity(
                S["ctx"], name, n=ns.get(name, 2), samples=samples, seed=S["seed"], tol=S["tol"]
            )
            return rep.max_defect

        checks.append(_check("kernel/" + name, "identity %s on seeded samples" % name, fn))
    return checks


def _solvable_n(S, suite):
    """The session's n for a command that solves a section model; a larger n is a ConfigError.

    The models build at any n, but their solve is established for n <=
    `conditions.MAX_SOLVE_N` only (`conditions.SectionModel.nullspace`), so
    the van Diejen suite and `solve-section` stop here rather than in the
    middle of a run.
    """
    from .conditions import MAX_SOLVE_N

    n = S["n"]
    if n > MAX_SOLVE_N:
        raise ConfigError("%s solves a section model, established for n <= %d only, not n = %d" % (suite, MAX_SOLVE_N, n))
    return n


def _van_diejen_xs(S, command):
    """The session's x1..x8 for a van Diejen command; a ConfigError unless there are eight with sum(x_j) = 2 eta_prime."""
    xs = S["xs"]
    if len(xs) != 8:
        raise ConfigError("%s needs exactly eight x parameters, got %d" % (command, len(xs)))
    if abs(sum(xs) - 2 * S["eta_prime"]) > mpf("1e-12"):
        raise ConfigError("%s needs sum(x_j) = 2*eta_prime" % command)
    return xs


def _suite_operator_algebra(S):
    from .diffop import SelbergDensity, op_defect, rel_defect
    from .families import first_order

    ctx, q, t, n = S["ctx"], S["q"], S["t"], S["n"]
    zpts = _sample_points(S, n, 2)

    def assoc():
        A = first_order([_c(S, 1), _c(S, 2)], t, q, n)
        B = first_order([_c(S, 3), _c(S, 4)], t, q, n)
        C = first_order([_c(S, 5), _c(S, 6)], t, q, n)
        return op_defect(ctx, A.compose(B).compose(C), A.compose(B.compose(C)), zpts)

    def apply_consistency():
        A = first_order([_c(S, 1), _c(S, 2)], t, q, n)
        B = first_order([_c(S, 3), _c(S, 4)], t, q, n)
        f = lambda z: ctx.theta(z[0] + _c(S, 7)) * ctx.theta(sum(z) - _c(S, 8))
        worst = mpf(0)
        for z in zpts:
            a = A.compose(B).apply(ctx, f, z)
            worst = max(worst, rel_defect(a, A.apply(ctx, lambda w: B.apply(ctx, f, w), z)))
        return worst

    def invariance():
        D = first_order([_c(S, 1), _c(S, 2)], t, q, n)
        return D.is_invariant(ctx, zpts)

    def adjoint_swap():
        dens = SelbergDensity(n)
        u0, u1 = _c(S, 1), _c(S, 2)
        D = first_order([u0, u1], t, q, n)
        target = first_order([mpc(q) / 2 - u0, mpc(q) / 2 - u1], t, q, n)
        return op_defect(ctx, D.selberg_adjoint(dens), target, zpts)

    def adjoint_antihom():
        dens = SelbergDensity(n)
        A = first_order([_c(S, 1), _c(S, 2)], t, q, n)
        B = first_order([_c(S, 3), _c(S, 4)], t, q, n)
        lhs = A.compose(B).selberg_adjoint(dens)
        rhs = B.selberg_adjoint(dens).compose(A.selberg_adjoint(dens))
        return op_defect(ctx, lhs, rhs, zpts)

    def roundtrip():
        D = first_order([_c(S, 1), _c(S, 2)], t, q, n)
        D2 = D.from_text(D.to_text())
        return op_defect(ctx, D, D2, zpts)

    return [
        _check("algebra/associativity", "operator composition is associative", assoc),
        _check("algebra/apply", "apply(compose(A,B)) = apply(A, apply(B, .))", apply_consistency),
        _check("algebra/invariance", "first-order family is hyperoctahedrally invariant", invariance),
        _check("algebra/adjoint-swap", "formal adjoint sends parameters u to q/2-u", adjoint_swap),
        _check("algebra/adjoint-antihom", "formal adjoint reverses products", adjoint_antihom),
        _check("algebra/serialize", "text serialization round-trips", roundtrip),
    ]


def _suite_cascade(S):
    from .diffop import bindings_for, op_defect, rel_defect
    from .families import (
        cascade_leading_expr,
        d_cascade,
        d_torsion_closed_form,
        first_order,
        theta_pm_multiplier,
    )

    ctx, q, t, n = S["ctx"], S["q"], S["t"], S["n"]
    zpts = _sample_points(S, n, 2)
    dmax = min(S["trunc"], 4)

    def u_indep():
        worst = mpf(0)
        for d in range(1, dmax + 1):
            Da = d_cascade(d, q, t, n, _c(S, 11))
            Db = d_cascade(d, q, t, n, _c(S, 12))
            worst = max(worst, op_defect(ctx, Da, Db, zpts))
        return worst

    def leading():
        D = d_cascade(dmax, q, t, n, _c(S, 11))
        expr = cascade_leading_expr(dmax, n)
        worst = mpf(0)
        for z in zpts:
            a = expr.eval(ctx, bindings_for({"q": mpc(q), "t": mpc(t)}, z))
            worst = max(worst, rel_defect(a, D.eval_coeff(ctx, tuple([Fraction(-dmax, 2)] * n), z)))
        return worst

    def relations():
        d = 1
        u = _c(S, 13)
        params = {"q": mpc(q), "t": mpc(t)}
        Dd = d_cascade(d, q, t, n, _c(S, 11))
        Dd1 = d_cascade(d + 1, q, t, n, _c(S, 12))
        lhs = first_order([(d + 1) * mpc(q) / 2 + u, (d + 1) * mpc(q) / 2 - u], t, q, n).compose(Dd)
        rhs = Dd1.compose(theta_pm_multiplier(u, n, params))
        w1 = op_defect(ctx, lhs, rhs, zpts)
        lhs = Dd.compose(first_order([-d * mpc(q) / 2 + u, -d * mpc(q) / 2 - u], t, q, n))
        rhs = theta_pm_multiplier(u, n, params).compose(Dd1)
        w2 = op_defect(ctx, lhs, rhs, zpts)
        u0, u1, u2 = _c(S, 14), _c(S, 15), _c(S, 16)
        u3 = (1 - d) * mpc(q) - u0 - u1 - u2
        lhs = Dd.compose(first_order([u0, u1, u2, u3], t, q, n))
        sh = d * mpc(q) / 2
        rhs = first_order([u0 + sh, u1 + sh, u2 + sh, u3 + sh], t, q, n).compose(Dd)
        w3 = op_defect(ctx, lhs, rhs, zpts)
        return max(w1, w2, w3)

    def torsion():
        # written for n = 1: it runs at n = 1 whatever the session's n is
        qtor = mpf(1) / 2
        z = (_c(S, 17),)
        Ce = d_torsion_closed_form(2, qtor, t, 1, ctx)

        def defect_at(eps):
            qe = qtor + eps * mpc("1.1", "0.83")
            Dc = d_cascade(2, qe, t, 1, _c(S, 11))
            worst = mpf(0)
            for k in Ce.support():
                a = Dc.eval_coeff(ctx, k, z)
                b = Ce.eval_coeff(ctx, k, z)
                worst = max(worst, abs(a - b) / max(abs(b), mpf("1e-30")))
            interior = abs(Dc.eval_coeff(ctx, (0,), z))
            return max(worst, interior)

        d8 = defect_at(mpf("1e-8"))
        d10 = defect_at(mpf("1e-10"))
        # convergence of order >= 1: tightening eps by 100 tightens the defect
        ok = d8 < mpf("1e-5") and d10 < d8 * mpf("0.05")
        return mpf(0) if ok else max(d8, mpf(1))

    return [
        _check("cascade/u-independence", "cascade is probe independent", u_indep),
        _check("cascade/leading", "cascade leading coefficient matches the closed form", leading),
        _check("cascade/relations", "the three displayed operator relations hold", relations),
        _check("cascade/torsion", "torsion limit approaches the closed form", torsion),
    ]


def _suite_fourier(S):
    from .families import (
        FourierKernel,
        braid_check,
        d_cascade,
        first_order,
        fourier_transform,
        theta_pm_multiplier,
    )
    from .formal import compare_gauged, gauged_from_operator
    from .symbols import AffineForm

    ctx, q, t, n = S["ctx"], S["q"], S["t"], S["n"]
    N = S["trunc"] if n == 1 else min(S["trunc"], 3)
    zpts = _sample_points(S, n, 2)

    def residual():
        K = FourierKernel(ctx, _c(S, 21), q, t, n, N)
        return max(K.defining_residual(z, order=N - 1) for z in zpts)

    def normalization():
        K0 = FourierKernel(ctx, mpc(0), q, t, n, N)
        worst = max(
            abs(K0.tail_value(m, zpts[0]))
            for m in K0.tail.entries
            if any(m)
        ) if len(K0.tail.entries) > 1 else mpf(0)
        Km = FourierKernel(ctx, AffineForm.var("q") * Fraction(-1, 2), q, t, n, N)
        D1 = first_order([], t, q, n)
        worst = max(worst, compare_gauged(ctx, Km, gauged_from_operator(D1), zpts, order=1))
        return worst

    def instances():
        c = _c(S, 22)
        u = _c(S, 23)
        params = {"q": mpc(q), "t": mpc(t)}
        D = theta_pm_multiplier(u, n, params)
        F = fourier_transform(ctx, D, c, 0, 1, min(N, 2))
        tgt = first_order([mpc(q) / 2 - c + u, mpc(q) / 2 - c - u], t, q, n)
        w = compare_gauged(ctx, F, gauged_from_operator(tgt), zpts, order=1)
        D = first_order([c + mpc(q) / 2 + u, c + mpc(q) / 2 - u], t, q, n)
        F = fourier_transform(ctx, D, c, 1, 0, min(N, 2))
        tgt = theta_pm_multiplier(u, n, params)
        w = max(w, compare_gauged(ctx, F, gauged_from_operator(tgt), zpts, order=1))
        u0, u1, u2 = _c(S, 24), _c(S, 25), _c(S, 26)
        u3 = mpc(q) + 2 * c - u0 - u1 - u2
        D = first_order([u0, u1, u2, u3], t, q, n)
        F = fourier_transform(ctx, D, c, 1, 1, min(N, 2))
        tgt = first_order([u0 - c, u1 - c, u2 - c, mpc(q) + c - u0 - u1 - u2], t, q, n)
        return max(w, compare_gauged(ctx, F, gauged_from_operator(tgt), zpts, order=1))

    def braid():
        db, di = braid_check(ctx, _c(S, 27), _c(S, 28), _c(S, 29), q, t, n, N, zpts)
        return max(db, di)

    checks = [
        _check("fourier/residual", "kernel defining relations hold to truncation", residual),
        _check("fourier/normalization", "kernel is 1 at c=0 and matches the first cascade step", normalization),
        _check("fourier/instances", "the three known transform images are reproduced", instances),
        _check("fourier/braid", "braid relation and inverse symmetry", braid),
    ]
    if n == 2:
        from .families import hilbert_gauge_identities

        def curious():
            dt, dp = hilbert_gauge_identities(
                ctx, _c(S, 31), _c(S, 32), _c(S, 33), q, t, _c(S, 34), 2, zpts
            )
            return max(dt, dp)

        checks.append(
            _check("fourier/curious", "triple-kernel and pair-kernel identities at n=2", curious)
        )
    return checks


def _suite_van_diejen(S):
    from .conditions import sections_by_weight, vandiejen_nullspace
    from .diffop import SelbergDensity, op_defect
    from .symbols import AffineForm

    ctx, q, t, n = S["ctx"], S["q"], S["t"], _solvable_n(S, "van-diejen")
    if S["xs"]:
        xs = _van_diejen_xs(S, "van-diejen")
    else:
        rng = random.Random(S["seed"] + 1000)
        xs = [mpc(rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2)) for _ in range(8)]
    zpts = _sample_points(S, n, 2)

    # the checks share one solve, made by the first check that needs it
    @functools.cache
    def solved():
        return vandiejen_nullspace(ctx, xs, q, t, n, seed=S["seed"])

    @functools.cache
    def sections():
        return sections_by_weight(*solved())

    def dimension():
        return mpf(0) if len(solved()[1]) == n + 1 else mpf(1)

    def commute():
        ops = sections()
        worst = mpf(0)
        for a in range(1, n + 1):
            for b in range(a + 1, n + 1):
                AB = ops[a].compose(ops[b])
                BA = ops[b].compose(ops[a])
                worst = max(worst, op_defect(ctx, AB, BA, zpts))
        return worst

    def self_adjoint():
        qf = AffineForm.var("q")
        ulist = [qf * Fraction(1, 2) + AffineForm.var("x%d" % (j + 1)) for j in range(8)]
        dens = SelbergDensity(n, ulist=ulist)
        H = sections()[1]
        return op_defect(ctx, H, H.selberg_adjoint(dens), zpts)

    checks = [
        _check("van-diejen/dimension", "the section space is (n+1)-dimensional", dimension),
        _check("van-diejen/self-adjoint", "the Hamiltonian is self-adjoint for the 8-parameter density", self_adjoint),
    ]
    if n >= 2:
        checks.append(_check("van-diejen/commute", "the nontrivial sections commute", commute))
    return checks


def _suite_degenerations(S):
    from .families import lowering_star, lowering_starstar

    def star_kills_constants():
        for nn in (1, 2):
            op = lowering_star(nn, Fraction(1, 4), Fraction(1, 3))
            val = op.apply_with_sqrt(lambda z: Fraction(1), tuple(Fraction(3 + i, 7 + i) for i in range(nn)), Fraction(1, 2))
            if val != 0:
                return mpf(1)
        return mpf(0)

    def starstar_symmetric():
        op = lowering_starstar(2, Fraction(1, 4), Fraction(1, 3))
        f = lambda z: z[0] * z[1] + z[0] + z[1]
        v1 = op.apply_with_sqrt(f, (Fraction(3, 7), Fraction(2, 9)), Fraction(1, 2))
        v2 = op.apply_with_sqrt(f, (Fraction(2, 9), Fraction(3, 7)), Fraction(1, 2))
        return mpf(0) if v1 == v2 else mpf(1)

    return [
        _check("degenerations/star", "the C-type lowering operator kills constants", star_kills_constants),
        _check("degenerations/starstar", "the GL-type lowering operator is permutation symmetric", starstar_symmetric),
    ]


def _sample_points(S, n, count):
    rng = random.Random(S["seed"] + 77)
    return [
        tuple(mpc(rng.uniform(-0.35, 0.35), rng.uniform(-0.25, 0.25)) for _ in range(n))
        for _ in range(count)
    ]


def _c(S, salt):
    rng = random.Random(S["seed"] * 1000 + salt)
    return mpc(rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2))


SUITE_BUILDERS = {
    "kernel-identities": _suite_kernel_identities,
    "operator-algebra": _suite_operator_algebra,
    "cascade": _suite_cascade,
    "fourier": _suite_fourier,
    "van-diejen": _suite_van_diejen,
    "degenerations": _suite_degenerations,
}


def run_suite(suite, cfg, out=None):
    """Run a named suite; returns (exit_status, report_dict)."""
    if suite not in SUITES:
        raise ConfigError("unknown suite %r" % suite)
    S = session_from_config(cfg)
    names = [s for s in SUITES if s != "all"] if suite == "all" else [suite]
    checks = []
    for name in names:
        checks.extend(SUITE_BUILDERS[name](S))

    def run_one(check):
        t0 = time.time()
        try:
            defect = check["fn"]()
            err = None
        except Exception as exc:  # pragma: no cover - defensive
            defect = mpf("inf")
            err = "%s: %s" % (type(exc).__name__, exc)
        millis = int((time.time() - t0) * 1000)
        passed = bool(defect < S["tol"]) if err is None else False
        return {
            "id": check["id"],
            "statement": check["statement"] if err is None else check["statement"] + " [" + err + "]",
            "defect": float(defect) if defect != mpf("inf") else None,
            "pass": passed,
            "millis": millis,
        }

    results = [run_one(c) for c in checks]
    results.sort(key=lambda r: r["id"])
    report = {
        "schema_version": SCHEMA_VERSION,
        "suite": suite,
        "config": {k: cfg[k] for k in sorted(cfg)},
        "checks": results,
        "pass": all(r["pass"] for r in results),
    }
    stripped = json.dumps(
        {**report, "checks": [{k: v for k, v in r.items() if k != "millis"} for r in results]},
        sort_keys=True,
    )
    report["content_hash"] = hashlib.sha256(stripped.encode()).hexdigest()
    text = json.dumps(report, indent=1, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    return (0 if report["pass"] else 1), report


def report_schema():
    return {
        "schema_version": SCHEMA_VERSION,
        "description": "ccnops suite report",
        "fields": {
            "suite": "suite name",
            "config": "flat key=value configuration after overrides",
            "checks": [
                {
                    "id": "check identifier",
                    "statement": "human-readable statement of the identity or property checked",
                    "defect": "maximal relative defect measured (null if the check errored)",
                    "pass": "defect below the session tolerance",
                    "millis": "wall time; excluded from content_hash",
                }
            ],
            "pass": "conjunction of all checks",
            "content_hash": "sha256 of the report with millis stripped; deterministic per (config, seed)",
        },
    }


# ---------------------------------------------------------------------------
# eval and solver commands


def cmd_eval(args, cfg):
    from .curve import PoleProximityError

    S = session_from_config(cfg)
    ctx = S["ctx"]
    tokens = args.expr
    if not tokens:
        raise ConfigError("eval needs an expression")
    head = tokens[0]
    if head == "theta":
        z = parse_complex(tokens[1], "point") if len(tokens) > 1 else mpc(0)
        print(mp.nstr(ctx.theta(z), 30))
        return 0
    if head == "gamma":
        if len(tokens) < 2:
            raise ConfigError("eval gamma needs a point")
        z = parse_complex(tokens[1], "point")
        print(mp.nstr(ctx.gamma(z, S["q"]), 30))
        return 0
    if head == "family":
        if len(tokens) < 2:
            raise ConfigError("eval family needs a family id")
        op = _registry_build(tokens[1], tokens[2:], S)
        rest = tokens[2:]
    elif head == "compose":
        if len(tokens) < 3:
            raise ConfigError("eval compose needs two operands")
        op1 = _registry_build(*_split_spec(tokens[1]), S)
        op2 = _registry_build(*_split_spec(tokens[2]), S)
        op = op1.compose(op2)
        rest = tokens[3:]
    else:
        raise ConfigError("unknown eval form %r" % head)
    at = _eval_kv(rest).get("at")
    z = parse_point(at, op.n) if at else default_point(op.n)
    try:
        values = [(k, op.eval_coeff(ctx, k, z)) for k in op.support()]
    except PoleProximityError as exc:
        raise ConfigError(str(exc)) from exc
    for k, value in values:
        print("%s  %s" % (tuple(str(x) for x in k), mp.nstr(value, 30)))
    return 0


def _split_spec(spec):
    if "[" in spec:
        name, rest = spec.split("[", 1)
        return name, rest.rstrip("]").split(",")
    return spec, []


def _eval_kv(tokens):
    out = {}
    for tok in tokens:
        if "=" in tok:
            k, v = tok.split("=", 1)
            out[k] = v
    return out


def _int_binding(kv, key, default, least):
    """The binding key=... as an integer (default if absent); a ConfigError unless an integer >= least."""
    try:
        value = int(kv.get(key, default))
    except ValueError:
        raise ConfigError("%s=%s is not an integer" % (key, kv[key])) from None
    if value < least:
        raise ConfigError("%s=%d is below %d" % (key, value, least))
    return value


def _registry_build(name, tokens, S):
    """Named-family registry addressable by string id plus parameter bindings."""
    from .families import d_cascade, d_torsion_closed_form, first_order, theta_pm_multiplier

    kv = _eval_kv(tokens)
    n = _int_binding(kv, "n", S["n"], 1)
    q, t = S["q"], S["t"]
    if name == "first-order":
        us = [parse_complex(x, "u") for x in kv.get("u", "").split(";") if x]
        return first_order(us, t, q, n)
    if name == "cascade":
        d = _int_binding(kv, "d", 1, 0)
        return d_cascade(d, q, t, n, parse_complex(kv.get("probe", "0.111+0.077j"), "probe"))
    if name == "torsion":
        d = _int_binding(kv, "d", 2, 1)
        return d_torsion_closed_form(d, mpf(1) / d, t, n, S["ctx"])
    if name == "theta-multiplier":
        return theta_pm_multiplier(parse_complex(kv.get("u", "0.1+0.05j"), "u"), n, {"q": mpc(q), "t": mpc(t)})
    raise ConfigError("unknown family id %r" % name)


def cmd_solve_section(args, cfg):
    from .conditions import section_solve_first_order, vandiejen_nullspace

    S = session_from_config(cfg)
    n = _solvable_n(S, "solve-section " + args.family)
    if args.family == "first-order":
        model, null, ops = section_solve_first_order(
            S["ctx"], n, args.dprime, S["eta_prime"], S["q"], S["t"], seed=S["seed"]
        )
        print("dimension %d" % len(null))
        if args.out and ops:
            with open(args.out, "w") as fh:
                fh.write(ops[0].to_text())
        return 0
    if args.family == "van-diejen":
        xs = _van_diejen_xs(S, "solve-section van-diejen")
        _, null = vandiejen_nullspace(S["ctx"], xs, S["q"], S["t"], n, seed=S["seed"])
        print("dimension %d" % len(null))
        return 0
    raise ConfigError("unknown section family %r" % args.family)


def cmd_fourier_kernel(args, cfg):
    from .curve import PoleProximityError
    from .families import FourierKernel

    S = session_from_config(cfg)
    c = parse_complex(args.c, "c")
    K = FourierKernel(S["ctx"], c, S["q"], S["t"], S["n"], S["trunc"])
    z = parse_point(args.at, S["n"]) if args.at else default_point(S["n"])
    try:
        values = [(m, K.tail_value(m, z)) for m in sorted(K.tail.entries)]
    except PoleProximityError as exc:
        raise ConfigError(str(exc)) from exc
    for m, value in values:
        print("%s  %s" % (m, mp.nstr(value, 30)))
    return 0


def main(argv=None):
    common = argparse.ArgumentParser(add_help=False)
    supp = argparse.SUPPRESS
    common.add_argument("--config", default=supp, help="flat key=value configuration file")
    common.add_argument("--seed", type=int, default=supp)
    common.add_argument("--prec", type=int, default=supp)
    common.add_argument("--tol", default=supp)
    common.add_argument("--n", type=int, default=supp)
    common.add_argument("--trunc", type=int, default=supp)
    common.add_argument("--out", default=supp, help="report / operator output path")
    parser = argparse.ArgumentParser(prog="ccnops", description=__doc__, parents=[common])
    sub = parser.add_subparsers(dest="command")
    psuite = sub.add_parser("suite", help="run a verification suite", parents=[common])
    psuite.add_argument("name", choices=SUITES)
    peval = sub.add_parser("eval", help="evaluate kernels, families, compositions", parents=[common])
    peval.add_argument("expr", nargs="*")
    psolve = sub.add_parser("solve-section", help="numeric section-space solve", parents=[common])
    psolve.add_argument("family", choices=("first-order", "van-diejen"))
    psolve.add_argument("--dprime", type=int, default=0)
    pker = sub.add_parser("fourier-kernel", help="solve and print a Fourier kernel tail", parents=[common])
    pker.add_argument("c")
    pker.add_argument("--at")
    sub.add_parser("report-schema", help="print the versioned report schema", parents=[common])
    args = parser.parse_args(argv)

    overrides = {
        key: getattr(args, key, None)
        for key in ("seed", "prec", "tol", "n", "trunc")
    }
    out_path = getattr(args, "out", None)
    try:
        cfg = load_config(getattr(args, "config", None), overrides)
        if args.command == "suite":
            status, report = run_suite(args.name, cfg, out=out_path)
            for rec in report["checks"]:
                print(
                    "%-32s %s defect=%s"
                    % (rec["id"], "pass" if rec["pass"] else "FAIL", rec["defect"])
                )
            print("suite %s: %s" % (args.name, "pass" if status == 0 else "FAIL"))
            return status
        if args.command == "eval":
            return cmd_eval(args, cfg)
        if args.command == "solve-section":
            args.out = out_path
            return cmd_solve_section(args, cfg)
        if args.command == "fourier-kernel":
            return cmd_fourier_kernel(args, cfg)
        if args.command == "report-schema":
            print(json.dumps(report_schema(), indent=1, sort_keys=True))
            return 0
        parser.print_help()
        return 2
    except ConfigError as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
