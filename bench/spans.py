"""Span tracer for the traced benchmark run.

Wrappers are installed on the public functions of each ccnops module from
here, so the program itself carries no tracing code.  Every wrapped call
records a span (name, start, end, parent) in memory; the spans are written
out once, when the run ends.  A span's self time is its duration minus the
durations of its child spans.  Calls made through a name that another module
imported at its own import time (``from .formal import compare_gauged``
inside ``families``) bypass the wrapper and are not counted.
"""

from __future__ import annotations

import json
import time
from collections import Counter

from mpmath import mpc

#: span names reported as ``<name>.calls``, ``<name>.s`` and ``<name>.self_s``
SPANS = (
    "curve.e",
    "curve.dist_to_lattice",
    "curve.theta",
    "curve.lattice_reduce",
    "curve.gamma",
    "curve.CurveContext.init",
    "symbols.ThetaExpr.eval",
    "diffop.eval_coeff",
    "diffop.apply",
    "diffop.compose",
    "conditions.model_build",
    "conditions.condition_rows",
    "conditions.nullspace_basis",
    "conditions.check_residue",
    "conditions.check_vanishing",
    "weyl.theta_symmetrization_rank",
    "weyl.numeric_rank",
    "weyl.automorphism_group",
    "families.FourierKernel.init",
    "formal.compare_gauged",
    "identities.run_identity",
    "cli.run_suite",
    "cli.session_from_config",
)

#: derived per-layer metrics and their units, besides the three per span
DERIVED = (
    ("curve.theta.distinct_ratio", "ratio"),
    ("symbols.ThetaExpr.eval.factors", "count"),
    ("conditions.rows", "count"),
    ("conditions.cols", "count"),
    ("conditions.nullspace_basis.cells", "count"),
    ("conditions.pole_tests_per_row", "ratio"),
    ("weyl.e_calls_per_rank", "count"),
    ("trace.spans", "count"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"),
)


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in SPANS:
        units[name + ".calls"] = "count"
        units[name + ".s"] = "s"
        units[name + ".self_s"] = "s"
    units.update(DERIVED)
    return units


def _targets(prog):
    C = prog.curve.CurveContext
    cond = prog.conditions
    return (
        ("curve.e", C, "e"),
        ("curve.dist_to_lattice", C, "dist_to_lattice"),
        ("curve.theta", C, "theta"),
        ("curve.lattice_reduce", C, "lattice_reduce"),
        ("curve.gamma", C, "gamma"),
        ("curve.CurveContext.init", C, "__init__"),
        ("symbols.ThetaExpr.eval", prog.symbols.ThetaExpr, "eval"),
        ("diffop.eval_coeff", prog.diffop.DifferenceOperator, "eval_coeff"),
        ("diffop.apply", prog.diffop.DifferenceOperator, "apply"),
        ("diffop.compose", prog.diffop.DifferenceOperator, "compose"),
        ("conditions.model_build", cond, "first_order_model"),
        ("conditions.model_build", cond, "vandiejen_model"),
        ("conditions.condition_rows", cond.SectionModel, "condition_rows"),
        ("conditions.nullspace_basis", cond, "nullspace_basis"),
        ("conditions.check_residue", cond, "check_residue"),
        ("conditions.check_vanishing", cond, "check_vanishing"),
        ("weyl.theta_symmetrization_rank", prog.weyl, "theta_symmetrization_rank"),
        ("weyl.numeric_rank", prog.weyl, "numeric_rank"),
        ("weyl.automorphism_group", prog.weyl, "automorphism_group"),
        ("families.FourierKernel.init", prog.families.FourierKernel, "__init__"),
        ("formal.compare_gauged", prog.formal, "compare_gauged"),
        ("identities.run_identity", prog.identities, "run_identity"),
        ("cli.run_suite", prog.cli, "run_suite"),
        ("cli.session_from_config", prog.cli, "session_from_config"),
    )


class Tracer:
    """In-memory span recorder; spans are only taken while ``on`` is true."""

    def __init__(self, prog):
        self.prog = prog
        self.on = False
        self.spans = []  # [name, start_ns, end_ns, parent index]
        self._stack = []
        self._saved = []
        self._theta_keys = set()
        self._rows = 0
        self._cols = 0
        self._cells = 0

    def install(self):
        for name, owner, attr in _targets(self.prog):
            fn = vars(owner)[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def _observe(self, name, args):
        if name == "curve.theta":
            z = mpc(args[1])
            self._theta_keys.add((z.real._mpf_, z.imag._mpf_))
        elif name == "conditions.nullspace_basis":
            rows, ncols = len(args[0]), args[1]
            self._rows += rows
            self._cols += ncols
            self._cells += rows * ncols

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            self._observe(name, args)
            span = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def metrics(self, untraced_wall, traced_wall):
        """Per-layer metrics from the recorded spans."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, t0, t1, parent in spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        calls, incl, own = Counter(), Counter(), Counter()
        theta_under_eval = 0
        e_under_rank = 0
        for i, (name, t0, t1, parent) in enumerate(spans):
            calls[name] += 1
            own[name] += t1 - t0 - child_ns[i]
            if not self._has_ancestor(i, name):
                incl[name] += t1 - t0
            if name == "curve.theta" and parent >= 0 and spans[parent][0] == "symbols.ThetaExpr.eval":
                theta_under_eval += 1
            elif name == "curve.e" and self._has_ancestor(i, "weyl.theta_symmetrization_rank"):
                e_under_rank += 1
        out = {}
        for name in SPANS:
            out[name + ".calls"] = calls[name]
            out[name + ".s"] = incl[name] / 1e9
            out[name + ".self_s"] = own[name] / 1e9
        ranks = calls["weyl.theta_symmetrization_rank"]
        out.update(
            {
                "curve.theta.distinct_ratio": _ratio(len(self._theta_keys), calls["curve.theta"]),
                "symbols.ThetaExpr.eval.factors": theta_under_eval,
                "conditions.rows": self._rows,
                "conditions.cols": self._cols,
                "conditions.nullspace_basis.cells": self._cells,
                "conditions.pole_tests_per_row": _ratio(calls["curve.dist_to_lattice"], self._rows),
                "weyl.e_calls_per_rank": _ratio(e_under_rank, ranks),
                "trace.spans": len(spans),
                "trace.untraced_wall_s": untraced_wall,
                "trace.traced_wall_s": traced_wall,
                "trace.overhead_s": traced_wall - untraced_wall,
            }
        )
        return out

    def _has_ancestor(self, i, name):
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path):
        """Write the spans as {"names": [...], "spans": [[name, start, end, parent]]}."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        base = self.spans[0][1] if self.spans else 0
        rows = [[index[n], t0 - base, t1 - base, p] for n, t0, t1, p in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"unit": "ns", "names": names, "spans": rows}, fh, separators=(",", ":"))


def _ratio(num, den):
    return num / den if den else 0.0
