"""Benchmark runner for ccnops.

    python3 bench/run.py --workload {solve,verify,lattice} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from its
``src/`` directory and nowhere else.  Passes over the workload's seeded batch
repeat until ``--seconds`` would be exceeded (at least one pass), in this one
process and thread.  The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
logs the passes, every operation's outcome and the observed ``mp.prec``.

``--trace 0`` reports the end-to-end metrics: median pass wall and CPU time
and set-up time, each scaled to a nominal host speed (see host.py), peak
RSS, share of operations that passed, and accuracy digits.  ``--trace 1``
runs one untraced pass, then one pass with span wrappers installed, and
reports the per-layer metrics in unscaled seconds; the spans are written to
``bench/out/trace-<workload>.json``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

sys.path.insert(0, str(BENCH))

import host  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

MODULES = ("cli", "conditions", "curve", "diffop", "families", "formal", "identities", "symbols", "weyl")

#: fresh interpreters timed for setup_s; the median is reported
SETUP_REPEATS = 7

# Timed in a fresh interpreter: import, cli.session_from_config and the
# CurveContext it builds.  Interpreter start-up is outside the timer.  The
# host reference loop runs three times before and three times after.
SETUP_CODE = """
import statistics, sys, time
sys.path.insert(0, sys.argv[2])
import host
refs = [host.reference() for _ in range(3)]
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from ccnops import cli
cli.session_from_config(cli.load_config(None, dict(zip(sys.argv[3::2], sys.argv[4::2]))))
setup = time.perf_counter() - t0
refs += [host.reference() for _ in range(3)]
print(setup, statistics.median(refs))
"""

END_TO_END_UNITS = {
    "wall_norm_s": "s",
    "cpu_norm_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "defect_digits": "digits",
}


class ProgramMissing(RuntimeError):
    pass


def load_program():
    """Import the ccnops modules from this checkout's src/ directory."""
    if not (SRC / "ccnops" / "__init__.py").is_file():
        raise ProgramMissing("no ccnops sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module("ccnops." + name) for name in MODULES}
    if Path(mods["cli"].__file__).resolve().parent != SRC / "ccnops":
        raise ProgramMissing("ccnops was imported from %s, not from %s" % (mods["cli"].__file__, SRC))
    import mpmath

    return SimpleNamespace(mp=mpmath.mp, **mods)


def measure_setup(overrides):
    """Median set-up time of SETUP_REPEATS fresh interpreters, each scaled to
    the nominal host speed by the reference loop it runs around the set-up."""
    argv = [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH)]
    for key, val in sorted(overrides.items()):
        argv += [key, val]
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        setup, ref = (float(x) for x in done.stdout.split()[-2:])
        times.append(setup * host.REF_NOMINAL_S / ref)
    return statistics.median(times)


def run_passes(prog, workload, inputs, seconds, tracer=None, max_passes=None, sample=False):
    """Passes until the next one would end after `seconds` (at least one).

    With `sample`, each pass samples the host speed, and its ``scale``
    converts the pass's times to the nominal host speed.
    """
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        sampler = host.HostSampler() if sample else None
        meter = workloads.Meter(tracer, sampler)
        outcomes = workload.run_pass(prog, inputs, meter)
        passes.append(
            {
                "wall": meter.wall,
                "cpu": meter.cpu,
                "scale": sampler.scale() if sampler else None,
                "outcomes": outcomes,
                "mp_prec": prog.mp.prec,
            }
        )
        last = time.perf_counter() - t0
        if max_passes and len(passes) >= max_passes:
            return passes
        if time.perf_counter() - start + last > seconds:
            return passes


def end_to_end(passes, setup_s):
    outcomes = [o for p in passes for o in p["outcomes"]]
    defects = [o.defect for o in outcomes if o.defect is not None]
    return {
        "wall_norm_s": statistics.median(p["wall"] * p["scale"] for p in passes),
        "cpu_norm_s": statistics.median(p["cpu"] * p["scale"] for p in passes),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": sum(o.ok for o in outcomes) / len(outcomes),
        "defect_digits": -math.log10(max(defects, default=1.0) or 1e-300),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        prog = load_program()
    except (ProgramMissing, ImportError) as exc:
        print("bench: cannot load the program: %s" % exc, file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    if args.trace:
        passes = run_passes(prog, workload, inputs, args.seconds, max_passes=1)
        tracer = spans.Tracer(prog)
        tracer.install()
        try:
            passes += run_passes(prog, workload, inputs, args.seconds, tracer=tracer, max_passes=1)
        finally:
            tracer.uninstall()
        tracer.write(BENCH / "out" / ("trace-%s.json" % args.workload))
        values = tracer.metrics(passes[0]["wall"], passes[1]["wall"])
        units = spans.metric_units()
    else:
        setup_s = measure_setup(inputs.setup_overrides)
        passes = run_passes(prog, workload, inputs, args.seconds, sample=True)
        values = end_to_end(passes, setup_s)
        units = END_TO_END_UNITS
    outcomes = [o for p in passes for o in p["outcomes"]]
    failed = sum(not o.ok for o in outcomes)
    log = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "mp_prec": sorted({p["mp_prec"] for p in passes}),
        "pass_wall_s": [p["wall"] for p in passes],
        "pass_cpu_s": [p["cpu"] for p in passes],
        "pass_host_scale": [p["scale"] for p in passes],
        "outcomes": [[o.op, o.ok, str(o.detail), o.defect] for o in passes[0]["outcomes"]],
    }
    print(json.dumps(log))
    for o in outcomes:
        if not o.ok:
            print("bench: FAILED %s (%s)" % (o.op, o.detail), file=sys.stderr)
    result = {
        "correct": failed == 0 and len(outcomes) > 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
