"""Self-tests of the benchmark harness: python3 -m pytest bench/test_bench.py

They run small slices of each workload's batch, so they take seconds, not
the minutes a full pass takes.
"""

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import host  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def prog():
    return run.load_program()


def _small(name, inputs):
    """A cheap slice of a workload's batch, with the same input generator."""
    if name == "solve":
        return dataclasses.replace(inputs, items=tuple(i for i in inputs.items if i.n == 1))
    if name == "verify":
        return dataclasses.replace(
            inputs,
            cases=tuple(c for c in inputs.cases if c.n == 1),
            suites=(("operator-algebra", 2),),
        )
    return dataclasses.replace(inputs, pairs=tuple(p for p in inputs.pairs if len(p[0]) == 1))


def _pass(prog, name, seed):
    wl = workloads.WORKLOADS[name]
    return wl.run_pass(prog, _small(name, wl.inputs(seed)), workloads.Meter())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_results(prog, name):
    wl = workloads.WORKLOADS[name]
    assert wl.inputs(7) == wl.inputs(7)
    first = _pass(prog, name, 7)
    assert first and all(o.ok for o in first), first
    assert _pass(prog, name, 7) == first


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_different_seed_changes_inputs(name):
    wl = workloads.WORKLOADS[name]
    assert wl.inputs(1) != wl.inputs(2)


@pytest.mark.parametrize("item", workloads.solve_inputs(1).items, ids=lambda i: "%s-%d" % (i.family, i.n))
@pytest.mark.parametrize("delta", (-1, 1))
def test_gate_rejects_off_by_one_dimension(prog, item, delta):
    dim = workloads.expected_dimension(item.family, item.n, item.dprime) + delta
    outcome = workloads.gate_solve(prog, item, None, None, [None] * dim)
    assert not outcome.ok and outcome.detail == dim


def test_expected_dimensions():
    dims = [workloads.expected_dimension(*mix) for mix in workloads.SOLVE_MIX]
    assert dims == [6, 10, 21, 2]


def test_soundness_control_rejects_a_perturbed_operator(prog):
    inputs = workloads.verify_inputs(3)
    S = prog.cli.session_from_config(prog.cli.load_config(None, dict(inputs.overrides)))
    case = inputs.cases[0]
    member, soundness = workloads.gate_membership(case, *workloads.membership_reports(prog, S, case))
    assert member.ok and soundness.ok
    # a checker that passes everything is caught by the control
    passing = SimpleNamespace(passed=True, max_defect=0.0)
    _, fooled = workloads.gate_membership(case, passing, passing, passing)
    assert not fooled.ok


def test_tracer_records_spans_and_restores(prog):
    original = prog.curve.CurveContext.e
    tracer = spans.Tracer(prog)
    tracer.install()
    try:
        inputs = _small("lattice", workloads.lattice_inputs(5))
        outcomes = workloads.lattice_pass(prog, inputs, workloads.Meter(tracer))
    finally:
        tracer.uninstall()
    assert prog.curve.CurveContext.e is original
    assert all(o.ok for o in outcomes)
    m = tracer.metrics(1.0, 1.5)
    assert m["weyl.theta_symmetrization_rank.calls"] == len(inputs.pairs)
    assert m["curve.e.calls"] > 0 and m["curve.dist_to_lattice.calls"] == 0
    rank = "weyl.theta_symmetrization_rank"
    assert 0 < m[rank + ".self_s"] < m[rank + ".s"]
    assert m["trace.overhead_s"] == 0.5
    # the untimed accuracy gate ran with the tracer off
    assert m["curve.theta.calls"] == 0


def test_host_sampler_leaves_its_own_time_out():
    sampler = host.HostSampler()
    meter = workloads.Meter(sampler=sampler)
    handler = signal.getsignal(signal.SIGALRM)
    t0 = time.perf_counter()
    with meter.timed():
        while time.perf_counter() - t0 < 0.5:
            host.reference()
    elapsed = time.perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is handler
    assert len(sampler.samples) >= 5 and sampler.wall > 0
    assert abs(meter.wall + sampler.wall - elapsed) < 0.01
    mean = sum(sampler.samples) / len(sampler.samples)
    assert sampler.scale() == pytest.approx(host.REF_NOMINAL_S / mean)


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.metric_units()


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, "bench/run.py", "--workload", "solve", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0 and done.stdout == ""
