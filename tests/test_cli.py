import json
import os
import subprocess
import sys

import pytest

from ccnops.cli import ConfigError, load_config, parse_complex, run_suite, session_from_config
from ccnops.conditions import first_order_model
from conftest import ETA, Q, T


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(*args, **env):
    """`python -m ccnops.cli args` on this checkout's src, with env added to the environment."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "ccnops.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path, **env},
        timeout=560,
    )


def test_exit_zero_on_pass():
    out = run_cli("suite", "degenerations")
    assert out.returncode == 0
    assert "pass" in out.stdout


def test_exit_two_on_low_precision():
    out = run_cli("--prec", "32", "suite", "kernel-identities")
    assert out.returncode == 2
    assert "configuration error" in out.stderr


@pytest.mark.parametrize("command", [("suite", "van-diejen"), ("solve-section", "van-diejen")], ids=" ".join)
def test_exit_two_on_bad_constraint(tmp_path, command):
    # both van Diejen commands read the configured eta' and x's through one check
    cfg = tmp_path / "bad.cfg"
    lines = ["x%d=0.0%d+0.01j" % (j, j) for j in range(1, 9)]
    lines.append("eta_prime=0.9+0.9j")  # violates sum(x) = 2 eta'
    cfg.write_text("\n".join(lines) + "\n")
    out = run_cli("--config", str(cfg), *command)
    assert out.returncode == 2
    assert "2*eta_prime" in out.stderr and "Traceback" not in out.stderr
    assert "dimension" not in out.stdout


NON_FINITE = [("tau", "nan+1j"), ("q", "0.21+infj"), ("t", "nan+0.1j"), ("eta_prime", "nan"), ("x3", "nan+0.1j"),
              ("tol", "nan"), ("tol", "-1"), ("tol", "0"), ("tol", "inf")]


@pytest.mark.parametrize("key, value", NON_FINITE, ids=["%s=%s" % kv for kv in NON_FINITE])
def test_non_finite_inputs_are_config_errors(key, value):
    # a NaN modulus ended in a traceback, a NaN t let every check pass (max(worst, nan) keeps worst),
    # and a NaN or negative tol failed every check: each exits 2 with the key named
    out = run_cli("--seed", "4", "suite", "operator-algebra", **{"CCNOPS_" + key.upper(): value})
    assert out.returncode == 2
    assert "configuration error" in out.stderr and key in out.stderr and "Traceback" not in out.stderr


NON_FINITE_POINTS = [("eval", "theta", "nan"), ("eval", "theta", "inf"), ("eval", "gamma", "inf"), ("fourier-kernel", "nan"),
                     ("eval", "family", "first-order", "u=0.1;0.2", "at=nan")]


@pytest.mark.parametrize("args", NON_FINITE_POINTS, ids=" ".join)
def test_non_finite_command_line_points_are_config_errors(args):
    # eval theta printed 0 and exited 0, eval gamma and fourier-kernel ended in
    # tracebacks, and the family's point was reported as lying on a pole
    out = run_cli(*args)
    assert out.returncode == 2
    assert "configuration error" in out.stderr and "must be finite" in out.stderr and "Traceback" not in out.stderr


def test_unknown_config_key_is_a_config_error(tmp_path):
    # a misspelt key (pec for prec) must not run at the default precision and pass
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("pec=64\n")
    out = run_cli("--config", str(cfg), "suite", "degenerations")
    assert out.returncode == 2
    assert "pec" in out.stderr and "Traceback" not in out.stderr


NO_SAMPLE_RUNS = [
    ("samples", ("--seed", "4", "suite", "kernel-identities"), {"CCNOPS_SAMPLES": "0"}),
    ("trunc", ("--seed", "4", "--trunc", "0", "suite", "fourier"), {}),
]


@pytest.mark.parametrize("key, args, env", NO_SAMPLE_RUNS, ids=[run[0] for run in NO_SAMPLE_RUNS])
def test_samples_and_trunc_below_one_are_config_errors(key, args, env):
    # with no samples or no truncation order a check reads defect 0 and passes without testing anything
    out = run_cli(*args, **env)
    assert out.returncode == 2
    assert key in out.stderr and "Traceback" not in out.stderr


def test_van_diejen_above_n2_is_a_config_error():
    # the van Diejen solve is established for n <= 2; a larger n must not run n = 2 and pass
    with pytest.raises(ConfigError, match="n <= 2"):
        run_suite("van-diejen", load_config(overrides={"n": 3}))


@pytest.mark.parametrize("suite", ["operator-algebra", "cascade", "fourier"])
def test_suites_generic_in_n_pass_at_n3(suite):
    # these suites read n throughout; at n = 3 every check runs at n = 3 and passes
    status, report = run_suite(suite, load_config(overrides={"n": 3, "seed": 4}))
    assert status == 0 and report["config"]["n"] == "3"
    assert [r["pass"] for r in report["checks"]] == [True] * {"operator-algebra": 6, "cascade": 4, "fourier": 4}[suite]


def test_cli_exits_two_above_n2():
    out = run_cli("--n", "3", "suite", "van-diejen")
    assert out.returncode == 2
    assert "van-diejen" in out.stderr and "n <= 2" in out.stderr and "Traceback" not in out.stderr


def test_suite_all_exits_two_above_n2():
    # `all` stops at the van Diejen suite rather than skip it and pass the rest
    out = run_cli("--n", "3", "suite", "all")
    assert out.returncode == 2
    assert "van-diejen" in out.stderr and "n <= 2" in out.stderr and "Traceback" not in out.stderr


@pytest.mark.parametrize("family", ["first-order", "van-diejen"])
def test_solve_section_above_n2_is_a_config_error(family):
    # the section solve is established for n <= 2; a larger n exits 2, not with a traceback
    out = run_cli("--n", "3", "solve-section", family)
    assert out.returncode == 2
    assert "n <= 2" in out.stderr and "Traceback" not in out.stderr


BAD_BINDINGS = [("first-order", "n=0"), ("first-order", "n=-1"), ("first-order", "n=abc"), ("cascade", "d=two"),
                ("torsion", "d=0")]


@pytest.mark.parametrize("family, binding", BAD_BINDINGS)
def test_eval_family_rejects_bad_integer_bindings(family, binding):
    # n and d of an eval family are integers, n >= 1; anything else exits 2, not with a traceback
    out = run_cli("eval", "family", family, binding)
    assert out.returncode == 2
    assert "configuration error" in out.stderr and "Traceback" not in out.stderr


MALFORMED = [
    ("eval", "gamma"),
    ("eval", "family"),
    ("eval", "compose", "first-order"),
    ("eval", "compose", "first-order[n=1]", "first-order[n=2]"),
    ("--n", "2", "eval", "family", "first-order", "at=0.11+0.13j"),
    ("--n", "1", "eval", "family", "first-order", "u=0.3+0.1j;0.2+0.4j", "at=0.11+0.13j;0.5"),
    ("fourier-kernel", "0.1", "--at", "0.1;0.2;0.3"),
]


@pytest.mark.parametrize("args", MALFORMED, ids=" ".join)
def test_missing_operands_and_wrong_points_are_config_errors(args):
    # a missing operand, or a point whose coordinate count is not n, exits 2, not with a traceback
    out = run_cli(*args)
    assert out.returncode == 2
    assert "configuration error" in out.stderr and "Traceback" not in out.stderr


N2_POINT_COMMANDS = [("eval", "family", "first-order"), ("fourier-kernel", "0.1")]


@pytest.mark.parametrize("command", N2_POINT_COMMANDS, ids=" ".join)
def test_default_point_at_n2_is_off_the_poles(command):
    # the default point has distinct coordinates, so it is not on z1 = z2
    out = run_cli("--n", "2", "--trunc", "2", *command)
    assert out.returncode == 0, out.stderr
    assert len([l for l in out.stdout.splitlines() if l.strip()]) >= 3


@pytest.mark.parametrize("command", N2_POINT_COMMANDS, ids=" ".join)
def test_explicit_point_on_a_pole_is_a_config_error(command):
    # an explicit point on the pole z1 = z2 exits 2 with the pole named, not with a traceback
    point = "0.11+0.13j;0.11+0.13j"
    at = ("at=" + point,) if command[0] == "eval" else ("--at", point)
    out = run_cli("--n", "2", "--trunc", "2", *command, *at)
    assert out.returncode == 2
    assert "-z1 + z2 = 0" in out.stderr and "Traceback" not in out.stderr


def test_threads_flag_rejected():
    # checks run in one thread; the removed --threads flag is a usage error
    out = run_cli("--threads", "2", "suite", "degenerations")
    assert out.returncode == 2
    assert "error" in out.stderr


def test_exit_one_on_failing_check(tmp_path):
    # an absurd tolerance forces failures without invalidating the config
    out = run_cli("--tol", "1e-200", "suite", "degenerations")
    assert out.returncode in (0, 1)
    # degenerations checks are exact (defect 0), so force failure elsewhere
    out = run_cli("--tol", "1e-200", "suite", "operator-algebra")
    assert out.returncode == 1


def test_determinism(tmp_path):
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    assert run_cli("--seed", "4", "--out", str(r1), "suite", "degenerations").returncode == 0
    assert run_cli("--seed", "4", "--out", str(r2), "suite", "degenerations").returncode == 0
    a, b = json.loads(r1.read_text()), json.loads(r2.read_text())
    assert a["content_hash"] == b["content_hash"]
    strip = lambda doc: {**doc, "checks": [{k: v for k, v in c.items() if k != "millis"} for c in doc["checks"]]}
    assert strip(a) == strip(b)


def test_env_override():
    out = run_cli("suite", "degenerations", CCNOPS_PREC="32")
    assert out.returncode == 2


def test_x_keys_from_the_environment_reach_the_session(tmp_path, monkeypatch):
    # x1..x8 set in the environment alone reach the session's xs, and a key
    # set at every level takes the flag over the environment over the file
    xs = ["0.0%d+0.01j" % j for j in range(1, 9)]
    for j, x in enumerate(xs, 1):
        monkeypatch.setenv("CCNOPS_X%d" % j, x)
    assert session_from_config(load_config())["xs"] == [parse_complex(x, "x%d" % j) for j, x in enumerate(xs, 1)]
    cfg = tmp_path / "x.cfg"
    cfg.write_text("x1=0.5+0.5j\nx2=0.6+0.6j\n")
    monkeypatch.delenv("CCNOPS_X2")
    assert [load_config(str(cfg))[k] for k in ("x1", "x2")] == [xs[0], "0.6+0.6j"]
    assert load_config(str(cfg), {"x1": "0.7+0.7j"})["x1"] == "0.7+0.7j"


@pytest.mark.parametrize("tau", ["0.31j", "0.5+0.32j"])
def test_kernel_identities_at_small_im_tau(tau):
    # with Im tau < 0.5 the Gamma identities still draw q with Im q above MIN_IM
    status, report = run_suite("kernel-identities", load_config(None, {"tau": tau}))
    assert status == 0, [c["id"] for c in report["checks"] if not c["pass"]]


def test_report_schema_versioned():
    out = run_cli("report-schema")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["schema_version"] == "1"
    assert "checks" in doc["fields"]


def test_eval_theta_zero():
    out = run_cli("eval", "theta", "0")
    assert out.returncode == 0
    assert "0.0" in out.stdout


def test_eval_family_coefficients():
    out = run_cli("--n", "1", "eval", "family", "first-order", "u=0.3+0.1j;0.2+0.4j", "at=0.11+0.13j")
    assert out.returncode == 0
    lines = [l for l in out.stdout.splitlines() if l.strip()]
    assert len(lines) == 2  # the two half-shift coefficients


def test_eval_compose():
    out = run_cli(
        "--n", "1", "eval", "compose",
        "first-order[u=0.3+0.1j;0.2+0.4j]", "first-order[u=0.1+0.2j;0.15+0.33j]",
        "at=0.11+0.13j",
    )
    assert out.returncode == 0
    lines = [l for l in out.stdout.splitlines() if l.strip()]
    assert len(lines) == 3  # shifts -1, 0, 1


def test_solve_section_command():
    out = run_cli("--n", "1", "solve-section", "first-order", "--dprime", "1")
    assert out.returncode == 0
    assert "dimension 4" in out.stdout


@pytest.mark.parametrize("n, dprime", [(1, -1), (2, -3)])
def test_negative_dprime_is_a_config_error(ctx, n, dprime):
    # d' < 0 leaves an empty ansatz (K = 2d' + 2 <= 0), which read as dimension 0
    out = run_cli("--n", str(n), "solve-section", "first-order", "--dprime", str(dprime))
    assert out.returncode == 2
    assert "configuration error" in out.stderr and "dprime" in out.stderr and "Traceback" not in out.stderr
    with pytest.raises(ValueError, match="dprime"):
        first_order_model(ctx, n, dprime, ETA, Q, T)


def test_fourier_kernel_command():
    out = run_cli("--n", "1", "--trunc", "2", "fourier-kernel", "0.1+0.2j")
    assert out.returncode == 0
    assert out.stdout.count("(") >= 3


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("prec", [96, 128])
def test_fourier_suite_passes_at_low_precision(prec, n):
    # the kernel comparisons measure each point against the largest coefficient
    # compared there: zero targets such as K(c) K(-c) - 1 read their rounding
    # against that scale, so the suite passes at 96 and 128 bits
    out = run_cli("--seed", "4", "--n", str(n), "--prec", str(prec), "suite", "fourier")
    assert out.returncode == 0, out.stdout + out.stderr
