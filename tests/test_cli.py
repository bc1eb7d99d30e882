import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kwlab
from kwlab import make_torus, problem, solvers, spectral, threshold
from kwlab.cli import KEYS, main, read_pairs
from kwlab.diagnostics import TREND_SLOPE_TOL, trend_slope
from kwlab.errors import EigenSolveError
from kwlab.fields import named_field
from kwlab.serialize import read_field


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured


def last_json_line(text):
    return json.loads(text.strip().splitlines()[-1])


def read_tree(root):
    """Every file under root, by its path relative to root, with its bytes."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_solve_constant(tmp_path, capsys):
    out = tmp_path / "run"
    code, cap = run_cli(
        capsys, "solve", "--out", str(out),
        "field=const", "field_value=-1.0", "alpha=-2.0", "sizes=32,32",
    )
    assert code == 0
    summary = last_json_line(cap.out)
    assert summary["converged"] is True
    assert summary["exit_code"] == 0
    assert summary["defect"] <= 1e-10
    # artifacts on disk
    assert (out / "summary.json").exists()
    assert (out / "effective_config.txt").exists()
    u = read_field(out / "solve_u")
    assert np.max(np.abs(u.values - 0.5 * np.log(2.0))) < 1e-9


def test_solve_unsolvable_exits_2(tmp_path, capsys):
    code, cap = run_cli(
        capsys, "solve", "--out", str(tmp_path / "run"),
        "field=const", "field_value=1.0", "alpha=-1.0", "sizes=32,32",
    )
    assert code == 2
    summary = last_json_line(cap.out)
    assert summary["converged"] is False


def test_solve_runs_only_the_constant_start(tmp_path, capsys, monkeypatch):
    starts = []
    newton = solvers.newton_solve

    def recorded(inst, start, **kw):
        starts.append(np.array_equal(start.values, problem.constant_solution(inst).values))
        return newton(inst, start, **kw)

    monkeypatch.setattr(solvers, "newton_solve", recorded)
    code, cap = run_cli(capsys, "solve", "--out", str(tmp_path / "run"),
                        "field=sin1", "field_offset=-0.5", "sizes=32,32", "alpha=-1")
    assert code == 0 and last_json_line(cap.out)["converged"] is True
    assert starts == [True]     # one start, the constant one


def test_failed_solve_writes_evidence_not_a_report(tmp_path, capsys):
    out = tmp_path / "run"
    code, cap = run_cli(capsys, "solve", "--out", str(out), "field=sin1",
                        "field_offset=-0.5", "sizes=32,32", "alpha=-50")
    summary = last_json_line(cap.out)
    assert code == summary["exit_code"] == 2
    assert summary["converged"] is False
    # Newton's fifth Krylov solve fills its basis of KRYLOV_STEPS short of
    # its tolerance, so the failed line search after it is reported as such
    assert summary["evidence"] == ["newton[constant]: linear_solve_stagnation"]
    assert not (out / "solve.report.json").exists()


def test_missing_keys_exit_1(tmp_path, capsys):
    code, cap = run_cli(capsys, "solve", "--out", str(tmp_path / "run"))
    assert code == 1
    err = json.loads(cap.err.strip())
    assert "field" in err["error"] and "alpha" in err["error"]


def test_unknown_override_exit_1(tmp_path, capsys):
    # residual_tol is no key: every solve converges at solvers.RESIDUAL_TOL;
    # nor is out: --out alone names the output directory
    for override in ("bogus_key=3", "residual_tol=1e-8", f"out={tmp_path / 'elsewhere'}"):
        code, cap = run_cli(
            capsys, "solve", "--out", str(tmp_path / "run"),
            "field=const", "field_value=-1.0", "alpha=-1.0", override,
        )
        assert code == 1
        key = override.partition("=")[0]
        assert json.loads(cap.err.strip())["error"] == f"unknown config key {key!r}"
        assert cap.out == ""
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("override", ["tol=abc", "count=x", "sizes=a,b"])
def test_malformed_number_exit_1(tmp_path, capsys, override):
    code, cap = run_cli(
        capsys, "diagnose", "--out", str(tmp_path / "run"), "field=sin1", override,
    )
    assert code == 1
    key, _, value = override.partition("=")
    err = json.loads(cap.err.strip())
    assert key in err["error"] and repr(value) in err["error"]
    assert cap.out == ""


def test_unknown_config_file_key_exit_1(tmp_path, capsys, monkeypatch):
    # a config file's keys are checked like overrides
    monkeypatch.chdir(tmp_path)
    cfgfile = tmp_path / "case.cfg"
    for key, line in (("budgett", "budgett = 3"), ("out", "out = elsewhere")):
        cfgfile.write_text(f"field = const\nfield_value = -1.0\nalpha = -2.0\n{line}\n")
        code, cap = run_cli(
            capsys, "solve", "--config", str(cfgfile), "--out", str(tmp_path / "run"), "sizes=16,16"
        )
        assert code == 1
        assert json.loads(cap.err.strip())["error"] == f"unknown config key {key!r}"
        assert cap.out == ""
        assert list(tmp_path.iterdir()) == [cfgfile]


@pytest.mark.parametrize("config", ["missing.cfg", ".", "binary.cfg"],
                         ids=["missing", "directory", "not_utf8"])
def test_unreadable_config_file_exit_1(tmp_path, capsys, monkeypatch, config):
    # a --config that cannot be read is an operational error like any other:
    # one JSON error line, no traceback, and nothing written
    monkeypatch.chdir(tmp_path)
    Path("binary.cfg").write_bytes(b"field=const\n\xff\xfe\n")
    code, cap = run_cli(capsys, "solve", "--config", config, "--out", "run", "alpha=-2.0")
    assert code == 1
    assert json.loads(cap.err.strip())["error"].startswith(f"cannot read config {config!r}: ")
    assert cap.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["binary.cfg"]


@pytest.mark.parametrize("where", ["override", "config"])
def test_line_without_equals_exit_1(tmp_path, capsys, monkeypatch, where):
    # the one key=value reader names the override or the file line it rejects
    monkeypatch.chdir(tmp_path)
    if where == "config":
        Path("case.cfg").write_text("# a comment\nfield=const\n\nfield_value -1.0\n")
        args, bad = ["--config", "case.cfg"], "case.cfg:4: expected key=value, got "
    else:
        args, bad = ["field=const", "field_value -1.0"], "override:3: expected key=value, got "
    code, cap = run_cli(capsys, "solve", "--out", "run", "alpha=-2.0", *args)
    assert code == 1
    assert json.loads(cap.err.strip())["error"] == bad + "'field_value -1.0'"
    assert cap.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == (["case.cfg"] if where == "config" else [])


@pytest.mark.parametrize("keys, problem", [
    (["field=const"], "field_value: required for field=const"),
    (["field=random_fourier", "field_p=3"], "field_seed: required for field=random_fourier"),
    (["field=random_fourier", "field_seed=1"], "field_p: required for field=random_fourier"),
], ids=["field_value", "field_seed", "field_p"])
def test_field_parameters_required(tmp_path, capsys, keys, problem):
    code, cap = run_cli(capsys, "threshold", "--out", str(tmp_path / "thr"), "sizes=16,16", *keys)
    assert code == 1
    assert json.loads(cap.err.strip())["error"] == f"config validation failed: {problem}"
    assert cap.out == ""
    assert not (tmp_path / "thr").exists()


@pytest.mark.parametrize("args", [
    ["n=1"], ["budget=1.0"], ["start_alpha=-0.01"], ["field_shift_max_zero=false"],
    ["solver=newton"], ["--tol", "1e-3"],
], ids=["n", "budget", "start_alpha", "field_shift_max_zero", "solver", "--tol"])
def test_removed_settings_rejected(tmp_path, capsys, args):
    code, cap = run_cli(
        capsys, "threshold", "--out", str(tmp_path / "thr"),
        "field=sin1", "field_offset=-0.5", "sizes=16,16", *args,
    )
    assert code == 1
    assert args[0].partition("=")[0] in json.loads(cap.err.strip())["error"]
    assert cap.out == ""
    assert not (tmp_path / "thr").exists()


@pytest.mark.parametrize("name", ["nope", "two_mode_shifted"])
def test_unknown_field_name_exits_1(tmp_path, capsys, name):
    # no name carries the max-to-0 shift: dingliu applies it itself
    code, cap = run_cli(capsys, "solve", "--out", str(tmp_path / "run"),
                        f"field={name}", "sizes=16,16", "alpha=-1")
    assert code == 1
    assert json.loads(cap.err.strip())["error"] == f"unknown field name {name!r}"
    assert cap.out == ""
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key", ["tol"])
@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("mode, field", [
    ("threshold", ["field=sin1", "field_offset=-0.5"]),
    ("dingliu", ["field=two_mode"]),
], ids=["threshold", "dingliu"])
def test_nonpositive_tol_rejected(tmp_path, capsys, mode, field, value, key):
    code, cap = run_cli(
        capsys, mode, "--out", str(tmp_path / "run"), *field, "sizes=16,16", f"{key}={value}",
    )
    assert code == 1
    assert json.loads(cap.err.strip())["error"] == (
        f"config validation failed: {key}: must be positive, got '{value}'"
    )
    assert cap.out == ""
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key", ["tol", "s0", "alpha", "alphas", "field_offset", "field_value",
                                 "field_p", "lengths"])
@pytest.mark.parametrize("value", ["inf", "1e400", "-inf", "nan"])
def test_nonfinite_tol_rejected(tmp_path, capsys, value, key):
    code, cap = run_cli(
        capsys, "threshold", "--out", str(tmp_path / "run"),
        "field=sin1", "field_offset=-0.5", "sizes=16,16", f"{key}={value}",
    )
    assert code == 1
    assert json.loads(cap.err.strip())["error"] == (
        f"config validation failed: {key}: must be finite, got '{value}'"
    )
    assert cap.out == ""
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("keys, problem", [
    (["field=sin1", "field_offset=-0.5", "count=0"], "count: must be at least 1, got '0'"),
    (["field=sin1", "field_offset=-0.5", "count=-2"], "count: must be at least 1, got '-2'"),
    (["field=random_fourier", "field_p=3", "field_seed=-1"],
     "field_seed: must be at least 0, got '-1'"),
], ids=["0", "-2", "field_seed=-1"])
def test_count_below_one_rejected(tmp_path, capsys, monkeypatch, keys, problem):
    # a count below 1, or a seed numpy cannot take, is a config error
    def no_search(*args, **kw):
        raise AssertionError("the search ran before the config was checked")

    monkeypatch.setattr(threshold, "find_alpha_star", no_search)
    code, cap = run_cli(capsys, "family", "--out", str(tmp_path / "fam"), "sizes=16,16", *keys)
    assert code == 1
    assert json.loads(cap.err.strip())["error"] == f"config validation failed: {problem}"
    assert cap.out == ""
    assert not (tmp_path / "fam").exists()


@pytest.mark.parametrize("args, message", [
    (["bogus", "--out", "o"], "argument mode: invalid choice: 'bogus'"),
    (["selftest", "--out", "o"], "argument mode: invalid choice: 'selftest'"),
    ([], "the following arguments are required: mode"),
], ids=["unknown", "selftest", "missing"])
def test_bad_mode_exits_1_with_json(tmp_path, capsys, monkeypatch, args, message):
    monkeypatch.chdir(tmp_path)
    code, cap = run_cli(capsys, *args)
    assert code == 1
    assert json.loads(cap.err.strip())["error"].startswith(message)
    assert cap.out == ""
    assert list(tmp_path.iterdir()) == []


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: kwlab" in capsys.readouterr().out


def test_config_file_and_override_precedence(tmp_path, capsys):
    cfgfile = tmp_path / "case.cfg"
    cfgfile.write_text(
        "# comment line\n"
        "field = const\n"
        "field_value = -1.0\n"
        "alpha = -2.0\n"
        "sizes = 32,32\n"
    )
    parsed = read_pairs(cfgfile.read_text().splitlines(), str(cfgfile))
    assert parsed["field"] == "const" and parsed["alpha"] == "-2.0"
    out = tmp_path / "run"
    code, cap = run_cli(
        capsys, "solve", "--config", str(cfgfile), "--out", str(out), "alpha=-4.0"
    )
    assert code == 0
    summary = last_json_line(cap.out)
    assert summary["alpha"] == -4.0  # override beats the file


def test_threshold_mode(tmp_path, capsys):
    out = tmp_path / "thr"
    code, cap = run_cli(
        capsys, "threshold", "--out", str(out),
        "field=sin1", "field_offset=-0.5", "sizes=32,32", "tol=5e-3",
    )
    assert code == 0
    summary = last_json_line(cap.out)
    thr = summary["threshold"]
    assert thr["lo"] < thr["hi"] < 0
    assert thr["width"] <= 5e-3
    csv_lines = (out / "family.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "param,sup_norm_u,energy,defect,lambda_min"
    assert len(csv_lines) == thr["family_size"] + 1
    assert (out / "member_000.report.json").exists()


def test_threshold_on_a_large_torus(tmp_path, capsys):
    # α★ scales as 1/L²: on the 2×2 torus the fold of two_mode − ½ lies
    # within the search's first steps, one of which turns past it
    code, cap = run_cli(
        capsys, "threshold", "--out", str(tmp_path / "thr"),
        "field=two_mode", "field_offset=-0.5", "sizes=32,32", "lengths=2,2",
    )
    assert code == 0
    thr = last_json_line(cap.out)["threshold"]
    assert thr["lo"] < thr["estimate"] < thr["hi"] < 0
    assert np.isfinite(thr["lo"]) and 0 < thr["width"] <= 1e-3
    # a quarter of the unit torus's α★
    assert thr["estimate"] == pytest.approx(-2.790931345125221 / 4, abs=1e-9)


def test_threshold_with_eigs_solves_each_eigenvalue_once(tmp_path, capsys, monkeypatch):
    calls = []
    original = spectral.min_eigenvalue

    def counted(V, tol=1e-8, max_iters=None, start=None):
        calls.append(tol)
        return original(V, tol, max_iters, start)

    monkeypatch.setattr(spectral, "min_eigenvalue", counted)
    out = tmp_path / "thr"
    code, cap = run_cli(
        capsys, "threshold", "--out", str(out),
        "field=sin1", "field_offset=-0.5", "sizes=16,16", "tol=5e-3", "with_eigs=true",
    )
    assert code == 0
    thr = json.loads((out / "summary.json").read_text())["threshold"]
    assert "flags" not in thr
    # one per member, the solvable end's among them
    assert len(calls) == thr["family_size"]
    # the probe record: every probe, with the λ_min the search steered by
    solved = [p for p in thr["probes"] if p["solved"]]
    assert len(solved) == thr["family_size"]
    assert any(p["param"] == thr["lo"] and p["evidence"] for p in thr["probes"])
    assert all(p["min_eig"] is None for p in thr["probes"] if not p["solved"])
    csv_lines = (out / "family.csv").read_text().strip().splitlines()[1:]
    assert [float(line.split(",")[-1]) for line in csv_lines] == [p["min_eig"] for p in solved]


def test_dingliu_mode(tmp_path, capsys):
    out = tmp_path / "dl"
    code, cap = run_cli(
        capsys, "dingliu", "--out", str(out),
        "field=cos1", "sizes=32,32", "tol=5e-2",
    )
    assert code == 0
    thr = last_json_line(cap.out)["threshold"]
    assert thr["param"] == "lambda"
    assert 0.0 < thr["lo"] < thr["hi"] < 2.0


def test_dingliu_on_a_4d_grid_exits_1(tmp_path, capsys):
    # Ding-Liu's problem is the n = 1 one: the search rejects T⁴ before any output
    code, cap = run_cli(capsys, "dingliu", "--out", str(tmp_path / "dl"),
                        "d=4", "sizes=8,8,8,8", "field=two_mode")
    assert code == 1
    assert "n=1 (d=2)" in json.loads(cap.err.strip())["error"]
    assert cap.out == ""
    assert not (tmp_path / "dl").exists()


def test_dingliu_bracket_outside_its_range_exits_2(tmp_path, capsys, monkeypatch):
    # a λ bracket outside (0, −min g₀) is a numerical outcome
    def bracket_below_zero(*args):
        return threshold.ThresholdReport("lambda", -0.1, 0.05, [])

    monkeypatch.setattr(threshold, "_fold_search", bracket_below_zero)
    out = tmp_path / "dl"
    code, cap = run_cli(capsys, "dingliu", "--out", str(out), "field=two_mode", "sizes=16,16")
    assert code == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary == last_json_line(cap.out)
    assert summary["exit_code"] == 2
    assert summary["error"].startswith("lambda bracket [-0.1, 0.05] does not lie strictly inside")
    assert sorted(p.name for p in out.iterdir()) == ["summary.json"]


def csv_floats(path):
    """The data rows of a family.csv, every cell parsed as a float."""
    return [[float(x) for x in line.split(",")]
            for line in path.read_text().strip().splitlines()[1:]]


def test_dingliu_family_csv_carries_lambda_min(tmp_path, capsys, monkeypatch):
    calls = []
    original = spectral.min_eigenvalue

    def counted(V, tol=1e-8, max_iters=None, start=None):
        calls.append(tol)
        return original(V, tol, max_iters, start)

    monkeypatch.setattr(spectral, "min_eigenvalue", counted)
    out = tmp_path / "dl"
    code, cap = run_cli(
        capsys, "dingliu", "--out", str(out), "field=two_mode", "sizes=16,16", "tol=1e-2",
    )
    assert code == 0
    thr = last_json_line(cap.out)["threshold"]
    # with_eigs is false: the λ_min column is the search's, no eigen-solve
    # added to the members'
    assert len(calls) == thr["family_size"]
    solved = [p["min_eig"] for p in thr["probes"] if p["solved"]]
    rows = csv_floats(out / "family.csv")
    assert [row[-1] for row in rows] == solved
    assert [row[0] for row in rows] == [p["param"] for p in thr["probes"] if p["solved"]]


@pytest.mark.parametrize("mode, extra", [
    ("diagnose", []),
    ("threshold", ["with_eigs=true"]),
], ids=["diagnose", "threshold"])
def test_summary_probes_carry_the_rows_lambda_min(tmp_path, capsys, mode, extra):
    # S ≡ −1: the unbounded ladder, whose λ_min only the member rows solve
    out = tmp_path / mode
    code, cap = run_cli(
        capsys, mode, "--out", str(out), "field=const", "field_value=-1", "sizes=16,16", *extra,
    )
    thr = json.loads((out / "summary.json").read_text())["threshold"]
    assert thr["unbounded"]
    rows = csv_floats(out / "family.csv")
    assert len(rows) == len(thr["probes"]) == 4
    assert [(p["param"], p["min_eig"]) for p in thr["probes"]] == [(r[0], r[-1]) for r in rows]


def test_family_mode_explicit_alphas(tmp_path, capsys):
    out = tmp_path / "fam"
    code, cap = run_cli(
        capsys, "family", "--out", str(out),
        "field=const", "field_value=-1.0", "sizes=32,32", "alphas=-1.0,-2.0,-4.0",
    )
    assert code == 0
    summary = last_json_line(cap.out)
    assert summary["family_size"] == 3
    assert (out / "member_002.report.json").exists()


@pytest.mark.parametrize("alphas, problem", [
    ("-1,-0.5,-2", "strictly decreasing"),
    (",", "alphas: no number in ','"),
], ids=["nondecreasing", "empty"])
def test_family_rejects_nondecreasing_alphas(tmp_path, capsys, alphas, problem):
    code, cap = run_cli(
        capsys, "family", "--out", str(tmp_path / "fam"),
        "field=sin1", "field_offset=-0.5", "sizes=16,16", f"alphas={alphas}",
    )
    assert code == 1
    assert problem in json.loads(cap.err.strip())["error"]
    assert cap.out == ""
    assert not (tmp_path / "fam").exists()


@pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
def test_out_that_cannot_be_a_directory_exits_1(tmp_path, capsys, monkeypatch, under):
    # an --out that names a file, or a path under one, is an IO error found
    # before the solve runs, and the run writes nothing
    def no_solve(*args, **kw):
        raise AssertionError("the solve ran before --out was checked")

    monkeypatch.setattr(threshold, "probe_solvable", no_solve)
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    out = taken / "run" if under else taken
    code, cap = run_cli(capsys, "solve", "--out", str(out), "field=const", "field_value=-1",
                        "alpha=-1", "sizes=16,16")
    assert code == 1
    assert json.loads(cap.err.strip())["error"] == f"--out {str(out)!r} cannot be made a directory"
    assert cap.out == ""
    assert list(tmp_path.iterdir()) == [taken] and taken.read_text() == "kept\n"


@pytest.mark.parametrize("mode, bad, keys", [
    ("diagnose", "inject=bogus", ["field=const", "field_value=-1", "count=3"]),
    ("family", "with_eigs=ture", ["field=sin1", "field_offset=-0.5", "alphas=-1"]),
    ("family", "inject=diverge_up", ["field=sin1", "field_offset=-0.5", "alphas=-1,-2"]),
], ids=["inject", "with_eigs", "inject_outside_diagnose"])
def test_unknown_enumerated_value_rejected(tmp_path, capsys, mode, bad, keys):
    code, cap = run_cli(capsys, mode, "--out", str(tmp_path / "run"), "sizes=16,16", bad, *keys)
    assert code == 1
    assert bad.partition("=")[0] in json.loads(cap.err.strip())["error"]
    assert cap.out == ""
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("mode, keys", [
    ("solve", ["alpha=-1"]),
    ("family", ["alphas=-1,-2"]),
    ("diagnose", ["alphas=-1,-2"]),
])
def test_zero_mean_field_exits_2_before_newton(tmp_path, capsys, monkeypatch, mode, keys):
    # ∫S = 0 for sin1: every probe fails on the Kazdan-Warner obstruction
    # before a Newton start
    def no_newton(*args, **kwargs):
        raise AssertionError("a Newton start ran")

    monkeypatch.setattr(solvers, "newton_solve", no_newton)
    code, cap = run_cli(capsys, mode, "--out", str(tmp_path / "run"), "field=sin1",
                        "sizes=16,16", *keys)
    summary = last_json_line(cap.out)
    assert code == summary["exit_code"] == 2
    if mode == "solve":
        assert summary["evidence"] == ["sign_obstruction: integral of S >= 0"]
    else:
        assert summary["family_size"] == 0
        assert summary["walk"][0]["evidence"] == ["sign_obstruction: integral of S >= 0"]


def test_threshold_summary_carries_the_fold_certificate(tmp_path, capsys):
    out = tmp_path / "thr"
    code, _ = run_cli(capsys, "threshold", "--out", str(out), "field=sin1",
                      "field_offset=-0.5", "sizes=16,16")
    assert code == 0
    thr = json.loads((out / "summary.json").read_text())["threshold"]
    (failed,) = [p for p in thr["probes"] if not p["solved"]]
    assert failed["param"] == thr["lo"] and thr["probes"][-1] == failed
    assert [e.partition(":")[0] for e in failed["evidence"]] == ["fold"] * 5 + ["newton[warm]"]
    # the failed end's fold component sits on the normal form's floor, and
    # its Newton stops at the floor budget
    rho = float(failed["evidence"][4].rpartition("=")[2])
    assert failed["evidence"][4].startswith("fold: rho=") and rho >= threshold.FLOOR_FRACTION
    assert failed["evidence"][-1] == "newton[warm]: max_iters"
    # the estimate is the solved fold, the first evidence line's value
    assert failed["evidence"][0] == f"fold: alpha={thr['estimate']!r}"
    assert thr["lo"] < thr["estimate"] < thr["hi"]


def test_search_precondition_failure_writes_nothing(tmp_path, capsys):
    # ∫S > 0: find_alpha_star rejects the field before any output is started
    code, cap = run_cli(
        capsys, "threshold", "--out", str(tmp_path / "thr"),
        "field=sin1", "field_offset=0.5", "sizes=16,16",
    )
    assert code == 1
    assert "integrate(S) < 0" in json.loads(cap.err.strip())["error"]
    assert cap.out == ""
    assert not (tmp_path / "thr").exists()


def test_round_off_mean_field_fails_the_search_precondition(tmp_path, capsys, monkeypatch):
    # cos1's grid ∫S is −8e-17, round-off of its exact 0: the search rejects
    # it before any probe, as it rejects sin1's exact 0.0
    def no_newton(*args, **kwargs):
        raise AssertionError("a Newton start ran")

    monkeypatch.setattr(solvers, "newton_solve", no_newton)
    code, cap = run_cli(capsys, "threshold", "--out", str(tmp_path / "thr"),
                        "field=cos1", "sizes=32,32")
    assert code == 1
    assert "integrate(S) < 0" in json.loads(cap.err.strip())["error"]
    assert not (tmp_path / "thr").exists()


def test_diagnose_cutoff_failure_writes_nothing(tmp_path, capsys):
    # S's negative set is too thin on 8² for an automatic cutoff; the family
    # solves, but the run is rejected before any output is started
    code, cap = run_cli(
        capsys, "diagnose", "--out", str(tmp_path / "diag"),
        "field=sin1", "field_offset=-0.3", "sizes=8,8", "alphas=-0.5",
    )
    assert code == 1
    assert "too thin for an automatic cutoff" in json.loads(cap.err.strip())["error"]
    assert not (tmp_path / "diag").exists()


def test_family_alphas_truncated_with_note(tmp_path, capsys):
    # α★ ≈ −3.18 on this field, so α = −5 fails and ends the family
    out = tmp_path / "fam"
    code, cap = run_cli(
        capsys, "family", "--out", str(out),
        "field=sin1", "field_offset=-0.5", "sizes=16,16", "alphas=-1,-2,-5",
    )
    assert code == 0
    summary = last_json_line(cap.out)
    assert summary["family_size"] == 2
    # the walk's records say where the family ends and why
    walk = summary["walk"]
    assert [p["param"] for p in walk] == [-1.0, -2.0, -5.0]
    assert [p["solved"] for p in walk] == [True, True, False]
    assert walk[-1]["evidence"] and all(e.startswith("newton[") for e in walk[-1]["evidence"])
    last = json.loads((out / "member_001.report.json").read_text())
    assert last["converged"]
    assert last["failure_reason"] is None


def test_family_alphas_member_retried_on_max_iters(tmp_path, capsys, monkeypatch):
    probes = []
    original = threshold.probe_solvable

    def first_runs_out(inst, budget=1.0, **kw):
        probes.append((inst.alpha, budget))
        if len(probes) == 1:
            return threshold.ProbeRecord(inst.alpha, ["newton[constant]: max_iters"])
        return original(inst, budget, **kw)

    monkeypatch.setattr(threshold, "probe_solvable", first_runs_out)
    code, cap = run_cli(
        capsys, "family", "--out", str(tmp_path / "fam"),
        "field=sin1", "field_offset=-0.5", "sizes=16,16", "alphas=-1,-2",
    )
    assert code == 0
    assert last_json_line(cap.out)["family_size"] == 2
    assert probes == [(-1.0, 1.0), (-1.0, 4.0), (-2.0, 1.0)]


def test_far_jump_is_rescued_by_the_constant_start(tmp_path, capsys, monkeypatch):
    # warm from α = −0.01, Newton stagnates at α = −2 on two_mode − ½; the
    # constant start that follows the warm one solves it
    starts = []
    original = solvers.newton_solve

    def recorded(inst, start, **kw):
        rep = original(inst, start, **kw)
        constant = np.array_equal(start.values, problem.constant_solution(inst).values)
        starts.append((inst.alpha, "constant" if constant else "warm", rep.failure_reason))
        return rep

    monkeypatch.setattr(solvers, "newton_solve", recorded)
    out = tmp_path / "fam"
    code, cap = run_cli(
        capsys, "family", "--out", str(out),
        "field=two_mode", "field_offset=-0.5", "sizes=16,16", "alphas=-0.01,-2",
    )
    assert code == 0
    walk = last_json_line(cap.out)["walk"]
    assert [(p["param"], p["solved"]) for p in walk] == [(-0.01, True), (-2.0, True)]
    assert starts[1:] == [(-2.0, "warm", "stagnation"), (-2.0, "constant", None)]


def test_search_that_finds_no_solvable_start_exits_2(tmp_path, capsys, monkeypatch):
    # a search that never solves is a numerical outcome: exit 2, and the
    # summary is written although no other output was started
    def never_solves(inst, budget=1.0, *, param=None, **kw):
        return threshold.ProbeRecord(param, ["newton[constant]: stagnation"])

    monkeypatch.setattr(threshold, "probe_solvable", never_solves)
    out = tmp_path / "thr"
    code, cap = run_cli(capsys, "threshold", "--out", str(out),
                        "field=sin1", "field_offset=-0.5", "sizes=16,16")
    assert code == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary == last_json_line(cap.out)
    assert summary["exit_code"] == 2
    assert summary["error"].startswith("no solvable alpha found from -0.01 toward 0")


@pytest.mark.parametrize("mode, extra", [
    ("family", ["with_eigs=true"]),
    ("diagnose", []),
], ids=["family", "diagnose"])
def test_unconverged_eigenvalue_exits_2(tmp_path, capsys, monkeypatch, mode, extra):
    def unconverged(V, tol=1e-8, max_iters=None, start=None):
        raise EigenSolveError("forced non-convergence", -0.5)

    monkeypatch.setattr(spectral, "min_eigenvalue", unconverged)
    out = tmp_path / mode
    code, cap = run_cli(
        capsys, mode, "--out", str(out),
        "field=sin1", "field_offset=-0.5", "sizes=16,16", "alphas=-1", *extra,
    )
    assert code == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["exit_code"] == 2
    assert "forced non-convergence" in summary["error"]


def test_diagnose_negative_control_exits_2(tmp_path, capsys):
    code, cap = run_cli(
        capsys, "diagnose", "--out", str(tmp_path / "neg"),
        "field=const", "field_value=-1.0", "sizes=32,32",
        "inject=diverge_up", "count=6",
    )
    assert code == 2
    verdicts = last_json_line(cap.out)["verdicts"]
    assert not all(verdicts.values())


@pytest.mark.parametrize("count", [20, 202])
def test_negative_control_past_the_eigen_solver_range_exits_2(tmp_path, capsys, count):
    # member u ≡ 19 has V = 2e³⁸: its shift min V − 1 rounds to min V, and
    # its λ_min is a numerical outcome, so the run keeps its summary
    out = tmp_path / "neg"
    code, cap = run_cli(capsys, "diagnose", "--out", str(out), "field=const",
                        "field_value=-1.0", "sizes=16,16", "inject=diverge_up", f"count={count}")
    assert code == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary == last_json_line(cap.out)
    assert "too large to shift" in summary["error"]
    assert cap.err == ""


def test_injected_family_csv_leaves_energy_empty(tmp_path, capsys):
    # injected members carry no energy: an empty cell, not the text ''
    out = tmp_path / "neg"
    code, cap = run_cli(
        capsys, "diagnose", "--out", str(out),
        "field=const", "field_value=-1.0", "sizes=32,32", "inject=diverge_up", "count=3",
    )
    assert code == 2
    with (out / "family.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert all(row["energy"] == "" for row in rows)
    assert all(float(row["lambda_min"]) > 0 for row in rows)


def test_diagnose_tables_agree_per_member(tmp_path, capsys, monkeypatch):
    # one table: each member's defect and λ_min are computed once, and both
    # CSV files read them
    calls = {"defect": 0, "eig": 0}
    defect, min_eigenvalue = problem.integral_identity_defect, spectral.min_eigenvalue

    def counted_defect(inst, u, e=None):
        calls["defect"] += 1
        return defect(inst, u, e)

    def counted_eig(V, tol=1e-8, max_iters=None, start=None):
        calls["eig"] += 1
        return min_eigenvalue(V, tol, max_iters, start)

    monkeypatch.setattr(problem, "integral_identity_defect", counted_defect)
    monkeypatch.setattr(spectral, "min_eigenvalue", counted_eig)
    out = tmp_path / "diag"
    code, cap = run_cli(
        capsys, "diagnose", "--out", str(out),
        "field=sin1", "field_offset=-0.5", "sizes=16,16", "alphas=-1,-1.5,-2,-2.5",
    )
    summary = last_json_line(cap.out)
    assert code == summary["exit_code"]
    tables = {}
    for name in ("family.csv", "diagnostics.csv"):
        raw = (out / name).read_bytes()
        assert b"\r" not in raw and raw.endswith(b"\n")
        with (out / name).open(newline="") as fh:
            tables[name] = list(csv.DictReader(fh))
    family, diag = tables["family.csv"], tables["diagnostics.csv"]
    assert len(family) == len(diag) == summary["family_size"] == 4
    assert calls["defect"] <= 4 and calls["eig"] <= 4
    for f_row, d_row in zip(family, diag):
        assert f_row["param"] == d_row["alpha"]
        assert f_row["defect"] == d_row["defect"]
        assert f_row["lambda_min"] == d_row["lambda_min"] != ""
    # A_observed comes from the table: −min of its inf_M_u column
    assert summary["A_observed"] == -min(float(row["inf_M_u"]) for row in diag)


@pytest.mark.parametrize("mode", ["family", "diagnose"])
def test_empty_family_exits_2_with_header_only_csv(tmp_path, capsys, mode):
    # α = −5 lies past α★ ≈ −3.18 of sin1 − 0.5, so the walk solves no member
    out = tmp_path / mode
    code, cap = run_cli(
        capsys, mode, "--out", str(out), "field=sin1", "field_offset=-0.5", "sizes=16,16",
        "alphas=-5",
    )
    assert code == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["exit_code"] == 2 and summary["family_size"] == 0
    assert (out / "family.csv").read_text() == "param,sup_norm_u,energy,defect,lambda_min\n"
    assert not list(out.glob("member_*"))
    if mode == "diagnose":
        assert summary["error"] == "empty family"
        assert not (out / "diagnostics.csv").exists()
        assert not (out / "verdicts.json").exists()


@pytest.mark.parametrize("keys", [
    ["field=sin1", "field_offset=-0.5", "alphas=-1,-1.5,-2,-2.5"],
    ["field=const", "field_value=-1.0", "inject=diverge_up", "count=6"],
    ["field=const", "field_value=-1.0", "inject=diverge_down", "count=6"],
], ids=["alphas", "diverge_up", "diverge_down"])
def test_diagnose_verdicts_follow_from_the_csv(tmp_path, capsys, keys):
    # every verdict is a rule on one diagnostics.csv column, so the CSV alone
    # (its cells round-trip exactly) gives back verdicts.json
    out = tmp_path / "diag"
    code, cap = run_cli(capsys, "diagnose", "--out", str(out), "sizes=16,16", *keys)
    with (out / "diagnostics.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))

    def col(name):
        return [float(row[name]) for row in rows]

    def trend(name, low, high):
        return bool(np.all(np.isfinite(col(name))) and low <= trend_slope(col(name)) <= high)

    tol = TREND_SLOPE_TOL
    recomputed = {
        "lower_bound": trend("inf_M_u", -tol, np.inf),
        "sup_K_bounded": trend("sup_K_u", -tol, tol),
        "w12_bounded": trend("grad_l2", -tol, tol),
        "exp_mass_bounded": trend("int_exp", -tol, tol),
        "stability": all(lam >= -1e-6 for lam in col("lambda_min")),
        "identity": all(d <= 1e-8 for d in col("defect")),
        "sup_inf": trend("sup_plus_inf", -np.inf, tol),
    }
    assert json.loads((out / "verdicts.json").read_text()) == recomputed
    assert code == (0 if all(recomputed.values()) else 2)


def test_default_diagnose_certifies_the_limit_family(tmp_path, capsys):
    # without alphas, diagnose searches α★, walks limit_family onto the
    # bracket's solvable end and certifies the a-priori sup bound on it
    out = tmp_path / "diag"
    code, cap = run_cli(capsys, "diagnose", "--out", str(out),
                        "field=sin1", "field_offset=-0.5", "sizes=16,16", "count=8")
    summary = last_json_line(cap.out)
    assert code == summary["exit_code"] == 0
    assert summary["family_size"] == 8
    assert len(summary["walk"]) == 8 and all(p["solved"] for p in summary["walk"])
    assert summary["verdicts"]["apriori_sup_bound"] is True
    assert summary["apriori_bound_on_sup_u"] == pytest.approx(3.16951769796588, abs=1e-9)


def test_one_member_has_no_trend(tmp_path, capsys):
    # a trend verdict rests on at least two members; one member passes only
    # the verdicts that judge each member alone
    code, cap = run_cli(capsys, "diagnose", "--out", str(tmp_path / "diag"),
                        "field=sin1", "field_offset=-0.5", "sizes=16,16", "alphas=-1")
    assert code == 2
    assert last_json_line(cap.out)["verdicts"] == {
        "lower_bound": False, "sup_K_bounded": False, "w12_bounded": False,
        "exp_mass_bounded": False, "sup_inf": False, "stability": True, "identity": True,
    }


@pytest.mark.parametrize("args, lines", [
    (["threshold", "field=sin1", "field_offset=-0.5", "sizes=16,16"],
     ["lengths=1.0,1.0", "sizes=16,16", "tol=0.001"]),
    (["dingliu", "field=two_mode", "sizes=16,16", "lengths=1,1"],
     ["lengths=1.0,1.0", "sizes=16,16", "tol=0.01"]),
    (["solve", "field=const", "field_value=-1.0", "alpha=-1"],
     ["lengths=1.0,1.0", "sizes=64,64", "tol="]),
], ids=["threshold", "dingliu", "solve"])
def test_effective_config_records_what_ran(tmp_path, capsys, args, lines):
    # the grid built and the search's tol, in each key's own syntax; a key
    # the mode does not read keeps its text
    out = tmp_path / args[0]
    code, _ = run_cli(capsys, args[0], "--out", str(out), *args[1:])
    assert code == 0
    written = (out / "effective_config.txt").read_text().splitlines()
    assert set(lines) <= set(written)


@pytest.mark.parametrize("args", [
    ["solve", "field=const", "field_value=-1.0", "alpha=-2.0"],
    ["threshold", "field=sin1", "field_offset=-0.5"],
    ["dingliu", "field=two_mode"],
    ["family", "field=sin1", "field_offset=-0.5", "alphas=-1,-1.5,-2", "with_eigs=true"],
    ["diagnose", "field=sin1", "field_offset=-0.5"],
    ["diagnose", "field=const", "field_value=-1.0", "inject=diverge_up", "count=6"],
], ids=["solve", "threshold", "dingliu", "family", "diagnose", "diagnose-inject"])
def test_effective_config_replays_its_run(tmp_path, capsys, args):
    # effective_config.txt holds every key and nothing else: fed back as
    # the config, it reproduces its run's directory byte for byte
    a, b = tmp_path / "a", tmp_path / "b"
    code, _ = run_cli(capsys, args[0], "--out", str(a), "sizes=16,16", *args[1:])
    lines = (a / "effective_config.txt").read_text().splitlines()
    assert [line.partition("=")[0] for line in lines] == sorted(KEYS)
    replayed, cap = run_cli(capsys, args[0], "--config", str(a / "effective_config.txt"),
                            "--out", str(b))
    assert replayed == code, cap.err
    assert read_tree(b) == read_tree(a)


def test_determinism(tmp_path, capsys):
    args = ["solve", "field=random_fourier", "field_seed=7", "field_p=3",
            "field_offset=-1.2", "alpha=-1.0", "sizes=32,32"]
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code, cap = run_cli(capsys, args[0], "--out", str(out), *args[1:])
        assert code == 0
        outs.append((last_json_line(cap.out), read_field(out / "solve_u")))
    sa, ua = outs[0]
    sb, ub = outs[1]
    assert abs(sa["sup_norm_u"] - sb["sup_norm_u"]) <= 1e-12
    assert abs(sa["energy"] - sb["energy"]) <= 1e-12
    assert np.max(np.abs(ua.values - ub.values)) <= 1e-12


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # BLAS dot and gemv round differently with their thread count; the
    # kernels sum through einsum, so every file of a 16⁴ member's run, its
    # λ_min included, comes out byte-identical under one and two BLAS threads
    domain = make_torus(4, [16] * 4, [1.0] * 4)
    f = named_field(domain, "random_fourier", seed=1, decay_p=3.0)
    keys = ["d=4", "sizes=16,16,16,16", "field=random_fourier", "field_seed=1", "field_p=3",
            f"field_offset={-0.5 * f.max!r}", "alphas=-1", "with_eigs=true"]
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(Path(kwlab.__file__).parents[1]),
               **{var: threads for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                           "MKL_NUM_THREADS")}}
        proc = subprocess.run(
            [sys.executable, "-m", "kwlab.cli", "family", "--out", str(tmp_path / threads), *keys],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
    one, two = read_tree(tmp_path / "1"), read_tree(tmp_path / "2")
    assert "member_000_u.field" in one
    assert one == two
