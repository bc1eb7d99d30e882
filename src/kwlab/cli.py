"""Command-line front door: flat key=value configs, deterministic outputs.

Subcommands: solve | threshold | dingliu | family | diagnose | selftest.
Every run writes summary.json, an effective-config dump, and its field/CSV
artifacts under the output directory, and prints the summary as one JSON
line on stdout. Exit codes: 0 success, 1 operational error, 2 verdict
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import diagnostics, problem, serialize, solvers, spectral, threshold
from .domain import ScalarField, integrate, make_torus
from .errors import EigenSolveError, KWLabError, SolverError
from .fields import named_field
from .problem import ProblemInstance
from .solvers import SolveReport, SolverOptions

MODES = ("solve", "threshold", "dingliu", "family", "diagnose", "selftest")

DEFAULTS = {
    "d": "2",
    "sizes": "",           # default filled from d: 64,64 or 16,16,16,16
    "lengths": "",
    "n": "",               # default d/2
    "field": "",
    "field_value": "",
    "field_offset": "0",
    "field_seed": "",
    "field_p": "",
    "field_shift_max_zero": "false",
    "alpha": "",
    "alphas": "",
    "s0": "-1.0",
    "tol": "",
    "residual_tol": "1e-10",
    "budget": "1.0",
    "count": "8",
    "start_alpha": "-0.01",
    "solver": "newton",
    "with_eigs": "false",
    "inject": "none",      # testing hook for negative controls: none|diverge_down|diverge_up
    "out": "",
    "single_thread": "true",
}


def parse_config_file(path: str | Path) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise KWLabError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


TRUE_WORDS, FALSE_WORDS = ("1", "true", "yes", "on"), ("0", "false", "no", "off")


def _bool(s: str) -> bool:
    return s.strip().lower() in TRUE_WORDS


def _int_list(s: str) -> list[int]:
    return [int(x) for x in s.split(",") if x.strip()]


def _float_list(s: str) -> list[float]:
    return [float(x) for x in s.split(",") if x.strip()]


# how each numeric key is read; a key whose default is empty may stay empty
NUMERIC_KEYS = {
    "sizes": _int_list, "lengths": _float_list, "alphas": _float_list,
    "n": int, "field_seed": int, "count": int,
    **{key: float for key in ("field_value", "field_offset", "field_p", "alpha", "s0",
                              "tol", "residual_tol", "budget", "start_alpha")},
}
CHOICES = {"d": ("2", "4"), "solver": ("newton", "probe"),
           "inject": ("none", "diverge_down", "diverge_up")}


def validate(mode: str, cfg: dict[str, str]) -> list[str]:
    problems, parsed = [], {}
    for key, parse in NUMERIC_KEYS.items():
        if cfg[key] or DEFAULTS[key]:
            try:
                parsed[key] = parse(cfg[key])
            except ValueError:
                problems.append(f"{key}: malformed number {cfg[key]!r}")
    if mode != "selftest" and not cfg["field"]:
        problems.append("field: required (const|cos1|sin1|two_mode|random_fourier)")
    if mode == "solve" and not cfg["alpha"]:
        problems.append("alpha: required for mode=solve")
    if cfg["field"] == "const" and not cfg["field_value"]:
        problems.append("field_value: required for field=const")
    if cfg["field"] == "random_fourier":
        if not cfg["field_seed"]:
            problems.append("field_seed: required for field=random_fourier")
        if not cfg["field_p"]:
            problems.append("field_p: required for field=random_fourier")
    for key, choices in CHOICES.items():
        if cfg[key] not in choices:
            problems.append(f"{key}: must be one of {'|'.join(choices)}")
    for key in ("field_shift_max_zero", "with_eigs", "single_thread"):
        if cfg[key].strip().lower() not in TRUE_WORDS + FALSE_WORDS:
            problems.append(f"{key}: must be one of {'|'.join(TRUE_WORDS + FALSE_WORDS)}")
    try:
        threshold.check_schedule(parsed.get("alphas", []))
    except SolverError as e:
        problems.append(f"alphas: {e}")
    return problems


def build_domain(cfg):
    d = int(cfg["d"])
    sizes = _int_list(cfg["sizes"]) if cfg["sizes"] else [64] * 2 if d == 2 else [16] * 4
    lengths = _float_list(cfg["lengths"]) if cfg["lengths"] else [1.0] * d
    return make_torus(d, sizes, lengths)


def build_field(cfg, domain) -> ScalarField:
    return named_field(
        domain,
        cfg["field"],
        value=float(cfg["field_value"]) if cfg["field_value"] else None,
        offset=float(cfg["field_offset"]),
        seed=int(cfg["field_seed"]) if cfg["field_seed"] else None,
        decay_p=float(cfg["field_p"]) if cfg["field_p"] else None,
        shift_max_zero=_bool(cfg["field_shift_max_zero"]),
    )


def _threshold_summary(rep: threshold.ThresholdReport) -> dict:
    return {
        "param": rep.param_name,
        "lo": rep.lo,
        "hi": rep.hi,
        "width": None if rep.unbounded else rep.width,
        "estimate": None if rep.unbounded else rep.estimate,
        "unbounded": rep.unbounded,
        "family_size": len(rep.family),
        "probes": [{"param": p.param, "solved": p.solved, "evidence": p.evidence,
                    "min_eig": p.min_eig} for p in rep.probes],
    }


def _injected_family(domain, sign: float, count: int) -> list[SolveReport]:
    """Synthetic divergent family u_k = sign·k (negative-control hook)."""
    return [
        SolveReport(solution=ScalarField.constant(domain, sign * float(k)), converged=True,
                    iterations=0, residual_history=[0.0], method="injected", alpha=-1.0 - k)
        for k in range(count)
    ]


def start_outputs(mode: str, cfg: dict[str, str], outdir: Path, S=None) -> None:
    """Start the outputs after the mode's solve, search or walk: rejected input writes nothing."""
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "effective_config.txt").write_text(
        "".join(f"{k}={v}\n" for k, v in sorted({**cfg, "mode": mode}.items()))
    )
    if S is not None:
        serialize.write_field(S, outdir / "S", label="S")


def run(mode: str, cfg: dict[str, str], outdir: Path) -> tuple[int, dict]:
    summary: dict = {"mode": mode}

    if mode == "selftest":
        summary["checks_failed"] = failures = _selftest()
        start_outputs(mode, cfg, outdir)
        return (2 if failures else 0), summary

    domain = build_domain(cfg)
    S = build_field(cfg, domain)
    n = int(cfg["n"]) if cfg["n"] else domain.d // 2
    rtol = float(cfg["residual_tol"])
    budget = float(cfg["budget"])
    summary["mean_S"] = integrate(S) / domain.volume

    if mode == "solve":
        inst = ProblemInstance(domain, S, float(cfg["alpha"]), n)
        if cfg["solver"] == "probe":
            record = threshold.probe_solvable(inst, budget, residual_tol=rtol)
            rep = record.report
        else:
            rep = solvers.newton_solve(inst, SolverOptions(residual_tol=rtol))
        start_outputs(mode, cfg, outdir, S)
        if rep is None:
            summary.update(converged=False, evidence=record.evidence)
            return 2, summary
        serialize.write_report(rep, outdir / "solve")
        summary.update(serialize.report_summary(rep))
        summary["defect"] = problem.integral_identity_defect(inst, rep.solution).defect
        return (0 if rep.converged else 2), summary

    # threshold, dingliu, family and diagnose: each mode yields a family of
    # (param, report) and the instance make_inst(param) of each member
    thr = None
    injected = mode == "diagnose" and cfg["inject"] != "none"
    tol = float(cfg["tol"]) if cfg["tol"] else 1e-2 if mode == "dingliu" else 1e-3
    if mode == "dingliu":
        g0 = build_field({**cfg, "field_shift_max_zero": "true"}, domain)
        s0 = float(cfg["s0"])
        thr = threshold.ding_liu_lambda_star(g0, s0, domain, tol=tol, budget=budget,
                                             residual_tol=rtol)
        summary["lambda_range_upper"] = -g0.min

        def make_inst(lam):
            return threshold.ding_liu_instance(g0, s0, lam)
    else:
        def make_inst(alpha):
            return ProblemInstance(domain, S, alpha, n)

        if mode == "threshold" or not (injected or cfg["alphas"]):
            thr = threshold.find_alpha_star(
                S, n, domain, tol=tol, budget=budget,
                start_alpha=float(cfg["start_alpha"]), residual_tol=rtol,
            )
    if thr is not None:
        summary["threshold"] = _threshold_summary(thr)

    if mode in ("threshold", "dingliu"):
        family = thr.family
    else:
        count = int(cfg["count"])
        if injected:
            sign = -1.0 if cfg["inject"] == "diverge_down" else 1.0
            members = _injected_family(domain, sign, count)
        elif cfg["alphas"]:
            probes = threshold.walk_schedule(S, n, domain, _float_list(cfg["alphas"]),
                                             budget, rtol)
            members = [p.report for p in probes if p.solved]
        elif thr.unbounded:
            members = [r for _, r in thr.family]
        else:
            members = threshold.limit_family(S, n, domain, thr, count, budget=budget,
                                             residual_tol=rtol)
        summary["family_size"] = len(members)
        family = [(rep.alpha, rep) for rep in members]

    if mode == "diagnose" and family:
        # the cutoff can reject S, so it is found before any output is written
        phi, K, _ = diagnostics.auto_cutoff_region(S)
    start_outputs(mode, cfg, outdir, S)
    with_eigs = _bool(cfg["with_eigs"]) or mode == "diagnose"
    rows = [diagnostics.member_row(make_inst(p), rep, p, with_eigs) for p, rep in family]
    (outdir / "family.csv").write_text(diagnostics.table_csv(diagnostics.MEMBER_COLUMNS, rows))
    for i, (_, member) in enumerate(family):
        serialize.write_report(member, outdir / f"member_{i:03d}")

    if mode != "diagnose":
        return (0 if family else 2), summary
    if not family:
        summary["error"] = "empty family"
        return 2, summary
    table = diagnostics.family_table(members, K, S, n)
    (outdir / "diagnostics.csv").write_text(table.to_csv())
    verdicts = dict(table.verdicts)
    if thr is not None and not thr.unbounded:
        cert = diagnostics.apriori_c0_bound(S, thr.lo, phi, K, n)
        verdicts["apriori_sup_bound"] = cert.check_family(members)
        summary["apriori_bound_on_sup_u"] = cert.bound_on_sup_u
    summary["verdicts"] = verdicts
    summary["A_observed"] = table.A_observed
    (outdir / "verdicts.json").write_text(json.dumps(verdicts, indent=2) + "\n")
    return (0 if all(verdicts.values()) else 2), summary


def _selftest() -> list[str]:
    """Fast invariant sweep over the core operations."""
    failures = []

    def check(name, fn):
        try:
            if not fn():
                failures.append(name)
        except Exception as e:  # noqa: BLE001 - selftest reports, never raises
            failures.append(f"{name}: {e}")

    dom = make_torus(2, [32, 32], [1.0, 1.0])
    plan = spectral.get_plan(dom)
    x = dom.coords()
    sin1 = ScalarField(dom, np.broadcast_to(np.sin(2 * np.pi * x[0]), dom.sizes).copy())

    check("integrate_constant", lambda: abs(integrate(ScalarField.constant(dom, 3.0)) - 3.0) < 1e-12)
    check("laplacian_eigenfunction", lambda: (
        np.max(np.abs(spectral.laplacian(plan, sin1).values + 4 * np.pi**2 * sin1.values)) < 1e-9
    ))
    check("helmholtz_roundtrip", lambda: (
        np.max(np.abs(spectral.helmholtz_solve(
            plan, 2.0, ScalarField(dom, (4 * np.pi**2 + 2.0) * sin1.values)
        ).values - sin1.values)) < 1e-10
    ))

    def constant_solve():
        inst = ProblemInstance(dom, ScalarField.constant(dom, -2.0), -2.0, 1)
        rep = solvers.newton_solve(inst, SolverOptions(start="zero"))
        return rep.converged and rep.solution.sup_norm <= 1e-10

    check("constant_instance_solves_to_zero", constant_solve)

    def defect_zero():
        inst = ProblemInstance(dom, ScalarField.constant(dom, -2.0), -2.0, 1)
        u0 = ScalarField.constant(dom, 0.0)
        return problem.integral_identity_defect(inst, u0).defect == 0.0

    check("integral_identity_constant", defect_zero)

    def gradient_is_twice_residual():
        inst = ProblemInstance(dom, sin1, -1.0, 1)
        u = ScalarField(dom, 0.1 * np.cos(2 * np.pi * x[1]) * np.ones(dom.sizes))
        g = problem.energy_gradient(inst, u)
        r = problem.residual(inst, u)
        return np.max(np.abs(g.values - 2 * r.values)) <= 1e-14

    check("gradient_equals_twice_residual", gradient_is_twice_residual)

    def eig_constant_potential():
        V = ScalarField.constant(dom, 3.5)
        return abs(spectral.min_eigenvalue(plan, V, 1e-9) - 3.5) < 1e-8

    check("min_eigenvalue_constant_potential", eig_constant_potential)
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kwlab",
        description="Numerical laboratory for -Δu + α = S·exp(2u/n) on flat tori",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        p = sub.add_parser(mode)
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--tol", default=None)
        p.add_argument("overrides", nargs="*", metavar="KEY=VALUE",
                       help="override any config key")
    args = parser.parse_args(argv)

    try:
        cfg = dict(DEFAULTS)
        if args.config:
            cfg.update(parse_config_file(args.config))
        for item in args.overrides:
            if "=" not in item:
                raise KWLabError(f"override must be KEY=VALUE, got {item!r}")
            key, _, value = item.partition("=")
            if key not in DEFAULTS:
                raise KWLabError(f"unknown config key {key!r}")
            cfg[key] = value
        if args.tol is not None:
            cfg["tol"] = args.tol
        if args.out:
            cfg["out"] = args.out

        violations = validate(args.mode, cfg)
        if violations:
            raise KWLabError("config validation failed: " + "; ".join(violations))

        outdir = Path(cfg["out"] or f"kwlab_out_{args.mode}")
        try:
            code, summary = run(args.mode, cfg, outdir)
        except EigenSolveError as e:
            # an unconverged eigenvalue is a numerical outcome, not an operational error
            code, summary = 2, {"mode": args.mode, "error": str(e)}
        summary["exit_code"] = code
        line = json.dumps(summary, sort_keys=True)
        (outdir / "summary.json").write_text(line + "\n")
        print(line)
        return code
    except KWLabError as e:
        print(json.dumps({"error": str(e)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
