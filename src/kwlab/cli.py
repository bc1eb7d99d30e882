"""Command-line front door: flat key=value configs, deterministic outputs.

Subcommands: solve | threshold | dingliu | family | diagnose. Every run
writes summary.json, effective_config.txt (every key of KEYS, which
`--config` reads back to replay the run; `--out DIR` is no key) and its
field/CSV artifacts under the output directory, and prints the summary as
one JSON line on stdout. Exit codes: 0 success, 1 operational error, 2
verdict failure or numerical outcome (NumericalFailure).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import diagnostics, problem, serialize, threshold
from .diagnostics import FAMILY_COLUMNS, MEMBER_COLUMNS, table_csv
from .domain import ScalarField, integrate, make_torus
from .errors import KWLabError, NumericalFailure, SolverError
from .fields import named_field
from .problem import ProblemInstance
from .solvers import SolveReport

MODES = ("solve", "threshold", "dingliu", "family", "diagnose")


def _number(kind, many=False):
    def read(text: str):
        try:
            values = [kind(x) for x in text.split(",") if x.strip()] if many else [kind(text)]
        except ValueError:
            raise ValueError(f"malformed number {text!r}") from None
        if not values:
            raise ValueError(f"no number in {text!r}")
        if kind is float and not np.all(np.isfinite(values)):
            raise ValueError(f"must be finite, got {text!r}")
        return values if many else values[0]
    return read


_int, _float = _number(int), _number(float)


def _positive(text: str) -> float:
    if not (value := _float(text)) > 0:
        raise ValueError(f"must be positive, got {text!r}")
    return value


def _at_least(low: int):
    def read(text: str) -> int:
        if (value := _int(text)) < low:
            raise ValueError(f"must be at least {low}, got {text!r}")
        return value
    return read


def _choice(*options: str, kind=str):
    def read(text: str):
        if text not in options:
            raise ValueError(f"must be one of {'|'.join(options)}")
        return kind(text)
    return read


TRUE_WORDS, FALSE_WORDS = ("1", "true", "yes", "on"), ("0", "false", "no", "off")


def _bool(text: str) -> bool:
    return _choice(*TRUE_WORDS, *FALSE_WORDS, kind=lambda w: w in TRUE_WORDS)(text.strip().lower())


# every config key: its default text and its reader, which returns the key's
# value or raises ValueError saying what is wrong with the text. A key whose
# default is empty may stay empty, and then reads as None.
KEYS = {
    "d": ("2", _choice("2", "4", kind=int)),
    "sizes": ("", _number(int, many=True)),      # default from d: 64,64 or 16,16,16,16
    "lengths": ("", _number(float, many=True)),  # default 1 per axis
    "field": ("", str),
    "field_value": ("", _float),
    "field_offset": ("0", _float),
    "field_seed": ("", _at_least(0)),
    "field_p": ("", _float),
    "alpha": ("", _float),
    "alphas": ("", _number(float, many=True)),
    "s0": ("-1.0", _float),
    "tol": ("", _positive),                      # default threshold.ALPHA_TOL or LAMBDA_TOL
    "count": ("8", _at_least(1)),
    "with_eigs": ("false", _bool),
    "inject": ("none", _choice("none", "diverge_down", "diverge_up")),  # negative controls
}


def read_pairs(lines, source: str) -> dict[str, str]:
    """The key=value text of config lines or overrides, named source in its
    errors: blank and # lines are skipped, and every key is one of KEYS."""
    pairs = {}
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise KWLabError(f"{source}:{lineno}: expected key=value, got {line!r}")
        if (key := key.strip()) not in KEYS:
            raise KWLabError(f"unknown config key {key!r}")
        pairs[key] = value.strip()
    return pairs


def validate(mode: str, text: dict[str, str]) -> tuple[list[str], dict]:
    """The problems of a config and its typed values: every key of KEYS read
    once from its text by its reader (None for a key left empty)."""
    problems, cfg = [], dict.fromkeys(KEYS)
    for key, (default, read) in KEYS.items():
        if text[key] or default:
            try:
                cfg[key] = read(text[key])
            except ValueError as e:
                problems.append(f"{key}: {e}")
    if not text["field"]:
        problems.append("field: required (const|cos1|sin1|two_mode|random_fourier)")
    if mode == "solve" and not text["alpha"]:
        problems.append("alpha: required for mode=solve")
    if text["field"] == "const" and not text["field_value"]:
        problems.append("field_value: required for field=const")
    if text["field"] == "random_fourier":
        if not text["field_seed"]:
            problems.append("field_seed: required for field=random_fourier")
        if not text["field_p"]:
            problems.append("field_p: required for field=random_fourier")
    if mode != "diagnose" and cfg["inject"] not in (None, "none"):
        problems.append("inject: a family is injected in mode=diagnose only")
    try:
        threshold.check_schedule(cfg["alphas"] or [])
    except SolverError as e:
        problems.append(f"alphas: {e}")
    return problems, cfg


def build_domain(cfg):
    d = cfg["d"]
    sizes = cfg["sizes"] if cfg["sizes"] is not None else [64] * 2 if d == 2 else [16] * 4
    lengths = cfg["lengths"] if cfg["lengths"] is not None else [1.0] * d
    return make_torus(d, sizes, lengths)


def build_field(cfg, domain) -> ScalarField:
    return named_field(domain, cfg["field"], value=cfg["field_value"],
                       offset=cfg["field_offset"], seed=cfg["field_seed"],
                       decay_p=cfg["field_p"])


def _threshold_summary(rep: threshold.ThresholdReport) -> dict:
    return {
        "param": rep.param_name,
        "lo": rep.lo,
        "hi": rep.hi,
        "width": None if rep.unbounded else rep.width,
        "estimate": rep.estimate,
        "unbounded": rep.unbounded,
        "family_size": len(rep.family),
        "probes": _probes_summary(rep.probes),
    }


def _probes_summary(probes: list[threshold.ProbeRecord]) -> list[dict]:
    return [{"param": p.param, "solved": p.solved, "evidence": p.evidence,
             "min_eig": p.min_eig} for p in probes]


def _injected_family(S: ScalarField, sign: float, count: int) -> list[tuple[float, SolveReport]]:
    """Synthetic divergent family u_k = sign·k at α = −1 − k (negative-control hook)."""
    return [
        (-1.0 - k, SolveReport(solution=ScalarField.constant(S.domain, sign * float(k)),
                               iterations=0, residual_history=[0.0], method="injected",
                               inst=ProblemInstance(S, -1.0 - k)))
        for k in range(count)
    ]


def start_outputs(text: dict[str, str], outdir: Path, S: ScalarField) -> None:
    """Start the outputs after the mode's solve, search or walk: rejected input writes nothing."""
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "effective_config.txt").write_text(
        "".join(f"{k}={v}\n" for k, v in sorted(text.items())))
    serialize.write_field(S, outdir / "S", label="S")


def run(mode: str, cfg: dict, text: dict[str, str], outdir: Path) -> tuple[int, dict]:
    """Run mode on validate's typed cfg. text, the config as given, is written
    out with the sizes and lengths of the grid built and, when a search ran,
    its tol in place of their text."""
    summary: dict = {"mode": mode}
    domain = build_domain(cfg)
    text = {**text, "sizes": ",".join(map(str, domain.sizes)),
            "lengths": ",".join(map(repr, domain.lengths))}
    S = build_field(cfg, domain)
    summary["mean_S"] = integrate(S) / domain.volume

    if mode == "solve":
        inst = ProblemInstance(S, cfg["alpha"])
        record = threshold.probe_solvable(inst)
        start_outputs(text, outdir, S)
        if not record.solved:
            summary.update(converged=False, evidence=record.evidence)
            return 2, summary
        rep = record.report
        serialize.write_report(rep, outdir / "solve")
        summary.update(serialize.report_summary(rep))
        summary["defect"] = problem.integral_identity_defect(inst, rep.solution)
        return 0, summary

    # threshold, dingliu, family and diagnose: each mode yields a family of
    # (param, report), each report carrying the instance it solved
    thr = walk = None
    injected = cfg["inject"] != "none"   # validate allows it in diagnose only
    tol = cfg["tol"] or (threshold.LAMBDA_TOL if mode == "dingliu" else threshold.ALPHA_TOL)
    if mode == "dingliu":
        g0 = ScalarField(domain, S.values - S.max)   # the shift Ding-Liu requires
        thr = threshold.ding_liu_lambda_star(g0, cfg["s0"], tol=tol)
        summary["lambda_range_upper"] = -g0.min
    elif mode == "threshold" or not injected and cfg["alphas"] is None:
        thr = threshold.find_alpha_star(S, tol=tol)
    if thr is not None:
        text = {**text, "tol": repr(tol)}
    if mode in ("family", "diagnose") and not injected:
        if cfg["alphas"] is not None:
            walk = threshold.walk_schedule(S, cfg["alphas"])
        elif not thr.unbounded:
            walk = threshold.limit_family(S, thr, cfg["count"])

    if injected:
        sign = -1.0 if cfg["inject"] == "diverge_down" else 1.0
        family = _injected_family(S, sign, cfg["count"])
    else:
        # the solved records of the walk if one ran, else the search's family
        family = thr.family if walk is None else [(p.param, p.report) for p in walk
                                                  if p.solved]
    if mode in ("family", "diagnose"):
        summary["family_size"] = len(family)

    K = None
    if mode == "diagnose" and family:
        # the cutoff can reject S, so it is found before any output is written
        phi, K = diagnostics.auto_cutoff_region(S)
    start_outputs(text, outdir, S)
    table = diagnostics.family_table(family, K, cfg["with_eigs"])
    # after the table: a row may solve the λ_min of a probe's report
    if thr is not None:
        summary["threshold"] = _threshold_summary(thr)
    if walk is not None:
        summary["walk"] = _probes_summary(walk)
    (outdir / "family.csv").write_text(table_csv(MEMBER_COLUMNS, table.rows))
    for i, (_, member) in enumerate(family):
        serialize.write_report(member, outdir / f"member_{i:03d}")

    if mode != "diagnose":
        return (0 if family else 2), summary
    if not family:
        summary["error"] = "empty family"
        return 2, summary
    (outdir / "diagnostics.csv").write_text(table_csv(FAMILY_COLUMNS, table.rows))
    verdicts = table.verdicts
    if thr is not None and not thr.unbounded:
        cert = diagnostics.apriori_c0_bound(S, thr.lo, phi, K)
        verdicts["apriori_sup_bound"] = cert.check_family(family)
        summary["apriori_bound_on_sup_u"] = cert.bound_on_sup_u
    summary["verdicts"] = verdicts
    summary["A_observed"] = table.A_observed
    (outdir / "verdicts.json").write_text(json.dumps(verdicts, indent=2) + "\n")
    return (0 if all(verdicts.values()) else 2), summary


class _Parser(argparse.ArgumentParser):
    """Usage errors (an unknown or missing mode) are operational errors: exit 1 with JSON."""

    def error(self, message):
        raise KWLabError(message)


def main(argv=None) -> int:
    parser = _Parser(
        prog="kwlab",
        description="Numerical laboratory for -Δu + α = S·exp(2u/n) on flat tori",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        p = sub.add_parser(mode)
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("overrides", nargs="*", metavar="KEY=VALUE",
                       help="override any config key")
    try:
        args = parser.parse_args(argv)
        text = {key: default for key, (default, _) in KEYS.items()}
        if args.config:
            try:
                text.update(read_pairs(Path(args.config).read_text().splitlines(), args.config))
            except (OSError, UnicodeDecodeError) as e:
                raise KWLabError(f"cannot read config {args.config!r}: {e}") from None
        text.update(read_pairs(args.overrides, "override"))

        problems, cfg = validate(args.mode, text)
        if problems:
            raise KWLabError("config validation failed: " + "; ".join(problems))

        outdir = Path(args.out or f"kwlab_out_{args.mode}")
        # an --out under a file, or one that is a file, fails before the run
        if not next(p for p in (outdir, *outdir.parents) if p.exists()).is_dir():
            raise KWLabError(f"--out {str(outdir)!r} cannot be made a directory")
        try:
            code, summary = run(args.mode, cfg, text, outdir)
        except NumericalFailure as e:
            # a search or eigen-solve that did not reach its answer is a
            # numerical outcome, not an operational error; a search fails
            # before the outputs are started
            outdir.mkdir(parents=True, exist_ok=True)
            code, summary = 2, {"mode": args.mode, "error": str(e)}
        summary["exit_code"] = code
        line = json.dumps(summary, sort_keys=True)
        (outdir / "summary.json").write_text(line + "\n")
        print(line)
        return code
    except (KWLabError, OSError) as e:
        print(json.dumps({"error": str(e)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
