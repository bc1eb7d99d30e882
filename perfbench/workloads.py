"""The benchmark's workloads, their CLI cases, and the output check of each case.

Building a workload is the benchmark's set-up: it makes the domains, the
coefficient fields and the spectral plans the cases use, derives what the
checks compare against, and writes out the CLI arguments. Why each workload
exists is recorded in NOTES.md.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from kwlab import spectral
from kwlab.domain import make_torus
from kwlab.fields import named_field

# brackets of the critical alpha for S = field - 0.5 at tol 1e-3. The sin1 one
# is acceptance test 07's on 64²; the two_mode one is this program's on 64² at
# the commit that added the benchmark. Bisection on 32² returns the same two
# endpoints. A faster search must land within tol of them.
BRACKETS = {"sin1": (-3.178722, -3.178009), "two_mode": (-2.791003, -2.790053)}
# this program's λ bracket for g0 = two_mode - max at tol 1e-2 (32² and 16² agree)
LAMBDA_BRACKET = (1.179785, 1.185352)
RESIDUAL_TOL = 1e-10   # the CLI default every case runs with
DEFECT_TOL = 1e-8      # the `identity` verdict's bound on the mean-identity defect


@dataclass
class Case:
    """One CLI call and what its output must satisfy."""

    name: str
    mode: str
    keys: dict[str, str]
    tol: float | None = None                 # bracket width limit
    ref_bracket: tuple[float, float] | None = None
    lam_upper: float | None = None           # λ brackets lie in (0, lam_upper)
    schedule: int | None = None              # expected family size
    with_eigs: bool = False
    verdicts: bool = False                   # every verdict must pass

    def argv(self, out: Path) -> list[str]:
        return [self.mode, "--out", str(out), *(f"{k}={v}" for k, v in self.keys.items())]


def _sizes(n: int, d: int) -> str:
    return ",".join([str(n)] * d)


def _warm_plan(dom):
    plan = spectral.get_plan(dom)
    plan.ifft(plan.fft(np.zeros(dom.sizes)))


def bracket_2d(seed: int, smoke: bool) -> list[Case]:
    """Independent of the seed: a seeded search's cost follows its field's
    count of failed probes, which spread the workload past its bound."""
    n, tol, tol_dl = (16, 0.5, 0.5) if smoke else (32, 1e-3, 1e-2)
    dom = make_torus(2, [n] * 2, [1.0, 1.0])
    _warm_plan(dom)
    cases = [Case(
        f"threshold {name} {n}^2", "threshold",
        {"field": name, "field_offset": "-0.5", "sizes": _sizes(n, 2), "tol": repr(tol)},
        tol=tol, ref_bracket=None if smoke else ref,
    ) for name, ref in BRACKETS.items()]
    g0 = named_field(dom, "two_mode", shift_max_zero=True)
    cases.append(Case(
        f"dingliu two_mode {n}^2", "dingliu",
        {"field": "two_mode", "sizes": _sizes(n, 2), "tol": repr(tol_dl)},
        tol=tol_dl, lam_upper=-g0.min, ref_bracket=None if smoke else LAMBDA_BRACKET,
    ))
    return cases


def diagnose_2d(seed: int, smoke: bool) -> list[Case]:
    """Independent of the seed: both fields are analytic."""
    n, count = (32 if smoke else 64), 8
    _warm_plan(make_torus(2, [n] * 2, [1.0, 1.0]))
    cases = []
    for name, (_, hi) in BRACKETS.items():
        # limit_family's own schedule onto the solvable end of the bracket
        alphas = [hi + (0.5 * hi - hi) * 4.0 ** (-k) for k in range(1, count + 1)]
        cases.append(Case(
            f"diagnose {name} {n}^2", "diagnose",
            {"field": name, "field_offset": "-0.5", "sizes": _sizes(n, 2),
             "alphas": ",".join(repr(a) for a in alphas)},
            schedule=count, with_eigs=True, verdicts=True,
        ))
    return cases


def family_4d(seed: int, smoke: bool) -> list[Case]:
    n, ladder = (8, (-1, -2)) if smoke else (16, (-1, -4, -16))
    dom = make_torus(4, [n] * 4, [1.0] * 4)
    f = named_field(dom, "random_fourier", seed=seed, decay_p=3.0)
    _warm_plan(dom)
    return [Case(
        f"family random_fourier {n}^4", "family",
        {"d": "4", "sizes": _sizes(n, 4), "field": "random_fourier", "field_seed": str(seed),
         "field_p": "3", "field_offset": repr(-0.5 * f.max),
         "alphas": ",".join(str(a) for a in ladder), "with_eigs": "true"},
        schedule=len(ladder), with_eigs=True,
    )]


CASES = {"bracket-2d": bracket_2d, "diagnose-2d": diagnose_2d, "family-4d": family_4d}


def check(case: Case, code: int, summary: dict, out: Path) -> list[str]:
    """Problems with one case's output; empty when the output is correct."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}, expected 0")
    if summary.get("exit_code") != code:
        problems.append(f"summary exit_code {summary.get('exit_code')} != {code}")

    thr = summary.get("threshold")
    if case.tol is not None:
        if thr is None or thr.get("unbounded") or thr.get("width") is None:
            return problems + [f"no finite bracket: {thr}"]
        lo, hi = thr["lo"], thr["hi"]
        if not (lo < hi and hi - lo <= case.tol):
            problems.append(f"bracket [{lo}, {hi}] wider than tol {case.tol}")
        if case.ref_bracket is not None:
            ref_lo, ref_hi = case.ref_bracket
            if abs(lo - ref_lo) > case.tol or abs(hi - ref_hi) > case.tol:
                problems.append(f"bracket [{lo}, {hi}] not within {case.tol} of {case.ref_bracket}")
        if case.lam_upper is not None and not (0.0 < lo and hi < case.lam_upper):
            problems.append(f"lambda bracket [{lo}, {hi}] outside (0, {case.lam_upper})")
        if thr["family_size"] < 1:
            problems.append("empty bracket family")

    members = sorted(out.glob("member_*.report.json"))
    for path in members:
        rep = json.loads(path.read_text())
        res = rep.get("final_residual")
        if not (rep.get("converged") and res is not None and res <= RESIDUAL_TOL):
            problems.append(f"{path.name}: not converged to {RESIDUAL_TOL} (residual {res})")

    rows = _csv_rows(out / "family.csv")
    expected = case.schedule if case.schedule is not None else (thr or {}).get("family_size")
    if len(members) != expected or len(rows) != expected:
        problems.append(f"family has {len(members)} reports and {len(rows)} rows, "
                        f"expected {expected}")
    for row in rows:
        if not float(row["defect"]) <= DEFECT_TOL:
            problems.append(f"member {row['param']}: defect {row['defect']} > {DEFECT_TOL}")
        if case.with_eigs and not math.isfinite(float(row["lambda_min"] or "nan")):
            problems.append(f"member {row['param']}: lambda_min {row['lambda_min']!r} not finite")

    if case.verdicts:
        verdicts = summary.get("verdicts") or {}
        failed = sorted(k for k, ok in verdicts.items() if not ok)
        if not verdicts or failed:
            problems.append(f"verdicts failed: {failed or 'none reported'}")
        if len(_csv_rows(out / "diagnostics.csv")) != case.schedule:
            problems.append("diagnostics.csv row count differs from the schedule")
    return problems


def _csv_rows(path: Path) -> list[dict]:
    if not path.is_file():
        return []
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))
