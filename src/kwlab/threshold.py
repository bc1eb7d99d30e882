"""Critical-threshold location: the solvability threshold in α for fixed S,
the Ding-Liu threshold in λ for S = g₀ + λ, and solution families that
approach the threshold for the a-priori diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import solvers
from .domain import ScalarField, TorusDomain, integrate
from .errors import SolverError
from .problem import ProblemInstance
from .solvers import SolveReport, SolverOptions

# fixed probe points for the "threshold is unbounded" verification (the
# S ≤ 0 regime is solvable at every negative α)
UNBOUNDED_PROBE_ALPHAS = (-1.0, -10.0, -100.0, -1000.0)


@dataclass
class SolvabilityVerdict:
    status: str                      # "solved" | "failed"
    report: Optional[SolveReport] = None
    evidence: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.status == "solved" and not (self.report is not None and self.report.converged):
            raise SolverError("a solved verdict needs a converged report")

    @property
    def solved(self) -> bool:
        return self.status == "solved"


@dataclass
class ThresholdReport:
    """Bracketed critical value of the continuation parameter.

    For param_name "alpha" the solvable end is hi (solvability persists as
    α increases toward 0); for "lambda" the solvable end is lo.
    """

    param_name: str
    lo: float
    hi: float
    solvable_end: str                      # "lo" or "hi"
    solved_report: Optional[SolveReport]
    family: list[tuple[float, SolveReport]] = field(default_factory=list)
    unbounded: bool = False
    flags: list[str] = field(default_factory=list)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def estimate(self) -> float:
        return 0.5 * (self.lo + self.hi)


def probe_solvable(
    inst: ProblemInstance,
    budget: float = 1.0,
    *,
    warm_start: Optional[ScalarField] = None,
    super_source: Optional[SolveReport] = None,
    residual_tol: float = 1e-10,
) -> SolvabilityVerdict:
    """Numerical solvability verdict at one parameter value.

    Newton from warm/constant/zero starts first; when a converged report at
    a strictly more negative α for the same S is supplied, the sub/super
    bracket plus monotone iteration runs as the robust fallback. "failed"
    means every engine exhausted its budget, not a proof of nonexistence.
    """
    evidence: list[str] = []
    if inst.S.min >= 0:
        # ∫S e^{2u/n} > 0 can never equal α·Vol < 0
        return SolvabilityVerdict("failed", evidence=["sign_obstruction: S >= 0 everywhere"])

    iters = max(10, int(round(80 * budget)))
    starts: list = []
    if warm_start is not None:
        starts.append(warm_start)
    starts.extend(["constant", "zero"])
    for start in starts:
        opts = SolverOptions(max_iters=iters, residual_tol=residual_tol, start=start)
        rep = solvers.newton_solve(inst, opts)
        if rep.converged:
            return SolvabilityVerdict("solved", report=rep)
        tag = "warm" if isinstance(start, ScalarField) else start
        evidence.append(f"newton[{tag}]: {rep.failure_reason}")

    if super_source is not None and super_source.converged and super_source.alpha < inst.alpha:
        try:
            interval = solvers.make_interval(inst, super_source)
            opts = SolverOptions(
                residual_tol=residual_tol,
                monotone_max_iters=max(1000, int(round(50000 * budget))),
            )
            rep = solvers.monotone_iterate(inst, interval, opts)
            if rep.converged:
                return SolvabilityVerdict("solved", report=rep)
            evidence.append(f"monotone: {rep.failure_reason}")
        except SolverError as e:
            evidence.append(f"monotone: {e}")

    return SolvabilityVerdict("failed", evidence=evidence)


def _probe_twice(inst, budget, **kw) -> SolvabilityVerdict:
    """A failed verdict only counts after all engines fail at 1x and 4x budget."""
    v = probe_solvable(inst, budget, **kw)
    if v.solved:
        return v
    v4 = probe_solvable(inst, 4.0 * budget, **kw)
    if v4.solved:
        return v4
    v4.evidence = v.evidence + v4.evidence
    return v4


def find_alpha_star(
    S: ScalarField,
    n: int,
    domain: TorusDomain,
    tol: float = 1e-3,
    budget: float = 1.0,
    start_alpha: float = -0.01,
) -> ThresholdReport:
    """Bracket the critical α below which −Δu + α = S e^{2u/n} stops being solvable.

    Requires ∫S < 0. For S ≤ 0 (≢ 0) the threshold is −∞; that regime is
    verified on a fixed descending α ladder and reported as unbounded.
    Otherwise: geometric descent with warm starts until the first failure,
    then bisection down to bracket width ≤ tol.
    """
    if integrate(S) >= 0:
        raise SolverError("find_alpha_star requires integrate(S) < 0")
    if S.max <= 0:
        family = []
        warm = None
        for a in UNBOUNDED_PROBE_ALPHAS:
            inst = ProblemInstance(domain, S, a, n)
            v = _probe_twice(inst, budget, warm_start=warm)
            if not v.solved:
                raise SolverError(
                    f"S <= 0 but probe at alpha={a} failed: {v.evidence}"
                )
            family.append((a, v.report))
            warm = v.report.solution
        return ThresholdReport(
            param_name="alpha",
            lo=-np.inf,
            hi=family[-1][0],
            solvable_end="hi",
            solved_report=family[0][1],
            family=family,
            unbounded=True,
        )

    # bootstrap: find a solvable starting alpha near 0⁻
    alpha = float(start_alpha)
    first = None
    for _ in range(12):
        inst = ProblemInstance(domain, S, alpha, n)
        v = probe_solvable(inst, budget)
        if v.solved:
            first = v
            break
        alpha /= 4.0
    if first is None:
        raise SolverError(f"could not find a solvable alpha near 0⁻ (last tried {alpha})")

    family: list[tuple[float, SolveReport]] = [(alpha, first.report)]
    hi, hi_report = alpha, first.report
    lo = None
    for _ in range(80):
        nxt = 1.5 * hi
        inst = ProblemInstance(domain, S, nxt, n)
        v = _probe_twice(inst, budget, warm_start=hi_report.solution)
        if v.solved:
            hi, hi_report = nxt, v.report
            family.append((nxt, v.report))
        else:
            lo = nxt
            break
    if lo is None:
        raise SolverError("descent never failed: threshold appears unbounded for sign-changing S")

    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        inst = ProblemInstance(domain, S, mid, n)
        v = _probe_twice(inst, budget, warm_start=hi_report.solution)
        if v.solved:
            hi, hi_report = mid, v.report
            family.append((mid, v.report))
        else:
            lo = mid

    family.sort(key=lambda pair: -pair[0])
    return ThresholdReport(
        param_name="alpha",
        lo=lo,
        hi=hi,
        solvable_end="hi",
        solved_report=hi_report,
        family=family,
    )


def ding_liu_lambda_star(
    g0: ScalarField,
    s0: float,
    domain: TorusDomain,
    tol: float = 1e-2,
    budget: float = 1.0,
) -> ThresholdReport:
    """Bracket the Ding-Liu threshold λ★ for −Δu + s₀ = (g₀+λ)e^{2u}, n = 1.

    Requires max g₀ = 0 (callers shift), g₀ nonconstant, s₀ < 0. The bracket
    is asserted to lie strictly inside (0, −min g₀).
    """
    if domain.d != 2:
        raise SolverError("Ding-Liu continuation is the n=1 (d=2) problem")
    if abs(g0.max) > 1e-8:
        raise SolverError(f"max g0 must be 0 (got {g0.max}); shift the field first")
    if g0.max - g0.min < 1e-12:
        raise SolverError("g0 must be nonconstant")
    if not s0 < 0:
        raise SolverError("s0 must be negative")
    lam_max = -g0.min

    def make_inst(lam: float) -> ProblemInstance:
        return ProblemInstance(domain, ScalarField(domain, g0.values + lam), s0, 1)

    lam = 0.05 * lam_max
    first = None
    for _ in range(12):
        v = probe_solvable(make_inst(lam), budget)
        if v.solved:
            first = v
            break
        lam /= 2.0
    if first is None:
        raise SolverError("no solvable lambda found near 0⁺")

    lo, lo_report = lam, first.report
    hi = lam_max
    family: list[tuple[float, SolveReport]] = [(lo, lo_report)]
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        v = _probe_twice(make_inst(mid), budget, warm_start=lo_report.solution)
        if v.solved:
            lo, lo_report = mid, v.report
            family.append((mid, v.report))
        else:
            hi = mid

    if not (0.0 < lo and hi < lam_max):
        raise SolverError(
            f"lambda bracket [{lo}, {hi}] does not lie strictly inside (0, {lam_max})"
        )
    family.sort(key=lambda pair: pair[0])  # λ increasing toward λ★
    return ThresholdReport(
        param_name="lambda",
        lo=lo,
        hi=hi,
        solvable_end="lo",
        solved_report=lo_report,
        family=family,
    )


def limit_family(
    S: ScalarField,
    n: int,
    domain: TorusDomain,
    threshold_report: ThresholdReport,
    count: int,
    budget: float = 1.0,
    alphas: Optional[list[float]] = None,
) -> list[SolveReport]:
    """Converged solutions at α_k descending geometrically onto the bracket's
    solvable end (warm-started along the walk).

    For unbounded thresholds an explicit α schedule must be supplied. On a
    member failure the family is truncated and the gap to the bracket is
    recorded on the last report.
    """
    if alphas is None:
        if threshold_report.unbounded or not np.isfinite(threshold_report.lo):
            raise SolverError("unbounded threshold: supply an explicit alpha schedule")
        a_hi = threshold_report.hi
        a0 = 0.5 * a_hi
        # ratio 1/4 rather than 1/2: near the fold the solution moves like
        # sqrt(α − α★), so the faster schedule is what makes an 8-member
        # family visibly plateau in the diagnostics
        alphas = [a_hi + (a0 - a_hi) * 4.0 ** (-k) for k in range(1, count + 1)]
    else:
        alphas = [float(a) for a in alphas]
        if any(b >= a for a, b in zip(alphas, alphas[1:])):
            raise SolverError("alpha schedule must be strictly decreasing")
    alphas = alphas[:count]

    out: list[SolveReport] = []
    warm = None
    super_source = threshold_report.solved_report
    for a in alphas:
        inst = ProblemInstance(domain, S, a, n)
        src = super_source if (super_source is not None and super_source.alpha < a) else None
        v = _probe_twice(inst, budget, warm_start=warm, super_source=src)
        if not v.solved:
            if out:
                out[-1].failure_reason = (
                    f"family truncated: alpha={a} failed, nearest converged alpha={out[-1].alpha}"
                )
            break
        out.append(v.report)
        warm = v.report.solution
    return out
