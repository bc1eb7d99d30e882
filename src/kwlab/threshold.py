"""Critical-threshold location: the solvability threshold in α for fixed S,
the Ding-Liu threshold in λ for S = g₀ + λ, and solution families that
approach the threshold for the a-priori diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import problem, solvers, spectral
from .domain import ScalarField, TorusDomain, integrate
from .errors import EigenSolveError, SolverError
from .problem import ProblemInstance
from .solvers import SolveReport, SolverOptions

# fixed probe points for the "threshold is unbounded" verification (the
# S ≤ 0 regime is solvable at every negative α)
UNBOUNDED_PROBE_ALPHAS = (-1.0, -10.0, -100.0, -1000.0)

# fold-steered search (_fold_search): step rules and the λ_min accuracy
MARCH_FACTOR = 1.5       # geometric march before the first failure
STEER_FRACTION = 0.5     # at most this share of the way to the fold estimate
GAP_FRACTION = 0.25      # at most this share of the gap to the failed end
CLOSE_FRACTION = 0.99    # the closing probe sits this many tol past the solved end
EIG_TOL = 1e-7           # the tol of the CLI's λ_min column, so it can be reused
MAX_SEARCH_PROBES = 200  # a bracket closes in a few dozen; past this the search is stuck


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

    @property
    def budget_exhausted(self) -> bool:
        """Some engine (Newton from any start, or monotone) stopped at its
        iteration cap: the only failure a larger budget can change."""
        return any(e.endswith(": max_iters") for e in self.evidence)


@dataclass
class ProbeRecord:
    """One probe of a threshold search: the parameter, the outcome, the
    failure evidence, and the λ_min the search steered by (None for a failed
    probe, a probe outside the search, or an unconverged eigen-solve)."""

    param: float
    solved: bool
    evidence: list[str]
    min_eig: Optional[float] = None


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
    probes: list[ProbeRecord] = field(default_factory=list)

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
    """Probe at 1x budget and, only when some engine ran out of iterations,
    again at 4x. Stagnation, line-search failure and blow-up repeat
    identically at any budget, so they are not retried."""
    v = probe_solvable(inst, budget, **kw)
    if v.solved or not v.budget_exhausted:
        return v
    v4 = probe_solvable(inst, 4.0 * budget, **kw)
    if v4.solved:
        return v4
    v4.evidence = v.evidence + v4.evidence
    return v4


def _probe_record(param: float, v: SolvabilityVerdict) -> ProbeRecord:
    return ProbeRecord(param=param, solved=v.solved, evidence=v.evidence)


def _fold_estimate(last: list, t_failed: Optional[float]) -> Optional[float]:
    """Secant root t̂ of λ_min² through the last two solved points (t, λ_min).

    λ_min ~ √(t − t★) near the fold, so λ_min² is close to linear there.
    None when an eigen-solve failed, λ_min² is not falling toward the
    fold, or t̂ lies outside the bracket (t_failed, t_solved].
    """
    if len(last) < 2 or last[0][1] is None or last[1][1] is None:
        return None
    (t1, lam1), (t2, lam2) = last
    y1, y2 = lam1 * lam1, lam2 * lam2
    if not y2 < y1:
        return None
    t_hat = t2 - y2 * (t1 - t2) / (y1 - y2)
    if t_failed is not None and not t_hat > t_failed:
        return None
    return t_hat


def _fold_search(make_inst, param_name, start, shrink, tol, budget, failed_bound=None):
    """The threshold search behind find_alpha_star and ding_liu_lambda_star.

    Works in t = ±param (t = α, or t = −λ), where the solvable side is
    larger t and t < 0 throughout. A bootstrap probes param = start and
    divides it by shrink until a probe solves. From there the search walks
    the warm-started branch down toward the fold, steered by λ_min of each
    solved point:
      * before any failure: march t ← 1.5·t;
      * after a failure, or from the start when failed_bound is a known
        unsolvable param: step at most a quarter of the gap to it;
      * with a fold estimate t̂: step at most half the way to t̂, and once
        t̂ is within tol/2 of the solved end, probe once at t − 0.99·tol.
    Failures are never retried unless budget ran out (_probe_twice). The
    bracket ends on a converged probe and a failed one, at most tol apart.
    """
    sign = 1.0 if param_name == "alpha" else -1.0
    probes: list[ProbeRecord] = []
    param = start
    for _ in range(12):
        v = probe_solvable(make_inst(param), budget)
        probes.append(_probe_record(param, v))
        if v.solved:
            break
        param /= shrink
    else:
        raise SolverError(f"no solvable {param_name} found from {start} toward 0")

    t, report = sign * param, v.report
    t_failed = None if failed_bound is None else sign * failed_bound
    family: list[tuple[float, SolveReport]] = []

    def accept(rep, record):
        inst = make_inst(record.param)
        try:
            rep.min_eig = spectral.min_eigenvalue(
                spectral.get_plan(inst.domain),
                problem.stability_potential(inst, rep.solution),
                EIG_TOL,
            )
        except EigenSolveError:
            pass  # min_eig stays None: no fold estimate runs through this point
        record.min_eig = rep.min_eig
        family.append((record.param, rep))

    accept(report, probes[-1])
    for _ in range(MAX_SEARCH_PROBES):
        if t_failed is not None and t - t_failed <= tol:
            break
        last = [(sign * p.param, p.min_eig) for p in probes if p.solved][-2:]
        t_hat = _fold_estimate(last, t_failed)
        if t_hat is not None and t - t_hat <= 0.5 * tol:
            nxt = t - CLOSE_FRACTION * tol
        else:
            nxt = MARCH_FACTOR * t if t_failed is None else t - GAP_FRACTION * (t - t_failed)
            if t_hat is not None:
                nxt = max(nxt, t - STEER_FRACTION * (t - t_hat))
        v = _probe_twice(make_inst(sign * nxt), budget, warm_start=report.solution)
        probes.append(_probe_record(sign * nxt, v))
        if v.solved:
            t, report = nxt, v.report
            accept(report, probes[-1])
        else:
            t_failed = nxt
    else:
        raise SolverError(
            f"{param_name} search did not close its bracket in {MAX_SEARCH_PROBES} probes "
            f"(solvable end {sign * t})"
        )

    ends = sorted((sign * t, sign * t_failed))
    return ThresholdReport(
        param_name=param_name,
        lo=ends[0],
        hi=ends[1],
        solvable_end="hi" if sign > 0 else "lo",
        solved_report=report,
        family=family,
        probes=probes,
    )


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
    Otherwise `_fold_search` finds a solvable α near 0⁻ (start_alpha,
    divided by 4 on failure), marches down geometrically until the first
    failure, and then approaches α★ from the solvable side, steered by the
    stability eigenvalue λ_min, which vanishes like √(α − α★) at the fold.
    lo is a failed probe, hi a converged one, hi − lo ≤ tol. Every family
    report carries its λ_min (min_eig) and every probe is listed in probes.
    """
    if integrate(S) >= 0:
        raise SolverError("find_alpha_star requires integrate(S) < 0")
    if S.max <= 0:
        family = []
        probes: list[ProbeRecord] = []
        warm = None
        for a in UNBOUNDED_PROBE_ALPHAS:
            inst = ProblemInstance(domain, S, a, n)
            v = _probe_twice(inst, budget, warm_start=warm)
            probes.append(_probe_record(a, v))
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
            probes=probes,
        )

    def make_inst(alpha: float) -> ProblemInstance:
        return ProblemInstance(domain, S, alpha, n)

    return _fold_search(make_inst, "alpha", float(start_alpha), 4.0, tol, budget)


def ding_liu_lambda_star(
    g0: ScalarField,
    s0: float,
    domain: TorusDomain,
    tol: float = 1e-2,
    budget: float = 1.0,
) -> ThresholdReport:
    """Bracket the Ding-Liu threshold λ★ for −Δu + s₀ = (g₀+λ)e^{2u}, n = 1.

    Requires max g₀ = 0 (callers shift), g₀ nonconstant, s₀ < 0. Solvable
    for λ ∈ (0, λ★); g₀ + λ ≥ 0 makes λ ≥ −min g₀ unsolvable, the failed
    end the search starts from. `_fold_search` finds a solvable λ near 0⁺
    (0.05·(−min g₀), halved on failure) and approaches λ★ from below,
    steered by λ_min. lo is a converged probe, hi a failed one, hi − lo ≤
    tol, and the bracket is checked to lie strictly inside (0, −min g₀).
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

    rep = _fold_search(make_inst, "lambda", 0.05 * lam_max, 2.0, tol, budget, lam_max)
    if not (0.0 < rep.lo and rep.hi < lam_max):
        raise SolverError(
            f"lambda bracket [{rep.lo}, {rep.hi}] does not lie strictly inside (0, {lam_max})"
        )
    return rep


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
