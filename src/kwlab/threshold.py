"""Critical-threshold location: the solvability threshold in α for fixed S,
the Ding-Liu threshold in λ for S = g₀ + λ, and solution families that
approach the threshold for the a-priori diagnostics.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from . import problem, solvers
from .domain import ScalarField, integrate
from .errors import EigenSolveError, NumericalFailure, SolverError
from .problem import ProblemInstance
from .solvers import MAX_ITERS, SolveReport

# fixed probe points for the "threshold is unbounded" verification (the
# S ≤ 0 regime is solvable at every negative α)
UNBOUNDED_PROBE_ALPHAS = (-1.0, -10.0, -100.0, -1000.0)

START_ALPHA = -0.01  # find_alpha_star's first probe; divided by 4 until one solves
ALPHA_TOL = 1e-3     # find_alpha_star's default bracket width
LAMBDA_TOL = 1e-2    # ding_liu_lambda_star's default bracket width

# the continuation search (_fold_search): step control and closing rules.
# Arclength is measured in ‖(v, s)‖² = mean(v²) + s².
FIRST_STEP = 0.5         # arclength of the first step from the bootstrap point
TARGET_ITERS = 3         # corrector iterations the step size is steered to
MIN_STEP = 1e-8          # a walk whose step halves below this is stuck
FOLD_MARGIN = 0.25       # the last stable point lies within this many tol of the fold estimate
CLOSE_FRACTION = 0.99    # the closing probe sits this many tol past the solved end
GAP_FRACTION = 0.25      # fallback: at most this share of the gap to the failed end
MAX_SEARCH_PROBES = 200  # cap on corrector steps and on closing probes


@dataclass
class ProbeRecord:
    """One point a threshold search or schedule walk tested: what
    probe_solvable returns, or a stable point of a continuation walk (no
    evidence). report is the converged report of a solved record, None when
    it failed; solved and min_eig (its λ_min, None unless solved) are read
    from it. A report that did not converge raises SolverError."""

    param: float
    evidence: list[str]
    report: Optional[SolveReport] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.report is not None and not self.report.converged:
            raise SolverError("a probe record's report must be converged")

    @property
    def solved(self) -> bool:
        return self.report is not None

    @property
    def min_eig(self) -> Optional[float]:
        return None if self.report is None else self.report.min_eig

    @property
    def budget_exhausted(self) -> bool:
        """Some Newton start stopped at its iteration cap: the only failure
        a larger budget can change."""
        return any(e.endswith(": max_iters") for e in self.evidence)


@dataclass
class ThresholdReport:
    """Bracketed critical value of the continuation parameter, resting on
    probes, the ProbeRecord of every tested point. The family, the
    (param, report) of each solved record, ends at the solvable end;
    unbounded (lo = −∞) is the S ≤ 0 regime.

    For param_name "alpha" the solvable end is hi (solvability persists as
    α increases toward 0); for "lambda" the solvable end is lo.
    """

    param_name: str
    lo: float
    hi: float
    probes: list[ProbeRecord]

    @property
    def unbounded(self) -> bool:
        return self.lo == -np.inf

    @property
    def family(self) -> list[tuple[float, SolveReport]]:
        return [(p.param, p.report) for p in self.probes if p.solved]

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def estimate(self) -> float:
        return 0.5 * (self.lo + self.hi)


def _sign_obstructed(S: ScalarField) -> bool:
    """The Kazdan-Warner obstruction: no α < 0 is solvable when ∫S ≥ 0, since
    dividing the equation by e^{2u/n} and integrating gives
    ∫S = α∫e^{−2u/n} − (2/n)∫|∇u|² e^{−2u/n} < 0 for every solution u.
    On the grid ∫S is a sum of npoints terms of weight w, exact only to the
    recursive-summation bound npoints·ε·Σ|Sᵢ|·w: an ∫S above minus that
    bound counts as ≥ 0."""
    dom = S.domain
    slack = dom.npoints * np.finfo(float).eps * float(np.sum(np.abs(S.values))) * dom.cell_weight
    return integrate(S) >= -slack


def probe_solvable(
    inst: ProblemInstance,
    budget: float = 1.0,
    *,
    param: Optional[float] = None,
    warm_start: Optional[ScalarField] = None,
    fold: Optional[list[str]] = None,
) -> ProbeRecord:
    """The ProbeRecord of a numerical solvability test of inst, filed under
    param (default inst.alpha; λ for a Ding-Liu instance).

    An S with ∫S ≥ 0 fails at once with sign_obstruction evidence
    (_sign_obstructed). Otherwise Newton runs from the warm start, when
    given, and then from the constant one; the first that converges solves
    the probe and is the record's report. The constant start rescues a warm
    start from far up the branch (two_mode − ½ on 16², warm from α = −0.01,
    stagnates at α = −2). fold is the evidence of a fold certificate
    (_fold_certificate) that the probe lies past a fold the warm start
    comes from: then Newton runs from the warm start alone, and a failed
    record's evidence starts with the certificate. A failed record means no
    start converged, not a proof of nonexistence: its evidence names each
    start's failure reason (max_iters, stagnation, a line-search or
    linear-solve failure, blow-up), and only max_iters is one a larger
    budget can change. A fold without a warm start raises SolverError.
    """
    param = inst.alpha if param is None else param
    if _sign_obstructed(inst.S):
        return ProbeRecord(param, ["sign_obstruction: integral of S >= 0"])
    if fold is not None and warm_start is None:
        raise SolverError("a probe resting on a fold certificate needs its warm start")

    evidence = list(fold or [])
    iters = round(MAX_ITERS * budget)
    starts: list = [] if warm_start is None else [warm_start]
    if fold is None:
        starts.append("constant")
    for start in starts:
        rep = solvers.newton_solve(inst, start, max_iters=iters)
        if rep.converged:
            return ProbeRecord(param, [], rep)
        tag = "warm" if isinstance(start, ScalarField) else start
        evidence.append(f"newton[{tag}]: {rep.failure_reason}")
    return ProbeRecord(param, evidence)


def _probe_twice(inst, **kw) -> ProbeRecord:
    """The ProbeRecord of probe_solvable at 1x budget or, only when some
    engine ran out of iterations, at 4x, with the same keywords (fold among
    them); a failed retry's evidence starts with the first probe's.
    Stagnation, line-search failure and blow-up repeat identically at any
    budget, so they are not retried."""
    v = probe_solvable(inst, **kw)
    if v.solved or not v.budget_exhausted:
        return v
    v4 = probe_solvable(inst, 4.0, **kw)
    if v4.solved:
        return v4
    v4.evidence = v.evidence + v4.evidence
    return v4


def check_schedule(alphas: Sequence[float]) -> None:
    """Raise SolverError unless the α schedule is strictly decreasing."""
    if any(not b < a for a, b in zip(alphas, alphas[1:])):
        raise SolverError(f"alpha schedule must be strictly decreasing, got {alphas}")


def walk_schedule(S: ScalarField, alphas: Sequence[float]) -> list[ProbeRecord]:
    """One ProbeRecord per α probed along a strictly decreasing α schedule;
    the solved records carry the converged solutions.

    Each α is probed by _probe_twice warm from the previous member, so it is
    retried at 4x budget only when a Newton start ran out of iterations. The
    first failed α ends the walk: the family is truncated there, and the
    failed probe's record, with its evidence, is the last of the probes. A
    schedule that is not strictly decreasing raises SolverError.
    """
    check_schedule(alphas)
    probes: list[ProbeRecord] = []
    for a in alphas:
        last = probes[-1].report if probes else None
        probes.append(_probe_twice(ProblemInstance(S, a),
                                   warm_start=last.solution if last else None))
        if not probes[-1].solved:
            break
    return probes


def _bisect(f, a: float, b: float) -> float:
    """A root of f in [a, b], where f changes sign, to double precision.
    (scipy.optimize would add about 17 MB and 0.2 s to every import.)"""
    positive = f(a) > 0
    for _ in range(60):
        mid = 0.5 * (a + b)
        if (f(mid) > 0) == positive:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def _fold_step(a: solvers.BranchPoint, b: solvers.BranchPoint, margin: float):
    """The step from a stable point a (dt < 0) toward the fold, given a point
    b past it (dt > 0), or None when a already lies within margin of the fold.

    The fold estimate t★ is the minimum of the cubic Hermite interpolant of
    t along the chord from a to b, with the tangent slopes at both ends; the
    step lands where the interpolant is t★ + margin/2.
    """
    du = b.report.solution.values - a.report.solution.values
    dt = b.t - a.t
    h = float(np.sqrt(np.mean(du * du) + dt * dt))
    m0, m1 = h * a.dt, h * b.dt
    c2, c3 = 3.0 * dt - 2.0 * m0 - m1, m0 + m1 - 2.0 * dt

    def p(x):
        return a.t + x * (m0 + x * (c2 + x * c3))

    x_star = _bisect(lambda x: m0 + x * (2.0 * c2 + 3.0 * x * c3), 0.0, 1.0)
    t_star = p(x_star)
    if a.t - t_star <= margin:
        return None
    x_land = _bisect(lambda x: p(x) - t_star - 0.5 * margin, 0.0, x_star)
    # a step is a projection on a's tangent, taken as linear along the chord
    return float(x_land * (np.mean(a.du * du) + a.dt * dt))


def _fold_certificate(param_name, sign, point, past, lam) -> Optional[list[str]]:
    """Keller's (1977) evidence that the branch folds between the last
    stable point and past, the converged point beyond the fold, as evidence
    lines: past's parameter, the tangent t-components (point.dt < 0 <
    past.dt) and lam, λ_min at past, < 0. None when the tangents do not
    turn or lam is not negative (None: its solve did not converge)."""
    if lam is None or not (lam < 0 and point.dt < 0 < past.dt):
        return None
    return [f"fold: branch point past the fold at {param_name}={sign * past.t!r}",
            f"fold: tangent dt={point.dt!r} at the last stable point, {past.dt!r} past the fold",
            f"fold: lambda_min={lam!r} past the fold"]


def _fold_search(make_inst, dF_dt, param_name, start, shrink, tol):
    """The threshold search behind find_alpha_star and ding_liu_lambda_star.

    Works in t = ±param (t = α, or t = −λ), where the solvable side is
    larger t and t < 0 throughout; dF_dt maps e^{2u/n} to the exact ∂F/∂t.
    Bootstrap: _probe_twice, from the constant start, at param = start,
    divided by shrink until a probe solves. From there a pseudo-arclength
    walk (solvers.arclength_correct) follows the stable branch down to its
    fold at t★ without a failed solve:
      * tangent predictor; the step grows or shrinks toward TARGET_ITERS
        corrector iterations and halves when the corrector fails;
      * the fold is passed when the tangent's t-component turns positive;
      * from the last stable point, the step is then aimed by a Hermite
        estimate of t★ until that point lies within FOLD_MARGIN·tol of it.
    One probe at t − 0.99·tol, warm from the last stable point, closes the
    bracket. When _fold_certificate certifies the fold between the last
    stable point and the converged point past it, that probe runs Newton
    from the warm start alone and rests its failure on the certificate;
    otherwise it is the full _probe_twice, warm then constant. Only if that
    probe solves does the fallback run: a march of full _probe_twice probes
    doubling its step until one fails, then steps of a quarter of the gap to
    the failed end.
    The bracket ends on a converged point and a failed probe, at most tol
    apart. probes lists the bootstrap probes, the stable points and the
    closing probes; the solved ones, t strictly decreasing, each with its
    report and λ_min, are the family. Each λ_min, the fold certificate's
    too, starts from the Ritz vector of the last one that converged; the
    first from the seeded start. A tol that is not positive raises
    SolverError; a search that finds no solvable start, stalls, or neither
    reaches its fold nor closes its bracket raises NumericalFailure.
    """
    if not tol > 0:
        raise SolverError(f"{param_name} search needs tol > 0, got {tol}")
    sign = 1.0 if param_name == "alpha" else -1.0
    probes: list[ProbeRecord] = []
    param = start
    for _ in range(12):
        v = _probe_twice(make_inst(param), param=param)
        probes.append(v)
        if v.solved:
            break
        param /= shrink
    else:
        raise NumericalFailure(f"no solvable {param_name} found from {start} toward 0")

    ground = None   # the Ritz vector of the last converged λ_min

    def min_eig(rep):
        """λ_min at rep, started from ground, or None when unconverged."""
        nonlocal ground
        try:
            lam, ground = problem.stability_eigenvalue(rep.inst, rep.solution, ground)
        except EigenSolveError:
            return None
        return lam

    def accept(record):
        record.report.min_eig = min_eig(record.report)

    def inst_at(t):
        return make_inst(sign * t)

    accept(probes[-1])
    zero = np.zeros(v.report.solution.values.shape)
    point = solvers.branch_point(inst_at, dF_dt, v.report, sign * param, zero, -1.0)
    past = None          # the nearest converged point past the fold
    ds, grow = FIRST_STEP, True
    for _ in range(MAX_SEARCH_PROBES):
        rep, nxt = solvers.arclength_correct(inst_at, dF_dt, point, ds)
        if nxt is None or (nxt.dt < 0 and not nxt.t < point.t):
            ds, grow = 0.5 * ds, False
            if ds < MIN_STEP:
                raise NumericalFailure(
                    f"{param_name} continuation stalled at {sign * point.t}: {rep.failure_reason}"
                )
            continue
        if nxt.dt < 0:
            probes.append(ProbeRecord(sign * nxt.t, [], rep))
            accept(probes[-1])
            factor = min(2.0, max(0.5, (TARGET_ITERS / max(rep.iterations, 1)) ** 0.5))
            point, ds, grow = nxt, ds * (factor if grow else min(factor, 1.0)), True
        else:
            past = nxt
        if past is not None:
            ds = _fold_step(point, past, FOLD_MARGIN * tol)
            if ds is None:
                break
    else:
        raise NumericalFailure(
            f"{param_name} continuation did not reach its fold in {MAX_SEARCH_PROBES} steps"
        )

    # close: probe past the fold from the last stable point; only the first
    # probe rests on the fold certificate
    fold = _fold_certificate(param_name, sign, point, past, min_eig(past.report))
    t, report, t_failed, step = point.t, point.report, None, CLOSE_FRACTION * tol
    for _ in range(MAX_SEARCH_PROBES):
        if t_failed is not None and t - t_failed <= tol:
            break
        if t_failed is None:
            nxt_t, step = t - step, 2.0 * step
        else:
            nxt_t = t - GAP_FRACTION * (t - t_failed)
        v = _probe_twice(inst_at(nxt_t), param=sign * nxt_t, warm_start=report.solution, fold=fold)
        fold = None
        probes.append(v)
        if v.solved:
            t, report = nxt_t, v.report
            accept(probes[-1])
        else:
            t_failed = nxt_t
    else:
        raise NumericalFailure(
            f"{param_name} search did not close its bracket in {MAX_SEARCH_PROBES} probes "
            f"(solvable end {sign * t})"
        )

    lo, hi = sorted((sign * t, sign * t_failed))
    return ThresholdReport(param_name=param_name, lo=lo, hi=hi, probes=probes)


def find_alpha_star(S: ScalarField, tol: float = ALPHA_TOL) -> ThresholdReport:
    """Bracket the critical α below which −Δu + α = S e^{2u/n} stops being solvable.

    Requires ∫S < 0. For S ≤ 0 (≢ 0) the threshold is −∞; walk_schedule
    verifies that regime on the fixed ladder UNBOUNDED_PROBE_ALPHAS (a failed
    member raises NumericalFailure with its evidence), and it is reported as
    unbounded with the ladder as its family.
    Otherwise `_fold_search` finds a solvable α near 0⁻ (START_ALPHA,
    divided by 4 on failure) and follows the solution branch down to its
    fold at α★ by pseudo-arclength continuation, where the stability
    eigenvalue λ_min vanishes. lo is a failed probe just past the fold, hi
    a converged point, hi − lo ≤ tol. probes lists every probe and stable
    point; the solved ones are the family, the stable branch, α strictly
    decreasing, each report with its λ_min. Every solve converges at
    solvers.RESIDUAL_TOL.
    """
    if _sign_obstructed(S):
        raise SolverError("find_alpha_star requires integrate(S) < 0")
    if S.max <= 0:
        probes = walk_schedule(S, UNBOUNDED_PROBE_ALPHAS)
        if not probes[-1].solved:
            raise NumericalFailure(
                f"S <= 0 but probe at alpha={probes[-1].param} failed: {probes[-1].evidence}"
            )
        return ThresholdReport(param_name="alpha", lo=-np.inf, hi=probes[-1].param, probes=probes)

    # t = α: ∂F/∂t = 1
    return _fold_search(partial(ProblemInstance, S), lambda e: 1.0, "alpha", START_ALPHA, 4.0,
                        tol)


def ding_liu_lambda_star(g0: ScalarField, s0: float, tol: float = LAMBDA_TOL) -> ThresholdReport:
    """Bracket the Ding-Liu threshold λ★ for −Δu + s₀ = (g₀+λ)e^{2u}, n = 1.

    Requires max g₀ = 0 (callers shift), g₀ nonconstant, s₀ < 0. Solvable
    for λ ∈ (0, λ★); g₀ + λ ≥ 0 makes λ ≥ −min g₀ unsolvable.
    `_fold_search` finds a solvable λ near 0⁺ (0.05·(−min g₀), halved on
    failure) and follows the branch up to its fold at λ★ by pseudo-arclength
    continuation in t = −λ. lo is a converged point, hi a failed probe just
    past the fold, hi − lo ≤ tol, and a bracket that does not lie strictly
    inside (0, −min g₀) raises NumericalFailure. The family is the stable branch, λ strictly
    increasing, each report with its λ_min. Every solve converges at
    solvers.RESIDUAL_TOL.
    """
    if g0.domain.d != 2:
        raise SolverError("Ding-Liu continuation is the n=1 (d=2) problem")
    if abs(g0.max) > 1e-8:
        raise SolverError(f"max g0 must be 0 (got {g0.max}); shift the field first")
    if g0.max - g0.min < 1e-12:
        raise SolverError("g0 must be nonconstant")
    if not s0 < 0:
        raise SolverError("s0 must be negative")
    lam_max = -g0.min

    # the instance at λ is −Δu + s₀ = (g₀ + λ)e^{2u}; in t = −λ,
    # F = −Δu + s₀ − (g₀ − t)e^{2u}, so ∂F/∂t = e^{2u}
    rep = _fold_search(lambda lam: ProblemInstance(ScalarField(g0.domain, g0.values + lam), s0),
                       lambda e: e, "lambda", 0.05 * lam_max, 2.0, tol)
    if not (0.0 < rep.lo and rep.hi < lam_max):
        raise NumericalFailure(
            f"lambda bracket [{rep.lo}, {rep.hi}] does not lie strictly inside (0, {lam_max})"
        )
    return rep


def limit_family(S: ScalarField, threshold_report: ThresholdReport,
                 count: int) -> list[ProbeRecord]:
    """The walk_schedule probes of count values of α descending geometrically
    onto the bracket's solvable end: its solved records are the family, and
    a failed member truncates it.

    An unbounded threshold has no solvable end to descend onto: walk an
    explicit schedule with walk_schedule instead.
    """
    if threshold_report.unbounded:
        raise SolverError("unbounded threshold: walk an explicit alpha schedule")
    a_hi = threshold_report.hi
    a0 = 0.5 * a_hi
    # ratio 1/4 rather than 1/2: near the fold the solution moves like
    # sqrt(α − α★), so the faster schedule is what makes an 8-member
    # family visibly plateau in the diagnostics
    alphas = [a_hi + (a0 - a_hi) * 4.0 ** (-k) for k in range(1, count + 1)]
    return walk_schedule(S, alphas)
