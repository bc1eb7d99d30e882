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
from .solvers import MAX_ITERS, BranchPoint, SolveReport

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
CLOSE_FRACTION = 0.25    # the closing points sit at most this many tol either side of the fold
FLOOR_ITERS = 3          # the failed end's Newton budget, enough to reach the normal form's floor
FLOOR_FRACTION = 0.75    # a failed end whose ρ (its share of that floor) is below this solves
MAX_SEARCH_PROBES = 200  # cap on corrector steps


@dataclass
class ProbeRecord:
    """One point a threshold search or schedule walk tested: what
    probe_solvable returns, a stable point of a continuation walk (no
    evidence), or one of the two Newton solves that close a search. report
    is the converged report of a solved record, None when it failed; solved
    and min_eig (its λ_min, None unless solved) are read from it. A report
    that did not converge raises SolverError."""

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
        a larger budget can change. A search's closing record reads max_iters
        at its floor budget (FLOOR_ITERS), which no retry reads."""
        return any(e.endswith(": max_iters") for e in self.evidence)


@dataclass
class ThresholdReport:
    """Bracketed critical value of the continuation parameter, resting on
    probes, the ProbeRecord of every tested point. The family, the
    (param, report) of each solved record, ends at the solvable end;
    unbounded (lo = −∞) is the S ≤ 0 regime. estimate is the fold the
    search solved, inside the bracket; None for the S ≤ 0 regime.

    For param_name "alpha" the solvable end is hi (solvability persists as
    α increases toward 0); for "lambda" the solvable end is lo.
    """

    param_name: str
    lo: float
    hi: float
    probes: list[ProbeRecord]
    estimate: Optional[float] = None

    @property
    def unbounded(self) -> bool:
        return self.lo == -np.inf

    @property
    def family(self) -> list[tuple[float, SolveReport]]:
        return [(p.param, p.report) for p in self.probes if p.solved]

    @property
    def width(self) -> float:
        return self.hi - self.lo


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
) -> ProbeRecord:
    """The ProbeRecord of a numerical solvability test of inst, filed under
    param (default inst.alpha; λ for a Ding-Liu instance).

    An S with ∫S ≥ 0 fails at once with sign_obstruction evidence
    (_sign_obstructed). Otherwise Newton runs from the warm start, when
    given, and then from problem.constant_solution, which past the
    obstruction always exists (mean S < 0) and is built only once the warm
    start has failed; the first that converges solves the probe and is the
    record's report. The constant start rescues a warm start from far up
    the branch (two_mode − ½ on 16², warm from α = −0.01, stagnates at
    α = −2); walk_schedule hands the probe a predicted start instead, which
    solves that jump. A failed record means no start converged, not a proof
    of nonexistence: its evidence names each start's failure reason
    (max_iters, stagnation, a line-search or linear-solve failure, blow-up),
    and only max_iters is one a larger budget can change.
    """
    param = inst.alpha if param is None else param
    if _sign_obstructed(inst.S):
        return ProbeRecord(param, ["sign_obstruction: integral of S >= 0"])

    evidence = []
    iters = round(MAX_ITERS * budget)
    starts = [("warm", lambda: warm_start)] if warm_start is not None else []
    for tag, start in starts + [("constant", lambda: problem.constant_solution(inst))]:
        rep = solvers.newton_solve(inst, start(), max_iters=iters)
        if rep.converged:
            return ProbeRecord(param, [], rep)
        evidence.append(f"newton[{tag}]: {rep.failure_reason}")
    return ProbeRecord(param, evidence)


def _probe_twice(inst, **kw) -> ProbeRecord:
    """The ProbeRecord of probe_solvable at 1x budget or, only when some
    engine ran out of iterations, at 4x, with the same keywords; a failed
    retry's evidence starts with the first probe's. Stagnation, line-search
    failure and blow-up repeat identically at any budget, so they are not
    retried."""
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

    Each α is probed by _probe_twice, so it is retried at 4x budget only
    when a Newton start ran out of iterations, warm from a start predicted
    in τ = ln(−α). After two members it is their secant in τ,
    u_k + r·(u_k − u_{k−1}) with r = ln(α_{k+1}/α_k)/ln(α_k/α_{k−1}); after
    one it is u_k + (n/2)·ln(α_{k+1}/α_k), the τ-slope of the constant
    solution (n/2)·ln(α/mean S). Both are exact on a constant S, and the
    secant's (n/2)·Δτ terms cancel, so it is also the secant of
    u − constant_solution. The first failed α ends the walk: the family is
    truncated there, and the failed probe's record, with its evidence, is
    the last of the probes. A schedule that is not strictly decreasing
    raises SolverError, and one with an α ≥ 0 DomainError, before any probe.
    """
    check_schedule(alphas)
    insts = [ProblemInstance(S, a) for a in alphas]   # α ≥ 0 raises before its logarithm
    dtau = np.log(np.divide(alphas[1:], alphas[:-1]))   # the steps in τ = ln(−α)
    probes: list[ProbeRecord] = []
    for k, inst in enumerate(insts):
        start = None
        if k:
            u = probes[-1].report.solution.values
            if k == 1:
                start = u + 0.5 * inst.n * dtau[0]
            else:
                start = u + dtau[k - 1] / dtau[k - 2] * (u - probes[-2].report.solution.values)
            start = ScalarField(S.domain, start)
        probes.append(_probe_twice(inst, warm_start=start))
        if not probes[-1].solved:
            break
    return probes


def _fold_search(make_inst, dF_dt, param_name, start, shrink, tol):
    """The threshold search behind find_alpha_star and ding_liu_lambda_star.

    Works in t = ±param (t = α, or t = −λ), where the solvable side is
    larger t and t < 0 throughout; dF_dt maps e^{2u/n} to the exact ∂F/∂t.
    Bootstrap: _probe_twice, from the constant start, at param = start,
    divided by shrink until a probe solves. From there a pseudo-arclength
    walk (solvers.arclength_correct) follows the stable branch toward its
    fold, its step steered toward TARGET_ITERS corrector iterations; it
    keeps only a step that converges at a stable point (dt < 0) below the
    current one, and halves any other. It hands over to solvers.fold_solve,
    from the stable point's solution and the last converged Ritz vector (its
    tangent when none converged), at the first stable point where λ_min² has
    at least halved since the previous one (so its secant reaches 0 within
    one more step), and at the current one when a step turns past the fold
    (dt ≥ 0). A fold solve that fails or lands at or above the handover t
    lets the walk go on. Closing, by the saddle-node normal form: with
    mean(φ²) = 1, a = mean((2/n)·W·φ³), b = mean(φ·∂F/∂t) and
    δ = min(CLOSE_FRACTION·tol, (t_handover − t★)/2), Newton at t★ + δ from
    u★ + sign(a)·√(−2bδ/a)·φ is the solvable end, its λ_min started from φ;
    Newton at t★ − δ, warm from it alone, is held for FLOOR_ITERS iterations
    on the normal form's floor: past the fold, −bδ + (a/2)s² has no root and
    its least value is |b|δ, so ρ = |mean(φ·F)|/(|b|δ) of its last iterate
    stays near 1 or above. A Newton that converges, or ρ < FLOOR_FRACTION,
    puts a solution past the fold and raises NumericalFailure, except one
    that converges with ρ ≥ FLOOR_FRACTION: mean(φ²) = 1 bounds |mean(φ·F)|
    by ‖F‖_∞, so there |b|δ ≤ (4/3)·solvers.RESIDUAL_TOL, a tol too small to
    resolve, and the NumericalFailure names tol and |b|δ. Its record's
    evidence is the fold (t★, the extended residual, a, b, ρ) and that
    Newton's reason, max_iters. The bracket is [t★ − δ, t★ + δ], its
    estimate t★; the solved probes, t strictly decreasing, each with its
    λ_min, are the family. A tol that is not positive raises SolverError;
    a search that finds no solvable start, stalls or does not reach its fold
    raises NumericalFailure, a stall with its last rejection's reason.
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

    def accept(record) -> Optional[float]:
        """Solve record's λ_min, started from ground; None when unconverged."""
        nonlocal ground
        try:
            lam, ground = problem.stability_eigenvalue(record.report.inst,
                                                       record.report.solution, ground)
        except EigenSolveError:
            lam = None
        record.report.min_eig = lam
        return lam

    def inst_at(t):
        return make_inst(sign * t)

    def close(point):
        """(the ThresholdReport closed on the fold solved from point, None) or (None, why not)."""
        nonlocal ground
        fold_rep, fold = solvers.fold_solve(inst_at, dF_dt, point.report.solution, point.t,
                                            point.du if ground is None else ground)
        if fold is None or not fold.t < point.t:
            return None, f"fold solve: {fold_rep.failure_reason or 'not past the handover'}"
        inst, u, phi = fold_rep.inst, fold_rep.solution, fold.du
        e = problem.conformal_factor(inst, u)
        a = float(np.mean((2.0 / inst.n) * problem.linearization(inst, u, e).W * phi**3))
        b = float(np.mean(phi * dF_dt(e)))
        if not a * b < 0:
            return None, f"a*b={a * b!r} is not negative"
        delta = min(CLOSE_FRACTION * tol, 0.5 * (point.t - fold.t))
        sigma = np.sign(a) * np.sqrt(-2.0 * b * delta / a)
        solved = solvers.newton_solve(inst_at(fold.t + delta),
                                      ScalarField(u.domain, u.values + sigma * phi))
        if not solved.converged:
            return None, f"newton at the solvable end: {solved.failure_reason}"
        failed = solvers.newton_solve(inst_at(fold.t - delta), solved.solution,
                                      max_iters=FLOOR_ITERS)
        F = problem.residual(failed.inst, failed.solution)
        rho = abs(float(np.mean(phi * F.values))) / (abs(b) * delta)
        if failed.converged and rho >= FLOOR_FRACTION:
            raise NumericalFailure(f"{param_name} tol={tol!r} is too small to resolve: the "
                                   f"Newton past the fold at {sign * fold.t!r} converges on "
                                   f"the normal form's floor, |b|*delta={abs(b) * delta!r} "
                                   f"at most 4/3 of its residual")
        if failed.converged or rho < FLOOR_FRACTION:
            raise NumericalFailure(f"{param_name}={sign * (fold.t - delta)!r}, past the fold "
                                   f"at {sign * fold.t!r}, solves (rho={rho!r})")
        ground = phi.reshape(-1)
        end = ProbeRecord(sign * (fold.t + delta), [], solved)
        accept(end)
        evidence = [f"fold: {param_name}={sign * fold.t!r}",
                    f"fold: extended residual={fold_rep.residual_history[-1]!r}",
                    f"fold: a=mean((2/n) W phi^3)={a!r}", f"fold: b=mean(phi dF/dt)={b!r}",
                    f"fold: rho=|mean(phi F)|/(|b| delta)={rho!r}",
                    f"newton[warm]: {failed.failure_reason}"]
        lo, hi = sorted((sign * (fold.t - delta), end.param))
        return ThresholdReport(param_name, lo, hi, probes + [end, ProbeRecord(
            sign * (fold.t - delta), evidence)], sign * fold.t), None

    lam = last = accept(probes[-1])
    first = BranchPoint(v.report, sign * param, np.zeros(v.report.solution.values.shape), -1.0)
    _, point = solvers.arclength_correct(inst_at, dF_dt, first, 0.0)   # with its tangent
    ds = FIRST_STEP
    for _ in range(MAX_SEARCH_PROBES):
        rep, nxt = solvers.arclength_correct(inst_at, dF_dt, point, ds)
        turned = nxt is not None and nxt.dt >= 0    # the fold lies between point and nxt
        report, why = close(point) if turned else (None, rep.failure_reason)
        if report is not None:
            return report
        if nxt is None or not (nxt.dt < 0 and nxt.t < point.t):
            ds *= 0.5
            if ds < MIN_STEP:
                raise NumericalFailure(f"{param_name} continuation stalled at "
                                       f"{sign * point.t}: {why}")
            continue
        probes.append(ProbeRecord(sign * nxt.t, [], rep))
        last, lam = lam, accept(probes[-1])
        point, ds = nxt, ds * (TARGET_ITERS / max(rep.iterations, 1)) ** 0.5
        if None not in (last, lam) and lam * lam <= 0.5 * last * last:
            report, _ = close(point)
            if report is not None:
                return report
    raise NumericalFailure(f"{param_name} continuation did not reach its fold "
                           f"in {MAX_SEARCH_PROBES} steps")


def find_alpha_star(S: ScalarField, tol: float = ALPHA_TOL) -> ThresholdReport:
    """Bracket the critical α below which −Δu + α = S e^{2u/n} stops being solvable.

    Requires ∫S < 0. For S ≤ 0 (≢ 0) the threshold is −∞; walk_schedule
    verifies that regime on the fixed ladder UNBOUNDED_PROBE_ALPHAS (a failed
    member raises NumericalFailure with its evidence), and it is reported as
    unbounded with the ladder as its family.
    Otherwise `_fold_search` finds a solvable α near 0⁻ (START_ALPHA,
    divided by 4 on failure), follows the stable branch down by
    pseudo-arclength continuation and solves for its fold α★, where λ_min
    vanishes (solvers.fold_solve); estimate is α★. A step that turns past
    the fold is halved like any rejected one, so a fold near 0⁻ (small S⁺,
    or a large torus: α★ scales as 1/L²) closes too. hi is a converged point
    and lo a failed Newton solve, at α★ ± δ, hi − lo ≤ tol/2; lo is a
    3-iteration Newton (FLOOR_ITERS) held on the normal form's floor.
    probes lists every probe, stable point and closing solve; the solved
    ones are the family, α strictly decreasing, each report with its
    λ_min. Every solve converges at solvers.RESIDUAL_TOL.
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
    """Bracket the Ding-Liu threshold λ★ for −Δu + s₀ = (g₀ + λ)·e^{2u/n}, n = d/2.

    Requires max g₀ = 0 (callers shift), g₀ nonconstant, s₀ < 0. Solvable
    for λ ∈ (0, λ★); g₀ + λ ≥ 0 makes λ ≥ −min g₀ unsolvable.
    `_fold_search` finds a solvable λ near 0⁺ (0.05·(−min g₀), halved on
    failure), follows the branch up toward its fold by pseudo-arclength
    continuation in t = −λ and solves for the fold λ★, where a solution
    still exists; estimate is λ★. lo is a converged point and hi a failed
    Newton solve, at λ★ ∓ δ, hi − lo ≤ tol/2; hi is a 3-iteration Newton
    (FLOOR_ITERS) held on the normal form's floor. A bracket that does not
    lie strictly inside (0, −min g₀) raises NumericalFailure. The family is
    the stable branch, λ strictly increasing, each report with its λ_min.
    Every solve converges at solvers.RESIDUAL_TOL.
    """
    if abs(g0.max) > 1e-8:
        raise SolverError(f"max g0 must be 0 (got {g0.max}); shift the field first")
    if g0.max - g0.min < 1e-12:
        raise SolverError("g0 must be nonconstant")
    if not s0 < 0:
        raise SolverError("s0 must be negative")
    lam_max = -g0.min

    # the instance at λ is −Δu + s₀ = (g₀ + λ)e^{2u/n}; in t = −λ,
    # F = −Δu + s₀ − (g₀ − t)e^{2u/n}, so ∂F/∂t = e^{2u/n}
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
