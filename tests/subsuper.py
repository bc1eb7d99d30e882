"""Sub/super-solution engines: the order-preserving reference the tests
judge Newton by.

The paper's Chen–Li type existence argument runs through an order interval
[u₋, u₊] of a constant sub-solution and a super-solution. Two routes solve
inside it:
  * monotone_iterate       — order-preserving fixed point descending from
                             the super-solution through [u₋, u₊],
  * minimize_over_interval — projected gradient descent of the energy over
                             the order interval (the variational route).
They share the package's residual, energy and Helmholtz solve, not its
Newton–Krylov iteration; only minimize_over_interval's final polish calls
newton_solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from kwlab import problem, spectral
from kwlab.domain import ScalarField
from kwlab.errors import BlowUpError, SolverError
from kwlab.problem import ProblemInstance
from kwlab.solvers import RESIDUAL_TOL, SolveReport, _finish, newton_solve

PGD_MAX_ITERS = 20000       # projected-gradient iterations of minimize_over_interval
MONOTONE_MAX_ITERS = 50000  # fixed-point iterations of monotone_iterate
ORDER_SLACK = 1e-9          # residual sign tolerance of an OrderInterval's endpoints
ARMIJO = 1e-4               # sufficient-decrease constant of minimize_over_interval's backtracking


@dataclass
class OrderInterval:
    """[u₋, u₊] with residual(u₋) ≤ 0 ≤ residual(u₊) pointwise."""

    lower: ScalarField
    upper: ScalarField

    def validate(self, inst: ProblemInstance):
        if np.any(self.lower.values > self.upper.values):
            raise SolverError("order interval inverted: lower > upper somewhere")
        r_lo = problem.residual(inst, self.lower)
        if float(np.max(r_lo.values)) > ORDER_SLACK:
            raise SolverError(
                f"lower endpoint is not a sub-solution (max residual {np.max(r_lo.values):.3g})"
            )
        r_hi = problem.residual(inst, self.upper)
        if float(np.min(r_hi.values)) < -ORDER_SLACK:
            raise SolverError(
                f"upper endpoint is not a super-solution (min residual {np.min(r_hi.values):.3g})"
            )


def build_sub_solution(inst: ProblemInstance) -> ScalarField:
    """Constant sub-solution u₋ = (n/2)·ln(α / inf S) − 1.

    Needs inf S < 0; then e^{2u₋/n} < α/inf S gives S·e^{2u₋/n} > α
    everywhere, i.e. strict negativity of the residual of a constant.
    """
    inf_S = inst.S.min
    if inf_S >= 0:
        raise SolverError(f"sub-solution needs inf S < 0, got inf S = {inf_S}")
    u_minus = ScalarField.constant(
        inst.domain, 0.5 * inst.n * np.log(inst.alpha / inf_S) - 1.0
    )
    r = problem.residual(inst, u_minus)
    if float(np.max(r.values)) >= 0:
        raise SolverError("constant sub-solution failed its pointwise check")
    return u_minus


def build_super_solution(inst: ProblemInstance, warm: SolveReport) -> ScalarField:
    """A converged solution at α̃ < α is a strict super-solution at α.

    Algebraically residual(inst, u₊) = α − α̃ > 0 pointwise; verified to
    hold with at least half that gap.
    """
    if not warm.converged:
        raise SolverError("warm report is not converged")
    if warm.solution.domain != inst.domain:
        raise SolverError("warm solution lives on a different domain")
    gap = inst.alpha - warm.alpha
    if not gap > 0:
        raise SolverError(
            f"warm report is at alpha={warm.alpha}, need strictly below alpha={inst.alpha}"
        )
    r = problem.residual(inst, warm.solution)
    if float(np.min(r.values)) < 0.5 * gap:
        raise SolverError("super-solution verification failed: residual gap too small")
    return warm.solution.copy()


def make_interval(inst: ProblemInstance, warm: SolveReport) -> OrderInterval:
    upper = build_super_solution(inst, warm)
    lower = build_sub_solution(inst)
    # the constant lower endpoint is also pushed below the super-solution's minimum
    if lower.max >= upper.min:
        lower = ScalarField.constant(inst.domain, min(lower.max, upper.min - 1.0))
    return OrderInterval(lower=lower, upper=upper)


def monotone_constant(inst: ProblemInstance, upper: ScalarField) -> float:
    """Smallest safe monotonicity constant (up to a +1 margin).

    c ≥ sup over [lower, upper] of d/du (S e^{2u/n}) makes the fixed-point
    map order-preserving on the interval.
    """
    arg = (2.0 / inst.n) * upper.max
    if arg > 300.0:
        raise SolverError("super-solution too large: monotonicity constant would overflow")
    return (2.0 / inst.n) * float(np.max(np.abs(inst.S.values))) * float(np.exp(arg)) + 1.0


def monotone_iterate(
    inst: ProblemInstance, interval: OrderInterval, *, residual_tol: float = RESIDUAL_TOL
) -> SolveReport:
    """Fixed point u ← u − (−Δ + c)⁻¹F(u) = (−Δ + c)⁻¹(c·u − α + S e^{2u/n})
    from u₀ = u₊.

    With c at least the monotonicity constant the iterates decrease
    pointwise, stay inside [u₋, u₊], and converge to a solution.
    """
    interval.validate(inst)
    c = monotone_constant(inst, interval.upper)

    u = interval.upper.copy()
    history: list[float] = []
    for it in range(MONOTONE_MAX_ITERS):
        F = problem.residual(inst, u)
        normF = F.sup_norm
        history.append(normF)
        if normF <= residual_tol:
            return _finish(inst, u, it, history, "monotone")
        helmholtz = spectral.SchrodingerOperator(spectral.get_plan(inst.domain), c, c)
        unew = ScalarField(inst.domain, u.values - helmholtz.solve_diagonal(F.values))
        if float(np.max(unew.values - u.values)) > 1e-12:
            raise SolverError(
                "monotone iterate increased: monotonicity constant too small or interval invalid"
            )
        if (
            float(np.max(unew.values - interval.upper.values)) > 1e-9
            or float(np.max(interval.lower.values - unew.values)) > 1e-9
        ):
            raise SolverError("monotone iterate escaped the order interval by more than 1e-9")
        u = unew
    return _finish(inst, u, MONOTONE_MAX_ITERS, history, "monotone", "max_iters")


def minimize_over_interval(
    inst: ProblemInstance, interval: OrderInterval, *, residual_tol: float = RESIDUAL_TOL
) -> SolveReport:
    """Projected gradient descent of I over X = {u₋ ≤ u ≤ u₊}.

    Pointwise clamping after each step; Barzilai-Borwein trial steps with
    Armijo backtracking. Once the iterate sits strictly inside the box a
    Newton polish finishes the run (the Euler-Lagrange equation is then
    active); the polished point is accepted only if it stays in the box.
    """
    interval.validate(inst)
    lo, hi = interval.lower.values, interval.upper.values
    w = inst.domain.cell_weight

    u = 0.5 * (lo + hi)
    g = 2 * problem.residual(inst, ScalarField(inst.domain, u)).values
    I_u = problem.energy(inst, ScalarField(inst.domain, u))
    t = 1.0 / (1.0 + float(np.max(np.abs(g))))
    history: list[float] = []
    prev_u = prev_g = None
    interior_margin = 1e-6

    for it in range(PGD_MAX_ITERS):
        field_u = ScalarField(inst.domain, u)
        F = problem.residual(inst, field_u)
        normF = F.sup_norm
        history.append(normF)

        interior = (np.min(u - lo) >= interior_margin) and (np.min(hi - u) >= interior_margin)
        if interior and normF <= residual_tol:
            return _finish(inst, field_u, it, history, "minimize")
        pg = u - np.clip(u - g, lo, hi)
        if not interior and float(np.max(np.abs(pg))) <= residual_tol:
            # minimizer pinned to the boundary of X: small projected gradient
            return _finish(inst, field_u, it, history, "minimize")

        if interior and it > 0 and it % 20 == 0:
            rep = newton_solve(inst, field_u)
            if rep.converged and (
                float(np.max(rep.solution.values - hi)) <= 1e-9
                and float(np.max(lo - rep.solution.values)) <= 1e-9
            ):
                history.extend(rep.residual_history)
                return _finish(
                    inst, rep.solution, it + rep.iterations, history, "minimize"
                )

        if prev_u is not None:
            du = u - prev_u
            dg = g - prev_g
            denom = float(np.sum(du * dg))
            if denom > 0:
                t = float(np.sum(du * du)) / denom
            t = float(np.clip(t, 1e-8, 1e3))

        accepted = False
        tt = t
        for _ in range(60):
            v = np.clip(u - tt * g, lo, hi)
            step = v - u
            slope = float(np.sum(g * step)) * w
            try:
                I_v = problem.energy(inst, ScalarField(inst.domain, v))
            except BlowUpError:
                tt *= 0.5
                continue
            if I_v <= I_u + ARMIJO * slope:
                prev_u, prev_g = u, g
                u = v
                I_u = I_v
                g = 2 * problem.residual(inst, ScalarField(inst.domain, u)).values
                accepted = True
                break
            tt *= 0.5
        if not accepted:
            # no admissible decrease left at this resolution: report as-is
            field_u = ScalarField(inst.domain, u)
            ok = problem.residual(inst, field_u).sup_norm <= residual_tol
            return _finish(
                inst, field_u, it, history, "minimize",
                None if ok else "step_stagnation",
            )

    field_u = ScalarField(inst.domain, u)
    ok = problem.residual(inst, field_u).sup_norm <= residual_tol
    return _finish(inst, field_u, PGD_MAX_ITERS, history, "minimize",
                   None if ok else "max_iters")
