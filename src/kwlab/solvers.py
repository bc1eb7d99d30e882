"""Solution engines for −Δu + α = S·e^{2u/n}.

  * newton_solve      — damped inexact Newton with Krylov inner solves, the
                        solve of one instance from a given field; a probe
                        tries a warm start, then problem.constant_solution,
  * arclength_correct — the pseudo-arclength corrector that walks a branch of
                        solutions in a parameter t toward its fold (the
                        threshold search); its step of length 0 in the
                        direction (0, −1) gives the walk's first point,
  * fold_solve        — Newton on the Moore–Spence extended system, which
                        solves for the fold itself.

Every engine converges once its residual's ‖·‖_∞ is at most RESIDUAL_TOL.
The corrector and the fold solve share one Newton loop and one failure
policy: a solve that blows up (`blow_up: …`), leaves the instances' range
(`out_of_range: …`), meets a non-finite residual (`blow_up: non-finite`),
runs out of CORRECTOR_ITERS iterations (`max_iters`), does not halve its
residual where the halving rule applies (`stagnation`) or takes a
non-finite Krylov step (`linear_solve_diverged`) fails with that reason on
its report and no point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import problem, spectral
from .domain import ScalarField
from .errors import BlowUpError, DomainError, SolverError
from .problem import ProblemInstance

ARMIJO = 1e-4               # sufficient-decrease constant of Newton's line search
MAX_ITERS = 80              # a solve's iteration cap
RESIDUAL_TOL = 1e-10        # a solve converges once ‖F(u)‖_∞ is at most this
CORRECTOR_ITERS = 10        # a corrector that has not converged by then has failed
MIN_DAMPING = 2.0**-30      # Newton's line search gives up below this step
PLATEAU_STEPS = 4           # Newton stagnates when its last PLATEAU_STEPS accepted
PLATEAU_RATIO = 0.99        # steps left ‖F‖_∞ above PLATEAU_RATIO times where they began
KRYLOV_STEPS = 30           # the most vectors of GMRES's one Krylov basis
FORCING = 0.1               # Newton's GMRES stops at relative min(FORCING, ‖F‖_∞)
TIGHT_RTOL = 1e-10          # ... and at TIGHT_RTOL once a loose step has failed


@dataclass
class SolveReport:
    """What a solve of inst ended with; it converged when no failure_reason
    is given."""

    solution: ScalarField
    iterations: int
    residual_history: list[float]
    method: str
    inst: ProblemInstance               # the instance solved
    energy: Optional[float] = None      # I(u) of a converged solve
    min_eig: Optional[float] = None
    failure_reason: Optional[str] = None

    def __post_init__(self):
        # contract: converged implies the final residual met the tol the
        # engine was run with; engines pass the history they verified.
        if self.converged and self.residual_history and not np.isfinite(self.residual_history[-1]):
            raise SolverError("converged report with a non-finite final residual")

    @property
    def converged(self) -> bool:
        return self.failure_reason is None

    @property
    def alpha(self) -> float:
        return self.inst.alpha


def _finish(inst, u, iters, history, method, reason=None, e=None) -> SolveReport:
    """The report of a solve. Only a converged one carries the energy, from
    e, the e^{2u/n} its last residual evaluated under the overflow cap."""
    return SolveReport(
        solution=u,
        iterations=iters,
        residual_history=history,
        method=method,
        inst=inst,
        energy=problem.energy(inst, u, e) if reason is None else None,
        failure_reason=reason,
    )


def _norm(x: np.ndarray) -> float:
    return float(np.sqrt(spectral.inner(x, x)))


def _gmres(apply, b: np.ndarray, rtol: float) -> tuple[np.ndarray, int]:
    """One cycle of GMRES (Saad & Schultz 1986) for A·x = b, A given by apply.

    It builds a Krylov basis of at most KRYLOV_STEPS vectors by modified
    Gram–Schmidt Arnoldi from x = 0, r = b, so A is never applied to a zero
    vector, and solves the small least-squares problem with Givens
    rotations, whose last entry is ‖b − A·x‖ with no extra apply. A happy
    breakdown, when the basis spans an invariant subspace (H[j+1, j] = 0),
    ends it at the exact solution on that subspace. Returns (x, info): info
    is 0 once ‖b − A·x‖ ≤ rtol·‖b‖, and 1 when the basis fills up short of
    it or A is singular on the basis.
    """
    beta = _norm(b)
    target = rtol * beta
    if beta <= target:
        return np.zeros_like(b), 0
    V = np.empty((KRYLOV_STEPS, b.size))
    V[0] = b / beta
    H = np.zeros((KRYLOV_STEPS, KRYLOV_STEPS))  # R of the rotated Hessenberg matrix
    # the small arithmetic runs on Python floats, which round as float64 does
    cs, sn = [0.0] * KRYLOV_STEPS, [0.0] * KRYLOV_STEPS
    g = [0.0] * (KRYLOV_STEPS + 1)
    g[0] = beta
    for j in range(KRYLOV_STEPS):
        w = apply(V[j])
        col = []                                # column j of H
        for i in range(j + 1):
            col.append(float(spectral.inner(w, V[i])))
            w -= col[i] * V[i]
        h = _norm(w)                            # H[j+1, j] before its rotation
        for i in range(j):
            col[i], col[i + 1] = (cs[i] * col[i] + sn[i] * col[i + 1],
                                  cs[i] * col[i + 1] - sn[i] * col[i])
        rho = float(np.hypot(col[j], h))
        if rho == 0.0:                          # A is singular on the basis
            return np.zeros_like(b), 1
        cs[j], sn[j], col[j] = col[j] / rho, h / rho, rho
        H[:j + 1, j] = col
        g[j], g[j + 1] = cs[j] * g[j], -sn[j] * g[j]
        # a happy breakdown, h = 0, gives sn[j] = 0 and so g[j + 1] = 0
        if abs(g[j + 1]) <= target or j + 1 == KRYLOV_STEPS:
            break
        V[j + 1] = w / h
        del w   # not held through the next apply, the cycle's memory peak
    k = j + 1
    x = spectral.inner(V[:k].T, np.linalg.solve(H[:k, :k], g[:k]))
    return x, 0 if abs(g[k]) <= target else 1


def newton_solve(inst: ProblemInstance, start: ScalarField, *,
                 max_iters: int = MAX_ITERS) -> SolveReport:
    """Damped Newton on F(u) = −Δu + α − S e^{2u/n}.

    From a copy of start, at most max_iters iterations (fewer than 1
    raises SolverError); converged means ‖F‖_∞ ≤ RESIDUAL_TOL. Jacobian
    problem.linearization J = F′(u) = −Δ − (2/n) S e^{2u/n}; the inner
    _gmres solves M·J·d = −M·F, left-preconditioned by the
    constant-coefficient Helmholtz inverse M, one FFT pair per Krylov step,
    to the relative tolerance min(FORCING, ‖F‖_∞): a forcing term (Dembo,
    Eisenstat & Steihaug 1982), loose far from the root, that keeps
    Newton's quadratic tail. Near a fold a loose direction can fail the
    line search; when its full step fails, the step is solved again at
    TIGHT_RTOL, and so is every later step of the solve. The last solve's
    info, and with it linear_solve_stagnation versus
    line_search_failure, refers to the preconditioned residual
    ‖M(J·d + F)‖. Backtracking halves t from 1 until ‖F(u + t·d)‖_∞ meets
    the Armijo condition, each trial's residual evaluated afresh, so the
    report's last residual is its solution's. An iterate that has not
    converged stops with stagnation on a residual plateau: the last
    PLATEAU_STEPS accepted steps cut ‖F‖_∞ by less than 1% (PLATEAU_RATIO).
    A step damped to t lowers ‖F‖_∞ by about t times itself, so a run of
    heavily damped steps is such a plateau. Past a fold, Newton from any
    start reaches such a plateau and would otherwise crawl along it; a
    steady descent of a few percent a step is not stopped. Failures (line
    search, blow-up) are reported as evidence, never raised.
    """
    if max_iters < 1:
        raise SolverError(f"max_iters must be >= 1, got {max_iters!r}")
    u = start.copy()
    history: list[float] = []
    forcing = FORCING

    # e = e^{2u/n} of the iterate serves its residual and its Jacobian; the
    # line search sets it and F to each trial's, so they are the accepted iterate's
    try:
        e = problem.conformal_factor(inst, u)
    except BlowUpError as err:
        return _finish(inst, u, 0, history, "newton", f"blow_up: {err}")
    F = problem.residual(inst, u, e=e)
    normF = F.sup_norm
    history.append(normF)

    for it in range(max_iters + 1):
        if normF <= RESIDUAL_TOL:
            return _finish(inst, u, it, history, "newton", e=e)
        if (len(history) > PLATEAU_STEPS
                and history[-1] > PLATEAU_RATIO * history[-1 - PLATEAU_STEPS]):
            return _finish(inst, u, it, history, "newton", "stagnation")
        if it == max_iters:
            return _finish(inst, u, it, history, "newton", "max_iters")
        J = problem.linearization(inst, u, e)
        rhs = J.solve_diagonal(-F.values).reshape(-1)
        del e, F   # not held through the Krylov basis, a solve's memory peak
        # the forcing term; forcing drops to TIGHT_RTOL once a loose step fails
        t, rtol, d = 1.0, min(forcing, normF), None
        while t >= MIN_DAMPING:
            if d is None:
                d, info = _gmres(J.apply_preconditioned, rhs, rtol)
                if not np.all(np.isfinite(d)):
                    return _finish(inst, u, it, history, "newton", "linear_solve_diverged")
                d = d.reshape(inst.domain.sizes)
            trial = ScalarField(inst.domain, u.values + t * d)
            try:
                e = problem.conformal_factor(inst, trial)
            except BlowUpError:
                pass
            else:
                F = problem.residual(inst, trial, e=e)
                if F.sup_norm <= (1.0 - ARMIJO * t) * normF:
                    break
            if t == 1.0 and rtol > TIGHT_RTOL:
                rtol = forcing = TIGHT_RTOL
                trial = e = F = d = None   # not held through the Krylov basis
            else:
                t *= 0.5
        else:
            reason = "line_search_failure" if info == 0 else "linear_solve_stagnation"
            return _finish(inst, u, it + 1, history, "newton", reason)
        u, normF = trial, F.sup_norm
        history.append(normF)


@dataclass
class BranchPoint:
    """A converged point (u, t) of a one-parameter branch F(u, t) = 0 with
    its unit tangent (du, dt): mean(du²) + dt² = 1."""

    report: SolveReport
    t: float
    du: np.ndarray
    dt: float


def _extended_newton(method, make_inst, linearize, halve_from, inst, u, x, t, z=None):
    """The Newton loop of arclength_correct (x empty) and fold_solve (x = φ)
    in (u, x, t), from (u, x, t) at inst, moved first by the step z when
    given. linearize(inst, e, u, x, t), e = e^{2u/n}, returns the residual's
    ‖·‖_∞, step() → the flattened Newton step and tangent() → the unit
    tangent (du, dt) at a converged point. The halving rule applies from
    iteration halve_from."""
    shape, N = u.values.shape, u.values.size
    history: list[float] = []
    for it in range(CORRECTOR_ITERS + 1):
        try:
            if z is not None:
                u = ScalarField(u.domain, u.values + z[:N].reshape(shape))
                x, t = x + z[N:-1], t + float(z[-1])
                inst = make_inst(t)
            e = problem.conformal_factor(inst, u)
            normF, step, tangent = linearize(inst, e, u, x, t)
        except BlowUpError as err:
            return _finish(inst, u, it, history, method, f"blow_up: {err}"), None
        except DomainError as err:
            return _finish(inst, u, it, history, method, f"out_of_range: {err}"), None
        history.append(normF)
        if not np.isfinite(normF):
            reason = "blow_up: non-finite"
        elif normF <= RESIDUAL_TOL:
            rep = _finish(inst, u, it, history, method, e=e)
            return rep, BranchPoint(rep, t, *tangent())
        elif it == CORRECTOR_ITERS:
            reason = "max_iters"
        elif it >= halve_from and normF > 0.5 * history[-2]:
            reason = "stagnation"
        else:
            z = step()
            reason = None if np.all(np.isfinite(z)) else "linear_solve_diverged"
        if reason:
            return _finish(inst, u, it, history, method, reason), None


def arclength_correct(make_inst, dF_dt, base: BranchPoint,
                      ds: float) -> tuple[SolveReport, Optional[BranchPoint]]:
    """One pseudo-arclength step (Keller 1977) along the branch F(u, t) = 0.

    make_inst maps t to its ProblemInstance and dF_dt maps the conformal
    factor e^{2u/n} to the exact ∂F/∂t. From the tangent predictor
    base + ds·(du, dt), Newton on (u, t) solves F = 0 together with the
    arclength row mean(du·(u − u₀)) + dt·(t − t₀) = ds. Each step is an
    inexact _gmres solve of the bordered Jacobian B = [[J, f_t], [duᵀ/N, dt]],
    J = F′(u), f_t = ∂F/∂t, well posed through a fold where J is singular and
    left-preconditioned by diag(M, 1), M = (−Δ + c)⁻¹: one FFT pair per
    Krylov step. Its residual is ‖F‖_∞, which every Newton step must halve. A
    converged point carries its unit tangent, B⁻¹·(0, 1) normalized. A step
    of length 0 from a converged report in the direction (0, −1) is a walk's
    first point: it stops at iteration 0 with that tangent.
    """
    u0, t0, du = base.report.solution.values, base.t, base.du.reshape(-1)

    def linearize(inst, e, u, _, t):
        F = problem.residual(inst, u, e=e)
        J = problem.linearization(inst, u, e)
        Mft = J.solve_diagonal(np.broadcast_to(dF_dt(e), e.shape)).reshape(-1)

        def apply(z):
            v, s = z[:-1], z[-1]
            return np.append(J.apply_preconditioned(v) + s * Mft,
                             spectral.inner(du, v) / v.size + base.dt * s)

        def solve(r, a):
            # an inexact solve of B·z = (r, a) is enough: the residual test
            # decides convergence, and the tangent only steers the next step
            return _gmres(apply, np.append(J.solve_diagonal(r), a), 1e-6)[0]

        def tangent():
            z = solve(np.zeros(du.size), 1.0)
            v, s = z[:-1], float(z[-1])
            norm = float(np.sqrt(spectral.inner(v, v) / v.size + s * s))
            return (v / norm).reshape(u0.shape), s / norm

        arc = np.mean(base.du * (u.values - u0)) + base.dt * (t - t0) - ds
        return F.sup_norm, lambda: solve(-F.values.reshape(-1), -arc), tangent

    return _extended_newton("arclength", make_inst, linearize, 1, base.report.inst,
                            base.report.solution, np.empty(0), t0,
                            ds * np.append(base.du, base.dt))


def fold_solve(make_inst, dF_dt, u: ScalarField, t: float,
               phi0: np.ndarray) -> tuple[SolveReport, Optional[BranchPoint]]:
    """Newton on the extended system of Moore & Spence (1980) in (u, φ, t),
    F(u, t) = 0, F_u(u, t)·φ = 0 and mean(φ₀·φ) = 1, whose root is a fold of
    the branch, from (u, φ₀, t), φ₀ scaled to mean(φ₀²) = 1. make_inst and
    dF_dt are arclength_correct's; F is affine in e = e^{2u/n}, so with
    W = −(2/n)·S·e, F_uu[φ, v] = (2/n)·W·φ·v and ∂_t(W) = (2/n)·(dF_dt(e) −
    dF_dt(0)). Each step runs _gmres on the 2N+1 system, preconditioned by
    diag(M, M, 1), two FFT pairs per Krylov step. Its residual is
    ‖(F, F_u·φ)‖_∞, which the first Newton step may raise and later ones
    must halve. The fold is the BranchPoint at t★ with tangent (φ, 0), mean(φ²) = 1.
    """
    shape, N = u.values.shape, u.values.size
    phi0 = phi0.reshape(-1) * (np.sqrt(N) / _norm(phi0.reshape(-1)))

    def linearize(inst, e, u, phi, t):
        J = problem.linearization(inst, u, e)
        F, Jphi = problem.residual(inst, u, e=e).values.reshape(-1), J.apply(phi)

        def step():
            ft = np.broadcast_to(dF_dt(e), shape).reshape(-1)
            Wc, Fuu_phi = J.Wc.reshape(-1), (2.0 / inst.n) * J.W.reshape(-1) * phi
            Wt_phi = (2.0 / inst.n) * (ft - dF_dt(0.0)) * phi

            def apply(z):
                v, w, s = z[:N], z[N:-1], z[-1]
                return np.concatenate([v + J.solve_diagonal(Wc * v + s * ft),
                                       w + J.solve_diagonal(Wc * w + Fuu_phi * v + s * Wt_phi),
                                       [spectral.inner(phi0, w) / N]])

            rhs = np.concatenate([J.solve_diagonal(F), J.solve_diagonal(Jphi),
                                  [spectral.inner(phi0, phi) / N - 1.0]])
            return _gmres(apply, -rhs, 1e-10)[0]

        return (float(np.max(np.abs(np.concatenate([F, Jphi])))), step,
                lambda: ((np.sqrt(N) / _norm(phi) * phi).reshape(shape), 0.0))

    return _extended_newton("fold", make_inst, linearize, 2, make_inst(t), u, phi0, t)
