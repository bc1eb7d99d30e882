"""One Kazdan-Warner instance −Δu + α = S·e^{2u/n} on a flat torus, with its
residual F (half the L² gradient of the energy functional), the energy,
the linearization F′(u) (half the second variation) with its smallest
eigenvalue (stability), and the mean identity ∫ S e^{2u/n} = α·Vol
obtained by integrating the equation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectral
from .domain import ScalarField, TorusDomain, mean
from .errors import BlowUpError, DomainError, SolverError

# e^{2u/n} is never evaluated past this exponent; hitting the cap is treated
# as blow-up evidence, not as a value.
EXP_ARG_CAP = 400.0
EIG_TOL = 1e-7  # the tol of every λ_min (stability_eigenvalue)


@dataclass(frozen=True)
class ProblemInstance:
    """The equation at α < 0 for the coefficient S, on S's grid T^d with
    complex dimension n = d/2."""

    S: ScalarField
    alpha: float

    def __post_init__(self):
        if not self.alpha < 0:
            raise DomainError(f"alpha must be negative, got {self.alpha}")

    @property
    def domain(self) -> TorusDomain:
        return self.S.domain

    @property
    def n(self) -> int:
        return self.domain.d // 2


def constant_solution(inst: ProblemInstance) -> ScalarField:
    """The solution (n/2)·ln(α/mean S) of the equation averaged over the
    torus, Newton's start when no warm one is given; it needs mean S < 0."""
    m = mean(inst.S)
    if not m < 0:
        raise SolverError(f"a constant start needs mean S < 0, got {m!r}")
    return ScalarField.constant(inst.domain, 0.5 * inst.n * np.log(inst.alpha / m))


def conformal_factor(inst: ProblemInstance, u: ScalarField) -> np.ndarray:
    """e^{2u/n} with an overflow guard; the cap is blow-up signal upstream.
    Every function of a solution u reads u through here, so a u on another
    grid than inst's raises DomainError."""
    if u.domain != inst.domain:
        raise DomainError("u lives on a different grid than the instance")
    arg = (2.0 / inst.n) * u.values
    amax = float(np.max(arg))
    if amax > EXP_ARG_CAP:
        raise BlowUpError(max_u=float(np.max(u.values)), cap=EXP_ARG_CAP * inst.n / 2.0)
    return np.exp(arg)


def residual(inst: ProblemInstance, u: ScalarField, e=None) -> ScalarField:
    """F(u) = −Δu + α − S e^{2u/n}; a solution has ‖F(u)‖_∞ ≈ 0. e is
    e^{2u/n} when the caller already has it."""
    if e is None:
        e = conformal_factor(inst, u)
    vals = -spectral.laplacian(u).values + inst.alpha - inst.S.values * e
    return ScalarField(inst.domain, vals)


def energy(inst: ProblemInstance, u: ScalarField, e=None) -> float:
    """I(u) = ∫(|∇u|² + 2αu − nS e^{2u/n}), its three terms summed in that
    order; the Dirichlet term is spectral.dirichlet_integral's, one forward
    transform. e is e^{2u/n} when the caller already has it."""
    if e is None:
        e = conformal_factor(inst, u)
    w = inst.domain.cell_weight
    dirichlet = spectral.dirichlet_integral(u)
    linear = 2.0 * inst.alpha * float(np.sum(u.values)) * w
    exponential = -inst.n * float(np.sum(inst.S.values * e)) * w
    return dirichlet + linear + exponential


def linearization(inst: ProblemInstance, u: ScalarField, e=None) -> spectral.SchrodingerOperator:
    """F′(u) = −Δ + W with W = −(2/n) S e^{2u/n}: Newton's Jacobian, the
    bordered corrector's block, half the second variation and the stability
    operator. Its preconditioner constant is c = max(1, mean|W|); e is
    e^{2u/n} when the caller already has it."""
    W = -(2.0 / inst.n) * inst.S.values * (conformal_factor(inst, u) if e is None else e)
    plan = spectral.get_plan(inst.domain)
    return spectral.SchrodingerOperator(plan, W, max(1.0, float(np.mean(np.abs(W)))))


def stability_potential(inst: ProblemInstance, u: ScalarField) -> ScalarField:
    """V = −(2/n) S e^{2u/n}: potential of the stability operator −Δ + V = F′(u)."""
    return ScalarField(inst.domain, linearization(inst, u).W)


def stability_eigenvalue(inst: ProblemInstance, u: ScalarField,
                         start=None) -> tuple[float, np.ndarray]:
    """(λ_min, x) of the stability operator F′(u), solved at EIG_TOL from
    start (spectral.min_eigenvalue), with x its unit Ritz vector: the start
    of the next solve along a family on the same grid. An unconverged solve
    raises EigenSolveError. Every λ_min of the program is solved here."""
    V = stability_potential(inst, u)
    return spectral.min_eigenvalue(V, EIG_TOL, start=start)


def integral_identity_defect(inst: ProblemInstance, u: ScalarField, e=None) -> float:
    """Relative defect |∫S e^{2u/n} − α·Vol| / (|α|·Vol) of the mean identity
    ∫ S e^{2u/n} = α·Vol: near zero iff u solves the equation in the mean.
    e is e^{2u/n} when the caller already has it.
    """
    if e is None:
        e = conformal_factor(inst, u)
    mass = float(np.sum(inst.S.values * e)) * inst.domain.cell_weight
    return abs(mass - inst.alpha * inst.domain.volume) / (abs(inst.alpha) * inst.domain.volume)
