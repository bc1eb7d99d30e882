"""Executable a-priori estimates: the maximum-principle sup bound on compact
subsets of {S < 0}, and one per-member table whose columns carry the lower
bound, sup+inf and uniform-boundedness surrogates for solution families
approaching the critical threshold.

Each trend verdict reads one column of the table under one rule: at least
two values, every value finite, and the last-quartile slope (normalized, per
member) within bounds.
"Uniformly bounded" is the two-sided rule, |slope| ≤ 0.01. A finite family
cannot certify a limit; the trend test is the falsifiable surrogate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import problem, spectral
from .domain import RegionMask, ScalarField, ball_mask, integrate, make_cutoff, sublevel_mask
from .errors import DomainError
from .solvers import SolveReport

TREND_SLOPE_TOL = 0.01     # per member, after normalization by the column scale
SUPPORT_EPS = 1e-12        # φ > this counts as support
PLATEAU_TOL = 1e-9         # φ ≥ 1 − this counts as the plateau {φ = 1}
CUTOFF_LEVEL = 0.05        # auto_cutoff_region's M₋ is {S < −CUTOFF_LEVEL·sup|S|}


def trend_slope(values: list[float]) -> float:
    """Least-squares slope over the last quartile, normalized by column scale."""
    v = np.asarray(values, dtype=float)
    k = len(v)
    if k < 2:
        return 0.0
    start = max(0, k - max(2, k // 4 + 1))
    tail = v[start:]
    x = np.arange(len(tail), dtype=float)
    slope = float(np.polyfit(x, tail, 1)[0])
    scale = max(1.0, float(np.max(np.abs(v))))
    return slope / scale


def _trend_within(values: list[float], low: float, high: float) -> bool:
    """The trend rule: at least two values, every value finite and the
    last-quartile slope in [low, high]. One value has no trend to judge."""
    return bool(len(values) >= 2 and np.all(np.isfinite(values))
                and low <= trend_slope(values) <= high)


def is_flat(values: list[float]) -> bool:
    """The two-sided trend rule: |last-quartile slope| ≤ TREND_SLOPE_TOL."""
    return _trend_within(values, -TREND_SLOPE_TOL, TREND_SLOPE_TOL)


@dataclass
class AprioriBoundCertificate:
    """sup_K u ≤ bound_on_sup_u for every solution at any α in (α★, 0),
    computed purely from (S, α★, φ, K) via the maximum principle."""

    K: RegionMask
    bound_on_sup_u: float

    def margin(self, u: ScalarField) -> float:
        """bound − sup_K u; nonnegative when the certificate holds."""
        sup_K = float(np.max(u.values[self.K.mask]))
        return self.bound_on_sup_u - sup_K

    def check_family(self, family: list[tuple[float, SolveReport]]) -> bool:
        return all(self.margin(rep.solution) >= 0 for _, rep in family)


def apriori_c0_bound(
    S: ScalarField,
    alpha_star: float,
    phi: ScalarField,
    K: RegionMask,
) -> AprioriBoundCertificate:
    """Certified sup bound on K ⊆ {φ = 1} ⊆ supp φ ⊆ {S < 0}, n = d/2.

    C = max over M of (2|∇φ|² − 2φ·Δφ − (2/n)·α★·φ²), then
    sup_K e^{2u/n} ≤ −(n/2)·C / max_{supp φ} S.
    """
    if phi.domain != S.domain or K.domain != S.domain:
        raise DomainError("S, phi and K must share one domain")
    if not alpha_star < 0:
        raise DomainError("alpha_star must be negative")
    support = phi.values > SUPPORT_EPS
    if not np.any(support):
        raise DomainError("cutoff support is empty")
    if np.any(S.values[support] >= 0):
        raise DomainError("cutoff support leaks outside {S < 0}")
    max_S_supp = float(np.max(S.values[support]))
    if not np.all(phi.values[K.mask] >= 1.0 - PLATEAU_TOL):
        raise DomainError("K must lie inside the plateau {φ = 1}")

    n = S.domain.d // 2
    gsq = spectral.grad_norm_sq(phi)
    lap = spectral.laplacian(phi)
    expr = (
        2.0 * gsq.values
        - 2.0 * phi.values * lap.values
        - (2.0 / n) * alpha_star * phi.values**2
    )
    C = float(np.max(expr))
    bound_exp = -(n / 2.0) * C / max_S_supp
    if not (np.isfinite(bound_exp) and bound_exp > 0):
        raise DomainError("certificate degenerate: nonpositive bound on e^{2u/n}")
    return AprioriBoundCertificate(K=K, bound_on_sup_u=(n / 2.0) * float(np.log(bound_exp)))


def auto_cutoff_region(S: ScalarField) -> tuple[ScalarField, RegionMask]:
    """Default (φ, K) for diagnostics on a given S.

    With M₋ the sublevel set {S < −ε₀}, ε₀ = CUTOFF_LEVEL·sup|S|, φ is a
    radial cutoff centered at the minimizer of S with the largest outer
    radius whose ball stays inside M₋; K is a ball inside the plateau of φ.
    When S < −ε₀ everywhere the cutoff degenerates to φ ≡ 1 with K the
    whole torus.
    """
    domain = S.domain
    eps0 = CUTOFF_LEVEL * S.sup_norm
    m_minus = sublevel_mask(S, -eps0)
    if m_minus.empty:
        raise DomainError(f"{{S < -{eps0}}} is empty: S is nowhere below -{CUTOFF_LEVEL}·sup|S|")
    if np.all(m_minus.mask):
        return ScalarField.constant(domain, 1.0), m_minus

    argmin = np.unravel_index(np.argmin(S.values), domain.sizes)
    center = tuple(domain.axis_coords(i)[argmin[i]] for i in range(domain.d))
    dist = domain.periodic_distance(center)
    r_out = float(np.min(dist[~m_minus.mask])) - max(domain.spacings)
    r_out = min(r_out, 0.5 * min(domain.lengths))
    if r_out <= 2 * max(domain.spacings):
        raise DomainError("negative set of S too thin for an automatic cutoff")
    r_in = 0.5 * r_out
    return make_cutoff(domain, center, r_in, r_out), ball_mask(domain, center, 0.9 * r_in)


MEMBER_COLUMNS = ("param", "sup_norm_u", "energy", "defect", "lambda_min")

FAMILY_COLUMNS = (
    "alpha", "sup_K_u", "inf_M_u", "grad_l2", "int_exp", "lambda_min",
    "sup_plus_inf", "defect",
)


def table_csv(columns: tuple[str, ...], rows: list[dict]) -> str:
    """CSV text of rows under columns: each value as its repr (which
    round-trips a float exactly), None as an empty cell, lines ended by \\n."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join("" if row[k] is None else repr(float(row[k])) for k in columns))
    return "\n".join(lines) + "\n"


@dataclass
class FamilyDiagnostics:
    rows: list[dict]
    verdicts: dict[str, bool]
    A_observed: Optional[float]


def family_table(
    family: list[tuple[float, SolveReport]],
    K: Optional[RegionMask] = None,
    with_eig: bool = True,
) -> FamilyDiagnostics:
    """The per-member table of a family of (param, report), each member read
    at rep.inst, the instance it solved, plus the verdicts read off its columns.

    Every row holds the MEMBER_COLUMNS, its instance's alpha, and λ_min:
    rep.min_eig when the report carries one; otherwise, with with_eig or K,
    solved (problem.stability_eigenvalue) and stored on the report, an
    EigenSolveError propagating; without either it stays None. A solve
    starts from the Ritz vector of the previous solved row when that member
    lies on the same grid, and from the seeded start otherwise.

    Without K the table has no verdicts and A_observed is None. With K each
    row also holds the sup of u on K, the global inf of u, the Dirichlet
    seminorm, ∫e^{2u/n} and sup_K u + inf_K u, and the trend verdicts apply
    the one trend rule to a column: lower_bound to inf_M_u (slope ≥
    −TREND_SLOPE_TOL, not diverging downward), sup_inf to sup_plus_inf
    (slope ≤ TREND_SLOPE_TOL, bounded above), and is_flat to sup_K_u,
    grad_l2 and int_exp. stability holds when every member's λ_min ≥ −1e-6,
    identity when every defect ≤ 1e-8. A_observed is −min of inf_M_u. With
    K, an empty family, an empty K or a K on another grid than a member
    raises DomainError.
    """
    if K is not None and not family:
        raise DomainError("empty family")
    if K is not None and K.empty:
        raise DomainError("empty K")
    rows = []
    ground = None   # (grid, Ritz vector) of the last λ_min solved here
    for param, rep in family:
        inst, u = rep.inst, rep.solution
        if K is not None and K.domain != inst.domain:
            raise DomainError(f"K lies on another grid than the member at param {param!r}")
        e = problem.conformal_factor(inst, u)
        if rep.min_eig is None and (with_eig or K is not None):
            start = ground[1] if ground and ground[0] == inst.domain else None
            rep.min_eig, x = problem.stability_eigenvalue(inst, u, start)
            ground = inst.domain, x
        row = {
            "param": param,
            "alpha": inst.alpha,
            "sup_norm_u": u.sup_norm,
            "energy": rep.energy,
            "defect": problem.integral_identity_defect(inst, u, e),
            "lambda_min": rep.min_eig,
        }
        if K is not None:
            on_K = u.values[K.mask]
            row.update(
                sup_K_u=float(np.max(on_K)),
                inf_M_u=u.min,
                grad_l2=float(np.sqrt(spectral.dirichlet_integral(u))),
                int_exp=integrate(ScalarField(inst.domain, e)),
                sup_plus_inf=float(np.max(on_K) + np.min(on_K)),
            )
        rows.append(row)
    if K is None:
        return FamilyDiagnostics(rows=rows, verdicts={}, A_observed=None)

    def col(name):
        return [row[name] for row in rows]

    verdicts = {
        "lower_bound": _trend_within(col("inf_M_u"), -TREND_SLOPE_TOL, np.inf),
        "sup_K_bounded": is_flat(col("sup_K_u")),
        "w12_bounded": is_flat(col("grad_l2")),
        "exp_mass_bounded": is_flat(col("int_exp")),
        "stability": all(lam >= -1e-6 for lam in col("lambda_min")),
        "identity": all(d <= 1e-8 for d in col("defect")),
        "sup_inf": _trend_within(col("sup_plus_inf"), -np.inf, TREND_SLOPE_TOL),
    }
    return FamilyDiagnostics(rows=rows, verdicts=verdicts, A_observed=-min(col("inf_M_u")))
