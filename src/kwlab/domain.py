"""Flat-torus grids, quadrature, region masks and smooth cutoffs.

The torus T^d = Π_i R/(L_i Z) is discretized by a uniform tensor grid with
N_i points per axis. For periodic smooth integrands the uniform quadrature
rule is spectrally accurate, so no fancier rule is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class TorusDomain:
    """Uniform periodic grid on a flat torus of real dimension d = len(sizes),
    2 or 4: even sizes of at least 8 points, one positive length per axis."""

    sizes: tuple[int, ...]
    lengths: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(int(N) for N in self.sizes))
        object.__setattr__(self, "lengths", tuple(float(L) for L in self.lengths))
        if self.d not in (2, 4) or len(self.lengths) != self.d:
            raise DomainError(f"need 2 or 4 axes, a length each: {self.sizes}, {self.lengths}")
        for N in self.sizes:
            if N < 8:
                raise DomainError(f"axis size {N} < 8: too coarse for spectral differentiation")
            if N % 2 != 0:
                raise DomainError(f"axis size {N} is odd: even sizes required")
        for L in self.lengths:
            if not L > 0:
                raise DomainError(f"axis length {L} must be positive")

    @property
    def d(self) -> int:
        return len(self.sizes)

    @property
    def volume(self) -> float:
        return float(np.prod(self.lengths))

    @property
    def npoints(self) -> int:
        return int(np.prod(self.sizes))

    @property
    def cell_weight(self) -> float:
        """Quadrature weight per grid point: Π (L_i / N_i)."""
        return float(np.prod([L / N for L, N in zip(self.lengths, self.sizes)]))

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(L / N for L, N in zip(self.lengths, self.sizes))

    def axis_coords(self, axis: int) -> np.ndarray:
        N = self.sizes[axis]
        return np.arange(N) * (self.lengths[axis] / N)

    def coords(self) -> list[np.ndarray]:
        """Broadcastable coordinate arrays, one per axis."""
        out = []
        for i in range(self.d):
            shape = [1] * self.d
            shape[i] = self.sizes[i]
            out.append(self.axis_coords(i).reshape(shape))
        return out

    def periodic_distance(self, center: tuple[float, ...]) -> np.ndarray:
        """Distance to `center` under the per-axis minimal-image convention."""
        if len(center) != self.d:
            raise DomainError(f"center has {len(center)} coordinates, domain is {self.d}-d")
        acc = np.zeros(self.sizes)
        for i, x in enumerate(self.coords()):
            L = self.lengths[i]
            delta = np.mod(x - center[i] + 0.5 * L, L) - 0.5 * L
            acc = acc + delta**2
        return np.sqrt(acc)


def make_torus(d: int, sizes, lengths) -> TorusDomain:
    """The TorusDomain of d axes with the given sizes and lengths."""
    if len(sizes) != d:
        raise DomainError(f"need {d} sizes, got {len(sizes)}")
    return TorusDomain(sizes, lengths)


@dataclass(eq=False)
class ScalarField:
    """Real-valued grid function on a TorusDomain. Values must stay finite."""

    domain: TorusDomain
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.domain.sizes:
            raise DomainError(
                f"field shape {self.values.shape} does not match grid {self.domain.sizes}"
            )
        if not np.all(np.isfinite(self.values)):
            raise DomainError("field contains NaN or Inf")

    @classmethod
    def constant(cls, domain: TorusDomain, value: float) -> "ScalarField":
        return cls(domain, np.full(domain.sizes, float(value)))

    def copy(self) -> "ScalarField":
        return ScalarField(self.domain, self.values.copy())

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    @property
    def min(self) -> float:
        return float(np.min(self.values))

    @property
    def max(self) -> float:
        return float(np.max(self.values))


def integrate(f: ScalarField) -> float:
    """∫ f dμ by uniform quadrature (spectrally accurate for smooth f)."""
    if not np.all(np.isfinite(f.values)):
        raise DomainError("cannot integrate non-finite field")
    return float(np.sum(f.values)) * f.domain.cell_weight


def mean(f: ScalarField) -> float:
    return integrate(f) / f.domain.volume


@dataclass(frozen=True, eq=False)
class RegionMask:
    """Boolean region on a grid (e.g. the negative set of S, or a compact K)."""

    domain: TorusDomain
    mask: np.ndarray

    def __post_init__(self):
        if self.mask.shape != self.domain.sizes:
            raise DomainError("mask shape does not match grid")

    @property
    def empty(self) -> bool:
        return not bool(self.mask.any())


def sublevel_mask(S: ScalarField, threshold: float) -> RegionMask:
    return RegionMask(S.domain, S.values < threshold)


def ball_mask(domain: TorusDomain, center, radius: float) -> RegionMask:
    return RegionMask(domain, domain.periodic_distance(tuple(center)) <= radius)


def make_cutoff(domain: TorusDomain, center, r_inner: float, r_outer: float) -> ScalarField:
    """C² radial bump under the flat periodic distance: 1 inside r_inner,
    0 outside r_outer, quintic in between.

    The quintic smoothstep has vanishing first and second derivatives at
    both ends of the transition band, so Δφ is continuous (needed by the
    maximum-principle sup bound, which evaluates Δφ).
    """
    if not (0 < r_inner < r_outer):
        raise DomainError("need 0 < r_inner < r_outer")
    half_min_period = 0.5 * min(domain.lengths)
    if r_outer > half_min_period:
        raise DomainError(
            f"r_outer = {r_outer} exceeds half the shortest period "
            f"{half_min_period}: cutoff would self-overlap through periodicity"
        )
    r = domain.periodic_distance(center)
    # t = 1 at the inner radius, 0 at the outer radius
    t = np.clip((r_outer - r) / (r_outer - r_inner), 0.0, 1.0)
    phi = t**3 * (10.0 - 15.0 * t + 6.0 * t**2)
    return ScalarField(domain, phi)
