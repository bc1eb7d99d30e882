"""Named analytic and seeded random candidate-curvature fields."""

from __future__ import annotations

import numpy as np

from .domain import ScalarField, TorusDomain
from .errors import DomainError
from .spectral import get_plan


def random_fourier(domain: TorusDomain, seed: int, decay_p: float) -> ScalarField:
    """Seeded band-weighted random field, |c_k| ∝ (1 + |k|²)^(−p), sup-normalized.

    p ≤ 1 is rejected (insufficient smoothness for spectral work). Bitwise
    reproducible for fixed (seed, sizes).
    """
    if decay_p <= 1:
        raise DomainError(f"spectrum decay p must exceed 1, got {decay_p}")
    rng = np.random.default_rng(seed)
    white = rng.standard_normal(domain.sizes)
    plan = get_plan(domain)
    what = plan.fft(white)
    idx = []
    for i, N in enumerate(domain.sizes):
        if i == domain.d - 1:
            m = np.arange(N // 2 + 1, dtype=float)
        else:
            m = np.fft.fftfreq(N, d=1.0 / N)
        shape = [1] * domain.d
        shape[i] = m.size
        idx.append(m.reshape(shape))
    ksq = sum(m**2 for m in idx)
    what = what * (1.0 + ksq) ** (-decay_p)
    what.reshape(-1)[0] = 0.0  # mean handled by the caller's offset
    vals = plan.ifft(what)
    sup = np.max(np.abs(vals))
    if sup > 0:
        vals = vals * (1.0 / sup)   # not vals / sup: that rounds differently
    return ScalarField(domain, vals)


def named_field(
    domain: TorusDomain,
    name: str,
    *,
    value: float | None = None,
    offset: float = 0.0,
    seed: int | None = None,
    decay_p: float | None = None,
    shift_max_zero: bool = False,
) -> ScalarField:
    """Build a grid field from a short name.

    Names: const (needs value), cos1, sin1, two_mode, random_fourier (needs
    seed and decay_p). `offset` is added afterwards; `shift_max_zero`
    subtracts the max (the normalization the λ-continuation requires).
    """
    x = domain.coords()
    L = domain.lengths
    if name == "const":
        if value is None:
            raise DomainError("const field needs a value")
        vals = float(value)
    elif name == "cos1":
        vals = np.cos(2 * np.pi * x[0] / L[0])
    elif name == "sin1":
        vals = np.sin(2 * np.pi * x[0] / L[0])
    elif name == "two_mode":
        vals = np.cos(2 * np.pi * x[0] / L[0]) + 0.5 * np.cos(4 * np.pi * x[1] / L[1])
    elif name == "random_fourier":
        if seed is None or decay_p is None:
            raise DomainError("random_fourier needs seed and decay_p")
        vals = random_fourier(domain, seed, decay_p).values
    else:
        raise DomainError(f"unknown field name {name!r}")

    vals = np.broadcast_to(vals, domain.sizes) + offset
    if shift_max_zero:
        vals = vals - np.max(vals)
    return ScalarField(domain, vals)
