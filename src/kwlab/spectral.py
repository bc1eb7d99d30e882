"""Fourier-spectral calculus on the torus: Δ, |∇·|², and the Schrödinger
operator −Δ + W behind the Newton solves and the smallest eigenvalue of
−Δ + V. Each function of a field reads its grid, and the grid's cached
SpectralPlan, from the field.

Sign convention is the analyst's one: Δ e^{i⟨ξ,x⟩} = −|ξ|² e^{i⟨ξ,x⟩}.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .domain import ScalarField, TorusDomain
from .errors import DomainError, EigenSolveError


class SpectralPlan:
    """Cached frequency tables and transforms for one domain.

    Real-to-complex transforms with Hermitian symmetry over the last axis,
    run as one pocketfft pass per axis by numpy's own gufuncs, in the order
    and with the factors of np.fft.rfftn and irfftn, so their values are
    bitwise theirs without the n-d wrappers' Python cost. The complex passes
    run in place in the transform's one new array; neither transform writes
    into its argument. ksq is |ξ|² per retained frequency; kderiv are the
    first derivative multipliers with the Nyquist mode zeroed (standard
    spectral convention for odd-order derivatives on even grids).
    """

    # numpy's pocketfft gufuncs, the passes its n-d wrappers run: imported
    # here and nowhere else in the package
    from numpy.fft import _pocketfft_umath as _pocketfft

    def __init__(self, domain: TorusDomain):
        self.domain = domain
        freqs = []
        for i, (N, L) in enumerate(zip(domain.sizes, domain.lengths)):
            if i == domain.d - 1:
                k = 2.0 * np.pi * np.fft.rfftfreq(N, d=L / N)
            else:
                k = 2.0 * np.pi * np.fft.fftfreq(N, d=L / N)
            shape = [1] * domain.d
            shape[i] = k.size
            freqs.append(k.reshape(shape))
        self.ksq = sum(k**2 for k in freqs)
        kderiv = []
        for i, (N, k) in enumerate(zip(domain.sizes, freqs)):
            kd = k.copy()
            flat = kd.reshape(-1)
            # even N always holds (enforced at domain construction); the
            # Nyquist index is N//2 on full axes and the last rfft entry.
            flat[N // 2 if i < domain.d - 1 else -1] = 0.0
            kderiv.append(kd)
        self._kderiv = kderiv
        self._axes = [[(i,), (), (i,)] for i in range(domain.d)]  # one gufunc pass on axis i

    def fft(self, values: np.ndarray) -> np.ndarray:
        # rfftn's passes: the real one on the last axis (even sizes always
        # hold, enforced at domain construction), then axes d−2 … 0
        pf, axes, last = self._pocketfft, self._axes, self.domain.d - 1
        spec = pf.rfft_n_even(values, 1.0, axes=axes[last], out=np.empty(self.ksq.shape, complex))
        for i in range(last - 1, -1, -1):
            pf.fft(spec, 1.0, axes=axes[i], out=spec)
        return spec

    def ifft(self, spec: np.ndarray) -> np.ndarray:
        # irfftn's passes: axes 0 … d−2 (d ≥ 2 always holds), then the real
        # one on the last axis, each scaled by 1/N of its own axis
        pf, axes, sizes, last = self._pocketfft, self._axes, self.domain.sizes, self.domain.d - 1
        work = pf.ifft(spec, 1.0 / sizes[0], axes=axes[0], out=np.empty(self.ksq.shape, complex))
        for i in range(1, last):
            pf.ifft(work, 1.0 / sizes[i], axes=axes[i], out=work)
        return pf.irfft(work, 1.0 / sizes[last], axes=axes[last], out=np.empty(sizes))


@lru_cache(maxsize=32)
def get_plan(domain: TorusDomain) -> SpectralPlan:
    return SpectralPlan(domain)


def laplacian(u: ScalarField) -> ScalarField:
    plan = get_plan(u.domain)
    return ScalarField(u.domain, plan.ifft(-plan.ksq * plan.fft(u.values)))


def grad_norm_sq(u: ScalarField) -> ScalarField:
    """Pointwise |∇u|² via spectral first derivatives."""
    plan = get_plan(u.domain)
    uhat = plan.fft(u.values)
    return ScalarField(u.domain, sum(plan.ifft(1j * kd * uhat)**2 for kd in plan._kderiv))


class SchrodingerOperator:
    """The Schrödinger operator x ↦ −Δx + W·x on one plan's grid, with the
    Fourier-diagonal solve x ↦ (−Δ + c)⁻¹x of its constant-coefficient part.

    W is a grid array or a scalar, c > 0. `apply`, `solve_diagonal` and
    `apply_preconditioned` take grids or flattened grids and keep the shape,
    so the Krylov and eigen-solvers call them on flat vectors. The shifted
    potential Wc = W − c is computed once, here, and the solve divides each
    fresh spectrum by |ξ|² + c in place.
    """

    def __init__(self, plan: SpectralPlan, W, c: float):
        if not c > 0:
            raise DomainError(f"Helmholtz constant must be positive, got {c}")
        self.plan, self.W, self.c, self.Wc = plan, W, c, W - c

    def apply(self, x: np.ndarray) -> np.ndarray:
        plan, g = self.plan, x.reshape(self.plan.domain.sizes)
        return (plan.ifft(plan.ksq * plan.fft(g)) + self.W * g).reshape(x.shape)

    def solve_diagonal(self, x: np.ndarray) -> np.ndarray:
        plan, g = self.plan, x.reshape(self.plan.domain.sizes)
        spec = plan.fft(g)
        spec /= plan.ksq + self.c
        return plan.ifft(spec).reshape(x.shape)

    def apply_preconditioned(self, x: np.ndarray) -> np.ndarray:
        """x ↦ M·A·x = x + (−Δ + c)⁻¹((W − c)·x): one FFT pair; M·(A·x) costs two."""
        g = x.reshape(self.plan.domain.sizes)
        return x + self.solve_diagonal(self.Wc * g).reshape(x.shape)


def inner(a, b):
    """Σ a·b over the last axis, broadcast over the others. einsum sums in an
    order that the shapes alone fix, where BLAS dot and gemv round differently
    with their thread count: every long-vector reduction of the Krylov and
    eigen-solvers goes through here, so their outputs do not depend on it."""
    return np.einsum("...i,...i->...", a, b)


def _ritz(S: np.ndarray, AS: np.ndarray):
    """Smallest Ritz pair (θ, c) of A on the span of the rows of S, AS = A·S:
    the smallest eigenpair of Sᵀ·A·S·c = θ·Sᵀ·S·c with cᵀ·Sᵀ·S·c = 1, or None
    when the Gram matrix Sᵀ·S is numerically singular."""
    G = inner(S[:, None], S[None])
    H = inner(S[:, None], AS[None])
    try:
        Linv = np.linalg.inv(np.linalg.cholesky(G))
    except np.linalg.LinAlgError:
        return None
    theta, Y = np.linalg.eigh(Linv @ (0.5 * (H + H.T)) @ Linv.T)
    return float(theta[0]), Linv.T @ Y[:, 0]


def min_eigenvalue(
    V: ScalarField,
    tol: float,
    max_iters: int | None = None,
    start: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Smallest eigenpair (λ, x) of −Δ + V by single-vector LOBPCG (Knyazev
    2001): x is the unit Ritz vector, flat over V's grid, whose eigenresidual
    met tol.

    Runs on the shifted operator A = −Δ + V − σ with σ = min V − 1, which is
    symmetric positive definite (potential ≥ 1), preconditioned by the
    constant-coefficient Helmholtz inverse M = (−Δ + mean(V − σ))⁻¹, for at
    most max_iters iterations, from start: the Ritz vector of a nearby
    potential's solve, whose ground state is nearly this one's, or by
    default a fixed seeded vector. A start that is not a finite vector of
    V's npoints entries with a nonzero norm raises DomainError. Each
    iteration is one Rayleigh–Ritz step on span{x, M·r, p}: the Ritz vector
    x, its preconditioned residual M·r made orthogonal to x, and the previous
    step p. p is dropped when the 3×3 Gram matrix is singular; the iteration
    stops when even {x, M·r} is.
    Accuracy: the value is returned only once the 2-norm eigenresidual
    ‖Av − λv‖ ≤ tol, checked on the returned Ritz vector applied afresh; for
    the symmetric operator that bounds |λ − λ_exact| by tol, whatever the
    start. Otherwise EigenSolveError carries the last Rayleigh quotient, or
    min V when σ rounds to min V, raised before any FFT.
    """
    if not tol > 0:
        raise DomainError("tol must be positive")
    npoints = V.domain.npoints
    if start is None:
        rng = np.random.default_rng(0)
        x = np.ones(npoints) + 0.01 * rng.standard_normal(npoints)
    else:
        x = np.array(start, dtype=float)
        if x.shape != (npoints,):
            raise DomainError(f"start vector must have {npoints} entries, got shape {x.shape}")
        if not np.all(np.isfinite(x)):
            raise DomainError("start vector must be finite")
    norm = np.sqrt(inner(x, x))
    if not 0 < norm < np.inf:
        raise DomainError(f"start vector must have a positive finite norm, got {norm}")
    x /= norm
    sigma = float(np.min(V.values)) - 1.0
    W = V.values - sigma  # ≥ 1 pointwise, unless σ rounds to min V
    if not np.min(W) > 0:
        raise EigenSolveError("potential too large to shift: min V − 1 rounds to min V", sigma)
    op = SchrodingerOperator(get_plan(V.domain), W, float(np.mean(W)))
    if max_iters is None:
        max_iters = 10 * max(V.domain.sizes)

    Ax = op.apply(x)
    lam = float(inner(x, Ax))
    p = Ap = None
    iters = 0
    while iters < max_iters:
        r = Ax - lam * x
        if np.sqrt(inner(r, r)) <= tol:
            break
        w = op.solve_diagonal(r)
        w -= inner(x, w) * x
        w /= np.sqrt(inner(w, w))
        S, AS = [x, w], [Ax, op.apply(w)]
        if p is not None:
            norm_p = np.sqrt(inner(p, p))
            S.append(p / norm_p)
            AS.append(Ap / norm_p)
        S, AS = np.array(S), np.array(AS)
        ritz = _ritz(S, AS)
        if ritz is None and p is not None:
            S, AS = S[:2], AS[:2]
            ritz = _ritz(S, AS)
        if ritz is None:
            break
        lam, c = ritz
        p, Ap = inner(S[1:].T, c[1:]), inner(AS[1:].T, c[1:])
        x, Ax = c[0] * x + p, c[0] * Ax + Ap
        iters += 1

    x /= np.sqrt(inner(x, x))
    Ax = op.apply(x)
    lam_shifted = float(inner(x, Ax))
    r = Ax - lam_shifted * x
    resid = float(np.sqrt(inner(r, r)))
    if not resid <= tol:    # a NaN residual fails too
        raise EigenSolveError(
            f"LOBPCG did not reach tol={tol}: it stopped after {iters} of at most "
            f"{max_iters} iterations (eigenresidual {resid:.3g})",
            lam_shifted + sigma,
        )
    return lam_shifted + sigma, x
