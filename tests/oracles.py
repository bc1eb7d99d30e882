"""Independent oracles used to freeze expected values.

Everything here deliberately avoids the package's spectral machinery:
finite differences, dense linear algebra, grid refinement.
"""

from __future__ import annotations

import numpy as np

from kwlab import ScalarField, TorusDomain, make_torus


def fd_laplacian(domain: TorusDomain, values: np.ndarray) -> np.ndarray:
    """2nd-order centered periodic finite-difference Laplacian."""
    out = np.zeros_like(values)
    for ax in range(domain.d):
        h = domain.spacings[ax]
        out += (np.roll(values, -1, axis=ax) - 2 * values + np.roll(values, 1, axis=ax)) / h**2
    return out


def dense_fd_laplacian(domain: TorusDomain) -> np.ndarray:
    """Dense matrix of the periodic FD Laplacian (small grids only)."""
    npts = domain.npoints
    A = np.zeros((npts, npts))
    eye = np.eye(npts)
    for j in range(npts):
        col = eye[:, j].reshape(domain.sizes)
        A[:, j] = fd_laplacian(domain, col).reshape(-1)
    return A


def dense_spectral_laplacian(domain: TorusDomain) -> np.ndarray:
    """Dense matrix of the Fourier-spectral Laplacian, built column by column
    with numpy's complex FFT (small grids only)."""
    k = [2 * np.pi * np.fft.fftfreq(N, d=L / N) for N, L in zip(domain.sizes, domain.lengths)]
    ksq = sum(np.meshgrid(*[kk**2 for kk in k], indexing="ij"))
    cols = [np.fft.ifftn(-ksq * np.fft.fftn(col.reshape(domain.sizes))).real.reshape(-1)
            for col in np.eye(domain.npoints)]
    return np.array(cols).T


def dense_newton(S: np.ndarray, alpha: float, n: int, domain: TorusDomain,
                 u0=None, tol=1e-10, max_iters=60):
    """Dense-Jacobian Newton on the FD discretization. Returns (converged, u)."""
    L = dense_fd_laplacian(domain)
    s = S.reshape(-1)
    u = np.zeros(domain.npoints) if u0 is None else u0.reshape(-1).copy()
    for _ in range(max_iters):
        arg = (2.0 / n) * u
        if np.max(arg) > 400:
            return False, u.reshape(domain.sizes)
        e = np.exp(arg)
        F = -L @ u + alpha - s * e
        if np.max(np.abs(F)) <= tol:
            return True, u.reshape(domain.sizes)
        J = -L - np.diag((2.0 / n) * s * e)
        try:
            d = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            return False, u.reshape(domain.sizes)
        t, base = 1.0, np.max(np.abs(F))
        ok = False
        while t >= 2.0**-30:
            ut = u + t * d
            if np.max((2.0 / n) * ut) > 400:
                t *= 0.5
                continue
            Ft = -L @ ut + alpha - s * np.exp((2.0 / n) * ut)
            if np.max(np.abs(Ft)) <= (1 - 1e-4 * t) * base:
                u = ut
                ok = True
                break
            t *= 0.5
        if not ok:
            return False, u.reshape(domain.sizes)
    return np.max(np.abs(-L @ u + alpha - s * np.exp((2.0 / n) * u))) <= tol, \
        u.reshape(domain.sizes)


def dense_alpha_star(S: np.ndarray, n: int, domain: TorusDomain,
                     tol=1e-3, start=-0.25) -> tuple[float, float]:
    """Oracle bisection of the solvability threshold on a coarse dense grid."""
    alpha = start
    ok, u = dense_newton(S, alpha, n, domain)
    assert ok, "oracle could not solve its starting alpha"
    hi, warm = alpha, u
    lo = None
    for _ in range(60):
        nxt = 1.5 * hi
        ok, u = dense_newton(S, nxt, n, domain, u0=warm)
        if ok:
            hi, warm = nxt, u
        else:
            lo = nxt
            break
    assert lo is not None
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        ok, u = dense_newton(S, mid, n, domain, u0=warm)
        if ok:
            hi, warm = mid, u
        else:
            lo = mid
    return lo, hi


def refine_domain(domain: TorusDomain) -> TorusDomain:
    return make_torus(domain.d, [2 * N for N in domain.sizes], domain.lengths)


def restrict(values: np.ndarray, factor: int = 2) -> np.ndarray:
    """Pointwise restriction of a fine-grid field to the coarse subgrid."""
    slicer = tuple(slice(None, None, factor) for _ in values.shape)
    return values[slicer]


def smooth_random_field(domain: TorusDomain, seed: int, modes: int = 3,
                        amplitude: float = 1.0) -> ScalarField:
    """Band-limited random trigonometric polynomial (analytic on any grid)."""
    rng = np.random.default_rng(seed)
    x = domain.coords()
    vals = np.zeros(domain.sizes)
    for _ in range(6):
        ks = rng.integers(-modes, modes + 1, size=domain.d)
        phase = rng.uniform(0, 2 * np.pi)
        amp = rng.normal()
        wave = np.zeros(domain.sizes)
        for i in range(domain.d):
            wave = wave + 2 * np.pi * ks[i] * x[i] / domain.lengths[i]
        vals += amp * np.cos(wave + phase)
    sup = np.max(np.abs(vals))
    if sup > 0:
        vals *= amplitude / sup
    return ScalarField(domain, vals)
