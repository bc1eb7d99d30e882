import re

import numpy as np
import pytest

from kwlab import ProblemInstance, ScalarField, integrate, make_torus
from kwlab import spectral
from kwlab.fields import random_fourier
from kwlab.errors import DomainError, EigenSolveError
from kwlab.problem import energy
from kwlab.spectral import (SchrodingerOperator, dirichlet_integral, get_plan, grad_norm_sq,
                            laplacian, min_eigenvalue)

from oracles import dense_fd_laplacian, fd_laplacian, smooth_random_field


def test_plan_eigenvalue_table(t2_32):
    plan = get_plan(t2_32)
    flat = plan.ksq.reshape(-1)
    assert flat[0] == 0.0
    assert np.all(flat[1:] > 0)


class TestGridTableLayout:
    """Each per-axis table — wavenumbers, derivative multipliers, coordinates
    and the random field's mode numbers — equals, bit for bit, its 1-D table
    reshaped by hand to lie along its own axis, on grids whose axes differ
    in size and length."""

    GRIDS = pytest.mark.parametrize("sizes, lengths", [
        ((16, 48), (0.3, 2.5)), ((8, 8, 10, 12), (1.0, 0.5, 2.5, 1.0)),
    ], ids=["16x48", "8x8x10x12"])

    @staticmethod
    def along_axes(tables):
        out = []
        for i, t in enumerate(tables):
            shape = [1] * len(tables)
            shape[i] = t.size
            out.append(t.reshape(shape))
        return out

    @staticmethod
    def assert_bitwise(a, b):
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()

    @staticmethod
    def wavenumbers(sizes, lengths):
        # fftfreq on full axes, rfftfreq on the last
        tables = [np.fft.fftfreq(N, d=L / N) for N, L in zip(sizes[:-1], lengths[:-1])]
        tables.append(np.fft.rfftfreq(sizes[-1], d=lengths[-1] / sizes[-1]))
        return [2.0 * np.pi * k for k in tables]

    @GRIDS
    def test_eigenvalue_table(self, sizes, lengths):
        plan = get_plan(make_torus(len(sizes), sizes, lengths))
        ref = sum(k**2 for k in self.along_axes(self.wavenumbers(sizes, lengths)))
        self.assert_bitwise(plan.ksq, ref)

    @GRIDS
    def test_derivative_multipliers_zero_the_nyquist_mode(self, sizes, lengths):
        plan = get_plan(make_torus(len(sizes), sizes, lengths))
        tables = self.wavenumbers(sizes, lengths)
        for i, (N, k) in enumerate(zip(sizes, tables)):
            k[N // 2 if i < len(sizes) - 1 else -1] = 0.0
        assert len(plan._kderiv) == len(sizes)
        for kd, ref in zip(plan._kderiv, self.along_axes(tables)):
            self.assert_bitwise(kd, ref)

    @GRIDS
    def test_coordinates(self, sizes, lengths):
        dom = make_torus(len(sizes), sizes, lengths)
        x = dom.coords()
        assert len(x) == len(sizes)
        refs = self.along_axes([np.arange(N) * (L / N) for N, L in zip(sizes, lengths)])
        for xi, ref in zip(x, refs):
            self.assert_bitwise(xi, ref)

    @GRIDS
    def test_random_field(self, sizes, lengths):
        dom = make_torus(len(sizes), sizes, lengths)
        plan = get_plan(dom)
        what = plan.fft(np.random.default_rng(3).standard_normal(sizes))
        modes = [np.fft.fftfreq(N, d=1.0 / N) for N in sizes[:-1]]
        modes.append(np.arange(sizes[-1] // 2 + 1, dtype=float))
        what = what * (1.0 + sum(m**2 for m in self.along_axes(modes))) ** -2.5
        what.reshape(-1)[0] = 0.0
        vals = plan.ifft(what)
        self.assert_bitwise(random_fourier(dom, seed=3, decay_p=2.5).values,
                            vals * (1.0 / np.max(np.abs(vals))))


class TestPlanTransforms:
    """The plan's transforms run numpy's pocketfft passes one axis at a
    time; their values are np.fft.rfftn's and irfftn's bit for bit, so a
    numpy whose private gufuncs change fails here."""

    GRIDS = pytest.mark.parametrize("sizes, lengths", [
        ((8, 12), (1.0, 2.5)), ((32, 32), (1.0, 1.0)),
        ((8, 10, 12, 8), (1.0,) * 4), ((16,) * 4, (1.0,) * 4),
    ], ids=["8x12", "32x32", "8x10x12x8", "16x16x16x16"])

    @staticmethod
    def arrays(sizes, lengths):
        plan = get_plan(make_torus(len(sizes), sizes, lengths))
        rng = np.random.default_rng(len(sizes) + sizes[0])
        values = rng.standard_normal(sizes)
        # off the Hermitian subspace, so that what the inverse drops is compared too
        spec = rng.standard_normal(plan.ksq.shape) + 1j * rng.standard_normal(plan.ksq.shape)
        return plan, values, spec

    @GRIDS
    def test_fft_is_rfftn_bitwise(self, sizes, lengths):
        plan, values, _ = self.arrays(sizes, lengths)
        assert np.array_equal(plan.fft(values), np.fft.rfftn(values))

    @GRIDS
    def test_ifft_is_irfftn_bitwise(self, sizes, lengths):
        plan, _, spec = self.arrays(sizes, lengths)
        assert np.array_equal(plan.ifft(spec),
                              np.fft.irfftn(spec, s=sizes, axes=range(len(sizes))))

    @GRIDS
    def test_transforms_leave_their_argument_alone(self, sizes, lengths):
        plan, values, spec = self.arrays(sizes, lengths)
        values0, spec0 = values.copy(), spec.copy()
        out_spec, out_values = plan.fft(values), plan.ifft(spec)
        assert np.array_equal(values, values0) and np.array_equal(spec, spec0)
        assert not np.shares_memory(out_spec, values)
        assert not np.shares_memory(out_values, spec)


def test_laplacian_constant_is_zero(t2_32):
    out = laplacian(ScalarField.constant(t2_32, 4.2))
    assert out.sup_norm < 1e-12


def test_laplacian_eigenfunction(t2_64):
    x = t2_64.coords()
    u = ScalarField(t2_64, np.broadcast_to(np.sin(2 * np.pi * x[0]), t2_64.sizes).copy())
    out = laplacian(u)
    assert np.max(np.abs(out.values + 4 * np.pi**2 * u.values)) < 1e-10


def test_laplacian_vs_finite_difference_oracle():
    dom = make_torus(2, [256, 256], [1.0, 1.0])
    u = smooth_random_field(dom, seed=3, modes=3)
    spectral_lap = laplacian(u).values
    fd = fd_laplacian(dom, u.values)
    # FD error bound: h²/12 · sup|∂⁴u| per axis; crude but safe with modes ≤ 3
    h = dom.spacings[0]
    bound = 2 * (h**2 / 12) * (2 * np.pi * 3) ** 4 * 6
    assert np.max(np.abs(spectral_lap - fd)) <= bound


def test_laplacian_preserves_mean_zero(t2_64):
    u = smooth_random_field(t2_64, seed=7)
    out = laplacian(u)
    assert abs(integrate(out)) <= 1e-10 * max(1.0, u.sup_norm)


class TestGradNormSq:
    def test_constant(self, t2_32):
        out = grad_norm_sq(ScalarField.constant(t2_32, 1.0))
        assert out.sup_norm < 1e-12

    def test_analytic(self, t2_64):
        x = t2_64.coords()
        u = ScalarField(t2_64, np.broadcast_to(np.sin(2 * np.pi * x[0]), t2_64.sizes).copy())
        expected = 4 * np.pi**2 * np.cos(2 * np.pi * np.broadcast_to(x[0], t2_64.sizes)) ** 2
        assert np.max(np.abs(grad_norm_sq(u).values - expected)) < 1e-10

    def test_parseval_identity(self, t2_64):
        u = smooth_random_field(t2_64, seed=9)
        lhs = integrate(grad_norm_sq(u))
        ulap = laplacian(u)
        rhs = -integrate(ScalarField(t2_64, u.values * ulap.values))
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestDirichletIntegral:
    """∫|∇u|² by Parseval from one forward transform equals the integral of
    the pointwise grad_norm_sq, Nyquist modes included: white noise has them."""

    @pytest.mark.parametrize("sizes, lengths", [
        ((32, 32), (1.0, 1.0)), ((16, 48), (2.0, 0.7)),
        ((16,) * 4, (1.0,) * 4), ((8, 8, 10, 12), (1.0, 0.5, 2.5, 1.3)),
    ], ids=["32x32", "16x48", "16x16x16x16", "8x8x10x12"])
    def test_equals_integral_of_grad_norm_sq(self, sizes, lengths):
        domain = make_torus(len(sizes), sizes, lengths)
        u = ScalarField(domain, np.random.default_rng(sizes[-1]).standard_normal(sizes))
        expected = integrate(grad_norm_sq(u))
        assert dirichlet_integral(u) == pytest.approx(expected, rel=1e-13, abs=0)

    def test_energy_runs_one_transform(self, t2_32, monkeypatch):
        S = ScalarField(t2_32, smooth_random_field(t2_32, seed=53).values - 2.0)
        inst = ProblemInstance(S, -1.0)
        u = smooth_random_field(t2_32, seed=59, amplitude=0.3)
        calls = count_ffts(monkeypatch)
        energy(inst, u)
        assert calls == ["fft"]


class TestHelmholtz:
    # (−Δ + c)⁻¹ is the operator's solve_diagonal with W = c
    def test_constant_rhs(self, t2_32):
        u = SchrodingerOperator(get_plan(t2_32), 3.0, 3.0).solve_diagonal(
            ScalarField.constant(t2_32, 3.0).values)
        assert np.max(np.abs(u - 1.0)) < 1e-12

    def test_single_mode(self, t2_64):
        x = t2_64.coords()
        s = np.broadcast_to(np.sin(2 * np.pi * x[0]), t2_64.sizes)
        u = SchrodingerOperator(get_plan(t2_64), 2.0, 2.0).solve_diagonal(
            (4 * np.pi**2 + 2.0) * s)
        assert np.max(np.abs(u - s)) < 1e-12

    def test_roundtrip_identity(self, t2_64):
        rhs = smooth_random_field(t2_64, seed=13)
        u = ScalarField(t2_64, SchrodingerOperator(get_plan(t2_64), 1.7, 1.7).solve_diagonal(
            rhs.values))
        back = ScalarField(t2_64, -laplacian(u).values + 1.7 * u.values)
        assert np.max(np.abs(back.values - rhs.values)) <= 1e-12 * max(1.0, rhs.sup_norm)

    def test_recovers_band_limited_field(self, t2_64):
        u = smooth_random_field(t2_64, seed=17)
        rhs = ScalarField(t2_64, -laplacian(u).values + 4.0 * u.values)
        rec = SchrodingerOperator(get_plan(t2_64), 4.0, 4.0).solve_diagonal(rhs.values)
        assert np.max(np.abs(rec - u.values)) <= 1e-11 * max(1.0, u.sup_norm)

    def test_rejects_nonpositive_c(self, t2_32):
        with pytest.raises(DomainError):
            SchrodingerOperator(get_plan(t2_32), 0.0, 0.0)


def count_ffts(monkeypatch):
    """Wrap SpectralPlan.fft and ifft; returns the list of their calls by name."""
    calls = []

    def counted(name):
        original = getattr(spectral.SpectralPlan, name)

        def wrapper(plan, values):
            calls.append(name)
            return original(plan, values)
        return wrapper

    for name in ("fft", "ifft"):
        monkeypatch.setattr(spectral.SpectralPlan, name, counted(name))
    return calls


class TestPreconditionedApply:
    @staticmethod
    def operator(domain, seed):
        rng = np.random.default_rng(seed)
        W = rng.uniform(-3.0, 1.0, domain.sizes)
        return spectral.SchrodingerOperator(get_plan(domain), W, float(np.mean(np.abs(W)))), rng

    @pytest.mark.parametrize("grid", ["t2_32", "t4_16"])
    def test_equals_diagonal_solve_of_apply(self, grid, request):
        domain = request.getfixturevalue(grid)
        op, rng = self.operator(domain, seed=41)
        x = rng.standard_normal(domain.npoints)
        expected = op.solve_diagonal(op.apply(x))
        assert np.max(np.abs(op.apply_preconditioned(x) - expected)) <= 1e-12 * max(
            1.0, float(np.max(np.abs(expected))))

    @pytest.mark.parametrize("grid", ["t2_32", "t4_16"])
    def test_one_fft_pair_per_call(self, grid, request, monkeypatch):
        domain = request.getfixturevalue(grid)
        op, rng = self.operator(domain, seed=43)
        calls = count_ffts(monkeypatch)
        op.apply_preconditioned(rng.standard_normal(domain.npoints))
        assert calls == ["fft", "ifft"]


class TestMinEigenvalue:
    def test_constant_potential(self, t2_32):
        lam, _ = min_eigenvalue(ScalarField.constant(t2_32, 2.5), 1e-9)
        assert lam == pytest.approx(2.5, abs=1e-8)

    def test_zero_potential(self, t2_32):
        lam, _ = min_eigenvalue(ScalarField.constant(t2_32, 0.0), 1e-9)
        assert lam == pytest.approx(0.0, abs=1e-8)

    def test_dense_oracle(self, t2_16):
        # −Δ + 10·cos(2πx₁): compare with a dense eigensolve of the FD
        # operator; FD discretization error on 16² dominates the gap,
        # so the check is run on the *same* dense operator via its own
        # spectral counterpart built densely.
        x = t2_16.coords()
        V = ScalarField(t2_16, 10 * np.cos(2 * np.pi * np.broadcast_to(x[0], t2_16.sizes)))
        n = t2_16.npoints
        dense = np.zeros((n, n))
        eye = np.eye(n)
        for j in range(n):
            col = ScalarField(t2_16, eye[:, j].reshape(t2_16.sizes))
            dense[:, j] = (-spectral.laplacian(col).values
                           + V.values * col.values).reshape(-1)
        expected = float(np.min(np.linalg.eigvalsh(0.5 * (dense + dense.T))))
        lam, _ = min_eigenvalue(V, 1e-8)
        assert lam == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize("n, amplitude", [(8, 5.0), (16, 5.0), (16, 200.0)],
                             ids=["8", "16", "16-amplitude200"])
    def test_matches_dense_eigh(self, n, amplitude):
        # the same spectral −Δ + V as a dense matrix, one column per unit vector;
        # at amplitude 200 the solve runs 35 iterations on the A-images the
        # recurrence carries, and only the final eigenresidual is applied afresh
        domain = make_torus(2, [n, n], [1.0, 1.0])
        V = smooth_random_field(domain, seed=29, amplitude=amplitude)
        eye = np.eye(domain.npoints)
        dense = np.column_stack([
            -laplacian(ScalarField(domain, e.reshape(domain.sizes))).values.reshape(-1)
            for e in eye]) + np.diag(V.values.reshape(-1))
        expected = float(np.linalg.eigh(0.5 * (dense + dense.T))[0][0])
        assert min_eigenvalue(V, 1e-9)[0] == pytest.approx(expected, abs=1e-9)

    def test_dense_fd_oracle_close(self, t2_16):
        # sanity against the independent FD oracle (discretizations differ,
        # so only coarse agreement is expected)
        x = t2_16.coords()
        V = ScalarField(t2_16, 10 * np.cos(2 * np.pi * np.broadcast_to(x[0], t2_16.sizes)))
        A = -dense_fd_laplacian(t2_16) + np.diag(V.values.reshape(-1))
        expected = float(np.min(np.linalg.eigvalsh(A)))
        lam, _ = min_eigenvalue(V, 1e-8)
        assert lam == pytest.approx(expected, abs=0.05)

    def test_constant_shift_property(self, t2_32):
        V = smooth_random_field(t2_32, seed=21, amplitude=3.0)
        lam, _ = min_eigenvalue(V, 1e-8)
        shifted, _ = min_eigenvalue(ScalarField(t2_32, V.values + 1.25), 1e-8)
        assert shifted == pytest.approx(lam + 1.25, abs=2e-8)

    def test_nonconvergence_carries_estimate(self, t2_32):
        V = smooth_random_field(t2_32, seed=23, amplitude=5.0)
        with pytest.raises(EigenSolveError) as exc:
            min_eigenvalue(V, 1e-8, max_iters=1)
        assert np.isfinite(exc.value.best_estimate)

    @pytest.mark.parametrize("tol", [0.0, -1e-8, np.nan], ids=["zero", "negative", "nan"])
    def test_rejects_a_tol_that_is_not_positive(self, t2_16, tol):
        with pytest.raises(DomainError, match="tol must be positive"):
            min_eigenvalue(ScalarField.constant(t2_16, 1.0), tol)

    def test_unshiftable_potential_raises_before_any_fft(self, t2_16, monkeypatch):
        # at V ≡ 1e17 the shift σ = min V − 1 rounds to min V, so V − σ is 0:
        # a numerical outcome, not a rejected Helmholtz constant
        calls = count_ffts(monkeypatch)
        with pytest.raises(EigenSolveError, match="too large to shift") as exc:
            min_eigenvalue(ScalarField.constant(t2_16, 1e17), 1e-8)
        assert exc.value.best_estimate == 1e17
        assert calls == []

    @pytest.mark.parametrize("tol, max_iters, ran", [
        (1e-8, 3, 3),        # stopped by the iteration cap
        (1e-13, None, None),  # below the round-off floor: stops long before the cap
    ])
    def test_nonconvergence_reports_iterations_run(self, t2_32, tol, max_iters, ran):
        V = smooth_random_field(t2_32, seed=23, amplitude=5.0)
        with pytest.raises(EigenSolveError) as exc:
            min_eigenvalue(V, tol, max_iters=max_iters)
        m = re.search(r"stopped after (\d+) of at most (\d+) iterations", str(exc.value))
        assert m, str(exc.value)
        k, cap = int(m.group(1)), int(m.group(2))
        assert cap == (max_iters or 10 * 32)
        if ran is not None:
            assert k == ran
        else:
            assert 0 < k < cap // 10


class TestMinEigenvalueCost:
    """A solve costs iterations + 2 FFT pairs: one for the start's A·x, one
    per iteration for the preconditioned residual M·r, whose image A·M·r =
    r + (W − c)·M·r needs none, and one for the final eigenresidual."""

    @pytest.mark.parametrize("max_iters", [1, 2, 3])
    def test_pairs_of_a_capped_solve(self, t2_32, monkeypatch, max_iters):
        V = smooth_random_field(t2_32, seed=23, amplitude=5.0)
        calls = count_ffts(monkeypatch)
        with pytest.raises(EigenSolveError, match=f"stopped after {max_iters} of"):
            min_eigenvalue(V, 1e-8, max_iters=max_iters)
        assert calls == ["fft", "ifft"] * (max_iters + 2)

    @pytest.mark.parametrize("grid", ["t2_32", "t4_16"])
    def test_pairs_of_a_converged_solve(self, grid, request, monkeypatch):
        domain = request.getfixturevalue(grid)
        V = smooth_random_field(domain, seed=61, amplitude=3.0)
        calls = count_ffts(monkeypatch)
        iters = []    # one preconditioner solve per iteration
        solve = spectral.SchrodingerOperator.solve_diagonal

        def counted(op, x):
            iters.append(1)
            return solve(op, x)
        monkeypatch.setattr(spectral.SchrodingerOperator, "solve_diagonal", counted)
        min_eigenvalue(V, 1e-8)
        assert len(iters) > 2
        assert calls == ["fft", "ifft"] * (len(iters) + 2)


class TestMinEigenvalueStart:
    """A solve started from a nearby potential's Ritz vector returns the
    cold solve's eigenvalue in fewer iterations; each costs iterations + 2
    FFT pairs."""

    def test_exact_start_runs_no_iteration(self, t2_32, monkeypatch):
        V = ScalarField.constant(t2_32, 2.5)
        cold, _ = min_eigenvalue(V, 1e-9)
        calls = count_ffts(monkeypatch)
        lam, x = min_eigenvalue(V, 1e-9, start=np.ones(t2_32.npoints))
        assert calls == ["fft", "ifft"] * 2
        assert lam == pytest.approx(cold, abs=1e-9)
        assert np.allclose(x, 1.0 / np.sqrt(t2_32.npoints), rtol=0, atol=1e-12)

    def test_nearby_start_agrees_in_fewer_ffts(self, t2_32, monkeypatch):
        V = smooth_random_field(t2_32, seed=21, amplitude=3.0)
        near = ScalarField(t2_32, V.values + 0.05 * smooth_random_field(t2_32, seed=22).values)
        _, x = min_eigenvalue(V, 1e-8)
        calls = count_ffts(monkeypatch)
        cold, _ = min_eigenvalue(near, 1e-8)
        cold_pairs = len(calls) // 2
        calls.clear()
        warm, _ = min_eigenvalue(near, 1e-8, start=x)
        assert warm == pytest.approx(cold, abs=1e-9)
        assert len(calls) // 2 < cold_pairs

    @pytest.mark.parametrize("bad", ["length", "nonfinite", "zero"])
    def test_bad_start_raises_before_any_fft(self, t2_32, monkeypatch, bad):
        start = {"length": np.ones(t2_32.npoints - 1),
                 "nonfinite": np.where(np.arange(t2_32.npoints) == 7, np.nan, 1.0),
                 "zero": np.zeros(t2_32.npoints)}[bad]
        calls = count_ffts(monkeypatch)
        with pytest.raises(DomainError, match="start vector"):
            min_eigenvalue(ScalarField.constant(t2_32, 1.0), 1e-8, start=start)
        assert calls == []
