import numpy as np
import pytest

from kwlab import ProblemInstance, ScalarField, integrate, make_torus
from kwlab import spectral
from kwlab.errors import BlowUpError, DomainError
from kwlab.problem import (
    energy,
    conformal_factor,
    integral_identity_defect,
    linearization,
    residual,
    stability_eigenvalue,
)
from kwlab.solvers import newton_solve

from oracles import smooth_random_field


def make_manufactured(domain, alpha, seed=31, amplitude=0.4):
    """S chosen so that a prescribed smooth u* solves the equation exactly."""
    n = domain.d // 2
    u_star = smooth_random_field(domain, seed=seed, amplitude=amplitude)
    lap = spectral.laplacian(u_star)
    S = ScalarField(domain, (-lap.values + alpha) * np.exp(-(2.0 / n) * u_star.values))
    return ProblemInstance(S, alpha), u_star


def test_instance_validation(t2_32):
    with pytest.raises(DomainError):
        ProblemInstance(ScalarField.constant(t2_32, -1.0), 0.5)


@pytest.mark.parametrize("read", [
    residual,
    energy,
    linearization,
    integral_identity_defect,
    stability_eigenvalue,
    lambda inst, u: newton_solve(inst, u),
], ids=["residual", "energy", "linearization", "integral_identity_defect",
        "stability_eigenvalue", "newton_solve"])
def test_solution_on_another_grid_is_rejected(t2_32, read):
    # the same 32² sampling of a torus of side 2, not side 1
    side2 = make_torus(2, [32, 32], [2.0, 2.0])
    inst = ProblemInstance(ScalarField.constant(t2_32, -1.0), -1.0)
    with pytest.raises(DomainError):
        read(inst, ScalarField.constant(side2, 0.0))


class TestResidual:
    def test_constant_solution_n1(self, t2_32):
        inst = ProblemInstance(ScalarField.constant(t2_32, -2.0), -2.0)
        r = residual(inst, ScalarField.constant(t2_32, 0.0))
        assert r.sup_norm < 1e-14

    def test_constant_solution_n2(self, t4_16):
        inst = ProblemInstance(ScalarField.constant(t4_16, -1.0), -np.e)
        r = residual(inst, ScalarField.constant(t4_16, 1.0))
        assert r.sup_norm < 1e-14

    def test_manufactured(self, t2_64):
        inst, u_star = make_manufactured(t2_64, alpha=-1.0)
        assert residual(inst, u_star).sup_norm <= 1e-10

    def test_overflow_guard_names_max_u(self, t2_32):
        inst = ProblemInstance(ScalarField.constant(t2_32, -1.0), -1.0)
        with pytest.raises(BlowUpError) as exc:
            residual(inst, ScalarField.constant(t2_32, 500.0))
        assert exc.value.max_u == 500.0


class TestEnergy:
    def test_u_zero(self, t2_32, ):
        S = ScalarField.constant(t2_32, -2.0)
        inst = ProblemInstance(S, -1.0)
        e = energy(inst, ScalarField.constant(t2_32, 0.0))
        assert e == pytest.approx(-1 * integrate(S), rel=1e-14)

    def test_constant_closed_form(self, t2_32):
        S = ScalarField.constant(t2_32, -2.0)
        alpha, n, c = -1.5, 1, 0.3
        inst = ProblemInstance(S, alpha)
        e = energy(inst, ScalarField.constant(t2_32, c))
        expected = 2 * alpha * c * t2_32.volume - n * np.exp(2 * c / n) * integrate(S)
        assert e == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("t", [1e-3, 1e-4])
    def test_gradient_matches_finite_differences(self, t2_32, t):
        inst, _ = make_manufactured(t2_32, alpha=-1.0)
        u = smooth_random_field(t2_32, seed=43, amplitude=0.3)
        phi = smooth_random_field(t2_32, seed=44, amplitude=1.0)
        g = 2 * residual(inst, u).values   # the L² gradient of the energy
        pairing = integrate(ScalarField(t2_32, g * phi.values))
        up = ScalarField(t2_32, u.values + t * phi.values)
        um = ScalarField(t2_32, u.values - t * phi.values)
        fd = (energy(inst, up) - energy(inst, um)) / (2 * t)
        assert fd == pytest.approx(pairing, rel=50 * t**2 + 1e-9)


class TestGradientAndHessian:
    def test_gradient_zero_at_constant_solution(self, t2_32):
        inst = ProblemInstance(ScalarField.constant(t2_32, -2.0), -2.0)
        g = 2 * residual(inst, ScalarField.constant(t2_32, 0.0)).values
        assert np.max(np.abs(g)) < 1e-14

    def test_gradient_closed_form_at_zero(self, t2_32, sin_minus_half):
        dom = sin_minus_half.domain
        inst = ProblemInstance(sin_minus_half, -1.0)
        g = 2 * residual(inst, ScalarField.constant(dom, 0.0)).values
        expected = 2 * (-1.0 - sin_minus_half.values)
        assert np.max(np.abs(g - expected)) <= 1e-13

    def test_hessian_constants(self, t2_32):
        # n=1, S≡−1, α=−2, constant solution e^{2u} = α/S = 2: on constants
        # H φ = −(4/n)·S·e^{2u/n}·φ = 8·φ
        inst = ProblemInstance(ScalarField.constant(t2_32, -1.0), -2.0)
        u = ScalarField.constant(t2_32, 0.5 * np.log(2.0))
        out = 2 * linearization(inst, u).apply(ScalarField.constant(t2_32, 1.0).values)
        assert np.max(np.abs(out - 8.0)) < 1e-12

    def test_hessian_symmetry(self, t2_32):
        inst, _ = make_manufactured(t2_32, alpha=-1.0)
        u = smooth_random_field(t2_32, seed=51, amplitude=0.3)
        phi = smooth_random_field(t2_32, seed=52)
        psi = smooth_random_field(t2_32, seed=53)
        Hphi = 2 * linearization(inst, u).apply(phi.values)
        Hpsi = 2 * linearization(inst, u).apply(psi.values)
        a = integrate(ScalarField(t2_32, Hphi * psi.values))
        b = integrate(ScalarField(t2_32, phi.values * Hpsi))
        assert a == pytest.approx(b, rel=1e-10)

    @pytest.mark.parametrize("t", [1e-3, 1e-4])
    def test_hessian_matches_gradient_differences(self, t2_32, t):
        inst, _ = make_manufactured(t2_32, alpha=-1.0)
        u = smooth_random_field(t2_32, seed=54, amplitude=0.3)
        phi = smooth_random_field(t2_32, seed=55)
        H = 2 * linearization(inst, u).apply(phi.values)
        gp = 2 * residual(inst, ScalarField(t2_32, u.values + t * phi.values)).values
        gm = 2 * residual(inst, ScalarField(t2_32, u.values - t * phi.values)).values
        fd = (gp - gm) / (2 * t)
        scale = max(1.0, np.max(np.abs(H)))
        assert np.max(np.abs(fd - H)) <= scale * (50 * t**2 + 1e-9)


def exp_mass(inst, u):
    """∫S e^{2u/n}, negative for every solution u."""
    return integrate(ScalarField(inst.domain, inst.S.values * conformal_factor(inst, u)))


class TestIntegralIdentity:
    def test_constant_solution_exact(self, t2_32):
        inst = ProblemInstance(ScalarField.constant(t2_32, -2.0), -2.0)
        u = ScalarField.constant(t2_32, 0.0)
        assert integral_identity_defect(inst, u) == 0.0
        assert exp_mass(inst, u) < 0

    def test_manufactured_small_defect(self, t2_64):
        inst, u_star = make_manufactured(t2_64, alpha=-1.0)
        assert integral_identity_defect(inst, u_star) <= 1e-9
        assert exp_mass(inst, u_star) < 0


def test_energy_decreases_along_negative_gradient(t2_32):
    inst, _ = make_manufactured(t2_32, alpha=-1.0)
    u = smooth_random_field(t2_32, seed=61, amplitude=0.4)
    g = 2 * residual(inst, u).values
    assert np.max(np.abs(g)) > 0
    t = 1e-4 / np.max(np.abs(g))
    stepped = ScalarField(t2_32, u.values - t * g)
    assert energy(inst, stepped) < energy(inst, u)
