import numpy as np
import pytest

from kwlab import ProblemInstance, ScalarField, make_torus, problem, solvers, threshold
from kwlab.errors import SolverError
from kwlab.fields import named_field
from kwlab.problem import energy, residual, stability_potential
from kwlab.solvers import (
    BranchPoint,
    SolveReport,
    arclength_correct,
    newton_solve,
)

from oracles import dense_newton, smooth_random_field
from subsuper import (
    OrderInterval,
    build_sub_solution,
    build_super_solution,
    make_interval,
    minimize_over_interval,
    monotone_iterate,
)
from test_problem import make_manufactured
from kwlab import spectral


def constant_instance(domain, S0=-1.0, alpha=-2.0):
    return ProblemInstance(ScalarField.constant(domain, S0), alpha)


def make_manufactured_neg(domain, seed=31, amplitude=0.3):
    """Manufactured instance with S < 0 everywhere (unique solution).

    α is pushed below min Δu* so that S = (−Δu* + α)·e^{−2u*/n} stays
    strictly negative; with S < 0 the solution is unique and every engine
    must land on u*.
    """
    n = domain.d // 2
    u_star = smooth_random_field(domain, seed=seed, amplitude=amplitude)
    lap = spectral.laplacian(u_star)
    alpha = float(np.min(lap.values)) - 10.0
    S = ScalarField(domain, (-lap.values + alpha) * np.exp(-(2.0 / n) * u_star.values))
    assert S.max < 0
    return ProblemInstance(S, alpha), u_star


def warm_report(inst_tilde):
    """Converged report at a more negative alpha, for super-solution building."""
    rep = newton_solve(inst_tilde, problem.constant_solution(inst_tilde))
    assert rep.converged
    return rep


def count_conformal_factors(monkeypatch):
    """Wrap problem.conformal_factor; returns the list of the α of each call."""
    calls, original = [], problem.conformal_factor

    def counted(inst, u):
        calls.append(inst.alpha)
        return original(inst, u)

    monkeypatch.setattr(problem, "conformal_factor", counted)
    return calls


def record_gmres_tolerances(monkeypatch):
    """Wrap solvers._gmres; returns the list of the rtol of each call."""
    rtols, original = [], solvers._gmres

    def recorded(apply, b, rtol):
        rtols.append(rtol)
        return original(apply, b, rtol)

    monkeypatch.setattr(solvers, "_gmres", recorded)
    return rtols


class TestSubSolution:
    def test_worked_constant(self, t2_32):
        # n=1, S ≡ −2, α = −2: u₋ = ½·ln(1) − 1 = −1
        inst = constant_instance(t2_32, S0=-2.0, alpha=-2.0)
        u_minus = build_sub_solution(inst)
        assert np.max(np.abs(u_minus.values + 1.0)) < 1e-14
        assert float(np.max(residual(inst, u_minus).values)) < 0

    def test_sign_changing(self, t2_64, sin_minus_half):
        inst = ProblemInstance(sin_minus_half, -1.0)
        u_minus = build_sub_solution(inst)
        assert float(np.max(residual(inst, u_minus).values)) < 0

    def test_rejects_nonnegative_S(self, t2_32):
        inst = ProblemInstance(ScalarField.constant(t2_32, 1.0), -1.0)
        with pytest.raises(SolverError):
            build_sub_solution(inst)


class TestSuperSolution:
    def test_residual_gap_is_alpha_difference(self, t2_32):
        warm = warm_report(constant_instance(t2_32, alpha=-3.0))
        inst = constant_instance(t2_32, alpha=-2.0)
        u_plus = build_super_solution(inst, warm)
        r = residual(inst, u_plus)
        gap = inst.alpha - warm.alpha
        assert np.max(np.abs(r.values - gap)) <= 1e-12

    def test_rejects_warm_at_same_alpha(self, t2_32):
        inst = constant_instance(t2_32, alpha=-2.0)
        warm = warm_report(inst)
        with pytest.raises(SolverError):
            build_super_solution(inst, warm)

    def test_rejects_unconverged_warm(self, t2_32):
        inst = constant_instance(t2_32, alpha=-2.0)
        fake = SolveReport(
            solution=ScalarField.constant(t2_32, 0.0),
            iterations=0, residual_history=[1.0], method="newton",
            inst=constant_instance(t2_32, alpha=-3.0), failure_reason="max_iters",
        )
        with pytest.raises(SolverError):
            build_super_solution(inst, fake)


class TestInterval:
    def test_make_and_validate(self, t2_64, sin_minus_half):
        warm = warm_report(ProblemInstance(sin_minus_half, -2.0))
        inst = ProblemInstance(sin_minus_half, -1.0)
        iv = make_interval(inst, warm)
        iv.validate(inst)
        assert np.all(iv.lower.values <= iv.upper.values)

    def test_inverted_interval_rejected(self, t2_32):
        inst = constant_instance(t2_32)
        iv = OrderInterval(
            lower=ScalarField.constant(t2_32, 1.0),
            upper=ScalarField.constant(t2_32, -1.0),
        )
        with pytest.raises(SolverError):
            iv.validate(inst)

    def test_bad_endpoints_rejected(self, t2_32):
        inst = constant_instance(t2_32)
        # both endpoints equal and not solutions: lower fails the sub check
        iv = OrderInterval(
            lower=ScalarField.constant(t2_32, 5.0),
            upper=ScalarField.constant(t2_32, 5.0),
        )
        with pytest.raises(SolverError):
            iv.validate(inst)


class TestNewton:
    def test_zero_iterations_at_exact_solution(self, t2_32):
        inst = constant_instance(t2_32, S0=-2.0, alpha=-2.0)
        rep = newton_solve(inst, ScalarField.constant(t2_32, 0.0))
        assert rep.converged and rep.iterations == 0

    def test_constant_instance(self, t2_32):
        # u* = (n/2)·ln(α/S) for constant data
        inst = constant_instance(t2_32, S0=-1.0, alpha=-2.0)
        rep = newton_solve(inst, ScalarField.constant(inst.domain, 0.0))
        assert rep.converged
        assert np.max(np.abs(rep.solution.values - 0.5 * np.log(2.0))) < 1e-10

    def test_manufactured_solution(self, t2_64):
        inst, u_star = make_manufactured_neg(t2_64)
        rep = newton_solve(inst, ScalarField.constant(inst.domain, 0.0))
        assert rep.converged
        assert np.max(np.abs(rep.solution.values - u_star.values)) <= 1e-8

    def test_matches_dense_oracle(self, t2_16):
        # FD and spectral discretizations differ, so agreement is coarse;
        # S < 0 keeps the continuum solution unique.
        inst, _ = make_manufactured_neg(t2_16, seed=71, amplitude=0.1)
        rep = newton_solve(inst, ScalarField.constant(inst.domain, 0.0))
        assert rep.converged
        ok, u_dense = dense_newton(inst.S.values, inst.alpha, inst.n, t2_16, tol=1e-10)
        assert ok
        assert np.max(np.abs(rep.solution.values - u_dense)) <= 1e-2

    def test_n2_constant(self, t4_16):
        inst = ProblemInstance(ScalarField.constant(t4_16, -1.0), -np.e)
        rep = newton_solve(inst, ScalarField.constant(inst.domain, 0.0))
        assert rep.converged
        assert np.max(np.abs(rep.solution.values - 1.0)) < 1e-9

    def test_superlinear_tail(self, t2_32, monkeypatch):
        inst, _ = make_manufactured(t2_32, alpha=-1.0)
        monkeypatch.setattr(solvers, "RESIDUAL_TOL", 1e-12)
        rep = newton_solve(inst, ScalarField.constant(inst.domain, 0.0))
        assert rep.converged
        h = rep.residual_history
        # the last full step at least squares the residual scale
        assert h[-1] <= max(1e-12, 10 * h[-2] ** 2) or h[-1] <= 1e-13

    @pytest.mark.parametrize("field", ["manufactured", "sin1"])
    def test_last_residual_is_a_fresh_one(self, t2_32, field):
        # the reported residual of a converged solve is the residual of the
        # solution itself, evaluated afresh with its own Laplacian
        inst = (make_manufactured(t2_32, alpha=-1.0)[0] if field == "manufactured"
                else ProblemInstance(named_field(t2_32, "sin1", offset=-0.5), -2.0))
        rep = newton_solve(inst, problem.constant_solution(inst))
        assert rep.converged and rep.iterations > 0
        assert rep.residual_history[-1] == residual(inst, rep.solution).sup_norm

    def test_plateau_stops_a_warm_start_past_the_fold(self, t2_32, monkeypatch):
        # α = −3.2 lies past the fold at α★ ≈ −3.178: Newton warm from −3.17
        # settles on a residual plateau; without the plateau rule it crawls
        # along it until the line search fails
        S = named_field(t2_32, "sin1", offset=-0.5)
        warm = newton_solve(ProblemInstance(S, -3.17), ScalarField.constant(S.domain, 0.0))
        assert warm.converged
        inst = ProblemInstance(S, -3.2)
        rep = newton_solve(inst, warm.solution)
        h = rep.residual_history
        assert rep.failure_reason == "stagnation" and rep.iterations == len(h) - 1
        assert h[-1] > solvers.PLATEAU_RATIO * h[-1 - solvers.PLATEAU_STEPS]
        monkeypatch.setattr(solvers, "PLATEAU_STEPS", 10**6)  # the rule never fires
        crawl = newton_solve(inst, warm.solution)
        assert not crawl.converged
        assert crawl.residual_history[:len(h)] == h
        assert 2 * rep.iterations <= crawl.iterations

    def test_plateau_rule_keeps_a_slow_steady_descent(self, t2_32, monkeypatch):
        # near the fold the zero start cuts ‖F‖_∞ by only 8–15% a step at
        # first; it converges exactly as it does without the plateau rule
        inst = ProblemInstance(named_field(t2_32, "sin1", offset=-0.5), -3.1)
        rep = newton_solve(inst, ScalarField.constant(inst.domain, 0.0))
        h = rep.residual_history
        assert rep.converged and rep.iterations == 9
        assert 0.8 <= h[1] / h[0] < 0.95 and 0.8 <= h[2] / h[1] < 0.95
        monkeypatch.setattr(solvers, "PLATEAU_STEPS", 10**6)  # the rule never fires
        ref = newton_solve(inst, ScalarField.constant(inst.domain, 0.0))
        assert ref.converged and ref.iterations == rep.iterations
        assert ref.residual_history == h
        assert np.array_equal(ref.solution.values, rep.solution.values)

    def test_a_loose_step_that_fails_is_solved_again_tightly(self, t2_32, monkeypatch):
        # the setup above, near the fold: the first step's direction, solved
        # only to FORCING, fails the line search at every damping; solved
        # again at TIGHT_RTOL, as every later step is, it converges
        inst = ProblemInstance(named_field(t2_32, "sin1", offset=-0.5), -3.1)
        zero = ScalarField.constant(inst.domain, 0.0)
        rtols = record_gmres_tolerances(monkeypatch)
        rep = newton_solve(inst, zero)
        assert rep.converged
        assert rtols == [solvers.FORCING] + [solvers.TIGHT_RTOL] * rep.iterations

        # the tight solve made to return the loose direction again: no step
        # of that direction is accepted, so the solve fails where it began
        gmres, loose = solvers._gmres, []

        def replayed(apply, b, rtol):
            if rtol != solvers.TIGHT_RTOL:
                loose.append(gmres(apply, b, rtol))
            return loose[-1]

        monkeypatch.setattr(solvers, "_gmres", replayed)
        rep = newton_solve(inst, zero)
        assert rep.failure_reason == "line_search_failure" and rep.iterations == 1
        assert len(loose) == 1 and len(rep.residual_history) == 1

    def test_forcing_follows_the_residual(self, t2_32, monkeypatch):
        # away from the fold every step's GMRES stops at min(FORCING, ‖F‖_∞)
        inst = ProblemInstance(named_field(t2_32, "sin1", offset=-0.5), -1.0)
        rtols = record_gmres_tolerances(monkeypatch)
        rep = newton_solve(inst, problem.constant_solution(inst))
        assert rep.converged and rep.iterations >= 3
        h = rep.residual_history
        assert rtols == [min(solvers.FORCING, r) for r in h[:-1]]
        assert rtols[0] == solvers.FORCING and rtols[-1] == h[-2] < solvers.FORCING

    def test_unsolvable_never_false_converges(self, t2_64, sin_minus_half):
        # far below the solvable range: must report failure, not a bogus root
        inst = ProblemInstance(sin_minus_half, -50.0)
        rep = newton_solve(inst, problem.constant_solution(inst))
        assert not rep.converged
        assert rep.failure_reason is not None

    def test_one_conformal_factor_per_iteration(self, t2_32, monkeypatch):
        # e^{2u/n} of an iterate serves its residual and its Jacobian: one
        # at the start, one at the accepted full step
        inst = ProblemInstance(named_field(t2_32, "sin1", offset=-0.5), -1.0)
        calls = count_conformal_factors(monkeypatch)
        rep = newton_solve(inst, problem.constant_solution(inst), max_iters=1)
        assert rep.failure_reason == "max_iters" and rep.iterations == 1
        assert calls == [-1.0, -1.0]

    def test_only_a_converged_solve_computes_its_energy(self, t2_32, monkeypatch):
        calls = []

        def counted(inst, u, e=None):
            calls.append(inst.alpha)
            return energy(inst, u, e)

        monkeypatch.setattr(problem, "energy", counted)
        S = named_field(t2_32, "sin1", offset=-0.5)
        far, near = ProblemInstance(S, -50.0), ProblemInstance(S, -1.0)
        failed = newton_solve(far, problem.constant_solution(far))
        assert not failed.converged and failed.energy is None
        assert calls == []
        solved = newton_solve(near, problem.constant_solution(near))
        assert solved.converged and calls == [-1.0]
        assert solved.energy == energy(solved.inst, solved.solution)

    def test_a_converged_solve_reuses_its_last_conformal_factor(self, t2_32, monkeypatch):
        # every line search here takes its full step, so each accepted
        # iterate evaluates e^{2u/n} once; the energy reads the last of them
        inst = ProblemInstance(named_field(t2_32, "sin1", offset=-0.5), -1.0)
        calls = count_conformal_factors(monkeypatch)
        rep = newton_solve(inst, problem.constant_solution(inst))
        assert rep.converged and rep.iterations == len(rep.residual_history) - 1
        assert len(calls) == len(rep.residual_history)
        assert rep.energy == energy(inst, rep.solution)

    def test_start_past_the_overflow_cap_is_a_blow_up(self, t2_16):
        # 2u/n = 600 exceeds problem.EXP_ARG_CAP before the first residual
        rep = newton_solve(constant_instance(t2_16), ScalarField.constant(t2_16, 300.0))
        assert not rep.converged and rep.failure_reason.startswith("blow_up: ")
        assert rep.iterations == 0 and rep.residual_history == []

    @pytest.mark.parametrize("budget", [{"max_iters": 0}], ids=["max_iters"])
    def test_rejects_an_empty_budget(self, t2_16, budget):
        with pytest.raises(SolverError):
            newton_solve(constant_instance(t2_16), ScalarField.constant(t2_16, 0.0), **budget)

    @pytest.mark.parametrize("mean_S", [0.0, 1.0])
    def test_constant_start_needs_negative_mean_S(self, t2_16, mean_S):
        # mean S ≥ 0 has no constant solution of the averaged equation to start from
        S = named_field(t2_16, "sin1", offset=mean_S)
        with pytest.raises(SolverError, match="mean S < 0"):
            problem.constant_solution(ProblemInstance(S, -1.0))


class TestGmres:
    """solvers._gmres against dense linear algebra on an 8² operator."""

    @staticmethod
    def system(seed=5):
        domain = make_torus(2, [8, 8], [1.0, 1.0])
        rng = np.random.default_rng(seed)
        W = rng.uniform(-3.0, 1.0, domain.sizes)
        op = spectral.SchrodingerOperator(spectral.get_plan(domain), W, float(np.mean(np.abs(W))))
        dense = np.column_stack([op.apply_preconditioned(e) for e in np.eye(domain.npoints)])
        return op, dense, rng.standard_normal(domain.npoints)

    @staticmethod
    def counted(apply, inputs):
        def wrapper(v):
            inputs.append(v.copy())
            return apply(v)
        return wrapper

    def assert_solves(self, x, info, dense, b):
        expected = np.linalg.solve(dense, b)
        assert info == 0
        assert np.linalg.norm(b - dense @ x) <= 1e-10 * np.linalg.norm(b)
        # the operator's condition number is below 3, so x is 3e-10-accurate
        assert np.max(np.abs(x - expected)) <= 1e-9 * np.max(np.abs(expected))

    def test_matches_dense_solve(self):
        op, dense, b = self.system()
        inputs = []
        x, info = solvers._gmres(self.counted(op.apply_preconditioned, inputs), b, 1e-10)
        self.assert_solves(x, info, dense, b)
        # one basis from x = 0: the operator never sees a zero vector
        assert len(inputs) <= solvers.KRYLOV_STEPS
        assert all(np.any(v) for v in inputs)

    def test_happy_breakdown(self, t2_16):
        # with constant W a single Fourier mode spans an invariant subspace:
        # one step solves, and nothing divides by the vanishing H[1, 0]
        op = spectral.SchrodingerOperator(spectral.get_plan(t2_16), 2.0, 1.0)
        x0 = np.broadcast_to(t2_16.coords()[0], t2_16.sizes).reshape(-1)
        mode = np.cos(2 * np.pi * x0)
        inputs = []
        with np.errstate(all="raise"):
            x, info = solvers._gmres(self.counted(op.apply_preconditioned, inputs),
                                     op.solve_diagonal(mode), 1e-10)
            # an exact breakdown: H[1, 0] is 0 in floating point too
            e0 = np.eye(4)[0]
            y, info_exact = solvers._gmres(lambda v: 3.0 * v, e0, 1e-10)
        assert info == 0 and len(inputs) == 1
        assert np.max(np.abs(x - mode / (4 * np.pi**2 + 2.0))) <= 1e-15
        assert info_exact == 0 and np.array_equal(y, e0 / 3.0)

    def test_full_basis_reports_nonzero_info(self, monkeypatch):
        op, dense, b = self.system()
        monkeypatch.setattr(solvers, "KRYLOV_STEPS", 2)
        inputs = []
        x, info = solvers._gmres(self.counted(op.apply_preconditioned, inputs), b, 1e-10)
        assert info != 0 and len(inputs) == 2
        assert np.linalg.norm(b - dense @ x) > 1e-10 * np.linalg.norm(b)


class TestMonotone:
    def test_constant_instance_and_monotonicity(self, t2_32):
        inst = constant_instance(t2_32, S0=-1.0, alpha=-2.0)
        warm = warm_report(constant_instance(t2_32, S0=-1.0, alpha=-4.0))
        iv = make_interval(inst, warm)
        rep = monotone_iterate(inst, iv)
        assert rep.converged
        assert np.max(np.abs(rep.solution.values - 0.5 * np.log(2.0))) < 1e-9
        # residual decays monotonically after the first sweep
        h = np.array(rep.residual_history)
        assert np.all(np.diff(h[1:]) <= 1e-12)

    def test_manufactured_bracket(self, t2_32):
        inst, u_star = make_manufactured_neg(t2_32)
        inst_tilde = ProblemInstance(inst.S, 2 * inst.alpha)
        warm = newton_solve(inst_tilde, problem.constant_solution(inst_tilde))
        assert warm.converged
        iv = make_interval(inst, warm)
        rep = monotone_iterate(inst, iv)
        assert rep.converged
        assert np.max(np.abs(rep.solution.values - u_star.values)) <= 1e-7
        # solution sits inside the interval
        assert np.all(rep.solution.values <= iv.upper.values + 1e-9)
        assert np.all(rep.solution.values >= iv.lower.values - 1e-9)

    def test_inverted_interval_raises(self, t2_32):
        inst = constant_instance(t2_32)
        iv = OrderInterval(
            lower=ScalarField.constant(t2_32, 2.0),
            upper=ScalarField.constant(t2_32, -2.0),
        )
        with pytest.raises(SolverError):
            monotone_iterate(inst, iv)


class TestMinimize:
    def test_matches_constant_solution(self, t2_32):
        inst = constant_instance(t2_32, S0=-1.0, alpha=-2.0)
        warm = warm_report(constant_instance(t2_32, S0=-1.0, alpha=-4.0))
        iv = make_interval(inst, warm)
        rep = minimize_over_interval(inst, iv)
        assert rep.converged
        assert np.max(np.abs(rep.solution.values - 0.5 * np.log(2.0))) < 1e-8

    def test_minimum_beats_random_interval_points(self, t2_32):
        inst, _ = make_manufactured(t2_32, alpha=-1.0, amplitude=0.3)
        inst_tilde = ProblemInstance(inst.S, -2.0)
        warm = newton_solve(inst_tilde, problem.constant_solution(inst_tilde))
        iv = make_interval(inst, warm)
        rep = minimize_over_interval(inst, iv)
        assert rep.converged
        I_min = energy(inst, rep.solution)
        rng = np.random.default_rng(5)
        lo, hi = iv.lower.values, iv.upper.values
        for _ in range(100):
            theta = rng.uniform(size=t2_32.sizes)
            v = ScalarField(t2_32, lo + theta * (hi - lo))
            assert I_min <= energy(inst, v) + 1e-10

    def test_interior_minimizer_satisfies_equation(self, t2_32):
        inst, _ = make_manufactured(t2_32, alpha=-1.0, amplitude=0.3)
        inst_tilde = ProblemInstance(inst.S, -2.0)
        warm = newton_solve(inst_tilde, problem.constant_solution(inst_tilde))
        iv = make_interval(inst, warm)
        rep = minimize_over_interval(inst, iv)
        assert rep.converged
        margin = 1e-6
        interior = (np.min(rep.solution.values - iv.lower.values) >= margin
                    and np.min(iv.upper.values - rep.solution.values) >= margin)
        if interior:
            assert residual(inst, rep.solution).sup_norm <= 1e-8

    def test_energy_not_above_endpoints(self, t2_32):
        inst, _ = make_manufactured(t2_32, alpha=-1.0, amplitude=0.3)
        inst_tilde = ProblemInstance(inst.S, -2.0)
        warm = newton_solve(inst_tilde, problem.constant_solution(inst_tilde))
        iv = make_interval(inst, warm)
        rep = minimize_over_interval(inst, iv)
        I_min = energy(inst, rep.solution)
        assert I_min <= energy(inst, iv.lower) + 1e-10
        assert I_min <= energy(inst, iv.upper) + 1e-10


def test_engines_agree(t2_32):
    inst, _ = make_manufactured_neg(t2_32)
    inst_tilde = ProblemInstance(inst.S, 2 * inst.alpha)
    warm = newton_solve(inst_tilde, problem.constant_solution(inst_tilde))
    iv = make_interval(inst, warm)
    u_newton = newton_solve(inst, ScalarField.constant(inst.domain, 0.0)).solution
    u_mono = monotone_iterate(inst, iv).solution
    u_min = minimize_over_interval(inst, iv).solution
    assert np.max(np.abs(u_newton.values - u_mono.values)) <= 1e-7
    assert np.max(np.abs(u_newton.values - u_min.values)) <= 1e-7


class TestArclength:
    """Pseudo-arclength corrector on branches in t = α, and the failures it
    shares with the fold solve, whose Newton loop is the same."""

    @staticmethod
    def start(inst_at, t):
        """The walk's first point at t: a step of length 0 from Newton's
        solution in the direction (0, −1), which stops at once on it."""
        inst = inst_at(t)
        rep = newton_solve(inst, problem.constant_solution(inst))
        assert rep.converged
        zero = np.zeros(rep.solution.values.shape)
        first, p = arclength_correct(inst_at, lambda e: 1.0, BranchPoint(rep, t, zero, -1.0), 0.0)
        assert first.converged and first.iterations == 0 and p.t == t
        assert np.array_equal(first.solution.values, rep.solution.values)
        return p

    @staticmethod
    def run(engine, inst_at, p, ds):
        """The corrector's step ds from p, or the fold solve from p with its
        tangent's du as φ₀."""
        if engine == "arclength":
            return arclength_correct(inst_at, lambda e: 1.0, p, ds)
        return solvers.fold_solve(inst_at, lambda e: 1.0, p.report.solution, p.t, p.du)

    def test_constant_branch_closed_form(self, t2_16):
        # S ≡ −1: u = ½·ln(−α) on the whole branch
        def inst_at(t):
            return constant_instance(t2_16, -1.0, t)

        p = self.start(inst_at, -0.5)
        # the tangent of t ↦ ½·ln(−t), oriented toward smaller t
        assert p.dt == pytest.approx(-1.0 / np.sqrt(1.0 + 1.0 / (4.0 * p.t**2)), abs=1e-9)
        assert np.max(np.abs(p.du - p.dt / (2.0 * p.t))) < 1e-9
        assert np.mean(p.du**2) + p.dt**2 == pytest.approx(1.0)
        for ds in (0.3, 0.6):
            rep, q = arclength_correct(inst_at, lambda e: 1.0, p, ds)
            assert rep.converged and q is not None
            assert q.report is rep and rep.method == "arclength"
            assert np.max(np.abs(rep.solution.values - 0.5 * np.log(-q.t))) < 1e-9
            arc = np.mean(p.du * (rep.solution.values - p.report.solution.values))
            assert arc + p.dt * (q.t - p.t) == pytest.approx(ds, rel=1e-5)
            p = q

    @pytest.mark.parametrize("engine, ds, reason, iterations", [
        pytest.param("arclength", -1.0, "out_of_range: ", 0, id="arclength-out_of_range"),
        pytest.param("arclength", 1e3, "blow_up: ", 0, id="arclength-blow_up"),
        pytest.param("fold", None, "out_of_range: ", 1, id="fold-out_of_range"),
    ])
    def test_predictor_off_the_branch_fails(self, t2_16, engine, ds, reason, iterations):
        # S ≡ −1 at α = −0.5: the tangent is (du, dt) ∝ (1, −1), so ds = −1
        # predicts α > 0, where no instance exists, and ds = 1e3 predicts
        # u ≈ 700, past problem.EXP_ARG_CAP. The branch has no fold: the
        # fold solve's first step, du = −½ with φ constant, lands on α = 0
        def inst_at(t):
            return constant_instance(t2_16, -1.0, t)

        p = self.start(inst_at, -0.5)
        rep, q = self.run(engine, inst_at, p, ds)
        assert q is None and not rep.converged and rep.method == engine
        assert rep.failure_reason.startswith(reason) and rep.iterations == iterations

    @pytest.mark.parametrize("engine", ["arclength", "fold"])
    def test_one_conformal_factor_per_iteration(self, t2_16, monkeypatch, engine):
        # one extended system per iteration, one e^{2u/n} each
        S = named_field(t2_16, "sin1", offset=-0.5)

        def inst_at(t):
            return ProblemInstance(S, t)

        p = self.start(inst_at, -3.0)
        calls = count_conformal_factors(monkeypatch)
        monkeypatch.setattr(solvers, "CORRECTOR_ITERS", 1)
        rep, q = self.run(engine, inst_at, p, 0.02)
        assert rep.failure_reason == "max_iters" and q is None
        assert rep.iterations == 1 and len(calls) == 2

    @pytest.mark.parametrize("engine", ["arclength", "fold"])
    def test_a_non_finite_krylov_step_fails(self, t2_16, monkeypatch, engine):
        # a Krylov solve that returns NaN ends the solve with a reason; it
        # does not reach the next iterate, whose field would reject it
        S = named_field(t2_16, "sin1", offset=-0.5)

        def inst_at(t):
            return ProblemInstance(S, t)

        p = self.start(inst_at, -3.0)
        monkeypatch.setattr(solvers, "_gmres", lambda apply, b, rtol: (np.full_like(b, np.nan), 1))
        rep, q = self.run(engine, inst_at, p, 0.02)
        assert q is None and rep.failure_reason == "linear_solve_diverged"
        assert rep.iterations == 0

    def test_steps_through_the_fold(self, t2_16):
        x = t2_16.coords()
        S = ScalarField(t2_16, np.broadcast_to(np.sin(2 * np.pi * x[0]) - 0.5, t2_16.sizes).copy())

        def inst_at(t):
            return ProblemInstance(S, t)

        p = self.start(inst_at, -3.0)
        for _ in range(40):
            rep, q = arclength_correct(inst_at, lambda e: 1.0, p, 0.02)
            assert rep.converged and residual(inst_at(q.t), rep.solution).sup_norm <= 1e-10
            if q.dt > 0:
                break
            p = q
        else:
            pytest.fail("no fold within 40 steps")
        # past the fold the branch is unstable: the stability operator has
        # a negative eigenvalue there, and a positive one before it
        lam = [
            spectral.min_eigenvalue(stability_potential(inst_at(b.t), b.report.solution), 1e-8)[0]
            for b in (p, q)
        ]
        assert lam[0] > 0 > lam[1]
        assert q.t > -3.2 and p.t > -3.2


class TestFoldSolve:
    """Newton on the Moore–Spence extended system, on sin1 − ½ at 16², whose
    fold lies at α★ = −3.17820068330."""

    @staticmethod
    def start(t2_16, alpha):
        S = named_field(t2_16, "sin1", offset=-0.5)
        inst = ProblemInstance(S, alpha)
        rep = newton_solve(inst, problem.constant_solution(inst))
        _, x = problem.stability_eigenvalue(rep.inst, rep.solution)
        return (lambda t: ProblemInstance(S, t)), rep.solution, x

    @pytest.mark.parametrize("alpha", [-3.0, -3.17])
    def test_converges_to_the_fold(self, t2_16, alpha):
        inst_at, u, x = self.start(t2_16, alpha)
        rep, fold = solvers.fold_solve(inst_at, lambda e: 1.0, u, alpha, x)
        assert rep.converged and rep.method == "fold" and rep.iterations <= 5
        assert fold.report is rep and fold.t == pytest.approx(-3.17820068330, abs=1e-10)
        # the fold's tangent is (φ, 0), a unit null vector of F_u
        assert fold.dt == 0.0 and np.mean(fold.du**2) == pytest.approx(1.0)
        inst = inst_at(fold.t)
        assert residual(inst, rep.solution).sup_norm <= solvers.RESIDUAL_TOL
        J = problem.linearization(inst, rep.solution)
        assert np.max(np.abs(J.apply(fold.du))) <= solvers.RESIDUAL_TOL

    def test_start_before_the_peak_leaves_the_range(self, t2_16):
        # from α = −1, where λ_min still grows along the branch, the first
        # step heads for the degenerate limit α → 0⁻ and past it
        inst_at, u, x = self.start(t2_16, -1.0)
        rep, fold = solvers.fold_solve(inst_at, lambda e: 1.0, u, -1.0, x)
        assert fold is None and not rep.converged
        assert rep.failure_reason.startswith("out_of_range: ") and rep.iterations == 1


def test_searches_leave_krylov_headroom(t2_16, monkeypatch):
    # every Krylov solve of a search, in Newton, the corrector and the fold
    # solve, converges within half of the one basis GMRES builds: a kernel
    # that needs more fails here before the answers degrade
    calls, gmres = [], solvers._gmres

    def counted(apply, b, rtol):
        inputs = []
        x, info = gmres(TestGmres.counted(apply, inputs), b, rtol)
        calls.append((len(inputs), info))
        return x, info

    monkeypatch.setattr(solvers, "_gmres", counted)
    for name in ("sin1", "two_mode"):
        threshold.find_alpha_star(named_field(t2_16, name, offset=-0.5))
    threshold.ding_liu_lambda_star(named_field(t2_16, "two_mode", shift_max_zero=True), -1.0)
    assert len(calls) > 100
    assert all(info == 0 for _, info in calls)
    assert max(n for n, _ in calls) <= solvers.KRYLOV_STEPS // 2
