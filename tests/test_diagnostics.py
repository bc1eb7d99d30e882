import numpy as np
import pytest

from kwlab import (
    ProblemInstance,
    RegionMask,
    ScalarField,
    ball_mask,
    make_cutoff,
    problem,
    spectral,
)
from kwlab.diagnostics import (
    FAMILY_COLUMNS,
    apriori_c0_bound,
    auto_cutoff_region,
    family_table,
    is_flat,
    table_csv,
    trend_slope,
)
from kwlab.errors import DomainError, EigenSolveError
from kwlab.fields import named_field
from kwlab.solvers import SolveReport, newton_solve

from kwlab.threshold import walk_schedule

from eigrecord import assert_threaded, record_eig_calls
from subsuper import make_interval, monotone_iterate


def fake_report(domain, value, alpha=-1.0, method="monotone"):
    return SolveReport(
        solution=ScalarField.constant(domain, value),
        iterations=1,
        residual_history=[0.0],
        method=method,
        inst=ProblemInstance(ScalarField.constant(domain, -1.0), alpha),
    )


class TestTrend:
    def test_constant_series_is_flat(self):
        assert abs(trend_slope([3.0] * 8)) <= 1e-14
        assert is_flat([3.0] * 8)

    def test_plateauing_series_is_flat(self):
        # geometric approach to a limit: tail slope shrinks below tolerance
        vals = [10.0 - 4.0 ** (-k) for k in range(8)]
        assert is_flat(vals)

    def test_linear_growth_is_not_flat(self):
        vals = [float(k) for k in range(8)]
        assert not is_flat(vals)

    def test_nan_fails(self):
        assert not is_flat([1.0, np.nan, 1.0, 1.0])


class TestAprioriBound:
    def test_constant_algebra(self, t2_32):
        # φ ≡ 1, S ≡ −1, α★ = −2, n = 1: C = −2·α★ = 4 and
        # e^{2u} ≤ −(1/2)·4/(−1) = 2, so sup u ≤ ½·ln 2
        phi = ScalarField.constant(t2_32, 1.0)
        K = RegionMask(t2_32, np.ones(t2_32.sizes, dtype=bool))
        S = ScalarField.constant(t2_32, -1.0)
        cert = apriori_c0_bound(S, -2.0, phi, K)
        assert cert.bound_on_sup_u == pytest.approx(0.5 * np.log(2.0), abs=1e-12)

    def test_n2_constant_algebra(self, t4_16):
        # n = 2: C = −α★·φ² = 2, e^{u} ≤ −C/(max S) = 2, sup u ≤ ln 2
        phi = ScalarField.constant(t4_16, 1.0)
        K = RegionMask(t4_16, np.ones(t4_16.sizes, dtype=bool))
        S = ScalarField.constant(t4_16, -1.0)
        cert = apriori_c0_bound(S, -2.0, phi, K)
        assert cert.bound_on_sup_u == pytest.approx(np.log(2.0), abs=1e-12)

    def test_bound_holds_for_actual_solutions(self, t2_32):
        # constant instance: u = ½·ln(α) for S ≡ −1; certificate at the
        # (here fictitious) threshold α★ = −4 must dominate every solution
        # with α ∈ (−4, 0)
        S = ScalarField.constant(t2_32, -1.0)
        phi = ScalarField.constant(t2_32, 1.0)
        K = RegionMask(t2_32, np.ones(t2_32.sizes, dtype=bool))
        cert = apriori_c0_bound(S, -4.0, phi, K)
        family = []
        for a in (-0.5, -1.0, -2.0, -3.9):
            rep = newton_solve(ProblemInstance(S, a), ScalarField.constant(S.domain, 0.0))
            assert rep.converged
            family.append(rep)
        assert cert.check_family([(r.alpha, r) for r in family])
        assert all(cert.margin(r.solution) >= 0 for r in family)

    def test_rejects_support_leak(self, t2_64, sin_minus_half):
        # cutoff centered where S > 0: support leaks outside {S < 0}
        phi = make_cutoff(t2_64, (0.25, 0.5), 0.05, 0.1)
        K = ball_mask(t2_64, (0.25, 0.5), 0.04)
        with pytest.raises(DomainError):
            apriori_c0_bound(sin_minus_half, -2.0, phi, K)

    def test_rejects_K_outside_plateau(self, t2_64, sin_minus_half):
        phi = make_cutoff(t2_64, (0.75, 0.5), 0.05, 0.1)
        K = ball_mask(t2_64, (0.75, 0.5), 0.08)  # pokes into the ramp
        with pytest.raises(DomainError):
            apriori_c0_bound(sin_minus_half, -2.0, phi, K)

    def test_rejects_nonnegative_alpha_star(self, t2_32):
        phi = ScalarField.constant(t2_32, 1.0)
        K = RegionMask(t2_32, np.ones(t2_32.sizes, dtype=bool))
        with pytest.raises(DomainError):
            apriori_c0_bound(ScalarField.constant(t2_32, -1.0), 0.0, phi, K)

    def test_rejects_empty_cutoff_support(self, t2_32):
        # φ ≡ 0 has no support on which to take the max of S
        phi = ScalarField.constant(t2_32, 0.0)
        K = RegionMask(t2_32, np.zeros(t2_32.sizes, dtype=bool))
        with pytest.raises(DomainError, match="cutoff support is empty"):
            apriori_c0_bound(ScalarField.constant(t2_32, -1.0), -2.0, phi, K)


def whole(domain):
    return RegionMask(domain, np.ones(domain.sizes, dtype=bool))


@pytest.mark.parametrize("call, fragment", [
    (lambda S, other: apriori_c0_bound(S, -2.0, ScalarField.constant(other, 1.0), whole(S.domain)),
     "S, phi and K must share one domain"),
    (lambda S, other: apriori_c0_bound(S, -2.0, ScalarField.constant(S.domain, 1.0), whole(other)),
     "S, phi and K must share one domain"),
    (lambda S, other: auto_cutoff_region(ScalarField.constant(S.domain, 1.0)),
     "is empty: S is nowhere below"),
], ids=["phi-grid", "K-grid", "no-negative-set"])
def test_rejects_malformed_input(t2_16, t2_32, call, fragment):
    with pytest.raises(DomainError, match=fragment):
        call(ScalarField.constant(t2_32, -1.0), t2_16)


class TestAutoCutoff:
    def test_sign_changing(self, t2_64, sin_minus_half):
        phi, K = auto_cutoff_region(sin_minus_half)
        support = phi.values > 1e-12
        assert np.all(sin_minus_half.values[support] < 0)
        assert np.all(phi.values[K.mask] >= 1.0 - 1e-9)
        assert not K.empty
        # certificate construction succeeds on the automatic region
        cert = apriori_c0_bound(sin_minus_half, -3.2, phi, K)
        assert np.isfinite(cert.bound_on_sup_u)

    def test_everywhere_negative_degenerates(self, t2_32):
        S = ScalarField.constant(t2_32, -2.0)
        phi, K = auto_cutoff_region(S)
        assert phi.min == 1.0
        assert np.count_nonzero(K.mask) * t2_32.cell_weight == pytest.approx(t2_32.volume)


class TestNegativeControls:
    # the lower_bound and sup_inf verdicts read the table's inf_M_u and
    # sup_plus_inf columns
    def table(self, domain, family):
        K = ball_mask(domain, (0.5, 0.5), 0.2)
        return family_table([(r.alpha, r) for r in family], K)

    def test_downward_divergence_fails_lower_bound(self, t2_32):
        family = [fake_report(t2_32, -float(k), alpha=-1.0 - 0.1 * k) for k in range(8)]
        diag = self.table(t2_32, family)
        assert not diag.verdicts["lower_bound"]
        assert diag.A_observed == 7.0

    def test_upward_divergence_fails_sup_inf(self, t2_32):
        family = [fake_report(t2_32, float(k)) for k in range(8)]
        assert not self.table(t2_32, family).verdicts["sup_inf"]

    def test_bounded_family_passes_both(self, t2_32):
        family = [fake_report(t2_32, 1.0 - 4.0 ** (-k)) for k in range(8)]
        verdicts = self.table(t2_32, family).verdicts
        assert verdicts["lower_bound"]
        assert verdicts["sup_inf"]


class TestFamilyTable:
    def test_constant_family_closed_forms(self, t2_32):
        # S ≡ −1, u = ½·ln(−α): every column has a closed form; the α
        # schedule plateaus onto −2 so the boundedness verdicts apply
        S = ScalarField.constant(t2_32, -1.0)
        K = ball_mask(t2_32, (0.5, 0.5), 0.2)
        alphas = [-2.0 + 4.0 ** (-k) for k in range(1, 7)]
        family = []
        for a in alphas:
            rep = newton_solve(ProblemInstance(S, a), ScalarField.constant(S.domain, 0.0))
            assert rep.converged
            family.append(rep)
        diag = family_table([(r.alpha, r) for r in family], K)
        assert all(diag.verdicts.values()), diag.verdicts
        for row, a in zip(diag.rows, alphas):
            u_exact = 0.5 * np.log(-a)
            assert row["sup_K_u"] == pytest.approx(u_exact, abs=1e-9)
            assert row["inf_M_u"] == pytest.approx(u_exact, abs=1e-9)
            assert row["grad_l2"] == pytest.approx(0.0, abs=1e-8)
            assert row["int_exp"] == pytest.approx(-a, rel=1e-9)
            # stability operator is −Δ + 2·(−α) on constants: λ_min = −2α
            assert row["lambda_min"] == pytest.approx(-2 * a, abs=1e-6)
            assert row["sup_plus_inf"] == pytest.approx(2 * u_exact, abs=1e-9)
            assert row["defect"] <= 1e-10

    def test_stability_verdict_on_monotone_members(self, t2_32, monkeypatch):
        # the verdict judges the members of the order-preserving routes too
        S = ScalarField.constant(t2_32, -1.0)
        K = ball_mask(t2_32, (0.5, 0.5), 0.2)

        def monotone_family():
            family = []
            for a in (-1.0, -1.5, -1.75):
                inst = ProblemInstance(S, a)
                warm = newton_solve(ProblemInstance(S, a - 1.0),
                                    ScalarField.constant(S.domain, 0.0))
                rep = monotone_iterate(inst, make_interval(inst, warm))
                assert rep.converged and rep.method == "monotone"
                family.append((a, rep))
            return family

        assert family_table(monotone_family(), K).verdicts["stability"]
        monkeypatch.setattr(spectral, "min_eigenvalue",
                            lambda V, tol, max_iters=None, start=None: (-0.5, None))
        assert not family_table(monotone_family(), K).verdicts["stability"]

    def test_stability_verdict_on_newton_members(self, t2_32, monkeypatch):
        # every member is judged, whichever engine solved it
        S = ScalarField.constant(t2_32, -1.0)
        K = ball_mask(t2_32, (0.5, 0.5), 0.2)

        def newton_family():
            zero = ScalarField.constant(S.domain, 0.0)
            return [(a, newton_solve(ProblemInstance(S, a), zero)) for a in (-1.0, -1.5, -1.75)]

        assert family_table(newton_family(), K).verdicts["stability"]
        monkeypatch.setattr(spectral, "min_eigenvalue",
                            lambda V, tol, max_iters=None, start=None: (-0.5, None))
        diag = family_table(newton_family(), K)
        assert [row["lambda_min"] for row in diag.rows] == [-0.5] * 3
        assert not diag.verdicts["stability"]

    def test_csv_shape(self, t2_32):
        S = ScalarField.constant(t2_32, -1.0)
        K = ball_mask(t2_32, (0.5, 0.5), 0.2)
        rep = newton_solve(ProblemInstance(S, -1.0), ScalarField.constant(S.domain, 0.0))
        diag = family_table([(rep.alpha, rep)], K)
        lines = table_csv(FAMILY_COLUMNS, diag.rows).strip().splitlines()
        assert lines[0] == ",".join(FAMILY_COLUMNS)
        assert len(lines) == 2

    def test_unconverged_eigenvalue_raises(self, t2_32, monkeypatch):
        # the stability verdict never rests on an unconverged λ_min
        def unconverged(V, tol=1e-8, max_iters=None, start=None):
            raise EigenSolveError("forced non-convergence", -0.5)

        monkeypatch.setattr(spectral, "min_eigenvalue", unconverged)
        S = ScalarField.constant(t2_32, -1.0)
        K = ball_mask(t2_32, (0.5, 0.5), 0.2)
        rep = newton_solve(ProblemInstance(S, -1.0), ScalarField.constant(S.domain, 0.0))
        with pytest.raises(EigenSolveError, match="forced non-convergence"):
            family_table([(rep.alpha, rep)], K)
        assert rep.min_eig is None

    def test_one_conformal_factor_per_member(self, t2_32, monkeypatch):
        # e^{2u/n} serves the defect and the int_exp column of a member
        calls, original = [], problem.conformal_factor

        def counted(inst, u):
            calls.append(inst.alpha)
            return original(inst, u)

        monkeypatch.setattr(problem, "conformal_factor", counted)
        K = ball_mask(t2_32, (0.5, 0.5), 0.2)
        family = [fake_report(t2_32, 0.5 * np.log(-a), alpha=a, method="newton")
                  for a in (-1.0, -2.0)]
        for r in family:
            r.min_eig = 1.0  # no eigen-solve, whose operator reads e^{2u/n} too
        diag = family_table([(r.alpha, r) for r in family], K)
        assert calls == [-1.0, -2.0]
        assert [row["defect"] for row in diag.rows] == pytest.approx([0.0, 0.0], abs=1e-12)
        assert [row["int_exp"] for row in diag.rows] == pytest.approx([1.0, 2.0], rel=1e-12)

    def test_empty_family_rejected(self, t2_32):
        K = ball_mask(t2_32, (0.5, 0.5), 0.2)
        with pytest.raises(DomainError):
            family_table([], K)

    def test_K_on_another_grid_rejected(self, t2_16, t2_32):
        K = ball_mask(t2_32, (0.5, 0.5), 0.2)
        with pytest.raises(DomainError, match="another grid"):
            family_table([(-1.0, fake_report(t2_16, 0.0))], K)

    def test_empty_K_rejected(self, t2_32):
        K = RegionMask(t2_32, np.zeros(t2_32.sizes, dtype=bool))
        with pytest.raises(DomainError, match="empty K"):
            family_table([(-1.0, fake_report(t2_32, 0.0))], K)

    def test_divergent_family_flagged(self, t2_32):
        K = ball_mask(t2_32, (0.5, 0.5), 0.2)
        family = [fake_report(t2_32, float(k), alpha=-1.0 - k, method="newton")
                  for k in range(8)]
        diag = family_table([(r.alpha, r) for r in family], K)
        assert not diag.verdicts["sup_K_bounded"]
        assert not diag.verdicts["exp_mass_bounded"]
        assert not all(diag.verdicts.values())

    def test_K_solves_every_missing_eigenvalue(self, t2_32):
        # the stability verdict reads every λ_min, so a table with K solves
        # the members' missing ones whatever with_eig says
        K = ball_mask(t2_32, (0.5, 0.5), 0.2)
        family = [fake_report(t2_32, 0.5 * np.log(-a), alpha=a, method="newton")
                  for a in (-1.0, -2.0)]
        diag = family_table([(r.alpha, r) for r in family], K, with_eig=False)
        # S ≡ −1 at u = ½·ln(−α): λ_min = −2α
        assert [row["lambda_min"] for row in diag.rows] == pytest.approx([2.0, 4.0], abs=1e-6)
        assert [r.min_eig for r in family] == [row["lambda_min"] for row in diag.rows]
        assert diag.verdicts["stability"]

    def test_members_on_two_grids(self, t2_16, t2_32):
        # each member is read at the instance it solved, on its own grid
        family = []
        for dom in (t2_16, t2_32):
            rep = newton_solve(ProblemInstance(named_field(dom, "sin1", offset=-0.5), -1.0),
                               ScalarField.constant(dom, 0.0))
            assert rep.converged
            family.append((rep.alpha, rep))
        diag = family_table(family)
        assert [row["alpha"] for row in diag.rows] == [-1.0, -1.0]
        assert all(row["defect"] <= 1e-8 for row in diag.rows)

    def test_each_solve_starts_from_the_previous_row(self, t2_32, monkeypatch):
        # a diagnose table: every member's λ_min is solved in the table
        S = named_field(t2_32, "sin1", offset=-0.5)
        family = [(p.param, p.report) for p in walk_schedule(S, [-1.0, -1.5, -2.0, -2.5])]
        cold = [problem.stability_eigenvalue(r.inst, r.solution)[0] for _, r in family]
        calls = record_eig_calls(monkeypatch)
        diag = family_table(family, ball_mask(t2_32, (0.5, 0.5), 0.2))
        assert len(calls) == 4
        assert_threaded(calls)
        assert [row["lambda_min"] for row in diag.rows] == pytest.approx(cold, abs=1e-9)

    def test_no_start_crosses_grids(self, t2_16, t2_32, monkeypatch):
        # each grid's first member solves from the seeded start
        family = []
        for dom in (t2_16, t2_32):
            for a in (-1.0, -1.5):
                rep = newton_solve(ProblemInstance(named_field(dom, "sin1", offset=-0.5), a),
                                   ScalarField.constant(dom, 0.0))
                assert rep.converged
                family.append((a, rep))
        calls = record_eig_calls(monkeypatch)
        diag = family_table(family)
        assert [c["start"] is None for c in calls] == [True, False, True, False]
        assert calls[1]["start"] is calls[0]["x"] and calls[3]["start"] is calls[2]["x"]
        assert all(row["lambda_min"] is not None for row in diag.rows)
