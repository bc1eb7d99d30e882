import numpy as np
import pytest

from kwlab import ProblemInstance, ScalarField
from kwlab.errors import SolverError
from kwlab.threshold import (
    ding_liu_lambda_star,
    find_alpha_star,
    limit_family,
    probe_solvable,
    SolvabilityVerdict,
)

from oracles import dense_alpha_star


def sine_field(domain, offset):
    x = domain.coords()
    vals = np.sin(2 * np.pi * x[0] / domain.lengths[0]) + offset
    return ScalarField(domain, np.broadcast_to(vals, domain.sizes).copy())


class TestProbe:
    def test_constant_negative_solved(self, t2_32):
        inst = ProblemInstance(t2_32, ScalarField.constant(t2_32, -1.0), -2.0, 1)
        v = probe_solvable(inst)
        assert v.solved
        assert np.max(np.abs(v.report.solution.values - 0.5 * np.log(2.0))) < 1e-9

    def test_nonnegative_S_sign_obstruction(self, t2_32):
        inst = ProblemInstance(t2_32, ScalarField.constant(t2_32, 1.0), -1.0, 1)
        v = probe_solvable(inst)
        assert not v.solved
        assert any("sign_obstruction" in e for e in v.evidence)

    def test_sign_changing_near_zero_alpha(self, t2_32):
        inst = ProblemInstance(t2_32, sine_field(t2_32, -0.5), -1e-3, 1)
        v = probe_solvable(inst)
        assert v.solved

    def test_solved_verdict_without_report_rejected(self):
        # an explicit check, so it also holds under python -O
        with pytest.raises(SolverError):
            SolvabilityVerdict("solved", report=None)

    def test_failed_collects_evidence(self, t2_32):
        inst = ProblemInstance(t2_32, sine_field(t2_32, -0.5), -50.0, 1)
        v = probe_solvable(inst, budget=0.25)
        assert not v.solved
        assert len(v.evidence) >= 2  # several starts, each with a reason


class TestAlphaStar:
    def test_requires_negative_mean(self, t2_32):
        with pytest.raises(SolverError):
            find_alpha_star(sine_field(t2_32, 0.0), 1, t2_32)

    def test_unbounded_for_nonpositive_S(self, t2_32):
        rep = find_alpha_star(sine_field(t2_32, -1.5), 1, t2_32)
        assert rep.unbounded
        assert rep.lo == -np.inf
        assert len(rep.family) == 4
        assert all(r.converged for _, r in rep.family)

    def test_bracket_sign_changing(self, t2_32):
        rep = find_alpha_star(sine_field(t2_32, -0.5), 1, t2_32, tol=1e-3)
        assert not rep.unbounded
        assert rep.width <= 1e-3
        assert rep.lo < rep.hi < 0
        assert rep.solved_report.converged
        assert rep.solved_report.alpha == rep.hi
        # family walks down toward the threshold, warm-started
        alphas = [a for a, _ in rep.family]
        assert alphas == sorted(alphas, reverse=True)
        assert all(r.converged for _, r in rep.family)

    def test_matches_dense_oracle_coarse(self, t2_16):
        S = sine_field(t2_16, -0.5)
        rep = find_alpha_star(S, 1, t2_16, tol=1e-3)
        lo, hi = dense_alpha_star(S.values, 1, t2_16, tol=1e-3)
        dense_est = 0.5 * (lo + hi)
        assert rep.estimate == pytest.approx(dense_est, rel=0.05)


class TestDingLiu:
    def test_input_validation(self, t2_32):
        g0 = sine_field(t2_32, -1.0)  # max = 0
        with pytest.raises(SolverError):
            ding_liu_lambda_star(sine_field(t2_32, 0.0), -1.0, t2_32)  # max != 0
        with pytest.raises(SolverError):
            ding_liu_lambda_star(ScalarField.constant(t2_32, 0.0), -1.0, t2_32)
        with pytest.raises(SolverError):
            ding_liu_lambda_star(g0, 1.0, t2_32)

    def test_bracket_containment(self, t2_32):
        x = t2_32.coords()
        g0 = ScalarField(
            t2_32,
            np.broadcast_to(np.cos(2 * np.pi * x[0]) - 1.0, t2_32.sizes).copy(),
        )
        rep = ding_liu_lambda_star(g0, -1.0, t2_32, tol=1e-2)
        assert rep.param_name == "lambda"
        assert 0.0 < rep.lo < rep.hi < -g0.min
        assert rep.width <= 1e-2
        assert rep.solved_report.converged
        lams = [lam for lam, _ in rep.family]
        assert lams == sorted(lams)


class TestLimitFamily:
    def test_constant_closed_form(self, t2_32):
        S = ScalarField.constant(t2_32, -1.0)
        rep = find_alpha_star(S, 1, t2_32)
        assert rep.unbounded
        fam = limit_family(S, 1, t2_32, rep, count=3, alphas=[-1.0, -2.0, -4.0])
        assert len(fam) == 3
        for r, a in zip(fam, [-1.0, -2.0, -4.0]):
            assert r.converged and r.alpha == a
            assert np.max(np.abs(r.solution.values - 0.5 * np.log(-a))) < 1e-9

    def test_unbounded_requires_schedule(self, t2_32):
        S = ScalarField.constant(t2_32, -1.0)
        rep = find_alpha_star(S, 1, t2_32)
        with pytest.raises(SolverError):
            limit_family(S, 1, t2_32, rep, count=3)

    def test_rejects_nonmonotone_schedule(self, t2_32):
        S = ScalarField.constant(t2_32, -1.0)
        rep = find_alpha_star(S, 1, t2_32)
        with pytest.raises(SolverError):
            limit_family(S, 1, t2_32, rep, count=3, alphas=[-1.0, -0.5, -2.0])

    def test_default_schedule_approaches_bracket(self, t2_32):
        S = sine_field(t2_32, -0.5)
        rep = find_alpha_star(S, 1, t2_32, tol=1e-3)
        fam = limit_family(S, 1, t2_32, rep, count=6)
        assert len(fam) == 6
        alphas = [r.alpha for r in fam]
        assert all(b < a for a, b in zip(alphas, alphas[1:]))
        assert all(a > rep.hi for a in alphas)
        # last member sits within a quarter of the initial offset of the bracket
        assert alphas[-1] - rep.hi <= 0.25 * (alphas[0] - rep.hi)
        assert all(r.converged for r in fam)
