import re

import numpy as np
import pytest

from kwlab import (ProblemInstance, ScalarField, SolveReport, make_torus, problem, solvers,
                   spectral, threshold)
from kwlab.cli import _threshold_summary
from kwlab.domain import integrate
from kwlab.errors import EigenSolveError, NumericalFailure, SolverError
from kwlab.fields import named_field
from kwlab.threshold import (
    _probe_twice,
    ding_liu_lambda_star,
    find_alpha_star,
    limit_family,
    probe_solvable,
    ProbeRecord,
    walk_schedule,
)

from eigrecord import assert_threaded, record_eig_calls
from oracles import dense_alpha_star, dense_spectral_laplacian


def sine_field(domain, offset):
    x = domain.coords()
    vals = np.sin(2 * np.pi * x[0] / domain.lengths[0]) + offset
    return ScalarField(domain, np.broadcast_to(vals, domain.sizes).copy())


class TestProbe:
    def test_constant_negative_solved(self, t2_32):
        inst = ProblemInstance(ScalarField.constant(t2_32, -1.0), -2.0)
        v = probe_solvable(inst)
        assert v.solved
        assert np.max(np.abs(v.report.solution.values - 0.5 * np.log(2.0))) < 1e-9

    def test_nonnegative_S_sign_obstruction(self, t2_32):
        inst = ProblemInstance(ScalarField.constant(t2_32, 1.0), -1.0)
        v = probe_solvable(inst)
        assert not v.solved
        assert any("sign_obstruction" in e for e in v.evidence)

    def test_sign_changing_near_zero_alpha(self, t2_32):
        inst = ProblemInstance(sine_field(t2_32, -0.5), -1e-3)
        v = probe_solvable(inst)
        assert v.solved

    def test_solved_verdict_without_report_rejected(self, t2_16):
        # a record given an unconverged report is rejected by an explicit
        # check, so it also holds under python -O
        rep = SolveReport(solution=ScalarField.constant(t2_16, 0.0), iterations=1,
                          residual_history=[1.0, 0.5], method="newton",
                          inst=ProblemInstance(ScalarField.constant(t2_16, -1.0), -1.0),
                          failure_reason="max_iters")
        with pytest.raises(SolverError):
            ProbeRecord(-1.0, ["newton[constant]: max_iters"], rep)

    def test_zero_mean_S_sign_obstruction(self, t2_32, monkeypatch):
        # ∫S = 0 exactly for sin1: the Kazdan-Warner obstruction fails the
        # probe before any Newton start
        S = named_field(t2_32, "sin1")
        assert integrate(S) == 0.0
        monkeypatch.setattr(solvers, "newton_solve", no_newton)
        v = probe_solvable(ProblemInstance(S, -1.0))
        assert not v.solved
        assert v.evidence == ["sign_obstruction: integral of S >= 0"]

    @pytest.mark.parametrize("name, grid", [("cos1", "t2_32"), ("two_mode", "t2_32"),
                                            ("cos1", "t4_16")])
    def test_round_off_mean_S_sign_obstruction(self, name, grid, request, monkeypatch):
        # the grid's ∫S of these zero-mean fields is round-off below 0, within
        # the summation bound: obstructed like sin1's exact 0.0
        S = named_field(request.getfixturevalue(grid), name)
        assert -1e-15 < integrate(S) < 0
        monkeypatch.setattr(solvers, "newton_solve", no_newton)
        v = probe_solvable(ProblemInstance(S, -1.0))
        assert v.evidence == ["sign_obstruction: integral of S >= 0"]
        # a mean of −1e-9 lies far outside the bound
        assert not threshold._sign_obstructed(named_field(S.domain, name, offset=-1e-9))

    def test_failed_collects_evidence(self, t2_32):
        S = sine_field(t2_32, -0.5)
        warm = probe_solvable(ProblemInstance(S, -1.0)).report
        v = probe_solvable(ProblemInstance(S, -50.0), budget=0.25, warm_start=warm.solution)
        assert not v.solved
        # every start, in order, each with its reason
        assert [e.partition(":")[0] for e in v.evidence] == ["newton[warm]", "newton[constant]"]


def no_newton(*args, **kwargs):
    raise AssertionError("a Newton start ran")


def counting_probes(monkeypatch):
    """Wrap threshold.probe_solvable; returns the list of its outcomes (solved or not)."""
    calls = []
    original = threshold.probe_solvable

    def counted(inst, budget=1.0, **kw):
        v = original(inst, budget, **kw)
        calls.append(v.solved)
        return v

    monkeypatch.setattr(threshold, "probe_solvable", counted)
    return calls


def assert_bracket_on_probes(rep, tol):
    """The unsolvable end is a failed probe, the solvable end a converged
    report that carries the λ_min recorded for its probe, width ≤ tol."""
    fail_end, solved_end = (rep.lo, rep.hi) if rep.param_name == "alpha" else (rep.hi, rep.lo)
    assert 0 < rep.width <= tol
    assert any(p.param == fail_end and not p.solved for p in rep.probes)
    record = next(p for p in rep.probes if p.param == solved_end)
    assert record.solved and rep.family[-1][1].converged
    assert rep.family[-1][1].min_eig == record.min_eig


def counting_newton_failures(monkeypatch):
    """Wrap solvers.newton_solve; returns the list of its failure reasons."""
    failures = []
    original = solvers.newton_solve

    def counted(inst, start, **kw):
        rep = original(inst, start, **kw)
        if not rep.converged:
            failures.append(rep.failure_reason)
        return rep

    monkeypatch.setattr(solvers, "newton_solve", counted)
    return failures


def newton_reports(monkeypatch):
    """Wrap solvers.newton_solve; returns the list of its reports."""
    reports = []
    original = solvers.newton_solve

    def recorded(inst, start, **kw):
        reports.append(original(inst, start, **kw))
        return reports[-1]

    monkeypatch.setattr(solvers, "newton_solve", recorded)
    return reports


def assert_closed_on_the_fold(rep, tol):
    """The search ends on its two closing solves across the solved fold: the
    solvable end, a stable Newton solution, and the failed end, whose
    evidence is the fold (its parameter, the estimate, strictly inside the
    bracket; an extended residual within RESIDUAL_TOL; a·b < 0; the failed
    end's fold component on the normal form's floor, ρ ≥ FLOOR_FRACTION)
    and Newton warm from the solvable end alone, stopped at its floor
    budget; width ≤ tol/2."""
    *_, solvable, failed = rep.probes
    assert solvable.solved and solvable.report.method == "newton" and solvable.min_eig > 0
    assert rep.family[-1][1] is solvable.report
    assert not failed.solved
    *fold, last = failed.evidence
    assert len(fold) == 5 and all(e.startswith("fold: ") for e in fold)
    value = [float(re.search(r"=(\S+)$", e).group(1)) for e in fold]
    assert value[0] == rep.estimate and rep.lo < rep.estimate < rep.hi
    assert value[1] <= solvers.RESIDUAL_TOL and value[2] * value[3] < 0
    assert fold[4].startswith("fold: rho=") and value[4] >= threshold.FLOOR_FRACTION
    assert last == "newton[warm]: max_iters"
    assert sorted((solvable.param, failed.param)) == [rep.lo, rep.hi]
    assert rep.width <= 0.5 * tol + 1e-12  # 2δ, δ ≤ tol/4, up to the round-off of t★ ± δ


def assert_stable_family(rep):
    """The family is the stable branch: the parameter moves strictly toward
    the fold, and λ_min > 0 at every member."""
    params = [p for p, _ in rep.family]
    toward = -1.0 if rep.param_name == "alpha" else 1.0
    assert all(toward * (b - a) > 0 for a, b in zip(params, params[1:]))
    assert all(r.min_eig is not None and r.min_eig > 0 for _, r in rep.family)


class TestContinuation:
    @pytest.mark.parametrize("param", ["alpha", "lambda"])
    def test_family_is_the_stable_branch(self, t2_16, param):
        if param == "alpha":
            rep = find_alpha_star(sine_field(t2_16, -0.5), tol=1e-3)
        else:
            g0 = named_field(t2_16, "two_mode", shift_max_zero=True)
            rep = ding_liu_lambda_star(g0, -1.0, tol=1e-2)
        assert len(rep.family) >= 3
        assert_stable_family(rep)

    @pytest.mark.parametrize("search", ["alpha", "lambda", "ladder"])
    def test_family_is_the_solved_probes(self, t2_16, search):
        if search == "lambda":
            g0 = named_field(t2_16, "two_mode", shift_max_zero=True)
            rep = ding_liu_lambda_star(g0, -1.0, tol=1e-2)
        else:
            rep = find_alpha_star(sine_field(t2_16, -0.5 if search == "alpha" else -1.5),
                                  tol=1e-3)
        solved = [p for p in rep.probes if p.solved]
        assert len(rep.family) == len(solved) >= 3
        for (param, report), p in zip(rep.family, solved):
            assert param == p.param and report is p.report
            assert p.min_eig == p.report.min_eig

    def test_corrector_reports_meet_residual_tol(self, t2_16):
        S = sine_field(t2_16, -0.5)
        rep = find_alpha_star(S, tol=1e-3)
        walked = [(a, r) for a, r in rep.family if r.method == "arclength"]
        assert walked
        for a, r in walked:
            assert r.converged and r.residual_history[-1] <= solvers.RESIDUAL_TOL
            inst = ProblemInstance(S, a)
            assert problem.residual(inst, r.solution).sup_norm <= solvers.RESIDUAL_TOL


class TestRetry:
    @pytest.mark.parametrize("evidence, budgets", [
        (["newton[warm]: stagnation", "newton[constant]: linear_solve_stagnation"], [1.0]),
        (["newton[warm]: stagnation", "newton[constant]: max_iters"], [1.0, 4.0]),
        (["newton[constant]: line_search_failure", "monotone: max_iters"], [1.0, 4.0]),
        (["newton[constant]: blow_up: overflow"], [1.0]),
    ])
    def test_only_budget_exhaustion_is_retried(self, t2_16, monkeypatch, evidence, budgets):
        calls = []

        def fake(inst, budget=1.0, **kw):
            calls.append(budget)
            return ProbeRecord(inst.alpha, list(evidence))

        monkeypatch.setattr(threshold, "probe_solvable", fake)
        inst = ProblemInstance(sine_field(t2_16, -0.5), -50.0)
        v = _probe_twice(inst)
        assert calls == budgets
        assert not v.solved
        assert v.evidence == evidence * len(budgets)

    def test_bootstrap_probe_retried_on_max_iters(self, t2_16, monkeypatch):
        calls = []
        original = threshold.probe_solvable

        def first_runs_out(inst, budget=1.0, **kw):
            calls.append((inst.alpha, budget))
            if len(calls) == 1:
                return ProbeRecord(inst.alpha, ["newton[constant]: max_iters"])
            return original(inst, budget, **kw)

        monkeypatch.setattr(threshold, "probe_solvable", first_runs_out)
        rep = find_alpha_star(sine_field(t2_16, -0.5), tol=1e-3)
        assert calls[:2] == [(-0.01, 1.0), (-0.01, 4.0)]
        assert rep.probes[0].param == -0.01 and rep.probes[0].solved
        assert rep.width <= 1e-3


class TestAlphaStar:
    def test_requires_negative_mean(self, t2_32):
        with pytest.raises(SolverError):
            find_alpha_star(sine_field(t2_32, 0.0))

    def test_unbounded_for_nonpositive_S(self, t2_32):
        rep = find_alpha_star(sine_field(t2_32, -1.5))
        assert rep.unbounded
        assert rep.lo == -np.inf
        assert len(rep.family) == 4
        assert all(r.converged for _, r in rep.family)

    def test_unbounded_solved_report_at_hi(self, t2_16):
        # the solved report sits at the solvable end of the ladder
        rep = find_alpha_star(sine_field(t2_16, -1.5))
        assert rep.family[-1][1].alpha == rep.hi == -1000.0

    def test_unbounded_ladder_failure_keeps_evidence(self, t2_32, monkeypatch):
        original = threshold.probe_solvable

        def fails_at_minus_100(inst, budget=1.0, **kw):
            if inst.alpha == -100.0:
                return ProbeRecord(inst.alpha, ["newton[constant]: stagnation"])
            return original(inst, budget, **kw)

        monkeypatch.setattr(threshold, "probe_solvable", fails_at_minus_100)
        with pytest.raises(NumericalFailure,
                           match=r"alpha=-100.0 failed: \['newton\[constant\]: stagnation'\]"):
            find_alpha_star(sine_field(t2_32, -1.5))

    def test_bracket_sign_changing(self, t2_32):
        rep = find_alpha_star(sine_field(t2_32, -0.5), tol=1e-3)
        assert not rep.unbounded
        assert rep.width <= 1e-3
        assert rep.lo < rep.hi < 0
        assert rep.family[-1][1].converged
        assert rep.family[-1][1].alpha == rep.hi
        # family walks down toward the threshold, warm-started
        alphas = [a for a, _ in rep.family]
        assert alphas == sorted(alphas, reverse=True)
        assert all(r.converged for _, r in rep.family)

    def test_matches_dense_oracle_coarse(self, t2_16):
        S = sine_field(t2_16, -0.5)
        rep = find_alpha_star(S, tol=1e-3)
        lo, hi = dense_alpha_star(S.values, 1, t2_16, tol=1e-3)
        dense_est = 0.5 * (lo + hi)
        assert rep.estimate == pytest.approx(dense_est, rel=0.05)

    def test_few_failed_probes(self, t2_32, monkeypatch):
        calls = counting_probes(monkeypatch)
        failures = counting_newton_failures(monkeypatch)
        rep = find_alpha_star(sine_field(t2_32, -0.5), tol=1e-3)
        # the bootstrap is the one probe; the walk's points are not re-probed,
        # and the failed end is one Newton solve
        assert calls == [True] and len(failures) == 1
        assert abs(rep.lo - (-3.178722)) <= 1e-3 and abs(rep.hi - (-3.178009)) <= 1e-3
        assert_bracket_on_probes(rep, 1e-3)
        assert_closed_on_the_fold(rep, 1e-3)

    def test_few_failed_probes_two_mode(self, t2_32, monkeypatch):
        calls = counting_probes(monkeypatch)
        failures = counting_newton_failures(monkeypatch)
        S = named_field(t2_32, "two_mode", offset=-0.5)
        rep = find_alpha_star(S, tol=1e-3)
        assert calls == [True] and len(failures) == 1
        assert abs(rep.lo - (-2.791003)) <= 1e-3 and abs(rep.hi - (-2.790053)) <= 1e-3
        assert_bracket_on_probes(rep, 1e-3)
        assert_closed_on_the_fold(rep, 1e-3)

    def test_a_solve_past_the_fold_raises(self, t2_16, monkeypatch):
        # the closing Newton at α★ − δ must fail; one that converges would
        # put a solution past the fold, and the search refuses its bracket
        original = solvers.newton_solve

        def warm_always_converges(inst, start, **kw):
            rep = original(inst, start, **kw)
            if isinstance(start, ScalarField):
                rep.failure_reason = None
            return rep

        monkeypatch.setattr(solvers, "newton_solve", warm_always_converges)
        with pytest.raises(NumericalFailure, match="past the fold"):
            find_alpha_star(sine_field(t2_16, -0.5), tol=1e-3)

    @pytest.mark.parametrize("shift", [1, 4])
    @pytest.mark.parametrize("name", ["sin1", "two_mode"])
    def test_a_fold_moved_up_raises(self, t2_32, monkeypatch, name, shift):
        # negative control for the failed end's floor check: a fold moved
        # toward the solvable side by δ (or 4δ) puts the failed end on (or
        # above) the true fold, where its capped Newton leaves the fold
        # component of F below FLOOR_FRACTION of the normal form's |b|·δ
        original = solvers.fold_solve
        delta = threshold.CLOSE_FRACTION * 1e-3

        def moved(*args):
            rep, fold = original(*args)
            if fold is not None:
                fold = solvers.BranchPoint(fold.report, fold.t + shift * delta, fold.du, fold.dt)
            return rep, fold

        monkeypatch.setattr(solvers, "fold_solve", moved)
        with pytest.raises(NumericalFailure, match="past the fold") as err:
            find_alpha_star(named_field(t2_32, name, offset=-0.5), tol=1e-3)
        rho = float(re.search(r"rho=(\S+)\)$", str(err.value)).group(1))
        assert rho < threshold.FLOOR_FRACTION
        if (name, shift) == ("two_mode", 1):
            # the case a bound of ½ would pass: ρ reads about 0.66 on the true fold
            assert rho > 0.5

    @pytest.mark.parametrize("name", ["sin1", "two_mode"])
    def test_a_tol_too_small_to_resolve_raises(self, t2_32, name):
        # at tol 1e-11 the normal form's floor |b|·δ, δ = tol/4, lies below
        # RESIDUAL_TOL, so the failed end converges with ρ ≥ FLOOR_FRACTION;
        # mean(φ²) = 1 bounds |mean(φ·F)| by ‖F‖_∞, so only such a floor
        # allows that, and the failure names tol and |b|·δ
        with pytest.raises(NumericalFailure) as err:
            find_alpha_star(named_field(t2_32, name, offset=-0.5), tol=1e-11)
        message = str(err.value)
        assert message.startswith("alpha tol=1e-11 is too small to resolve")
        assert float(re.search(r"tol=(\S+) ", message).group(1)) == 1e-11
        floor = float(re.search(r"\|b\|\*delta=(\S+) ", message).group(1))
        assert 0 < floor <= 4 / 3 * solvers.RESIDUAL_TOL

    def test_bracket_rests_on_probes_and_repeats(self, t2_16):
        S = sine_field(t2_16, -0.5)
        a = find_alpha_star(S, tol=1e-3)
        b = find_alpha_star(S, tol=1e-3)
        assert_bracket_on_probes(a, 1e-3)
        assert (a.lo, a.hi) == (b.lo, b.hi)
        assert a.probes == b.probes
        # equality skips the report, so compare what is read from it too
        assert ([(p.solved, p.min_eig) for p in a.probes]
                == [(p.solved, p.min_eig) for p in b.probes])
        # every family member solved its λ_min once, during the search
        assert all(r.min_eig is not None for _, r in a.family)


class TestSmallAlphaStar:
    """A fold close to α = 0, from a small S⁺ or a large torus (α★ scales
    as 1/L²), lies within the walk's first steps, which can turn past it
    onto the unstable branch; the search halves such a step and closes."""

    @pytest.mark.parametrize("offset", [-0.1, -0.2])
    @pytest.mark.parametrize("name", ["sin1", "cos1", "two_mode"])
    def test_closes_on_32(self, t2_32, name, offset):
        rep = find_alpha_star(named_field(t2_32, name, offset=offset), tol=1e-3)
        assert -0.5 < rep.lo < rep.hi < 0
        assert_closed_on_the_fold(rep, 1e-3)
        assert_stable_family(rep)

    def test_closes_on_8_to_the_4(self):
        rep = find_alpha_star(named_field(make_torus(4, [8] * 4, [1.0] * 4), "sin1",
                                          offset=-0.1), tol=1e-3)
        assert_closed_on_the_fold(rep, 1e-3)
        assert_stable_family(rep)

    @pytest.mark.parametrize("name, offset", [("sin1", -0.1), ("two_mode", -0.2)])
    def test_matches_dense_oracle(self, t2_16, name, offset):
        # acceptance test 07's 5% for the gap between spectral and FD
        S = named_field(t2_16, name, offset=offset)
        rep = find_alpha_star(S, tol=1e-3)
        lo, hi = dense_alpha_star(S.values, 1, t2_16, tol=1e-3, start=-0.01)
        assert rep.lo == pytest.approx(0.5 * (lo + hi), rel=0.05)
        assert rep.hi == pytest.approx(0.5 * (lo + hi), rel=0.05)


def unconverged_eig(V, tol=1e-8, max_iters=None, start=None):
    raise EigenSolveError("forced non-convergence", -0.5)


class TestEigenFallback:
    """The search still closes when every eigen-solve fails: no record
    carries a λ_min, and the bracket rests on its probes."""

    def test_alpha_star(self, t2_16, monkeypatch):
        monkeypatch.setattr(spectral, "min_eigenvalue", unconverged_eig)
        rep = find_alpha_star(sine_field(t2_16, -0.5), tol=1e-3)
        assert rep.lo < rep.hi < 0
        assert all(p.min_eig is None for p in rep.probes)
        assert_bracket_on_probes(rep, 1e-3)

    def test_lambda_star(self, t2_16, monkeypatch):
        monkeypatch.setattr(spectral, "min_eigenvalue", unconverged_eig)
        g0 = named_field(t2_16, "two_mode", shift_max_zero=True)
        rep = ding_liu_lambda_star(g0, -1.0, tol=1e-2)
        assert 0.0 < rep.lo < rep.hi < -g0.min
        assert all(p.min_eig is None for p in rep.probes)
        assert_bracket_on_probes(rep, 1e-2)


def recording_folds(monkeypatch, fail_first=0):
    """Wrap solvers.fold_solve; returns the list of (handover t, report,
    fold) of its calls. The first fail_first calls are made to fail."""
    calls = []
    original = solvers.fold_solve

    def recorded(make_inst, dF_dt, u, t, phi0):
        rep, fold = original(make_inst, dF_dt, u, t, phi0)
        if len(calls) < fail_first:
            rep.failure_reason, fold = "stagnation", None
        calls.append((t, rep, fold))
        return rep, fold

    monkeypatch.setattr(solvers, "fold_solve", recorded)
    return calls


class TestFoldSolve:
    @pytest.mark.parametrize("param", ["alpha", "lambda"])
    def test_fold_is_singular_on_the_dense_jacobian(self, t2_16, monkeypatch, param):
        # at the solved fold the dense spectral Jacobian has a zero
        # eigenvalue, and φ spans its null vector
        folds = recording_folds(monkeypatch)
        if param == "alpha":
            rep = find_alpha_star(sine_field(t2_16, -0.5), tol=1e-3)
        else:
            g0 = named_field(t2_16, "two_mode", shift_max_zero=True)
            rep = ding_liu_lambda_star(g0, -1.0, tol=1e-2)
        (_, fold_rep, fold), = [c for c in folds if c[2] is not None]
        assert fold.t * (1.0 if param == "alpha" else -1.0) == rep.estimate
        W = problem.stability_potential(fold_rep.inst, fold_rep.solution).values.reshape(-1)
        J = -dense_spectral_laplacian(fold_rep.inst.domain) + np.diag(W)
        lams, vecs = np.linalg.eigh(J)
        assert abs(lams[0]) <= 1e-6 < lams[1]
        phi = fold.du.reshape(-1)
        assert np.mean(phi**2) == pytest.approx(1.0)
        assert abs(vecs[:, 0] @ phi) / np.linalg.norm(phi) == pytest.approx(1.0, abs=1e-9)

    def test_failed_fold_solve_walks_on(self, t2_16, monkeypatch):
        # a fold solve that fails at the first handover lets the walk go on;
        # the next stable point hands over again and closes on the same fold
        S = sine_field(t2_16, -0.5)
        ref = find_alpha_star(S, tol=1e-3)
        folds = recording_folds(monkeypatch, fail_first=1)
        rep = find_alpha_star(S, tol=1e-3)
        walk = [p.param for p in rep.probes if p.solved][:-1]
        assert [t for t, _, _ in folds] == walk[-2:]
        assert walk[:-1] == [p.param for p in ref.probes if p.solved][:-1]
        assert rep.estimate == pytest.approx(ref.estimate, abs=1e-9)
        assert_closed_on_the_fold(rep, 1e-3)
        assert_stable_family(rep)

    def test_fold_solve_failing_past_the_fold_raises(self, t2_16, monkeypatch):
        # a step that turns past the fold hands over from the stable point
        # before it; when that fold solve fails, the step is rejected and
        # halved like any other, until the walk stalls below MIN_STEP
        folds = recording_folds(monkeypatch, fail_first=100)
        steps = []
        original = solvers.arclength_correct

        def recorded(make_inst, dF_dt, point, ds):
            rep, nxt = original(make_inst, dF_dt, point, ds)
            steps.append(nxt)
            return rep, nxt

        monkeypatch.setattr(solvers, "arclength_correct", recorded)
        with pytest.raises(NumericalFailure,
                           match=r"alpha continuation stalled at \S+: fold solve: stagnation"
                           ) as err:
            find_alpha_star(sine_field(t2_16, -0.5), tol=1e-3)
        # the walk did step past the fold, and every handover is a stable
        # point of the walk, the last of them where it stalled
        assert any(p is not None and p.dt >= 0 for p in steps)
        stable = {p.t for p in steps if p is not None and p.dt < 0}
        assert len(folds) >= 2 and all(t in stable for t, _, _ in folds)
        assert float(re.search(r"stalled at (\S+):", str(err.value)).group(1)) == folds[-1][0]

    @pytest.mark.parametrize("param", ["alpha", "lambda"])
    def test_coarse_tol_keeps_the_family_in_order(self, t2_16, param):
        # at tol 0.5, δ = tol/4 would put the solvable end above the handover
        # point; the cap δ ≤ (t_handover − t★)/2 keeps it between
        if param == "alpha":
            rep = find_alpha_star(sine_field(t2_16, -0.5), tol=0.5)
        else:
            rep = ding_liu_lambda_star(named_field(t2_16, "two_mode", shift_max_zero=True), -1.0,
                                       tol=0.5)
        assert_stable_family(rep)
        assert_closed_on_the_fold(rep, 0.5)


class TestUnclosedSearch:
    """The exits of a search that closes no bracket: the step cap, and the
    two rejections of a fold solved past its handover, a·b ≥ 0 and a
    solvable end that does not converge, after which the walk goes on until
    it stalls."""

    def test_step_cap_raises(self, t2_16, monkeypatch):
        monkeypatch.setattr(threshold, "MAX_SEARCH_PROBES", 2)
        with pytest.raises(NumericalFailure,
                           match="alpha continuation did not reach its fold in 2 steps"):
            find_alpha_star(sine_field(t2_16, -0.5), tol=1e-3)

    def test_a_fold_whose_a_b_is_not_negative_is_rejected(self, t2_16, monkeypatch):
        # with φ ≡ 1, a = (2/n)·mean(W) = −(2/n)²·α > 0 by the mean identity
        # and b = mean(φ) = 1: no fold closes, and no closing Newton runs, so
        # none fails
        original, past, failures = solvers.fold_solve, [], counting_newton_failures(monkeypatch)

        def flat(make_inst, dF_dt, u, t, phi0):
            rep, fold = original(make_inst, dF_dt, u, t, phi0)
            if fold is not None:
                past.append(fold.t < t)
                fold = solvers.BranchPoint(rep, fold.t, np.ones_like(fold.du), fold.dt)
            return rep, fold

        monkeypatch.setattr(solvers, "fold_solve", flat)
        with pytest.raises(NumericalFailure, match="alpha continuation stalled"):
            find_alpha_star(sine_field(t2_16, -0.5), tol=1e-3)
        assert any(past) and failures == []

    def test_a_failed_solvable_end_is_rejected(self, t2_16, monkeypatch):
        # every Newton after the bootstrap probe stops at max_iters: each fold
        # solved past its handover runs the solvable end's Newton alone
        original, starts = solvers.newton_solve, []

        def capped(inst, start, **kw):
            starts.append(start)
            if len(starts) == 1:
                return original(inst, start, **kw)
            return SolveReport(start, 0, [], "newton", inst, failure_reason="max_iters")

        monkeypatch.setattr(solvers, "newton_solve", capped)
        folds = recording_folds(monkeypatch)
        with pytest.raises(NumericalFailure, match="alpha continuation stalled"):
            find_alpha_star(sine_field(t2_16, -0.5), tol=1e-3)
        past = [t for t, _, fold in folds if fold is not None and fold.t < t]
        assert len(starts) - 1 == len(past) >= 1


class TestEigenStarts:
    """Each λ_min of a search starts from the Ritz vector of the last one
    that converged, the first from the seeded start."""

    def test_walk_threads_the_ritz_vector(self, t2_16, monkeypatch):
        calls = record_eig_calls(monkeypatch)
        rep = find_alpha_star(sine_field(t2_16, -0.5), tol=1e-3)
        assert_closed_on_the_fold(rep, 1e-3)
        # one solve per member, in order: the walk's, then the solvable end's
        assert [c["lam"] for c in calls] == [r.min_eig for _, r in rep.family]
        *walk, end = calls
        assert_threaded(walk)
        last = rep.family[-1][1]
        V = problem.stability_potential(last.inst, last.solution)
        assert np.array_equal(end["V"].values, V.values)
        # the solvable end's starts from the fold's null vector φ, mean(φ²) = 1,
        # which is close to the ground state at the walk's last point
        phi = end["start"]
        assert np.mean(phi**2) == pytest.approx(1.0)
        assert abs(phi @ walk[-1]["x"]) / np.linalg.norm(phi) > 0.99
        assert 0 < end["lam"] < walk[-1]["lam"]

    def test_unconverged_solve_passes_nothing_on(self, t2_16, monkeypatch):
        calls = record_eig_calls(monkeypatch, fail_at={2})
        rep = find_alpha_star(sine_field(t2_16, -0.5), tol=1e-3)
        assert calls[2]["x"] is None and calls[3]["start"] is calls[1]["x"]
        assert_threaded(calls[:-1])
        assert [r.min_eig is None for _, r in rep.family[:4]] == [False, False, True, False]


@pytest.mark.parametrize("tol", [0.0, -1.0])
def test_search_rejects_nonpositive_tol(t2_16, monkeypatch, tol):
    # a search with tol ≤ 0 could never close its bracket: it is refused
    # before the first probe
    calls = counting_probes(monkeypatch)
    with pytest.raises(SolverError, match="tol > 0"):
        find_alpha_star(sine_field(t2_16, -0.5), tol=tol)
    g0 = named_field(t2_16, "two_mode", shift_max_zero=True)
    with pytest.raises(SolverError, match="tol > 0"):
        ding_liu_lambda_star(g0, -1.0, tol=tol)
    assert calls == []


class TestDingLiu:
    def test_input_validation(self, t2_32):
        g0 = sine_field(t2_32, -1.0)  # max = 0
        with pytest.raises(SolverError):
            ding_liu_lambda_star(sine_field(t2_32, 0.0), -1.0)  # max != 0
        with pytest.raises(SolverError):
            ding_liu_lambda_star(ScalarField.constant(t2_32, 0.0), -1.0)
        with pytest.raises(SolverError):
            ding_liu_lambda_star(g0, 1.0)

    def test_bracket_containment(self, t2_32):
        x = t2_32.coords()
        g0 = ScalarField(
            t2_32,
            np.broadcast_to(np.cos(2 * np.pi * x[0]) - 1.0, t2_32.sizes).copy(),
        )
        rep = ding_liu_lambda_star(g0, -1.0, tol=1e-2)
        assert rep.param_name == "lambda"
        assert 0.0 < rep.lo < rep.hi < -g0.min
        assert rep.width <= 1e-2
        assert rep.family[-1][1].converged
        lams = [lam for lam, _ in rep.family]
        assert lams == sorted(lams)

    def test_few_failed_probes(self, t2_32, monkeypatch):
        calls = counting_probes(monkeypatch)
        failures = counting_newton_failures(monkeypatch)
        g0 = named_field(t2_32, "two_mode", shift_max_zero=True)
        rep = ding_liu_lambda_star(g0, -1.0, tol=1e-2)
        # the bootstrap is the one probe; the failed end is one Newton solve
        assert calls == [True] and len(failures) == 1
        # every record is filed under λ, not under the instance's α = s₀
        assert all(0.0 < p.param < -g0.min for p in rep.probes)
        assert abs(rep.lo - 1.179785) <= 1e-2 and abs(rep.hi - 1.185352) <= 1e-2
        assert_bracket_on_probes(rep, 1e-2)
        assert_closed_on_the_fold(rep, 1e-2)

    def test_obstructed_bootstrap_is_recorded(self, t2_16, monkeypatch):
        # g₀ = −(narrow bump): ∫(g₀ + λ) ≥ 0 at the first bootstrap λ, so
        # that probe fails on the Kazdan-Warner obstruction; the summary's
        # probes name it, and the fold behind the closing solve
        x = t2_16.coords()
        bump = np.exp(-((x[0] - 0.5) ** 2 + (x[1] - 0.5) ** 2) / 0.01)
        g0 = ScalarField(t2_16, -bump + np.min(bump))
        folds = recording_folds(monkeypatch)
        rep = ding_liu_lambda_star(g0, -1.0, tol=1e-2)
        evidence = [p["evidence"] for p in _threshold_summary(rep)["probes"]]
        assert evidence[0] == ["sign_obstruction: integral of S >= 0"]
        assert evidence[-1][0].startswith("fold: ")
        assert_closed_on_the_fold(rep, 1e-2)
        # the first corrector step passes the fold: the one handover comes
        # after the tangent turns, at the bootstrap point, the one stable one
        bootstrap = next(p for p in rep.probes if p.solved)
        assert [-t for t, _, _ in folds] == [bootstrap.param]
        assert [p.param for p in rep.probes if p.solved] == [bootstrap.param, rep.lo]


class TestWalkSchedule:
    def test_constant_closed_form(self, t2_32):
        S = ScalarField.constant(t2_32, -1.0)
        rep = find_alpha_star(S)
        assert rep.unbounded
        fam = [p.report for p in walk_schedule(S, [-1.0, -2.0, -4.0])]
        assert len(fam) == 3
        for r, a in zip(fam, [-1.0, -2.0, -4.0]):
            assert r.converged and r.alpha == a
            assert np.max(np.abs(r.solution.values - 0.5 * np.log(-a))) < 1e-9

    def test_rejects_nonmonotone_schedule(self, t2_32):
        S = ScalarField.constant(t2_32, -1.0)
        with pytest.raises(SolverError):
            walk_schedule(S, [-1.0, -0.5, -2.0])

    @pytest.mark.parametrize("d", [2, 4])
    @pytest.mark.parametrize("alphas", [[-1.0, -2.0, -4.0, -8.0], [-1.0, -3.0, -4.0, -40.0]])
    def test_predicted_start_is_exact_on_a_constant_S(self, d, alphas):
        # u = (n/2)·ln(−α) on S ≡ −1 is linear in τ = ln(−α): the n/2 slope
        # and the secant, at any ratio r, start every member on its solution
        S = ScalarField.constant(make_torus(d, [16 // (d // 2)] * d, [1.0] * d), -1.0)
        fam = [p.report for p in walk_schedule(S, alphas)]
        assert [r.iterations for r in fam] == [0, 0, 0, 0]
        for r, a in zip(fam, alphas):
            assert np.max(np.abs(r.solution.values - 0.25 * d * np.log(-a))) < 1e-12

    @pytest.mark.parametrize("name", ["sin1", "two_mode"])
    def test_predicted_start_keeps_the_stable_branch(self, t2_32, name):
        # near the fold a second, unstable solution exists: every member of
        # the limit family is the one Newton reaches from the raw previous
        # member, and is stable
        S = named_field(t2_32, name, offset=-0.5)
        probes = limit_family(S, find_alpha_star(S), count=8)
        assert len(probes) == 8 and all(p.solved for p in probes)
        ground = None
        for prev, p in zip([None] + probes, probes):
            u = p.report.solution
            if prev is not None:
                raw = solvers.newton_solve(p.report.inst, prev.report.solution)
                assert raw.converged
                assert np.max(np.abs(raw.solution.values - u.values)) < 1e-9
            lam, ground = problem.stability_eigenvalue(p.report.inst, u, ground)
            assert lam > 0

    def test_extreme_secant_ratio_needs_no_constant_start(self, t2_32, monkeypatch):
        # r = ln(3/1.001)/ln(1.001) ≈ 1100: the predicted start still solves,
        # in no more iterations than the raw previous member takes
        S = named_field(t2_32, "sin1", offset=-0.5)
        alphas = [-1.0, -1.001, -3.0]
        reports = newton_reports(monkeypatch)
        probes = walk_schedule(S, alphas)
        assert [p.param for p in probes if p.solved] == alphas
        assert [r.alpha for r in reports] == alphas    # one Newton per member
        predicted = sum(r.iterations for r in reports)
        raw = reports[0].iterations + sum(
            solvers.newton_solve(ProblemInstance(S, a), p.report.solution).iterations
            for a, p in zip(alphas[1:], probes))
        assert predicted <= raw

    @staticmethod
    def family_4d_ladder_field():
        f = named_field(make_torus(4, [8] * 4, [1.0] * 4), "random_fourier", seed=1,
                        decay_p=3.0)
        return ScalarField(f.domain, f.values - 0.5 * f.max)

    def test_family_4d_ladder_takes_at_most_45_krylov_applies(self, monkeypatch):
        # the benchmark's family-4d ladder at 8⁴: a deterministic guard on the
        # predictor and on Newton's forcing, counted over every Newton start.
        # It takes 43 applies (4, 4, 5 iterations); 113 warm from the raw
        # previous member, 396 from an α-secant, whose start at −16
        # stagnates, and 80 with every GMRES at 1e-10
        applies, original = [], spectral.SchrodingerOperator.apply_preconditioned

        def counted(op, x):
            applies.append(1)
            return original(op, x)

        monkeypatch.setattr(spectral.SchrodingerOperator, "apply_preconditioned", counted)
        reports = newton_reports(monkeypatch)
        probes = walk_schedule(self.family_4d_ladder_field(), [-1.0, -4.0, -16.0])
        assert all(p.solved for p in probes) and len(reports) == 3
        assert len(applies) <= 45

    def test_constant_start_is_built_for_the_first_member_only(self, monkeypatch):
        # a warm start that solves never needs the constant start
        calls, original = [], problem.constant_solution

        def counted(inst):
            calls.append(inst.alpha)
            return original(inst)

        monkeypatch.setattr(problem, "constant_solution", counted)
        probes = walk_schedule(self.family_4d_ladder_field(), [-1.0, -4.0, -16.0])
        assert all(p.solved for p in probes)
        assert calls == [-1.0]


class TestLimitFamily:
    def test_unbounded_requires_schedule(self, t2_32):
        S = ScalarField.constant(t2_32, -1.0)
        rep = find_alpha_star(S)
        with pytest.raises(SolverError):
            limit_family(S, rep, count=3)

    def test_default_schedule_approaches_bracket(self, t2_32):
        S = sine_field(t2_32, -0.5)
        rep = find_alpha_star(S, tol=1e-3)
        fam = [p.report for p in limit_family(S, rep, count=6) if p.solved]
        assert len(fam) == 6
        alphas = [r.alpha for r in fam]
        assert all(b < a for a, b in zip(alphas, alphas[1:]))
        assert all(a > rep.hi for a in alphas)
        # last member sits within a quarter of the initial offset of the bracket
        assert alphas[-1] - rep.hi <= 0.25 * (alphas[0] - rep.hi)
        assert all(r.converged for r in fam)


def test_lambda_star_is_where_alpha_star_crosses_s0(t2_16):
    # the paper proves Ding-Liu's theorem through the Chen-Li type threshold:
    # −Δu + s₀ = (g₀ + λ)e^{2u} is solvable iff s₀ > α★(g₀ + λ), so across a
    # λ★ bracket α★(g₀ + λ) crosses s₀. Each search is checked by the other.
    s0 = -1.0
    g0 = named_field(t2_16, "two_mode", shift_max_zero=True)
    lam = ding_liu_lambda_star(g0, s0, tol=1e-2)
    below, above = (find_alpha_star(ScalarField(t2_16, g0.values + x), tol=1e-3)
                    for x in (lam.lo, lam.hi))
    assert below.hi < s0 < above.lo


class TestExactInvariance:
    """Symmetries of the equation that the discrete problem keeps exactly,
    so the solved fold α★ keeps them to round-off."""

    BOUND = 1e-9

    @pytest.fixture(scope="class")
    def two_mode(self, t2_16):
        """two_mode − ½ on 16² and its α★."""
        S = named_field(t2_16, "two_mode", offset=-0.5)
        return S, find_alpha_star(S, tol=1e-3).estimate

    @pytest.mark.parametrize("k", [1e-3, 0.1, 10.0, 1e3])
    def test_scaling_S(self, two_mode, k):
        # u ↦ u − (n/2)·log k maps the solutions for S onto those for kS
        S, ref = two_mode
        scaled = find_alpha_star(ScalarField(S.domain, k * S.values), tol=1e-3).estimate
        assert abs(scaled - ref) <= self.BOUND

    @pytest.mark.parametrize("shift", [(3, 0), (0, 5), (7, 11)])
    def test_grid_roll(self, two_mode, shift):
        S, ref = two_mode
        rolled = find_alpha_star(ScalarField(S.domain, np.roll(S.values, shift, axis=(0, 1))),
                                 tol=1e-3).estimate
        assert abs(rolled - ref) <= self.BOUND

    @pytest.mark.parametrize("name", ["sin1", "two_mode"])
    def test_torus_length(self, t2_16, name):
        # on the L-torus, x = L·y turns −Δ into −Δ/L², and L²·S is S up to
        # the scaling above: L²·α★(L) = α★(1). The larger L put the fold
        # within the walk's first steps.
        S = named_field(t2_16, name, offset=-0.5)
        ref = find_alpha_star(S, tol=1e-3).estimate
        for L in (0.5, 2.0, 2.5, 3.0, 4.0, 6.0):
            dom = make_torus(2, list(t2_16.sizes), [L, L])
            rep = find_alpha_star(ScalarField(dom, S.values.copy()), tol=1e-3)
            assert abs(L * L * rep.estimate - ref) <= self.BOUND, L

    @pytest.mark.parametrize("s0", [-0.5, -1.0, -2.0])
    def test_lambda_star_is_the_fold_of_its_field(self, t2_32, s0):
        # the two searches solve the same fold: α★(g₀ + λ★(s₀)) = s₀
        g0 = named_field(t2_32, "two_mode", shift_max_zero=True)
        lam = ding_liu_lambda_star(g0, s0, tol=1e-2).estimate
        rep = find_alpha_star(ScalarField(t2_32, g0.values + lam), tol=1e-3)
        assert abs(rep.estimate - s0) <= self.BOUND

    @pytest.fixture(scope="class")
    def tori(self):
        """8² and an 8⁴ over the same (x₁, x₂) grid, x₃ and x₄ of lengths 0.5 and 2.5."""
        return make_torus(2, [8, 8], [1.0, 1.0]), make_torus(4, [8] * 4, [1.0, 1.0, 0.5, 2.5])

    @pytest.mark.parametrize("name", ["sin1", "two_mode"])
    def test_four_torus_is_twice_the_two_torus(self, tori, name):
        # for S on (x₁, x₂) only, u = 2v + ln 2 maps the T⁴ equation at α
        # onto the T² one at α/2 on the same (x₁, x₂) grid, whatever the
        # lengths of x₃ and x₄: α★(T⁴) = 2·α★(T²)
        t2, t4 = tori
        ref = find_alpha_star(named_field(t2, name, offset=-0.5), tol=1e-3).estimate
        rep = find_alpha_star(named_field(t4, name, offset=-0.5), tol=1e-3)
        assert abs(rep.estimate - 2 * ref) <= 1e-12

    @pytest.mark.parametrize("s0", [-0.5, -1.0])
    @pytest.mark.parametrize("name", ["sin1", "two_mode"])
    def test_four_torus_lambda_star_is_the_two_torus_one_at_half_s0(self, tori, name, s0):
        # the same map takes the T⁴ equation with S = g₀ + λ at α = s₀ onto
        # the T² one at s₀/2, for every λ: λ★(T⁴, s₀) = λ★(T², s₀/2)
        t2, t4 = tori
        ref = ding_liu_lambda_star(named_field(t2, name, shift_max_zero=True), s0 / 2).estimate
        rep = ding_liu_lambda_star(named_field(t4, name, shift_max_zero=True), s0)
        assert abs(rep.estimate - ref) <= 1e-12

    @pytest.mark.parametrize("s0", [-0.5, -1.0])
    @pytest.mark.parametrize("name", ["sin1", "two_mode"])
    def test_lambda_star_is_the_fold_of_its_field_on_the_four_torus(self, tori, name, s0):
        # α★(g₀ + λ★(s₀)) = s₀ in every dimension
        g0 = named_field(tori[1], name, shift_max_zero=True)
        lam = ding_liu_lambda_star(g0, s0, tol=1e-2).estimate
        rep = find_alpha_star(ScalarField(g0.domain, g0.values + lam), tol=1e-3)
        assert abs(rep.estimate - s0) <= self.BOUND
