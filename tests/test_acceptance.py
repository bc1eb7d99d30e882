"""Acceptance suite: the twelve headline checks, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time

import numpy as np
import pytest

from kwlab import (
    ProblemInstance,
    ScalarField,
    ball_mask,
    make_cutoff,
    make_torus,
)
from kwlab import diagnostics, problem, spectral, threshold
from kwlab.cli import main as cli_main
from kwlab.fields import named_field
from kwlab.solvers import newton_solve

from oracles import dense_alpha_star, restrict, smooth_random_field
from subsuper import make_interval, minimize_over_interval, monotone_iterate
from test_cli import read_tree
from test_solvers import make_manufactured_neg
from test_threshold import sine_field


def report_line(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status}" + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def t2_64a():
    return make_torus(2, [64, 64], [1.0, 1.0])


@pytest.fixture(scope="module")
def t2_32a():
    return make_torus(2, [32, 32], [1.0, 1.0])


@pytest.fixture(scope="module")
def threshold64(t2_64a):
    """Shared 64² threshold run for criteria 7, 9, 10 (timed for criterion 7)."""
    S = sine_field(t2_64a, -0.5)
    t0 = time.perf_counter()
    rep = threshold.find_alpha_star(S, tol=1e-3)
    elapsed = time.perf_counter() - t0
    return S, rep, elapsed


@pytest.fixture(scope="module")
def family64(t2_64a, threshold64):
    S, rep, _ = threshold64
    return [p.report for p in threshold.limit_family(S, rep, count=8) if p.solved]


def test_01_exact_solution_recovery(t2_64a):
    t0 = time.perf_counter()
    inst1 = ProblemInstance(ScalarField.constant(t2_64a, -1.0), -2.0)
    rep1 = newton_solve(inst1, ScalarField.constant(inst1.domain, 0.0))
    err1 = np.max(np.abs(rep1.solution.values - 0.5 * np.log(2.0)))
    dt1 = time.perf_counter() - t0

    dom4 = make_torus(4, [16] * 4, [1.0] * 4)
    t0 = time.perf_counter()
    inst2 = ProblemInstance(ScalarField.constant(dom4, -1.0), -np.e)
    rep2 = newton_solve(inst2, ScalarField.constant(inst2.domain, 0.0))
    err2 = np.max(np.abs(rep2.solution.values - 1.0))
    dt2 = time.perf_counter() - t0

    ok = (rep1.converged and rep2.converged and err1 <= 1e-10 and err2 <= 1e-10
          and dt1 < 1.0 and dt2 < 1.0)
    report_line(1, "exact-solution-recovery", ok,
                f"n=1 err {err1:.2e} in {dt1:.2f}s; n=2 err {err2:.2e} in {dt2:.2f}s")


def test_02_manufactured_convergence(t2_64a, t2_32a):
    # the same band-limited u* is exact on both grids; a fixed α keeps the
    # two instances identical up to grid resolution
    u64 = smooth_random_field(t2_64a, seed=31, amplitude=0.3)
    # band-limited: restriction to the coarse grid is exact sampling of u*
    u32 = ScalarField(t2_32a, restrict(u64.values))
    alpha = float(np.floor(np.min(spectral.laplacian(u64).values))) - 10.0

    def build(dom, u_star):
        lap = spectral.laplacian(u_star)
        S = ScalarField(dom, (-lap.values + alpha) * np.exp(-2.0 * u_star.values))
        assert S.max < 0
        return ProblemInstance(S, alpha)

    rep64 = newton_solve(build(t2_64a, u64), ScalarField.constant(t2_64a, 0.0))
    rep32 = newton_solve(build(t2_32a, u32), ScalarField.constant(t2_32a, 0.0))
    err_star = np.max(np.abs(rep64.solution.values - u64.values))
    cross = np.max(np.abs(restrict(rep64.solution.values) - rep32.solution.values))
    ok = rep64.converged and rep32.converged and err_star <= 1e-8 and cross <= 1e-6
    report_line(2, "manufactured-convergence", ok,
                f"recovery {err_star:.2e}, grid change {cross:.2e}")


def test_03_integral_identity(t2_64a, family64):
    S = sine_field(t2_64a, -0.5)
    reports = list(family64)
    insts = [ProblemInstance(S, r.alpha) for r in reports]
    inst_c = ProblemInstance(ScalarField.constant(t2_64a, -1.0), -2.0)
    reports.append(newton_solve(inst_c, ScalarField.constant(inst_c.domain, 0.0)))
    insts.append(inst_c)
    worst = 0.0
    all_negative = True
    for rep, inst in zip(reports, insts):
        assert rep.converged
        worst = max(worst, problem.integral_identity_defect(inst, rep.solution))
        mass = np.sum(inst.S.values * problem.conformal_factor(inst, rep.solution))
        all_negative = all_negative and mass < 0
    ok = worst <= 1e-8 and all_negative
    report_line(3, "integral-identity", ok, f"worst relative defect {worst:.2e}")


def test_04_variational_consistency(t2_32a):
    inst, _ = make_manufactured_neg(t2_32a)
    u = smooth_random_field(t2_32a, seed=101, amplitude=0.3)
    g = 2 * problem.residual(inst, u).values   # the L² gradient of the energy
    w = t2_32a.cell_weight
    t = 1e-4
    worst_g = worst_h = 0.0
    for seed in range(10):
        phi = smooth_random_field(t2_32a, seed=200 + seed)
        up = ScalarField(t2_32a, u.values + t * phi.values)
        um = ScalarField(t2_32a, u.values - t * phi.values)
        pairing = float(np.sum(g * phi.values)) * w
        fd = (problem.energy(inst, up) - problem.energy(inst, um)) / (2 * t)
        worst_g = max(worst_g, abs(fd - pairing) / max(1.0, abs(pairing)))
        H = 2 * problem.linearization(inst, u).apply(phi.values)
        gfd = (2 * problem.residual(inst, up).values
               - 2 * problem.residual(inst, um).values) / (2 * t)
        scale = max(1.0, float(np.max(np.abs(H))))
        worst_h = max(worst_h, float(np.max(np.abs(gfd - H))) / scale)
    ok = worst_g <= 1e-5 and worst_h <= 1e-5
    report_line(4, "variational-consistency", ok,
                f"gradient rel err {worst_g:.2e}, hessian rel err {worst_h:.2e}")


def test_05_stability_of_ordered_solutions(t2_32a):
    inst, _ = make_manufactured_neg(t2_32a)
    inst_tilde = ProblemInstance(inst.S, 2 * inst.alpha)
    warm = newton_solve(inst_tilde, problem.constant_solution(inst_tilde))
    iv = make_interval(inst, warm)
    lam_min = np.inf
    for rep in (monotone_iterate(inst, iv), minimize_over_interval(inst, iv)):
        assert rep.converged
        lam, _ = spectral.min_eigenvalue(problem.stability_potential(inst, rep.solution), 1e-8)
        lam_min = min(lam_min, lam)
    ok = lam_min >= -1e-6
    report_line(5, "stability-of-ordered-solutions", ok, f"min λ_min {lam_min:.3e}")


def test_06_nonpositive_S_always_solvable(t2_32a):
    S = sine_field(t2_32a, -1.5)  # S ≤ −0.5 < 0
    rep = threshold.find_alpha_star(S)
    alphas = [a for a, _ in rep.family]
    ok = (rep.unbounded and alphas == [-1.0, -10.0, -100.0, -1000.0]
          and all(r.converged for _, r in rep.family))
    report_line(6, "nonpositive-S-always-solvable", ok,
                f"solved at α ∈ {alphas}")


def test_07_finite_threshold_with_oracle(threshold64):
    S64, rep, elapsed = threshold64
    t2_16 = make_torus(2, [16, 16], [1.0, 1.0])
    t0 = time.perf_counter()
    lo, hi = dense_alpha_star(sine_field(t2_16, -0.5).values, 1, t2_16, tol=1e-3)
    elapsed += time.perf_counter() - t0
    dense_est = 0.5 * (lo + hi)
    rel = abs(rep.estimate - dense_est) / abs(dense_est)
    ok = rep.width <= 1e-3 and rel <= 0.05 and elapsed < 60.0
    report_line(7, "finite-threshold-bracket", ok,
                f"bracket [{rep.lo:.5f}, {rep.hi:.5f}], oracle gap {rel:.1%}, "
                f"{elapsed:.1f}s")


def test_08_lambda_star_containment(t2_32a):
    g0s = {
        "cos1_shifted": named_field(t2_32a, "cos1", shift_max_zero=True),
        "two_mode_shifted": named_field(t2_32a, "two_mode", shift_max_zero=True),
        "random_p3_shifted": named_field(t2_32a, "random_fourier", seed=3, decay_p=3.0,
                                         shift_max_zero=True),
    }
    details = []
    ok = True
    for name, g0 in g0s.items():
        rep = threshold.ding_liu_lambda_star(g0, -1.0, tol=1e-2)
        inside = 0.0 < rep.lo < rep.hi < -g0.min
        ok = ok and inside
        details.append(f"{name}: [{rep.lo:.3f},{rep.hi:.3f}] ⊂ (0,{-g0.min:.3f})")
    report_line(8, "lambda-threshold-containment", ok, "; ".join(details))


def test_09_apriori_bound_two_cutoffs(t2_64a, threshold64, family64):
    S, rep, _ = threshold64
    phi_auto, K_auto = diagnostics.auto_cutoff_region(S)
    # second, hand-placed cutoff strictly inside {S < 0} (sin(2πx₀) < 0.5
    # away from x₀ ∈ (1/12, 5/12))
    center = (0.75, 0.3)
    phi2 = make_cutoff(t2_64a, center, 0.08, 0.16)
    K2 = ball_mask(t2_64a, center, 0.07)
    ok = True
    details = []
    for phi, K, tag in ((phi_auto, K_auto, "auto"), (phi2, K2, "manual")):
        cert = diagnostics.apriori_c0_bound(S, rep.lo, phi, K)
        holds = cert.check_family([(r.alpha, r) for r in family64])
        ok = ok and holds
        margin = min(cert.margin(r.solution) for r in family64)
        details.append(f"{tag}: bound {cert.bound_on_sup_u:.3f}, min margin {margin:.3f}")
    report_line(9, "apriori-sup-bound", ok, "; ".join(details))


def test_10_limit_family_bounded(t2_64a, threshold64, family64):
    S, rep, _ = threshold64
    _, K = diagnostics.auto_cutoff_region(S)
    ok = len(family64) == 8 and all(r.converged for r in family64)
    diag = diagnostics.family_table([(r.alpha, r) for r in family64], K)
    gap = family64[-1].alpha - rep.hi
    ok = ok and all(diag.verdicts.values())
    failing = [k for k, v in diag.verdicts.items() if not v]
    report_line(10, "limit-family-bounded", ok,
                f"verdicts all pass, nearest member at α★+{gap:.2e} converged"
                if ok else f"failing verdicts: {failing}")


def test_11_negative_controls(t2_32a, tmp_path, capsys):
    from kwlab.cli import _injected_family

    S = ScalarField.constant(t2_32a, -1.0)   # the CLI's field=const field_value=-1.0
    down = _injected_family(S, -1.0, 8)
    up = _injected_family(S, 1.0, 8)
    K = ball_mask(t2_32a, (0.5, 0.5), 0.2)
    lower_fails = not diagnostics.family_table(down, K).verdicts["lower_bound"]
    supinf_fails = not diagnostics.family_table(up, K).verdicts["sup_inf"]
    codes = []
    for inject in ("diverge_down", "diverge_up"):
        code = cli_main([
            "diagnose", "--out", str(tmp_path / inject),
            "field=const", "field_value=-1.0", "sizes=32,32",
            f"inject={inject}", "count=6",
        ])
        codes.append(code)
    capsys.readouterr()
    ok = lower_fails and supinf_fails and codes == [2, 2]
    report_line(11, "negative-controls", ok,
                f"lower-bound fails: {lower_fails}, sup+inf fails: {supinf_fails}, "
                f"exit codes {codes}")


def test_12_determinism(tmp_path, capsys):
    # no output depends on where it is written: two runs' directories agree
    # byte for byte
    args = ["field=random_fourier", "field_seed=7", "field_p=3",
            "field_offset=-1.2", "alpha=-1.0", "sizes=64,64"]
    for name in ("a", "b"):
        code = cli_main(["solve", "--out", str(tmp_path / name), *args])
        assert code == 0
    capsys.readouterr()
    a, b = read_tree(tmp_path / "a"), read_tree(tmp_path / "b")
    differ = sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))
    ok = len(a) > 0 and differ == []
    report_line(12, "determinism", ok, f"{len(a)} files, differing: {differ}")
