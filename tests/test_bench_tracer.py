"""The benchmark's layer tracer (perfbench/layertrace.py) reaches kwlab by
name: it wraps SpectralPlan.fft/ifft, the module-level
spectral.min_eigenvalue, threshold.probe_solvable, threshold._probe_twice
and solvers.newton_solve. This guards those names, checks that the tracer
restores them, and checks that the eigen-solve and Newton FFTs go through
the plan."""

import sys
from pathlib import Path

from kwlab import cli, solvers, spectral, threshold

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from layertrace import Tracer  # noqa: E402


def test_tracer_counts_eigen_and_newton_ffts(tmp_path, capsys):
    def traced():
        return (spectral.SpectralPlan.fft, spectral.SpectralPlan.ifft, spectral.min_eigenvalue,
                threshold.probe_solvable, threshold._probe_twice, solvers.newton_solve)

    originals = traced()
    tracer = Tracer()
    tracer.install()
    try:
        assert all(w is not o for w, o in zip(traced(), originals))
        code = cli.main([
            "family", "--out", str(tmp_path / "fam"), "field=sin1", "field_offset=-0.5",
            "sizes=16,16", "alphas=-1", "with_eigs=true",
        ])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    metrics = tracer.metrics()
    assert metrics["spectral.eig_calls"] == 1
    assert metrics["spectral.eig_fft_pairs"] > 0
    assert metrics["solvers.newton_fft_pairs"] > 0
    assert traced() == originals


def test_tracer_sees_one_failed_probe_per_search(tmp_path, capsys):
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main([
            "threshold", "--out", str(tmp_path / "thr"), "field=sin1", "field_offset=-0.5",
            "sizes=16,16", "tol=1e-3",
        ])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    metrics = tracer.metrics()
    # the bootstrap is the one probe; the failed end, past the solved fold, is
    # one Newton solve warm from the solvable end, stopped at its floor budget
    assert metrics["threshold.probes_solved"] == metrics["threshold.probes"] == 1
    assert metrics["solvers.newton_failed"] == 1
    assert metrics["solvers.newton_fail.max_iters"] == 1
    assert metrics["solvers.newton_fail.stagnation"] == 0
    assert metrics["threshold.search_s"] > 0
