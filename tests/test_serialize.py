import json

import numpy as np

from kwlab import ProblemInstance, ScalarField, make_torus
from kwlab.serialize import read_field, report_summary, write_field, write_report
from kwlab.solvers import newton_solve

from oracles import smooth_random_field


def test_field_roundtrip_bitwise(tmp_path, t2_32):
    f = smooth_random_field(t2_32, seed=3)
    write_field(f, tmp_path / "f", label="test")
    g = read_field(tmp_path / "f")
    assert g.domain == t2_32
    assert np.array_equal(f.values, g.values)


def test_field_header_contents(tmp_path):
    dom = make_torus(4, [8] * 4, [1.0, 2.0, 1.0, 1.0])
    f = ScalarField.constant(dom, 1.0)
    write_field(f, tmp_path / "g", label="S")
    header = json.loads((tmp_path / "g.json").read_text())
    assert header == {"d": 4, "sizes": [8] * 4, "lengths": [1.0, 2.0, 1.0, 1.0],
                      "label": "S"}
    raw = (tmp_path / "g.field").read_bytes()
    assert len(raw) == 8 * dom.npoints


def test_report_roundtrip(tmp_path, t2_32):
    inst = ProblemInstance(ScalarField.constant(t2_32, -1.0), -2.0)
    rep = newton_solve(inst, ScalarField.constant(inst.domain, 0.0))
    path = write_report(rep, tmp_path / "run")
    payload = json.loads(path.read_text())
    assert payload["converged"] is True
    assert payload["method"] == "newton"
    assert payload["alpha"] == -2.0
    assert payload["final_residual"] <= 1e-10
    u = read_field(tmp_path / "run_u")
    assert np.array_equal(u.values, rep.solution.values)


def test_report_summary_keys(t2_32):
    inst = ProblemInstance(ScalarField.constant(t2_32, -1.0), -2.0)
    rep = newton_solve(inst, ScalarField.constant(inst.domain, 0.0))
    summary = report_summary(rep)
    assert set(summary) == {
        "converged", "method", "alpha", "iterations", "final_residual",
        "sup_norm_u", "energy", "min_eig", "failure_reason",
    }
    assert json.dumps(summary)  # JSON-serializable
