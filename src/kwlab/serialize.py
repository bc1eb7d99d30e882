"""File formats: field files (flat little-endian binary + JSON header) and
solve-report JSON."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .domain import ScalarField, make_torus
from .solvers import SolveReport


def write_field(f: ScalarField, base: str | Path, label: str = "") -> Path:
    """Write base.field (little-endian float64, row-major) and base.json."""
    base = Path(base)
    base.parent.mkdir(parents=True, exist_ok=True)
    data = np.ascontiguousarray(f.values, dtype="<f8")
    (base.with_suffix(".field")).write_bytes(data.tobytes())
    header = {
        "d": f.domain.d,
        "sizes": list(f.domain.sizes),
        "lengths": list(f.domain.lengths),
        "label": label,
    }
    base.with_suffix(".json").write_text(json.dumps(header, indent=2) + "\n")
    return base.with_suffix(".field")


def read_field(base: str | Path) -> ScalarField:
    base = Path(base)
    header = json.loads(base.with_suffix(".json").read_text())
    domain = make_torus(header["d"], header["sizes"], header["lengths"])
    raw = base.with_suffix(".field").read_bytes()
    values = np.frombuffer(raw, dtype="<f8").reshape(domain.sizes)
    return ScalarField(domain, values.astype(float))


def report_summary(rep: SolveReport) -> dict:
    return {
        "converged": rep.converged,
        "method": rep.method,
        "alpha": rep.alpha,
        "iterations": rep.iterations,
        "final_residual": rep.residual_history[-1] if rep.residual_history else None,
        "sup_norm_u": rep.solution.sup_norm,
        "energy": rep.energy,
        "min_eig": rep.min_eig,
        "failure_reason": rep.failure_reason,
    }


def write_report(rep: SolveReport, base: str | Path) -> Path:
    base = Path(base)
    write_field(rep.solution, base.with_name(base.name + "_u"), label="u")
    payload = report_summary(rep)
    payload["residual_history"] = rep.residual_history
    payload["solution"] = base.name + "_u.field"
    out = base.with_suffix(".report.json")
    out.write_text(json.dumps(payload, indent=2) + "\n")
    return out
