"""Outside-in layer trace for the kwlab benchmark.

The tracer wraps kwlab's public functions (and the few methods the
per-layer metrics need) from outside the package, runs the workload, and
restores the originals. A layer is a kwlab module. Spans are aggregated as
they close rather than stored: an FFT span closes hundreds of thousands of
times per workload, and every metric below is a sum over spans.

Self time of a span is its duration minus the durations of its direct child
spans. The time of a layer counts only its outermost spans, so a serialize
call nested in another serialize call is not counted twice.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter, defaultdict

_now = time.perf_counter


class _Frame:
    __slots__ = ("name", "layer", "t0", "child", "fft", "residual", "probes")

    def __init__(self, name: str, layer: str):
        self.name = name
        self.layer = layer
        self.t0 = _now()
        self.child = 0.0     # summed duration of direct child spans
        self.fft = 0         # FFT calls under this span
        self.residual = 0    # residual evaluations under this span
        self.probes = 0      # probe_solvable calls directly under this span


class Tracer:
    """Collects per-function calls, inclusive and self time, and the
    counters the per-layer metrics need, while installed."""

    def __init__(self):
        self._stack: list[_Frame] = []
        self._patches: list[tuple[object, str, object]] = []
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.layer_s: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self.timers: defaultdict = defaultdict(float)

    # -- installation ------------------------------------------------------

    def install(self):
        import kwlab
        from kwlab import (cli, diagnostics, domain, fields, problem, serialize,
                           solvers, spectral, threshold)

        modules = [domain, fields, spectral, problem, solvers, threshold,
                   diagnostics, serialize, cli]
        targets = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    targets[obj] = f"{layer}.{attr}"
        # the 1x-then-4x retry wrapper is private but is where retries show
        targets[threshold._probe_twice] = "threshold._probe_twice"
        wrappers = {fn: self._wrap(fn, name) for fn, name in targets.items()}
        # rebind every reference, including names imported with `from .x import`
        for mod in [kwlab, *modules]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])

        for cls, attr, name in (
            (spectral.SpectralPlan, "fft", "spectral.fft"),
            (spectral.SpectralPlan, "ifft", "spectral.ifft"),
            (diagnostics.AprioriBoundCertificate, "check_family",
             "diagnostics.check_family"),
        ):
            self._patch(cls, attr, self._wrap(vars(cls)[attr], name))

        post_init = domain.ScalarField.__post_init__
        counter = self.counters

        def counted_post_init(field):
            counter["domain.fields_made"] += 1
            post_init(field)

        self._patch(domain.ScalarField, "__post_init__", counted_post_init)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, fn, name: str):
        layer = name.split(".", 1)[0]
        stack = self._stack
        close = self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = _Frame(name, layer)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                close(frame, None, exc)
                raise
            close(frame, result, None)
            return result

        return wrapper

    # -- span close: aggregation -------------------------------------------

    def _close(self, frame: _Frame, result, exc):
        dur = _now() - frame.t0
        stack = self._stack
        stack.pop()
        parent = stack[-1] if stack else None
        name = frame.name
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - frame.child
        if parent is None or parent.layer != frame.layer:
            self.layer_s[frame.layer] += dur

        if name in ("spectral.fft", "spectral.ifft"):
            frame.fft += 1
        elif name == "problem.residual":
            frame.residual += 1
        hook = _HOOKS.get(name)
        if hook is not None:
            hook(self, frame, parent, dur, result, exc)

        if parent is not None:
            parent.child += dur
            parent.fft += frame.fft
            parent.residual += frame.residual

    # -- metrics -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        c, t, calls = self.counters, self.timers, self.calls
        fft_calls = calls["spectral.fft"] + calls["spectral.ifft"]
        fft_s = self.self_s["spectral.fft"] + self.self_s["spectral.ifft"]
        probes = calls["threshold.probe_solvable"]
        newton_iters = c["solvers.newton_iters"]
        out = {
            "spectral.fft_calls": fft_calls,
            "spectral.fft_s": fft_s,
            "spectral.fft_pair_us": _ratio(2e6 * fft_s, fft_calls),
            "spectral.eig_calls": calls["spectral.min_eigenvalue"],
            "spectral.eig_s": self.total_s["spectral.min_eigenvalue"],
            "spectral.eig_self_s": self.self_s["spectral.min_eigenvalue"],
            "spectral.eig_fft_pairs": c["spectral.eig_fft"] / 2,
            "spectral.eig_unconverged": c["spectral.eig_unconverged"],
            "spectral.eig_calls_from_cli": c["spectral.eig_from.cli"],
            "spectral.eig_calls_from_diagnostics": c["spectral.eig_from.diagnostics"],
            "spectral.helmholtz_calls": calls["spectral.helmholtz_solve"],
            "problem.residual_calls": calls["problem.residual"],
            "problem.residual_s": self.total_s["problem.residual"],
            "problem.energy_calls": calls["problem.energy"],
            "problem.energy_s": self.total_s["problem.energy"],
            "solvers.newton_calls": calls["solvers.newton_solve"],
            "solvers.newton_s": self.total_s["solvers.newton_solve"],
            "solvers.newton_self_s": self.self_s["solvers.newton_solve"],
            "solvers.newton_iters": newton_iters,
            "solvers.newton_fft_pairs": c["solvers.newton_fft"] / 2,
            "solvers.residuals_per_iter": _ratio(c["solvers.newton_residuals"], newton_iters),
            "solvers.newton_failed": c["solvers.newton_failed"],
        }
        for reason in NEWTON_FAILURE_REASONS:
            out[f"solvers.newton_fail.{reason}"] = c[f"solvers.newton_fail.{reason}"]
        out.update({
            "solvers.monotone_calls": calls["solvers.monotone_iterate"],
            "solvers.monotone_s": self.total_s["solvers.monotone_iterate"],
            "solvers.monotone_iters": c["solvers.monotone_iters"],
            "threshold.probes": probes,
            "threshold.probes_solved": c["threshold.probes_solved"],
            "threshold.probes_failed": probes - c["threshold.probes_solved"],
            "threshold.probe_solved_s": t["threshold.probe_solved_s"],
            "threshold.probe_failed_s": t["threshold.probe_failed_s"],
            "threshold.probe_yield": _ratio(c["threshold.probes_solved"], probes),
            "threshold.retries_4x": c["threshold.retries_4x"],
            "threshold.retries_4x_solved": c["threshold.retries_4x_solved"],
            "threshold.search_s": (self.total_s["threshold.find_alpha_star"]
                                   + self.total_s["threshold.ding_liu_lambda_star"]),
            "diagnostics.family_table_s": self.total_s["diagnostics.family_table"],
            "diagnostics.cutoff_s": self.total_s["diagnostics.auto_cutoff_region"],
            "diagnostics.apriori_s": (self.total_s["diagnostics.apriori_c0_bound"]
                                      + self.total_s["diagnostics.check_family"]),
            "serialize.write_s": self.layer_s["serialize"],
            "domain.fields_made": c["domain.fields_made"],
            "fields.named_field_s": self.total_s["fields.named_field"],
            "cli.run_s": self.total_s["cli.run"],
            "cli.self_s": sum(s for name, s in self.self_s.items() if name.startswith("cli.")),
        })
        return out


NEWTON_FAILURE_REASONS = (
    "max_iters", "stagnation", "linear_solve_stagnation", "line_search_failure",
    "blow_up", "linear_solve_diverged",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _newton(tr: Tracer, frame, parent, dur, rep, exc):
    tr.counters["solvers.newton_fft"] += frame.fft
    tr.counters["solvers.newton_residuals"] += frame.residual
    if rep is None:
        return
    tr.counters["solvers.newton_iters"] += rep.iterations
    if not rep.converged:
        tr.counters["solvers.newton_failed"] += 1
        # "blow_up: <detail>" carries the overflow value after the colon
        reason = (rep.failure_reason or "unknown").split(":", 1)[0]
        tr.counters[f"solvers.newton_fail.{reason}"] += 1


def _monotone(tr: Tracer, frame, parent, dur, rep, exc):
    if rep is not None:
        tr.counters["solvers.monotone_iters"] += rep.iterations


def _probe(tr: Tracer, frame, parent, dur, verdict, exc):
    solved = verdict is not None and verdict.solved
    tr.counters["threshold.probes_solved"] += solved
    tr.timers["threshold.probe_solved_s" if solved else "threshold.probe_failed_s"] += dur
    if parent is not None and parent.name == "threshold._probe_twice":
        if parent.probes:
            tr.counters["threshold.retries_4x"] += 1
            tr.counters["threshold.retries_4x_solved"] += solved
        parent.probes += 1


def _eig(tr: Tracer, frame, parent, dur, result, exc):
    from kwlab.errors import EigenSolveError

    tr.counters["spectral.eig_fft"] += frame.fft
    if isinstance(exc, EigenSolveError):
        tr.counters["spectral.eig_unconverged"] += 1
    caller = next((f.layer for f in reversed(tr._stack) if f.layer != "spectral"), "other")
    tr.counters[f"spectral.eig_from.{caller}"] += 1


_HOOKS = {
    "solvers.newton_solve": _newton,
    "solvers.monotone_iterate": _monotone,
    "threshold.probe_solvable": _probe,
    "spectral.min_eigenvalue": _eig,
}
