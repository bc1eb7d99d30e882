#!/usr/bin/env python3
"""kwlab benchmark: runs one workload in-process through `kwlab.cli.main`,
checks every output, and prints the metrics.

    python3 perfbench/run.py --workload bracket-2d --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

With --trace 0 the last stdout line is a JSON object holding the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of one traced pass,
plus the tracing overhead. --smoke shrinks every workload to seconds. Run
from anywhere; kwlab is imported from the `src` directory next to this
directory, and outputs go to `.perfbench_out` there.
"""

import os

# kwlab is single-threaded; pin BLAS/OpenMP before numpy loads so a second
# process on the machine cannot turn library threads into contention.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("bracket-2d", "diagnose-2d", "family-4d")
MODES = ("threshold", "dingliu", "diagnose", "family")
SETUP_SAMPLES = 5   # one in-process set-up plus four in fresh processes
# the machine's speed drifts by tens of percent over seconds; three passes
# let each case's median drop one slow sample
MIN_PASSES = 3
# reference blocks (hostspeed.py) timed before each case: one per half
# second the case took in the last pass, so that they sample the host in
# proportion to the time the cases spend on it, and at least two. One 50 ms
# block alone varies by half between neighbours, so a run needs tens of them.
BLOCK_EVERY_S = 0.5
MIN_BLOCKS = 2

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units(names):
    units = {}
    for name in names:
        if name.endswith("_s"):
            units[name] = "s"
        elif name.endswith("_us"):
            units[name] = "us"
        elif name.endswith("bytes"):
            units[name] = "B"
        elif name.endswith(("_yield", "_share", "_per_iter")):
            units[name] = "ratio"
        else:
            units[name] = "count"
    return units


def setup(workload: str, seed: int, smoke: bool):
    """Import kwlab from this checkout and build the workload's cases."""
    if not (SRC / "kwlab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no kwlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import kwlab
    import kwlab.cli  # noqa: F401
    if Path(kwlab.__file__).resolve().parent != SRC / "kwlab":
        raise SystemExit(f"perfbench: imported kwlab from {kwlab.__file__}, not {SRC}")
    import workloads

    return workloads, workloads.CASES[workload](seed, smoke)


def this_command(args, workload: str, *extra: str) -> list[str]:
    """This script with the run's seed and size, for a fresh process."""
    return [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), *(["--smoke"] if args.smoke else []), *extra]


def setup_in_fresh_process(args) -> tuple[float, float]:
    proc = subprocess.run(this_command(args, args.workload, "--setup-only"),
                          capture_output=True, text=True, timeout=120, check=True)
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    return sample["setup_s"], sample["block_s"]


def run_case(cli, workloads, case, out: Path) -> dict:
    """One timed CLI call followed by its (untimed) output check."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(case.argv(out))
    except (Exception, SystemExit):
        seconds = time.perf_counter() - t0
        traceback.print_exc()
        return {"case": case.name, "mode": case.mode, "seconds": seconds,
                "problems": ["raised an exception"], "summary": None}
    seconds = time.perf_counter() - t0
    try:
        summary = json.loads(buf.getvalue().strip().splitlines()[-1])
        problems = workloads.check(case, code, summary, out)
    except (ValueError, IndexError, KeyError, OSError) as exc:
        summary, problems = None, [f"unreadable output: {exc!r}"]
    files = [p for p in out.rglob("*") if p.is_file()]
    record = {"case": case.name, "mode": case.mode, "seconds": seconds, "exit_code": code,
              "problems": problems, "summary": summary, "files": len(files),
              "bytes": sum(p.stat().st_size for p in files)}
    shutil.rmtree(out, ignore_errors=True)
    return record


def block_count(last_seconds: float | None) -> int:
    if last_seconds is None:
        return MIN_BLOCKS
    return max(MIN_BLOCKS, round(last_seconds / BLOCK_EVERY_S))


def run_pass(cli, workloads, cases, workdir: Path, label: str,
             block, blocks: list, last: list[dict] | None) -> list[dict]:
    """Every case once, each after reference blocks appended to `blocks`;
    `last` is the previous pass, whose case times set the block counts."""
    records = []
    for i, case in enumerate(cases):
        blocks.extend(block() for _ in range(block_count(last and last[i]["seconds"])))
        records.append(run_case(cli, workloads, case, workdir / f"{label}-c{i}"))
    return records


def environment(seed: int) -> dict:
    import numpy
    import scipy

    model = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "seed": seed,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="seconds-long sizes")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args)

    t0 = time.perf_counter()
    workloads, cases = setup(args.workload, args.seed, args.smoke)
    setup_raw = time.perf_counter() - t0
    import hostspeed

    # (set-up seconds, mean of the reference blocks right after it)
    setup_samples = [(setup_raw, hostspeed.block_mean())]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_samples[0][0], "block_s": setup_samples[0][1]}))
        return 0
    setup_samples += [setup_in_fresh_process(args) for _ in range(SETUP_SAMPLES - 1)]

    import kwlab.cli as cli

    workdir = OUT / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    passes, blocks = [], []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        passes.append(run_pass(cli, workloads, cases, workdir, f"p{len(passes)}",
                               hostspeed.block, blocks, passes[-1] if passes else None))

    traced = None
    if args.trace:
        import layertrace

        tracer = layertrace.Tracer()
        tracer.install()
        traced_blocks = []
        try:
            traced, before = [], tracer.metrics()
            for i, case in enumerate(cases):
                count = block_count(passes[-1][i]["seconds"])
                traced_blocks.extend(hostspeed.block() for _ in range(count))
                traced.append(run_case(cli, workloads, case, workdir / f"traced-c{i}"))
                # per-case share of the additive metrics, for the record file
                after = tracer.metrics()
                traced[-1]["layers"] = {
                    k: v - before[k] for k, v in after.items()
                    if v != before[k] and not k.endswith(("_us", "_yield", "_per_iter"))}
                before = after
        finally:
            tracer.uninstall()
    shutil.rmtree(workdir, ignore_errors=True)

    records = [r for p in passes + ([traced] if traced else []) for r in p]
    # identical inputs must give identical outputs, traced or not
    for i, case in enumerate(cases):
        first = passes[0][i]["summary"]
        for p in passes[1:] + ([traced] if traced else []):
            if p[i]["summary"] != first and not p[i]["problems"]:
                p[i]["problems"].append("output differs from the first pass")
    failed = sum(1 for r in records if r["problems"])

    # times at the reference host speed: measured seconds scaled by the
    # reference block's time next to them (hostspeed.py)
    ref = hostspeed.REF_BLOCK_S
    scale = ref / hostspeed.typical(blocks)
    case_raw_s = [statistics.median(p[i]["seconds"] for p in passes) for i in range(len(cases))]
    case_s = [s * scale for s in case_raw_s]
    mode_s = {m: sum(s for s, case in zip(case_s, cases) if case.mode == m) for m in MODES}
    e2e = {
        "wall_s": sum(case_s),
        "setup_s": statistics.median(seconds * ref / block for seconds, block in setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    measured = {
        "wall_s": sum(case_raw_s),
        "setup_s": statistics.median(seconds for seconds, _ in setup_samples),
        "block_typical_s": hostspeed.typical(blocks),
    }
    per_layer = None
    if traced:
        traced_wall = sum(r["seconds"] for r in traced) * ref / hostspeed.typical(traced_blocks)
        per_layer = tracer.metrics()
        per_layer.update({f"cli.{m}_s": mode_s[m] for m in MODES})
        per_layer.update({
            "serialize.files": sum(r.get("files", 0) for r in traced),
            "serialize.bytes": sum(r.get("bytes", 0) for r in traced),
            "trace.traced_wall_s": traced_wall,
            "trace.overhead_s": traced_wall - e2e["wall_s"],
            "trace.overhead_share": (traced_wall - e2e["wall_s"]) / e2e["wall_s"],
        })

    env = environment(args.seed)
    report(args, env, passes, traced, e2e, measured, mode_s, per_layer, failed, len(records))
    metrics = per_layer if traced else e2e
    units = per_layer_units(metrics) if traced else END_TO_END
    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "smoke": args.smoke, "environment": env, "ref_block_s": hostspeed.REF_BLOCK_S,
        "setup_samples_s": [seconds for seconds, _ in setup_samples],
        "setup_blocks_s": [block for _, block in setup_samples], "blocks_s": blocks,
        "case_median_raw_s": case_raw_s, "case_median_s": case_s, "end_to_end": e2e,
        "measured": measured,
        "mode_s": {m: s for m, s in mode_s.items() if s}, "per_layer": per_layer,
        "cases": [{k: v for k, v in r.items() if k != "summary"} for r in records],
    }
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def report(args, env, passes, traced, e2e, measured, mode_s, per_layer, failed, attempted):
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}"
          f"{' smoke' if args.smoke else ''}: {len(passes)} pass(es), "
          f"numpy {env['numpy']}, scipy {env['scipy']}, {env['nproc']} cpus, "
          f"BLAS/OpenMP threads 1")
    for i, p in enumerate(passes + ([traced] if traced else [])):
        label = "traced" if traced is not None and p is traced else f"pass {i + 1}"
        for r in p:
            status = "ok" if not r["problems"] else "FAILED: " + "; ".join(r["problems"])
            print(f"  {label:7s} {r['case']:34s} {r['seconds']:9.3f} s  {status}")
    print(f"  reference block typical {measured['block_typical_s']:.4f} s; wall_s, setup_s and "
          f"the <mode>_s times are scaled to the reference speed (hostspeed.py)")
    for name, unit in END_TO_END.items():
        print(f"  {name:34s} {e2e[name]:12.4f} {unit}")
    for name in ("wall_s", "setup_s"):
        print(f"  {name + ' as measured':34s} {measured[name]:12.4f} s")
    print(f"  {'failed_share':34s} {failed / attempted:12.4f} ({failed}/{attempted} cases)")
    for mode, seconds in mode_s.items():
        if seconds:
            print(f"  {mode + '_s':34s} {seconds:12.4f} s")
    if per_layer:
        units = per_layer_units(per_layer)
        for name, value in per_layer.items():
            print(f"  {name:34s} {value:12.4f} {units[name]}")
    print(json.dumps({"environment": env}))


def run_all(args) -> int:
    """Each workload in its own process, so set-up and memory stay per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = this_command(args, workload, "--seconds", str(args.seconds),
                           "--trace", str(args.trace))
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {workload} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
