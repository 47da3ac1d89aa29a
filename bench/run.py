"""optioncast benchmark: run one workload for a while and report its metrics.

Run from the repository root:

    python3 bench/run.py --workload pipeline_252d --seed 7 --seconds 35 --trace 0

``--seed`` makes the workload's inputs (the quote series, or the separable
dataset); the program only sees those inputs.  The run sets up ``SETUP_REPS``
times (a fresh interpreter importing ``optioncast.cli``, then making the
inputs) and then repeats closed-loop passes for about ``--seconds``, with at
least two passes.  ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics of the traced ones.

Output: a table of every metric with its unit and sample count, then, as the
last line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics of ``BENCHMARK.json``, or with
``--trace 1`` its per-layer metrics).  A full report, and the spans of traced
passes, go to ``.bench_out/``.  The exit code is 0 when the run completed,
whether or not every output check passed, and 2 when it could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: the load is one process, and the solvers and training are
# written as single-threaded numpy.  Must be set before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import tracer  # noqa: E402  (imports neither numpy nor optioncast)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
SETUP_REPS = 7
MIN_PASSES = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment() -> dict:
    import numpy as np

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = git.stdout.strip() or None
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
    }


def set_up(workload, seed: int) -> tuple[object, list[float]]:
    """Time SETUP_REPS cold starts plus input generation; keep the last inputs."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    durations, inputs = [], None
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        # No timeout: with one, Popen.wait polls in sleeps of up to 50 ms.
        subprocess.run([sys.executable, "-c", "import optioncast.cli"], cwd=ROOT, env=env,
                       check=True)
        inputs = workload.make_inputs(seed)
        durations.append(time.perf_counter() - start)
    return inputs, durations


def measure(workload, inputs, seconds: float, trace: bool, work: Path) -> list[dict]:
    """Closed-loop passes for about ``seconds``; odd passes are traced if asked.

    After MIN_PASSES, a pass starts only if a pass of the median length so far
    would end within ``seconds``.
    """
    passes = []
    begin = time.perf_counter()
    while len(passes) < MIN_PASSES or (
        time.perf_counter() - begin + statistics.median(p["wall_s"] for p in passes) <= seconds
    ):
        index = len(passes)
        traced = trace and index % 2 == 1
        out = work / f"pass{index}"
        out.mkdir(parents=True)
        spans = None
        start = time.perf_counter()
        if traced:
            recorder = tracer.Tracer()
            with recorder.installed():
                stages, raw = workload.run_pass(inputs, out, recorder)
            spans = recorder.spans
        else:
            stages, raw = workload.run_pass(inputs, out, tracer.NullTracer())
        wall = time.perf_counter() - start
        outcome = workload.check(inputs, out, raw)
        shutil.rmtree(out, ignore_errors=True)
        passes.append({"traced": traced, "wall_s": wall, "stages": stages,
                       "outcome": outcome, "spans": spans})
    return passes


def summarize(bench: dict, args, env: dict, setup_s: list[float], passes: list[dict]) -> dict:
    first = passes[0]["outcome"].digest
    checks = []
    for i, p in enumerate(passes):
        checks.extend((f"pass {i}: {name}", ok) for name, ok in p["outcome"].checks)
        if i:
            checks.append((f"pass {i}: outputs identical to pass 0", p["outcome"].digest == first))
    failed = [name for name, ok in checks if not ok]

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    table = {  # name -> (value, unit, samples)
        "setup_s": (statistics.median(setup_s), "s", len(setup_s)),
        "wall_s": (statistics.median(p["wall_s"] for p in untraced), "s", len(untraced)),
        "peak_rss_mb": (rss_mb, "MB", 1),
        "fail_frac": (len(failed) / len(checks), "ratio", len(checks)),
    }
    for stage in untraced[0]["stages"]:
        values = [p["stages"][stage] for p in untraced]
        table[f"stage.{stage}_s"] = (statistics.median(values), "s", len(values))
    for key in passes[0]["outcome"].quality:
        values = [p["outcome"].quality[key] for p in passes if key in p["outcome"].quality]
        table[key] = (statistics.median(values), "ratio" if key != "pnl_qrm" else "currency",
                      len(values))

    absent = []
    if args.trace:
        per_pass = [tracer.layer_metrics(p["spans"]) for p in traced]
        for spec in bench["per_layer"]:
            name = spec["name"]
            if name == "trace.overhead_frac":
                ratio = (statistics.median(p["wall_s"] for p in traced)
                         / statistics.median(p["wall_s"] for p in untraced))
                table[name] = (ratio - 1.0, spec["unit"], len(traced))
                continue
            values = [m[name] for m in per_pass if m.get(name) is not None]
            if not values:
                absent.append(name)
            table[name] = (statistics.median(values) if values else 0.0, spec["unit"], len(values))
        reported = bench["per_layer"]
    else:
        reported = bench["end_to_end"]

    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {
            spec["name"]: {"value": table[spec["name"]][0], "unit": spec["unit"]}
            for spec in reported
        },
    }
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "failed_checks": failed,
        "absent": absent, "setup_s": setup_s,
        "table": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in table.items()},
        "passes": [
            {"traced": p["traced"], "wall_s": p["wall_s"], "stages": p["stages"],
             "quality": p["outcome"].quality, "digest": p["outcome"].digest}
            for p in passes
        ],
        "result": result,
    }
    return report


def write_outputs(report: dict, passes: list[dict]) -> None:
    OUT.mkdir(exist_ok=True)
    stem = f"{report['workload']}-seed{report['seed']}-trace{report['trace']}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if report["trace"]:
        spans = [
            [i] + s.to_json() for i, p in enumerate(passes) if p["traced"] for s in p["spans"]
        ]
        with open(OUT / f"{stem}-spans.json", "w") as fh:
            fh.write('{"fields": ["pass", "name", "start", "end", "parent", "stage", "info"],\n')
            fh.write(' "spans": [\n')
            fh.write(",\n".join(json.dumps(s) for s in spans))
            fh.write("\n]}\n")


def print_report(report: dict) -> None:
    env = report["environment"]
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"passes {len(report['passes'])}  trace {report['trace']}")
    for name, row in report["table"].items():
        flag = "  (absent)" if name in report["absent"] else ""
        print(f"  {name:34s} {row['value']:>16.6g} {row['unit']:9s} n={row['samples']}{flag}")
    for name in report["failed_checks"]:
        print(f"  FAILED CHECK: {name}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "optioncast" / "__init__.py").is_file():
        print(f"error: no optioncast sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = workloads.WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        inputs, setup_s = set_up(workload, args.seed)
        passes = measure(workload, inputs, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run is still using it
            pass
    report = summarize(bench, args, environment(), setup_s, passes)
    write_outputs(report, passes)
    print_report(report)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
