"""Benchmark of the ifpsync command line.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. For the chosen workload (by default every
workload BENCHMARK.json lists, one after another) it writes the seeded inputs
(workloads.py) to a work directory and computes the independent reference
(oracle.py). Then, for about S seconds in all, it times SETUP_REPS fresh
interpreters importing ifpsync.cli and repeats one CLI invocation in a fresh
worker interpreter (worker.py), and afterwards checks every invocation's
outputs against the reference.

--trace 0 reports the end-to-end metrics: medians over the invocations of
run_s (wall time of the call to ifpsync.cli.main, JSON load and artifact
writing included) and cpu_s (user + system, pool workers included), the
median setup_s, and peak_rss_mb (largest resident set of any process of the
worker's first invocation, which is what one CLI call uses). --trace 1 splits
the time between an untraced and a traced worker and reports the per-layer
metrics of spans.py, plus the sweep's child CPU time and parallel efficiency
and the tracing overhead; the spans of the first traced invocation are written
to .perfbench_work/spans-*.json as [name, start, end, parent index,
attributes] lists.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. An operation is one invocation, or one entry
of a sweep; fail_frac = failed / attempted. The exit code is 0 only if every
check passed.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracle
from spans import COUNTS, layer_metrics
from workloads import BENCHMARKED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPS = 9
MIN_REPS = 3
# Workers still running this long after the measured time are killed, so a
# run ends within the contract's 180 s even at --seconds 60.
DEADLINE_MARGIN_S = 90


def environment() -> dict:
    """nproc, Python and numpy versions, BLAS library and its thread count."""
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                threads = int(fn())
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": threads,
    }


def time_setup() -> float:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import ifpsync.cli"], env=env, check=True)
    return time.perf_counter() - t0


def invoke(w, ref, work: Path, seconds: float, traced: bool,
           deadline: float) -> tuple[list[dict], list[list[str]]]:
    """Repeated CLI calls in one fresh worker in `work` for about `seconds`,
    killed with its pool workers at `deadline` (a perf_counter time); returns
    the worker's record per call and the failure messages per operation (a
    crashed worker fails one call's operations)."""
    argv = [f"../{a}" if a in w.files else a for a in w.argv]
    cmd = [sys.executable, str(HERE / "worker.py"), str(SRC), "1" if traced else "0",
           repr(seconds), str(MIN_REPS), *argv]
    proc = subprocess.Popen(cmd, cwd=work, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
        if proc.returncode != 0:
            return [], [[f"worker exited {proc.returncode}: {stderr[-400:]}"]] * w.operations
        records, errors = json.loads(stdout.splitlines()[-1]), []
        for k, rec in enumerate(records):
            out = work / f"call{k}"
            errors += oracle.check(w, ref, out, rec["exit_code"],
                                   (out / "stdout.txt").read_text(encoding="utf-8"))
            rec["artifact_bytes"] = sum(p.stat().st_size for p in out.iterdir()
                                        if p.name != "stdout.txt")
        return records, errors
    except subprocess.TimeoutExpired:
        return [], [["worker did not finish in time"]] * w.operations
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
        for out in work.glob("call*"):
            shutil.rmtree(out)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = WORKLOADS[name](seed)
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        for fname, text in w.files.items():
            (work / fname).write_text(text, encoding="utf-8")
        ref = oracle.reference(w)
        start = time.perf_counter()
        deadline = start + seconds + DEADLINE_MARGIN_S
        setup = [] if trace else [time_setup() for _ in range(SETUP_REPS)]
        left = seconds - (time.perf_counter() - start)
        plain, errors = invoke(w, ref, work, left / 2 if trace else left, False, deadline)
        traced = []
        if trace:
            traced, more = invoke(w, ref, work, left / 2, True, deadline)
            errors += more
    finally:
        shutil.rmtree(work, ignore_errors=True)
    messages = [m for e in errors for m in e]
    failed = sum(1 for e in errors if e)
    metrics = (per_layer(w, plain, traced, messages) if trace
               else end_to_end(plain, setup))
    return {"correct": failed == 0 and not messages, "attempted": len(errors),
            "failed": failed, "metrics": metrics, "messages": messages,
            "samples": len(plain) + len(traced), "setup_samples_s": setup,
            "run_samples_s": [r["wall_s"] for r in plain],
            "cpu_samples_s": [r["cpu_s"] for r in plain],
            "traced_run_samples_s": [r["wall_s"] for r in traced],
            "spans": traced[0]["spans"] if traced else None}


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(plain: list[dict], setup: list[float]) -> dict:
    return {
        "run_s": (_median([r["wall_s"] for r in plain]), "s"),
        "cpu_s": (_median([r["cpu_s"] for r in plain]), "s"),
        "setup_s": (_median(setup), "s"),
        # The first call's high-water mark is one CLI invocation's; later calls
        # only add the previous calls' heap layout to it.
        "peak_rss_mb": (max(plain[0]["maxrss_kb"], plain[0]["child_maxrss_kb"]) / 1024.0
                        if plain else 0.0, "MB"),
    }


def per_layer(w, plain: list[dict], traced: list[dict], messages: list[str]) -> dict:
    layers = [layer_metrics(r["spans"]) for r in traced]
    out = {}
    for key in layers[0] if layers else ():
        values = [m[key] for m in layers]
        if key in COUNTS and len(set(values)) > 1:
            messages.append(f"count {key} differs between runs: {values}")
        out[key] = (values[0] if key in COUNTS else _median(values),
                    "count" if key in COUNTS else "MB" if key.endswith("_mb")
                    else "1/s" if key.endswith("_per_s") else "s")
    sizes = {r["artifact_bytes"] for r in plain + traced}
    if len(sizes) > 1:
        messages.append(f"artifact bytes differ between runs: {sorted(sizes)}")
    out["cli.artifact_bytes"] = (min(sizes, default=0), "B")
    run_s = _median([r["wall_s"] for r in plain])
    child = _median([r["child_cpu_s"] for r in plain])
    workers = min(w.operations, os.cpu_count() or 1) if w.operations > 1 else 0
    out["cli.sweep.child_cpu_s"] = (child if workers else 0.0, "s")
    out["cli.sweep.parallel_eff"] = (child / (workers * run_s) if workers else 0.0, "fraction")
    out["trace.overhead_s"] = (_median([r["wall_s"] for r in traced]) - run_s, "s")
    return out


def _emit(name: str, res: dict, env: dict) -> None:
    for key, (value, unit) in res["metrics"].items():
        print(f"perfbench {name} {key} = {value:.6g} {unit}")
    runs = res["run_samples_s"]
    if len(runs) >= 2:
        q1, _, q3 = statistics.quantiles(runs, n=4)
        print(f"perfbench {name} run_s samples: n = {len(runs)}, quartiles {q1:.4g} .. {q3:.4g} s")
    frac = res["failed"] / res["attempted"]
    print(f"perfbench {name} fail_frac = {frac:.6g} (failed {res['failed']} of "
          f"{res['attempted']} operations, {res['samples']} invocations)")
    print(f"perfbench {name} env = {json.dumps(env, sort_keys=True)}")
    for m in res["messages"][:20]:
        print(f"perfbench {name} check failed: {m}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "ifpsync" / "cli.py").is_file():
        print(f"perfbench: program source not found under {SRC}", file=sys.stderr)
        return 2

    env = environment()
    names = list(BENCHMARKED) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        _emit(name, results[name], env)
        WORK.mkdir(exist_ok=True)
        record = {"workload": name, "seed": args.seed, "trace": args.trace, "env": env,
                  **{k: v for k, v in results[name].items() if k not in ("messages", "spans")}}
        (WORK / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        if results[name]["spans"] is not None:
            (WORK / f"spans-{name}-seed{args.seed}.json").write_text(
                json.dumps(results[name]["spans"]) + "\n", encoding="utf-8")

    def metric_dict(name, res):
        prefix = "" if len(names) == 1 else f"{name}."
        return {prefix + k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()}

    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {k: v for n, r in results.items() for k, v in metric_dict(n, r).items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
