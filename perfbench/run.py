"""Benchmark for radialcal: model comparison, point undistortion, wide calibration.

Run one workload from the repository root:

    python3 perfbench/run.py --workload compare-trend --seed 20240817 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` wraps the
library's public functions in spans and reports the per-layer metrics.
``--workload all`` runs every workload in turn. The last line of standard
output is one JSON object (correct, attempted, failed, metrics); the lines
before it list every metric with its unit. Each run also appends a full
record (metrics, details, sizes, environment) to ``--record``.

Compare two record files, for example a parent and a change:

    python3 perfbench/run.py --compare parent.jsonl change.jsonl
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
DEFAULT_SEED = 20240817
SETUP_REPEATS = 3
# A measuring loop never starts a new pass after this many seconds, so a run
# ends well inside its time limit even when passes run slow.
HARD_STOP_S = 120.0
# The traced run stops adding passes once this many spans are held.
SPAN_CAP = 1_000_000


def import_library():
    """Import radialcal from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "radialcal" / "__init__.py").is_file():
        raise SystemExit(f"error: no radialcal sources under {src}")
    sys.path.insert(0, str(src))
    import radialcal

    if Path(radialcal.__file__).resolve().parent != src / "radialcal":
        raise SystemExit(f"error: radialcal imported from {radialcal.__file__}")


def blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "blas_thread_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
    }


def metric_meta() -> dict:
    meta = {}
    for kind in ("end_to_end", "per_layer"):
        for m in BENCH[kind]:
            meta[m["name"]] = {"unit": m["unit"], "better": m["better"],
                               "bound": m.get("bound"), "kind": kind}
    return meta


def trimmed_mean(values) -> float:
    """Mean after dropping the lowest and highest tenth of the values.

    On a shared host the speed can switch between two levels every second
    or so; a mean over samples spread across the run integrates both, where
    a median of a few samples jumps from one level to the other.
    """
    v = sorted(values)
    k = len(v) // 10
    return statistics.fmean(v[k:len(v) - k])


def measure(wl, seconds: float, min_passes: int, checks, between=None):
    """Run passes until the time is used up; call between() after each.

    Stops before a pass that would end past ``seconds`` (judged by the last
    pass), but not before ``min_passes`` passes.
    """
    passes = []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        try:
            passes.append(wl.run_pass(checks))
        except Exception:
            checks.attempted += 1
            checks.failed += 1
            traceback.print_exc()
        now = time.perf_counter()
        elapsed, last = now - t_start, now - t0
        if between is not None:
            between()
        if elapsed >= HARD_STOP_S:
            break
        if len(passes) >= min_passes and elapsed + last > seconds:
            break
    return passes


def layer_metrics(tracer, n_passes: int) -> dict:
    from tracing import LAYERS

    self_s = tracer.self_times()
    calls = tracer.calls()
    per = 1.0 / max(n_passes, 1)
    c = tracer.counts
    evals = c.get("refine_evaluations", 0)
    iters = c.get("refine_iterations", 0)
    out = {
        "calibration.refine_self_s": self_s.get("calibration.refine", 0.0) * per,
        "calibration.refine_evaluations": evals * per,
        "calibration.refine_iterations": iters * per,
        "calibration.evals_per_iteration": evals / iters if iters else 0.0,
        "cli.undistort_points_self_s": sum(
            v for k, v in self_s.items() if k.startswith("cli.")) * per,
        "core.rotation_to_matrix_calls": calls.get("core.rotation_to_matrix", 0) * per,
        "trace.spans_per_pass": len(tracer) * per,
    }
    for layer in LAYERS[:-1]:  # cli reads as cli.undistort_points_self_s
        out[f"{layer}.self_s"] = sum(
            v for k, v in self_s.items() if k.startswith(layer + ".")) * per
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, workroot: Path) -> dict:
    import workloads

    wl = workloads.WORKLOADS[name]()
    checks = workloads.Checks()
    setups = []
    last_setup = [0.0]

    def timed_setup():
        t0 = time.perf_counter()
        wl.setup(seed, workroot)
        last_setup[0] = time.perf_counter()
        setups.append(last_setup[0] - t0)

    def spread_setup():
        # Set-up samples are spread over the run, three at a time about every
        # eighth of it: single samples between long passes vary up to 2.5x.
        if time.perf_counter() - last_setup[0] >= seconds / 8:
            for _ in range(SETUP_REPEATS):
                timed_setup()

    wl.setup(seed, workroot)  # warm-up: first-call costs are not set-up time
    for _ in range(SETUP_REPEATS):
        timed_setup()
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "sizes": wl.sizes(),
    }
    if not trace:
        passes = measure(wl, seconds, 3, checks, between=spread_setup)
        metrics = {}
        if passes:
            task_s, details = wl.summary(passes)
            metrics = {"setup_s": trimmed_mean(setups), "task_s": task_s}
            record["details"] = {k: v for k, (v, _) in details.items()}
            record["detail_units"] = {k: u for k, (_, u) in details.items()}
        record["passes"] = len(passes)
        record["pass_s"] = [p["s"] for p in passes]
    else:
        from tracing import Tracer

        # Untraced passes first, for the tracing overhead, then traced ones
        # over the same inputs.
        plain = measure(wl, 0.3 * seconds, 1, checks)
        wl.rewind()
        tracer = Tracer()
        tracer.install()
        try:
            traced = []
            t_start = time.perf_counter()
            while True:
                traced.extend(measure(wl, 0.0, 1, checks))
                elapsed = time.perf_counter() - t_start
                if (elapsed * (1 + 1 / max(len(traced), 1)) > 0.7 * seconds
                        or len(tracer) > SPAN_CAP or elapsed > HARD_STOP_S):
                    break
        finally:
            tracer.uninstall()
        metrics = {}
        if plain and traced:
            metrics = layer_metrics(tracer, len(traced))
            metrics["trace.overhead_ratio"] = (
                statistics.fmean(p["s"] for p in traced)
                / statistics.fmean(p["s"] for p in plain)
            )
        metrics.update(wl.micro())
        tracer.write(ROOT / ".bench_out" / f"trace-{name}.npz")
        record["passes"] = len(traced)
        record["untraced_passes"] = len(plain)
    kind = "per_layer" if trace else "end_to_end"
    wanted = [m["name"] for m in BENCH[kind]]
    missing = [m for m in wanted if m not in metrics]
    if trace:
        # A layer this workload never enters reads 0.
        for m in missing:
            metrics[m] = 0.0
    elif missing:
        checks.attempted += 1
        checks.failed += 1
        print(f"error: no value for {missing}", file=sys.stderr)
    record["metrics"] = {m: metrics.get(m) for m in wanted}
    record["setup_samples_s"] = setups
    record["attempted"] = checks.attempted
    record["failed"] = checks.failed
    record["fail_ratio"] = checks.failed / max(checks.attempted, 1)
    return record


def print_record(rec: dict, meta: dict) -> None:
    print(f"# workload {rec['workload']} seed {rec['seed']} trace {rec['trace']} "
          f"passes {rec['passes']} sizes {json.dumps(rec['sizes'])}")
    for name, value in rec["metrics"].items():
        print(f"{name}\t{value}\t{meta[name]['unit']}")
    for name, value in rec.get("details", {}).items():
        print(f"{name}\t{value}\t{rec['detail_units'][name]}")
    print(f"fail_ratio\t{rec['fail_ratio']}\t1 ({rec['failed']} failed of "
          f"{rec['attempted']} checks)")


def result_line(records: list[dict], meta: dict) -> str:
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    metrics = {}
    for r in records:
        prefix = "" if len(records) == 1 else r["workload"] + "/"
        for name, value in r["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": meta[name]["unit"]}
    ok = failed == 0 and attempted > 0 and all(
        v["value"] is not None for v in metrics.values())
    return json.dumps({"correct": ok, "attempted": max(attempted, 1),
                       "failed": failed, "metrics": metrics})


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], better: str, bound) -> str:
    if bound is None:
        return "-"
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    if am == 0:
        return "unresolved"
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (bm - am) / abs(am)
    spread = max((a3 - a1) / abs(am), (b3 - b1) / abs(bm) if bm else 0.0)
    b_wins = all(sign * (y - x) < 0 for x in a for y in b)
    b_loses = all(sign * (y - x) > 0 for x in a for y in b)
    if spread > bound:
        # Too noisy to tell, unless every run of B beats or loses to every run of A.
        if b_loses and worse > bound:
            return "regressed"
        if b_wins:
            return "improved" if worse < -bound else "unchanged"
        return "unresolved"
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "unchanged"


def compare(path_a: str, path_b: str) -> int:
    meta = metric_meta()

    def load(path):
        groups = {}
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            rec = json.loads(line)
            for name, unit in rec.get("detail_units", {}).items():
                meta.setdefault(name, {"unit": unit, "better": None, "bound": None})
            for name, value in {**rec["metrics"], **rec.get("details", {})}.items():
                if isinstance(value, (int, float)):
                    groups.setdefault((rec["workload"], name), []).append(value)
        return groups

    a, b = load(path_a), load(path_b)
    print("workload\tmetric\tunit\tA_q1\tA_median\tA_q3\tB_q1\tB_median\tB_q3\tn_A\tn_B\tverdict")
    for key in sorted(set(a) & set(b)):
        wl, name = key
        m = meta.get(name, {"unit": "?", "better": None, "bound": None})
        qa, qb = quartiles(a[key]), quartiles(b[key])
        v = verdict(a[key], b[key], m["better"], m["bound"])
        cells = [wl, name, m["unit"], *(f"{x:.6g}" for x in (*qa, *qb)),
                 str(len(a[key])), str(len(b[key])), v]
        print("\t".join(cells))
    return 0


def main(argv=None) -> int:
    names = [w["name"] for w in BENCH["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=str(ROOT / ".bench_out" / "runs.jsonl"),
                        help="JSON-lines file each run's full record is appended to")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two record files instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required")

    import_library()
    meta = metric_meta()
    env = environment()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    records = []
    with tempfile.TemporaryDirectory(dir=out_dir, prefix="work-") as tmp:
        for name in names if args.workload == "all" else [args.workload]:
            rec = run_workload(name, args.seed, args.seconds, bool(args.trace), Path(tmp))
            rec["environment"] = env
            rec["metric_meta"] = {m: meta[m] for m in rec["metrics"]}
            records.append(rec)
            print_record(rec, meta)
            if args.workload == "all":
                print(result_line([rec], meta))
    record_path = Path(args.record)
    record_path.parent.mkdir(parents=True, exist_ok=True)
    with open(record_path, "a", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    print(f"# environment {json.dumps(env)}")
    print(result_line(records, meta))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.exit(main())
