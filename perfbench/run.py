#!/usr/bin/env python3
"""Benchmark of the uwdae library: certified detailed solves, offline greedy,
online queries with a detailed fallback.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload rlc-certify --seed 0 --seconds 25 --trace 0

The run imports uwdae from the checkout's ``src`` directory, sets up the
workload several times, does one untimed warm-up operation, then runs a
closed loop with one client for ``--seconds`` of wall time.  Every output
is checked, untimed.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json and ``--trace 1`` its
per-layer metrics.  Lines before it carry provenance, the refinement probe
and, with tracing, the path of the span file.  Exit code 0 means every
check passed, 1 that one failed, 2 that uwdae could not be imported.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# set-up runs at least SETUP_REPEATS times and for at least SETUP_SECONDS;
# the first set-ups in a process run cold, the median skips them
SETUP_REPEATS = 3
SETUP_SECONDS = 3.0
LAYERS = ("bench", "system_model", "temporal", "assembly", "detailed", "rbm", "workload")
# layer calls reported as median seconds (.s) and call count (.count)
TIMED_CALLS = (
    "bench.make_rlc",
    "bench.make_stokes_like",
    "system_model.kernel_basis",
    "temporal.build_grams",
    "temporal.build_grams_2k",
    "assembly.assemble_stiffness",
    "assembly.assemble_rhs_operator",
    "detailed.DetailedOperator",
    "detailed.estimator_detailed",
    "detailed.evaluate_state",
    "detailed.l2_error",
    "rbm.control_rhs_family",
    "rbm.reduced_solve",
    "rbm.estimator_online",
    "rbm.save_model",
    "rbm.load_model",
)
PEAK_CALLS = (
    "temporal.build_grams",
    "temporal.build_grams_2k",
    "assembly.assemble_stiffness",
    "detailed.estimator_detailed",
)
TAIL_CALLS = ("rbm.reduced_solve", "rbm.estimator_online")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_uwdae():
    """Import uwdae from this checkout's sources, never from elsewhere."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import uwdae

    if not Path(uwdae.__file__).resolve().is_relative_to(src):
        raise ImportError(f"uwdae resolved to {uwdae.__file__}, outside {src}")


def tail(values) -> float:
    """p99 when at least ten samples lie beyond it, else the maximum."""
    import numpy as np

    return float(np.percentile(values, 99)) if len(values) >= 1000 else max(values)


def blas_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        try:
            get = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_int
        threads = get()
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def git_commit() -> str:
    """HEAD read from the checkout's own .git; "unknown" when it has none."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def src_digest() -> str:
    """SHA-256 over the package sources: identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "uwdae").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def provenance(args, wl) -> dict:
    import numpy as np
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "commit": git_commit(),
        "src_sha256": src_digest(),
        "sizes": wl.sizes(),
    }


def end_to_end(wl, run) -> dict:
    lat = run["lat"]
    certify, offline = wl.headline(lat, run["stages"], run["setup_stages"])
    return {
        "setup_s": statistics.median(run["setup_s"]),
        "certify_s": certify,
        "offline_s": offline,
        "queries_per_s": len(lat) / sum(lat),
        "query_p50_ms": 1e3 * statistics.median(lat),
        "query_p99_ms": 1e3 * tail(lat),
        "peak_rss_mb": run["peak_rss_mb"],
    }


def per_layer(wl, tr, run, probe_failed) -> dict:
    from tracer import median_or_zero

    dur, peaks = tr.durations(), tr.peaks()
    out = {}
    for name in TIMED_CALLS:
        out[name + ".s"] = median_or_zero(dur[name])
        out[name + ".count"] = len(dur[name])
    for name in PEAK_CALLS:
        out[name + ".peak_mb"] = peaks.get(name, 0.0)
    for name in TAIL_CALLS:
        out[name + ".p99_s"] = tail(dur[name]) if dur[name] else 0.0
    first, cached = dur["detailed.solve_load.first"], dur["detailed.solve_load"]
    out["detailed.solve_load.first_s"] = median_or_zero(first)
    out["detailed.solve_load.s"] = median_or_zero(cached)
    factor = statistics.median(first) - statistics.median(cached) if first and cached else 0.0
    out["detailed.factor.s"] = factor
    probed = probe_failed is not None
    out["detailed.solve_load.count"] = len(first) + len(cached) + probed
    out["detailed.solve_load.failed"] = (
        tr.failures("detailed.solve_load.first") + tr.failures("detailed.solve_load") + bool(probe_failed)
    )
    # the greedy factorizes lazily; the factorization is reported on its own
    greedy = dur["rbm.greedy"]
    out["rbm.greedy.s"] = statistics.median(greedy) - factor if greedy else 0.0
    out["rbm.greedy.count"] = len(greedy)
    for layer, seconds in tr.self_time_per_op("workload.op", LAYERS).items():
        out[layer + ".self_s"] = seconds
    traced = [t for t, on in zip(run["lat"], run["traced"]) if on]
    untraced = [t for t, on in zip(run["lat"], run["traced"]) if not on]
    out["tracing.overhead_ms"] = 1e3 * (statistics.median(traced) - statistics.median(untraced))
    sizes = ("detailed.dim", "rbm.greedy.N", "rbm.greedy.steps", "rbm.riesz_solves", "rbm.certified_share")
    out.update(dict.fromkeys(sizes, 0))
    out.update(wl.layer_extras(run["stages"]))
    return out


def measure(args, wl, tr) -> tuple[dict, list[str]]:
    """Set up, warm up and run the closed loop; returns samples and check failures."""
    run = {"setup_s": [], "setup_stages": [], "lat": [], "stages": [], "traced": []}
    tr.enabled = bool(args.trace)
    while len(run["setup_s"]) < SETUP_REPEATS or sum(run["setup_s"]) < SETUP_SECONDS:
        tr.op = f"setup-{len(run['setup_s'])}"
        with tr.span("workload.setup"):
            t0 = time.perf_counter()
            run["setup_stages"].append(wl.setup(tr))
            run["setup_s"].append(time.perf_counter() - t0)
    inputs = wl.inputs()
    tr.enabled = False
    wl.operation(next(inputs), tr)  # warm-up, untimed and unchecked

    failures = []
    min_ops = 2 if args.trace else 1  # a traced run compares traced with untraced ops
    start = time.perf_counter()
    i = 0
    while i < min_ops or time.perf_counter() - start < args.seconds:
        x = next(inputs)
        # in a traced run every other operation runs untraced: their
        # difference is the tracing overhead
        tr.enabled = bool(args.trace) and i % 2 == 0
        tr.op = i
        try:
            with tr.span("workload.op"):
                t0 = time.perf_counter()
                out, stage = wl.operation(x, tr)
                t1 = time.perf_counter()
            with tr.span("workload.check"):
                msg = wl.check(out, tr)
        except Exception:
            msg = f"operation {i} raised:\n{traceback.format_exc()}"
        else:
            run["lat"].append(t1 - t0)
            run["stages"].append(stage)
            run["traced"].append(tr.enabled)
        if msg:
            failures.append(msg)
        i += 1
    run["attempted"] = i
    run["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        tr.enabled = True
        tr.op = "sweep"
        with tr.span("workload.sweep"):
            wl.sweep(tr)
    tr.enabled = False
    return run, failures


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_uwdae()
        import workloads
        from tracer import Tracer
    except ImportError as exc:
        print(f"cannot import uwdae from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work_root = ROOT / ".bench_work"
    workdir = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        tr = Tracer()
        run, failures = measure(args, wl, tr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = run["attempted"]
    probe = wl.probe()  # after every timing and the peak-RSS reading
    probe_failed = None
    if probe is not None:
        # a refusal by the solver is reported in the probe record and in
        # detailed.solve_load.failed, not as a failed operation; a probe
        # that solves is an operation whose output is checked
        record, msg = probe
        probe_failed = not record["ok"]
        attempted += record["ok"]
        if msg:
            failures.append(msg)
        print(json.dumps({"probe": record}))

    print(json.dumps({"provenance": provenance(args, wl)}))
    if args.trace:
        trace_path = work_root / f"trace-{args.workload}-seed{args.seed}.json"
        tr.write(trace_path)
        print(json.dumps({"trace_file": str(trace_path.relative_to(ROOT)), "spans": len(tr.spans)}))
        values, names = per_layer(wl, tr, run, probe_failed), spec["per_layer"]
    else:
        values, names = end_to_end(wl, run), spec["end_to_end"]
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in names}
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
