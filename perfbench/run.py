"""Benchmark of pointvb: run one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload pretrain_hot --seed 1 --seconds 30 --trace 0

Run from the root of a pointvb checkout; the program is imported from its
src/. Workloads are listed in BENCHMARK.json and defined in workloads.py.

--trace 0 repeats untraced passes until --seconds have gone by (at least
one pass) and reports the end-to-end metrics: set-up and wall time as
medians over the passes, and each rate as the operations done per second
spent in them over all passes. --trace 1 runs one untraced and one traced
pass and reports the per-layer metrics and the tracing overhead (traced
minus untraced pass time); the spans are written to .perfbench_work/spans/.
Outputs are checked after each pass, outside its clock and its tracer.

Human-readable lines come first; the last line of standard output is the
JSON result {"correct", "attempted", "failed", "metrics"}. Failed
operations are counted in it, not raised.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import bootstrap

bootstrap.prepare()  # before NumPy loads

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "pretrain_steps_per_s": "1/s",
    "finetune_steps_per_s": "1/s",
    "eval_scenes_per_s": "1/s",
    "peak_rss_mb": "MB",
}
RATE_OPS = {"pretrain_steps_per_s": "training.pretrain_step",
            "finetune_steps_per_s": "training.finetune_step",
            "eval_scenes_per_s": tr.SCENE_OP}


def machine() -> dict:
    """Core count, BLAS library and threads, and interpreter versions."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):  # NumPy without dict-mode show_config
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "blas_threads_pinned": bootstrap.BLAS_THREADS,
        "malloc_mmap_threshold": bootstrap.MMAP_THRESHOLD,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS reports, or None if it cannot be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _source_fingerprint(spec: wl.Spec) -> str:
    h = hashlib.sha256(repr(spec).encode())
    for path in sorted((bootstrap.SRC / "pointvb").glob("*.py")):
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_digests(spec: wl.Spec, seed: int, passes: list[wl.PassResult]) -> None:
    """Fail loss traces that differ from another repeat of the same seed:
    the other passes of this run, and earlier runs in this checkout."""
    bootstrap.WORK.mkdir(exist_ok=True)
    store = bootstrap.WORK / "digests.json"
    known = json.loads(store.read_text(encoding="utf-8")) if store.exists() else {}
    key = f"{spec.name}/{seed}/{_source_fingerprint(spec)}"
    reference = dict(known.get(key, {}))
    for p in passes:
        for group, digest in p.digests.items():
            expected = reference.setdefault(group, digest)
            if digest != expected:
                p.fail(group, "loss trace differs from another repeat of "
                              f"seed {seed}")
    known[key] = reference
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, store)


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def end_to_end(spec: wl.Spec, passes: list[wl.PassResult]) -> dict:
    """Set-up and wall time are medians over the passes. A rate is the
    number of steps (or scored scenes) over the seconds spent in them, over
    all passes, so that it averages a host whose speed drifts within a run."""
    def median_of(key: str) -> float | None:
        return _median([p.times[key] for p in passes if key in p.times])

    def rate(name: str) -> float | None:
        durations = [d for p in passes for d in p.durations(name)]
        return len(durations) / sum(durations) if durations else None

    who = resource.RUSAGE_SELF if spec.in_process else resource.RUSAGE_CHILDREN
    return {
        "setup_s": median_of("setup"),
        "wall_s": median_of("wall"),
        **{metric: rate(op) for metric, op in RATE_OPS.items()},
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,  # kB on Linux
    }


def per_layer(t: tr.Tracer, traced: wl.PassResult,
              base_wall: float | None) -> dict[str, tuple[float, str]]:
    stats = tr.op_stats(t.spans)
    out: dict[str, tuple[float, str]] = {}
    for op in tr.OPS:
        s = stats.get(op.name, tr.OpStats(0, 0.0, 0.0, []))
        out[f"{op.name}.calls"] = (s.calls, "count")
        out[f"{op.name}.busy_s"] = (s.busy_s, "s")
        out[f"{op.name}.self_s"] = (s.self_s, "s")
        # an op the workload never calls (checkpoint loads on
        # pretrain_hot) reads 0 calls and 0 ms
        out[f"{op.name}.p50_ms"] = (_median(s.durations_ms) or 0.0, "ms")
    for name in tr.STEP_OPS:
        s = stats.get(name, tr.OpStats(0, 0.0, 0.0, []))
        out[f"{name}.tail_ms"] = (tr.tail(s.durations_ms)[0], "ms")
    builds = t.knn_builds
    out["geometry.knn_builds_per_cloud"] = (
        sum(builds.values()) / len(builds) if builds else None, "ratio")
    # allocation churn: memory the allocator hands back to the system and
    # takes again costs a page fault per page touched
    out["process.minor_faults"] = (traced.minor_faults, "count")
    wall = traced.times.get("wall")
    overhead_s = wall - base_wall if wall is not None and base_wall is not None else None
    pct = None
    if overhead_s is not None and base_wall:
        pct = 100.0 * overhead_s / base_wall
    out["tracing.overhead_s"] = (overhead_s, "s")
    out["tracing.overhead_pct"] = (pct, "%")
    return out


def _shares(totals: dict[str, float], whole: float, top: int = 6) -> str:
    ranked = sorted(totals.items(), key=lambda kv: -kv[1])[:top]
    return ", ".join(f"{name} {100 * v / whole:.1f}%" for name, v in ranked)


def print_trace_tables(t: tr.Tracer) -> None:
    stats = tr.op_stats(t.spans)
    print(f"  {'op':<28}{'calls':>7}{'busy_s':>10}{'self_s':>10}{'p50_ms':>10}"
          "  should move (on)")
    moves = {op.name: f"{op.moves} ({op.on})" for op in tr.OPS}
    for name, s in sorted(stats.items(), key=lambda kv: -kv[1].self_s):
        print(f"  {name:<28}{s.calls:>7}{s.busy_s:>10.3f}{s.self_s:>10.3f}"
              f"{statistics.median(s.durations_ms):>10.3f}  {moves.get(name, '')}")
    for step in tr.STEP_OPS:
        durations = stats[step].durations_ms if step in stats else []
        tail_ms, pct = tr.tail(durations)
        if durations:
            print(f"  {step}: p50 {statistics.median(durations):.3f} ms, "
                  f"p{pct:g} (tail) {tail_ms:.3f} ms over {len(durations)} steps")
        inside = tr.subtree_self(t.spans, step)
        whole = sum(inside.values())
        if whole:
            print(f"  {step} self time by op ({whole:.3f} s): "
                  f"{_shares(inside, whole)}")
    roots = [s for s in t.spans if s[0] == tr.PASS_ROOT]
    firsts = [s[1] for s in t.spans if s[0] == tr.STEP_OPS[0]]
    if roots and firsts:
        start = roots[0][1]
        window = tr.window_self(t.spans, start, firsts[0])
        print(f"  set-up self time by op ({firsts[0] - start:.3f} s to the "
              f"first step): {_shares(window, firsts[0] - start)}")


def measure(spec: wl.Spec, seed: int, seconds: float, trace: bool) -> dict:
    """Run the workload and return the JSON result; prints the human lines."""
    run_dir = bootstrap.WORK / f"{spec.name}-{seed}-{os.getpid()}"
    print("machine: " + json.dumps(machine(), sort_keys=True))
    passes: list[wl.PassResult] = []
    if not trace:
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            passes.append(wl.run_pass(spec, seed, run_dir / f"pass{len(passes)}",
                                      full_trace=False, inline=False)[0])
    else:
        passes.append(wl.run_pass(spec, seed, run_dir / "untraced",
                                  full_trace=False, inline=True)[0])
        result, t = wl.run_pass(spec, seed, run_dir / "traced",
                                full_trace=True, inline=True)
        passes.append(result)
        t.write(bootstrap.WORK / "spans" / f"{spec.name}-seed{seed}.jsonl")
    shutil.rmtree(run_dir, ignore_errors=True)
    check_digests(spec, seed, passes)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed_ops for p in passes)
    mious = [p.miou for p in passes if p.miou is not None]
    print(f"workload {spec.name} seed {seed}: {len(passes)} passes, "
          f"{failed} of {attempted} operations failed")
    for p in passes:
        for problem in p.problems:
            print(f"  failed: {problem}")
    if trace:
        base, traced = passes
        metrics = per_layer(t, traced, base.times.get("wall"))
        print_trace_tables(t)
    else:
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(spec, passes).items()}
    extra = {"fail_ratio": (failed / attempted, "ratio"),
             "miou": (_median(mious), "ratio")}
    for name, (value, unit) in {**metrics, **extra}.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<38}{shown:>14} {unit}")

    complete = all(v is not None and np.isfinite(v) for v, _ in metrics.values())
    return {
        "correct": failed == 0 and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = measure(wl.WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
