"""Tiny-size smoke test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, and checks that
the result names exactly the metrics of BENCHMARK.json, each with its
unit, with no failed operation, and that no output check is traced. Then
it truncates one input PLY, for `cli_run` and for an in-process workload,
and checks that the damage is counted as failed operations rather than
raised. Exits 1 on a mismatch.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

import run  # pins the BLAS threads and finds src/ on import
import bootstrap
import workloads as wl


PROGRAM_LOADS = {"pretrain_hot": 0, "cli_run": 1}


def tiny(spec: wl.Spec, **changes) -> wl.Spec:
    return replace(spec, train_scenes=2, val_scenes=1, points=256,
                   pretrain_steps=3, finetune_steps=3, **changes)


def main() -> int:
    declared = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
                1: {m["name"]: m["unit"] for m in declared["per_layer"]}}
    problems = []
    for name in (w["name"] for w in declared["workloads"]):
        for trace in (0, 1):
            result = run.measure(tiny(wl.WORKLOADS[name]), 7, 0.0, bool(trace))
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != expected[trace]:
                diff = set(got.items()) ^ set(expected[trace].items())
                problems.append(f"{name} trace {trace}: metrics differ {sorted(diff)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace {trace}: not correct: {result}")
            # the output checks reload both checkpoints outside the tracer,
            # so only the program's own loads (pointvb eval) are traced
            loads = result["metrics"].get("training.checkpoint_load.calls", {})
            if trace and loads.get("value") != PROGRAM_LOADS[name]:
                problems.append(f"{name}: {loads} checkpoint loads traced, "
                                f"expected {PROGRAM_LOADS[name]}")
    for name in ("cli_run", "pretrain_hot"):
        result = run.measure(tiny(wl.WORKLOADS[name], corrupt_ply=True), 7, 0.0, False)
        if result["correct"] or not 0 < result["failed"] <= result["attempted"]:
            problems.append(f"{name} with a truncated PLY: {result}")
    for problem in problems:
        print(f"selftest: {problem}", file=sys.stderr)
    print("selftest: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
