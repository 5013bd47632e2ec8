"""Spans at pointvb's module boundaries, recorded from outside the package.

The tracer replaces a function's binding in the namespace its caller looks
it up in (for example `training.farthest_point_sampling`, which training
imports by name), records one span per call and restores every binding
when it is removed. A binding that no longer exists raises, so an op
cannot silently stop being traced. Spans stay in memory until `write()`.

A clock (`Tracer(full=False)`) binds only the optimizer step and the
scored scene; each call costs two clock reads, so it stays on in untraced
runs and gives their step and scene times. A full tracer binds every op.

OPS is the per-layer table: for each op, the bindings that carry it, the
end-to-end metric it should move, and the workloads on which it should.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import json
import math
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

STEP_RATES = "pretrain_steps_per_s, finetune_steps_per_s"
SET_UP = "setup_s, wall_s, peak_rss_mb"


@dataclass(frozen=True)
class Op:
    name: str
    bindings: tuple[str, ...]   # "module:attribute" names to patch
    moves: str                  # end-to-end metric it should move
    on: str                     # workloads where it should move it


OPS = (
    Op("geometry.fps", ("pointvb.training:farthest_point_sampling",),
       "pretrain_steps_per_s", "pretrain_hot"),
    Op("nncore.forward", ("pointvb.training:encoder_forward",
                          "pointvb.metrics:encoder_forward"),
       STEP_RATES, "all"),
    Op("nncore.backward", ("pointvb.training:encoder_backward",),
       STEP_RATES, "all"),
    Op("nncore.pooling_build", ("pointvb.nncore:pooling_operator",),
       STEP_RATES, "all"),
    Op("vbloss.loss_backward", ("pointvb.training:vb_loss_backward",),
       "pretrain_steps_per_s (about 2% of a step)", "pretrain_hot"),
    # one optimizer step of either phase: STEP_BINDING, named by the phase
    # of the config it is given
    Op("training.pretrain_step", (), "pretrain_steps_per_s", "all"),
    Op("training.finetune_step", (), "finetune_steps_per_s", "all"),
    Op("training.sgd", ("pointvb.experiment:sgd_momentum_step",
                        "pointvb.training:sgd_momentum_step"),
       STEP_RATES, "all"),
    Op("geometry.knn", ("pointvb.experiment:knn_indices",
                        "pointvb.nncore:knn_indices",
                        "pointvb.training:knn_indices"),
       SET_UP, "cli_run"),
    Op("geometry.voxelize", ("pointvb.experiment:voxel_downsample",
                             "pointvb.metrics:voxel_downsample"),
       SET_UP, "cli_run"),
    Op("experiment.dataset_prep", ("pointvb.experiment:VoxelizedScenes",
                                   "pointvb.cli:VoxelizedScenes"),
       SET_UP, "cli_run"),
    Op("metrics.predict_scene", ("pointvb.metrics:predict_scene",),
       "eval_scenes_per_s", "cli_run"),
    Op("metrics.evaluate", ("pointvb.metrics:evaluate",
                            "pointvb.experiment:evaluate",
                            "pointvb.cli:evaluate"),
       "eval_scenes_per_s", "cli_run"),
    Op("pcio.save_ply", ("pointvb.pcio:save_ply",), "wall_s", "cli_run"),
    Op("pcio.load_ply", ("pointvb.pcio:load_ply",), "wall_s", "cli_run"),
    Op("pcio.generate_scene", ("pointvb.experiment:generate_synthetic_scene",),
       "wall_s", "cli_run"),
    Op("training.checkpoint_save", ("pointvb.training:save_checkpoint",
                                    "pointvb.experiment:save_checkpoint",
                                    "pointvb.cli:save_checkpoint"),
       "wall_s", "cli_run"),
    Op("training.checkpoint_load", ("pointvb.training:load_checkpoint",
                                    "pointvb.experiment:load_checkpoint",
                                    "pointvb.cli:load_checkpoint"),
       "wall_s", "cli_run"),
)
STEP_OPS = ("training.pretrain_step", "training.finetune_step")
SCENE_OP = "metrics.predict_scene"
# one optimizer step of either phase, as (state, cfg, compute)
STEP_BINDING = "pointvb.experiment:_accumulated_step"
SCENE_BINDING = "pointvb.metrics:predict_scene"
# traced for the tables only: it runs in one workload, so it is no metric
CLI_BINDING = "pointvb.cli:main"
KNN = "geometry.knn"
PASS_ROOT = "bench.pass"


def rebind(binding: str, make_wrapper) -> tuple:
    """Replace `module:attr` by make_wrapper(original); returns what
    `restore` needs. A missing name raises: the program moved a boundary."""
    module_name, attr = binding.split(":")
    module = importlib.import_module(module_name)
    original = getattr(module, attr)
    setattr(module, attr, make_wrapper(original))
    return module, attr, original


def restore(saved: list[tuple]) -> None:
    for module, attr, original in reversed(saved):
        setattr(module, attr, original)
    saved.clear()


class Tracer:
    """Records spans (name, start, end, parent, run id) while installed.

    Times are `time.monotonic()` (CLOCK_MONOTONIC on Linux), so spans that a
    child process records line up with the parent's clock reads.
    """

    def __init__(self, full: bool, run_id: str = ""):
        self.full = full
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self.run_id = run_id
        self.knn_builds: Counter = Counter()  # cloud digest -> kNN builds
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def __enter__(self) -> "Tracer":
        try:
            self._patch(STEP_BINDING,
                        lambda args: f"training.{args[1].phase}_step")
            self._patch(SCENE_BINDING, lambda args: SCENE_OP)
            if self.full:
                for op in OPS:
                    for binding in op.bindings:
                        if binding != SCENE_BINDING:
                            self._patch(binding, lambda args, name=op.name: name)
                self._patch(CLI_BINDING, lambda args: "cli.main")
        except BaseException:
            restore(self._patched)
            raise
        return self

    def __exit__(self, *exc) -> None:
        restore(self._patched)

    def _patch(self, binding: str, name_of) -> None:
        def make_wrapper(original):
            def wrapper(*args, **kwargs):
                name = name_of(args)
                if name == KNN:
                    positions = args[0] if args else kwargs["positions"]
                    self.knn_builds[hashlib.blake2b(
                        positions.tobytes(), digest_size=16).hexdigest()] += 1
                with self.span(name):
                    return original(*args, **kwargs)
            return wrapper
        self._patched.append(rebind(binding, make_wrapper))

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.monotonic(), None, parent, self.run_id])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.monotonic()
            self._stack.pop()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run_id}) + "\n")


def read_spans(path: Path) -> list[list]:
    """Spans as `Tracer.write` left them."""
    with open(path, encoding="utf-8") as fh:
        return [[r["name"], r["start"], r["end"], r["parent"], r["run"]]
                for r in map(json.loads, fh)]


@dataclass
class OpStats:
    calls: int
    busy_s: float
    self_s: float
    durations_ms: list[float]


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def op_stats(spans: list[list]) -> dict[str, OpStats]:
    selfs = self_times(spans)
    stats: dict[str, OpStats] = {}
    for (name, start, end, _, _), own in zip(spans, selfs):
        s = stats.setdefault(name, OpStats(0, 0.0, 0.0, []))
        s.calls += 1
        s.busy_s += end - start
        s.self_s += own
        s.durations_ms.append(1e3 * (end - start))
    return stats


def subtree_self(spans: list[list], root: str) -> dict[str, float]:
    """Self seconds by op inside every span named `root` (root included)."""
    selfs = self_times(spans)
    inside = [False] * len(spans)
    totals: dict[str, float] = defaultdict(float)
    for i, (name, _, _, parent, _) in enumerate(spans):
        # parents precede children in the list, so one pass suffices
        inside[i] = name == root or (parent is not None and inside[parent])
        if inside[i]:
            totals[name] += selfs[i]
    return dict(totals)


def window_self(spans: list[list], t0: float, t1: float) -> dict[str, float]:
    """Self seconds by op of the spans that start within [t0, t1)."""
    selfs = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for (name, start, _, _, _), own in zip(spans, selfs):
        if t0 <= start < t1:
            totals[name] += own
    return dict(totals)


def tail(durations_ms: list[float]) -> tuple[float | None, float | None]:
    """(value, percentile) of the highest whole percentile with at least 10
    samples beyond it; the median when there are fewer than 20 samples."""
    ordered = sorted(durations_ms)
    n = len(ordered)
    if n == 0:
        return None, None
    pct = math.floor(100 * (n - 10) / n) if n >= 20 else 50
    pos = (n - 1) * pct / 100
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo), float(pct)
