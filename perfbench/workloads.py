"""The benchmark's workloads: one pass of each, with its output checks.

A pass is one pretrain -> finetune -> evaluate pipeline at the workload's
scale, on inputs generated from the workload seed and written to disk
before the program reads them. In-process passes drive the phase functions
of `pointvb.experiment` and `pointvb.metrics.evaluate`; the `cli_run` pass
runs `pointvb synth`, `pointvb run` and `pointvb eval` of the run's
checkpoint, as child processes or, for `--trace 1`, through
`pointvb.cli.main` in this process.

An operation is an optimizer step, a scored scene or a CLI command. A
failed check fails the operations it covers; it is counted, never raised.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import math
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pointvb import cli, config, experiment, metrics, pcio, training

from bootstrap import ROOT
from tracer import PASS_ROOT, STEP_OPS, Tracer, read_spans

NUM_CLASSES = 4
CHILD_TIMEOUT_S = 150
CLI_CHILD = Path(__file__).resolve().parent / "cli_child.py"


@dataclass(frozen=True)
class Spec:
    """The inputs and run lengths of one workload."""

    name: str
    in_process: bool
    train_scenes: int
    val_scenes: int
    points: int
    pretrain_steps: int
    finetune_steps: int
    labels_per_scene: int = 20
    corrupt_ply: bool = False  # self-test only: truncate one input PLY


WORKLOADS = {
    # 8 x 2,048 points (about 1,730 voxels each): pretraining steps, with
    # FPS and the encoder, are the largest part of a pass; kNN is set-up.
    "pretrain_hot": Spec("pretrain_hot", True, 8, 4, 2048, 120, 100),
    # the acceptance-scale dataset through the CLI: the dense kNN graph,
    # built 2 x 64 times plus once per validation scene and evaluation,
    # dominates.
    "cli_run": Spec("cli_run", False, 64, 16, 2048, 200, 500),
}


def program_values(spec: Spec, seed: int, data_dir: Path) -> dict:
    """The pointvb config of a pass: the acceptance pretrain settings
    (H = 256, D = 32, widths 64,64, k = 16, lr 0.08, momentum 0,
    off-diagonal weight 0.22) at the workload's scale."""
    values = config.default_config()
    values.update(
        seed=seed, data_dir=str(data_dir), num_scenes=spec.train_scenes,
        val_scenes=spec.val_scenes, points_per_scene=spec.points,
        num_classes=NUM_CLASSES, feature_dim=32, hidden_widths=(64, 64),
        knn=16, fps_count=256, pretrain_steps=spec.pretrain_steps,
        pretrain_lr=0.08, momentum=0.0, off_diagonal_weight=0.22,
        finetune_steps=spec.finetune_steps,
        labels_per_scene=spec.labels_per_scene,
    )
    return values


def config_text(values: dict) -> str:
    lines = []
    for key, value in values.items():
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"{key} = {value}\n")
    return "".join(lines)


def trace_digest(trace) -> str:
    return hashlib.sha256(repr([(int(s), float(lr), float(loss))
                                for s, lr, loss in trace]).encode()).hexdigest()


@dataclass
class PassResult:
    """What one pass left behind, with its timings and operation counts.

    The pass only records its outputs. The checks run after the pass, once
    its clock has stopped and its tracer is removed, so that no check is
    timed or traced.
    """

    groups: dict[str, int]                  # operation group -> size
    failed: dict[str, int] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    start: float | None = None              # monotonic start of set-up
    times: dict[str, float] = field(default_factory=dict)  # setup, wall
    spans: list[list] = field(default_factory=list)  # step and scene spans
    traces: dict[str, list] = field(default_factory=dict)  # group -> trace
    weights: dict[str, list] = field(default_factory=dict)  # group -> encoder
    codes: dict[str, int] = field(default_factory=dict)  # command -> exit
    mious: list[float] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    error: str | None = None                # why the pass stopped early
    # minor page faults this process took in the pass: the program's own
    # when it runs in process, as in every traced pass
    minor_faults: int = 0

    def fail(self, group: str, reason: str, count: int | None = None) -> None:
        size = self.groups[group]
        self.failed[group] = min(size, max(self.failed.get(group, 0),
                                           size if count is None else count))
        self.problems.append(f"{group}: {reason}")

    @property
    def attempted(self) -> int:
        return sum(self.groups.values())

    @property
    def failed_ops(self) -> int:
        return sum(self.failed.values())

    @property
    def miou(self) -> float | None:
        return self.mious[0] if self.mious else None

    def durations(self, name: str) -> list[float]:
        return [end - start for span_name, start, end, _, _ in self.spans
                if span_name == name]

    def check_phase(self, group: str, trace, checkpoint: Path, steps: int,
                    head: bool, weights=None) -> None:
        if trace is None:
            self.fail(group, f"no loss trace: {self.error or 'not written'}")
            return
        losses = [loss for _, _, loss in trace]
        bad = sum(1 for loss in losses if not math.isfinite(loss))
        if bad:
            self.fail(group, f"{bad} non-finite losses", bad)
        if len(trace) != steps:
            self.fail(group, f"trace has {len(trace)} steps, expected {steps}")
        self.digests[group] = trace_digest(trace)
        try:
            loaded, _ = training.load_checkpoint(checkpoint)
        except Exception as exc:  # any failure to load is a failed check
            self.fail(group, f"checkpoint {checkpoint.name}: {exc!r}")
            return
        ok = loaded.step == steps and (loaded.head is not None) == head
        if weights is not None:
            ok = ok and all(np.array_equal(a, b) for a, b in zip(
                loaded.encoder.weights, weights))
        if not ok:
            self.fail(group, f"checkpoint {checkpoint.name} does not hold the "
                             "trained state")

    def check_mious(self, expected: int) -> None:
        """Every evaluation gave an mIoU in [0, 1], and all agree."""
        if len(self.mious) != expected:
            self.fail("eval", f"{len(self.mious)} of {expected} mIoU values: "
                              f"{self.error or 'report missing'}")
        for value in self.mious:
            if not 0.0 <= value <= 1.0:  # also false for NaN
                self.fail("eval", f"mIoU {value} outside [0, 1]")
        if len(set(self.mious)) > 1:
            self.fail("eval", f"evaluations of one checkpoint disagree: {self.mious}")


PHASES = (("pretrain", "pretrain.ckpt", False), ("finetune", "final.ckpt", True))


def _steps(spec: Spec, group: str) -> int:
    return spec.pretrain_steps if group == "pretrain" else spec.finetune_steps


def _write_inputs(spec: Spec, seed: int, data_dir: Path) -> None:
    """Generate the seed's scenes and write them as the program's input."""
    for split, count in (("train", spec.train_scenes), ("val", spec.val_scenes)):
        scenes = experiment.make_synthetic_dataset(seed, count, spec.points,
                                                   NUM_CLASSES, split)
        pcio.write_scene_set(scenes, data_dir / split)
    if spec.corrupt_ply:
        _truncate_one_ply(data_dir / "train")


def _truncate_one_ply(directory: Path) -> None:
    path = sorted(directory.glob("scene_*.ply"))[0]
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) // 2])


def _inprocess(spec: Spec, seed: int, work: Path, result: PassResult) -> None:
    """Generate, write, load, voxelize, pretrain, finetune and evaluate."""
    values = program_values(spec, seed, work / "data")
    pre_cfg = config.train_config(values, "pretrain")
    fine_cfg = config.train_config(values, "finetune")
    result.start = time.monotonic()
    _write_inputs(spec, seed, work / "data")
    train = pcio.load_scene_set(work / "data" / "train", NUM_CLASSES, "train")
    val = pcio.load_scene_set(work / "data" / "val", NUM_CLASSES, "val")
    pre_data = experiment.VoxelizedScenes(train, pre_cfg)
    state = training.init_state(pre_cfg)
    result.traces["pretrain"] = experiment.pretrain(state, pre_data, pre_cfg)
    training.save_checkpoint(state, pre_cfg, work / "pretrain.ckpt")
    # finetuning changes the weights in place; the check needs these
    result.weights["pretrain"] = [w.copy() for w in state.encoder.weights]

    sparse = experiment.sparsify_scenes(train, spec.labels_per_scene, seed)
    fine_data = experiment.VoxelizedScenes(sparse, fine_cfg)
    training.attach_head(state, fine_cfg)
    result.traces["finetune"] = experiment.finetune(state, fine_data, fine_cfg)
    training.save_checkpoint(state, fine_cfg, work / "final.ckpt")
    result.weights["finetune"] = state.encoder.weights
    result.mious.append(metrics.evaluate(state, val, fine_cfg).mean_iou)
    result.times["wall"] = time.monotonic() - result.start


def _check_inprocess(spec: Spec, work: Path, result: PassResult) -> None:
    for group, checkpoint, head in PHASES:
        result.check_phase(group, result.traces.get(group), work / checkpoint,
                           _steps(spec, group), head, result.weights.get(group))
    result.check_mious(1)


def _run_child(command: list[str], work: Path) -> tuple[int, list, float, float]:
    """Run one pointvb command in a child; (exit code, its step and scene
    spans, spawn time, end time)."""
    spans_path = work / f"spans-{command[0]}.jsonl"
    spawn = time.monotonic()
    try:
        done = subprocess.run(
            [sys.executable, str(CLI_CHILD), str(spans_path), *command],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        return -1, [], spawn, time.monotonic()
    end = time.monotonic()
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-2000:])
    spans = read_spans(spans_path) if spans_path.exists() else []
    return done.returncode, spans, spawn, end


def _run_inline(command: list[str], work: Path) -> tuple[int, list, float, float]:
    """Run one pointvb command through cli.main in this process; the
    tracer installed around the pass records its spans."""
    spawn = time.monotonic()
    with contextlib.redirect_stdout(sys.stderr):
        code = cli.main(command)
    return code, [], spawn, time.monotonic()


def _read_trace(path: Path) -> list[tuple[int, float, float]] | None:
    if not path.exists():
        return None
    with open(path, encoding="ascii", newline="") as fh:
        return [(int(r["step"]), float(r["lr"]), float(r["loss"]))
                for r in csv.DictReader(fh)]


def _read_miou(path: Path) -> float:
    with open(path, encoding="ascii", newline="") as fh:
        for row in csv.DictReader(fh):
            if row["class"] == "mean":
                return float(row["iou"])
    raise ValueError(f"{path.name} has no mean row")


def _commands(work: Path) -> list[list[str]]:
    """`pointvb synth` into a data dir, `pointvb run` on it, and `pointvb
    eval` of the checkpoint the run wrote (the path that loads one)."""
    cfg = ["--config", str(work / "bench.cfg")]
    return [["synth", *cfg], ["run", *cfg],
            ["eval", *cfg, "--checkpoint", str(work / "out" / "final.ckpt"),
             "--out", str(work / "eval")]]


def _cli(spec: Spec, seed: int, work: Path, result: PassResult,
         inline: bool) -> None:
    launch = _run_inline if inline else _run_child
    values = program_values(spec, seed, work / "data")
    values["out_dir"] = str(work / "out")
    (work / "bench.cfg").write_text(config_text(values), encoding="ascii")
    wall = 0.0
    for command in _commands(work):
        if spec.corrupt_ply and command[0] == "run":
            _truncate_one_ply(work / "data" / "train")
        code, spans, spawn, end = launch(command, work)
        if command[0] == "run":
            # set-up runs from the synth spawn to the first step of the run,
            # without the harness's time between the two commands
            result.start = spawn - wall
        wall += end - spawn
        result.spans.extend(spans)
        result.codes[command[0]] = code
        if code != 0:
            return
    result.times["wall"] = wall


def _check_cli(spec: Spec, work: Path, result: PassResult) -> None:
    for command in _commands(work):
        group = f"pointvb {command[0]}"
        code = result.codes.get(command[0])
        if code is None:
            result.fail(group, "not run: an earlier command failed")
        elif code != 0:
            result.fail(group, f"exited {code}")
    out = work / "out"
    for group, checkpoint, head in PHASES:
        result.check_phase(group, _read_trace(out / f"{group}_trace.csv"),
                           out / checkpoint, _steps(spec, group), head)
    for report in (out / "report.csv", work / "eval" / "report.csv"):
        if report.exists():
            result.mious.append(_read_miou(report))
    result.check_mious(2)


def groups(spec: Spec) -> dict[str, int]:
    """Operation groups of one pass and their sizes: optimizer steps,
    scored scenes and, for the CLI workload, commands."""
    ops = {"pretrain": spec.pretrain_steps, "finetune": spec.finetune_steps}
    if spec.in_process:
        return {**ops, "eval": spec.val_scenes}
    return {"pointvb synth": 1, "pointvb run": 1, "pointvb eval": 1, **ops,
            "eval": 2 * spec.val_scenes}


def run_pass(spec: Spec, seed: int, work: Path, full_trace: bool,
             inline: bool) -> tuple[PassResult, Tracer]:
    """One pass under a clock (or, with full_trace, every op traced), then
    its checks; returns the checked result and the tracer."""
    result = PassResult(groups(spec))
    tracer = Tracer(full_trace, run_id=f"{spec.name}-seed{seed}-{work.name}")
    work.mkdir(parents=True)
    try:
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        try:
            with tracer, tracer.span(PASS_ROOT):
                if spec.in_process:
                    _inprocess(spec, seed, work, result)
                else:
                    _cli(spec, seed, work, result, inline)
        except Exception as exc:  # boundary: the pass's failure is counted
            result.error = repr(exc)
        result.minor_faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                               - faults)
        result.spans.extend(tracer.spans)
        first = [s[1] for s in result.spans if s[0] == STEP_OPS[0]]
        if first and result.start is not None:
            result.times["setup"] = min(first) - result.start
        try:
            if spec.in_process:
                _check_inprocess(spec, work, result)
            else:
                _check_cli(spec, work, result)
        except Exception as exc:  # an unreadable output fails the pass
            for group in result.groups:
                result.fail(group, f"output check raised {exc!r}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return result, tracer
