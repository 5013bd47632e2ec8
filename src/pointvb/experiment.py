"""Experiment orchestration: dataset preparation, the one optimizer step,
the two training phases and the runner the library and CLI share,
evaluation, and CSV/checkpoint emission."""

from __future__ import annotations

import contextlib
import functools
import multiprocessing
import os
from pathlib import Path

import numpy as np

from .config import train_config
from .errors import DataError
from . import metrics
from .geometry import (
    knn_indices,  # unused; perfbench/tracer.py traces this name
    vote_labels,
    voxel_downsample,  # unused; perfbench/tracer.py traces this name
)
from .metrics import RunReport, evaluate
from .pcio import (
    SceneSet,
    check_scene_directory,
    generate_synthetic_scene,
    load_scene_set,
    make_directory,
    subsample_labels,
    write_scene_set,
)
from .training import (
    TrainConfig,
    TrainState,
    attach_head,
    finetune_grads,
    finetune_plan,
    init_state,
    load_checkpoint,
    poly_lr,
    pretrain_draws,
    pretrain_grads,
    pretrain_sample,
    save_checkpoint,
    set_up_process,
    sgd_momentum_step,
    to_float32,
)


def make_synthetic_dataset(
    seed: int, num_scenes: int, points_per_scene: int, num_classes: int,
    split: str = "train",
) -> SceneSet:
    """Deterministic set of fully labeled synthetic scenes."""
    base = seed * 1_000_003 + (0 if split == "train" else 500_000)
    scenes = [
        generate_synthetic_scene(base + i, points_per_scene, num_classes)
        for i in range(num_scenes)
    ]
    return SceneSet(scenes, split=split,
                    scene_ids=[f"{split}{i:04d}" for i in range(num_scenes)])


class VoxelizedScenes:
    """What training reads of each scene, not its raw cloud: its
    metrics.prepare_scene and its points' labels, which fine-tuning votes;
    built by metrics.prepared_scenes, whose pool ends with the constructor."""

    def __init__(self, scenes: SceneSet, cfg: TrainConfig):
        with contextlib.closing(metrics.prepared_scenes(
                [cloud for cloud, _ in scenes.scenes], cfg.voxel_size, cfg.knn)) as ahead:
            built = [prepared.result() for prepared in ahead]
        self.clouds, self.mappings, self.neighbors = map(list, zip(*built))
        self.point_labels = [labels for _, labels in scenes.scenes]


def _accumulated_step(state: TrainState, cfg: TrainConfig, compute) -> float:
    """The optimizer step of both phases: average the (loss, grads) pairs of
    cfg.batch_size `compute()` calls and take one SGD step at poly_lr.
    Returns the mean loss."""
    loss, total = compute()
    losses = [loss]
    for _ in range(cfg.batch_size - 1):
        loss, grads = compute()
        losses.append(loss)
        for name in total:
            total[name] += grads[name]
    scale = 1.0 / len(losses)
    for name in total:
        total[name] *= scale
    lr = poly_lr(state.step, cfg)
    sgd_momentum_step(state.param_dict(), total, state.momentum_buffers, lr,
                      cfg.momentum)
    state.step += 1
    return float(np.mean(losses))


def _train(state: TrainState, cfg: TrainConfig, compute
           ) -> list[tuple[int, float, float]]:
    """The loop of both phases, in float32: steps until cfg.iterations, each
    averaging cfg.batch_size compute() calls. Returns (step, lr, loss)."""
    set_up_process()
    to_float32(state)
    trace = []
    while state.step < cfg.iterations:
        step, lr = state.step, poly_lr(state.step, cfg)
        trace.append((step, lr, _accumulated_step(state, cfg, compute)))
    return trace


def pretrain(
    state: TrainState, data: VoxelizedScenes, cfg: TrainConfig
) -> list[tuple[int, float, float]]:
    """Run cfg.iterations self-supervised steps; returns (step, lr, loss).

    Where the platform can fork, the first compute forks a worker after its
    draws. It replays the later computes' pretrain_draws from its copy of
    state.rng and sends their FPS samples ahead down a pipe, whose buffer
    bounds how far ahead it runs. Once it is gone, or a sample does not
    match its compute's draws, FPS runs in process for the rest of the
    phase: FPS is a pure function of (cloud, H, start), so the bytes agree.
    Both views of each pair run on the calling thread."""
    computes = (cfg.iterations - state.step) * cfg.batch_size
    fork = computes > 1 and "fork" in multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if fork else None)
    conn, sender = context.Pipe(duplex=False)
    worker = None

    def send_samples(rng):  # the worker
        conn.close()  # so that a send fails once the phase's process is gone
        os.nice(19)  # ahead of the phase, it takes only what the views leave idle
        for _ in range(computes - 1):
            i, (_, _, start) = pretrain_draws(rng, data.clouds)
            sender.send((i, start, pretrain_sample(data.clouds[i], cfg, start)))

    def compute():
        nonlocal fork, worker
        i, draws = pretrain_draws(state.rng, data.clouds)
        got = (None, None, None)
        if fork and worker is None:
            worker = context.Process(target=send_samples, args=(state.rng,))
            worker.start()
            sender.close()
        elif fork:
            with contextlib.suppress(EOFError, OSError):  # the worker is gone
                got = conn.recv()
            if got[:2] != (i, draws[2]):
                fork = False
                worker.terminate()
        return pretrain_grads(state, data.clouds[i], cfg, data.neighbors[i],
                              draws, got[2] if fork else None)

    with conn, sender:
        try:
            return _train(state, cfg, compute)
        except BaseException:
            if worker:
                worker.terminate()
            raise
        finally:
            if worker:
                worker.join()


def finetune(
    state: TrainState,
    data: VoxelizedScenes,
    cfg: TrainConfig,
) -> list[tuple[int, float, float]]:
    """Run cfg.iterations supervised steps, each on scenes drawn among those
    that carry a labeled voxel. Every scene's voxels vote its point labels
    once, before the first step; a scene's finetune_plan is made in its
    first step and kept for the phase."""
    labels = [vote_labels(lbl, m) for lbl, m in zip(data.point_labels, data.mappings)]
    labeled = [i for i, lbl in enumerate(labels) if lbl.present_mask.any()]
    if not labeled:
        raise DataError("no scene carries any labeled voxel")
    planned = functools.cache(lambda i: finetune_plan(
        state.encoder, data.clouds[i], labels[i], data.neighbors[i]))
    return _train(state, cfg, lambda: finetune_grads(
        state, planned(labeled[int(state.rng.integers(len(labeled)))])))


def sparsify_scenes(scenes: SceneSet, k: int, seed: int) -> SceneSet:
    """Replace every scene's labels with a k-point uniform subsample, scene
    i's drawn from seed * 7919 + i."""
    return SceneSet([(cloud, subsample_labels(labels, k, seed * 7919 + i))
                     for i, (cloud, labels) in enumerate(scenes.scenes)],
                    split=scenes.split, scene_ids=list(scenes.scene_ids))


def write_trace_csv(trace, path: Path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("step,lr,loss\n")
        for step, lr, loss in trace:
            fh.write(f"{step},{lr:.17g},{loss:.17g}\n")


def write_report_csv(report: RunReport, path: Path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("class,iou\n")
        for cls, iou in enumerate(report.per_class_iou):
            fh.write(f"{cls},{'' if iou is None else format(iou, '.17g')}\n")
        fh.write(f"mean,{report.mean_iou:.17g}\n")


def load_split(values: dict, split: str) -> SceneSet:
    """The "train" or "val" scenes: read from data_dir, or generated from
    the seed when data_dir is empty."""
    if values["data_dir"]:
        return load_scene_set(Path(values["data_dir"]) / split,
                              values["num_classes"], split)
    return make_synthetic_dataset(
        values["seed"], values["num_scenes" if split == "train" else "val_scenes"],
        values["points_per_scene"], values["num_classes"], split,
    )


def generate_dataset(values: dict, out_dir: Path) -> None:
    """`synth` subcommand: write train/val manifests, neither if one is refused."""
    splits = [(load_split({**values, "data_dir": ""}, split), out_dir / split)
              for split in ("train", "val")]
    for scenes, directory in splits:
        check_scene_directory(scenes, directory)
    for scenes, directory in splits:
        write_scene_set(scenes, directory)


def run_phase(
    cfg: TrainConfig, data: VoxelizedScenes, state: TrainState | None, out: Path,
) -> tuple[TrainState, list[tuple[int, float, float]]]:
    """Train phase cfg.phase on voxelized scenes, and the labels they carry,
    from `state`, or a fresh model when it is None; write <phase>_trace.csv
    and pretrain.ckpt or final.ckpt under out, and return the state and its
    (step, lr, loss) trace. For fine-tuning a headless encoder gets a fresh
    head, and one with a head restarts at step 0 with fresh momentum buffers."""
    if state is None:
        state = init_state(cfg, with_head=cfg.phase == "finetune")
    elif cfg.phase == "finetune" and state.head is None:
        attach_head(state, cfg)
    elif cfg.phase == "finetune":
        state.step, state.momentum_buffers = 0, {}
    if cfg.phase == "pretrain":
        trace, checkpoint = pretrain(state, data, cfg), "pretrain.ckpt"
    else:
        trace, checkpoint = finetune(state, data, cfg), "final.ckpt"
    write_trace_csv(trace, out / f"{cfg.phase}_trace.csv")
    save_checkpoint(state, cfg, out / checkpoint)
    return state, trace


def run_experiment(values: dict, out_dir: str | Path) -> RunReport:
    """Execute pretrain and/or finetune per config, evaluate, emit reports.

    Writes trace.csv (per-phase loss traces), report.csv (per-class and
    mean IoU), and checkpoint files under out_dir. An init_checkpoint
    takes the place of pretraining.
    """
    out = make_directory(out_dir)
    cfg, state = train_config(values, "finetune"), None
    if values["init_checkpoint"]:
        state, _ = load_checkpoint(values["init_checkpoint"], cfg)
    if not values["finetune"] and (state is None or state.head is None):
        if state is None and not values["pretrain"]:
            raise DataError("config enables neither pretraining nor "
                            "fine-tuning and provides no init_checkpoint")
        raise DataError("no classification head trained; cannot evaluate")
    val_scenes = load_split(values, "val")
    # both phases read these (one voxel_size and knn; pretraining no labels),
    # and one runs only if fine-tuning does; no raw training cloud outlives this
    data = values["finetune"] and VoxelizedScenes(sparsify_scenes(
        load_split(values, "train"), values["labels_per_scene"], values["seed"]), cfg)
    trace = []
    for phase in ("pretrain", "finetune"):
        if values[phase] and (phase == "finetune" or state is None):
            state, phase_trace = run_phase(train_config(values, phase), data, state, out)
            trace.extend(phase_trace)
    report = evaluate(state, val_scenes, cfg)
    write_trace_csv(trace, out / "trace.csv")
    write_report_csv(report, out / "report.csv")
    return report
