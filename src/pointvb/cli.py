"""Command-line interface.

Subcommands: synth, pretrain, finetune, eval, gradcheck, run. Exit codes:
0 success, 1 usage error, 2 data error, 3 numeric failure, 4 out of memory.
"""

from __future__ import annotations

import argparse
import gc
import sys
from dataclasses import replace
from pathlib import Path

from .config import check, default_config, load_config, train_config
from .errors import DataError, NumericError, UsageError
from .experiment import (
    VoxelizedScenes,
    generate_dataset,
    load_split,
    run_experiment,
    run_phase,
    sparsify_scenes,
    write_report_csv,
)
from .geometry import apply_transform
from .metrics import evaluate, prepare_scene
from .nncore import EncoderParams, encoder_forward, encoder_input, gradient_check, plan_rows
from .pcio import generate_synthetic_scene, make_directory
from .training import (
    init_state,
    load_checkpoint,
    pair_loss_and_grads,
    pretrain_draws,
    pretrain_sample,
    save_checkpoint,  # unused; perfbench/tracer.py traces this name
)
from .vbloss import vb_loss_backward

gc.freeze()  # import-time objects live until exit: keep them from the collector

GRADCHECK_TOLERANCE = 1e-5


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="pointvb", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("synth", "pretrain", "finetune", "eval", "gradcheck", "run"):
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None,
                       help="experiment config file (key = value lines)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", type=Path, default=None,
                       help="override the config output directory")
        if name in ("finetune", "eval"):
            p.add_argument("--checkpoint", type=Path, default=None,
                           help="checkpoint to start from / evaluate")
    return parser


def _values(args) -> dict:
    values = load_config(args.config) if args.config else default_config()
    if args.seed is not None:
        values["seed"] = check("seed", args.seed, "--seed: ")
    if args.out is not None:
        values["out_dir"] = str(args.out)
    return values


def _cmd_synth(args) -> int:
    values = _values(args)
    out = Path(values["data_dir"] or Path(values["out_dir"]) / "data")
    generate_dataset(values, out)
    print(f"wrote synthetic dataset to {out}")
    return 0


def _cmd_train(args) -> int:
    """`pretrain` or `finetune`: one phase; fine-tuning starts from
    --checkpoint or init_checkpoint when one is given and trains on
    labels_per_scene labels a scene."""
    values = _values(args)
    cfg = train_config(values, args.command)
    out = make_directory(values["out_dir"])
    checkpoint = cfg.phase == "finetune" and (args.checkpoint or values["init_checkpoint"])
    state = load_checkpoint(checkpoint, cfg)[0] if checkpoint else None
    scenes = load_split(values, "train")
    if cfg.phase == "finetune":
        scenes = sparsify_scenes(scenes, values["labels_per_scene"], values["seed"])
    _, trace = run_phase(cfg, VoxelizedScenes(scenes, cfg), state, out)
    print(f"{cfg.phase}: {len(trace)} steps; final loss {trace[-1][2]:.6f}; "
          f"outputs in {out}")
    return 0


def _cmd_eval(args) -> int:
    values = _values(args)
    if args.checkpoint is None:
        raise UsageError("eval requires --checkpoint")
    out = make_directory(values["out_dir"])
    cfg = train_config(values, "finetune")
    state, _ = load_checkpoint(args.checkpoint, cfg)
    val_scenes = load_split(values, "val")
    report = evaluate(state, val_scenes, cfg)
    write_report_csv(report, out / "report.csv")
    print(f"mIoU {report.mean_iou:.4f} over {len(val_scenes)} scenes; "
          f"report at {out / 'report.csv'}")
    return 0


def _cmd_gradcheck(args) -> int:
    """Check the full pretrain loss gradient on a tiny random instance: the pair
    pretraining runs, two views of one prepared cloud over its kNN graph."""
    values = _values(args)
    cfg = replace(train_config(values, "pretrain"), feature_dim=8,
                  hidden_widths=(8,), knn=4, fps_count=16, voxel_size=0.05)
    cloud, _ = generate_synthetic_scene(values["seed"], 32, 2)
    cloud, _, neighbors = prepare_scene(cloud, cfg.voxel_size, cfg.knn)
    state = init_state(cfg)
    _, (t_p, t_q, start) = pretrain_draws(state.rng, [cloud])
    views = apply_transform(cloud, t_p), apply_transform(cloud, t_q)
    sample = pretrain_sample(cloud, cfg, start)
    layers = range(len(state.encoder.weights))
    plan = plan_rows(neighbors, None, len(layers))
    inputs = [encoder_input(view, plan) for view in views]

    def loss_fn(params):
        enc = EncoderParams([params[f"enc.w{i}"] for i in layers],
                            [params[f"enc.b{i}"] for i in layers])
        fp, fq = (encoder_forward(enc, plan, x)[0][sample] for x in inputs)
        loss, _, _ = vb_loss_backward(fp, fq, cfg)
        return loss

    _, grads = pair_loss_and_grads(state.encoder, *views, sample, cfg, neighbors)
    errors = gradient_check(loss_fn, state.param_dict(), grads, rng=state.rng)
    worst = max(errors, key=errors.get)
    passed = errors[worst] < GRADCHECK_TOLERANCE
    print(f"{'PASS' if passed else 'FAIL'} max relative error {errors[worst]:.3e} "
          f"at {worst} (tolerance {GRADCHECK_TOLERANCE})")
    return 0 if passed else 3


def _cmd_run(args) -> int:
    values = _values(args)
    out = values["out_dir"]
    report = run_experiment(values, out)
    print(f"experiment complete: mIoU {report.mean_iou:.4f}; "
          f"outputs in {out}")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "pretrain": _cmd_train,
    "finetune": _cmd_train,
    "eval": _cmd_eval,
    "gradcheck": _cmd_gradcheck,
    "run": _cmd_run,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # say, a config whose arrays the machine cannot hold
        print(f"out of memory: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
