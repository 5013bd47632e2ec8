"""Strict line-oriented `key = value` experiment configuration.

Unknown keys, bad types, and duplicate keys are errors that name the key
and line. The full grammar is documented in docs/config.md.
"""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path

from .errors import ConfigError
from .training import TrainConfig


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(text)


def _parse_widths(text: str) -> tuple[int, ...]:
    widths = tuple(int(tok) for tok in text.split(","))
    if not widths or any(w < 1 for w in widths):
        raise ValueError(text)
    return widths


# key -> (parser, default); defaults are desk scale
SCHEMA: dict[str, tuple] = {
    "seed": (int, 0),
    "out_dir": (str, "out"),
    "data_dir": (str, ""),
    # synthetic dataset
    "num_scenes": (int, 16),
    "val_scenes": (int, 8),
    "points_per_scene": (int, 2048),
    "num_classes": (int, 4),
    # encoder
    "feature_dim": (int, 32),
    "hidden_widths": (_parse_widths, (64, 64)),
    "knn": (int, 16),
    "voxel_size": (float, 0.05),
    # pretraining
    "pretrain": (_parse_bool, True),
    "pretrain_steps": (int, 500),
    "pretrain_lr": (float, 0.05),
    "fps_count": (int, 256),
    "off_diagonal_weight": (float, 1.0 / 32.0),
    "squared_norm": (_parse_bool, False),
    # fine-tuning
    "finetune": (_parse_bool, True),
    "finetune_steps": (int, 600),
    "finetune_lr": (float, 0.05),
    "labels_per_scene": (int, 20),
    "init_checkpoint": (str, ""),
    # optimizer
    "momentum": (float, 0.0),
    "poly_power": (float, 0.9),
    "batch_size": (int, 1),
}


def default_config() -> dict:
    return {key: default for key, (_, default) in SCHEMA.items()}


def parse_config_text(text: str, source: str = "<config>") -> dict:
    values = default_config()
    seen: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{source}: expected 'key = value', got '{body}'",
                              lineno)
        key, _, raw = body.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in SCHEMA:
            raise ConfigError(f"{source}: unknown key '{key}'", lineno)
        if key in seen:
            raise ConfigError(f"{source}: duplicate key '{key}'", lineno)
        seen.add(key)
        parser, _ = SCHEMA[key]
        try:
            values[key] = parser(raw)
        except ValueError:
            raise ConfigError(
                f"{source}: bad value '{raw}' for key '{key}'", lineno
            ) from None
    return values


def load_config(path: str | Path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 at byte {exc.start}") from None
    return parse_config_text(text, str(path))


def train_config(values: dict, phase: str) -> TrainConfig:
    """Build the phase hyperparameter block from a parsed config: every
    TrainConfig field the schema names, and the phase's steps and rate."""
    shared = {f.name: values[f.name] for f in fields(TrainConfig) if f.name in SCHEMA}
    return TrainConfig(phase=phase, iterations=values[f"{phase}_steps"],
                       lr0=values[f"{phase}_lr"], **shared)
