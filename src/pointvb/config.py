"""Strict line-oriented `key = value` experiment configuration and the
hyperparameters of one training phase, both checked against SCHEMA.

Unknown keys, bad types, duplicate keys and values out of range are errors
that name the key and line. The full grammar is documented in docs/config.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(text)


def _at_least(low):
    return lambda v: v >= low


def _finite_above_zero(v) -> bool:
    return math.isfinite(v) and v > 0


# key -> (parser, default, valid); defaults are desk scale and fix each key's
# type. valid is a predicate on the parsed value (None: any), false for NaN
# and +-inf wherever a finite number is needed.
SCHEMA: dict[str, tuple] = {
    "seed": (int, 0, _at_least(0)),
    "out_dir": (str, "out", None),
    "data_dir": (str, "", None),
    # synthetic dataset
    "num_scenes": (int, 16, _at_least(1)),
    "val_scenes": (int, 8, _at_least(1)),
    "points_per_scene": (int, 2048, _at_least(1)),
    "num_classes": (int, 4, _at_least(1)),
    # encoder
    "feature_dim": (int, 32, _at_least(1)),
    "hidden_widths": (lambda text: tuple(int(w) for w in text.split(",")), (64, 64),
                      lambda v: all(w >= 1 for w in v)),
    "knn": (int, 16, _at_least(0)),
    "voxel_size": (float, 0.05, _finite_above_zero),
    # pretraining
    "pretrain": (_parse_bool, True, None),
    "pretrain_steps": (int, 500, _at_least(1)),
    "pretrain_lr": (float, 0.05, _finite_above_zero),
    "fps_count": (int, 256, _at_least(2)),
    "off_diagonal_weight": (float, 1.0 / 32.0, _finite_above_zero),
    "squared_norm": (_parse_bool, False, None),
    # fine-tuning
    "finetune": (_parse_bool, True, None),
    "finetune_steps": (int, 600, _at_least(1)),
    "finetune_lr": (float, 0.05, _finite_above_zero),
    "labels_per_scene": (int, 20, _at_least(1)),
    "init_checkpoint": (str, "", None),
    # optimizer
    "momentum": (float, 0.0, lambda v: 0.0 <= v < 1.0),
    "poly_power": (float, 0.9, lambda v: math.isfinite(v) and v >= 0),
    "batch_size": (int, 1, _at_least(1)),
}


def check(key: str, value, where: str = "", line: int | None = None):
    """value, when it has the type of key's default (an int may stand for a
    float, a tuple's items have that of its first) and lies in key's range;
    ConfigError naming both if not."""
    _, default, valid = SCHEMA[key]
    pairs = [(value, default)]
    if type(default) is tuple and type(value) is tuple:
        pairs = [(item, default[0]) for item in value]
    if any(type(v) is not type(d) and (type(v), type(d)) != (int, float)
           for v, d in pairs):
        raise ConfigError(f"{where}value {value!r} is not of the type of key "
                          f"'{key}' (default {default!r})", line)
    if valid is not None and not valid(value):
        raise ConfigError(f"{where}value {value!r} out of range for key '{key}'",
                          line)
    return value


def default_config() -> dict:
    return {key: default for key, (_, default, _) in SCHEMA.items()}


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
        try:
            value = SCHEMA[key][0](raw)
        except ValueError:
            raise ConfigError(
                f"{source}: bad value '{raw}' for key '{key}'", lineno
            ) from None
        values[key] = check(key, value, f"{source}: ", lineno)
    return values


def load_config(path: str | Path) -> dict:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 at byte {exc.start}") from None
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read: {exc.strerror}") from None
    return parse_config_text(text, str(path))


def _key(name: str, phase: str) -> str:
    """The SCHEMA key of a TrainConfig field: iterations and lr0 are the
    phase's steps and rate."""
    return {"iterations": f"{phase}_steps", "lr0": f"{phase}_lr"}.get(name, name)


@dataclass
class TrainConfig:
    """Hyperparameters for one training phase, defaults and ranges from
    SCHEMA. Large-scale settings (20000/30000 iterations, H = 1024, D up to
    1024, 2 cm voxels, lr 0.1 with momentum 0.99) are valid values."""

    phase: str = "pretrain"            # pretrain | finetune
    iterations: int = SCHEMA["pretrain_steps"][1]
    batch_size: int = SCHEMA["batch_size"][1]
    lr0: float = SCHEMA["pretrain_lr"][1]
    momentum: float = SCHEMA["momentum"][1]
    poly_power: float = SCHEMA["poly_power"][1]
    off_diagonal_weight: float = SCHEMA["off_diagonal_weight"][1]
    fps_count: int = SCHEMA["fps_count"][1]            # H
    feature_dim: int = SCHEMA["feature_dim"][1]        # D
    hidden_widths: tuple[int, ...] = SCHEMA["hidden_widths"][1]
    knn: int = SCHEMA["knn"][1]
    seed: int = SCHEMA["seed"][1]
    voxel_size: float = SCHEMA["voxel_size"][1]
    num_classes: int = SCHEMA["num_classes"][1]
    squared_norm: bool = SCHEMA["squared_norm"][1]

    def __post_init__(self):
        if self.phase not in ("pretrain", "finetune"):
            raise ConfigError(f"unknown phase '{self.phase}'")
        for f in fields(self)[1:]:  # every field after phase
            check(_key(f.name, self.phase), getattr(self, f.name), f"{f.name}: ")


def train_config(values: dict, phase: str) -> TrainConfig:
    """Build the phase hyperparameter block from a parsed config: every
    TrainConfig field, iterations and lr0 from the phase's steps and rate."""
    return TrainConfig(phase=phase, **{f.name: values[_key(f.name, phase)]
                                       for f in fields(TrainConfig)[1:]})
