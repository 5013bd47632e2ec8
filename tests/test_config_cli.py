import ctypes
import json
import math
import os
import re
import shutil
import struct
import subprocess
import sys
import warnings
import zlib
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import scipy

from pointvb import experiment, metrics, pcio, training
from pointvb.cli import main
from pointvb.config import (
    SCHEMA,
    default_config,
    load_config,
    parse_config_text,
    train_config,
)
from pointvb.errors import ConfigError
from pointvb.training import (
    TrainConfig,
    init_state,
    load_checkpoint,
    pair_loss_and_grads,
    save_checkpoint,
)


class TestParseConfig:
    def test_empty_text_gives_defaults(self):
        assert parse_config_text("") == default_config()

    def test_comments_and_blank_lines_ignored(self):
        text = "\n# a comment\n  \nseed = 9  # trailing comment\n"
        values = parse_config_text(text)
        assert values["seed"] == 9

    def test_every_schema_key_round_trips(self):
        values = parse_config_text(
            "\n".join(
                [
                    "seed = 3",
                    "out_dir = results",
                    "data_dir = scenes",
                    "num_scenes = 12",
                    "val_scenes = 6",
                    "points_per_scene = 1024",
                    "num_classes = 5",
                    "feature_dim = 24",
                    "hidden_widths = 32,48",
                    "knn = 12",
                    "voxel_size = 0.04",
                    "pretrain = yes",
                    "pretrain_steps = 100",
                    "pretrain_lr = 0.02",
                    "fps_count = 128",
                    "off_diagonal_weight = 0.125",
                    "squared_norm = true",
                    "finetune = no",
                    "finetune_steps = 200",
                    "finetune_lr = 0.01",
                    "labels_per_scene = 50",
                    "init_checkpoint = pre.ckpt",
                    "momentum = 0.8",
                    "poly_power = 1.0",
                    "batch_size = 2",
                ]
            )
        )
        assert set(values) == set(SCHEMA)
        assert values["hidden_widths"] == (32, 48)
        assert values["squared_norm"] is True
        assert values["finetune"] is False
        assert values["voxel_size"] == pytest.approx(0.04)

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError) as exc:
            parse_config_text("seed = 1\nlearningrate = 0.1\n")
        assert "learningrate" in str(exc.value)
        assert exc.value.line == 2

    def test_duplicate_key_reports_line(self):
        with pytest.raises(ConfigError) as exc:
            parse_config_text("seed = 1\nseed = 2\n")
        assert "duplicate" in str(exc.value)
        assert exc.value.line == 2

    def test_bad_value_reports_key_and_line(self):
        with pytest.raises(ConfigError) as exc:
            parse_config_text("knn = many")
        assert "knn" in str(exc.value)
        assert exc.value.line == 1

    def test_missing_equals_sign(self):
        with pytest.raises(ConfigError) as exc:
            parse_config_text("just some words")
        assert exc.value.line == 1

    def test_bad_bool(self):
        with pytest.raises(ConfigError):
            parse_config_text("pretrain = maybe")

    def test_bad_widths(self):
        with pytest.raises(ConfigError):
            parse_config_text("hidden_widths = 16,0")

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.cfg")

    def test_out_of_range_value_reports_key_value_and_line(self):
        with pytest.raises(ConfigError) as exc:
            parse_config_text("seed = 1\nmomentum = 1.0\n")
        assert "'momentum'" in str(exc.value) and "1.0" in str(exc.value)
        assert exc.value.line == 2

    def test_huge_counts_parse(self):
        # parsed only: a run of this size would take hours
        values = parse_config_text(
            "pretrain_steps = 1000000000000\nfinetune_steps = 1000000000000\n"
            "num_scenes = 1000000000\nval_scenes = 1000000000\n"
            "points_per_scene = 1000000000000\nbatch_size = 1000000\n")
        assert values["pretrain_steps"] == values["finetune_steps"] == 10**12
        assert values["points_per_scene"] == 10**12
        assert train_config(values, "finetune").iterations == 10**12

    def test_train_config_selects_phase_values(self):
        values = parse_config_text(
            "pretrain_steps = 11\npretrain_lr = 0.3\n"
            "finetune_steps = 22\nfinetune_lr = 0.4\n"
        )
        pre = train_config(values, "pretrain")
        fine = train_config(values, "finetune")
        assert (pre.iterations, pre.lr0) == (11, 0.3)
        assert (fine.iterations, fine.lr0) == (22, 0.4)
        assert pre.phase == "pretrain" and fine.phase == "finetune"

    @pytest.mark.parametrize("field, value, key", [
        ("iterations", 0, "finetune_steps"), ("lr0", float("nan"), "finetune_lr"),
        ("momentum", -0.5, "momentum"), ("hidden_widths", (8, 0), "hidden_widths"),
        ("off_diagonal_weight", float("inf"), "off_diagonal_weight"),
    ])
    def test_train_config_checks_the_schema_ranges(self, field, value, key):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            TrainConfig(phase="finetune", **{field: value})


def doc_key_table() -> dict[str, dict[str, str]]:
    """docs/config.md's key table: key -> {column name: cell text}."""
    text = (Path(__file__).parent.parent / "docs" / "config.md").read_text()
    table = text.split("## Keys", 1)[1].split("\n## ", 1)[0]
    rows = [[cell.strip() for cell in line.strip().strip("|").split("|")]
            for line in table.splitlines() if line.startswith("|")]
    header, body = rows[0], rows[2:]
    return {row[0].strip("`"): dict(zip(header, row)) for row in body}


def documented_range(text: str):
    """The predicate a Range cell states, or None for "any"."""
    if text == "any":
        return None
    interval = re.fullmatch(r"\[(\S+), (\S+)\)", text)
    if interval:
        low, high = map(float, interval.groups())
        return lambda v: low <= v < high
    each, finite, op, bound = re.fullmatch(
        r"(each )?(finite, )?(≥|>) (-?\d+)", text).groups()

    def one(v):
        return (not finite or math.isfinite(v)) and \
            (v >= int(bound) if op == "≥" else v > int(bound))
    return (lambda v: all(one(w) for w in v)) if each else one


class TestSchemaDrift:
    """docs/config.md, SCHEMA and TrainConfig state one set of defaults and
    ranges."""

    TYPES = {int: "int", float: "float", str: "str"}
    PROBES = {
        "int": [-2, -1, 0, 1, 2, 3, 10**12],
        "float": [-math.inf, -1.0, -1e-300, 0.0, 1e-300, 0.5, 0.999, 1.0, 2.0,
                  1e300, math.inf, math.nan],
        "widths": [(1,), (0,), (-1,), (5, 0), (3, 4), (1, 1, 1)],
    }

    def test_doc_table_matches_schema(self):
        table = doc_key_table()
        assert list(table) == list(SCHEMA)
        for key, (parser, default, valid) in SCHEMA.items():
            row = table[key]
            kind = self.TYPES.get(parser) or \
                ("bool" if isinstance(default, bool) else "widths")
            assert row["Type"] == kind, key
            cell = "" if row["Default"] == "*(empty)*" else row["Default"].strip("`")
            assert parser(cell) == default, key
            documented = documented_range(row["Range"])
            assert (documented is None) == (valid is None), key
            for probe in self.PROBES.get(kind, []) if valid else []:
                assert documented(probe) == valid(probe), (key, probe)

    def test_train_config_defaults_are_the_schema_defaults(self):
        defaults = default_config()
        renamed = {"iterations": "pretrain_steps", "lr0": "pretrain_lr"}
        cfg = TrainConfig()
        for f in fields(TrainConfig):
            if f.name != "phase":
                assert getattr(cfg, f.name) == defaults[renamed.get(f.name, f.name)], \
                    f.name


TINY_CONFIG = """
num_scenes = 3
val_scenes = 2
points_per_scene = 256
feature_dim = 8
hidden_widths = 16
knn = 8
fps_count = 32
pretrain_steps = 5
finetune_steps = 5
momentum = 0.0
labels_per_scene = 20
"""


# a checkpoint's step, edited to what is not a count of steps taken
STEP_EDITS = {"step_string": "x", "step_negative": -1, "step_fraction": 1.5,
              "step_true": True}


@pytest.fixture
def tiny_config_file(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG)
    return path


class TestCli:
    def test_run_writes_outputs(self, tiny_config_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--config", str(tiny_config_file),
                     "--out", str(out)])
        assert code == 0
        for name in ("pretrain_trace.csv", "finetune_trace.csv", "trace.csv",
                     "report.csv", "pretrain.ckpt", "final.ckpt"):
            assert (out / name).exists(), name
        assert "mIoU" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, tiny_config_file, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert main(["run", "--config", str(tiny_config_file),
                     "--out", str(first)]) == 0
        assert main(["run", "--config", str(tiny_config_file),
                     "--out", str(second)]) == 0
        for name in ("trace.csv", "report.csv", "pretrain.ckpt",
                     "final.ckpt"):
            assert (first / name).read_bytes() == \
                (second / name).read_bytes(), name

    def test_pretrain_then_finetune_then_eval(self, tiny_config_file,
                                              tmp_path):
        out = tmp_path / "out"
        assert main(["pretrain", "--config", str(tiny_config_file),
                     "--out", str(out)]) == 0
        ckpt = out / "pretrain.ckpt"
        assert ckpt.exists()
        assert main(["finetune", "--config", str(tiny_config_file),
                     "--out", str(out), "--checkpoint", str(ckpt)]) == 0
        assert main(["eval", "--config", str(tiny_config_file),
                     "--out", str(out),
                     "--checkpoint", str(out / "final.ckpt")]) == 0
        report = (out / "report.csv").read_text()
        assert report.startswith("class,iou\n")
        assert report.strip().splitlines()[-1].startswith("mean,")
        # the split path trains exactly what `run` trains
        full = tmp_path / "full"
        assert main(["run", "--config", str(tiny_config_file),
                     "--out", str(full)]) == 0
        for name in ("pretrain_trace.csv", "finetune_trace.csv",
                     "pretrain.ckpt", "final.ckpt"):
            assert (out / name).read_bytes() == (full / name).read_bytes(), \
                name

    def test_every_phase_sets_up_the_process(self, tiny_config_file, tmp_path,
                                            monkeypatch):
        """Both training phases and evaluation call the one process set-up,
        `pointvb eval` included, so no phase runs without the retained heap
        or the BLAS pin."""
        assert experiment.set_up_process is metrics.set_up_process is \
            training.set_up_process
        calls = []
        for module in (experiment, metrics):
            monkeypatch.setattr(module, "set_up_process",
                                lambda name=module.__name__: calls.append(name))
        out = tmp_path / "out"
        assert main(["run", "--config", str(tiny_config_file),
                     "--out", str(out)]) == 0
        assert calls == ["pointvb.experiment"] * 2 + ["pointvb.metrics"]
        calls.clear()
        assert main(["eval", "--config", str(tiny_config_file),
                     "--out", str(tmp_path / "eval"),
                     "--checkpoint", str(out / "final.ckpt")]) == 0
        assert calls == ["pointvb.metrics"]

    def test_eval_reads_only_the_validation_split(self, tiny_config_file,
                                                  tmp_path):
        """With no training split on disk, `eval` of a run's final.ckpt, and
        `run` with both phases off and that checkpoint as init_checkpoint,
        both reproduce the run's report.csv."""
        data = tmp_path / "out" / "data"
        assert main(["synth", "--config", str(tiny_config_file),
                     "--out", str(tmp_path / "out")]) == 0
        on_disk = tmp_path / "on_disk.cfg"
        on_disk.write_text(TINY_CONFIG + f"data_dir = {data}\n")
        run = tmp_path / "run"
        assert main(["run", "--config", str(on_disk), "--out", str(run)]) == 0
        shutil.rmtree(data / "train")
        evaluated = tmp_path / "eval"
        assert main(["eval", "--config", str(on_disk), "--out", str(evaluated),
                     "--checkpoint", str(run / "final.ckpt")]) == 0
        assert (evaluated / "report.csv").read_bytes() == \
            (run / "report.csv").read_bytes()
        scoring = tmp_path / "score.cfg"
        scoring.write_text(on_disk.read_text() + "pretrain = false\nfinetune = false\n"
                           f"init_checkpoint = {run / 'final.ckpt'}\n")
        scored = tmp_path / "scored"
        assert main(["run", "--config", str(scoring), "--out", str(scored)]) == 0
        assert (scored / "report.csv").read_bytes() == \
            (evaluated / "report.csv").read_bytes()

    def test_synth_writes_dataset(self, tiny_config_file, tmp_path):
        out = tmp_path / "out"
        assert main(["synth", "--config", str(tiny_config_file),
                     "--out", str(out)]) == 0
        for split, count in (("train", 3), ("val", 2)):
            for suffix in (".ply", ".labels"):
                written = sorted((out / "data" / split).glob(f"scene_*{suffix}"))
                assert len(written) == count, (split, suffix)

    def test_synth_reruns_into_its_own_directory(self, tiny_config_file, tmp_path):
        out = tmp_path / "out"
        for _ in range(2):
            assert main(["synth", "--config", str(tiny_config_file),
                         "--out", str(out)]) == 0
        assert len(list((out / "data").rglob("scene_*"))) == 2 * (3 + 2)

    @pytest.mark.parametrize("count, fewer", [("num_scenes = 3", "num_scenes = 2"),
                                              ("val_scenes = 2", "val_scenes = 1")])
    def test_synth_refuses_a_directory_of_another_dataset(
            self, count, fewer, tiny_config_file, tmp_path, capsys):
        """A smaller dataset of another seed is not mixed into an old one's
        directory: synth exits 2 and leaves every file of either split as it
        was, even when only the validation split is smaller."""
        out = tmp_path / "out"
        assert main(["synth", "--config", str(tiny_config_file), "--out", str(out),
                     "--seed", "1"]) == 0

        def files():
            return {path: (path.read_bytes(), path.stat().st_mtime_ns)
                    for path in (out / "data").rglob("*") if path.is_file()}

        before = files()
        smaller = tmp_path / "smaller.cfg"
        smaller.write_text(TINY_CONFIG.replace(count, fewer))
        assert main(["synth", "--config", str(smaller), "--out", str(out),
                     "--seed", "2"]) == 2
        assert "data error" in capsys.readouterr().err
        assert files() == before

    @pytest.mark.parametrize("command", ["run", "finetune"])
    def test_too_many_labels_per_scene_is_refused_before_preparing(
            self, command, tmp_path, capsys, monkeypatch):
        """A labels_per_scene past a training scene's labels exits 2 before
        any scene is prepared or any phase runs: out_dir stays empty."""
        prepared, prepare = [], metrics.prepare_scene
        monkeypatch.setattr(metrics, "prepare_scene",
                            lambda *a: prepared.append(1) or prepare(*a))
        config = tmp_path / "many.cfg"
        config.write_text(TINY_CONFIG.replace("labels_per_scene = 20",
                                              "labels_per_scene = 300"))
        out = tmp_path / "out"
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        assert "data error: only 256 present labels, need 300" in capsys.readouterr().err
        assert prepared == [] and list(out.iterdir()) == []

    # every seed: the last bias's true gradient is exactly zero (the loss
    # centers each feature column), and so is a dead unit's
    @pytest.mark.parametrize("seed", range(25))
    def test_gradcheck_passes(self, seed, capsys):
        assert main(["gradcheck", "--seed", str(seed)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS max relative error")
        assert re.search(r" at enc\.[wb]\d+ \(tolerance 1e-05\)$", out.strip()), out

    @pytest.mark.parametrize("wrong, tensor", [
        (lambda name, g: 1.01 * g, None),
        (lambda name, g: 0.0 * g if name == "enc.w0" else g, "enc.w0"),
    ], ids=["scaled", "zeroed"])
    def test_gradcheck_fails_on_wrong_gradients(self, wrong, tensor, capsys,
                                                monkeypatch):
        def wrong_grads(*args):
            loss, grads = pair_loss_and_grads(*args)
            return loss, {name: wrong(name, g) for name, g in grads.items()}

        monkeypatch.setattr("pointvb.cli.pair_loss_and_grads", wrong_grads)
        assert main(["gradcheck"]) == 3
        out = capsys.readouterr().out
        assert out.startswith("FAIL max relative error")
        assert "(tolerance 1e-05)" in out
        if tensor is not None:  # the zeroed tensor scores about 1.0
            assert f"1.000e+00 at {tensor} " in out

    def test_seed_override_changes_results(self, tiny_config_file, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["run", "--config", str(tiny_config_file), "--out",
                     str(a), "--seed", "1"]) == 0
        assert main(["run", "--config", str(tiny_config_file), "--out",
                     str(b), "--seed", "2"]) == 0
        assert (a / "trace.csv").read_bytes() != (b / "trace.csv").read_bytes()
        _, cfg_a = load_checkpoint(a / "final.ckpt")
        assert cfg_a.seed == 1

    def test_usage_error_exit_code(self, capsys):
        assert main(["eval"]) == 1  # --checkpoint is required
        assert "usage error" in capsys.readouterr().err

    def test_bad_config_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("no_such_key = 1\n")
        assert main(["run", "--config", str(bad)]) == 1
        assert "no_such_key" in capsys.readouterr().err

    def test_missing_config_file_exit_code(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "absent.cfg")]) == 1

    @pytest.mark.parametrize("key, value", [
        ("feature_dim", "0"), ("knn", "-1"), ("seed", "-1"),
        ("poly_power", "-1"), ("pretrain_lr", "nan"), ("voxel_size", "nan"),
        ("pretrain_steps", "0"), ("batch_size", "0"), ("fps_count", "1"),
        ("voxel_size", "0"), ("off_diagonal_weight", "inf"),
    ])
    def test_out_of_range_value_exit_code(self, key, value, tmp_path, capsys,
                                          monkeypatch):
        loads = []
        monkeypatch.setattr("pointvb.experiment.load_split",
                            lambda *a: loads.append(a))
        lines = [line for line in TINY_CONFIG.splitlines()
                 if not line.startswith(f"{key} ")] + [f"{key} = {value}"]
        config = tmp_path / "range.cfg"
        config.write_text("\n".join(lines) + "\n")
        assert main(["run", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "out of range" in err and f"'{key}'" in err
        assert f"line {len(lines)}:" in err
        assert loads == []  # refused before any scene loads

    def test_out_of_range_seed_flag_exit_code(self, tmp_path, capsys):
        assert main(["run", "--seed", "-1", "--out", str(tmp_path)]) == 1
        assert "'seed'" in capsys.readouterr().err

    def test_config_naming_a_directory_exit_code(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and str(tmp_path) in err

    @pytest.mark.parametrize("suffix", [".ply", ".labels"])
    def test_scene_file_naming_a_directory_exit_code(
            self, suffix, tiny_config_file, tmp_path, capsys):
        data = tmp_path / "out" / "data"
        assert main(["synth", "--config", str(tiny_config_file),
                     "--out", str(tmp_path / "out")]) == 0
        taken = sorted((data / "train").glob(f"scene_*{suffix}"))[0]
        taken.unlink()
        taken.mkdir()
        on_disk = tmp_path / "on_disk.cfg"
        on_disk.write_text(TINY_CONFIG + f"data_dir = {data}\n")
        assert main(["run", "--config", str(on_disk),
                     "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and str(taken) in err

    def test_nonfinite_ply_color_exit_code(self, tiny_config_file, tmp_path,
                                           capsys):
        data = tmp_path / "out" / "data"
        assert main(["synth", "--config", str(tiny_config_file),
                     "--out", str(tmp_path / "out")]) == 0
        bad = sorted((data / "train").glob("scene_*.ply"))[0]
        bad.write_text("ply\nformat ascii 1.0\nelement vertex 2\n"
                       "property float x\nproperty float y\nproperty float z\n"
                       "property uchar red\nproperty uchar green\n"
                       "property uchar blue\nend_header\n"
                       "0 0 0 10 20 30\n1 0 0 nan 20 30\n")
        on_disk = tmp_path / "on_disk.cfg"
        on_disk.write_text(TINY_CONFIG + f"data_dir = {data}\n")
        assert main(["run", "--config", str(on_disk),
                     "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "non-finite colors" in err

    def test_negative_label_index_exit_code(self, tiny_config_file, tmp_path,
                                            capsys):
        data = tmp_path / "out" / "data"
        assert main(["synth", "--config", str(tiny_config_file),
                     "--out", str(tmp_path / "out")]) == 0
        bad = sorted((data / "val").glob("scene_*.labels"))[0]
        bad.write_text("-1 1\n")
        on_disk = tmp_path / "on_disk.cfg"
        on_disk.write_text(TINY_CONFIG + f"data_dir = {data}\n")
        assert main(["run", "--config", str(on_disk),
                     "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and f"{bad}:1: negative index -1" in err

    @pytest.mark.parametrize("x, voxel_size", [(1e19, 0.05), (1.0, 1e-310)])
    def test_voxel_key_past_int64_exit_code(self, x, voxel_size, tiny_config_file,
                                            tmp_path, capsys):
        """A scene whose scaled coordinates overflow an int64 voxel key is a
        data error, not two points merged into one voxel."""
        data = tmp_path / "out" / "data"
        assert main(["synth", "--config", str(tiny_config_file),
                     "--out", str(tmp_path / "out")]) == 0
        path = sorted((data / "train").glob("scene_*.ply"))[0]
        cloud = pcio.load_ply(path)
        positions = cloud.positions.copy()
        positions[:2] = [[-x, 0.0, 0.0], [x, 0.0, 0.0]]
        pcio.save_ply(pcio.PointCloud(positions, cloud.colors), path)
        on_disk = tmp_path / "on_disk.cfg"
        on_disk.write_text(TINY_CONFIG + f"data_dir = {data}\n"
                           f"voxel_size = {voxel_size!r}\n")
        assert main(["run", "--config", str(on_disk),
                     "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "int64 voxel key" in err

    def test_coordinate_past_float32_exit_code(self, tiny_config_file, tmp_path,
                                               capsys):
        """Scenes scaled past float32's range, at a voxel size scaled alike,
        voxelize as before but reach the float32 encoder as the typed numeric
        failure, exit 3, with no warning."""
        data = tmp_path / "out" / "data"
        assert main(["synth", "--config", str(tiny_config_file),
                     "--out", str(tmp_path / "out")]) == 0
        scale = 1e38
        for path in data.glob("*/scene_*.ply"):
            cloud = pcio.load_ply(path)
            pcio.save_ply(pcio.PointCloud(cloud.positions * scale, cloud.colors), path)
        on_disk = tmp_path / "on_disk.cfg"
        on_disk.write_text(TINY_CONFIG + f"data_dir = {data}\n"
                           f"voxel_size = {0.05 * scale!r}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", str(on_disk),
                         "--out", str(tmp_path / "run")]) == 3
        err = capsys.readouterr().err
        assert "numeric failure" in err and "non-finite encoder input" in err, err

    def test_corrupt_checkpoint_exit_code(self, tiny_config_file, tmp_path,
                                          capsys):
        fake = tmp_path / "fake.ckpt"
        fake.write_bytes(b"VPBKgarbage")
        assert main(["eval", "--config", str(tiny_config_file),
                     "--checkpoint", str(fake)]) == 2
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", ["missing_tensor", "unknown_config_key",
                                      "empty_metadata",
                                      "out_of_range_config_value",
                                      "version_1", "bytes_past_last_tensor",
                                      "shape_larger_than_data",
                                      "swapped_weight_dims", "swapped_head_dims",
                                      "momentum_of_another_shape",
                                      "encoder_knn_not_knn", "nested_metadata",
                                      *STEP_EDITS])
    def test_malformed_checkpoint_structure_exit_code(
            self, edit, tiny_config_file, tmp_path, capsys):
        path = tmp_path / "edited.ckpt"
        cfg = TrainConfig(phase="finetune", feature_dim=8, hidden_widths=(8,),
                          knn=8)
        save_checkpoint(init_state(cfg, with_head=True), cfg, path)
        raw = path.read_bytes()
        (meta_len,) = struct.unpack_from("<I", raw, 8)
        meta = json.loads(raw[12:12 + meta_len])
        data = raw[12 + meta_len:-4]
        if edit == "missing_tensor":
            # a third layer's weights, of no size; its biases, enc.b2, are not stored
            meta["tensors"].append(["enc.w2", [0]])
        elif edit == "unknown_config_key":
            meta["config"]["no_such_key"] = 1
        elif edit == "out_of_range_config_value":
            meta["config"]["momentum"] = 1.0
        elif edit == "bytes_past_last_tensor":
            data += bytes(8)
        elif edit == "shape_larger_than_data":
            meta["tensors"][-1][1][0] += 1
        elif edit in ("swapped_weight_dims", "swapped_head_dims"):
            swapped = "enc.w0" if edit == "swapped_weight_dims" else "head.w"
            [shape] = [shape for name, shape in meta["tensors"] if name == swapped]
            shape.reverse()  # the same data size
        elif edit == "momentum_of_another_shape":
            meta["tensors"].append(["momentum.enc.b0", [3]])
            data += bytes(24)
        elif edit == "encoder_knn_not_knn":
            meta["encoder_knn"] = 4
        elif edit in STEP_EDITS:
            meta["step"] = STEP_EDITS[edit]
        meta_bytes = b"" if edit == "empty_metadata" else \
            json.dumps(meta).encode()
        if edit == "nested_metadata":  # deeper than the JSON decoder recurses
            meta_bytes = b"[" * 100_000 + b"]" * 100_000
        version = struct.pack("<I", 1) if edit == "version_1" else raw[4:8]
        body = (raw[:4] + version + struct.pack("<I", len(meta_bytes))
                + meta_bytes + data)
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        assert main(["eval", "--config", str(tiny_config_file),
                     "--checkpoint", str(path)]) == 2
        err = capsys.readouterr().err
        if edit == "version_1":
            assert "data error" in err and "unsupported version 1" in err
        else:
            assert "data error" in err and "malformed checkpoint" in err
        if edit == "out_of_range_config_value":
            assert "'momentum'" in err
        if edit in STEP_EDITS:
            assert f"step {STEP_EDITS[edit]!r}" in err

    def test_eval_of_a_final_checkpoint_with_swapped_dims_exit_code(
            self, tiny_config_file, tmp_path):
        """A final.ckpt whose header swaps enc.w0's dims (the same data size,
        its checksum recomputed) makes `pointvb eval` exit 2 with a data
        error that names the tensor, and print no traceback."""
        out = tmp_path / "out"
        assert main(["run", "--config", str(tiny_config_file),
                     "--out", str(out)]) == 0
        raw = (out / "final.ckpt").read_bytes()
        (meta_len,) = struct.unpack_from("<I", raw, 8)
        meta = json.loads(raw[12:12 + meta_len])
        [shape] = [shape for name, shape in meta["tensors"] if name == "enc.w0"]
        shape.reverse()
        meta_bytes = json.dumps(meta).encode()
        body = raw[:8] + struct.pack("<I", len(meta_bytes)) + meta_bytes + \
            raw[12 + meta_len:-4]
        edited = tmp_path / "edited.ckpt"
        edited.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        code, err, _ = run_in_child(tiny_config_file, out,
                                    ("eval", "--checkpoint", str(edited)))
        assert code == 2 and "Traceback" not in err, err
        assert "data error" in err and "'enc.w0'" in err

    def test_finetune_from_a_final_checkpoint_drops_its_momentum(
            self, tmp_path):
        """`finetune --checkpoint` of a momentum = 0.5 run's final.ckpt
        restarts with fresh momentum buffers: it writes what the same
        checkpoint without its buffers makes."""
        config = tmp_path / "momentum.cfg"
        config.write_text(TINY_CONFIG.replace("momentum = 0.0", "momentum = 0.5"))
        first = tmp_path / "first"
        assert main(["run", "--config", str(config), "--out", str(first)]) == 0
        state, cfg = load_checkpoint(first / "final.ckpt")
        assert set(state.momentum_buffers) == set(state.param_dict())
        state.momentum_buffers = {}
        save_checkpoint(state, cfg, tmp_path / "fresh.ckpt")
        for name, checkpoint in (("kept", first / "final.ckpt"),
                                 ("fresh", tmp_path / "fresh.ckpt")):
            assert main(["finetune", "--config", str(config), "--checkpoint",
                         str(checkpoint), "--out", str(tmp_path / name)]) == 0
        for name in ("finetune_trace.csv", "final.ckpt"):
            assert (tmp_path / "kept" / name).read_bytes() == \
                (tmp_path / "fresh" / name).read_bytes(), name

    def test_run_trains_in_float32_and_stores_it_exactly(self, tmp_path,
                                                          monkeypatch):
        """`run` saves float32 parameters and momentum buffers into version-2
        checkpoints whose <f8 data equal them, and `pointvb eval` of its
        final.ckpt writes its report.csv byte for byte."""
        config = tmp_path / "momentum.cfg"
        config.write_text(TINY_CONFIG.replace("momentum = 0.0", "momentum = 0.5"))
        saved, save = {}, experiment.save_checkpoint
        monkeypatch.setattr(experiment, "save_checkpoint", lambda state, cfg, path:
                            saved.update({Path(path).name: {
                                name: tensor.copy() for name, tensor
                                in training._state_tensors(state).items()}})
                            or save(state, cfg, path))
        out = tmp_path / "run"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        assert sorted(saved) == ["final.ckpt", "pretrain.ckpt"]
        for checkpoint, tensors in saved.items():
            raw = (out / checkpoint).read_bytes()
            assert struct.unpack_from("<I", raw, 4) == (2,)
            stored = training._state_tensors(load_checkpoint(out / checkpoint)[0])
            assert sorted(stored) == sorted(tensors)
            assert any(name.startswith("momentum.") for name in stored)
            for name, tensor in tensors.items():
                assert tensor.dtype == np.float32, name
                assert stored[name].dtype == np.float64, name
                np.testing.assert_array_equal(stored[name], tensor, err_msg=name)
        assert main(["eval", "--config", str(config), "--out", str(tmp_path / "eval"),
                     "--checkpoint", str(out / "final.ckpt")]) == 0
        assert (tmp_path / "eval" / "report.csv").read_bytes() == \
            (out / "report.csv").read_bytes()

    @pytest.mark.parametrize("key", ["pretrain_lr", "finetune_lr"])
    def test_learning_rate_past_float32_exit_code(self, key, tmp_path, capsys):
        """A finite learning rate that float32 overflows on ends in the typed
        numeric failure, exit 3, and raises no warning on the way."""
        config = tmp_path / "lr.cfg"
        config.write_text(TINY_CONFIG + f"{key} = 1e200\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", str(config),
                         "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "numeric failure" in err and "SGD step" in err, err

    def test_default_config_trains(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--out", str(out)]) == 0
        mean = (out / "report.csv").read_text().strip().splitlines()[-1]
        assert float(mean.split(",")[1]) >= 0.5

    def test_run_from_a_pretrain_checkpoint(self, tiny_config_file, tmp_path):
        """init_checkpoint = a run's pretrain.ckpt takes the place of its
        pretraining: fine-tuning, final.ckpt and the report repeat byte for
        byte."""
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["run", "--config", str(tiny_config_file),
                     "--out", str(first)]) == 0
        config = tmp_path / "init.cfg"
        config.write_text(TINY_CONFIG +
                          f"init_checkpoint = {first / 'pretrain.ckpt'}\n")
        assert main(["run", "--config", str(config), "--out", str(second)]) == 0
        assert not (second / "pretrain.ckpt").exists()
        for name in ("finetune_trace.csv", "final.ckpt", "report.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_run_from_a_final_checkpoint(self, tiny_config_file, tmp_path,
                                         monkeypatch):
        """init_checkpoint = a run's final.ckpt fine-tunes its trained head
        again, from step 0 for finetune_steps steps, and draws no new head."""
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["run", "--config", str(tiny_config_file),
                     "--out", str(first)]) == 0
        trained, _ = load_checkpoint(first / "final.ckpt")
        starts, finetune = [], experiment.finetune
        monkeypatch.setattr(experiment, "finetune", lambda state, *args: starts.append(
            (state.step, state.head.weight.copy(), state.head.bias.copy()))
            or finetune(state, *args))
        config = tmp_path / "init.cfg"
        config.write_text(TINY_CONFIG +
                          f"init_checkpoint = {first / 'final.ckpt'}\n")
        assert main(["run", "--config", str(config), "--out", str(second)]) == 0
        [(step, weight, bias)] = starts
        assert step == 0
        np.testing.assert_array_equal(weight, trained.head.weight)
        np.testing.assert_array_equal(bias, trained.head.bias)
        steps = (second / "finetune_trace.csv").read_text().splitlines()[1:]
        assert [int(line.split(",")[0]) for line in steps] == list(range(5))
        assert load_checkpoint(second / "final.ckpt")[0].step == 5

    def test_finetune_rejects_checkpoint_of_another_width(
            self, tiny_config_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["pretrain", "--config", str(tiny_config_file),
                     "--out", str(out)]) == 0
        narrow = tmp_path / "narrow.cfg"
        narrow.write_text(TINY_CONFIG.replace("feature_dim = 8",
                                              "feature_dim = 4"))
        assert main(["finetune", "--config", str(narrow), "--out", str(out),
                     "--checkpoint", str(out / "pretrain.ckpt")]) == 2
        assert "feature_dim" in capsys.readouterr().err

    def test_eval_rejects_checkpoint_of_other_classes(
            self, tiny_config_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--config", str(tiny_config_file),
                     "--out", str(out)]) == 0
        six = tmp_path / "six.cfg"
        six.write_text(TINY_CONFIG + "num_classes = 6\n")
        assert main(["eval", "--config", str(six), "--out", str(out),
                     "--checkpoint", str(out / "final.ckpt")]) == 2
        assert "num_classes" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "finetune", "run"])
    def test_missing_checkpoint_exit_code(self, command, tiny_config_file,
                                          tmp_path, capsys):
        missing = tmp_path / "absent.ckpt"
        if command == "run":
            config = tmp_path / "init.cfg"
            config.write_text(TINY_CONFIG + f"init_checkpoint = {missing}\n")
            argv = ["run", "--config", str(config)]
        else:
            argv = [command, "--config", str(tiny_config_file),
                    "--checkpoint", str(missing)]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and str(missing) in err

    def test_out_naming_a_file_exit_code(self, tiny_config_file, tmp_path,
                                         capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["run", "--config", str(tiny_config_file),
                     "--out", str(taken)]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and str(taken) in err

    @pytest.mark.parametrize("lines, message", [
        ("finetune = false\n", "no classification head trained"),
        ("pretrain = false\nfinetune = false\n", "enables neither"),
    ])
    def test_run_that_cannot_evaluate_is_refused_before_loading(
            self, lines, message, tmp_path, capsys, monkeypatch):
        loads = []
        monkeypatch.setattr("pointvb.experiment.load_split",
                            lambda *a: loads.append(a))
        config = tmp_path / "noeval.cfg"
        config.write_text(TINY_CONFIG + lines)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and message in err
        assert loads == [] and not (out / "pretrain.ckpt").exists()

    def test_allocation_past_memory_exit_code(self, tmp_path, capsys, monkeypatch):
        """A scene larger than memory (1e10 points would ask NumPy for 224 GiB)
        exits 4 with one line and no traceback; the generator raises NumPy's
        MemoryError here in place of allocating."""
        asked = []

        def refuse(seed, num_points, num_classes):
            asked.append(num_points)
            raise MemoryError(f"Unable to allocate 224. GiB for an array with "
                              f"shape ({num_points}, 3) and data type float64")

        monkeypatch.setattr(experiment, "generate_synthetic_scene", refuse)
        config = tmp_path / "huge.cfg"
        config.write_text(TINY_CONFIG.replace("points_per_scene = 256",
                                              "points_per_scene = 10000000000"))
        assert main(["run", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("out of memory: Unable to allocate 224. GiB")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert asked == [10_000_000_000]

    def test_unknown_subcommand(self):
        assert main(["explode"]) == 1


SRC = Path(__file__).resolve().parents[1] / "src"


def run_in_child(config: Path, out: Path, command: tuple = ("run",),
                 **env) -> tuple[int, str, int]:
    """`pointvb run` (or `command`) in a child that leads a session (process
    group) of its own; its exit code, standard error and process group id."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    with subprocess.Popen(
            [sys.executable, "-m", "pointvb.cli", *command, "--config", str(config),
             "--out", str(out)], env={**os.environ, "PYTHONPATH": path, **env},
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            start_new_session=True) as child:
        _, err = child.communicate(timeout=600)
    return child.returncode, err, child.pid


class TestChildProcess:
    """`pointvb run` as its own process: what the BLAS thread count and the
    FPS worker can change from outside."""

    @staticmethod
    def config(tmp_path, **values) -> Path:
        """TINY_CONFIG with `values` in place of its own."""
        lines = [line for line in TINY_CONFIG.splitlines()
                 if line.split(" = ")[0] not in values]
        config = tmp_path / "run.cfg"
        config.write_text("\n".join(lines + [f"{key} = {value}" for key, value
                                             in values.items()]) + "\n")
        return config

    # the wide case's GEMMs are large enough for OpenBLAS to use two threads
    @pytest.mark.parametrize("values", [{}, dict(
        points_per_scene=1024, feature_dim=32, hidden_widths="64,64",
        fps_count=256)], ids=["tiny", "wide"])
    def test_blas_thread_count_does_not_change_bytes(self, values, tmp_path):
        config = self.config(tmp_path, **values)
        outs = []
        for threads in ("1", "2"):
            outs.append(tmp_path / f"threads{threads}")
            code, err, _ = run_in_child(config, outs[-1],
                                        OPENBLAS_NUM_THREADS=threads)
            assert code == 0, err
        for name in ("trace.csv", "final.ckpt", "report.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), \
                name

    def test_scipy_blas_thread_count_does_not_change_bytes(self, tmp_path):
        """SciPy bundles an OpenBLAS of its own, loaded with scipy.linalg, that
        set_up_process leaves alone. No hot-path call reaches it: the CSR
        products of scipy.sparse._sparsetools and cKDTree link no BLAS. So a
        short pretrain phase writes the same trace and weights with that
        library at 1 and at 2 threads, set through its own setter."""
        libs = Path(scipy.__file__).resolve().parents[1] / "scipy.libs"
        lib = next(libs.glob("libscipy_openblas-*.so"), None)
        if lib is None or not hasattr(ctypes.CDLL(str(lib)),
                                      "scipy_openblas_set_num_threads"):
            pytest.skip("no SciPy-bundled OpenBLAS with its own thread setter")
        config = self.config(tmp_path, points_per_scene=1024, feature_dim=32,
                             hidden_widths="64,64", fps_count=256, pretrain_steps=10)
        script = ("import ctypes, sys, scipy.linalg; blas = ctypes.CDLL(sys.argv[1]); "
                  "blas.scipy_openblas_set_num_threads(int(sys.argv[2])); "
                  "assert blas.scipy_openblas_get_num_threads() == int(sys.argv[2]); "
                  "from pointvb.cli import main; sys.exit(main(sys.argv[3:]))")
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        outs = []
        for threads in ("1", "2"):
            outs.append(tmp_path / f"scipy_threads{threads}")
            child = subprocess.run(
                [sys.executable, "-c", script, str(lib), threads, "pretrain",
                 "--config", str(config), "--out", str(outs[-1])],
                env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                text=True, timeout=600)
            assert child.returncode == 0, child.stderr
        for name in ("pretrain_trace.csv", "pretrain.ckpt"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), \
                name

    @pytest.mark.parametrize("lr, code", [(0.05, 0), (1e200, 3)],
                             ids=["success", "numeric_failure"])
    def test_run_leaves_no_process(self, lr, code, tmp_path):
        config = self.config(tmp_path, pretrain_steps=40, pretrain_lr=lr)
        exit_code, err, group = run_in_child(config, tmp_path / "out")
        assert exit_code == code, err
        assert "Warning" not in err, err
        with pytest.raises(ProcessLookupError):  # nothing of its group runs
            os.killpg(group, 0)
