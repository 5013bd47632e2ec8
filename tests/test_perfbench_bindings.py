"""Every name the benchmark's tracer patches still exists in the package.

perfbench/tracer.py replaces `module:attribute` bindings to time the
program; a refactor that moves or renames one of them would break the
benchmark's traced runs, so it fails here instead.
"""

import ast
import importlib
import importlib.util
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import pointvb
from pointvb import experiment, metrics
from pointvb.experiment import (
    VoxelizedScenes,
    finetune,
    make_synthetic_dataset,
    pretrain,
)
from pointvb.pcio import ABSENT, SparseLabelSet
from pointvb.training import TrainConfig, attach_head, init_state

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture
def tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the class is built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves(tracer):
    bindings = [b for op in tracer.OPS for b in op.bindings]
    bindings += [tracer.STEP_BINDING, tracer.SCENE_BINDING, tracer.CLI_BINDING]
    missing = []
    for binding in bindings:
        module_name, attr = binding.split(":")
        if not callable(getattr(importlib.import_module(module_name), attr, None)):
            missing.append(binding)
    assert len(bindings) > 3 and not missing, missing


def test_training_steps_record_every_step_op(tracer):
    """Two pretrain and two fine-tune steps under the full tracer call each
    op of a training step at least once, so no step can bypass a traced
    name unnoticed."""
    scenes = make_synthetic_dataset(0, 1, 256, 4)
    cfg = TrainConfig(iterations=2, lr0=0.01, fps_count=16, feature_dim=8,
                      hidden_widths=(8,), knn=4)
    with tracer.Tracer(full=True) as spans:
        data = VoxelizedScenes(scenes, cfg)
        state = init_state(cfg)
        pretrain(state, data, cfg)
        cfg.phase = "finetune"
        attach_head(state, cfg)
        finetune(state, data, cfg)
    calls = {name: stats.calls for name, stats in tracer.op_stats(spans.spans).items()}
    assert calls["training.pretrain_step"] == calls["training.finetune_step"] == 2
    for name in ("geometry.fps", "nncore.forward", "nncore.backward",
                 "nncore.pooling_build", "vbloss.loss_backward", "training.sgd"):
        assert calls.get(name, 0) >= 1, name


def test_evaluation_records_each_scored_scene(tracer):
    """Under the full tracer, evaluate records one kNN build, one voxelize
    and one predict_scene span per scored scene, including the graphs its
    helper thread builds ahead; the scene without truth records none."""
    scenes = make_synthetic_dataset(0, 3, 256, 4, split="val")
    cloud, _ = scenes.scenes[1]
    scenes.scenes[1] = (cloud, SparseLabelSet(np.full(len(cloud), ABSENT), 4))
    cfg = TrainConfig(phase="finetune", feature_dim=8, hidden_widths=(8,), knn=4)
    state = init_state(cfg, with_head=True)
    with tracer.Tracer(full=True) as spans:
        metrics.evaluate(state, scenes, cfg)  # the binding the tracer patches
    calls = {name: stats.calls for name, stats in tracer.op_stats(spans.spans).items()}
    assert calls["metrics.evaluate"] == 1
    for name in ("geometry.knn", "geometry.voxelize", "metrics.predict_scene"):
        assert calls.get(name, 0) == 2, name


def test_training_preparation_records_each_scene(tracer):
    """Under the full tracer, VoxelizedScenes records one kNN build and one
    voxelize span per scene, as evaluate does per scored scene."""
    scenes = make_synthetic_dataset(0, 3, 256, 4)
    cfg = TrainConfig(feature_dim=8, hidden_widths=(8,), knn=4)
    with tracer.Tracer(full=True) as spans:
        experiment.VoxelizedScenes(scenes, cfg)  # the binding the tracer patches
    calls = {name: stats.calls for name, stats in tracer.op_stats(spans.spans).items()}
    assert calls["experiment.dataset_prep"] == 1
    for name in ("geometry.knn", "geometry.voxelize"):
        assert calls.get(name, 0) == 3, name


def test_every_imported_name_is_read(tracer):
    """Each name a module of the package (but __init__) imports is read in
    that module, unless the tracer binds it there: the tracer patches the
    module's own binding, so that import must stay though nothing reads it."""
    bound = {b for op in tracer.OPS for b in op.bindings}
    unread = []
    for path in sorted(Path(pointvb.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                    getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                binding = f"pointvb.{path.stem}:{name}"
                if name not in read and binding not in bound:
                    unread.append(binding)
    assert not unread, unread


def test_every_definition_is_read(tracer):
    """Each function, class and method the package defines (but dunders,
    which Python calls) is read somewhere in the package as a name or an
    attribute, re-exported by __init__, or bound by the tracer.

    Names are matched alone, without their owner: a member that shares its
    name with one read elsewhere (say a `total` or `copy` method, when some
    other object's `.total` or `.copy` is read) passes unseen."""
    bindings = [b for op in tracer.OPS for b in op.bindings]
    bindings += [tracer.STEP_BINDING, tracer.SCENE_BINDING, tracer.CLI_BINDING]
    read = {binding.split(":")[1] for binding in bindings}
    defined = []
    for path in sorted(Path(pointvb.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias) and path.name == "__init__.py":
                read.add(node.asname or node.name)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and \
                    not node.name.startswith("__"):
                defined.append((path.stem, node.name))
    unread = [f"{module}.{name}" for module, name in defined if name not in read]
    assert not unread, unread


def test_every_parameter_is_read():
    """Each parameter of each function, method and lambda the package
    defines (but a method's self, which Python passes) is read in its body,
    a nested function's body included: a parameter that nothing reads is an
    input that nothing obeys."""
    unread = []
    for path in sorted(Path(pointvb.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
                continue
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {name.id for part in body for name in ast.walk(part)
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)}
            params = node.args
            for arg in [*params.posonlyargs, *params.args, *params.kwonlyargs,
                        *filter(None, (params.vararg, params.kwarg))]:
                if arg.arg not in read | {"self"}:
                    unread.append(f"{path.stem}.{getattr(node, 'name', 'lambda')}"
                                  f"({arg.arg}) at line {node.lineno}")
    assert not unread, unread


def test_every_train_config_field_is_read():
    """Each TrainConfig field is read as an attribute outside config.py, in
    the package or by the tracer: a field that is only stored (say, in every
    checkpoint) is a setting that nothing obeys."""
    paths = [path for path in Path(pointvb.__file__).parent.glob("*.py")
             if path.name != "config.py"] + [TRACER]
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = [f.name for f in fields(TrainConfig) if f.name not in read]
    assert not unread, unread
