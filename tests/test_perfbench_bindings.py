"""Every name the benchmark's tracer patches still exists in the package.

perfbench/tracer.py replaces `module:attribute` bindings to time the
program; a refactor that moves or renames one of them would break the
benchmark's traced runs, so it fails here instead.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_binding_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the class is built
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    bindings = [b for op in tracer.OPS for b in op.bindings]
    bindings += [tracer.STEP_BINDING, tracer.SCENE_BINDING, tracer.CLI_BINDING]
    missing = []
    for binding in bindings:
        module_name, attr = binding.split(":")
        if not callable(getattr(importlib.import_module(module_name), attr, None)):
            missing.append(binding)
    assert len(bindings) > 3 and not missing, missing
