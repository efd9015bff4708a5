"""Every function the benchmark tracer wraps still exists in src/egorank.

perfbench/tracer.py records a vanished target as missing and its per-layer
metric as null, so a rename there would not fail a benchmark run. This test
resolves each ``module:qualname`` in its TARGETS the way the tracer does.
"""

import importlib
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_targets():
    # exec, not import, so no bytecode cache is written under perfbench/
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), namespace)
    return namespace["TARGETS"]


def test_every_traced_function_resolves():
    targets = _tracer_targets()
    assert targets
    missing = []
    for target in targets:
        module_name, qualname = target.split(":")
        try:
            owner = importlib.import_module(module_name)
            *outer, attr = qualname.split(".")
            for part in outer:
                owner = getattr(owner, part)
            inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError):
            missing.append(target)
    assert missing == []
