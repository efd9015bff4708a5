"""Every function the benchmark tracer wraps still exists in src/egorank.

perfbench/tracer.py records a vanished target as missing and its per-layer
metric as null, so a rename there would not fail a benchmark run. This test
resolves each ``module:qualname`` in its TARGETS the way the tracer does,
and checks that the tracer can still read the word store's rows.
"""

import importlib
import inspect
from collections.abc import Mapping
from pathlib import Path

from egorank.simdex import load_word_vectors

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    # exec, not import, so no bytecode cache is written under perfbench/
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), namespace)
    return namespace


def test_every_traced_function_resolves():
    targets = _tracer()["TARGETS"]
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


def test_tracer_reads_the_word_store_rows(tmp_path):
    # simdex.rows_parsed and simdex.rows_used read null unless the tracer
    # finds the store's word table.
    path = tmp_path / "emb.txt"
    path.write_text("3 2\nalpha 1 0\nbeta 0 1\ngamma 1 1\n", encoding="utf-8")
    table = _tracer()["_word_table"](load_word_vectors(path, {"alpha", "gamma", "delta"}))
    assert isinstance(table, Mapping)
    assert set(table) == {"alpha", "gamma"}
