"""Every function the benchmark tracer wraps still exists in src/egorank.

perfbench/tracer.py records a vanished target as missing and its per-layer
metric as null, so a rename there would not fail a benchmark run. This test
resolves each ``module:qualname`` in its TARGETS the way the tracer does,
checks that the tracer can still read the word store's rows, and applies
its counters to what the counted functions return, since a counter that
no longer finds its field reads 0 rather than failing.
"""

import importlib
import inspect
from collections.abc import Mapping
from pathlib import Path

from egorank.classify import (
    Category,
    SentimentAnalyzer,
    label_documents,
    train_category_classifier,
)
from egorank.corpus import ACTIVITY_HEADER, load_activity_csv
from egorank.lexproc import Lemmatizer, build_document_set
from egorank.resources import load_english_words, load_lemma_table, load_stop_words
from egorank.simdex import load_word_vectors
from egorank.textprep import primary_preprocess

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


def test_counters_read_what_the_counted_functions_return(tmp_path):
    counters = _tracer()["COUNTERS"]
    path = tmp_path / "posts.csv"
    path.write_text(",".join(ACTIVITY_HEADER) + "\n"
                    "p1,the new software release is good,Ego,ego,0,0,en,2024-06-01T00:00:00Z,\n"
                    "p2,bonjour le monde,Ego,ego,0,0,fr,2024-06-01T00:00:00Z,\n",
                    encoding="utf-8")
    rows = load_activity_csv(path, 1, "ego")
    assert counters["egorank.corpus:load_activity_csv"](rows) == {"rows": 2}

    english, flagged = (primary_preprocess(doc, english_vocab=load_english_words())
                        for doc in rows)
    count = counters["egorank.textprep:primary_preprocess"]
    assert (count(english), count(flagged)) == ({"docs": 1, "flagged": 0},
                                                {"docs": 1, "flagged": 1})

    documents = build_document_set([english, flagged], stop_words=load_stop_words(),
                                   lemmatizer=Lemmatizer(load_lemma_table()))
    model = train_category_classifier([([c.value.lower()], c) for c in Category])
    labelled = label_documents(documents, model, SentimentAnalyzer({"good": 1.9}))
    assert counters["egorank.classify:label_documents"](labelled) == {"labelled": 1}
