"""Run one egorank CLI invocation in-process with a span around each layer call.

Usage: python3 perfbench/tracer.py SPANS_JSON [egorank arguments...]

The program is not modified. Each function listed in LAYER_TIMES is wrapped
from here, at every attribute of a loaded ``egorank`` module bound to it,
so a call is seen whichever module it is imported through. A target that
no longer exists is recorded as missing, not an error; the metrics built
on it then read null. Spans (name, start, end, parent span, thread id,
counts) stay in memory and are written as JSON when the invocation ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import resource
import sys
import threading
import time
from collections.abc import Mapping, Set


def _rows(result) -> dict:
    return {"rows": len(result)}


def _preprocessed(result) -> dict:
    return {"docs": 1, "flagged": int(bool(getattr(result, "flagged_non_english", False)))}


def _labelled(result) -> dict:
    return {"labelled": len(result[0])}


RESOURCE_LOADERS = tuple(f"egorank.resources:load_{name}" for name in (
    "stop_words", "negators", "boosters", "english_words", "lemma_table",
    "sentiment_lexicon", "labeled_seed"))
# Per-layer times: each metric sums the self times of the spans of these
# functions. They are the public functions that egorank.pipeline calls into
# each layer, plus the pipeline's own stages.
LAYER_TIMES = {
    "corpus.load_s": ("egorank.corpus:load_activity_csv", "egorank.corpus:load_members_csv"),
    "textprep.preprocess_s": ("egorank.textprep:primary_preprocess",),
    "lexproc.docset_s": ("egorank.lexproc:build_document_set",),
    "classify.train_s": ("egorank.classify:train_category_classifier",),
    "classify.label_s": ("egorank.classify:label_documents",),
    "classify.bucket_s": ("egorank.classify:assign_buckets",),
    "resources.load_s": RESOURCE_LOADERS,
    "simdex.load_s": ("egorank.simdex:load_word_vectors",),
    "simdex.models_s": ("egorank.simdex:SimilarityModels.build",),
    "recommend.score_s": ("egorank.recommend:score_bucket",),
    "recommend.rank_s": ("egorank.recommend:rank_members",),
    "targets.select_s": ("egorank.targets:top_most",),
    "pipeline.bundle_write_s": ("egorank.pipeline:run_ingest",),
    "pipeline.report_write_s": ("egorank.pipeline:write_ranking_reports",
                                "egorank.pipeline:write_target_reports"),
    "pipeline.bundle_read_s": ("egorank.pipeline:load_bundle",),
    "pipeline.ranking_read_s": ("egorank.pipeline:load_ranking_report",),
}
# Per-layer counts: each metric sums one count over the spans of a time metric's functions.
LAYER_COUNTS = {
    "corpus.rows": (LAYER_TIMES["corpus.load_s"], "rows"),
    "textprep.docs": (LAYER_TIMES["textprep.preprocess_s"], "docs"),
    "textprep.flagged": (LAYER_TIMES["textprep.preprocess_s"], "flagged"),
    "lexproc.tokens": (LAYER_TIMES["lexproc.docset_s"], "tokens"),
    "classify.labelled_docs": (LAYER_TIMES["classify.label_s"], "labelled"),
}
(DOCUMENT_SET,) = LAYER_TIMES["lexproc.docset_s"]  # tokens counted in Recorder.wrap
(WORD_VECTORS,) = LAYER_TIMES["simdex.load_s"]  # RSS growth and rows counted in Recorder.wrap
(SCORE,) = LAYER_TIMES["recommend.score_s"]
# Functions whose results give counts, with the function that extracts them.
COUNTERS = {
    **dict.fromkeys(LAYER_TIMES["corpus.load_s"], _rows),
    **dict.fromkeys(LAYER_TIMES["textprep.preprocess_s"], _preprocessed),
    **dict.fromkeys(LAYER_TIMES["classify.label_s"], _labelled),
}
TARGETS = tuple(dict.fromkeys(t for targets in LAYER_TIMES.values() for t in targets))
_PAGE_MIB = os.sysconf("SC_PAGE_SIZE") / 2**20


def _rss_mib() -> float:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * _PAGE_MIB


def _word_table(store):
    """The store's word -> vector (or row) lookup, whatever its layout."""
    for attr in ("vectors", "index", "word_index", "words"):
        table = getattr(store, attr, None)
        if isinstance(table, (Mapping, Set)):
            return table
    return store if isinstance(store, (Mapping, Set)) else None


class Recorder:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self.vocabulary: set[str] = set()
        self.stores: list = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, name: str, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = {"name": name, "thread": threading.get_ident(),
                    "parent": stack[-1] if stack else None}
            with self._lock:
                span["id"] = len(self.spans)
                self.spans.append(span)
            stack.append(span["id"])
            rss_before = _rss_mib() if name == WORD_VECTORS else None
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            # Counting runs after the span closed, so it lands in the parent.
            if count is not None:
                span["counts"] = count(result)
            if name == DOCUMENT_SET:
                docs = getattr(result, "documents", [])
                span["counts"] = {"tokens": sum(len(d.tokens) for d in docs)}
                for d in docs:
                    self.vocabulary.update(d.tokens)
            if rss_before is not None:
                peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                span["counts"] = {"rss_growth_mib": max(peak, _rss_mib()) - rss_before}
                self.stores.append(result)
            return result
        return traced

    def install(self) -> None:
        importlib.import_module("egorank.cli")
        modules = [m for n, m in list(sys.modules.items())
                   if n == "egorank" or n.startswith("egorank.")]
        for target in TARGETS:
            count = COUNTERS.get(target)
            module_name, qualname = target.split(":")
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = qualname.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(target)
                continue
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.wrap(target, raw.__func__, count)))
                continue
            traced = self.wrap(target, raw, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        setattr(module, key, traced)

    def dump(self, path: str, start: float, end: float) -> None:
        rows_parsed = rows_used = None
        tables = [_word_table(s) for s in self.stores]
        if all(t is not None for t in tables):
            rows_parsed = sum(len(t) for t in tables)
            rows_used = sum(sum(1 for w in self.vocabulary if w in t) for t in tables)
        payload = {"start": start, "end": end, "missing": self.missing,
                   "spans": self.spans, "rows_parsed": rows_parsed, "rows_used": rows_used}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    recorder.install()
    from egorank import cli

    start = time.perf_counter()
    try:
        return cli.main(argv)
    finally:
        recorder.dump(spans_path, start, time.perf_counter())


if __name__ == "__main__":
    sys.exit(main())
