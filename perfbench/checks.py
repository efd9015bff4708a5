"""Output and isolation checks, run outside the timed region.

Reports are judged against what the generator knows (tokens, buckets,
members) and against the brute-force oracle in ``tests/oracle.py``.
"""

from __future__ import annotations

import csv
import hashlib
import importlib.util
import json
import os
import random
from pathlib import Path

from gen import BUCKETS, THRESHOLD, Truth

REL_TOL = 1e-9


def load_oracle(root: Path):
    """Import the oracle, caching its idf table per document set.

    ``oracle.r_plus`` rebuilds the idf table from the whole document set
    on every call; the table depends only on that set, so caching it
    changes no value and makes checking a ranking entry cheap.
    """
    spec = importlib.util.spec_from_file_location("oracle", root / "tests" / "oracle.py")
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    build, cache = oracle.idf_table, {}

    def idf_table(docs_tokens):
        if id(docs_tokens) not in cache:
            cache[id(docs_tokens)] = (docs_tokens, build(docs_tokens))
        return cache[id(docs_tokens)][1]

    oracle.idf_table = idf_table
    return oracle


def read_tree(directory: Path) -> dict[str, bytes]:
    return {p.relative_to(directory).as_posix(): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def digest_tree(directory: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(directory.rglob("*")):
        if p.is_file():
            h.update(p.relative_to(directory).as_posix().encode() + b"\0")
            with p.open("rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
    return h.hexdigest()


def stat_tree(directory: Path, skip: tuple[str, ...] = (),
              skip_paths: tuple[Path, ...] = ()) -> dict[str, tuple]:
    """Every path under ``directory``, with size and mtime for files.

    Entries named in ``skip`` (at any depth) and the subtrees at
    ``skip_paths`` are left out. A directory's mtime is left out too: it
    changes when a skipped entry, such as a bytecode cache, appears in it;
    new paths show up on their own.
    """
    out = {}
    pruned = set(skip_paths)
    for dirpath, dirnames, filenames in os.walk(directory):
        here = Path(dirpath)
        dirnames[:] = [d for d in dirnames if d not in skip and here / d not in pruned]
        for name in dirnames:
            out[(here / name).relative_to(directory).as_posix()] = None
        for name in filenames:
            if name not in skip and here / name not in pruned:
                st = os.lstat(here / name)
                out[(here / name).relative_to(directory).as_posix()] = (st.st_size, st.st_mtime_ns)
    return out


def compare_trees(reference: dict[str, bytes], other: dict[str, bytes], label: str) -> list[str]:
    if set(reference) != set(other):
        return [f"{label}: report files differ: {sorted(set(reference) ^ set(other))}"]
    return [f"{label}: {name} is not byte-identical" for name in reference
            if reference[name] != other[name]]


def _slug(bucket: int) -> str:
    return "%s_%s" % BUCKETS[bucket]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-300)


def check_reports(truth: Truth, out: Path, oracle, rng: random.Random) -> list[str]:
    """Check one output directory; returns the failures found."""
    errors: list[str] = []
    ingest = out / "ingest_report.json"
    if ingest.is_file():
        report = json.loads(ingest.read_text(encoding="utf-8"))
        flagged = sum(1 for d in truth.docs if d.bucket is None)
        if report.get("flagged_non_english") != flagged:
            errors.append(f"ingest: {report.get('flagged_non_english')} flagged, expected {flagged}")
    docs_tokens = {d.doc_id: list(d.tokens) for d in truth.docs}
    n_it = truth.shape.n_it
    for bucket in range(len(BUCKETS)):
        slug = _slug(bucket)
        csv_path, json_path = out / f"ranking_{slug}.csv", out / f"ranking_{slug}.json"
        if not (csv_path.is_file() and json_path.is_file()):
            errors.append(f"{slug}: ranking report missing")
            continue
        entries = json.loads(json_path.read_text(encoding="utf-8"))["entries"]
        with csv_path.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        if rows != [[str(e["rank"]), e["member_id"], repr(e["score"]), e["best_doc_id"]]
                    for e in entries]:
            errors.append(f"{slug}: ranking CSV and JSON disagree")
        expected = truth.expected_ranking(bucket)
        if {e["member_id"] for e in entries} != expected or len(entries) != len(expected):
            errors.append(f"{slug}: ranked members differ from the eligible owners in the bucket")
            continue
        if entries != sorted(entries, key=lambda e: (-e["score"], e["member_id"])):
            errors.append(f"{slug}: ranking is not sorted by score, then member id")
        if entries:
            sample = {0, rng.randrange(len(entries))}
            errors += _check_against_oracle(truth, bucket, [entries[i] for i in sorted(sample)],
                                            docs_tokens, oracle)
        errors += _check_targets(truth, out, bucket, entries, n_it)
    return errors


def _check_against_oracle(truth, bucket, entries, docs_tokens, oracle) -> list[str]:
    keys, targets = truth.bucket_sides(bucket)
    key_ids = [d.doc_id for d in keys]
    errors = []
    for entry in entries:
        own = sorted(d.doc_id for d in targets if d.owner_id == entry["member_id"])
        scores = oracle.best_scores(key_ids, own, docs_tokens, truth.vectors, "raw")
        best = max(own, key=lambda doc_id: scores[doc_id])  # first maximum in doc-id order
        if not _close(entry["score"], scores[best]):
            errors.append(f"{_slug(bucket)}: {entry['member_id']} scored {entry['score']!r}, "
                          f"oracle {scores[best]!r}")
        if entry["best_doc_id"] != best:
            errors.append(f"{_slug(bucket)}: {entry['member_id']} best doc "
                          f"{entry['best_doc_id']}, oracle {best}")
    return errors


def _check_targets(truth, out, bucket, entries, n_it) -> list[str]:
    slug = _slug(bucket)
    path = out / f"targets_{slug}.json"
    if len(entries) < n_it:
        return [f"{slug}: unexpected targets report"] if path.exists() else []
    if not (path.is_file() and (out / f"targets_{slug}.csv").is_file()):
        return [f"{slug}: targets report missing"]
    data = json.loads(path.read_text(encoding="utf-8"))
    selected, removed, effective = data["selected"], data["defaults_removed"], data["effective"]
    identity = (data["n_it"] == n_it == len(selected)
                and data["d_it"] == len(removed)
                and data["effective_count"] == data["n_it"] - data["d_it"] == len(effective)
                and effective == [m for m in selected if m not in set(removed)])
    if not identity:
        return [f"{slug}: targets report breaks the N_it - D_it identity"]
    if selected != [e["member_id"] for e in entries[:n_it]]:
        return [f"{slug}: selected targets are not the top of the ranking"]
    defaults = [m for m in selected if (truth.members[m][1] or 0) > THRESHOLD]
    if removed != defaults:
        return [f"{slug}: removed defaults {removed}, expected {defaults}"]
    return []
