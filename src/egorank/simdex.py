"""Similarity models: word-vector store, BoW table, tf-idf with cosine.

Three structures are built once per run and shared read-only by the
scoring stage: a text-format embedding store for word distances, exact
per-document token counts, and smoothed tf-idf vectors with their L2
lengths. Word distance is cosine distance, floored at DISTANCE_FLOOR so
identical shared words score very high instead of dividing by zero; the
loader rejects zero vectors, whose cosine is undefined.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    BadHeaderError,
    DimMismatchError,
    DuplicateWordError,
    EmptyCorpusError,
    InertDocumentError,
    ZeroVectorError,
)
from .lexproc import DocumentSet

# Lower clamp for cosine distance between word vectors.
DISTANCE_FLOOR = 1e-6


@dataclass
class WordVectorStore:
    """Fixed-dimension word embeddings loaded from the text format."""

    dim: int
    vectors: dict[str, np.ndarray]

    def __contains__(self, word: str) -> bool:
        return word in self.vectors

    def get(self, word: str) -> np.ndarray | None:
        return self.vectors.get(word)


def load_word_vectors(path: str | Path) -> WordVectorStore:
    """Parse an embedding file: header ``vocab_size dim``, then one
    ``word v1 ... v_dim`` line per word."""
    path = Path(path)
    vectors: dict[str, np.ndarray] = {}
    with path.open(encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise BadHeaderError(f"{path}: header must be 'vocab_size dim'")
        try:
            _, dim = int(header[0]), int(header[1])
        except ValueError:
            raise BadHeaderError(f"{path}: non-integer header {header!r}") from None
        if dim < 1:
            raise BadHeaderError(f"{path}: dimension must be positive")
        for row_no, line in enumerate(fh, start=2):
            parts = line.split()
            if not parts:
                continue
            word = parts[0]
            if word in vectors:
                raise DuplicateWordError(word)
            if len(parts) - 1 != dim:
                raise DimMismatchError(
                    path, row_no, f"expected {dim} components, got {len(parts) - 1}")
            try:
                vec = np.array([float(x) for x in parts[1:]], dtype=np.float64)
            except ValueError:
                raise DimMismatchError(path, row_no, "non-numeric vector component") from None
            if not np.all(np.isfinite(vec)):
                raise DimMismatchError(path, row_no, "non-finite vector component")
            if not np.dot(vec, vec):
                raise ZeroVectorError(word, f"{path}: row {row_no}")
            vectors[word] = vec
    return WordVectorStore(dim=dim, vectors=vectors)


def write_embeddings(path: str | Path, vectors: Mapping[str, Sequence[float]]) -> None:
    """Write the text embedding format, bit-stable for fixed inputs."""
    words = sorted(vectors)
    if not words:
        raise ValueError("no vectors to write")
    dim = len(vectors[words[0]])
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(f"{len(words)} {dim}\n")
        for word in words:
            comps = " ".join(f"{x:.6f}" for x in vectors[word])
            fh.write(f"{word} {comps}\n")


def random_vectors(words: Iterable[str], dim: int, seed: int) -> dict[str, list[float]]:
    """Deterministic pseudo-random unit-scale vectors, for fixtures and synth runs."""
    rng = random.Random(seed)
    out: dict[str, list[float]] = {}
    for word in sorted(set(words)):
        out[word] = [rng.uniform(-1.0, 1.0) for _ in range(dim)]
    return out


@dataclass
class BoWTable:
    """Exact token counts per document; inert documents get empty rows."""

    rows: dict[str, Counter]

    def row(self, doc_id: str) -> Counter:
        return self.rows[doc_id]


def build_bow(document_set: DocumentSet) -> BoWTable:
    return BoWTable(rows={d.doc_id: Counter(d.tokens) for d in document_set.documents})


@dataclass
class TfIdfModel:
    """Smoothed tf-idf vectors, their raw L2 lengths, and unit-normalized forms.

    idf(w) = ln((1 + N) / (1 + df(w))) + 1 over the N non-inert documents,
    so no idf is zero and single-document corpora still work.
    """

    idf: dict[str, float]
    doc_vectors: dict[str, dict[str, float]]
    doc_lengths: dict[str, float]


def build_tfidf(bow: BoWTable) -> TfIdfModel:
    non_inert = [doc_id for doc_id, row in bow.rows.items() if row]
    n = len(non_inert)
    if n == 0:
        raise EmptyCorpusError()
    df: Counter = Counter()
    for doc_id in non_inert:
        df.update(bow.rows[doc_id].keys())
    idf = {w: math.log((1 + n) / (1 + df[w])) + 1.0 for w in df}
    doc_vectors: dict[str, dict[str, float]] = {}
    doc_lengths: dict[str, float] = {}
    for doc_id in sorted(non_inert):
        row = bow.rows[doc_id]
        raw = {w: row[w] * idf[w] for w in sorted(row)}
        length = math.sqrt(sum(x * x for x in raw.values()))
        doc_lengths[doc_id] = length
        doc_vectors[doc_id] = {w: x / length for w, x in raw.items()}
    return TfIdfModel(idf=idf, doc_vectors=doc_vectors, doc_lengths=doc_lengths)


def tfidf_cosine(doc_a: str, doc_b: str, model: TfIdfModel) -> float:
    """Cosine of the two documents' tf-idf vectors, in [0, 1]."""
    for doc_id in (doc_a, doc_b):
        if doc_id not in model.doc_vectors:
            raise InertDocumentError(doc_id)
    va = model.doc_vectors[doc_a]
    vb = model.doc_vectors[doc_b]
    if len(vb) < len(va):
        va, vb = vb, va
    return sum(x * vb[w] for w, x in sorted(va.items()) if w in vb)


@dataclass
class SimilarityModels:
    """The model trio shared by the recommendation index."""

    vectors: WordVectorStore
    bow: BoWTable
    tfidf: TfIdfModel

    @classmethod
    def build(cls, document_set: DocumentSet, vectors: WordVectorStore) -> "SimilarityModels":
        bow = build_bow(document_set)
        return cls(vectors=vectors, bow=bow, tfidf=build_tfidf(bow))
