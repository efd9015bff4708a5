"""Similarity models: word-vector store, token counts and tf-idf weights.

One model is built once per run and shared read-only by the scoring
stage: unit word vectors for word distances, exact per-document token
counts, and smoothed idf weights with each document's tf-idf L2 length,
from which scoring builds tf-idf rows out of the count rows. Word distance
is cosine distance, floored at DISTANCE_FLOOR so identical shared words
score very high instead of dividing by zero.

The word vectors come from a text-format embedding file. Every row of it is
checked for structure (component count, repeated word), but only the rows
of the words the bucketed documents hold are parsed as numbers, checked
finite and non-zero (a zero vector's cosine is undefined), and normalised
once, into one matrix.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Collection

import numpy as np

from .errors import (
    BadHeaderError,
    DimMismatchError,
    DuplicateWordError,
    EmptyCorpusError,
    ZeroVectorError,
)
from .lexproc import DocumentSet

# Lower clamp for cosine distance between word vectors.
DISTANCE_FLOOR = 1e-6


@dataclass
class WordVectorStore:
    """Unit-length word vectors: row ``index[word]`` of ``unit``."""

    unit: np.ndarray
    index: dict[str, int]


def load_word_vectors(path: str | Path, words: Collection[str]) -> WordVectorStore:
    """Load the vectors of ``words`` from an embedding file: header
    ``vocab_size dim``, then one ``word v1 ... v_dim`` line per word.

    Every row must have ``dim`` components and a word not seen before.
    Only the rows of ``words`` are parsed as numbers, and those must be
    finite and not all zero; a bad number elsewhere is never read.
    """
    path = Path(path)
    seen: set[str] = set()
    rows: list[list[float]] = []
    index: dict[str, int] = {}
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
            if word in seen:
                raise DuplicateWordError(path, row_no, word)
            seen.add(word)
            if len(parts) - 1 != dim:
                raise DimMismatchError(
                    path, row_no, f"expected {dim} components, got {len(parts) - 1}")
            if word not in words:
                continue
            try:
                vec = [float(x) for x in parts[1:]]
            except ValueError:
                raise DimMismatchError(path, row_no, "non-numeric vector component") from None
            if not all(map(math.isfinite, vec)):
                raise DimMismatchError(path, row_no, "non-finite vector component")
            if not any(x * x for x in vec):
                raise ZeroVectorError(path, row_no, word)
            index[word] = len(rows)
            rows.append(vec)
    vectors = np.array(rows, dtype=np.float64).reshape(-1, dim)
    return WordVectorStore(unit=vectors / np.linalg.norm(vectors, axis=1)[:, None], index=index)


@dataclass
class SimilarityModels:
    """Word vectors, per-document token counts and smoothed idf, shared by scoring.

    idf(w) = ln((1 + N) / (1 + df(w))) + 1 over the N non-inert documents,
    so no idf is zero and single-document corpora still work. ``lengths``
    holds the raw tf-idf L2 length of each non-inert document; its tf-idf
    row is count(w) * idf(w) / length. Inert documents get empty counts.
    """

    vectors: WordVectorStore
    counts: dict[str, Counter]
    idf: dict[str, float]
    lengths: dict[str, float]

    @classmethod
    def build(cls, document_set: DocumentSet, vectors: WordVectorStore) -> "SimilarityModels":
        counts = {d.doc_id: Counter(d.tokens) for d in document_set.documents}
        non_inert = [doc_id for doc_id, row in counts.items() if row]
        if not non_inert:
            raise EmptyCorpusError()
        df: Counter = Counter()
        for doc_id in non_inert:
            df.update(counts[doc_id].keys())
        n = len(non_inert)
        idf = {w: math.log((1 + n) / (1 + df[w])) + 1.0 for w in df}
        lengths: dict[str, float] = {}
        for doc_id in non_inert:
            row = counts[doc_id]
            lengths[doc_id] = math.sqrt(sum(x * x for x in (row[w] * idf[w] for w in sorted(row))))
        return cls(vectors=vectors, counts=counts, idf=idf, lengths=lengths)
