"""Similarity models: word-vector store, token counts and tf-idf weights.

One model is built once per run and shared read-only by the scoring
stage: unit word vectors for word distances, exact per-document token
counts, and smoothed idf weights (from the document frequencies that ingest
counted over the whole corpus) with each document's tf-idf L2 length,
from which scoring builds tf-idf rows out of the count rows.

The word vectors come from a text-format embedding file. Every row of it is
checked for structure (component count, repeated word) and counted against
the header's vocabulary size, but only the rows of the words the scored
buckets' documents hold are parsed as numbers, checked finite and non-zero
(a zero vector's cosine is undefined), and normalised once, into one
matrix. When no bucket is scored, no row is parsed and numpy is not
imported.
"""

from __future__ import annotations

import math
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING, Collection, Iterable, Mapping, NamedTuple

from .corpus import Document
from .errors import BadRowError, DataError

if TYPE_CHECKING:
    import numpy as np


class WordVectorStore(NamedTuple):
    """Unit-length word vectors: row ``index[word]`` of ``unit``. ``unit``
    is None when no word was asked for, as nothing is scored then."""

    unit: np.ndarray | None
    index: dict[str, int]


def load_word_vectors(path: str | Path, words: Collection[str]) -> WordVectorStore:
    """Load the vectors of ``words`` from an embedding file: header
    ``vocab_size dim``, then one ``word v1 ... v_dim`` line per word.

    Every row must have ``dim`` components and a word not seen before, and
    the file must hold ``vocab_size`` non-blank rows, so a file cut at a line
    boundary fails instead of loading fewer words. Only the rows of
    ``words`` are parsed as numbers, and those must be finite and not all
    zero; a bad number elsewhere is never read. With no ``words``, only the
    structure is checked.
    """
    path = Path(path)
    seen: set[str] = set()
    rows: list[list[float]] = []
    index: dict[str, int] = {}
    with path.open(encoding="utf-8-sig") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise DataError(f"{path}: header must be 'vocab_size dim'")
        try:
            vocab_size, dim = int(header[0]), int(header[1])
        except ValueError:
            raise DataError(f"{path}: non-integer header {header!r}") from None
        if dim < 1:
            raise DataError(f"{path}: dimension must be positive")
        for row_no, line in enumerate(fh, start=2):
            parts = line.split()
            if not parts:
                continue
            word = parts[0]
            if word in seen:
                raise BadRowError(path, row_no, f"duplicate word {word!r}")
            seen.add(word)
            if len(parts) - 1 != dim:
                raise BadRowError(
                    path, row_no, f"expected {dim} components, got {len(parts) - 1}")
            if word not in words:
                continue
            try:
                vec = [float(x) for x in parts[1:]]
            except ValueError:
                raise BadRowError(path, row_no, "non-numeric vector component") from None
            if not all(map(math.isfinite, vec)):
                raise BadRowError(path, row_no, "non-finite vector component")
            if not any(x * x for x in vec):
                raise BadRowError(path, row_no, f"zero vector for {word!r}; "
                                  "its cosine distance is undefined")
            index[word] = len(rows)
            rows.append(vec)
    # every non-blank row added its word to ``seen`` once, or raised above
    if len(seen) != vocab_size:
        raise DataError(
            f"{path}: header declares {vocab_size} rows, but {len(seen)} were read")
    if not words:
        return WordVectorStore(unit=None, index=index)
    import numpy as np  # here, not at the top: only scoring needs numpy

    vectors = np.array(rows, dtype=np.float64).reshape(-1, dim)
    return WordVectorStore(unit=vectors / np.linalg.norm(vectors, axis=1)[:, None], index=index)


class SimilarityModels(NamedTuple):
    """Word vectors, per-document token counts and smoothed idf, shared by scoring.

    idf(w) = ln((1 + n) / (1 + df(w))) + 1, where ingest counted ``df`` and
    ``n`` over every non-inert document, bucketed or not, so no idf is zero
    and single-document corpora still work. ``idf`` covers the scored
    documents' words; ``counts`` and ``lengths`` cover the scored documents:
    ``lengths`` holds the raw tf-idf L2 length of each non-inert one, whose
    tf-idf row is count(w) * idf(w) / length; its sum of squares is
    ``math.fsum``, correctly rounded, so its bits depend neither on word
    order nor on the Python version. Inert documents get empty counts.
    """

    vectors: WordVectorStore
    counts: dict[str, Counter]
    idf: dict[str, float]
    lengths: dict[str, float]

    @classmethod
    def build(cls, df: Mapping[str, int], n: int, vectors: WordVectorStore,
              scored: Iterable[Document]) -> "SimilarityModels":
        counts = {d.doc_id: Counter(d.tokens) for d in scored}
        idf = {w: math.log((1 + n) / (1 + df[w])) + 1.0
               for w in {w for row in counts.values() for w in row}}
        lengths = {
            doc_id: math.sqrt(math.fsum(x * x for x in (row[w] * idf[w] for w in row)))
            for doc_id, row in counts.items() if row
        }
        return cls(vectors=vectors, counts=counts, idf=idf, lengths=lengths)
