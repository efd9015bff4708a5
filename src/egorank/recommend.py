"""Recommendation index scoring and member ranking.

Each cross pair of distinct in-vocabulary words between an ego key document
and a member's target document in one (category, sentiment) bucket
contributes (count_key + count_target) / distance, with distance the cosine
distance of the two word vectors floored at 1e-6. The pair sum times the
documents' tf-idf cosine is the target's recommendation index; a target keeps
its best key document, and a member is ranked by their best target.

The pair sum is the soft cosine of Sidorov et al. (2014) in bilinear form:
with Ê the unit word vectors (rows of the store's matrix, normalised once
at load and gathered by word), C the word counts and I their 0/1 indicators on
the key (K) and target (T) sides, W = 1 / max(1 - Ê_K Ê_Tᵀ, 1e-6) and
sum_n = C_K W I_Tᵀ + I_K W C_Tᵀ; the tf-idf cosines are X_K X_Tᵀ, with the
tf-idf rows X = C idf / length built from the count rows over the key words.
Targets go in blocks of BLOCK_ROWS, in sorted doc id and word order, so
results are bit-identical for any input order, schedule or BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .classify import Bucket
from .corpus import EGO_DATASETS, InteractedMember
from .errors import EmptyBucketError
from .lexproc import TokenizedDoc
from .simdex import DISTANCE_FLOOR, SimilarityModels

BLOCK_ROWS = 256


class Normalization(str, Enum):
    RAW = "raw"    # plain pair sum; grows with document length
    MEAN = "mean"  # pair sum divided by the number of evaluated pairs


@dataclass(frozen=True)
class DocumentScore:
    """Recommendation index of one target document against its best key doc."""

    target_doc_id: str
    key_doc_id: str
    owner_id: str
    sum_n: float
    ti_cs: float
    r_plus: float


class RankEntry(NamedTuple):
    member_id: str
    score: float
    best_doc_id: str


@dataclass
class MemberRanking:
    bucket: Bucket
    entries: list[RankEntry]


def _matrix(rows: Sequence[Mapping[str, float]], columns: Sequence[str]) -> np.ndarray:
    """Dense rows x columns matrix of the given per-row word weights."""
    index = {word: col for col, word in enumerate(columns)}
    out = np.zeros((len(rows), len(columns)))
    for r, row in enumerate(rows):
        for word, value in row.items():
            col = index.get(word)
            if col is not None:
                out[r, col] = value
    return out


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b summed by numpy's own loops: BLAS rounds differently with its
    thread count and with where a row falls in the matrix."""
    return np.einsum("ij,jk->ik", a, b)


def _tfidf_rows(models: SimilarityModels, docs: Sequence[TokenizedDoc],
                terms: Sequence[str]) -> np.ndarray:
    """Unit tf-idf rows over the given terms: count * idf / the doc's tf-idf length."""
    idf = np.array([models.idf[w] for w in terms])
    lengths = np.array([models.lengths[doc.doc_id] for doc in docs])
    return _matrix([models.counts[doc.doc_id] for doc in docs], terms) * idf / lengths[:, None]


def score_bucket(
    docs: Sequence[TokenizedDoc],
    models: SimilarityModels,
    *,
    normalization: Normalization = Normalization.RAW,
) -> list[DocumentScore]:
    """Score every member document of one bucket against the ego's key docs.

    ``docs`` is one bucket as ``classify.assign_buckets`` returns it: in doc
    id order, and none inert, so every doc has a tf-idf length. Ego datasets
    give the key docs, the others the targets. Each target keeps the maximum
    index over all key documents (ties going to the lowest key doc id).
    Raises EmptyBucketError naming the side that has no documents.
    """
    keys = [doc for doc in docs if doc.dataset_no in EGO_DATASETS]
    targets = [doc for doc in docs if doc.dataset_no not in EGO_DATASETS]
    if not keys:
        raise EmptyBucketError("ego")
    if not targets:
        raise EmptyBucketError("member")

    unit, index = models.vectors.unit, models.vectors.index
    counts = models.counts
    key_terms = sorted({w for doc in keys for w in doc.tokens})
    key_words = [w for w in key_terms if w in index]
    unit_k = unit[[index[w] for w in key_words]]
    counts_k = _matrix([counts[doc.doc_id] for doc in keys], key_words)
    ones_k = (counts_k > 0).astype(np.float64)
    tfidf_k = _tfidf_rows(models, keys, key_terms)

    # Twin targets (equal bags of words) share one stand-in column, so they
    # score bit for bit alike and exact ties break as in the oracle.
    bags = [tuple(sorted(counts[doc.doc_id].items())) for doc in targets]
    stand_in = dict(zip(bags, targets))
    distinct = list(stand_in.values())
    best: dict[str, DocumentScore] = {}
    for start in range(0, len(distinct), BLOCK_ROWS):
        block = distinct[start:start + BLOCK_ROWS]
        words = sorted({w for doc in block for w in doc.tokens if w in index})
        counts_t = _matrix([counts[doc.doc_id] for doc in block], words)
        ones_t = (counts_t > 0).astype(np.float64)
        similarity = 1.0 / np.maximum(
            1.0 - _product(unit_k, unit[[index[w] for w in words]].T), DISTANCE_FLOOR)
        sum_n = (_product(_product(counts_k, similarity), ones_t.T)
                 + _product(_product(ones_k, similarity), counts_t.T))
        if normalization is Normalization.MEAN:
            pairs = np.outer(ones_k.sum(axis=1), ones_t.sum(axis=1))
            sum_n = np.divide(sum_n, pairs, out=np.zeros_like(sum_n), where=pairs > 0)
        ti_cs = _product(tfidf_k, _tfidf_rows(models, block, key_terms).T)
        r_plus = sum_n * ti_cs
        # argmax keeps the first maximum: ties go to the lowest key doc id.
        for col, (doc, row) in enumerate(zip(block, r_plus.argmax(axis=0))):
            best[doc.doc_id] = DocumentScore(
                target_doc_id=doc.doc_id,
                key_doc_id=keys[row].doc_id,
                owner_id=doc.owner_id,
                sum_n=float(sum_n[row, col]),
                ti_cs=float(ti_cs[row, col]),
                r_plus=float(r_plus[row, col]),
            )
    return [replace(best[stand_in[bag].doc_id], target_doc_id=doc.doc_id, owner_id=doc.owner_id)
            for doc, bag in zip(targets, bags)]


def rank_members(
    scores: Sequence[DocumentScore],
    members: Iterable[InteractedMember],
    bucket: Bucket | None = None,
) -> MemberRanking:
    """Aggregate document scores per member and sort.

    A member's score is the maximum index over their documents; members
    with no scored documents are excluded. Descending by score, ties by
    member id ascending.
    """
    member_ids = {m.member_id for m in members}
    best: dict[str, DocumentScore] = {}
    for score in sorted(scores, key=lambda s: (s.owner_id, s.target_doc_id)):
        if score.owner_id not in member_ids:
            continue
        current = best.get(score.owner_id)
        if current is None or score.r_plus > current.r_plus:
            best[score.owner_id] = score
    entries = [
        RankEntry(member_id=mid, score=s.r_plus, best_doc_id=s.target_doc_id)
        for mid, s in best.items()
    ]
    entries.sort(key=lambda e: (-e.score, e.member_id))
    return MemberRanking(bucket=bucket, entries=entries)
