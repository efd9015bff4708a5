"""Recommendation index scoring and member ranking.

Each cross pair of distinct in-vocabulary words between an ego key document
and a member's target document in one (category, sentiment) bucket
contributes (count_key + count_target) / distance, with distance the cosine
distance of the two word vectors, floored at DISTANCE_FLOOR so identical
shared words score very high instead of dividing by zero. The pair sum
times the documents' tf-idf cosine is the target's recommendation index; a
target keeps its best key document, and a member is ranked by their best
target. Only a bucket with both ego and member documents is scored: any
other ranks no one, and ``pipeline.run_rank`` writes its empty ranking
without scoring it. Who can be ranked is settled when documents are
bucketed (``classify.assign_buckets``), so every scored target's owner is
ranked.

The pair sum is the soft cosine of Sidorov et al. (2014) in bilinear form:
with Ê the unit word vectors (rows of the store's matrix, normalised once
at load and gathered by word), C the word counts and I their 0/1 indicators on
the key (K) and target (T) sides, W = 1 / max(1 - Ê_K Ê_Tᵀ, 1e-6) and
sum_n = C_K W I_Tᵀ + I_K W C_Tᵀ; the tf-idf cosines are X_K X_Tᵀ, with the
tf-idf rows X = C idf / length. As in Novotný (2018), C_K W and I_K W are
computed once per bucket, W in slices of SLICE_COLUMNS target words, and
each target sums their columns, and X_K's, at its own words in sorted
order. So its score depends only on its own words and the key docs, bit for
bit, whatever the other targets, slice width, input order or BLAS threads.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Sequence

from .classify import Bucket
from .corpus import EGO_DATASETS, Document
from .simdex import SimilarityModels

# Lower clamp for cosine distance between word vectors.
DISTANCE_FLOOR = 1e-6
SLICE_COLUMNS = 2048  # target words per slice of W


class Normalization(str, Enum):
    RAW = "raw"    # plain pair sum; grows with document length
    MEAN = "mean"  # pair sum divided by the number of evaluated pairs


class DocumentScore(NamedTuple):
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


class MemberRanking(NamedTuple):
    bucket: Bucket
    entries: list[RankEntry]


def score_bucket(
    docs: Sequence[Document],
    models: SimilarityModels,
    *,
    normalization: Normalization = Normalization.RAW,
) -> list[DocumentScore]:
    """Score every member document of one bucket against the ego's key docs.

    ``docs`` is one bucket's documents, in any order: none inert, so every
    doc has a tf-idf length, and holding both key and target docs
    (``pipeline.run_rank`` gives a bucket with an empty side its empty
    ranking without scoring it). Ego datasets give the key docs, the others
    the targets. Each target keeps the maximum index over all key documents
    (ties going to the lowest key doc id).
    """
    import numpy as np  # here, not at the top: only scoring needs numpy

    keys = sorted((doc for doc in docs if doc.dataset_no in EGO_DATASETS),
                  key=lambda doc: doc.doc_id)
    targets = [doc for doc in docs if doc.dataset_no not in EGO_DATASETS]
    unit, index = models.vectors.unit, models.vectors.index
    counts, idf, lengths = models.counts, models.idf, models.lengths

    # Key side: count rows over the in-vocabulary key words, and the key
    # docs' tf-idf weights with one row per key term plus a zero row.
    key_terms = sorted({w for doc in keys for w in doc.tokens})
    term_row = {w: j for j, w in enumerate(key_terms)}
    key_words = [w for w in key_terms if w in index]
    word_col = {w: j for j, w in enumerate(key_words)}
    counts_k = np.zeros((len(keys), len(key_words)))
    tfidf_k = np.zeros((len(key_terms) + 1, len(keys)))
    for i, doc in enumerate(keys):
        for w, c in counts[doc.doc_id].items():
            tfidf_k[term_row[w], i] = c * idf[w] / lengths[doc.doc_id]
            if w in word_col:
                counts_k[i, word_col[w]] = c
    ones_k = (counts_k > 0).astype(np.float64)

    # (C_K W)ᵀ and (I_K W)ᵀ: one row per in-vocabulary target word plus a
    # zero row, W built SLICE_COLUMNS target words at a time. Products are
    # np.einsum dot products in numpy's own loop: BLAS rounds differently
    # with its thread count and with where a row falls in the matrix.
    words = sorted({w for doc in targets for w in doc.tokens if w in index})
    unit_k = unit[[index[w] for w in key_words]]
    ck_w, ik_w = np.zeros((2, len(words) + 1, len(keys)))
    for start in range(0, len(words), SLICE_COLUMNS):
        stop = min(start + SLICE_COLUMNS, len(words))
        w_t = 1.0 / np.maximum(1.0 - np.einsum(
            "ij,kj->ik", unit[[index[w] for w in words[start:stop]]], unit_k), DISTANCE_FLOOR)
        ck_w[start:stop] = np.einsum("ij,kj->ik", w_t, counts_k)
        ik_w[start:stop] = np.einsum("ij,kj->ik", w_t, ones_k)

    # One segment per target of its own words in sorted order (never empty,
    # as no target is inert); a word with no vector, or no key term, takes
    # the zero row. Segment sums are targets x key docs.
    word_row = {w: j for j, w in enumerate(words)}
    word_rows, term_rows, bag_counts, weights, starts = [], [], [], [], []
    for doc in targets:
        bag = counts[doc.doc_id]
        starts.append(len(word_rows))
        for w in sorted(bag):
            word_rows.append(word_row.get(w, len(words)))
            term_rows.append(term_row.get(w, len(key_terms)))
            bag_counts.append(bag[w])
            weights.append(bag[w] * idf[w] / lengths[doc.doc_id])
    def segment_sums(table: np.ndarray, rows: list[int], scale: Sequence[float]) -> np.ndarray:
        """Each target's sum of ``table``'s rows at its words, times ``scale`` per word."""
        part = table[rows]
        part *= np.array(scale, dtype=np.float64)[:, None]
        return np.add.reduceat(part, starts)

    sum_n = np.add.reduceat(ck_w[word_rows], starts) + segment_sums(ik_w, word_rows, bag_counts)
    if normalization is Normalization.MEAN:
        n_words = np.add.reduceat(np.array(word_rows) < len(words), starts)
        pairs = np.outer(n_words, ones_k.sum(axis=1))
        sum_n = np.divide(sum_n, pairs, out=np.zeros_like(sum_n), where=pairs > 0)
    ti_cs = segment_sums(tfidf_k, term_rows, weights)
    r_plus = sum_n * ti_cs
    picked = np.arange(len(targets)), r_plus.argmax(axis=1)  # ties: the lowest key doc id
    return [DocumentScore(doc.doc_id, keys[k].doc_id, doc.owner_id, s, t, r)
            for doc, k, s, t, r in zip(targets, picked[1].tolist(), sum_n[picked].tolist(),
                                       ti_cs[picked].tolist(), r_plus[picked].tolist())]


def rank_members(scores: Sequence[DocumentScore], bucket: Bucket) -> MemberRanking:
    """Aggregate document scores per owner and sort.

    A member's score is the maximum index over their documents; members
    with no scored documents are excluded. Descending by score, ties by
    member id ascending.
    """
    best: dict[str, DocumentScore] = {}
    for score in sorted(scores, key=lambda s: (s.owner_id, s.target_doc_id)):
        current = best.get(score.owner_id)
        if current is None or score.r_plus > current.r_plus:
            best[score.owner_id] = score
    entries = [
        RankEntry(member_id=mid, score=s.r_plus, best_doc_id=s.target_doc_id)
        for mid, s in best.items()
    ]
    entries.sort(key=lambda e: (-e.score, e.member_id))
    return MemberRanking(bucket=bucket, entries=entries)
