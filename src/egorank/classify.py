"""Five-class content categorization and two-class sentiment.

Categories come from a multinomial naive Bayes classifier trained on a
user-supplied labeled seed corpus (a small demo one ships with the
package). Only the independent datasets 1, 4, 6 and 9 are classified;
dependent documents inherit the category of their parent post. Sentiment
is a lexicon-and-rule scorer over the punctuated clean text and applies
to every content dataset.

The trained model, lexicon and rule word lists are immutable after
construction; classification and sentiment scoring are pure per document.
"""

from __future__ import annotations

import logging
import math
import re
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from .corpus import DEPENDENT_DATASETS, INDEPENDENT_DATASETS
from .errors import (
    DependentDatasetError,
    MissingCategoryError,
    MissingLexiconError,
    OrphanDocumentError,
)
from .lexproc import DocumentSet, TokenizedDoc

log = logging.getLogger(__name__)


class Category(str, Enum):
    # Declaration order is the tie-break order for argmax decisions.
    TECHNOLOGY = "Technology"
    POLITICS = "Politics"
    SPORTS = "Sports"
    BUSINESS = "Business"
    ENTERTAINMENT = "Entertainment"


class SentimentClass(str, Enum):
    POSITIVE = "Positive"
    NEGATIVE = "Negative"


class Bucket(NamedTuple):
    category: Category
    sentiment: SentimentClass

    def __str__(self) -> str:
        return f"{self.category.value}/{self.sentiment.value}"


ALL_BUCKETS = tuple(Bucket(c, s) for c in Category for s in SentimentClass)

# Rule constants of the reference lexicon-and-rule sentiment method.
NEGATION_SCALAR = -0.74
BOOSTER_INCREMENT = 0.293
NORMALIZATION_ALPHA = 15.0
NEGATION_WINDOW = 3

_WORD = re.compile(r"[a-z0-9]+")


@dataclass(frozen=True)
class SentimentResult:
    clazz: SentimentClass
    compound: float


class CategoryClassifier:
    """Multinomial naive Bayes with add-one smoothing over lemmatized tokens."""

    def __init__(
        self,
        log_priors: Mapping[Category, float],
        token_log_probs: Mapping[Category, Mapping[str, float]],
        vocabulary: frozenset[str],
    ):
        self._log_priors = dict(log_priors)
        self._token_log_probs = {c: dict(p) for c, p in token_log_probs.items()}
        self._vocabulary = vocabulary

    def posteriors(self, tokens: Sequence[str]) -> dict[Category, float]:
        """Normalized posterior over the five categories.

        Tokens outside the training vocabulary carry no signal and are
        skipped; an empty (or fully out-of-vocabulary) token list falls
        back to the class priors.
        """
        log_scores: dict[Category, float] = {}
        for cat in Category:
            total = self._log_priors[cat]
            probs = self._token_log_probs[cat]
            for tok in tokens:
                if tok in self._vocabulary:
                    total += probs[tok]
            log_scores[cat] = total
        peak = max(log_scores.values())
        raw = {cat: math.exp(log_scores[cat] - peak) for cat in Category}
        z = sum(raw.values())
        return {cat: raw[cat] / z for cat in Category}


def train_category_classifier(
    labeled_docs: Iterable[tuple[Sequence[str] | TokenizedDoc, Category | str]],
) -> CategoryClassifier:
    """Fit the classifier from (tokens, category) pairs.

    Training is pure counting, so the model is identical for any
    permutation or duplication structure of the input.
    """
    class_docs: dict[Category, int] = {c: 0 for c in Category}
    class_tokens: dict[Category, Counter] = {c: Counter() for c in Category}
    total_docs = 0
    for doc, label in labeled_docs:
        tokens = doc.tokens if isinstance(doc, TokenizedDoc) else doc
        cat = label if isinstance(label, Category) else Category(label)
        class_docs[cat] += 1
        class_tokens[cat].update(tokens)
        total_docs += 1
    for cat in Category:
        if class_docs[cat] == 0:
            raise MissingCategoryError(cat.value)
    vocabulary = frozenset(tok for counter in class_tokens.values() for tok in counter)
    v = len(vocabulary)
    log_priors = {cat: math.log(class_docs[cat] / total_docs) for cat in Category}
    token_log_probs: dict[Category, dict[str, float]] = {}
    for cat in Category:
        denom = sum(class_tokens[cat].values()) + v
        token_log_probs[cat] = {
            tok: math.log((class_tokens[cat][tok] + 1) / denom) for tok in vocabulary
        }
    return CategoryClassifier(log_priors, token_log_probs, vocabulary)


def _argmax_category(scores: Mapping[Category, float]) -> Category:
    best = None
    best_score = -math.inf
    for cat in Category:  # enum order breaks ties
        if scores[cat] > best_score:
            best = cat
            best_score = scores[cat]
    return best


def classify_category(doc: TokenizedDoc, model: CategoryClassifier) -> Category:
    """Classify an independent-dataset document by its posterior argmax.

    Dependent datasets (2, 3, 7, 8) are rejected: their rows are not owned
    by the post owner and must inherit instead.
    """
    if doc.dataset_no in DEPENDENT_DATASETS:
        raise DependentDatasetError(doc.dataset_no)
    return _argmax_category(model.posteriors(doc.tokens))


def inherit_category(doc: TokenizedDoc, parent_labels: Mapping[str, Category]) -> Category:
    """The parent post's category, for a dependent document."""
    if doc.parent_doc_id is None or doc.parent_doc_id not in parent_labels:
        raise OrphanDocumentError(doc.doc_id)
    return parent_labels[doc.parent_doc_id]


class SentimentAnalyzer:
    """Lexicon-and-rule sentiment over punctuated, pre-stop-removal text.

    Negators are ordinary stop words, so this must run before stop-word
    removal destroys them. A negator within the three preceding tokens
    multiplies a lexicon hit by -0.74; a booster immediately before it
    adds 0.293 toward the hit's sign. The summed valence S maps to
    compound = S / sqrt(S^2 + 15).
    """

    def __init__(
        self,
        lexicon: Mapping[str, float],
        negators: Iterable[str] = (),
        boosters: Iterable[str] = (),
    ):
        if not lexicon:
            raise MissingLexiconError()
        self._lexicon = dict(lexicon)
        self._negators = frozenset(negators)
        self._boosters = frozenset(boosters)

    @classmethod
    def from_files(
        cls,
        lexicon_path: str | Path | None = None,
        negators_path: str | Path | None = None,
        boosters_path: str | Path | None = None,
    ) -> "SentimentAnalyzer":
        from .resources import load_boosters, load_negators, load_sentiment_lexicon
        return cls(
            load_sentiment_lexicon(lexicon_path),
            load_negators(negators_path),
            load_boosters(boosters_path),
        )

    def score(self, text: str) -> SentimentResult:
        tokens = _WORD.findall(text.lower())
        total = 0.0
        for i, tok in enumerate(tokens):
            valence = self._lexicon.get(tok)
            if valence is None:
                continue
            if valence > 0 and i > 0 and tokens[i - 1] in self._boosters:
                valence += BOOSTER_INCREMENT
            elif valence < 0 and i > 0 and tokens[i - 1] in self._boosters:
                valence -= BOOSTER_INCREMENT
            window = tokens[max(0, i - NEGATION_WINDOW):i]
            if any(t in self._negators for t in window):
                valence *= NEGATION_SCALAR
            total += valence
        compound = total / math.sqrt(total * total + NORMALIZATION_ALPHA)
        compound = max(-1.0, min(1.0, compound))
        clazz = SentimentClass.POSITIVE if compound >= 0 else SentimentClass.NEGATIVE
        return SentimentResult(clazz=clazz, compound=compound)


def label_documents(
    document_set: DocumentSet,
    model: CategoryClassifier,
    analyzer: SentimentAnalyzer,
) -> tuple[dict[str, Category], dict[str, SentimentResult], list[str]]:
    """Label every eligible document with a category and a sentiment.

    Independent documents are classified directly; dependent ones inherit
    from their parent. Inert and flagged-non-English documents are
    skipped, as are dependents whose parent never got a label (these are
    reported in the returned ``skipped`` list and warned about, rather
    than failing the whole run).
    """
    labels: dict[str, Category] = {}
    sentiments: dict[str, SentimentResult] = {}
    skipped: list[str] = []

    def eligible(doc: TokenizedDoc) -> bool:
        return not doc.inert and not doc.flagged_non_english

    for doc in document_set.documents:
        if doc.dataset_no in INDEPENDENT_DATASETS and eligible(doc):
            labels[doc.doc_id] = classify_category(doc, model)
            sentiments[doc.doc_id] = analyzer.score(doc.text)
    for doc in document_set.documents:
        if doc.dataset_no in DEPENDENT_DATASETS and eligible(doc):
            try:
                labels[doc.doc_id] = inherit_category(doc, labels)
            except OrphanDocumentError:
                skipped.append(doc.doc_id)
                continue
            sentiments[doc.doc_id] = analyzer.score(doc.text)
    if skipped:
        log.warning(
            "%d dependent documents had no labeled parent and were left unbucketed",
            len(skipped),
        )
    return labels, sentiments, skipped


def assign_buckets(
    document_set: DocumentSet,
    labels: Mapping[str, Category],
    sentiments: Mapping[str, SentimentResult],
) -> dict[Bucket, list[TokenizedDoc]]:
    """Each of the ten (category, sentiment) buckets' documents, in doc id order.

    Every labeled document lands in exactly one bucket; unlabeled ones
    (inert, non-English, orphaned) land in none, so every document handed
    to scoring is eligible.
    """
    buckets: dict[Bucket, list[TokenizedDoc]] = {b: [] for b in ALL_BUCKETS}
    for doc in sorted(document_set.documents, key=lambda d: d.doc_id):
        if doc.doc_id in labels:
            buckets[Bucket(labels[doc.doc_id], sentiments[doc.doc_id].clazz)].append(doc)
    return buckets
