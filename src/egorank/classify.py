"""Five-class content categorization and two-class sentiment.

Categories come from a multinomial naive Bayes classifier trained on a
user-supplied labeled seed corpus (a small demo one ships with the
package). Only the independent datasets 1, 4, 6 and 9 are classified;
dependent documents inherit the category of their parent post. Sentiment
is a lexicon-and-rule scorer over the clean text's word tokens, stop
words kept, and applies to every content dataset.

The trained model, lexicon and rule word lists are immutable after
construction; classification and sentiment scoring are pure per document.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from enum import Enum
from itertools import compress
from typing import Container, Iterable, Mapping, NamedTuple, Sequence

from .corpus import EGO_DATASETS, PARENT_DATASET
from .errors import ConfigError, DataError
from .lexproc import TokenizedDoc, tokenize

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


# Iterating an Enum class runs a Python-level generator; this tuple does not.
CATEGORIES = tuple(Category)
ALL_BUCKETS = tuple(Bucket(c, s) for c in CATEGORIES for s in SentimentClass)

# Rule constants of the reference lexicon-and-rule sentiment method.
NEGATION_SCALAR = -0.74
BOOSTER_INCREMENT = 0.293
NORMALIZATION_ALPHA = 15.0
NEGATION_WINDOW = 3


class SentimentResult(NamedTuple):
    clazz: SentimentClass
    compound: float


class CategoryClassifier(NamedTuple):
    """Multinomial naive Bayes with add-one smoothing over lemmatized tokens."""

    # (log prior, token log-probs) of each category, in CATEGORIES order.
    rows: tuple[tuple[float, dict[str, float]], ...]
    vocabulary: frozenset[str]

    def posteriors(self, tokens: Sequence[str]) -> dict[Category, float]:
        """Normalized posterior over the five categories.

        Tokens outside the training vocabulary carry no signal and are
        skipped; an empty (or fully out-of-vocabulary) token list falls
        back to the class priors.
        """
        known = [tok for tok in tokens if tok in self.vocabulary]
        log_scores = []
        for total, probs in self.rows:
            # Float sums keep their order and operator: this loop stays a
            # loop and z stays a sum(). From Python 3.12 on, sum() of floats
            # is compensated, so trading one for the other changes the bits.
            for tok in known:
                total += probs[tok]
            log_scores.append(total)
        peak = max(log_scores)
        raw = [math.exp(score - peak) for score in log_scores]
        z = sum(raw)
        return {cat: r / z for cat, r in zip(CATEGORIES, raw)}


def train_category_classifier(
    labeled_docs: Iterable[tuple[Sequence[str], Category]],
) -> CategoryClassifier:
    """Fit the classifier from (tokens, category) pairs.

    Training is pure counting, so the model is identical for any
    permutation or duplication structure of the input.
    """
    class_docs: dict[Category, int] = {c: 0 for c in CATEGORIES}
    class_tokens: dict[Category, Counter] = {c: Counter() for c in CATEGORIES}
    total_docs = 0
    for tokens, cat in labeled_docs:
        class_docs[cat] += 1
        class_tokens[cat].update(tokens)
        total_docs += 1
    for cat in CATEGORIES:
        if class_docs[cat] == 0:
            raise DataError(f"training data has no examples for category {cat.value!r}")
    vocabulary = frozenset(tok for counter in class_tokens.values() for tok in counter)
    v = len(vocabulary)
    rows = []
    for cat in CATEGORIES:
        denom = sum(class_tokens[cat].values()) + v
        rows.append((math.log(class_docs[cat] / total_docs),
                     {tok: math.log((class_tokens[cat][tok] + 1) / denom) for tok in vocabulary}))
    return CategoryClassifier(tuple(rows), vocabulary)


def classify_category(doc: TokenizedDoc, model: CategoryClassifier) -> Category:
    """Classify an independent-dataset document by its posterior argmax."""
    scores = model.posteriors(doc.tokens)
    return max(CATEGORIES, key=scores.__getitem__)  # the first maximum: enum order breaks ties


class SentimentAnalyzer:
    """Lexicon-and-rule sentiment over the word tokens of pre-stop-removal text.

    Negators are ordinary stop words, so this must run before stop-word
    removal destroys them. A negator within the three preceding tokens
    multiplies a lexicon hit by -0.74; a booster immediately before it
    adds 0.293 toward the hit's sign. The summed valence S maps to
    compound = S / sqrt(S^2 + 15). Only the ``[a-z0-9]+`` runs are
    scored: commas and full stops are dropped, so a negator's window runs
    on across them.
    """

    def __init__(
        self,
        lexicon: Mapping[str, float],
        negators: Iterable[str] = (),
        boosters: Iterable[str] = (),
    ):
        if not lexicon:
            raise ConfigError("no sentiment lexicon loaded")
        self._lexicon = dict(lexicon)
        self._negators = frozenset(negators)
        self._boosters = frozenset(boosters)

    def score(self, text: str) -> SentimentResult:
        tokens = tokenize(text.lower())
        total = 0.0
        for i in compress(range(len(tokens)), map(self._lexicon.__contains__, tokens)):
            valence = self._lexicon[tokens[i]]
            if valence and i > 0 and tokens[i - 1] in self._boosters:
                valence += math.copysign(BOOSTER_INCREMENT, valence)
            if not self._negators.isdisjoint(tokens[max(0, i - NEGATION_WINDOW):i]):
                valence *= NEGATION_SCALAR
            total += valence
        compound = total / math.sqrt(total * total + NORMALIZATION_ALPHA)
        clazz = SentimentClass.POSITIVE if compound >= 0 else SentimentClass.NEGATIVE
        return SentimentResult(clazz=clazz, compound=compound)


def label_documents(
    documents: Sequence[TokenizedDoc],
    model: CategoryClassifier,
    analyzer: SentimentAnalyzer,
) -> tuple[dict[str, Bucket], list[str]]:
    """Label every eligible document with its bucket: a category and its
    own sentiment.

    Independent documents are classified directly; dependent ones inherit
    their parent's category. Inert and flagged-non-English documents are
    skipped, as are dependents whose parent never got a label (these are
    reported in the returned ``skipped`` list and warned about, rather
    than failing the whole run).
    """
    labels: dict[str, Bucket] = {}
    skipped: list[str] = []

    def eligible(doc: TokenizedDoc) -> bool:
        return not doc.inert and not doc.flagged_non_english

    for doc in documents:
        if doc.dataset_no not in PARENT_DATASET and eligible(doc):
            labels[doc.doc_id] = Bucket(classify_category(doc, model),
                                        analyzer.score(doc.text).clazz)
    for doc in documents:
        if doc.dataset_no in PARENT_DATASET and eligible(doc):
            parent = labels.get(doc.parent_doc_id)
            if parent is None:
                skipped.append(doc.doc_id)
                continue
            labels[doc.doc_id] = Bucket(parent.category, analyzer.score(doc.text).clazz)
    if skipped:
        log.warning(
            "%d dependent documents had no labeled parent and were left unbucketed",
            len(skipped),
        )
    return labels, skipped


def assign_buckets(
    documents: Sequence[TokenizedDoc],
    labels: Mapping[str, Bucket],
    eligible_ids: Container[str],
) -> dict[str, Bucket]:
    """The bucket of each bucketed document, in ``documents`` order.

    Every labeled ego document, and every labeled member-side document of
    an owner in ``eligible_ids``, lands in exactly one bucket. The others
    land in none: unlabeled ones (inert, non-English, orphaned), and those
    of owners who can never be targets (groups, and owners in neither the
    member list nor the mentions), so scoring sees only rankable targets.
    """
    return {doc.doc_id: labels[doc.doc_id] for doc in documents
            if doc.doc_id in labels and (doc.dataset_no in EGO_DATASETS
                                         or doc.owner_id in eligible_ids)}
