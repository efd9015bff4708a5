"""Secondary preprocessing: tokens, stop-word removal, lemmas, Document-Set.

This stage feeds the recommender only. Sentence punctuation is dropped
here (sentiment scoring ignores it too), frequent function words are
filtered against a pinned external stop list, and surviving tokens are
reduced to root words by a dictionary-validated rule lemmatizer.
Lemmatization is used instead of stemming so every output is an actual
word. The Document-Set is a plain list of ``corpus.Document``, each with
its ``tokens`` set. Its ``text`` stays the primary-preprocessed form, stop
words included, because sentiment scoring needs its negators.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .corpus import Document
from .errors import ConfigError
from .textprep import _WORD_TOKEN

# Suffix rules tried in order once the exception table misses. Each rule
# yields candidates that must validate against the known-lemma set.
_SUFFIX_RULES = ("ies", "es", "s", "ing", "ed")


def tokenize(text: str) -> list[str]:
    """Split primary-preprocessed text into maximal [a-z0-9]+ runs."""
    return _WORD_TOKEN.findall(text)


def remove_stop_words(tokens: Sequence[str], stop_words: frozenset[str]) -> list[str]:
    """Order-preserving filter of the configured stop list."""
    return [t for t in tokens if t not in stop_words]


class Lemmatizer:
    """Dictionary-plus-rules lemmatizer.

    Irregular forms resolve through the exception table; regular forms
    through suffix rules whose candidates must be known lemmas; anything
    else passes through unchanged. ``lemmatize`` is idempotent for every
    input.
    """

    def __init__(self, table: Mapping[str, str]):
        if not table:
            raise ConfigError("no lemma dictionary loaded")
        self._table = dict(table)
        self._lemmas = frozenset(self._table.values())

    def lemmatize(self, token: str) -> str:
        hit = self._table.get(token)
        if hit is not None:
            return hit
        for suffix in _SUFFIX_RULES:
            if not token.endswith(suffix) or len(token) <= len(suffix):
                continue
            stem = token[: -len(suffix)]
            if suffix == "ies":
                candidates = (stem + "y",)
            elif suffix in ("ing", "ed"):
                undoubled = stem[:-1] if len(stem) > 1 and stem[-1] == stem[-2] else None
                candidates = (stem, stem + "e") + ((undoubled,) if undoubled else ())
            else:
                candidates = (stem,)
            for cand in candidates:
                if cand in self._lemmas:
                    return cand
        return token


def build_document_set(
    clean_docs: Iterable[Document],
    *,
    stop_words: frozenset[str],
    lemmatizer: Lemmatizer,
) -> list[Document]:
    """Tokenize, stop-filter and lemmatize every primary-preprocessed
    document, in input order: each comes back with its ``tokens`` set and
    every other field as it was.

    Documents that reduce to zero tokens are kept but inert. Flagged
    non-English documents keep their flag so classification can skip them.
    """
    lemmas: dict[str, str] = {}  # lemmatize is pure: each distinct raw token runs once
    docs: list[Document] = []
    for doc in clean_docs:
        tokens = [lemmas[t] if t in lemmas else lemmas.setdefault(t, lemmatizer.lemmatize(t))
                  for t in tokenize(doc.text) if t not in stop_words]
        docs.append(doc._replace(tokens=tuple(tokens)))
    return docs
