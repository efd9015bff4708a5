"""Loaders for the pinned resource files (stop list, lemmas, lexicons).

Every loader but ``load_english_words`` and ``load_spelling_dictionary``
takes an optional path; ``None`` falls back to the file shipped under
``egorank/data/``, read as a plain file in the same way as the user's own.
The three ``key<TAB>value`` tables (lemmas, sentiment lexicon, spelling
dictionary) share one line reader, and the labeled seed corpus is read
through ``corpus.csv_rows`` like every other CSV input. The shipped lists
are configuration, not ground truth: tests pin against them, and users may
swap in their own.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

from .classify import Category
from .corpus import csv_rows
from .errors import BadRowError, DataError, utf8_text

DATA = Path(__file__).with_name("data")
SEED_HEADER = ["text", "category"]


def _read(path: str | Path) -> str:
    with utf8_text(path):
        return Path(path).read_text(encoding="utf-8-sig")


def _wordlist(text: str) -> frozenset[str]:
    words = set()
    for line in text.splitlines():
        word = line.strip().lower()
        if word and not word.startswith("#"):
            words.add(word)
    return frozenset(words)


def load_stop_words(path: str | Path | None = None) -> frozenset[str]:
    return _wordlist(_read(path or DATA / "stop_words.txt"))


def load_negators(path: str | Path | None = None) -> frozenset[str]:
    return _wordlist(_read(path or DATA / "negators.txt"))


def load_boosters(path: str | Path | None = None) -> frozenset[str]:
    return _wordlist(_read(path or DATA / "boosters.txt"))


def load_english_words() -> frozenset[str]:
    """Vocabulary backing the language-detection heuristic: the shipped
    list, unioned with the shipped stop words so every function word counts
    as evidence of English."""
    return _wordlist(_read(DATA / "english_words.txt")) | load_stop_words()


def _tab_lines(path: str | Path, expected: str) -> Iterator[tuple[int, str, str]]:
    """(line number, lowercased key, raw value) of each ``key<TAB>value``
    line, skipping blank lines and lines that start with ``#``;
    ``expected`` names the two fields in the error for a line without
    exactly one tab."""
    for line_no, line in enumerate(_read(path).splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"{path}: line {line_no}: expected {expected}")
        yield line_no, parts[0].strip().lower(), parts[1]


def load_lemma_table(path: str | Path | None = None) -> dict[str, str]:
    """Read ``form<TAB>lemma`` lines.

    Chained mappings are resolved to their fixed point and every lemma
    value is registered as mapping to itself, so the lemma of a lemma is
    always the lemma (required for idempotence).
    """
    path = path or DATA / "lemmas.tsv"
    table: dict[str, str] = {}
    for line_no, form, lemma in _tab_lines(path, "form<TAB>lemma"):
        lemma = lemma.strip().lower()
        if not form or not lemma:
            raise DataError(f"{path}: line {line_no}: empty form or lemma")
        table[form] = lemma
    resolved: dict[str, str] = {}
    for form, lemma in table.items():
        seen = {form}
        while lemma in table and table[lemma] != lemma and lemma not in seen:
            seen.add(lemma)
            lemma = table[lemma]
        resolved[form] = lemma
    for lemma in list(resolved.values()):
        resolved.setdefault(lemma, lemma)
    return resolved


def load_sentiment_lexicon(path: str | Path | None = None) -> dict[str, float]:
    """Read ``word<TAB>valence`` lines with valences in [-4, 4]."""
    lexicon: dict[str, float] = {}
    path = path or DATA / "sentiment_lexicon.tsv"
    for line_no, word, raw in _tab_lines(path, "word<TAB>valence"):
        try:
            valence = float(raw)
        except ValueError:
            raise DataError(f"{path}: line {line_no}: bad valence {raw!r}") from None
        if not -4.0 <= valence <= 4.0:
            raise DataError(f"{path}: line {line_no}: valence {valence} outside [-4, 4]")
        lexicon[word] = valence
    return lexicon


def load_spelling_dictionary(path: str | Path) -> dict[str, int]:
    """Read a unigram-frequency lexicon of ``word<TAB>count`` lines; none ships."""
    table: dict[str, int] = {}
    for line_no, word, raw in _tab_lines(path, "word<TAB>count"):
        try:
            table[word] = int(raw)
        except ValueError:
            raise DataError(f"{path}: line {line_no}: bad count {raw!r}") from None
    return table


def load_labeled_seed(path: str | Path | None = None) -> list[tuple[str, Category]]:
    """Read a labeled training corpus CSV with header ``text,category``."""
    path = Path(path or DATA / "seed_categories.csv")
    rows: list[tuple[str, Category]] = []
    for row_no, (text, label) in csv_rows(path, SEED_HEADER):
        try:
            rows.append((text, Category(label.strip())))
        except ValueError:
            raise BadRowError(path, row_no, f"unknown category {label.strip()!r}") from None
    return rows
