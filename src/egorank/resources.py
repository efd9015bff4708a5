"""Loaders for the pinned resource files (stop list, lemmas, lexicons).

Every loader but ``load_english_words`` and ``load_spelling_dictionary``
takes an optional path; ``None`` falls back to the file shipped under
``egorank/data/``. The three ``key<TAB>value`` tables (lemmas, sentiment
lexicon, spelling dictionary) share one line reader. The shipped lists
are configuration, not ground truth: tests pin against them, and users may
swap in their own.
"""

from __future__ import annotations

import csv
import io
from importlib import resources as importlib_resources
from pathlib import Path
from typing import Iterator

from .classify import Category
from .errors import DataError, utf8_text

def _read_builtin(name: str) -> str:
    return (importlib_resources.files("egorank") / "data" / name).read_text(encoding="utf-8")


def _read(path: str | Path | None, builtin_name: str) -> str:
    if path is None:
        return _read_builtin(builtin_name)
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
    return _wordlist(_read(path, "stop_words.txt"))


def load_negators(path: str | Path | None = None) -> frozenset[str]:
    return _wordlist(_read(path, "negators.txt"))


def load_boosters(path: str | Path | None = None) -> frozenset[str]:
    return _wordlist(_read(path, "boosters.txt"))


def load_english_words() -> frozenset[str]:
    """Vocabulary backing the language-detection heuristic: the shipped
    list, unioned with the shipped stop words so every function word counts
    as evidence of English."""
    return _wordlist(_read_builtin("english_words.txt")) | load_stop_words()


def _tab_lines(path: str | Path | None, builtin_name: str | None,
               expected: str) -> Iterator[tuple[str | Path, int, str, str]]:
    """(file name, line number, lowercased key, raw value) of each
    ``key<TAB>value`` line, skipping blank lines and lines that start with
    ``#``; ``expected`` names the two fields in the error for a line
    without exactly one tab."""
    where = path or builtin_name
    for line_no, line in enumerate(_read(path, builtin_name).splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"{where}: line {line_no}: expected {expected}")
        yield where, line_no, parts[0].strip().lower(), parts[1]


def load_lemma_table(path: str | Path | None = None) -> dict[str, str]:
    """Read ``form<TAB>lemma`` lines.

    Chained mappings are resolved to their fixed point and every lemma
    value is registered as mapping to itself, so the lemma of a lemma is
    always the lemma (required for idempotence).
    """
    table: dict[str, str] = {}
    for where, line_no, form, lemma in _tab_lines(path, "lemmas.tsv", "form<TAB>lemma"):
        lemma = lemma.strip().lower()
        if not form or not lemma:
            raise DataError(f"{where}: line {line_no}: empty form or lemma")
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
    lines = _tab_lines(path, "sentiment_lexicon.tsv", "word<TAB>valence")
    for where, line_no, word, raw in lines:
        try:
            valence = float(raw)
        except ValueError:
            raise DataError(f"{where}: line {line_no}: bad valence {raw!r}") from None
        if not -4.0 <= valence <= 4.0:
            raise DataError(f"{where}: line {line_no}: valence {valence} outside [-4, 4]")
        lexicon[word] = valence
    return lexicon


def load_spelling_dictionary(path: str | Path) -> dict[str, int]:
    """Read a unigram-frequency lexicon of ``word<TAB>count`` lines; none ships."""
    table: dict[str, int] = {}
    for where, line_no, word, raw in _tab_lines(path, None, "word<TAB>count"):
        try:
            table[word] = int(raw)
        except ValueError:
            raise DataError(f"{where}: line {line_no}: bad count {raw!r}") from None
    return table


def load_labeled_seed(path: str | Path | None = None) -> list[tuple[str, Category]]:
    """Read a labeled training corpus CSV with header ``text,category``."""
    where = path or "seed_categories.csv"
    # a quoted text may span lines
    reader = csv.reader(io.StringIO(_read(path, "seed_categories.csv")))
    rows: list[tuple[str, Category]] = []
    try:
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["text", "category"]:
            raise DataError(f"{where}: line 1: labeled seed corpus must have header "
                            f"'text,category'")
        for row in reader:
            if not any(map(str.strip, row)):
                continue
            if len(row) != 2:
                raise DataError(f"{where}: line {reader.line_num}: {len(row)} columns, expected 2")
            label = row[1].strip()
            try:
                rows.append((row[0], Category(label)))
            except ValueError:
                raise DataError(f"{where}: line {reader.line_num}: "
                                f"unknown category {label!r}") from None
    except csv.Error as exc:  # a cell longer than csv.field_size_limit()
        raise DataError(f"{where}: line {reader.line_num}: {exc}") from None
    return rows
