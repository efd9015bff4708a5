"""Loaders for the pinned resource files (stop list, lemmas, lexicons).

Every loader takes an optional path; ``None`` falls back to the file
shipped under ``egorank/data/``. The shipped lists are configuration, not
ground truth: tests pin against them, and users may swap in their own.
"""

from __future__ import annotations

import csv
from importlib import resources as importlib_resources
from pathlib import Path

from .errors import DataError

def _read_builtin(name: str) -> str:
    return (importlib_resources.files("egorank") / "data" / name).read_text(encoding="utf-8")


def _read(path: str | Path | None, builtin_name: str) -> str:
    if path is None:
        return _read_builtin(builtin_name)
    return Path(path).read_text(encoding="utf-8")


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


def load_english_words(path: str | Path | None = None) -> frozenset[str]:
    """Vocabulary backing the language-detection heuristic.

    The shipped list unions the stop words so every function word counts
    as evidence of English.
    """
    return _wordlist(_read(path, "english_words.txt")) | load_stop_words()


def load_lemma_table(path: str | Path | None = None) -> dict[str, str]:
    """Read ``form<TAB>lemma`` lines.

    Chained mappings are resolved to their fixed point and every lemma
    value is registered as mapping to itself, so the lemma of a lemma is
    always the lemma (required for idempotence).
    """
    table: dict[str, str] = {}
    text = _read(path, "lemmas.tsv")
    where = path or "lemmas.tsv"
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"{where}: line {line_no}: expected form<TAB>lemma")
        form, lemma = parts[0].strip().lower(), parts[1].strip().lower()
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
    text = _read(path, "sentiment_lexicon.tsv")
    where = path or "sentiment_lexicon.tsv"
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"{where}: line {line_no}: expected word<TAB>valence")
        try:
            valence = float(parts[1])
        except ValueError:
            raise DataError(f"{where}: line {line_no}: bad valence {parts[1]!r}") from None
        if not -4.0 <= valence <= 4.0:
            raise DataError(f"{where}: line {line_no}: valence {valence} outside [-4, 4]")
        lexicon[parts[0].strip().lower()] = valence
    return lexicon


def load_labeled_seed(path: str | Path | None = None) -> list[tuple[str, str]]:
    """Read a labeled training corpus CSV with header ``text,category``."""
    where = path or "seed_categories.csv"
    reader = csv.reader(_read(path, "seed_categories.csv").splitlines())
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != ["text", "category"]:
        raise DataError(f"{where}: labeled seed corpus must have header 'text,category'")
    rows: list[tuple[str, str]] = []
    for row in reader:
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != 2:
            raise DataError(f"{where}: line {reader.line_num}: {len(row)} columns, expected 2")
        rows.append((row[0], row[1].strip()))
    return rows
