"""Primary text preprocessing: language detection, mentions, noise, case.

Applied to every content dataset (never to dataset 5), in a fixed order:
language detection, mention extraction, noise removal, then lowercasing
with optional spelling correction. Text that does not look English is
kept but flagged, which excludes it from classification and scoring. The
output alphabet is exactly lowercase letters, digits, spaces, commas and
full stops. ``primary_preprocess`` returns the ``corpus.Document`` it is
given with the clean text in ``text``, the harvested mentions in
``mentions`` and the flag in ``flagged_non_english``; its other fields
stay as they were.

All operations are pure functions; documents can be preprocessed in any
order or in parallel.
"""

from __future__ import annotations

import re
from typing import Mapping

from .corpus import Document

# A token opening with '@' at the start or after whitespace. The pattern opens
# with the literal '@' so the regex engine can skip from one '@' to the next.
_MENTION = re.compile(r"@(?<!\S@)\S+")
_NAME_EDGE = re.compile(r"^[^A-Za-z0-9_]+|[^A-Za-z0-9_]+$")
_NOISE = re.compile(r"[^A-Za-z0-9,.]+")
_GAP = re.compile(r"[ \t]{2,}")
WORD_TOKEN = re.compile(r"[a-z0-9]+")  # spelling correction's words and lexproc's tokens
_ASCII_WORD = re.compile(r"[A-Za-z]+")
_NON_ASCII = re.compile(r"[^\x00-\x7f]")

# Share of tokens that must look English before a text passes as English.
ENGLISH_TOKEN_RATIO = 0.34
# Share of letters allowed to come from non-ASCII scripts.
FOREIGN_LETTER_RATIO = 0.30

_SPELL_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def looks_english(text: str, english_vocab: frozenset[str]) -> bool:
    """Deterministic language heuristic: script check plus common-word ratio.

    No translator ships with egorank, so detection only needs to separate
    obviously foreign text from the English mainstream; flagged documents
    are excluded from classification downstream rather than mistranslated.
    """
    words = _ASCII_WORD.findall(text)
    foreign = sum(map(str.isalpha, _NON_ASCII.findall(text)))
    # The only ASCII letters are A-Z and a-z, so the words hold all of them.
    letters = sum(map(len, words)) + foreign
    if not letters:
        return True
    if foreign / letters > FOREIGN_LETTER_RATIO:
        return False
    known = sum(map(english_vocab.__contains__, map(str.lower, words)))
    return known / len(words) >= ENGLISH_TOKEN_RATIO


def extract_mentions(text: str) -> tuple[str, list[str]]:
    """Remove every whitespace-delimited token starting with '@'.

    The stripped names are returned deduplicated in first-seen order, with
    '@' and surrounding punctuation dropped. Non-mention token order is
    preserved.
    """
    mentions: list[str] = []
    for tok in _MENTION.findall(text):
        name = _NAME_EDGE.sub("", tok.replace("@", ""))
        if name and name not in mentions:
            mentions.append(name)
    stripped = _MENTION.sub("", text)
    stripped = _GAP.sub(" ", stripped).strip()
    return stripped, mentions


def strip_noise(text: str) -> str:
    """Drop every character outside letters/digits/whitespace/','/'.'.

    Emoji, symbol runs and replacement characters all disappear; runs of
    whitespace collapse to single spaces.
    """
    return _NOISE.sub(" ", text).strip()


def _edits1(word: str) -> set[str]:
    splits = [(word[:i], word[i:]) for i in range(len(word) + 1)]
    deletes = {a + b[1:] for a, b in splits if b}
    transposes = {a + b[1] + b[0] + b[2:] for a, b in splits if len(b) > 1}
    replaces = {a + c + b[1:] for a, b in splits if b for c in _SPELL_ALPHABET}
    inserts = {a + c + b for a, b in splits for c in _SPELL_ALPHABET}
    return deletes | transposes | replaces | inserts


def _correct(word: str, dictionary: Mapping[str, int]) -> str:
    if word in dictionary:
        return word
    candidates = [w for w in _edits1(word) if w in dictionary]
    if not candidates:
        return word
    return min(candidates, key=lambda w: (-dictionary[w], w))


def normalize_case_and_spell(text: str, dictionary: Mapping[str, int] | None = None,
                             corrections: dict[str, str] | None = None) -> str:
    """Lowercase the text; optionally correct noisy spellings.

    Correction stays off without a dictionary. With one, each alphabetic
    token absent from the dictionary is replaced by its highest-frequency
    edit-distance-1 neighbor (ties broken lexicographically); tokens with
    no candidate are kept. Each distinct token is looked up once, through
    ``corrections``, which calls with the same dictionary may share.
    """
    lowered = text.lower()
    if not dictionary:
        return lowered
    memo = {} if corrections is None else corrections

    def fix(match: re.Match) -> str:
        token = match.group(0)
        return memo[token] if token in memo else memo.setdefault(
            token, _correct(token, dictionary) if token.isalpha() else token)

    return WORD_TOKEN.sub(fix, lowered)


def primary_preprocess(
    doc: Document,
    *,
    spelling: Mapping[str, int] | None = None,
    corrections: dict[str, str] | None = None,
    english_vocab: frozenset[str],
) -> Document:
    """Run the four primary preprocessing stages over one document: the
    same document with its clean text, its mentions and its language flag."""
    flagged = not looks_english(doc.text, english_vocab)
    text, mentions = extract_mentions(doc.text)
    text = strip_noise(text)
    text = normalize_case_and_spell(text, spelling, corrections)
    return doc._replace(text=text, mentions=tuple(mentions), flagged_non_english=flagged)
