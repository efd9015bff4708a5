import re
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egorank.corpus import Document
from egorank.resources import load_english_words, load_spelling_dictionary
from egorank.textprep import (
    extract_mentions,
    looks_english,
    normalize_case_and_spell,
    primary_preprocess,
    strip_noise,
)

ALPHABET_OK = re.compile(r"^[a-z0-9 ,.]*$")

fuzz_text = st.text(
    alphabet=st.characters(min_codepoint=1, max_codepoint=0x2FFF),
    max_size=80,
)


def make_doc(text):
    return Document(
        doc_id="d1-p1",
        owner_id="ego",
        text=text,
        dataset_no=1,
        parent_doc_id=None,
        time=datetime(2024, 6, 1, tzinfo=timezone.utc),
    )


SHIPPED_ENGLISH = load_english_words()

class TestDetectAndTranslate:
    """Language detection: non-English text passes through, flagged."""

    def test_english_passthrough(self):
        assert looks_english("hello there", SHIPPED_ENGLISH)
        clean = primary_preprocess(make_doc("hello there"), english_vocab=SHIPPED_ENGLISH)
        assert (clean.text, clean.flagged_non_english) == ("hello there", False)

    def test_non_english_flagged_without_translator(self):
        assert not looks_english("bonjour", SHIPPED_ENGLISH)
        clean = primary_preprocess(make_doc("bonjour"), english_vocab=SHIPPED_ENGLISH)
        assert (clean.text, clean.flagged_non_english) == ("bonjour", True)

    def test_cyrillic_flagged(self):
        assert not looks_english("привет как дела", SHIPPED_ENGLISH)

    def test_fixture_corpus_flag_count(self):
        texts = [
            "hello there my friend",
            "bonjour mon ami je suis",
            "hola como estas amigo bueno",
            "привет как дела сегодня",
            "je ne sais pas pourquoi",
            "das ist ein gutes beispiel",
            "what a great game today",
        ]
        flags = [not looks_english(t, SHIPPED_ENGLISH) for t in texts]
        assert sum(flags) == 5
        assert flags[0] is False and flags[-1] is False

    def test_empty_text_is_english(self):
        assert looks_english("", SHIPPED_ENGLISH)


def clean_of(text):
    return primary_preprocess(make_doc(text), english_vocab=SHIPPED_ENGLISH)


class TestExtractMentions:
    """``extract_mentions`` gives the names; ``primary_preprocess`` drops the
    mention tokens from the text."""

    def test_single_mention(self):
        assert extract_mentions("hello @alice how are you") == ["alice"]
        assert clean_of("hello @alice how are you").text == "hello how are you"

    def test_no_mentions_identity(self):
        assert extract_mentions("no mentions here.") == []
        assert clean_of("no mentions here.").text == "no mentions here."

    def test_dedup_preserves_first_seen_order(self):
        assert extract_mentions("@a @b @a hi") == ["a", "b"]
        assert clean_of("@a @b @a hi").text == "hi"

    def test_mention_keeps_original_case(self):
        assert extract_mentions("ping @Bob now") == ["Bob"]

    def test_trailing_punctuation_trimmed_from_name(self):
        assert extract_mentions("thanks @carol!!! bye") == ["carol"]
        assert clean_of("thanks @carol!!! bye").text == "thanks bye"

    def test_mid_token_at_is_not_a_mention(self):
        assert extract_mentions("mail me a@b.com") == []
        assert clean_of("mail me a@b.com").text == "mail me a b.com"

    @given(fuzz_text)
    @settings(max_examples=200)
    def test_idempotent(self, text):
        once = clean_of(text)
        again = clean_of(once.text)
        assert again.text == once.text
        assert extract_mentions(once.text) == []

    def test_non_mention_token_order_preserved(self):
        assert extract_mentions("one @x two @y three") == ["x", "y"]
        assert clean_of("one @x two @y three").text == "one two three"


class TestStripNoise:
    def test_symbols_and_emoji_removed(self):
        assert strip_noise("great!!! \N{GRINNING FACE} #win") == "great win"

    def test_comma_and_full_stop_survive(self):
        assert strip_noise("ok.") == "ok."

    def test_punctuation_runs_not_collapsed(self):
        assert strip_noise("a,,b...c") == "a,,b...c"

    def test_hashtag_loses_only_the_hash(self):
        assert strip_noise("#winning big") == "winning big"

    def test_whitespace_collapsed_and_trimmed(self):
        assert strip_noise("  a \t b \n c  ") == "a b c"

    @given(fuzz_text)
    @settings(max_examples=200)
    def test_idempotent(self, text):
        once = strip_noise(text)
        assert strip_noise(once) == once

    @given(fuzz_text)
    @settings(max_examples=200)
    def test_output_alphabet(self, text):
        out = strip_noise(text).lower()
        assert ALPHABET_OK.match(out), out


class TestNormalizeCaseAndSpell:
    def test_lowercase_only_without_dictionary(self):
        assert normalize_case_and_spell("Hello World") == "hello world"

    def test_correction_to_highest_frequency_neighbor(self):
        assert normalize_case_and_spell("helo", {"hello": 10, "help": 3}) == "hello"

    def test_no_candidate_passthrough(self):
        assert normalize_case_and_spell("zzqzz", {"hello": 10}) == "zzqzz"

    def test_frequency_tie_breaks_lexicographically(self):
        # both are distance-1 neighbors of "cet" with equal counts
        assert normalize_case_and_spell("cet", {"cat": 5, "get": 5}) == "cat"

    def test_known_word_untouched(self):
        assert normalize_case_and_spell("hello", {"hello": 1, "hells": 99}) == "hello"

    def test_tokens_with_digits_untouched(self):
        assert normalize_case_and_spell("a1b2", {"ab": 10}) == "a1b2"

    def test_shared_corrections_give_the_same_text(self):
        dictionary = {"hello": 10, "help": 3, "cat": 5, "get": 5}
        texts = ["helo cet", "Helo zzqzz a1b2 cet", "hello helo"]
        corrections = {}
        assert [normalize_case_and_spell(t, dictionary, corrections) for t in texts] == [
            normalize_case_and_spell(t, dictionary) for t in texts]
        assert (corrections["helo"], corrections["cet"], corrections["zzqzz"]) == (
            "hello", "cat", "zzqzz")

    def test_dictionary_file_loader(self, tmp_path):
        path = tmp_path / "dict.tsv"
        path.write_text("hello\t10\nworld\t5\n", encoding="utf-8")
        table = load_spelling_dictionary(path)
        assert table == {"hello": 10, "world": 5}

    @given(fuzz_text)
    @settings(max_examples=200)
    def test_lowercase_idempotent(self, text):
        once = text.lower()
        assert once.lower() == once


class TestPrimaryPreprocess:
    def test_stage_by_stage_example(self):
        doc = make_doc("Check @Bob NOW!!! \N{ROCKET}")
        clean = primary_preprocess(doc, english_vocab=SHIPPED_ENGLISH)
        assert clean.text == "check now"
        assert clean.mentions == ("Bob",)
        assert clean.flagged_non_english is False

    def test_clean_text_is_fixed_point(self):
        doc = make_doc("already clean lowercase text.")
        clean = primary_preprocess(doc, english_vocab=SHIPPED_ENGLISH)
        assert clean.text == "already clean lowercase text."
        again = primary_preprocess(make_doc(clean.text), english_vocab=SHIPPED_ENGLISH)
        assert again.text == clean.text

    def test_flagged_doc_still_cleaned(self):
        doc = make_doc("привет! как дела?")
        clean = primary_preprocess(doc, english_vocab=SHIPPED_ENGLISH)
        assert clean.flagged_non_english is True
        assert ALPHABET_OK.match(clean.text)

    @given(fuzz_text)
    @settings(max_examples=200)
    def test_output_alphabet_invariant(self, text):
        clean = primary_preprocess(make_doc(text), english_vocab=SHIPPED_ENGLISH)
        assert ALPHABET_OK.match(clean.text), clean.text
        assert all("@" not in m for m in clean.mentions)


# The implementations these functions had before they were rewritten as
# C-level passes, kept as references: the rewrite must give the same result
# on every text.
_REF_MENTION = re.compile(r"(?:(?<=^)|(?<=\s))@\S+")
_REF_NOISE = re.compile(r"[^A-Za-z0-9\s,.]+")
_REF_WS = re.compile(r"\s+")
_REF_GAP = re.compile(r"[ \t]{2,}")
_REF_ASCII_WORD = re.compile(r"[A-Za-z]+")


def reference_looks_english(text, vocab):
    letters = [c for c in text if c.isalpha()]
    if not letters:
        return True
    foreign = sum(1 for c in letters if ord(c) > 127)
    if foreign / len(letters) > 0.30:
        return False
    tokens = [t.lower() for t in _REF_ASCII_WORD.findall(text)]
    if not tokens:
        return True
    known = sum(1 for t in tokens if t in vocab)
    return known / len(tokens) >= 0.34


def reference_extract_mentions(text):
    mentions = []
    for tok in _REF_MENTION.findall(text):
        name = tok.replace("@", "")
        name = re.sub(r"^[^A-Za-z0-9_]+|[^A-Za-z0-9_]+$", "", name)
        if name and name not in mentions:
            mentions.append(name)
    stripped = _REF_MENTION.sub("", text)
    stripped = _REF_GAP.sub(" ", stripped).strip()
    return stripped, mentions


def reference_strip_noise(text):
    return _REF_WS.sub(" ", _REF_NOISE.sub(" ", text)).strip()


ENGLISH = frozenset({"the", "is", "a", "of", "cat", "good"})
# Pieces that stress the rewritten passes: non-ASCII letters (Cyrillic, the
# Kelvin sign, dotted capital I), Unicode whitespace, '@' runs and English
# words.
PIECES = ("привет", "\N{KELVIN SIGN}", "\N{LATIN CAPITAL LETTER I WITH DOT ABOVE}",
          "\N{NO-BREAK SPACE}", "\N{EM SPACE}", " ", "\x1c", " ", "  ", "\t", "\n",
          "@", "@@", "@@bob", "@_x_", "x@y", "@Ann!", ",", ".", "_", "The", "cat", "IS",
          "good", "Zebra", "42", "\N{ROCKET}")
mixed_text = st.lists(
    st.one_of(st.sampled_from(PIECES), st.text(max_size=4)), max_size=24,
).map("".join)


def assert_matches_reference(text):
    """``primary_preprocess`` gives what the references give, stage by stage."""
    clean = primary_preprocess(make_doc(text), english_vocab=ENGLISH)
    stripped, names = reference_extract_mentions(text)
    assert clean.text == reference_strip_noise(stripped).lower()
    assert clean.mentions == tuple(names)
    assert clean.flagged_non_english == (not reference_looks_english(text, ENGLISH))


class TestMatchesReference:
    @given(st.one_of(mixed_text, fuzz_text))
    @settings(max_examples=150, deadline=None)
    def test_looks_english(self, text):
        assert looks_english(text, ENGLISH) == reference_looks_english(text, ENGLISH)

    @given(st.one_of(mixed_text, fuzz_text))
    @settings(max_examples=150, deadline=None)
    def test_extract_mentions(self, text):
        assert extract_mentions(text) == reference_extract_mentions(text)[1]

    @given(st.one_of(mixed_text, fuzz_text))
    @settings(max_examples=150, deadline=None)
    def test_primary_preprocess(self, text):
        assert_matches_reference(text)

    @given(st.one_of(mixed_text, fuzz_text))
    @settings(max_examples=150, deadline=None)
    def test_strip_noise(self, text):
        assert strip_noise(text) == reference_strip_noise(text)

    @pytest.mark.parametrize("text", [
        "\N{KELVIN SIGN}elvin is the cat", "İstanbul is the city", "the\N{NO-BREAK SPACE}cat",
        "a\N{EM SPACE}@bob\N{EM SPACE}b", "@@ @@bob,, x@y @Ann!", "привет the cat is good",
    ])
    def test_edge_cases(self, text):
        assert looks_english(text, ENGLISH) == reference_looks_english(text, ENGLISH)
        assert extract_mentions(text) == reference_extract_mentions(text)[1]
        assert strip_noise(text) == reference_strip_noise(text)
        assert_matches_reference(text)
