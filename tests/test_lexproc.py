import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egorank import resources
from egorank.errors import ConfigError
from egorank.lexproc import (
    Lemmatizer,
    build_document_set,
    remove_stop_words,
    tokenize,
)
from egorank.textprep import CleanDocument

TOKEN_OK = re.compile(r"^[a-z0-9]+$")

token_lists = st.lists(st.text(alphabet="abcdef", min_size=1, max_size=8), max_size=30)


def clean_doc(doc_id, text, owner="ego", dataset_no=1, flagged=False):
    return CleanDocument(
        doc_id=doc_id,
        owner_id=owner,
        dataset_no=dataset_no,
        parent_doc_id=None,
        text=text,
        mentions=(),
        flagged_non_english=flagged,
    )


class TestTokenize:
    def test_punctuation_dropped(self):
        assert tokenize("hello, world.") == ["hello", "world"]

    def test_empty(self):
        assert tokenize("") == []

    def test_alphanumeric_runs(self):
        assert tokenize("a1 b2,c3") == ["a1", "b2", "c3"]

    @given(st.text(alphabet="abc012 ,.", max_size=60))
    @settings(max_examples=150)
    def test_token_alphabet(self, text):
        assert all(TOKEN_OK.match(t) for t in tokenize(text))


class TestRemoveStopWords:
    def test_direct_filter(self):
        assert remove_stop_words(["the", "cat", "sat"], frozenset({"the"})) == ["cat", "sat"]

    def test_all_stop_words(self):
        assert remove_stop_words(["the", "a"], frozenset({"the", "a"})) == []

    def test_empty_stop_list_is_identity(self):
        assert remove_stop_words(["the", "cat"], frozenset()) == ["the", "cat"]

    @given(token_lists)
    @settings(max_examples=150)
    def test_output_disjoint_from_stop_list(self, tokens):
        stops = frozenset({"a", "ab", "abc"})
        out = remove_stop_words(tokens, stops)
        assert not set(out) & stops
        assert out == [t for t in tokens if t not in stops]

    def test_idempotent(self, stop_words):
        tokens = ["the", "team", "won", "a", "match"]
        once = remove_stop_words(tokens, stop_words)
        assert remove_stop_words(once, stop_words) == once


class TestLemmatizer:
    def test_identity(self, lemmatizer):
        assert lemmatizer.lemmatize("cat") == "cat"

    def test_suffix_rule_with_undoubling(self, lemmatizer):
        assert lemmatizer.lemmatize("running") == "run"

    def test_exception_table(self, lemmatizer):
        assert lemmatizer.lemmatize("feet") == "foot"

    def test_plural_rules(self, lemmatizer):
        assert lemmatizer.lemmatize("cats") == "cat"
        assert lemmatizer.lemmatize("matches") == "match"
        assert lemmatizer.lemmatize("parties") == "party"

    def test_e_restoration(self, lemmatizer):
        assert lemmatizer.lemmatize("coding") == "code"
        assert lemmatizer.lemmatize("saved") == "save"

    def test_unknown_word_unchanged(self, lemmatizer):
        assert lemmatizer.lemmatize("zzqzz") == "zzqzz"

    def test_news_is_not_clipped(self, lemmatizer):
        # 'news' has an identity entry, so the s-rule must not fire
        assert lemmatizer.lemmatize("news") == "news"

    def test_missing_dictionary(self):
        with pytest.raises(ConfigError, match="^no lemma dictionary loaded$"):
            Lemmatizer({})

    def test_lemma_of_lemma_over_whole_dictionary(self, lemmatizer):
        table = resources.load_lemma_table()
        for form, lemma in table.items():
            assert lemmatizer.lemmatize(lemma) == lemma, (form, lemma)
            assert lemmatizer.lemmatize(lemmatizer.lemmatize(form)) == lemmatizer.lemmatize(form)

    def test_chained_table_resolves_to_its_fixed_point(self, tmp_path):
        # A chain resolves to its end; a cycle leaves each of its forms as is.
        path = tmp_path / "lemmas.tsv"
        path.write_text("went\tgoes\ngoes\tgo\nx\ty\ny\tx\n", encoding="utf-8")
        table = resources.load_lemma_table(path)
        assert table == {"went": "go", "goes": "go", "go": "go", "x": "x", "y": "y"}
        lemmatizer = Lemmatizer(table)
        for word in table:
            once = lemmatizer.lemmatize(word)
            assert lemmatizer.lemmatize(once) == once, word

    @given(token=st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=12))
    @settings(max_examples=300)
    def test_idempotent_on_fuzzed_tokens(self, lemmatizer, token):
        once = lemmatizer.lemmatize(token)
        assert lemmatizer.lemmatize(once) == once


class TestBuildDocumentSet:
    def test_cardinality(self, stop_words, lemmatizer):
        docs = [clean_doc("d1-a", "the cats ran fast."), clean_doc("d1-b", "a match today.")]
        ds = build_document_set(docs, stop_words=stop_words, lemmatizer=lemmatizer)
        assert len(ds) == 2

    def test_zero_token_doc_is_inert_but_retained(self, stop_words, lemmatizer):
        docs = [clean_doc("d1-a", "the a an.")]
        ds = build_document_set(docs, stop_words=stop_words, lemmatizer=lemmatizer)
        assert len(ds) == 1
        assert ds[0].inert

    def test_pipeline_matches_independent_trace(self, stop_words, lemmatizer):
        # oracle: re-run the three stages by hand with primitive operations
        texts = {
            f"d1-x{i}": text
            for i, text in enumerate([
                "the cats ran over the boxes.",
                "a team won two matches today.",
                "running and coding, always running.",
                "feet hurt after the long walk.",
                "the economy grew, markets happy.",
            ] * 4)
        }
        docs = [clean_doc(doc_id, text) for doc_id, text in texts.items()]
        ds = build_document_set(docs, stop_words=stop_words, lemmatizer=lemmatizer)
        for doc in ds:
            raw = re.findall(r"[a-z0-9]+", texts[doc.doc_id])
            expected = [lemmatizer.lemmatize(t) for t in raw if t not in stop_words]
            assert list(doc.tokens) == expected

    def test_each_distinct_token_is_lemmatized_once(self, stop_words, lemmatizer):
        calls = []

        class Counting(Lemmatizer):
            def lemmatize(self, token):
                calls.append(token)
                return super().lemmatize(token)

        docs = [clean_doc("d1-a", "cats ran, cats ran."), clean_doc("d1-b", "the cats won.")]
        ds = build_document_set(docs, stop_words=stop_words,
                                lemmatizer=Counting(resources.load_lemma_table()))
        assert sorted(calls) == ["cats", "ran", "won"]
        cats, ran, won = (lemmatizer.lemmatize(t) for t in ("cats", "ran", "won"))
        assert [d.tokens for d in ds] == [(cats, ran, cats, ran), (cats, won)]

    def test_owner_attribution_preserved(self, stop_words, lemmatizer):
        docs = [
            clean_doc("d1-a", "goal match", owner="ego"),
            clean_doc("d6-b", "goal match", owner="m1", dataset_no=6),
        ]
        ds = build_document_set(docs, stop_words=stop_words, lemmatizer=lemmatizer)
        assert [(d.doc_id, d.owner_id) for d in ds] == [("d1-a", "ego"), ("d6-b", "m1")]

    def test_flag_carried_through(self, stop_words, lemmatizer):
        docs = [clean_doc("d1-a", "bonjour text", flagged=True)]
        ds = build_document_set(docs, stop_words=stop_words, lemmatizer=lemmatizer)
        assert ds[0].flagged_non_english
