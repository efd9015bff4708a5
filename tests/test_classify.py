import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egorank.classify import (
    ALL_BUCKETS,
    Bucket,
    Category,
    SentimentAnalyzer,
    SentimentClass,
    assign_buckets,
    classify_category,
    inherit_category,
    label_documents,
    train_category_classifier,
)
from egorank.errors import (
    DependentDatasetError,
    MissingCategoryError,
    MissingLexiconError,
    OrphanDocumentError,
)
from egorank.lexproc import DocumentSet, TokenizedDoc

CATS = list(Category)


def tdoc(doc_id, tokens, dataset_no=1, owner="ego", parent=None, flagged=False):
    return TokenizedDoc(
        doc_id=doc_id,
        owner_id=owner,
        dataset_no=dataset_no,
        parent_doc_id=parent,
        text=" ".join(tokens) + ".",
        tokens=tuple(tokens),
        flagged_non_english=flagged,
    )


def singleton_training():
    vocab = {
        Category.TECHNOLOGY: ["code", "software"],
        Category.POLITICS: ["vote", "law"],
        Category.SPORTS: ["goal", "match"],
        Category.BUSINESS: ["profit", "market"],
        Category.ENTERTAINMENT: ["movie", "music"],
    }
    return [(words, cat) for cat, words in vocab.items()], vocab


class TestTraining:
    def test_separable_singletons_classify_to_own_labels(self):
        labeled, vocab = singleton_training()
        model = train_category_classifier(labeled)
        for cat, words in vocab.items():
            assert classify_category(tdoc("d1-x", words), model) is cat

    def test_duplicate_docs_duplicate_counts(self):
        labeled, _ = singleton_training()
        model_a = train_category_classifier(labeled)
        model_b = train_category_classifier(labeled + labeled)
        # doubled counts shift smoothed likelihoods, but both stay argmax-consistent
        probe = ["code", "software"]
        assert classify_category(tdoc("d", probe), model_a) is Category.TECHNOLOGY
        assert classify_category(tdoc("d", probe), model_b) is Category.TECHNOLOGY
        model_c = train_category_classifier(labeled)
        assert model_a.posteriors(probe) == model_c.posteriors(probe)

    def test_missing_category(self):
        labeled, _ = singleton_training()
        with pytest.raises(MissingCategoryError, match="Entertainment"):
            train_category_classifier(labeled[:-1])

    def test_hand_computed_smoothed_likelihoods(self):
        # 20 docs, 4 per class, fixed token counts; oracle is the add-one
        # formula computed inline from raw counts.
        labeled = []
        class_words = {
            Category.TECHNOLOGY: ["code"] * 3 + ["software"] * 2,
            Category.POLITICS: ["vote"] * 4 + ["law"],
            Category.SPORTS: ["goal"] * 2 + ["match"] * 3,
            Category.BUSINESS: ["profit"] * 5,
            Category.ENTERTAINMENT: ["movie"] * 1 + ["music"] * 4,
        }
        for cat, words in class_words.items():
            for i in range(4):
                labeled.append((words, cat))
        model = train_category_classifier(labeled)

        vocab = {w for words in class_words.values() for w in words}
        v = len(vocab)
        for cat, words in class_words.items():
            total_tokens = 4 * len(words)
            for word in vocab:
                count = 4 * words.count(word)
                expected = math.log((count + 1) / (total_tokens + v))
                assert model._token_log_probs[cat][word] == pytest.approx(expected, abs=1e-12)

    def test_permutation_invariance(self):
        labeled, _ = singleton_training()
        labeled = labeled * 3
        shuffled = labeled[:]
        random.Random(9).shuffle(shuffled)
        a = train_category_classifier(labeled)
        b = train_category_classifier(shuffled)
        probe = ["goal", "code", "movie"]
        assert a.posteriors(probe) == b.posteriors(probe)

    def test_posterior_by_hand_for_probe_doc(self):
        # independent arithmetic: priors 1/5 each, add-one likelihoods over
        # the 10-word vocabulary, softmax-normalized joint scores
        labeled, vocab = singleton_training()
        model = train_category_classifier(labeled)
        probe = ["goal", "match"]
        joint = {}
        for cat, words in vocab.items():
            score = math.log(1 / 5)
            for tok in probe:
                count = words.count(tok)
                score += math.log((count + 1) / (len(words) + 10))
            joint[cat] = score
        peak = max(joint.values())
        raw = {c: math.exp(s - peak) for c, s in joint.items()}
        z = sum(raw.values())
        expected = {c: raw[c] / z for c in raw}
        assert classify_category(tdoc("d", probe), model) is Category.SPORTS
        scores = model.posteriors(probe)
        for cat in Category:
            assert scores[cat] == pytest.approx(expected[cat], rel=1e-12)


class TestClassifyCategory:
    def test_dependent_dataset_rejected(self):
        labeled, _ = singleton_training()
        model = train_category_classifier(labeled)
        doc = tdoc("d3-x", ["code"], dataset_no=3, parent="d1-p")
        with pytest.raises(DependentDatasetError):
            classify_category(doc, model)

    def test_empty_doc_prior_argmax_tie_breaks_by_enum_order(self):
        labeled, _ = singleton_training()  # one doc per class: uniform priors
        model = train_category_classifier(labeled)
        assert classify_category(tdoc("d", []), model) is Category.TECHNOLOGY
        assert model.posteriors([])[Category.TECHNOLOGY] == pytest.approx(0.2)

    def test_skewed_prior_wins_for_empty_doc(self):
        labeled, _ = singleton_training()
        labeled = labeled + [(["goal", "match"], Category.SPORTS)] * 5
        model = train_category_classifier(labeled)
        assert classify_category(tdoc("d", []), model) is Category.SPORTS

    def test_scores_sum_to_one_and_argmax_consistent(self):
        labeled, _ = singleton_training()
        model = train_category_classifier(labeled)
        rng = random.Random(3)
        vocab = ["code", "software", "vote", "law", "goal", "match",
                 "profit", "market", "movie", "music", "zzz"]
        for _ in range(200):
            tokens = rng.choices(vocab, k=rng.randrange(0, 12))
            scores = model.posteriors(tokens)
            assert sum(scores.values()) == pytest.approx(1.0, abs=1e-9)
            best = max(scores.values())
            firsts = [c for c in Category if scores[c] == best]
            assert classify_category(tdoc("d", tokens), model) is firsts[0]


class TestInheritCategory:
    def test_copy_from_parent(self):
        parent_label = {"d1-p": None}
        labeled, _ = singleton_training()
        model = train_category_classifier(labeled)
        parent_label["d1-p"] = classify_category(tdoc("d1-p", ["vote", "law"]), model)
        child = tdoc("d3-c", ["whatever"], dataset_no=3, parent="d1-p")
        assert inherit_category(child, parent_label) is Category.POLITICS

    def test_orphan(self):
        child = tdoc("d3-c", ["x"], dataset_no=3, parent="d1-missing")
        with pytest.raises(OrphanDocumentError):
            inherit_category(child, {})


class TestSentiment:
    def test_empty_text_zero_positive(self, analyzer):
        result = analyzer.score("")
        assert result.compound == 0.0
        assert result.clazz is SentimentClass.POSITIVE

    def test_good_hand_formula(self, analyzer):
        result = analyzer.score("good")
        assert result.compound == pytest.approx(1.9 / math.sqrt(1.9 ** 2 + 15), abs=1e-9)
        assert result.compound == pytest.approx(0.44, abs=0.005)
        assert result.clazz is SentimentClass.POSITIVE

    def test_not_good_rule_trace(self, analyzer):
        result = analyzer.score("not good")
        s = 1.9 * -0.74
        assert result.compound == pytest.approx(s / math.sqrt(s * s + 15), abs=1e-9)
        assert result.compound == pytest.approx(-0.34, abs=0.005)
        assert result.clazz is SentimentClass.NEGATIVE

    def test_booster_immediately_preceding(self, analyzer):
        boosted = analyzer.score("very good").compound
        plain = analyzer.score("good").compound
        s = 1.9 + 0.293
        assert boosted == pytest.approx(s / math.sqrt(s * s + 15), abs=1e-9)
        assert boosted > plain

    def test_booster_toward_negative_sign(self, analyzer):
        s = -2.5 - 0.293
        assert analyzer.score("very bad").compound == pytest.approx(
            s / math.sqrt(s * s + 15), abs=1e-9
        )

    def test_negator_window_is_three_tokens(self, analyzer):
        hit = 1.9 * -0.74
        # negator three tokens back still flips the hit
        within = analyzer.score("not quite that good").compound
        assert within == pytest.approx(hit / math.sqrt(hit * hit + 15), abs=1e-9)
        # negator four tokens back is out of the window
        outside = analyzer.score("not a b c good").compound
        assert outside == analyzer.score("good").compound

    def test_negated_booster_combination(self, analyzer):
        s = (1.9 + 0.293) * -0.74
        assert analyzer.score("not very good").compound == pytest.approx(
            s / math.sqrt(s * s + 15), abs=1e-9
        )

    def test_sentence_sum(self, analyzer, lexicon):
        s = lexicon["good"] + lexicon["bad"]
        assert analyzer.score("good and bad").compound == pytest.approx(
            s / math.sqrt(s * s + 15), abs=1e-9
        )

    def test_sign_flip_sample(self, analyzer, lexicon):
        for word in ("good", "bad", "great", "awful"):
            base = analyzer.score(word).compound
            flipped = analyzer.score(f"not {word}").compound
            assert base * flipped < 0

    def test_missing_lexicon(self):
        with pytest.raises(MissingLexiconError):
            SentimentAnalyzer({})

    @given(st.text(alphabet="abcdefghij ,.", max_size=50))
    @settings(max_examples=150)
    def test_compound_in_range_fuzz(self, text):
        analyzer = SentimentAnalyzer({"abc": 3.9, "de": -3.9}, {"no"}, {"so"})
        compound = analyzer.score(text).compound
        assert -1.0 <= compound <= 1.0


class TestRuleListDisjointness:
    def test_shipped_lists_do_not_overlap(self, lexicon, negators, boosters):
        assert not set(lexicon) & negators
        assert not set(lexicon) & boosters
        assert not negators & boosters


class TestAssignBuckets:
    def build_labeled_set(self, analyzer):
        labeled, _ = singleton_training()
        model = train_category_classifier(labeled)
        docs = [
            tdoc("d1-a", ["code", "software"], owner="ego"),
            tdoc("d1-b", ["goal", "match"], owner="ego"),
            tdoc("d6-c", ["vote", "law"], dataset_no=6, owner="m1"),
            tdoc("d6-d", ["movie", "music"], dataset_no=6, owner="m2"),
        ]
        ds = DocumentSet(documents=docs)
        labels, sentiments, skipped = label_documents(ds, model, analyzer)
        return ds, labels, sentiments, skipped

    def test_partition(self, analyzer):
        ds, labels, sentiments, _ = self.build_labeled_set(analyzer)
        buckets = assign_buckets(ds, labels, sentiments)
        assert set(buckets) == set(ALL_BUCKETS)
        all_ids = [doc.doc_id for docs in buckets.values() for doc in docs]
        assert sorted(all_ids) == sorted(labels)
        assert len(all_ids) == len(set(all_ids))

    def test_single_bucket_when_uniform(self, analyzer):
        labeled, _ = singleton_training()
        model = train_category_classifier(labeled)
        docs = [tdoc(f"d1-{i}", ["code", "good"]) for i in range(10)]
        ds = DocumentSet(documents=docs)
        labels, sentiments, _ = label_documents(ds, model, analyzer)
        buckets = assign_buckets(ds, labels, sentiments)
        tech_pos = Bucket(Category.TECHNOLOGY, SentimentClass.POSITIVE)
        assert len(buckets[tech_pos]) == 10
        assert sum(len(v) for v in buckets.values()) == 10

    def test_dependent_docs_inherit_but_score_own_sentiment(self, analyzer):
        labeled, _ = singleton_training()
        model = train_category_classifier(labeled)
        docs = [
            tdoc("d1-p", ["vote", "law", "good"], owner="ego"),
            tdoc("d3-c", ["terrible", "awful"], dataset_no=3, owner="ego", parent="d1-p"),
        ]
        ds = DocumentSet(documents=docs)
        labels, sentiments, skipped = label_documents(ds, model, analyzer)
        assert skipped == []
        assert labels["d3-c"] is Category.POLITICS
        assert sentiments["d3-c"].clazz is SentimentClass.NEGATIVE
        assert sentiments["d1-p"].clazz is SentimentClass.POSITIVE

    def test_orphan_dependent_skipped_with_warning(self, analyzer, caplog):
        labeled, _ = singleton_training()
        model = train_category_classifier(labeled)
        docs = [tdoc("d3-c", ["code"], dataset_no=3, parent="d1-gone")]
        ds = DocumentSet(documents=docs)
        with caplog.at_level("WARNING"):
            labels, sentiments, skipped = label_documents(ds, model, analyzer)
        assert skipped == ["d3-c"]
        assert labels == {}

    def test_flagged_and_inert_excluded(self, analyzer):
        labeled, _ = singleton_training()
        model = train_category_classifier(labeled)
        docs = [
            tdoc("d1-a", ["code"]),
            tdoc("d1-b", [], owner="ego"),
            tdoc("d1-c", ["vote"], flagged=True),
            tdoc("d3-d", ["code"], dataset_no=3, parent="d1-b"),
            tdoc("d6-e", [], dataset_no=6, owner="m1"),
        ]
        ds = DocumentSet(documents=docs)
        labels, sentiments, skipped = label_documents(ds, model, analyzer)
        assert set(labels) == {"d1-a"}
        assert skipped == ["d3-d"]
        buckets = assign_buckets(ds, labels, sentiments)
        assert [doc.doc_id for docs in buckets.values() for doc in docs] == ["d1-a"]
