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
    label_documents,
    train_category_classifier,
)
from egorank.corpus import Document
from egorank.errors import ConfigError, DataError

CATS = list(Category)


def tdoc(doc_id, tokens, dataset_no=1, owner="ego", parent=None, flagged=False):
    return Document(
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
        with pytest.raises(DataError, match="no examples for category 'Entertainment'"):
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
        log_probs = {cat: probs for cat, (_, probs) in zip(Category, model.rows)}
        for cat, words in class_words.items():
            total_tokens = 4 * len(words)
            for word in vocab:
                count = 4 * words.count(word)
                expected = math.log((count + 1) / (total_tokens + v))
                assert log_probs[cat][word] == pytest.approx(expected, abs=1e-12)

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
    def test_copy_from_parent(self, analyzer):
        labeled, _ = singleton_training()
        model = train_category_classifier(labeled)
        docs = [tdoc("d1-p", ["vote", "law"]),
                tdoc("d3-c", ["whatever"], dataset_no=3, parent="d1-p")]
        labels, skipped = label_documents(docs, model, analyzer)
        assert labels["d1-p"].category is Category.POLITICS
        assert labels["d3-c"].category is Category.POLITICS
        assert skipped == []

    def test_orphan(self, analyzer):
        labeled, _ = singleton_training()
        model = train_category_classifier(labeled)
        docs = [tdoc("d3-c", ["x"], dataset_no=3, parent="d1-missing"),
                tdoc("d8-c", ["x"], dataset_no=8, parent=None)]
        labels, skipped = label_documents(docs, model, analyzer)
        assert skipped == ["d3-c", "d8-c"]
        assert labels == {}


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

    def test_punctuation_does_not_end_the_negation_window(self, analyzer):
        # scoring sees only the [a-z0-9]+ runs, so "not" still negates "good"
        # across the full stop
        assert analyzer.score("not bad. good") == analyzer.score("not bad good")
        assert analyzer.score("not bad. good").compound == pytest.approx(0.1139, abs=1e-4)

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
        with pytest.raises(ConfigError, match="^no sentiment lexicon loaded$"):
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
        labels, skipped = label_documents(docs, model, analyzer)
        return docs, labels, skipped

    def test_partition(self, analyzer):
        docs, labels, _ = self.build_labeled_set(analyzer)
        buckets = assign_buckets(docs, labels, {"m1", "m2"})
        assert buckets == labels
        assert list(buckets) == [doc.doc_id for doc in docs]
        assert set(buckets.values()) <= set(ALL_BUCKETS)

    def test_single_bucket_when_uniform(self, analyzer):
        labeled, _ = singleton_training()
        model = train_category_classifier(labeled)
        docs = [tdoc(f"d1-{i}", ["code", "good"]) for i in range(10)]
        labels, _ = label_documents(docs, model, analyzer)
        buckets = assign_buckets(docs, labels, set())
        tech_pos = Bucket(Category.TECHNOLOGY, SentimentClass.POSITIVE)
        assert list(buckets.values()) == [tech_pos] * 10

    def test_dependent_docs_inherit_but_score_own_sentiment(self, analyzer):
        labeled, _ = singleton_training()
        model = train_category_classifier(labeled)
        docs = [
            tdoc("d1-p", ["vote", "law", "good"], owner="ego"),
            tdoc("d3-c", ["terrible", "awful"], dataset_no=3, owner="ego", parent="d1-p"),
        ]
        labels, skipped = label_documents(docs, model, analyzer)
        assert skipped == []
        assert labels["d3-c"] == Bucket(Category.POLITICS, SentimentClass.NEGATIVE)
        assert labels["d1-p"] == Bucket(Category.POLITICS, SentimentClass.POSITIVE)

    def test_orphan_dependent_skipped_with_warning(self, analyzer, caplog):
        labeled, _ = singleton_training()
        model = train_category_classifier(labeled)
        docs = [tdoc("d3-c", ["code"], dataset_no=3, parent="d1-gone")]
        with caplog.at_level("WARNING"):
            labels, skipped = label_documents(docs, model, analyzer)
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
        labels, skipped = label_documents(docs, model, analyzer)
        assert set(labels) == {"d1-a"}
        assert skipped == ["d3-d"]
        assert list(assign_buckets(docs, labels, {"m1"})) == ["d1-a"]

    def test_unlisted_owner_ignored(self, analyzer):
        # only eligible members' documents are bucketed on the member side,
        # dependent ones included; the ego's are bucketed whoever owns them
        labeled, _ = singleton_training()
        model = train_category_classifier(labeled)
        docs = [
            tdoc("d1-a", ["code"], owner="ego"),
            tdoc("d6-b", ["code"], dataset_no=6, owner="A"),
            tdoc("d6-c", ["code"], dataset_no=6, owner="ghost"),
            tdoc("d7-d", ["code"], dataset_no=7, owner="ghost", parent="d6-b"),
            tdoc("d9-e", ["vote"], dataset_no=9, owner="group"),
        ]
        labels, _ = label_documents(docs, model, analyzer)
        assert set(labels) == {doc.doc_id for doc in docs}
        assert list(assign_buckets(docs, labels, {"A"})) == ["d1-a", "d6-b"]


# Test-side references for the labelling arithmetic. They redo each float
# operation in the order the classifier and the scorer specify, so results
# must be equal, not merely close.
REF_WORDS = ["code", "software", "vote", "law", "goal", "match", "profit", "market",
             "movie", "music", "data", "team", "stock", "song", "court", "game"]


def ref_training():
    rng = random.Random(11)
    labeled = [([w], cat) for w, cat in zip(REF_WORDS, CATS * 4)]
    for _ in range(40):
        labeled.append((rng.choices(REF_WORDS, k=rng.randrange(1, 9)), rng.choice(CATS)))
    return labeled


def reference_posteriors(labeled, tokens):
    docs = {c: 0 for c in CATS}
    counts = {c: {} for c in CATS}
    for words, cat in labeled:
        docs[cat] += 1
        for w in words:
            counts[cat][w] = counts[cat].get(w, 0) + 1
    vocab = {w for c in CATS for w in counts[c]}
    log_scores = {}
    for cat in CATS:
        denom = sum(counts[cat].values()) + len(vocab)
        score = math.log(docs[cat] / len(labeled))
        for tok in tokens:
            if tok in vocab:
                score += math.log((counts[cat].get(tok, 0) + 1) / denom)
        log_scores[cat] = score
    peak = max(log_scores.values())
    raw = {cat: math.exp(log_scores[cat] - peak) for cat in CATS}
    z = sum(raw.values())
    return {cat: raw[cat] / z for cat in CATS}


def reference_sentiment(text, lexicon, negators, boosters):
    tokens = "".join(c if c.isascii() and c.isalnum() else " " for c in text.lower()).split()
    total = 0.0
    for i, tok in enumerate(tokens):
        if tok not in lexicon:
            continue
        valence = lexicon[tok]
        if i > 0 and tokens[i - 1] in boosters:
            if valence > 0:
                valence += 0.293
            elif valence < 0:
                valence -= 0.293
        if any(t in negators for t in tokens[max(0, i - 3):i]):
            valence *= -0.74
        total += valence
    compound = max(-1.0, min(1.0, total / math.sqrt(total * total + 15.0)))
    return SentimentClass.POSITIVE if compound >= 0 else SentimentClass.NEGATIVE, compound


REF_MODEL = train_category_classifier(ref_training())
REF_LEXICON = {"good": 1.9, "bad": -2.5, "great": 3.1, "awful": -0.7, "fine": 0.9, "zero": 0.0}
REF_NEGATORS = {"not", "never", "no"}
REF_BOOSTERS = {"very", "really"}
SENTIMENT_WORDS = sorted(REF_LEXICON) + sorted(REF_NEGATORS) + sorted(REF_BOOSTERS) + [
    "Good", "NOT", "cat", "the", "x1"]


class TestMatchesReference:
    @given(st.lists(st.sampled_from(REF_WORDS + ["zzz", "qqq"]), max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_posteriors_and_category(self, tokens):
        expected = reference_posteriors(ref_training(), tokens)
        scores = REF_MODEL.posteriors(tokens)
        assert scores == expected
        assert list(scores) == CATS
        best = max(expected.values())
        assert classify_category(tdoc("d", tokens), REF_MODEL) is next(
            c for c in CATS if expected[c] == best)

    @given(st.lists(st.tuples(st.sampled_from(SENTIMENT_WORDS),
                              st.sampled_from([" ", ", ", ". ", "  ", "!"])), max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_sentiment_score(self, pieces):
        text = "".join(word + sep for word, sep in pieces)
        analyzer = SentimentAnalyzer(REF_LEXICON, REF_NEGATORS, REF_BOOSTERS)
        result = analyzer.score(text)
        assert (result.clazz, result.compound) == reference_sentiment(
            text, REF_LEXICON, REF_NEGATORS, REF_BOOSTERS)

    def test_sentiment_score_with_shipped_lists(self, analyzer, lexicon, negators, boosters):
        rng = random.Random(4)
        words = sorted(lexicon) + sorted(negators) + sorted(boosters) + ["cat", "the"]
        for _ in range(300):
            text = " ".join(rng.choices(words, k=rng.randrange(0, 25)))
            result = analyzer.score(text)
            assert (result.clazz, result.compound) == reference_sentiment(
                text, lexicon, negators, boosters)
