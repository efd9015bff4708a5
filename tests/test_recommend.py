import math
import random
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oracle
from conftest import build_models, run_python, word_store
from egorank.classify import Bucket, Category, SentimentClass
from egorank import recommend
from egorank.corpus import Document
from egorank.recommend import (
    DocumentScore,
    Normalization,
    rank_members,
    score_bucket,
)

BUCKET = Bucket(Category.TECHNOLOGY, SentimentClass.POSITIVE)


def tdoc(doc_id, tokens, owner="ego", dataset_no=1):
    return Document(
        doc_id=doc_id, owner_id=owner, dataset_no=dataset_no, parent_doc_id=None,
        text=" ".join(tokens), tokens=tuple(tokens),
    )


def build_case(ego_token_lists, member_token_lists, embeddings):
    """The bucket's docs in doc id order, and their models.

    member_token_lists: list of (owner, tokens).
    """
    docs = [tdoc(f"d1-k{i:02d}", toks) for i, toks in enumerate(ego_token_lists)]
    docs += [
        tdoc(f"d6-t{i:02d}", toks, owner=owner, dataset_no=6)
        for i, (owner, toks) in enumerate(member_token_lists)
    ]
    docs.sort(key=lambda d: d.doc_id)
    return docs, build_models(docs, word_store(embeddings))


ORTHO = {
    "a": [1.0, 0.0, 0.0],
    "b": [0.0, 1.0, 0.0],
    "c": [0.0, 0.0, 1.0],
}


def score_one(key_tokens, target_tokens, embeddings, normalization=Normalization.RAW):
    """The DocumentScore of one target doc against one key doc."""
    docs, models = build_case([key_tokens], [("m1", target_tokens)], embeddings)
    (score,) = score_bucket(docs, models, normalization=normalization)
    return score


class TestPairScore:
    """One word pair's (c_key + c_target) / distance, seen through one-word docs."""

    def test_cited_arithmetic(self):
        # distance 0.5 from unit vectors at 60 degrees
        emb = {"u": [1.0, 0.0], "v": [0.5, math.sqrt(3) / 2]}
        score = score_one(["u", "u"], ["v", "v", "v"], emb)
        assert score.sum_n == pytest.approx((2 + 3) / 0.5, rel=1e-9)

    def test_identical_word_clamped_distance(self):
        score = score_one(["u"], ["u"], {"u": [1.0, 2.0]})
        assert score.sum_n == pytest.approx(2.0 / 1e-6, rel=1e-9)
        assert score.sum_n == pytest.approx(2_000_000.0, rel=1e-6)

    def test_oov_pair_skipped(self):
        score = score_one(["u"], ["x"], {"u": [1.0]})
        assert score.sum_n == 0.0
        assert score.r_plus == 0.0
        # in a bucket: all-OOV targets in the middle and last, and one whose
        # words are all in vocabulary but none a key term, beside scored ones
        emb = {"u": [1.0, 0.0], "v": [0.6, 0.8], "w": [0.0, 1.0]}
        targets = [["u", "w"], ["x"], ["w", "w"], ["v", "u", "u"], ["y", "x", "y"]]
        docs, models = build_case([["u", "v"], ["v", "z"]], [("m1", t) for t in targets], emb)
        keys = [doc for doc in docs if doc.dataset_no == 1]
        for mode in Normalization:
            scores = score_bucket(docs, models, normalization=mode)
            for doc, score in zip(docs[len(keys):], scores):
                assert score == score_bucket(keys + [doc], models, normalization=mode)[0]
            oov_middle, no_shared, oov_last = scores[1], scores[2], scores[4]
            for score in (oov_middle, oov_last):
                assert (score.sum_n, score.ti_cs, score.r_plus) == (0.0, 0.0, 0.0)
            assert no_shared.sum_n > 0
            assert (no_shared.ti_cs, no_shared.r_plus) == (0.0, 0.0)
            assert all(s.r_plus > 0 for s in (scores[0], scores[3]))

    def test_nonnegative(self):
        rng = random.Random(1)
        for _ in range(50):
            emb = {"u": [rng.uniform(-1, 1) for _ in range(4)],
                   "v": [rng.uniform(-1, 1) for _ in range(4)]}
            if not any(emb["u"]) or not any(emb["v"]):
                continue
            score = score_one(["u"] * 2, ["v"] * 5, emb)
            assert score.sum_n >= 0


class TestDocumentIndex:
    """The index of one target against one key doc, through score_bucket."""

    def test_zero_cosine_annihilates(self):
        score = score_one(["a"], ["b"], ORTHO)
        assert score.ti_cs == 0.0
        assert score.r_plus == 0.0

    def test_single_pair_hand_trace(self):
        score = score_one(["a"], ["a"], ORTHO)
        assert score.sum_n == pytest.approx(2 / 1e-6, rel=1e-9)
        # identical one-word docs: cosine is exactly 1
        assert score.ti_cs == pytest.approx(1.0, abs=1e-9)
        assert score.r_plus == pytest.approx(score.sum_n * score.ti_cs, rel=1e-12)

    def test_cross_product_pair_count_with_oov(self):
        emb = dict(ORTHO)  # 'd' deliberately missing
        key, target = ["a", "b", "c"], ["a", "b", "c", "d"]
        raw = score_one(key, target, emb, Normalization.RAW)
        mean = score_one(key, target, emb, Normalization.MEAN)
        # 3 key words x 3 in-vocabulary target words = 9 evaluated pairs
        assert mean.sum_n == pytest.approx(raw.sum_n / 9, rel=1e-9)

    def test_mean_without_in_vocabulary_pairs_is_zero(self):
        score = score_one(["x"], ["x", "a"], ORTHO, Normalization.MEAN)
        assert score.sum_n == 0.0
        assert score.r_plus == 0.0

    def test_invariant_r_equals_sum_times_cosine(self):
        for mode in Normalization:
            s = score_one(["a", "b"], ["a", "c"], ORTHO, mode)
            assert s.r_plus == pytest.approx(s.sum_n * s.ti_cs, rel=1e-12)
            assert s.r_plus >= 0


def random_embeddings(rng, vocab, dim, coverage=0.8):
    emb = {}
    for word in vocab:
        if rng.random() < coverage:
            vec = [rng.uniform(-1, 1) for _ in range(dim)]
            if not any(abs(x) > 1e-9 for x in vec):
                vec[0] = 1.0
            emb[word] = vec
    return emb


def random_bucket_case(rng):
    vocab = [f"w{i}" for i in range(rng.randrange(8, 50))]
    dim = rng.randrange(2, 10)
    emb = random_embeddings(rng, vocab, dim)
    n_ego = rng.randrange(1, 4)
    n_members = rng.randrange(1, 5)
    ego_docs = [
        [rng.choice(vocab) for _ in range(rng.randrange(1, 30))] for _ in range(n_ego)
    ]
    member_docs = []
    for i in range(rng.randrange(n_members, 16)):
        owner = f"m{i % n_members}"
        member_docs.append((owner, [rng.choice(vocab) for _ in range(rng.randrange(1, 30))]))
    return ego_docs, member_docs, emb


class TestScoreBucket:
    def test_cardinality(self):
        docs, models = build_case(
            [["a"]], [("m1", ["a"]), ("m1", ["b"]), ("m2", ["c"]),
                      ("m2", ["a", "b"]), ("m3", ["b", "c"])], ORTHO,
        )
        scores = score_bucket(docs, models)
        assert len(scores) == 5

    def test_dominating_key_doc_wins_everywhere(self):
        # key2 shares vocabulary with every target; key1 with none
        emb = dict(ORTHO, x=[1.0, 1.0, 0.0], y=[0.0, 1.0, 1.0])
        docs, models = build_case(
            [["x"], ["a", "b", "c"]],
            [("m1", ["a", "a"]), ("m2", ["b"]), ("m3", ["c", "b"])],
            emb,
        )
        scores = score_bucket(docs, models)
        assert all(s.key_doc_id == "d1-k01" for s in scores)

    def test_matches_oracle_on_random_corpora(self):
        rng = random.Random(1234)
        for case in range(8):
            ego_docs, member_docs, emb = random_bucket_case(rng)
            docs, models = build_case(ego_docs, member_docs, emb)
            docs_tokens = {d.doc_id: list(d.tokens) for d in docs}
            key_ids = [d for d in docs_tokens if d.startswith("d1-")]
            target_ids = [d for d in docs_tokens if d.startswith("d6-")]
            for mode in ("raw", "mean"):
                scores = score_bucket(docs, models, normalization=Normalization(mode))
                expected = oracle.best_scores(key_ids, target_ids, docs_tokens, emb, mode)
                assert len(scores) == len(target_ids)
                for s in scores:
                    want = expected[s.target_doc_id]
                    assert s.r_plus == pytest.approx(want, rel=1e-9), (case, mode)

    def test_permutation_of_document_order_is_invariant(self):
        rng = random.Random(77)
        ego_docs, member_docs, emb = random_bucket_case(rng)
        docs, models1 = build_case(ego_docs, member_docs, emb)
        scores1 = {s.target_doc_id: s for s in score_bucket(docs, models1)}

        shuffled = list(docs)
        rng.shuffle(shuffled)
        models2 = build_models(shuffled, word_store(emb))
        scores2 = {s.target_doc_id: s for s in score_bucket(docs, models2)}

        assert set(scores1) == set(scores2)
        for doc_id in scores1:
            assert scores1[doc_id].r_plus == scores2[doc_id].r_plus
            assert scores1[doc_id].key_doc_id == scores2[doc_id].key_doc_id

    def test_linearity_in_counts(self):
        # duplicating every token k times in key and target scales sum_n by k
        # and leaves the cosine unchanged, so r_plus scales by k
        emb = dict(ORTHO)
        k = 3
        base_key, base_tgt = ["a", "b"], ["a", "c", "c"]
        s1 = score_one(base_key, base_tgt, emb)
        s2 = score_one(base_key * k, base_tgt * k, emb)
        assert s2.sum_n == pytest.approx(k * s1.sum_n, rel=1e-9)
        assert s2.ti_cs == pytest.approx(s1.ti_cs, abs=1e-9)
        assert s2.r_plus == pytest.approx(k * s1.r_plus, rel=1e-9)

    def test_monotonicity_extra_shared_occurrence(self):
        s1 = score_one(["a", "b"], ["a", "c"], ORTHO)
        s2 = score_one(["a", "b"], ["a", "a", "c"], ORTHO)
        assert s2.sum_n > s1.sum_n

    def test_tied_key_docs_go_to_lowest_id(self):
        # k01 and k02 hold the same words, so the oracle scores them equal;
        # both beat k00 on every target
        rng = random.Random(5)
        emb = random_embeddings(rng, ["a", "b", "c", "d", "e"], 6, coverage=1.0)
        keys = [["e"], ["a", "b", "a", "c"], ["a", "b", "a", "c"]]
        members = [("m1", ["a", "b"]), ("m2", ["b", "c", "d"]), ("m3", ["a", "a", "e"])]
        docs, models = build_case(keys, members, emb)
        docs_tokens = {d.doc_id: list(d.tokens) for d in docs}
        for s in score_bucket(docs, models):
            by_key = {k: oracle.r_plus(docs_tokens[k], docs_tokens[s.target_doc_id],
                                       docs_tokens, emb) for k in ("d1-k00", "d1-k01", "d1-k02")}
            assert by_key["d1-k01"] == by_key["d1-k02"] > by_key["d1-k00"]
            assert s.key_doc_id == "d1-k01"
            assert s.r_plus == pytest.approx(by_key["d1-k01"], rel=1e-9)

    def test_tied_key_docs_given_in_reverse_go_to_lowest_id(self):
        # the same tie as above, with the bucket's documents in reverse doc id
        # order: the key docs' order breaks no tie, and no score moves a bit
        rng = random.Random(5)
        emb = random_embeddings(rng, ["a", "b", "c", "d", "e"], 6, coverage=1.0)
        keys = [["e"], ["a", "b", "a", "c"], ["a", "b", "a", "c"]]
        members = [("m1", ["a", "b"]), ("m2", ["b", "c", "d"]), ("m3", ["a", "a", "e"])]
        docs, models = build_case(keys, members, emb)
        reversed_scores = score_bucket(docs[::-1], models)
        assert [s.key_doc_id for s in reversed_scores] == ["d1-k01"] * 3
        assert reversed_scores[::-1] == score_bucket(docs, models)

    @pytest.mark.parametrize("seed", range(4))
    def test_twin_target_docs_tie_bit_for_bit_across_blocks(self, seed):
        # one bag of words in the first and in the last block, which holds it
        # alone, scores bit-identically: exact ties then break as in the
        # oracle, by member id
        rng = random.Random(seed)
        vocab = [f"w{i}" for i in range(60)]
        emb = random_embeddings(rng, vocab, 8, coverage=1.0)
        twin = rng.choices(vocab, k=12)
        n = 257
        members = [("m9", rng.choices(vocab, k=rng.randrange(1, 30))) for _ in range(n)]
        in_id_order = sorted(range(n), key=lambda i: f"d6-t{i:02d}")
        first, last = in_id_order[0], in_id_order[-1]
        members[first] = ("m2", rng.sample(twin, len(twin)))
        members[last] = ("m1", rng.sample(twin, len(twin)))
        docs, models = build_case([rng.choices(vocab, k=10) for _ in range(3)], members, emb)
        scores = {s.target_doc_id: s for s in score_bucket(docs, models)}
        a, b = scores[f"d6-t{first:02d}"], scores[f"d6-t{last:02d}"]
        assert (a.key_doc_id, a.sum_n, a.ti_cs, a.r_plus) == (b.key_doc_id, b.sum_n, b.ti_cs, b.r_plus)
        ranking = rank_members(list(scores.values()), BUCKET)
        twins = [e for e in ranking.entries if e.member_id in ("m1", "m2")]
        assert [e.member_id for e in twins] == ["m1", "m2"]
        assert twins[0].score == twins[1].score


def zipf_bucket_case(rng, n_keys, n_targets, vocab_size, dim, doc_len):
    """Key and target token lists over a Zipfian vocabulary, and the
    vectors of the words they hold (numpy rows, unnormalised)."""
    weights = [1.0 / rank for rank in range(1, vocab_size + 1)]
    vocab = [f"w{i}" for i in range(vocab_size)]
    keys = [rng.choices(vocab, weights, k=doc_len) for _ in range(n_keys)]
    members = [(f"m{i % 300}", rng.choices(vocab, weights, k=doc_len)) for i in range(n_targets)]
    used = sorted({w for toks in keys + [t for _, t in members] for w in toks})
    vectors = np.random.default_rng(rng.randrange(2**32)).standard_normal((len(used), dim))
    return keys, members, dict(zip(used, vectors))


@pytest.mark.parametrize("seed", range(5))
def test_target_score_depends_only_on_its_own_words(seed, monkeypatch):
    # every third target removed, or W built 3 target words at a time:
    # each kept target scores bit for bit alike
    keys, members, emb = zipf_bucket_case(random.Random(seed), 6, 600, 3000, 8, 12)
    docs, models = build_case(keys, members, emb)
    dropped = set(sorted(doc.doc_id for doc in docs if doc.dataset_no == 6)[::3])
    kept = [doc for doc in docs if doc.doc_id not in dropped]
    for mode in Normalization:
        full = {s.target_doc_id: s for s in score_bucket(docs, models, normalization=mode)}
        fewer = score_bucket(kept, models, normalization=mode)
        assert len(fewer) == len(full) - len(dropped)
        assert all(s == full[s.target_doc_id] for s in fewer)
    with monkeypatch.context() as patch:
        patch.setattr(recommend, "SLICE_COLUMNS", 3)
        sliced = score_bucket(docs, models)
    assert sliced == score_bucket(docs, models)


@pytest.mark.slow
def test_wide_bucket_scores_in_time_and_memory():
    # 100 key x 2000 target docs of 40 tokens from a 20k-word Zipfian
    # vocabulary, dim 300: about 1.7k key words and 12k target words. With
    # tracemalloc on, it scored in 6.4-7.5 s in three runs on a 2-core host
    # (the whole test, building the case and checking the oracle too, took
    # 8.7-10.7 s) and peaks at about 110 MiB; an unsliced W alone is about
    # 160 MB, and its temporaries take the peak to about 330 MiB.
    rng = random.Random(2018)
    keys, members, emb = zipf_bucket_case(rng, 100, 2000, 20_000, 300, 40)
    docs, models = build_case(keys, members, emb)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        scores = score_bucket(docs, models)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 12.0
    assert peak < 200 * 2**20
    assert len(scores) == 2000
    docs_tokens = {doc.doc_id: list(doc.tokens) for doc in docs}
    for score in rng.sample(scores, 10):
        key, target = docs_tokens[score.key_doc_id], docs_tokens[score.target_doc_id]
        vectors = {w: emb[w].tolist() for w in key + target}
        want = oracle.r_plus(key, target, docs_tokens, vectors)
        assert score.r_plus == pytest.approx(want, rel=1e-9)


WIDE_BUCKET_SCRIPT = """
import random
from test_recommend import build_case, random_embeddings
from egorank.recommend import score_bucket

rng = random.Random(11)
vocab = [f"w{i}" for i in range(400)]
emb = random_embeddings(rng, vocab, 96, coverage=1.0)
keys = [[rng.choice(vocab) for _ in range(20)] for _ in range(12)]
members = [(f"m{i % 40}", [rng.choice(vocab) for _ in range(20)]) for i in range(300)]
docs, models = build_case(keys, members, emb)
for score in score_bucket(docs, models):
    print(repr(score))
"""


def test_blas_thread_count_does_not_change_scores():
    # a bucket wide enough (about 180 x 96 x 400 word-vector products) for a
    # threaded BLAS to split the work, which would move the last digits
    outputs = []
    for threads in ("1", "2"):
        proc = run_python("-c", WIDE_BUCKET_SCRIPT, path=[Path(__file__).resolve().parent],
                          env={"OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0].count("DocumentScore(") == 300
    assert outputs[0] == outputs[1]


class TestRankMembers:
    def make_scores(self, rows):
        # rows: list of (owner, doc_id, r_plus)
        return [
            DocumentScore(target_doc_id=doc_id, key_doc_id="d1-k00", owner_id=owner,
                          sum_n=r, ti_cs=1.0, r_plus=r)
            for owner, doc_id, r in rows
        ]

    def test_max_then_sort(self):
        scores = self.make_scores([
            ("A", "d6-a1", 3.0), ("A", "d6-a2", 1.0), ("B", "d6-b1", 2.5),
        ])
        ranking = rank_members(scores, BUCKET)
        assert [(e.member_id, e.score) for e in ranking.entries] == [("A", 3.0), ("B", 2.5)]
        assert ranking.entries[0].best_doc_id == "d6-a1"

    def test_tie_broken_by_member_id(self):
        scores = self.make_scores([("B", "d6-b", 1.0), ("A", "d6-a", 1.0)])
        ranking = rank_members(scores, BUCKET)
        assert [e.member_id for e in ranking.entries] == ["A", "B"]

    def test_tie_between_a_members_documents_goes_to_the_lowest_doc_id(self):
        scores = self.make_scores([("A", "d6-b", 2.0), ("A", "d6-a", 2.0), ("A", "d6-c", 1.0)])
        (entry,) = rank_members(scores, BUCKET).entries
        assert (entry.member_id, entry.score, entry.best_doc_id) == ("A", 2.0, "d6-a")

    def test_empty(self):
        ranking = rank_members([], BUCKET)
        assert ranking.entries == []

    def test_members_without_scores_excluded(self):
        scores = self.make_scores([("A", "d6-a", 1.0)])
        ranking = rank_members(scores, BUCKET)
        assert [e.member_id for e in ranking.entries] == ["A"]

    def test_matches_oracle_rank(self):
        rng = random.Random(99)
        ego_docs, member_docs, emb = random_bucket_case(rng)
        docs, models = build_case(ego_docs, member_docs, emb)
        scores = score_bucket(docs, models)
        ranking = rank_members(scores, BUCKET)

        docs_tokens = {d.doc_id: list(d.tokens) for d in docs}
        key_ids = [d for d in docs_tokens if d.startswith("d1-")]
        target_ids = [d for d in docs_tokens if d.startswith("d6-")]
        oracle_scores = oracle.best_scores(key_ids, target_ids, docs_tokens, emb, "raw")
        member_docs_map = {}
        for i, (owner, _) in enumerate(member_docs):
            member_docs_map.setdefault(owner, []).append(f"d6-t{i:02d}")
        expected = oracle.rank(member_docs_map, oracle_scores)
        assert [e.member_id for e in ranking.entries] == [m for m, _ in expected]
        for entry, (_, want) in zip(ranking.entries, expected):
            assert entry.score == pytest.approx(want, rel=1e-9)
