import json
import math
import random
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_models, other_pythons, run_python, word_store

from egorank.corpus import Document
from egorank.errors import BadRowError, DataError
from egorank.recommend import DISTANCE_FLOOR, score_bucket
from egorank.simdex import SimilarityModels, load_word_vectors
from egorank.synth import random_vectors, write_embeddings

NO_VECTORS = word_store({})
# Prints the tf-idf lengths of 400 documents whose squared weights span four
# orders of magnitude, as float.hex, without numpy. A plain float sum() of
# those squares depends on the word order and, since Python 3.12 made it
# compensated, on the interpreter.
LENGTHS_SCRIPT = """
import json, random
from collections import Counter
from egorank.corpus import Document
from egorank.simdex import SimilarityModels, WordVectorStore

rng = random.Random(24)
words = [f"w{i}" for i in range(600)]
weights = [1 / (i + 1) for i in range(len(words))]
docs = [Document(doc_id=f"d6-{i:03d}", owner_id="m1", dataset_no=6,
                 tokens=tuple(rng.choices(words, weights, k=rng.randrange(5, 80))))
        for i in range(400)]
df = Counter(w for d in docs for w in set(d.tokens))
models = SimilarityModels.build(df, len(docs), WordVectorStore(None, {}), docs)
print(json.dumps({doc_id: x.hex() for doc_id, x in models.lengths.items()}))
"""


def tdoc(doc_id, tokens, owner="ego", dataset_no=1):
    return Document(
        doc_id=doc_id, owner_id=owner, dataset_no=dataset_no, parent_doc_id=None,
        text=" ".join(tokens), tokens=tuple(tokens),
    )


def docset(token_lists):
    docs = [tdoc(f"d1-{i:02d}", toks) for i, toks in enumerate(token_lists)]
    return docs


def models_for(token_lists):
    return build_models(docset(token_lists), NO_VECTORS)


def key_member_set(key_lists, member_lists):
    """Ego docs d1-NN (dataset 1) and member docs d6-NN (dataset 6)."""
    docs = [tdoc(f"d1-{i:02d}", toks) for i, toks in enumerate(key_lists)]
    docs += [tdoc(f"d6-{i:02d}", toks, owner=f"m{i}", dataset_no=6)
             for i, toks in enumerate(member_lists)]
    return docs


def ti_cs(ds, models, key_id, target_id):
    """The tf-idf cosine that scoring reports for one key and one target doc."""
    by_id = {doc.doc_id: doc for doc in ds}
    (score,) = score_bucket([by_id[key_id], by_id[target_id]], models)
    return score.ti_cs


def tfidf_weight(models, doc_id, word):
    return models.counts[doc_id][word] * models.idf[word] / models.lengths[doc_id]


@pytest.fixture
def two_doc_model():
    ds = key_member_set([["a", "b"]], [["a", "c"]])
    return ds, build_models(ds, NO_VECTORS)


def write_lines(tmp_path, *lines):
    path = tmp_path / "emb.txt"
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    return path


class TestLoadWordVectors:
    def test_parse_two_words(self, tmp_path):
        path = write_lines(tmp_path, "2 3", "alpha 0.1 0.2 0.3", "beta 1.0 -1.0 0.5")
        store = load_word_vectors(path, {"alpha", "beta"})
        assert store.unit.shape == (2, 3)
        assert set(store.index) == {"alpha", "beta"}
        # |(1, -1, 0.5)| = 1.5
        assert np.allclose(store.unit[store.index["beta"]], [1.0 / 1.5, -1.0 / 1.5, 0.5 / 1.5])

    def test_dim_mismatch(self, tmp_path):
        path = write_lines(tmp_path, "1 3", "alpha 0.1 0.2")
        with pytest.raises(BadRowError, match="row 2: expected 3 components, got 2") as exc:
            load_word_vectors(path, {"alpha"})
        assert str(path) in str(exc.value)

    def test_zero_vector_rejected_at_load(self, tmp_path):
        path = write_lines(tmp_path, "3 2", "alpha 0.1 0.2", "beta 0.0 -0.0", "gamma 1 1")
        with pytest.raises(BadRowError, match="row 3: zero vector for 'beta'") as exc:
            load_word_vectors(path, {"alpha", "beta", "gamma"})
        assert isinstance(exc.value, DataError)
        assert str(path) in str(exc.value) and "'beta'" in str(exc.value)

    def test_bad_header(self, tmp_path):
        path = write_lines(tmp_path, "banana", "alpha 0.1")
        with pytest.raises(DataError, match="header must be 'vocab_size dim'"):
            load_word_vectors(path, {"alpha"})

    def test_duplicate_word(self, tmp_path):
        path = write_lines(tmp_path, "3 1", "alpha 0.1", "beta 0.3", "alpha 0.2")
        with pytest.raises(BadRowError, match="duplicate word") as exc:
            load_word_vectors(path, {"alpha", "beta"})
        assert f"{path}: row 4" in str(exc.value) and "'alpha'" in str(exc.value)

    def test_non_numeric_component(self, tmp_path):
        path = write_lines(tmp_path, "1 2", "alpha 0.1 oops")
        with pytest.raises(BadRowError, match="row 2: non-numeric vector component"):
            load_word_vectors(path, {"alpha"})

    # float() accepts underscores, other scripts' digits and any case of
    # inf/nan; it rejects hex and a cut exponent. A subnormal squares to 0.
    @pytest.mark.parametrize("component", [
        "1_0", "\u0661\u0662", "+1.5", ".5", "1E3", "-0.25", "Infinity", "iNf", "-inf", "nan",
        "-nan", "1e400", "4.9e-324", "1e-400", "-0", "0x1p3", "1.5e", "1.5f", "oops"])
    def test_component_loads_or_fails_as_float_decides(self, tmp_path, component):
        path = write_lines(tmp_path, "3 2", "alpha 1 0", f"beta 0 {component}", "gamma 0 1")
        try:
            value = float(component)
        except ValueError:
            error = "non-numeric vector component"
        else:
            error = ("non-finite vector component" if not math.isfinite(value)
                     else "zero vector for 'beta'" if value * value == 0 else None)
        if error is not None:
            with pytest.raises(BadRowError, match=f"row 3: {error}"):
                load_word_vectors(path, {"alpha", "beta", "gamma"})
        else:
            store = load_word_vectors(path, {"alpha", "beta", "gamma"})
            assert store.unit[store.index["beta"]].tolist() == [0.0, math.copysign(1.0, value)]

    def test_bad_rows_fail_in_file_order(self, tmp_path):
        path = write_lines(tmp_path, "4 2", "alpha 1 0", "beta 0 0", "gamma 1 oops", "delta 1 inf")
        with pytest.raises(BadRowError, match="row 3: zero vector for 'beta'"):
            load_word_vectors(path, {"alpha", "beta", "gamma", "delta"})
        with pytest.raises(BadRowError, match="row 4: non-numeric vector component"):
            load_word_vectors(path, {"alpha", "gamma", "delta"})

    def test_load_peaks_below_three_matrices(self, tmp_path):
        # Each wanted row is parsed into one preallocated matrix; no list of
        # Python floats per component is built on the way.
        words = [f"w{i:04d}" for i in range(3000)]
        path = tmp_path / "emb.txt"
        write_embeddings(path, random_vectors(words, dim=300, seed=5))
        wanted = set(words)
        tracemalloc.start()
        try:
            store = load_word_vectors(path, wanted)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert store.unit.shape == (3000, 300)
        assert peak < 3 * store.unit.nbytes

    @pytest.mark.parametrize("row", ["beta 0 0", "beta nan 1", "beta 1 inf", "beta 1 oops"],
                             ids=["zero", "nan", "inf", "non_numeric"])
    def test_bad_number_in_unrequested_row_loads(self, tmp_path, row):
        path = write_lines(tmp_path, "3 2", "alpha 3 4", row, "gamma 0 2")
        store = load_word_vectors(path, {"alpha", "gamma"})
        assert set(store.index) == {"alpha", "gamma"}
        assert np.allclose(store.unit[store.index["alpha"]], [0.6, 0.8])
        assert np.allclose(store.unit[store.index["gamma"]], [0.0, 1.0])

    @pytest.mark.parametrize("lines, error, match", [
        (("3 2", "alpha 1 0", "beta 1", "gamma 0 1"), BadRowError,
         "row 3: expected 2 components, got 1"),
        (("3 2", "alpha 1 0", "beta 1 2 3", "gamma 0 1"), BadRowError,
         "row 3: expected 2 components, got 3"),
        (("3 2", "beta 1 1", "alpha 1 0", "beta 1 1"), BadRowError, "row 4: duplicate word 'beta'"),
        (("2 two", "alpha 1 0", "beta 1 1"), DataError, "non-integer header"),
        # a row's error comes before the row count's
        (("5 2", "alpha 1 0", "beta 1"), BadRowError, "row 3: expected 2 components, got 1"),
        (("5 2", "alpha 1 0", "alpha 1 1"), BadRowError, "row 3: duplicate word 'alpha'"),
    ], ids=["too_few", "too_many", "duplicate", "header", "too_few_before_count",
            "duplicate_before_count"])
    def test_structural_error_in_unrequested_row_raises(self, tmp_path, lines, error, match):
        with pytest.raises(error, match=match):
            load_word_vectors(write_lines(tmp_path, *lines), {"alpha"})

    @pytest.mark.parametrize("lines", [
        ("3 2", "alpha 1 0", "beta 0 1"),
        ("1 2", "alpha 1 0", "beta 0 1"),
        ("3 2", "alpha 1 0", "", "beta 0 1", "  "),
    ], ids=["cut", "extra_row", "blank_lines"])
    def test_row_count_must_match_header(self, tmp_path, lines):
        path = write_lines(tmp_path, *lines)
        # checked whether or not a row is asked for
        for words in ({"alpha"}, set()):
            with pytest.raises(DataError, match="rows, but 2 were read") as exc:
                load_word_vectors(path, words)
            assert str(exc.value) == (
                f"{path}: header declares {lines[0].split()[0]} rows, but 2 were read")

    def test_blank_lines_are_not_rows(self, tmp_path):
        path = write_lines(tmp_path, "2 2", "alpha 1 0", "", "beta 0 1", "")
        assert set(load_word_vectors(path, {"alpha", "beta"}).index) == {"alpha", "beta"}

    def test_unit_rows_have_unit_length(self, tmp_path):
        words = [f"w{i:03d}" for i in range(200)]
        path = tmp_path / "emb.txt"
        write_embeddings(path, random_vectors(words, dim=7, seed=3))
        store = load_word_vectors(path, set(words))
        assert store.unit.shape == (200, 7) and store.unit.flags["C_CONTIGUOUS"]
        assert np.allclose(np.linalg.norm(store.unit, axis=1), 1.0, rtol=0, atol=1e-12)

    def test_roundtrip_sampled_lookups_match_file(self, tmp_path):
        words = [f"w{i:04d}" for i in range(5000)]
        vectors = random_vectors(words, dim=8, seed=123)
        path = tmp_path / "emb.txt"
        write_embeddings(path, vectors)
        rng = random.Random(7)
        wanted = set(rng.sample(words, 100)) | {"absent", "w9999"}
        store = load_word_vectors(path, wanted)
        # the index holds exactly the requested words the file has
        assert set(store.index) == wanted - {"absent", "w9999"}
        assert sorted(store.index.values()) == list(range(100))
        # oracle: scan the file bytes directly for the sampled words
        lines = {ln.split()[0]: ln.split()[1:] for ln in path.read_text().splitlines()[1:]}
        for word, row in store.index.items():
            expected = np.array([float(x) for x in lines[word]])
            assert np.allclose(store.unit[row], expected / np.linalg.norm(expected),
                               rtol=0, atol=1e-15)


def pair_distance(u, v):
    """Cosine distance of two word vectors as scoring sees it.

    One-word key and target docs make sum_n = (1 + 1) / distance.
    """
    docs = [tdoc("d1-k", ["u"]), tdoc("d6-t", ["v"], owner="m", dataset_no=6)]
    store = word_store({"u": u, "v": v})
    (score,) = score_bucket(docs, build_models(docs, store))
    return 2.0 / score.sum_n


class TestPairDistance:
    def test_orthogonal(self):
        assert pair_distance([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)

    def test_parallel_clamped(self):
        assert pair_distance([2.0, 0.0], [1.0, 0.0]) == pytest.approx(DISTANCE_FLOOR, rel=1e-12)

    def test_hand_computed_45_degrees(self):
        d = pair_distance([1.0, 1.0], [1.0, 0.0])
        assert d == pytest.approx(1 - 1 / math.sqrt(2), abs=1e-9)
        assert d == pytest.approx(0.29289, abs=1e-5)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=100, deadline=None)
    def test_symmetric_and_in_range(self, seed):
        rng = random.Random(seed)
        u = [rng.uniform(-2, 2) for _ in range(5)]
        v = [rng.uniform(-2, 2) for _ in range(5)]
        if not np.linalg.norm(u) or not np.linalg.norm(v):
            return
        d_uv = pair_distance(u, v)
        d_vu = pair_distance(v, u)
        assert d_uv == d_vu
        assert DISTANCE_FLOOR * (1 - 1e-12) <= d_uv <= 2.0 + 1e-12


class TestBoW:
    def test_counts(self):
        assert models_for([["a", "b", "a"]]).counts["d1-00"] == {"a": 2, "b": 1}

    def test_inert_doc_empty_row(self):
        assert models_for([[], ["a"]]).counts["d1-00"] == {}

    def test_rows_equal_independent_counter(self):
        rng = random.Random(5)
        vocab = list("abcdefgh")
        token_lists = [rng.choices(vocab, k=rng.randrange(0, 20)) for _ in range(20)]
        counts = models_for(token_lists).counts
        for i, tokens in enumerate(token_lists):
            expected = {}
            for tok in tokens:
                expected[tok] = expected.get(tok, 0) + 1
            assert dict(counts[f"d1-{i:02d}"]) == expected

    def test_row_sums_equal_token_counts(self):
        rng = random.Random(6)
        token_lists = [rng.choices("abcd", k=rng.randrange(0, 30)) for _ in range(50)]
        counts = models_for(token_lists).counts
        for i, tokens in enumerate(token_lists):
            assert sum(counts[f"d1-{i:02d}"].values()) == len(tokens)


class TestTfIdf:
    def test_worked_example_idf(self, two_doc_model):
        _, model = two_doc_model
        assert model.idf["a"] == pytest.approx(1.0, abs=1e-4)
        assert model.idf["b"] == pytest.approx(1.4055, abs=1e-4)
        assert model.idf["c"] == pytest.approx(1.4055, abs=1e-4)

    def test_worked_example_length(self, two_doc_model):
        # hand derivation: sqrt(1^2 * idf(a)^2 + 1^2 * idf(b)^2)
        _, model = two_doc_model
        expected = math.sqrt(1.0 + (math.log(3 / 2) + 1.0) ** 2)
        assert expected == pytest.approx(1.72492, abs=1e-4)
        assert model.lengths["d1-00"] == pytest.approx(expected, abs=1e-9)

    def test_single_doc_idf_is_one(self):
        model = models_for([["a", "b"]])
        assert model.idf["a"] == pytest.approx(math.log(2 / 2) + 1) == 1.0

    def test_normalized_vectors_unit_length(self):
        rng = random.Random(8)
        token_lists = [rng.choices("abcdef", k=rng.randrange(1, 15)) for _ in range(12)]
        model = models_for(token_lists)
        for doc_id in model.lengths:
            weights = [tfidf_weight(model, doc_id, w) for w in model.counts[doc_id]]
            assert math.sqrt(sum(x * x for x in weights)) == pytest.approx(1.0, abs=1e-9)

    def test_lengths_are_correctly_rounded(self):
        # each length is the square root of the correctly rounded sum of the
        # squared weights, so no word order and no Python version moves a bit
        rng = random.Random(24)
        words = [f"w{i}" for i in range(600)]
        token_lists = [rng.choices(words, [1 / (i + 1) for i in range(600)],
                                   k=rng.randrange(5, 80)) for _ in range(400)]
        docs = docset(token_lists)
        model = build_models(docs, NO_VECTORS)
        df = Counter(w for toks in token_lists for w in set(toks))
        for doc in docs:
            idf = {w: math.log((1 + len(docs)) / (1 + df[w])) + 1.0 for w in doc.tokens}
            squares = [x * x for x in (c * idf[w] for w, c in sorted(Counter(doc.tokens).items()))]
            assert model.lengths[doc.doc_id] == math.sqrt(math.fsum(squares)), doc.doc_id

    @pytest.mark.parametrize("python", other_pythons())
    def test_lengths_agree_across_interpreters(self, python):
        def lengths(executable):
            proc = run_python("-c", LENGTHS_SCRIPT, python=executable)
            assert proc.returncode == 0, proc.stderr
            return json.loads(proc.stdout)

        assert lengths(python) == lengths(sys.executable)

    def test_inert_docs_excluded_from_n(self):
        # idf over 2 non-inert docs must ignore the inert third
        model = models_for([["a", "b"], ["a", "c"], []])
        assert model.idf["a"] == pytest.approx(1.0)
        assert "d1-02" not in model.lengths


class TestTfIdfCosine:
    def test_identical_docs(self):
        ds = key_member_set([["x", "y"]], [["x", "y"]])
        model = build_models(ds, NO_VECTORS)
        assert ti_cs(ds, model, "d1-00", "d6-00") == pytest.approx(1.0, abs=1e-9)

    def test_disjoint_docs(self):
        ds = key_member_set([["x"]], [["y"]])
        model = build_models(ds, NO_VECTORS)
        assert ti_cs(ds, model, "d1-00", "d6-00") == 0.0

    def test_worked_example_cross_cosine(self, two_doc_model):
        # only 'a' is shared: (1*idf(a) * 1*idf(a)) / (len * len) = 1 / len^2
        ds, model = two_doc_model
        length = math.sqrt(1.0 + (math.log(3 / 2) + 1.0) ** 2)
        expected = 1.0 / (length * length)
        assert expected == pytest.approx(0.33610, abs=1e-4)
        assert ti_cs(ds, model, "d1-00", "d6-00") == pytest.approx(expected, abs=1e-9)

    def test_symmetry_exact_and_range(self):
        # Each doc is both a key (d1-NN) and a target (d6-NN), so cos(a, b)
        # and cos(b, a) read the same counts, idf and lengths. The products
        # round in a different order, so symmetry holds to 1e-12 relative.
        rng = random.Random(11)
        token_lists = [rng.choices("abcdefgh", k=rng.randrange(1, 12)) for _ in range(10)]
        ds = key_member_set(token_lists, token_lists)
        model = build_models(ds, NO_VECTORS)
        for a in range(10):
            for b in range(10):
                cs = ti_cs(ds, model, f"d1-{a:02d}", f"d6-{b:02d}")
                assert cs == pytest.approx(ti_cs(ds, model, f"d1-{b:02d}", f"d6-{a:02d}"),
                                           rel=1e-12, abs=0)
                assert -1e-12 <= cs <= 1.0 + 1e-9

    def test_uniform_token_duplication_invariance(self):
        base = [["a", "b", "b"], ["b", "c"], ["a", "c", "d"]]
        doubled = [base[0] * 3, base[1], base[2]]
        ds_a = key_member_set(base[:1], base[1:])
        ds_b = key_member_set(doubled[:1], doubled[1:])
        model_a = build_models(ds_a, NO_VECTORS)
        model_b = build_models(ds_b, NO_VECTORS)
        for w in model_a.counts["d1-00"]:
            assert tfidf_weight(model_a, "d1-00", w) == pytest.approx(
                tfidf_weight(model_b, "d1-00", w), abs=1e-9
            )
        assert ti_cs(ds_a, model_a, "d1-00", "d6-00") == pytest.approx(
            ti_cs(ds_b, model_b, "d1-00", "d6-00"), abs=1e-9
        )


class TestSimilarityModels:
    def test_build_bundles_the_trio(self, tmp_path):
        ds = docset([["a", "b"], ["a", "c"]])
        path = tmp_path / "emb.txt"
        write_embeddings(path, random_vectors(["a", "b", "c"], 4, seed=1))
        store = load_word_vectors(path, {"a", "b", "c"})
        models = build_models(ds, store)
        assert models.vectors is store
        assert models.counts["d1-00"] == {"a": 1, "b": 1}
        assert "d1-01" in models.lengths

    def test_idf_from_corpus_counts_covers_scored_words_only(self):
        # df and n span a corpus of which only one doc is scored: its words
        # get the corpus-wide idf, and no other word gets one.
        scored = tdoc("d1-00", ["a", "b", "b"])
        models = SimilarityModels.build({"a": 3, "b": 1, "z": 2}, 4, NO_VECTORS, [scored])
        assert models.idf == {"a": math.log(5 / 4) + 1.0, "b": math.log(5 / 2) + 1.0}
        assert list(models.counts) == ["d1-00"]
        weights = (models.idf["a"], 2 * models.idf["b"])
        assert models.lengths["d1-00"] == math.sqrt(sum(x * x for x in weights))
