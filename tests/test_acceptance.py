"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Expected values tagged as derived were computed with the independent
brute-force oracle in tests/oracle.py (or by explicit hand arithmetic
inside the test) and then frozen.
"""

import json
import math
import random
import re
import resource
import shutil
import time
from datetime import datetime, timezone

import pytest

import oracle
from conftest import build_models, run_python, word_store
from egorank import resources
from egorank.cli import main
from egorank.classify import (
    Bucket,
    Category,
    SentimentAnalyzer,
    SentimentClass,
    assign_buckets,
    label_documents,
    train_category_classifier,
)
from egorank.corpus import ActivityType, Document, build_interaction_list
from egorank.lexproc import (
    Lemmatizer,
    build_document_set,
    remove_stop_words,
    tokenize,
)
from egorank.recommend import Normalization, rank_members, score_bucket
from egorank.synth import generate_synthetic_corpus, random_vectors, synthetic_seed_corpus
from egorank.targets import filter_eligible, top_most
from egorank.textprep import extract_mentions, primary_preprocess, strip_noise


def report(criterion, message):
    print(f"ACCEPTANCE {criterion} PASS: {message}")


def tdoc(doc_id, tokens, owner="ego", dataset_no=1):
    return Document(
        doc_id=doc_id, owner_id=owner, dataset_no=dataset_no, parent_doc_id=None,
        text=" ".join(tokens), tokens=tuple(tokens),
    )


# --- criterion 1: Algorithm-1 oracle equivalence --------------------------------

def random_case(rng):
    """<= 20 docs, <= 30 tokens/doc, vocab <= 50, embedding dim <= 10."""
    vocab = [f"w{i}" for i in range(rng.randrange(5, 51))]
    dim = rng.randrange(2, 11)
    emb = {}
    for word in vocab:
        if rng.random() < 0.85:  # leave some words out of vocabulary
            vec = [rng.uniform(-1, 1) for _ in range(dim)]
            if not any(abs(x) > 1e-9 for x in vec):
                vec[0] = 1.0
            emb[word] = vec
    n_docs = rng.randrange(2, 21)
    n_keys = max(1, rng.randrange(1, max(2, n_docs // 3)))
    docs = []
    for i in range(n_docs):
        tokens = [rng.choice(vocab) for _ in range(rng.randrange(1, 31))]
        if i < n_keys:
            docs.append(tdoc(f"d1-k{i:02d}", tokens))
        else:
            docs.append(tdoc(f"d6-t{i:02d}", tokens, owner=f"m{i % 5}", dataset_no=6))
    return docs, emb


def test_criterion_1_algorithm1_oracle_equivalence():
    rng = random.Random(0xA11CE)
    started = time.perf_counter()
    corpora = 0
    comparisons = 0
    while corpora < 25:
        docs, emb = random_case(rng)
        if not any(d.doc_id.startswith("d6-") for d in docs):
            continue
        corpora += 1
        models = build_models(docs, word_store(emb))
        docs_tokens = {d.doc_id: list(d.tokens) for d in docs}
        key_ids = [d.doc_id for d in docs if d.doc_id.startswith("d1-")]
        target_ids = [d.doc_id for d in docs if d.doc_id.startswith("d6-")]
        for mode in ("raw", "mean"):
            got = score_bucket(sorted(docs, key=lambda d: d.doc_id), models,
                               normalization=Normalization(mode))
            want = oracle.best_scores(key_ids, target_ids, docs_tokens, emb, mode)
            assert len(got) == len(target_ids)
            for score in got:
                expected = want[score.target_doc_id]
                if expected == 0.0:
                    assert score.r_plus == 0.0
                else:
                    rel = abs(score.r_plus - expected) / abs(expected)
                    assert rel <= 1e-9, (score.target_doc_id, mode, rel)
                comparisons += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"oracle equivalence took {elapsed:.1f}s"
    report(1, f"{corpora} corpora, {comparisons} document scores within 1e-9 "
              f"relative of brute force in {elapsed:.2f}s (both modes)")


# --- criterion 2: Algorithm-2 count identity -------------------------------------

def test_criterion_2_algorithm2_count_identity():
    from egorank.corpus import InteractedMember, MemberKind
    from egorank.recommend import MemberRanking, RankEntry

    rng = random.Random(0xB0B)
    for trial in range(100):
        n = rng.randrange(1, 200)
        entries = [
            RankEntry(f"m{i:04d}", float(n - i), f"d6-{i:04d}") for i in range(n)
        ]
        ranking = MemberRanking(bucket=None, entries=entries)
        n_it = rng.randrange(1, n + 1)
        threshold = rng.choice([100, 1000, 5000, 9000])
        members = [
            InteractedMember(
                member_id=e.member_id, display_name=e.member_id,
                kind=MemberKind.FRIEND,
                activity_types=frozenset({ActivityType.POST}),
                connections_count=rng.choice([None, rng.randrange(0, 15000)]),
            )
            for e in entries
        ]
        selection = top_most(ranking, n_it, members, threshold=threshold)
        assert len(selection.selected) == n_it
        assert len(selection.effective) == n_it - selection.d_it
        removed = set(selection.defaults_removed)
        assert selection.effective == [m for m in selection.selected if m not in removed]
    report(2, "100 randomized (ranking, n_it, threshold) triples satisfied the "
              "count identities exactly")


# --- criterion 3: tf-idf / BoW worked example -------------------------------------

def test_criterion_3_tfidf_worked_example():
    docs = [tdoc("d1-00", ["a", "b"]), tdoc("d6-00", ["a", "c"], owner="m", dataset_no=6)]
    models = build_models(docs, word_store(random_vectors(["a", "b", "c"], 4, seed=1)))
    assert dict(models.counts["d1-00"]) == {"a": 1, "b": 1}
    (score,) = score_bucket(docs, models)

    idf_b = math.log(3 / 2) + 1.0          # hand: ln((1+2)/(1+1)) + 1
    length = math.sqrt(1.0 + idf_b ** 2)   # hand: sqrt(1*idf(a)^2 + 1*idf(b)^2)
    cosine = 1.0 / (length * length)       # hand: shared 'a' only

    assert models.idf["a"] == pytest.approx(1.0, abs=1e-4)
    assert models.idf["b"] == pytest.approx(1.4055, abs=1e-4)
    assert models.idf["c"] == pytest.approx(1.4055, abs=1e-4)
    assert models.lengths["d1-00"] == pytest.approx(length, abs=1e-4)
    assert score.ti_cs == pytest.approx(cosine, abs=1e-4)
    # full-precision agreement with the derivation chain
    assert models.lengths["d1-00"] == pytest.approx(length, abs=1e-9)
    assert score.ti_cs == pytest.approx(cosine, abs=1e-9)
    report(3, f"idf(a)=1.0, idf(b)={models.idf['b']:.4f}, length={length:.5f}, "
              f"cross cosine={cosine:.5f} all within 1e-4 of hand derivation")


# --- criterion 4: sentiment rules --------------------------------------------------

def test_criterion_4_sentiment_rules():
    lexicon = resources.load_sentiment_lexicon()
    negators = sorted(resources.load_negators())
    boosters = sorted(resources.load_boosters())
    analyzer = SentimentAnalyzer(lexicon, negators, boosters)

    flips = 0
    for word, valence in sorted(lexicon.items()):
        if valence == 0:
            continue
        base = analyzer.score(word).compound
        assert base != 0.0
        for negator in negators:
            flipped = analyzer.score(f"{negator} {word}").compound
            assert base * flipped < 0, (negator, word)
            flips += 1

    rng = random.Random(0xCAFE)
    pool = (
        sorted(lexicon) + negators + boosters
        + ["xyzzy", "the", "and", "run", "12", ",", "."]
    )
    for _ in range(10_000):
        sentence = " ".join(rng.choices(pool, k=rng.randrange(0, 25)))
        compound = analyzer.score(sentence).compound
        assert -1.0 <= compound <= 1.0
    report(4, f"sign flip held for {flips} negator/word pairs (exhaustive); "
              "compound stayed in [-1, 1] for 10000 fuzzed sentences")


# --- criterion 5: preprocessing idempotence ----------------------------------------

ALPHABET_OK = re.compile(r"^[a-z0-9 ,.]*$")


def fuzz_strings(count, seed):
    rng = random.Random(seed)
    pieces = [
        "hello", "WORLD", "@bob", "@A@b", "#tag", "good!!!", "...", ",,",
        "été", "привет", "你好",
        "\U0001F600", "a1b2", "   ", "\t", "\n", "don't", "x@y.z", "@",
    ]
    out = []
    for _ in range(count):
        parts = []
        for _ in range(rng.randrange(0, 8)):
            if rng.random() < 0.5:
                parts.append(rng.choice(pieces))
            else:
                parts.append("".join(chr(rng.randrange(32, 0x2FFF)) for _ in range(rng.randrange(1, 8))))
        out.append(" ".join(parts))
    return out


def test_criterion_5_preprocessing_idempotence(stop_words, lemmatizer):
    strings = fuzz_strings(10_000, seed=0xF00D)
    violations = 0
    english = resources.load_english_words()
    when = datetime(2024, 6, 1, tzinfo=timezone.utc)
    for i, text in enumerate(strings):
        noise_once = strip_noise(text)
        if strip_noise(noise_once) != noise_once:
            violations += 1
        lowered = text.lower()
        if lowered.lower() != lowered:
            violations += 1

        tokens = tokenize(noise_once.lower())
        filtered = remove_stop_words(tokens, stop_words)
        if remove_stop_words(filtered, stop_words) != filtered:
            violations += 1
        for token in filtered[:5]:
            lemma = lemmatizer.lemmatize(token)
            if lemmatizer.lemmatize(lemma) != lemma:
                violations += 1

        doc = Document(
            doc_id=f"d1-p{i}", owner_id="ego", text=text, dataset_no=1,
            parent_doc_id=None, time=when,
        )
        clean = primary_preprocess(doc, english_vocab=english)
        if not ALPHABET_OK.match(clean.text):
            violations += 1
        # Mention removal is idempotent: the clean text holds no mention.
        again = primary_preprocess(clean, english_vocab=english)
        if again.text != clean.text or extract_mentions(clean.text):
            violations += 1
    assert violations == 0
    report(5, "strip_noise, lowercase, extract_mentions, remove_stop_words and "
              "lemmatize idempotent over 10000 fuzzed strings; alphabet invariant held")


# --- criterion 6: planted-target recovery ------------------------------------------

PLANT_SEED = 20240601
# Established once with the brute-force oracle (tests/oracle.py) and frozen.
FROZEN_TOP = ["m001", "m009", "m004", "m007", "m008",
              "m005", "m002", "m003", "m006", "m010"]
FROZEN_REMOVED = ["m001", "m002"]


def build_planted_pipeline():
    corpus = generate_synthetic_corpus(
        PLANT_SEED, members=60, docs_per_member=12,
        planted_members=10, mega_members=2, group_members=2,
    )
    truth = corpus.synthetic_truth
    stops = resources.load_stop_words()
    lemmatizer = Lemmatizer(resources.load_lemma_table())
    english = resources.load_english_words()
    clean = [primary_preprocess(d, english_vocab=english)
             for docs in corpus.datasets.values() for d in docs]
    mentions = [m for c in clean for m in c.mentions]
    members = build_interaction_list(corpus.members, mentions)
    ds = build_document_set(clean, stop_words=stops, lemmatizer=lemmatizer)
    labeled = []
    for text, cat in synthetic_seed_corpus(PLANT_SEED):
        tokens = [lemmatizer.lemmatize(t) for t in remove_stop_words(tokenize(text.lower()), stops)]
        labeled.append((tokens, Category(cat)))
    model = train_category_classifier(labeled)
    analyzer = SentimentAnalyzer(resources.load_sentiment_lexicon(), resources.load_negators(),
                                 resources.load_boosters())
    labels, _ = label_documents(ds, model, analyzer)
    eligible_ids = {m.member_id for m in filter_eligible(members)}
    bucket_of = assign_buckets(ds, labels, eligible_ids)
    buckets = {bucket: [d for d in ds if bucket_of.get(d.doc_id) == bucket]
               for bucket in set(bucket_of.values())}
    vocab = sorted({t for d in ds for t in d.tokens})
    vectors = random_vectors(vocab, 16, PLANT_SEED)
    models = build_models(ds, word_store(vectors))
    return truth, ds, buckets, models, members, vectors


def test_criterion_6_planted_target_recovery():
    truth, ds, buckets, models, members, vectors = build_planted_pipeline()
    ego_bucket = Bucket(Category(truth.ego_bucket[0]), SentimentClass(truth.ego_bucket[1]))
    eligible = filter_eligible(members)
    scores = score_bucket(buckets[ego_bucket], models)
    ranking = rank_members(scores, ego_bucket)

    top15 = [e.member_id for e in ranking.entries[:15]]
    recovered = len(set(top15) & set(truth.planted))
    assert recovered >= 8, f"only {recovered} of 10 planted members in the top 15"

    # independent oracle ranking over the same bucket
    bucket_docs = buckets[ego_bucket]
    docs_tokens = {d.doc_id: list(d.tokens) for d in ds}
    key_ids = [d.doc_id for d in bucket_docs if d.dataset_no in (1, 2, 3, 4)]
    targets = [d for d in bucket_docs if d.dataset_no in (6, 7, 8, 9)]
    oracle_best = oracle.best_scores(key_ids, [d.doc_id for d in targets], docs_tokens,
                                     vectors, "raw")
    eligible_ids = {m.member_id for m in eligible}
    member_docs = {}
    for target in targets:
        if target.owner_id in eligible_ids:
            member_docs.setdefault(target.owner_id, []).append(target.doc_id)
    expected_order = [m for m, _ in oracle.rank(member_docs, oracle_best)]
    assert [e.member_id for e in ranking.entries] == expected_order

    # frozen regression fixtures
    assert top15 == FROZEN_TOP
    selection = top_most(ranking, len(ranking.entries), eligible, threshold=5000)
    assert sorted(selection.defaults_removed) == FROZEN_REMOVED
    assert set(selection.defaults_removed) == set(truth.mega)
    report(6, f"{recovered}/10 planted members in top 15; ranking matches the "
              f"brute-force oracle and the frozen fixture; defaults removed = "
              f"{sorted(selection.defaults_removed)}")


# --- a known weakness: one repeated word buys a target ------------------------------

def test_repetition_spammer_reaches_rank_1(tmp_path, capsys):
    """The non-planted member m050 of ``synth --seed 7`` adds one post,
    ``love great computer ×n gadget.``, and is ranked among the 11 members
    of Technology/Positive. The pinned thresholds are the target a
    mitigation has to move: under ``raw`` m050 is 1st from n = 13, and
    under ``mean`` from n = 8, where each normalization's n - 1 leaves it
    2nd; and the ``raw`` score rises with n."""
    seed7 = tmp_path / "seed7"
    assert main(["synth", "--out", str(seed7), "--seed", "7"]) == 0

    def rank_of_spammer(n, normalization):
        tree = tmp_path / f"spam{n}"
        if not tree.exists():
            shutil.copytree(seed7, tree)
            with (tree / "dataset_6.csv").open("a", encoding="utf-8") as fh:
                fh.write(f"pspam,love great {'computer ' * n}gadget.,member050,m050,0,0,en,"
                         "2024-06-01T00:00:00+00:00,\n")
            assert main(["ingest", "--config", str(tree / "config.json")]) == 0
        assert main(["rank", "--config", str(tree / "config.json"),
                     "--bucket", "Technology/Positive", "--normalization", normalization]) == 0
        ranking = json.loads((tree / "out" / "ranking_Technology_Positive.json").read_text())
        assert len(ranking["entries"]) == 11
        (spammer,) = [e for e in ranking["entries"] if e["member_id"] == "m050"]
        return spammer["rank"], spammer["score"]

    raw = [rank_of_spammer(n, "raw") for n in (3, 12, 13)]
    assert [rank for rank, _ in raw] == [11, 2, 1]
    assert raw[0][1] < raw[1][1] < raw[2][1]
    assert [rank_of_spammer(n, "mean")[0] for n in (7, 8)] == [2, 1]
    capsys.readouterr()  # the CLI's own lines
    report("spam", "a non-planted member repeating one ego word n times is ranked 1st "
                   "from n = 13 under raw and from n = 8 under mean")


# --- criterion 7: performance envelope ---------------------------------------------

@pytest.mark.slow
def test_criterion_7_performance_envelope(tmp_path):
    synth_dir = tmp_path / "perf"

    def cli(*argv):
        return run_python("-m", "egorank.cli", *argv, timeout=600)

    proc = cli("synth", "--out", str(synth_dir), "--seed", "7",
               "--members", "50", "--docs-per-member", "40", "--planted", "10",
               "--dim", "50", "--extra-vocab", "5000")
    assert proc.returncode == 0, proc.stderr

    header = (synth_dir / "embeddings.txt").read_text().splitlines()[0]
    vocab_size, dim = header.split()
    assert int(vocab_size) >= 5000 and int(dim) == 50

    rss_before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    started = time.perf_counter()
    proc = cli("run", "--config", str(synth_dir / "config.json"),
               "--out-dir", str(tmp_path / "serial"), "--workers", "1")
    elapsed = time.perf_counter() - started
    assert proc.returncode == 0, proc.stderr
    rss_after = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak_mb = max(rss_before, rss_after) / 1024  # ru_maxrss is KiB on Linux

    assert elapsed < 120.0, f"single-threaded run took {elapsed:.1f}s"
    assert peak_mb < 1024.0, f"peak child RSS {peak_mb:.0f} MiB"

    proc = cli("run", "--config", str(synth_dir / "config.json"),
               "--out-dir", str(tmp_path / "parallel"), "--workers", "4")
    assert proc.returncode == 0, proc.stderr

    serial = {p.name: p.read_bytes() for p in (tmp_path / "serial").iterdir()}
    parallel = {p.name: p.read_bytes() for p in (tmp_path / "parallel").iterdir()}
    assert set(serial) == set(parallel)
    for name in sorted(serial):
        assert serial[name] == parallel[name], name
    report(7, f"full run over 2000 docs with 5000-word dim-50 embeddings in "
              f"{elapsed:.1f}s, peak child RSS {peak_mb:.0f} MiB; parallel run "
              f"byte-identical across {len(serial)} report files")
