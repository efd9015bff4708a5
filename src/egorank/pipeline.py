"""End-to-end orchestration shared by the CLI commands.

The stages pass state only through files in the output directory, and
``run`` is ``ingest`` followed by ``targets``. Ingest loads the nine
datasets, keeps the rows inside the time window (counting the others),
preprocesses and labels them, buckets the documents of the ego and of
members who can be targets, counts each word's document frequency (df)
over every non-inert document, and writes the labelled corpus and df to a
bundle under a fingerprint of what it read. Rank reads back only the
documents of the buckets the config selects (refusing a bundle that does
not parse, or that other inputs or another egorank version made) and
reuses a saved ranking only if it parses, has its CSV twin, and was made
from the same bundle, embeddings and normalization. It ranks the other
selected buckets: an empty ranking for a bucket with no ego or no member
documents, scores for the others. Targets gets its rankings from rank,
then applies the selection algorithm; it checks N_it against the network
size before it reads any ranking. The same config and inputs give
byte-identical files.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import os
import sys
from collections import Counter
from contextlib import contextmanager
from itertools import chain
from pathlib import Path
from typing import Any, Iterator, Mapping, NamedTuple, TextIO

from . import __version__
from .classify import (
    ALL_BUCKETS,
    Bucket,
    SentimentAnalyzer,
    assign_buckets,
    label_documents,
    train_category_classifier,
)
from .config import PipelineConfig, _file_sha256, digest
from .corpus import (
    CONTENT_DATASETS,
    EGO_DATASETS,
    Document,
    InteractedMember,
    build_interaction_list,
    load_activity_csv,
    load_members_csv,
    _member_from_dict,
    _member_to_dict,
)
from .errors import ConfigError, RankingTooSmallError
from .lexproc import Lemmatizer, build_document_set, remove_stop_words, tokenize
from .recommend import MemberRanking, RankEntry, rank_members, score_bucket
from .resources import (
    load_boosters,
    load_english_words,
    load_labeled_seed,
    load_lemma_table,
    load_negators,
    load_sentiment_lexicon,
    load_spelling_dictionary,
    load_stop_words,
)
from .simdex import SimilarityModels, load_word_vectors
from .targets import TargetSelection, filter_eligible, top_most
from .textprep import primary_preprocess

log = logging.getLogger(__name__)

BUNDLE_NAME = "bundle.json"
INGEST_REPORT_NAME = "ingest_report.json"


class IngestResult(NamedTuple):
    """The labelled corpus that rank and targets read back from the bundle,
    with only the config's buckets filled."""

    members: list[InteractedMember]
    df: Mapping[str, int]  # documents holding each word, over all n non-inert ones
    n: int
    buckets: dict[Bucket, list[dict[str, Any]]]  # bundle document records
    inputs_digest: str  # config.digest of the ingest inputs: each ranking's provenance


def _bucket_slug(bucket: Bucket) -> str:
    return f"{bucket.category.value}_{bucket.sentiment.value}"


@contextmanager
def _replacing(path: Path) -> Iterator[TextIO]:
    """Write a temp file beside ``path`` and rename it over ``path`` only on
    success, so no reader ever sees a half-written report."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # a no-op once the rename has happened


def _write_json(path: Path, payload: dict) -> None:
    with _replacing(path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# --- ingest ---------------------------------------------------------------------

def _label(
    cfg: PipelineConfig, clean_docs: list[Document],
) -> tuple[list[Document], dict[str, Bucket], list[str]]:
    """Build the Document-Set, then label it; returns each labelled
    document's bucket and the orphaned dependent documents too."""
    stop_words = load_stop_words(cfg.resources.get("stop_list"))
    lemmatizer = Lemmatizer(load_lemma_table(cfg.resources.get("lemma_dictionary")))
    documents = build_document_set(clean_docs, stop_words=stop_words, lemmatizer=lemmatizer)

    seed_rows = load_labeled_seed(cfg.resources.get("labeled_seed"))
    labeled = []
    for text, category in seed_rows:
        tokens = [lemmatizer.lemmatize(t) for t in remove_stop_words(tokenize(text.lower()), stop_words)]
        labeled.append((tokens, category))
    model = train_category_classifier(labeled)

    analyzer = SentimentAnalyzer(
        load_sentiment_lexicon(cfg.resources.get("sentiment_lexicon")),
        load_negators(cfg.resources.get("negators")),
        load_boosters(cfg.resources.get("boosters")),
    )
    return (documents, *label_documents(documents, model, analyzer))


def run_ingest(cfg: PipelineConfig) -> None:
    """Load all datasets, preprocess, merge mentions, label every document,
    bucket those of the ego and of eligible members, count document
    frequencies over every non-inert document, and write the bundle."""
    inputs = cfg.ingest_inputs()
    spelling = (
        load_spelling_dictionary(cfg.resources["spelling_dictionary"])
        if cfg.resources.get("spelling_dictionary")
        else None
    )
    english_vocab = load_english_words()

    # One dataset's raw rows at a time, to keep ingest's memory peak down.
    since, until = cfg.window
    dataset_counts: dict[str, int] = {}
    window_dropped: dict[str, int] = {}
    clean_docs: list[Document] = []
    mentions: list[str] = []
    for no in CONTENT_DATASETS:
        owner = cfg.ego_id if no in EGO_DATASETS else None
        loaded = load_activity_csv(cfg.datasets[no], no, owner)
        docs = [doc for doc in loaded if since <= doc.time <= until]
        dataset_counts[str(no)] = len(docs)
        window_dropped[str(no)] = len(loaded) - len(docs)
        for doc in docs:
            clean = primary_preprocess(doc, spelling=spelling, english_vocab=english_vocab)
            clean_docs.append(clean)
            mentions.extend(clean.mentions)
    members_raw = load_members_csv(cfg.datasets[5])
    members = build_interaction_list(members_raw, mentions)
    documents, labels, orphans = _label(cfg, clean_docs)
    del clean_docs  # ``documents`` replaces them; freed here, they add nothing to the peak
    eligible_ids = {m.member_id for m in filter_eligible(members)}
    buckets = assign_buckets(documents, labels, eligible_ids)
    # idf spans every non-inert document, bucketed or not; an inert one adds no word.
    df = Counter(chain.from_iterable(set(d.tokens) for d in documents))
    n = sum(1 for d in documents if d.tokens)

    flagged = sum(1 for d in documents if d.flagged_non_english)
    bucketed = Counter(buckets.values())
    member_ids = {m.member_id for m in members}
    # Labelled but left out: a group's documents, or an unknown owner's.
    left_out = [d.owner_id in member_ids for d in documents
                if d.doc_id in labels and d.doc_id not in buckets]
    report = {
        "version": __version__,
        "platform": cfg.platform.value,
        "ego_id": cfg.ego_id,
        "dataset_counts": dataset_counts | {"5": len(members_raw)},
        "window_dropped": window_dropped,
        "flagged_non_english": flagged,
        "mentions_harvested": len(set(mentions)),
        "members_before_merge": len(members_raw),
        "members_after_merge": len(members),
        "bucketed_docs": {str(bucket): bucketed[bucket] for bucket in ALL_BUCKETS},
        # Each unbucketed document under its first reason, in this order.
        "unbucketed_docs": {
            "non_english": flagged,
            "inert": sum(1 for d in documents if d.inert and not d.flagged_non_english),
            "orphan": len(orphans),
            "group_owner": sum(left_out),
            "unknown_owner": len(left_out) - sum(left_out),
        },
    }
    bundle = {
        "version": __version__,
        "inputs": inputs,
        "members": [_member_to_dict(m) for m in members],
        "df": df,
        "n": n,
        # Every document, kept for inspection; rank reads only bucketed ones.
        # Tokens are [a-z0-9]+ runs, so joining them with spaces is lossless.
        "documents": [
            {"doc_id": d.doc_id, "owner_id": d.owner_id, "dataset_no": d.dataset_no,
             "tokens": " ".join(d.tokens),
             "bucket": str(buckets[d.doc_id]) if d.doc_id in buckets else None}
            for d in documents
        ],
    }
    with _replacing(cfg.out_dir / BUNDLE_NAME) as fh:
        # Compact, so that json encodes it in C; indent=2 would not.
        fh.write(json.dumps(bundle, sort_keys=True, separators=(",", ":")) + "\n")
    _write_json(cfg.out_dir / INGEST_REPORT_NAME, report)
    log.info(
        "ingested %d documents (%d flagged non-English, %d bucketed), %d members",
        len(documents), flagged, len(buckets), len(members),
    )


def _fields(record: dict[str, Any], prefix: str = "") -> Iterator[tuple[str, Any]]:
    """(dotted name, value) of each leaf of a nested record, in record order."""
    for key, value in record.items():
        if isinstance(value, dict):
            yield from _fields(value, f"{prefix}{key}.")
        else:
            yield prefix + key, value


def load_bundle(cfg: PipelineConfig) -> IngestResult:
    """Read the ingested corpus back, with the document records of the
    config's buckets only (every other bucket is left empty; rank builds the
    documents of the buckets it scores), refusing a bundle that does not
    parse, that another egorank version wrote, or that was ingested from
    other inputs than the config names now."""
    path = cfg.out_dir / BUNDLE_NAME
    if not path.is_file():
        raise ConfigError(f"no ingested bundle at {path}; run the ingest command first")
    try:
        bundle = json.loads(path.read_text(encoding="utf-8"))
    except ValueError:  # a JSON or UTF-8 decoding error
        bundle = None
    if not isinstance(bundle, dict):
        raise ConfigError(f"{path} does not parse as a JSON object; run ingest again")
    if bundle.get("version") != __version__:
        raise ConfigError(f"{path} was ingested with a different version; egorank "
                          f"{bundle.get('version')} wrote it, this is {__version__}; "
                          "run ingest again")
    missing = sorted({"inputs", "members", "df", "n", "documents"} - bundle.keys())
    if missing:
        raise ConfigError(f"{path} lacks {', '.join(missing)}; run ingest again")
    inputs = cfg.ingest_inputs()
    saved = dict(_fields(bundle["inputs"]))
    for name, value in _fields(inputs):
        if saved.get(name) != value:
            raise ConfigError(f"{path} was ingested with a different {name}; run ingest again")

    wanted = {str(bucket): bucket for bucket in cfg.bucket}
    filled: dict[Bucket, list[dict[str, Any]]] = {bucket: [] for bucket in ALL_BUCKETS}
    for record in bundle["documents"]:
        bucket = wanted.get(record["bucket"])
        if bucket is not None:
            filled[bucket].append(record)
    return IngestResult(
        members=[_member_from_dict(m) for m in bundle["members"]],
        df=bundle["df"],
        n=bundle["n"],
        buckets=filled,
        inputs_digest=digest(inputs),
    )


# --- rank -----------------------------------------------------------------------

def _empty_side(records: list[dict[str, Any]]) -> str | None:
    """The side of a bucket that has no documents, the ego's first; None
    when both have some and the bucket can be scored."""
    if not any(r["dataset_no"] in EGO_DATASETS for r in records):
        return "ego"
    if all(r["dataset_no"] in EGO_DATASETS for r in records):
        return "member"
    return None


def _documents(records: list[dict[str, Any]]) -> list[Document]:
    # One string per distinct word, as build_document_set leaves them.
    return [Document(doc_id=r["doc_id"], owner_id=r["owner_id"], dataset_no=r["dataset_no"],
                     tokens=tuple(map(sys.intern, r["tokens"].split())))
            for r in records]


def write_ranking_reports(cfg: PipelineConfig, ranking: MemberRanking,
                          provenance: dict[str, str]) -> None:
    slug = _bucket_slug(ranking.bucket)
    out = cfg.out_dir
    with _replacing(out / f"ranking_{slug}.csv") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["rank", "member_id", "score", "best_doc_id"])
        for position, entry in enumerate(ranking.entries, start=1):
            writer.writerow([position, entry.member_id, repr(entry.score), entry.best_doc_id])
    _write_json(out / f"ranking_{slug}.json", {
        "bucket": str(ranking.bucket),
        **provenance,
        "entries": [
            {"rank": i + 1, "member_id": e.member_id, "score": e.score, "best_doc_id": e.best_doc_id}
            for i, e in enumerate(ranking.entries)
        ],
    })


def load_ranking_report(cfg: PipelineConfig, bucket: Bucket,
                        provenance: dict[str, str]) -> MemberRanking | None:
    """The saved ranking of ``bucket``; None when there is none, when it
    does not parse as a JSON object or its CSV twin is missing, when its
    provenance differs (another egorank version, another normalization,
    other ingest inputs or other embeddings), or when an entry lacks a
    field or holds one of the wrong type, or a score that is not a finite
    float."""
    path = cfg.out_dir / f"ranking_{_bucket_slug(bucket)}.json"
    if not path.is_file():
        return None
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except ValueError:  # a JSON or UTF-8 decoding error
        data = None
    if not isinstance(data, dict) or not path.with_suffix(".csv").is_file():
        log.info("%s does not parse, or has no CSV twin; ranking again", path)
        return None
    if any(data.get(key) != value for key, value in provenance.items()):
        log.info("%s was ranked by another version, or from other inputs, embeddings "
                 "or normalization; ranking again", path)
        return None
    try:
        entries = [RankEntry(e["member_id"], e["score"], e["best_doc_id"])
                   for e in data["entries"]]
    except (KeyError, TypeError):  # a field missing, or entries not a list of objects
        entries = None
    if entries is None or not all(
            isinstance(e.member_id, str) and type(e.score) is float and math.isfinite(e.score)
            and isinstance(e.best_doc_id, str) for e in entries):
        log.info("%s holds a malformed entry; ranking again", path)
        return None
    return MemberRanking(bucket=bucket, entries=entries)


def run_rank(cfg: PipelineConfig, ingest: IngestResult) -> dict[Bucket, MemberRanking]:
    """The ranking of each of the config's buckets, in order: the saved one
    where it is current, otherwise one ranked now and written.

    A saved ranking is current when ``load_ranking_report`` finds it made
    by this egorank version from this corpus, embeddings and normalization;
    current files are not rewritten, and when every selected ranking is
    current no word vector is loaded. Every member-side document in a
    bucket belongs to a member who can be a target (ingest left the others
    out), so each scored owner is ranked. A bucket with no ego or no member
    documents gets an empty ranking and a warning, and nothing is built or
    loaded for it. Documents, word vectors, counts, idf and tf-idf lengths
    are built for the other buckets only, idf from the df and n that ingest
    counted. When a bucket is ranked now but none is scored, the embeddings
    file is still checked for structure, but no row is parsed and no model
    is built.
    """
    embeddings = cfg.resources.get("embeddings")
    if embeddings is None:
        raise ConfigError("resources.embeddings must point at a word-vector file")
    # What a saved ranking records it was made from, and must match to be reused.
    provenance = {
        "version": __version__,
        "normalization": cfg.normalization.value,
        "inputs_digest": ingest.inputs_digest,
        "embeddings_sha256": _file_sha256(embeddings),
    }
    rankings = {bucket: load_ranking_report(cfg, bucket, provenance) for bucket in cfg.bucket}
    stale = [bucket for bucket, ranking in rankings.items() if ranking is None]
    if not stale:
        return rankings

    scored: dict[Bucket, list[Document]] = {}
    for bucket in stale:
        side = _empty_side(ingest.buckets[bucket])
        if side is None:
            scored[bucket] = _documents(ingest.buckets[bucket])
        else:
            log.warning("bucket %s: no %s documents; writing empty ranking", bucket, side)
            rankings[bucket] = MemberRanking(bucket=bucket, entries=[])

    docs = [doc for bucket_docs in scored.values() for doc in bucket_docs]
    vectors = load_word_vectors(embeddings, {w for doc in docs for w in doc.tokens})
    if scored:
        # here, not at the top: only scoring needs the thread pool
        from concurrent.futures import ThreadPoolExecutor

        models = SimilarityModels.build(ingest.df, ingest.n, vectors, docs)

        def rank(bucket: Bucket) -> MemberRanking:
            scores = score_bucket(scored[bucket], models, normalization=cfg.normalization)
            return rank_members(scores, bucket)

        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            rankings.update(zip(scored, pool.map(rank, scored)))
    for bucket in stale:
        write_ranking_reports(cfg, rankings[bucket], provenance)
    return rankings


# --- targets --------------------------------------------------------------------

def write_target_reports(cfg: PipelineConfig, selection: TargetSelection,
                         members: list[InteractedMember]) -> None:
    slug = _bucket_slug(selection.bucket)
    out = cfg.out_dir
    by_id = {m.member_id: m for m in members}

    with _replacing(out / f"targets_{slug}.csv") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["section", "position", "member_id", "connections_count"])
        for section, ids in (
            ("selected", selection.selected),
            ("default", selection.defaults_removed),
            ("effective", selection.effective),
        ):
            for position, member_id in enumerate(ids, start=1):
                member = by_id.get(member_id)
                conn = member.connections_count if member else None
                writer.writerow([section, position, member_id, "" if conn is None else conn])

    _write_json(out / f"targets_{slug}.json", {
        "version": __version__,
        "bucket": str(selection.bucket),
        "n_it": selection.n_it,
        "threshold": cfg.threshold,  # decides defaults_removed
        "d_it": selection.d_it,
        "effective_count": selection.n_it - selection.d_it,
        "selected": list(selection.selected),
        "defaults_removed": list(selection.defaults_removed),
        "effective": list(selection.effective),
    })


def run_targets(cfg: PipelineConfig) -> dict[Bucket, TargetSelection]:
    """Select top-most influenceable targets for each of the config's buckets.

    N_it's upper bound, the size of the bundle's eligible network, is
    checked before any ranking is read; ``load_config`` checks the lower
    bound before any stage runs. The rankings come from ``run_rank``, which
    reuses the current ones. A ranking shorter than N_it, an empty one
    included, gets no selection, and its bucket's old target reports are
    removed.
    """
    ingest = load_bundle(cfg)
    eligible = filter_eligible(ingest.members)
    if cfg.n_it > len(eligible):
        raise ConfigError(f"n_it = {cfg.n_it} exceeds the network size {len(eligible)}")
    rankings = run_rank(cfg, ingest)

    selections: dict[Bucket, TargetSelection] = {}
    for bucket in cfg.bucket:
        try:
            selection = top_most(rankings[bucket], cfg.n_it, eligible, threshold=cfg.threshold)
        except RankingTooSmallError as exc:
            slug = _bucket_slug(bucket)
            for suffix in (".csv", ".json"):
                (cfg.out_dir / f"targets_{slug}{suffix}").unlink(missing_ok=True)
            # Sweeping all buckets, thin rankings are expected; a bucket the
            # user asked for by name still fails hard.
            if len(cfg.bucket) > 1:
                log.warning("%s; skipped", exc)
                continue
            raise
        if not selection.effective:
            log.warning("bucket %s: every selected target was a default influencer", bucket)
        write_target_reports(cfg, selection, ingest.members)
        selections[bucket] = selection
    return selections
