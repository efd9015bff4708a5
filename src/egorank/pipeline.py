"""End-to-end orchestration shared by the CLI commands.

The stages compose: ingest loads the nine datasets and runs primary
preprocessing into a normalized bundle; rank builds the Document-Set,
classifies, buckets and scores; targets applies the selection algorithm
to a ranking. Outputs are deterministic: the same config and inputs
give byte-identical files.
"""

from __future__ import annotations

import csv
import json
import logging
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, TextIO

from . import __version__
from .classify import (
    ALL_BUCKETS,
    Bucket,
    Category,
    SentimentClass,
    SentimentAnalyzer,
    assign_buckets,
    label_documents,
    train_category_classifier,
)
from .config import PipelineConfig
from .corpus import (
    CONTENT_DATASETS,
    EGO_DATASETS,
    InteractedMember,
    build_interaction_list,
    load_activity_csv,
    load_members_csv,
    _member_from_dict,
    _member_to_dict,
)
from .errors import ConfigError, EmptyBucketError, RankingTooSmallError
from .lexproc import Lemmatizer, TokenizedDoc, build_document_set, remove_stop_words, tokenize
from .recommend import MemberRanking, Normalization, RankEntry, rank_members, score_bucket
from .resources import load_english_words, load_labeled_seed, load_stop_words
from .simdex import SimilarityModels, load_word_vectors
from .targets import TargetSelection, filter_eligible, top_most
from .textprep import CleanDocument, load_spelling_dictionary, primary_preprocess

log = logging.getLogger(__name__)

BUNDLE_NAME = "bundle.json"
INGEST_REPORT_NAME = "ingest_report.json"


@dataclass
class IngestResult:
    clean_docs: list[CleanDocument]
    members: list[InteractedMember]
    report: dict


def parse_bucket_filter(value: str) -> list[Bucket]:
    """Parse 'all' or 'Category/Sentiment' into concrete buckets."""
    if value.strip().lower() == "all":
        return list(ALL_BUCKETS)
    parts = value.split("/")
    if len(parts) != 2:
        raise ConfigError(f"bucket must be 'all' or 'Category/Sentiment', got {value!r}")
    try:
        return [Bucket(Category(parts[0].strip()), SentimentClass(parts[1].strip()))]
    except ValueError:
        raise ConfigError(
            f"unknown bucket {value!r}; categories are "
            f"{[c.value for c in Category]} and sentiments {[s.value for s in SentimentClass]}"
        ) from None


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

def run_ingest(cfg: PipelineConfig) -> IngestResult:
    """Load all datasets, preprocess, merge mentions, write the bundle."""
    spelling = (
        load_spelling_dictionary(cfg.resources["spelling_dictionary"])
        if cfg.resources.get("spelling_dictionary")
        else None
    )
    english_vocab = load_english_words()

    datasets = {}
    for no in CONTENT_DATASETS:
        owner = cfg.ego_id if no in EGO_DATASETS else None
        datasets[no] = load_activity_csv(cfg.datasets[no], no, owner, window=cfg.window)
    members_raw = load_members_csv(cfg.datasets[5])

    clean_docs: list[CleanDocument] = []
    mentions: list[str] = []
    for docs in datasets.values():
        for doc in docs:
            clean = primary_preprocess(doc, spelling=spelling, english_vocab=english_vocab)
            clean_docs.append(clean)
            mentions.extend(clean.mentions)
    members = build_interaction_list(members_raw, mentions)

    flagged = sum(1 for d in clean_docs if d.flagged_non_english)
    report = {
        "version": __version__,
        "config_hash": cfg.config_hash(),
        "platform": cfg.platform.value,
        "ego_id": cfg.ego_id,
        "dataset_counts": {str(no): len(datasets[no]) for no in CONTENT_DATASETS}
        | {"5": len(members_raw)},
        "flagged_non_english": flagged,
        "mentions_harvested": len(sorted(set(mentions))),
        "members_before_merge": len(members_raw),
        "members_after_merge": len(members),
    }

    bundle = {
        "version": __version__,
        "config_hash": cfg.config_hash(),
        "platform": cfg.platform.value,
        "ego_id": cfg.ego_id,
        "window": [cfg.window[0].isoformat(), cfg.window[1].isoformat()],
        "members": [_member_to_dict(m) for m in members],
        "documents": [d.to_dict() for d in clean_docs],
        "report": report,
    }
    _write_json(cfg.out_dir / BUNDLE_NAME, bundle)
    _write_json(cfg.out_dir / INGEST_REPORT_NAME, report)
    log.info(
        "ingested %d documents (%d flagged non-English), %d members",
        len(clean_docs), flagged, len(members),
    )
    return IngestResult(clean_docs=clean_docs, members=members, report=report)


def load_bundle(cfg: PipelineConfig) -> tuple[list[CleanDocument], list[InteractedMember]]:
    path = cfg.out_dir / BUNDLE_NAME
    if not path.is_file():
        raise ConfigError(f"no ingested bundle at {path}; run the ingest command first")
    bundle = json.loads(path.read_text(encoding="utf-8"))
    docs = [CleanDocument.from_dict(d) for d in bundle["documents"]]
    members = [_member_from_dict(m) for m in bundle["members"]]
    return docs, members


# --- rank -----------------------------------------------------------------------

@dataclass
class RankState:
    """Everything the scoring stage needs, built once per run."""

    buckets: dict[Bucket, list[TokenizedDoc]]
    models: SimilarityModels
    members: list[InteractedMember]
    eligible: list[InteractedMember]


def prepare_rank_state(
    cfg: PipelineConfig,
    clean_docs: list[CleanDocument],
    members: list[InteractedMember],
) -> RankState:
    stop_words = load_stop_words(cfg.resources.get("stop_list"))
    lemmatizer = Lemmatizer.from_file(cfg.resources.get("lemma_dictionary"))
    document_set = build_document_set(clean_docs, stop_words=stop_words, lemmatizer=lemmatizer)

    seed_rows = load_labeled_seed(cfg.resources.get("labeled_seed"))
    labeled = []
    for text, category in seed_rows:
        tokens = [lemmatizer.lemmatize(t) for t in remove_stop_words(tokenize(text.lower()), stop_words)]
        labeled.append((tokens, category))
    model = train_category_classifier(labeled)

    analyzer = SentimentAnalyzer.from_files(
        cfg.resources.get("sentiment_lexicon"),
        cfg.resources.get("negators"),
        cfg.resources.get("boosters"),
    )
    labels, sentiments, _ = label_documents(document_set, model, analyzer)
    buckets = assign_buckets(document_set, labels, sentiments)

    embeddings_path = cfg.resources.get("embeddings")
    if embeddings_path is None:
        raise ConfigError("resources.embeddings must point at a word-vector file")
    words = {w for docs in buckets.values() for doc in docs for w in doc.tokens}
    vectors = load_word_vectors(embeddings_path, words)
    models = SimilarityModels.build(document_set, vectors)
    return RankState(
        buckets=buckets,
        models=models,
        members=members,
        eligible=filter_eligible(members),
    )


def rank_one_bucket(cfg: PipelineConfig, state: RankState, bucket: Bucket) -> MemberRanking:
    """Score one bucket; an empty side yields an empty ranking plus a warning."""
    normalization = Normalization(cfg.normalization)
    try:
        scores = score_bucket(state.buckets[bucket], state.models, normalization=normalization)
    except EmptyBucketError as exc:
        log.warning("bucket %s: %s; writing empty ranking", bucket, exc)
        return MemberRanking(bucket=bucket, entries=[])
    return rank_members(scores, state.eligible, bucket)


def write_ranking_reports(cfg: PipelineConfig, ranking: MemberRanking) -> None:
    slug = _bucket_slug(ranking.bucket)
    out = cfg.out_dir
    with _replacing(out / f"ranking_{slug}.csv") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["rank", "member_id", "score", "best_doc_id"])
        for position, entry in enumerate(ranking.entries, start=1):
            writer.writerow([position, entry.member_id, repr(entry.score), entry.best_doc_id])
    _write_json(out / f"ranking_{slug}.json", {
        "version": __version__,
        "config_hash": cfg.config_hash(),
        "bucket": str(ranking.bucket),
        "normalization": cfg.normalization,
        "entries": [
            {"rank": i + 1, "member_id": e.member_id, "score": e.score, "best_doc_id": e.best_doc_id}
            for i, e in enumerate(ranking.entries)
        ],
    })


def run_rank(
    cfg: PipelineConfig,
    buckets: list[Bucket],
    ingest_result: IngestResult | None = None,
) -> dict[Bucket, MemberRanking]:
    """Rank members for each of ``buckets`` and write the reports."""
    if ingest_result is not None:
        clean_docs, members = ingest_result.clean_docs, ingest_result.members
    else:
        clean_docs, members = load_bundle(cfg)
    state = prepare_rank_state(cfg, clean_docs, members)

    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        rankings = dict(zip(buckets, pool.map(lambda b: rank_one_bucket(cfg, state, b), buckets)))
    for bucket in buckets:
        write_ranking_reports(cfg, rankings[bucket])
    return rankings


# --- targets --------------------------------------------------------------------

def load_ranking_report(cfg: PipelineConfig, bucket: Bucket) -> MemberRanking | None:
    path = cfg.out_dir / f"ranking_{_bucket_slug(bucket)}.json"
    if not path.is_file():
        return None
    data = json.loads(path.read_text(encoding="utf-8"))
    entries = [
        RankEntry(e["member_id"], float(e["score"]), e["best_doc_id"])
        for e in data["entries"]
    ]
    return MemberRanking(bucket=bucket, entries=entries)


def write_target_reports(cfg: PipelineConfig, selection: TargetSelection,
                         members: list[InteractedMember]) -> Path:
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

    json_path = out / f"targets_{slug}.json"
    _write_json(json_path, {
        "version": __version__,
        "config_hash": cfg.config_hash(),
        "bucket": str(selection.bucket),
        "n_it": selection.n_it,
        "d_it": selection.d_it,
        "effective_count": selection.n_it - selection.d_it,
        "selected": list(selection.selected),
        "defaults_removed": list(selection.defaults_removed),
        "effective": list(selection.effective),
    })
    validate_target_report(json_path)
    return json_path


def validate_target_report(path: Path) -> None:
    """Post-write recount: the emitted report must satisfy the count identity."""
    data = json.loads(path.read_text(encoding="utf-8"))
    if len(data["selected"]) != data["n_it"]:
        raise AssertionError(f"{path}: |selected| != n_it")
    if len(data["defaults_removed"]) != data["d_it"]:
        raise AssertionError(f"{path}: |defaults_removed| != d_it")
    if len(data["effective"]) != data["n_it"] - data["d_it"]:
        raise AssertionError(f"{path}: |effective| != n_it - d_it")
    removed = set(data["defaults_removed"])
    if data["effective"] != [m for m in data["selected"] if m not in removed]:
        raise AssertionError(f"{path}: effective is not an order-preserving remainder")


def run_targets(
    cfg: PipelineConfig,
    rankings: dict[Bucket, MemberRanking] | None = None,
    ingest_result: IngestResult | None = None,
) -> dict[Bucket, TargetSelection]:
    """Select top-most influenceable targets for every requested bucket.

    Without ``rankings``, saved rankings are read back and only the buckets
    that have none on disk are ranked; saved rankings are not rewritten.
    """
    buckets = parse_bucket_filter(cfg.bucket)
    if rankings is None:
        rankings = {}
        missing = []
        for bucket in buckets:
            loaded = load_ranking_report(cfg, bucket)
            if loaded is None:
                missing.append(bucket)
            else:
                rankings[bucket] = loaded
        if missing:
            rankings.update(run_rank(cfg, missing, ingest_result))

    if ingest_result is not None:
        members = ingest_result.members
    else:
        _, members = load_bundle(cfg)
    eligible = filter_eligible(members)

    selections: dict[Bucket, TargetSelection] = {}
    for bucket in buckets:
        ranking = rankings.get(bucket)
        if ranking is None or not ranking.entries:
            log.warning("bucket %s has an empty ranking; no targets to select", bucket)
            continue
        try:
            selection = top_most(
                ranking,
                cfg.n_it,
                eligible,
                threshold=cfg.threshold,
                network_size=len(eligible),
                allow_small=cfg.allow_small,
            )
        except RankingTooSmallError as exc:
            # Sweeping all buckets, thin rankings are expected; a bucket the
            # user asked for by name still fails hard.
            if len(buckets) > 1:
                log.warning("bucket %s skipped: %s", bucket, exc)
                continue
            raise
        if not selection.effective:
            log.warning("bucket %s: every selected target was a default influencer", bucket)
        write_target_reports(cfg, selection, members)
        selections[bucket] = selection
    return selections


def run_all(cfg: PipelineConfig) -> dict[Bucket, TargetSelection]:
    """ingest + rank + targets in one process."""
    ingest_result = run_ingest(cfg)
    rankings = run_rank(cfg, parse_bucket_filter(cfg.bucket), ingest_result)
    return run_targets(cfg, rankings, ingest_result)
