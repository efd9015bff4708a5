"""End-to-end orchestration shared by the CLI commands.

The stages pass state only through files in the output directory, and
``run`` is ``ingest`` followed by ``targets``. Ingest loads the nine
datasets, keeps the rows inside the time window (counting the others),
preprocesses and labels them, buckets the documents of the ego and of
members who can be targets, counts each word's document frequency (df)
over every non-inert document, and writes the labelled corpus and df to a
bundle under a fingerprint of what it read, sealed by a SHA-256 of its
bytes in a ``sha256sum`` sidecar; a bundle other than the one sealed
before first removes every ranking and targets file. Rank reads back only
the records of the buckets the config selects (refusing a bundle whose
bytes do not match the seal, or that other inputs or another egorank
version made) and reuses a saved ranking only if its two files are, byte for byte, what it
would write now for the entries the JSON holds, read as rank's own types;
a ranking names its bundle by the seal's digest. It ranks the other
selected buckets: an empty ranking for a bucket with no ego or no member
documents, scores for the others. Targets gets its rankings from rank,
then applies the selection algorithm, and names each ranking it selected
from by the SHA-256 of its JSON; it checks N_it against the network size
before it reads any ranking. Every file is
written whole or not at all, no JSON report holds a NaN or infinity, and
the same config and inputs give byte-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import os
import sys
from collections import Counter
from itertools import chain
from pathlib import Path
from typing import Any, Iterable, Mapping, NamedTuple

from . import __version__
from .classify import (
    ALL_BUCKETS,
    Bucket,
    SentimentAnalyzer,
    assign_buckets,
    label_documents,
    train_category_classifier,
)
from .config import PipelineConfig, file_sha256
from .corpus import (
    CONTENT_DATASETS,
    EGO_DATASETS,
    ActivityType,
    Document,
    InteractedMember,
    MemberKind,
    build_interaction_list,
    load_activity_csv,
    load_members_csv,
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
SEAL_NAME = f"{BUNDLE_NAME}.sha256"  # ``sha256sum -c`` reads it too
INGEST_REPORT_NAME = "ingest_report.json"


class IngestResult(NamedTuple):
    """The labelled corpus that rank and targets read back from the bundle,
    with only the config's buckets filled."""

    members: list[InteractedMember]
    df: Mapping[str, int]  # documents holding each word, over all n non-inert ones
    n: int
    buckets: dict[Bucket, list[dict[str, Any]]]  # records; run_rank takes out those it ranks
    bundle_sha256: str  # the seal's hex digest: each ranking's provenance


def _bucket_slug(bucket: Bucket) -> str:
    return f"{bucket.category.value}_{bucket.sentiment.value}"


def _replace(path: Path, text: str) -> None:
    """Write ``text`` to a temp file beside ``path`` and rename it over
    ``path`` only on success, so no reader ever sees a half-written file.
    Every file in the output directory is written here."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8", newline="")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # a no-op once the rename has happened


def _seal_line(sha256: str) -> str:
    """The seal of a bundle of that SHA-256 hex digest, as ``sha256sum`` writes it."""
    return f"{sha256}  {BUNDLE_NAME}\n"


def _table(header: list[str], rows: Iterable[Iterable[Any]]) -> str:
    """A report's CSV text; a None cell reads as empty."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return text.getvalue()


def _json(payload: dict[str, Any]) -> str:
    """A report's JSON text; raises ValueError on a NaN or infinity."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


# --- ingest ---------------------------------------------------------------------

def _member_to_dict(m: InteractedMember) -> dict[str, Any]:
    """A member as the bundle records it; ``_member_from_dict`` reads it back."""
    return m._asdict() | {"kind": m.kind.value,
                          "activity_types": sorted(a.value for a in m.activity_types)}


def _member_from_dict(data: Mapping[str, Any]) -> InteractedMember:
    """The member a bundle record holds."""
    member = InteractedMember(**data)
    return member._replace(kind=MemberKind(member.kind),
                           activity_types=frozenset(map(ActivityType, member.activity_types)))


def _document_to_dict(d: Document, bucket: Bucket | None) -> dict[str, Any]:
    """A document as the bundle records it; ``run_rank`` reads it back. Tokens
    are [a-z0-9]+ runs, so joining them with spaces is lossless."""
    return {"doc_id": d.doc_id, "owner_id": d.owner_id, "dataset_no": d.dataset_no,
            "tokens": " ".join(d.tokens), "bucket": None if bucket is None else str(bucket)}


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
    spelling_path = cfg.resources.get("spelling_dictionary")
    spelling = load_spelling_dictionary(spelling_path) if spelling_path else None
    corrections: dict[str, str] = {}  # the spelling search runs once per distinct token
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
            clean = primary_preprocess(doc, spelling=spelling, corrections=corrections,
                                       english_vocab=english_vocab)
            clean_docs.append(clean)
            mentions.extend(clean.mentions)
    members_raw = load_members_csv(cfg.datasets[5])
    members = build_interaction_list(members_raw, mentions)
    documents, labels, orphans = _label(cfg, clean_docs)
    del clean_docs, loaded, docs  # ``documents`` replaces them; freed, they add to no peak
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
        "inputs": inputs,
        "members": [_member_to_dict(m) for m in members],
        "df": df,
        "n": n,
        # Every document, kept for inspection; rank reads only bucketed ones.
        "documents": [_document_to_dict(d, buckets.get(d.doc_id)) for d in documents],
    }
    # Compact, so that json encodes it in C; indent=2 would not.
    text = json.dumps(bundle, sort_keys=True, separators=(",", ":")) + "\n"
    seal = _seal_line(hashlib.sha256(text.encode("utf-8")).hexdigest())
    out, sealed = cfg.out_dir, cfg.out_dir / SEAL_NAME
    # The old report describes the old bundle: gone before the bundle is
    # replaced. So is every ranking and targets file once the bundle changes,
    # since each names the bundle that was there when it was written.
    if (out / INGEST_REPORT_NAME).is_file():
        (out / INGEST_REPORT_NAME).unlink()
    if not (sealed.is_file() and sealed.read_bytes() == seal.encode()):
        stale = [*out.glob("ranking_*"), *out.glob("targets_*")]
        for path in stale:
            path.unlink()
        if stale:
            log.info("removed %d ranking and targets files of the previous bundle", len(stale))
    _replace(out / BUNDLE_NAME, text)
    _replace(sealed, seal)
    _replace(out / INGEST_REPORT_NAME, _json(report))
    log.info(
        "ingested %d documents (%d flagged non-English, %d bucketed), %d members",
        len(documents), flagged, len(buckets), len(members),
    )


def load_bundle(cfg: PipelineConfig) -> IngestResult:
    """Read the ingested corpus back, with the document records of the
    config's buckets only (every other bucket is left empty; rank reads the
    records of the buckets it ranks now), refusing a bundle whose bytes do
    not match the seal ingest wrote beside it, then one whose ``inputs``
    differ in any field from ``cfg.ingest_inputs()``, the egorank version
    included; the message names the first such field and both values."""
    path = cfg.out_dir / BUNDLE_NAME
    if not path.is_file():
        raise ConfigError(f"no ingested bundle at {path}; run the ingest command first")
    seal = cfg.out_dir / SEAL_NAME
    data = path.read_bytes()
    sha256 = hashlib.sha256(data).hexdigest()
    if not (seal.is_file() and seal.read_bytes() == _seal_line(sha256).encode()):
        raise ConfigError(f"{path} does not match {seal}; run ingest again")
    text = data.decode("utf-8")
    del data  # the parse holds the text only, as a read_text would
    bundle = json.loads(text)
    saved = bundle["inputs"]
    for name, value in cfg.ingest_inputs().items():
        if saved.get(name) != value:
            raise ConfigError(f"{path} was ingested with a different {name}; it records "
                              f"{saved.get(name)!r}, now {value!r}; run ingest again")
    # Every bucket name, and null, maps to its bucket if the config selects it, else to None.
    wanted = dict.fromkeys([None, *map(str, ALL_BUCKETS)]) | {str(b): b for b in cfg.bucket}
    filled: dict[Bucket, list[dict[str, Any]]] = {bucket: [] for bucket in ALL_BUCKETS}
    for record in bundle["documents"]:
        bucket = wanted[record["bucket"]]
        if bucket is not None:
            filled[bucket].append(record)
    return IngestResult(
        members=[_member_from_dict(m) for m in bundle["members"]],
        df=bundle["df"],
        n=bundle["n"],
        buckets=filled,
        bundle_sha256=sha256,
    )


# --- rank -----------------------------------------------------------------------

def _empty_side(records: list[dict[str, Any]]) -> str | None:
    """The side of a bucket's bundle records that has none, the ego's first;
    None when both have some and the bucket can be scored."""
    if not any(r["dataset_no"] in EGO_DATASETS for r in records):
        return "ego"
    if all(r["dataset_no"] in EGO_DATASETS for r in records):
        return "member"
    return None


def _ranking_files(cfg: PipelineConfig, ranking: MemberRanking,
                   provenance: dict[str, str]) -> dict[Path, str]:
    """The text of each of ``ranking``'s two report files, by path."""
    stem = f"ranking_{_bucket_slug(ranking.bucket)}"
    return {
        cfg.out_dir / f"{stem}.csv": _table(
            ["rank", "member_id", "score", "best_doc_id"],
            [(i, e.member_id, repr(e.score), e.best_doc_id)
             for i, e in enumerate(ranking.entries, start=1)]),
        cfg.out_dir / f"{stem}.json": _json({
            "bucket": str(ranking.bucket),
            **provenance,
            "entries": [
                {"rank": i, "member_id": e.member_id, "score": e.score, "best_doc_id": e.best_doc_id}
                for i, e in enumerate(ranking.entries, start=1)
            ],
        }),
    }


def write_ranking_reports(cfg: PipelineConfig, ranking: MemberRanking,
                          provenance: dict[str, str]) -> None:
    for path, text in _ranking_files(cfg, ranking, provenance).items():
        _replace(path, text)


def load_ranking_report(cfg: PipelineConfig, bucket: Bucket,
                        provenance: dict[str, str]) -> MemberRanking | None:
    """The saved ranking of ``bucket``, its entries read as rank's own types;
    None when there is none, or when the JSON and its CSV twin are not, byte
    for byte, what ``write_ranking_reports`` would write now for those
    entries. So a missing or edited twin, another provenance or ``rank``
    numbering, a field missing or of another JSON type, a score that is not
    finite, and a file that does not read or render are ranked again."""
    path = cfg.out_dir / f"ranking_{_bucket_slug(bucket)}.json"
    if not path.is_file():
        return None
    try:
        ranking = MemberRanking(bucket=bucket, entries=[
            RankEntry(str(e["member_id"]), float(e["score"]), str(e["best_doc_id"]))
            for e in json.loads(path.read_bytes())["entries"]])
        if all(saved.is_file() and saved.read_bytes() == text.encode("utf-8")
               for saved, text in _ranking_files(cfg, ranking, provenance).items()):
            return ranking
    # ValueError covers bad JSON, bad UTF-8, a lone surrogate and a NaN score.
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError):
        pass
    log.info("%s or its CSV twin is not what rank would write now; ranking again", path)
    return None


def run_rank(cfg: PipelineConfig, ingest: IngestResult) -> dict[Bucket, MemberRanking]:
    """The ranking of each of the config's buckets, in order: the saved one
    where it is current, otherwise one ranked now and written.

    A saved ranking is reused when ``load_ranking_report`` finds it current;
    current files are not rewritten, and when every selected ranking is
    current no document is built and no word vector is loaded. Each bucket
    ranked now takes its records out of ``ingest.buckets``, freed before the
    vectors load; ingest kept the member-side ones of possible targets only.
    A bucket with no ego or no member records gets an empty ranking and a
    warning, and no document is built for it. Each other bucket's records
    become documents, and its model is built from them by the worker that
    scores it. With no bucket scored, the embeddings file is still checked
    for structure, but no row is parsed and no model is built.
    """
    embeddings = cfg.resources.get("embeddings")
    if embeddings is None:
        raise ConfigError("resources.embeddings must point at a word-vector file")
    # What a saved ranking records it was made from, and must match to be reused.
    provenance = {
        "normalization": cfg.normalization.value,
        "bundle_sha256": ingest.bundle_sha256,
        "embeddings_sha256": file_sha256(embeddings),
    }
    rankings = {bucket: load_ranking_report(cfg, bucket, provenance) for bucket in cfg.bucket}
    stale = [bucket for bucket, ranking in rankings.items() if ranking is None]
    if not stale:
        return rankings

    scored: dict[Bucket, list[Document]] = {}
    for bucket in stale:
        records = ingest.buckets.pop(bucket)
        side = _empty_side(records)
        if side is None:
            # One string per distinct word, as build_document_set leaves them.
            scored[bucket] = [Document(r["doc_id"], r["owner_id"], r["dataset_no"],
                                       tuple(map(sys.intern, r["tokens"].split())))
                              for r in records]
        else:
            log.warning("bucket %s: no %s documents; writing empty ranking", bucket, side)
            rankings[bucket] = MemberRanking(bucket=bucket, entries=[])
    del records  # freed before the vectors load
    words = {w for docs in scored.values() for doc in docs for w in doc.tokens}
    vectors = load_word_vectors(embeddings, words)
    if scored:
        # here, not at the top: only scoring needs the thread pool
        from concurrent.futures import ThreadPoolExecutor

        def rank(bucket: Bucket) -> MemberRanking:
            models = SimilarityModels.build(ingest.df, ingest.n, vectors, scored[bucket])
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
    stem = f"targets_{slug}"
    connections = {m.member_id: m.connections_count for m in members}
    sections = {"selected": selection.selected, "default": selection.defaults_removed,
                "effective": selection.effective}
    _replace(cfg.out_dir / f"{stem}.csv", _table(
        ["section", "position", "member_id", "connections_count"],
        [(section, position, member_id, connections.get(member_id))
         for section, ids in sections.items()
         for position, member_id in enumerate(ids, start=1)]))
    _replace(cfg.out_dir / f"{stem}.json", _json({
        "bucket": str(selection.bucket),
        "n_it": selection.n_it,
        "ranking_sha256": file_sha256(cfg.out_dir / f"ranking_{slug}.json"),
        "threshold": cfg.threshold,  # decides defaults_removed
        "d_it": selection.d_it,
        "effective_count": selection.n_it - selection.d_it,
        "selected": list(selection.selected),
        "defaults_removed": list(selection.defaults_removed),
        "effective": list(selection.effective),
    }))


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
