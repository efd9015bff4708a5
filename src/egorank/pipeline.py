"""End-to-end orchestration shared by the CLI commands.

The stages pass state only through files in the output directory, and
``run`` is ``ingest`` followed by ``targets``. Ingest loads the nine
datasets, keeps the rows inside the time window (counting the others),
preprocesses and labels them, buckets the documents of the ego and of
members who can be targets, counts each word's document frequency (df)
over every non-inert document, and writes the labelled corpus and df to a
bundle under a fingerprint of what it read. Rank reads back only the
records of the buckets the config selects (refusing a bundle that does
not parse, that other inputs or another egorank version made, or whose
records are malformed) and reuses a saved ranking only if its two files
are, byte for byte, what it would write now for the entries the JSON
holds. It ranks the other selected buckets from documents it checks as
it reads them: an empty ranking for a bucket with no ego or no member
documents, scores for the others. Targets gets its rankings from rank,
then applies the selection algorithm; it checks N_it against the network
size before it reads any ranking. Every file is written whole or not at
all, and the same config and inputs give byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import os
import sys
from collections import Counter
from itertools import chain
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, NamedTuple

from . import __version__
from .classify import (
    ALL_BUCKETS,
    Bucket,
    SentimentAnalyzer,
    assign_buckets,
    label_documents,
    train_category_classifier,
)
from .config import PipelineConfig, digest, file_sha256
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
INGEST_REPORT_NAME = "ingest_report.json"


class IngestResult(NamedTuple):
    """The labelled corpus that rank and targets read back from the bundle,
    with only the config's buckets filled."""

    members: list[InteractedMember]
    df: Mapping[str, int]  # documents holding each word, over all n non-inert ones
    n: int
    buckets: dict[Bucket, list[dict[str, Any]]]  # records; run_rank takes out those it ranks
    inputs_digest: str  # config.digest of the ingest inputs: each ranking's provenance


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


def _table(header: list[str], rows: Iterable[Iterable[Any]]) -> str:
    """A report's CSV text; a None cell reads as empty."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return text.getvalue()


def _json(payload: dict[str, Any]) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# --- ingest ---------------------------------------------------------------------

def _member_to_dict(m: InteractedMember) -> dict[str, Any]:
    """A member as the bundle records it; ``_member_from_dict`` reads it back."""
    return m._asdict() | {"kind": m.kind.value,
                          "activity_types": sorted(a.value for a in m.activity_types)}


def _member_from_dict(data: Mapping[str, Any]) -> InteractedMember:
    """The member a bundle record holds, with the field types ``load_members_csv``
    gives; ValueError for any other."""
    member = InteractedMember(*(data[name] for name in InteractedMember._fields))
    count = member.connections_count
    if not (isinstance(member.member_id, str) and member.member_id
            and isinstance(member.display_name, str)
            and (count is None or type(count) is int and count >= 0)):
        raise ValueError("a member record of the wrong shape")
    return member._replace(kind=MemberKind(member.kind),
                           activity_types=frozenset(map(ActivityType, member.activity_types)))


def _document_to_dict(d: Document, bucket: Bucket | None) -> dict[str, Any]:
    """A document as the bundle records it; ``_document_from_dict`` reads it
    back. Tokens are [a-z0-9]+ runs, so joining them with spaces is lossless."""
    return {"doc_id": d.doc_id, "owner_id": d.owner_id, "dataset_no": d.dataset_no,
            "tokens": " ".join(d.tokens), "bucket": None if bucket is None else str(bucket)}


def _document_from_dict(data: Mapping[str, Any]) -> Document:
    """The document a bucketed bundle record holds; ValueError for a field of
    the wrong type, or for no tokens, as ingest buckets no inert document."""
    doc_id, owner_id = data["doc_id"], data["owner_id"]
    dataset_no, tokens = data["dataset_no"], data["tokens"]
    if not (isinstance(doc_id, str) and isinstance(owner_id, str) and isinstance(tokens, str)
            and tokens.strip() and type(dataset_no) is int and dataset_no in CONTENT_DATASETS):
        raise ValueError("a document record of the wrong shape")
    # One string per distinct word, as build_document_set leaves them.
    return Document(doc_id, owner_id, dataset_no, tuple(map(sys.intern, tokens.split())))


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
        "version": __version__,
        "inputs": inputs,
        "members": [_member_to_dict(m) for m in members],
        "df": df,
        "n": n,
        # Every document, kept for inspection; rank reads only bucketed ones.
        "documents": [_document_to_dict(d, buckets.get(d.doc_id)) for d in documents],
    }
    # Compact, so that json encodes it in C; indent=2 would not.
    _replace(cfg.out_dir / BUNDLE_NAME,
             json.dumps(bundle, sort_keys=True, separators=(",", ":")) + "\n")
    _replace(cfg.out_dir / INGEST_REPORT_NAME, _json(report))
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
    config's buckets only (every other bucket is left empty; rank reads the
    records of the buckets it ranks now), refusing a bundle that does not
    parse, that another egorank version wrote, that was ingested from other
    inputs than the config names now, whose inputs, member records, df or n
    are of the wrong shape, or whose document names no bucket."""
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
    # Every bucket name, and null, maps to its bucket if the config selects it, else to None.
    wanted = dict.fromkeys([None, *map(str, ALL_BUCKETS)]) | {str(b): b for b in cfg.bucket}
    filled: dict[Bucket, list[dict[str, Any]]] = {bucket: [] for bucket in ALL_BUCKETS}
    try:
        saved = dict(_fields(bundle["inputs"]))
        for name, value in _fields(inputs):
            if saved.get(name) != value:
                raise ConfigError(f"{path} was ingested with a different {name}; "
                                  "run ingest again")
        df, n = bundle["df"], bundle["n"]
        if not (isinstance(df, dict) and type(n) is int and n >= 0):
            raise ValueError("df or n of the wrong shape")
        for record in bundle["documents"]:
            bucket = wanted[record["bucket"]]  # a KeyError for a name no bucket has
            if bucket is not None:
                filled[bucket].append(record)
        return IngestResult(
            members=[_member_from_dict(m) for m in bundle["members"]],
            df=df,
            n=n,
            buckets=filled,
            inputs_digest=digest(inputs),
        )
    except (AttributeError, KeyError, TypeError, ValueError):  # a record of the wrong shape
        raise ConfigError(f"{path} holds a malformed record; run ingest again") from None


# --- rank -----------------------------------------------------------------------

def _empty_side(docs: list[Document]) -> str | None:
    """The side of a bucket that has no documents, the ego's first; None
    when both have some and the bucket can be scored."""
    if not any(d.dataset_no in EGO_DATASETS for d in docs):
        return "ego"
    if all(d.dataset_no in EGO_DATASETS for d in docs):
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
    """The saved ranking of ``bucket``; None when there is none, when an
    entry lacks a field or holds one of the wrong type or a score that is
    not a finite float, or when the JSON and its CSV twin are not, byte for
    byte, what ``write_ranking_reports`` would write now for the entries
    the JSON holds. So a missing or edited twin, another provenance or
    ``rank`` numbering, or a JSON that is not an object is ranked again."""
    path = cfg.out_dir / f"ranking_{_bucket_slug(bucket)}.json"
    if not path.is_file():
        return None
    try:
        data = json.loads(path.read_bytes())
    except ValueError:  # a JSON or UTF-8 decoding error
        data = None
    if isinstance(data, dict):
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
        ranking = MemberRanking(bucket=bucket, entries=entries)
        if all(saved.is_file() and saved.read_bytes() == text.encode("utf-8")
               for saved, text in _ranking_files(cfg, ranking, provenance).items()):
            return ranking
    log.info("%s or its CSV twin is not what rank would write now; ranking again", path)
    return None


def run_rank(cfg: PipelineConfig, ingest: IngestResult) -> dict[Bucket, MemberRanking]:
    """The ranking of each of the config's buckets, in order: the saved one
    where it is current, otherwise one ranked now and written.

    A saved ranking is reused when ``load_ranking_report`` finds it current;
    current files are not rewritten, and when every selected ranking is
    current no document is built and no word vector is loaded. Each bucket
    ranked now takes its records out of ``ingest.buckets`` into checked
    documents (a malformed one exits 1), freed before the vectors load;
    ingest kept the member-side ones of possible targets only. A bucket with
    no ego or no member documents gets an empty ranking and a warning. Each
    other bucket's model is built from its own documents by the worker that
    scores it. With no bucket scored, the embeddings file is still checked
    for structure, but no row is parsed and no model is built.
    """
    embeddings = cfg.resources.get("embeddings")
    if embeddings is None:
        raise ConfigError("resources.embeddings must point at a word-vector file")
    # What a saved ranking records it was made from, and must match to be reused.
    provenance = {
        "version": __version__,
        "normalization": cfg.normalization.value,
        "inputs_digest": ingest.inputs_digest,
        "embeddings_sha256": file_sha256(embeddings),
    }
    rankings = {bucket: load_ranking_report(cfg, bucket, provenance) for bucket in cfg.bucket}
    stale = [bucket for bucket, ranking in rankings.items() if ranking is None]
    if not stale:
        return rankings

    scored: dict[Bucket, list[Document]] = {}
    try:
        for bucket in stale:
            docs = [_document_from_dict(record) for record in ingest.buckets.pop(bucket)]
            side = _empty_side(docs)
            if side is None:
                scored[bucket] = docs
            else:
                log.warning("bucket %s: no %s documents; writing empty ranking", bucket, side)
                rankings[bucket] = MemberRanking(bucket=bucket, entries=[])
        words = {w for docs in scored.values() for doc in docs for w in doc.tokens}
        counts = [ingest.df[w] for w in words]
        if not ({*map(type, counts)} <= {int}
                and min(counts, default=1) >= 1 and max(counts, default=0) <= ingest.n):
            raise ValueError("a scored word's df is no count from 1 to n")
    except (KeyError, TypeError, ValueError):  # a record of the wrong shape
        raise ConfigError(f"{cfg.out_dir / BUNDLE_NAME} holds a malformed record; "
                          "run ingest again") from None
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
    stem = f"targets_{_bucket_slug(selection.bucket)}"
    connections = {m.member_id: m.connections_count for m in members}
    sections = {"selected": selection.selected, "default": selection.defaults_removed,
                "effective": selection.effective}
    _replace(cfg.out_dir / f"{stem}.csv", _table(
        ["section", "position", "member_id", "connections_count"],
        [(section, position, member_id, connections.get(member_id))
         for section, ids in sections.items()
         for position, member_id in enumerate(ids, start=1)]))
    _replace(cfg.out_dir / f"{stem}.json", _json({
        "version": __version__,
        "bucket": str(selection.bucket),
        "n_it": selection.n_it,
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
