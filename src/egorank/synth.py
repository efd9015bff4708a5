"""Deterministic synthetic inputs for demos, tests and the ``synth`` command.

:func:`synth` writes everything one run needs into a directory: the nine
activity CSVs in the format ingest reads, a ``corpus.json`` sidecar with
the hidden ground truth, random word vectors covering every generated
word, a labelled seed corpus for the category classifier, and a
``config.json`` pointing at all of them. The same arguments always
produce byte-identical files. No pipeline stage imports this module.
"""

from __future__ import annotations

import csv
import json
import random
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from .corpus import (
    ACTIVITY_HEADER,
    CONTENT_DATASETS,
    DATASET_ACTIVITY,
    MEMBER_HEADER,
    PARENT_DATASET,
    Document,
    InteractedMember,
    MemberKind,
    Platform,
)
from .errors import ConfigError


class SyntheticTruth(NamedTuple):
    """Hidden ground truth attached to generated corpora, for tests only."""

    doc_labels: dict[str, tuple[str, str]]
    member_profiles: dict[str, tuple[str, str]]
    planted: tuple[str, ...]
    mega: tuple[str, ...]
    ego_bucket: tuple[str, str]

    def to_dict(self) -> dict:
        return {
            "doc_labels": {k: list(v) for k, v in self.doc_labels.items()},
            "member_profiles": {k: list(v) for k, v in self.member_profiles.items()},
            "planted": list(self.planted),
            "mega": list(self.mega),
            "ego_bucket": list(self.ego_bucket),
        }


class Corpus(NamedTuple):
    """All generated activity of the ego EGO_ID on PLATFORM within WINDOW."""

    datasets: dict[int, list[Document]]
    members: list[InteractedMember]
    synthetic_truth: SyntheticTruth


def format_timestamp(value: datetime) -> str:
    return value.astimezone(timezone.utc).isoformat()


def write_corpus_csvs(corpus: Corpus, directory: str | Path) -> None:
    """Serialize a corpus as one CSV per dataset plus a metadata sidecar.

    The CSVs load back through ``corpus.load_activity_csv`` and
    ``corpus.load_members_csv`` into the same documents and members.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for no in CONTENT_DATASETS:
        docs = corpus.datasets.get(no, [])
        with (directory / f"dataset_{no}.csv").open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(ACTIVITY_HEADER)
            for doc in docs:
                prefix = f"d{doc.dataset_no}-"
                parent_prefix = f"d{PARENT_DATASET.get(doc.dataset_no)}-"
                writer.writerow([
                    doc.doc_id[len(prefix):],
                    doc.text,
                    doc.owner_id,
                    doc.owner_id,
                    0,
                    0,
                    "en",
                    format_timestamp(doc.time),
                    doc.parent_doc_id[len(parent_prefix):] if doc.parent_doc_id else "",
                ])
    with (directory / "members.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(MEMBER_HEADER)
        for m in corpus.members:
            writer.writerow([
                m.member_id,
                m.display_name,
                m.kind.value,
                ";".join(sorted(a.value for a in m.activity_types)),
                m.connections_count if m.connections_count is not None else "",
            ])
    meta = {
        "platform": PLATFORM.value,
        "ego_id": EGO_ID,
        "window": [format_timestamp(WINDOW[0]), format_timestamp(WINDOW[1])],
        "synthetic_truth": corpus.synthetic_truth.to_dict(),
    }
    (directory / "corpus.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


# --- synthetic corpora ----------------------------------------------------------

# Function words mixed into generated texts so language detection sees
# English; all of them are stop words and vanish before scoring. Negators
# and boosters are deliberately absent so sentiment planting stays clean.
GLUE_WORDS = (
    "the", "a", "an", "to", "of", "in", "on", "for", "with", "at",
    "it", "is", "are", "this", "that", "and", "but",
)

SENTIMENT_WORDS = {
    "Positive": ("good", "great", "love", "happy", "win"),
    "Negative": ("bad", "terrible", "hate", "sad", "awful"),
}

DEMO_TOPIC_PROFILES: dict[str, dict[str, float]] = {
    "Technology": {
        "software": 3, "computer": 3, "phone": 2, "internet": 2, "code": 2,
        "robot": 1, "data": 2, "digital": 1, "gadget": 1, "app": 2,
    },
    "Politics": {
        "election": 3, "government": 3, "policy": 2, "senate": 1, "vote": 2,
        "campaign": 2, "minister": 1, "parliament": 1, "law": 2, "president": 2,
    },
    "Sports": {
        "goal": 3, "match": 3, "team": 2, "player": 2, "score": 2,
        "tournament": 1, "coach": 1, "league": 2, "championship": 1, "stadium": 1,
    },
    "Business": {
        "market": 3, "startup": 2, "investment": 2, "profit": 2, "finance": 2,
        "trade": 2, "economy": 2, "company": 2, "revenue": 1, "merger": 1,
    },
    "Entertainment": {
        "movie": 3, "music": 3, "concert": 2, "celebrity": 1, "film": 2,
        "album": 2, "show": 2, "drama": 1, "theater": 1, "festival": 1,
    },
}

DEMO_FILLER_VOCAB = (
    "today", "week", "people", "city", "friend", "time", "year",
    "thing", "story", "idea", "news", "event", "plan", "world", "day",
)

PLATFORM = Platform.FACEBOOK
EGO_ID = "ego"
WINDOW = (
    datetime(2024, 1, 1, tzinfo=timezone.utc),
    datetime(2025, 12, 31, 23, 59, 59, tzinfo=timezone.utc),
)
EGO_BUCKET = ("Technology", "Positive")  # the ego's dominant (category, sentiment)
NOISE_RATIO = 0.1  # share of documents drawn from a bucket other than their owner's
TOKENS_PER_DOC = (8, 16)
SEED_DOCS_PER_CATEGORY = 8
SEED_TOKENS_PER_DOC = (8, 14)


def _synthetic_text(rng: random.Random, profile: Mapping[str, float], sentiment: str) -> str:
    n_tokens = rng.randint(*TOKENS_PER_DOC)
    words: list[str] = []
    profile_words = sorted(profile)
    weights = [profile[w] for w in profile_words]
    n_profile = max(2, int(n_tokens * 0.4))
    words.extend(rng.choices(profile_words, weights=weights, k=n_profile))
    words.extend(rng.choices(GLUE_WORDS, k=max(2, int(n_tokens * 0.35))))
    n_fill = max(0, n_tokens - len(words))
    if n_fill:
        words.extend(rng.choices(DEMO_FILLER_VOCAB, k=n_fill))
    pool = SENTIMENT_WORDS[sentiment]
    words.extend(rng.choices(pool, k=1 + (1 if rng.random() < 0.3 else 0)))
    rng.shuffle(words)
    return " ".join(words) + "."


def generate_synthetic_corpus(
    seed: int,
    members: int,
    docs_per_member: int,
    *,
    ego_docs: int = 24,
    planted_members: int = 0,
    mega_members: int = 0,
    group_members: int = 0,
) -> Corpus:
    """Generate a deterministic corpus with a known (category, sentiment) plan.

    Every generated document carries a hidden ground-truth label in
    ``corpus.synthetic_truth``. ``planted_members`` members share the ego's
    dominant bucket EGO_BUCKET, the first ``mega_members`` of them get more
    than 5000 connections, and ``group_members`` of the remaining members
    are Groups (hence never eligible targets). The same seed always yields
    a byte-identical corpus.
    """
    if members < 1 or docs_per_member < 1 or ego_docs < 1:
        raise ConfigError("members, docs_per_member and ego_docs must all be >= 1")
    if planted_members + group_members > members:
        raise ConfigError("planted_members + group_members exceeds the member count")
    rng = random.Random(seed)
    other_buckets = [(c, s) for c in DEMO_TOPIC_PROFILES for s in SENTIMENT_WORDS
                     if (c, s) != EGO_BUCKET]

    member_ids = [f"m{i:03d}" for i in range(1, members + 1)]
    planted = tuple(member_ids[:planted_members])
    # Mega-connected members come from the planted set first so a planted
    # run exercises the default-influencer removal inside the ego bucket.
    mega_pool = list(planted) + [m for m in member_ids if m not in planted]
    mega = tuple(mega_pool[:mega_members])
    groups = set(member_ids[members - group_members:])
    kind_cycle = [MemberKind.FRIEND, MemberKind.FOLLOWER, MemberKind.FOLLOWING,
                  MemberKind.CONNECTION, MemberKind.PAGE]

    member_profiles: dict[str, tuple[str, str]] = {}
    for mid in member_ids:
        if mid in planted:
            member_profiles[mid] = EGO_BUCKET
        else:
            member_profiles[mid] = other_buckets[rng.randrange(len(other_buckets))]

    doc_labels: dict[str, tuple[str, str]] = {}
    datasets: dict[int, list[Document]] = {no: [] for no in CONTENT_DATASETS}
    counter = 0
    t0, t1 = WINDOW
    span = (t1 - t0).total_seconds()

    def next_time() -> datetime:
        frac = (counter % 997) / 997.0
        return t0 + timedelta(seconds=round(span * frac))

    def emit(owner: str, dataset_no: int, bucket: tuple[str, str],
             parent: str | None = None) -> Document:
        nonlocal counter
        counter += 1
        doc_id = f"d{dataset_no}-p{counter:05d}"
        text = _synthetic_text(rng, DEMO_TOPIC_PROFILES[bucket[0]], bucket[1])
        doc = Document(
            doc_id=doc_id, owner_id=owner, text=text, dataset_no=dataset_no,
            parent_doc_id=parent, time=next_time(),
        )
        datasets[dataset_no].append(doc)
        doc_labels[doc_id] = bucket
        return doc

    def pick_bucket(profile: tuple[str, str]) -> tuple[str, str]:
        if rng.random() < NOISE_RATIO:
            options = [b for b in other_buckets if b != profile]
            return options[rng.randrange(len(options))]
        return profile

    # Ego documents: mostly dataset 1, some messages, a few dependent rows.
    ego_parents: list[Document] = []
    for i in range(ego_docs):
        bucket = EGO_BUCKET if rng.random() >= NOISE_RATIO * 2 else \
            other_buckets[rng.randrange(len(other_buckets))]
        roll = rng.random()
        if roll < 0.6 or not ego_parents:
            ego_parents.append(emit(EGO_ID, 1, bucket))
        elif roll < 0.8:
            emit(EGO_ID, 4, bucket)
        else:
            parent = ego_parents[rng.randrange(len(ego_parents))]
            child_no = 2 if roll < 0.9 else 3
            emit(EGO_ID, child_no, doc_labels[parent.doc_id], parent=parent.doc_id)

    # Member documents.
    for mid in member_ids:
        profile = member_profiles[mid]
        own_posts: list[Document] = []
        for j in range(docs_per_member):
            roll = rng.random()
            if roll < 0.7 or not own_posts:
                own_posts.append(emit(mid, 6, pick_bucket(profile)))
            elif roll < 0.85:
                emit(mid, 9, pick_bucket(profile))
            else:
                parent = own_posts[rng.randrange(len(own_posts))]
                child_no = 7 if roll < 0.93 else 8
                emit(mid, child_no, doc_labels[parent.doc_id], parent=parent.doc_id)

    member_list: list[InteractedMember] = []
    for i, mid in enumerate(member_ids):
        if mid in groups:
            kind = MemberKind.GROUP
        else:
            kind = kind_cycle[i % len(kind_cycle)]
        if mid in mega:
            connections = rng.randint(6000, 20000)
        elif rng.random() < 0.15:
            connections = None
        else:
            connections = rng.randint(20, 4500)
        acts = {DATASET_ACTIVITY[d.dataset_no]
                for no in (6, 7, 8, 9) for d in datasets[no] if d.owner_id == mid}
        member_list.append(InteractedMember(
            member_id=mid, display_name=f"member{mid[1:]}", kind=kind,
            activity_types=frozenset(acts), connections_count=connections,
        ))

    truth = SyntheticTruth(
        doc_labels=doc_labels,
        member_profiles=member_profiles,
        planted=planted,
        mega=mega,
        ego_bucket=EGO_BUCKET,
    )
    return Corpus(datasets=datasets, members=member_list, synthetic_truth=truth)


def synthetic_seed_corpus(seed: int) -> list[tuple[str, str]]:
    """Labeled (text, category) rows for training the category classifier.

    Drawn from the same topic profiles the generator plants, with neutral
    glue only; no sentiment words, so the classifier never keys on them.
    """
    rng = random.Random(seed * 7919 + 13)
    rows: list[tuple[str, str]] = []
    for category, profile in DEMO_TOPIC_PROFILES.items():
        words = sorted(profile)
        weights = [profile[w] for w in words]
        for _ in range(SEED_DOCS_PER_CATEGORY):
            n = rng.randint(*SEED_TOKENS_PER_DOC)
            picked = rng.choices(words, weights=weights, k=max(3, int(n * 0.6)))
            picked += rng.choices(GLUE_WORDS, k=n - len(picked)) if n > len(picked) else []
            rng.shuffle(picked)
            rows.append((" ".join(picked) + ".", category))
    return rows


# --- word vectors ---------------------------------------------------------------

def write_embeddings(path: str | Path, vectors: Mapping[str, Sequence[float]]) -> None:
    """Write the text embedding format, bit-stable for fixed inputs."""
    words = sorted(vectors)
    if not words:
        raise ValueError("no vectors to write")
    dim = len(vectors[words[0]])
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(f"{len(words)} {dim}\n")
        for word in words:
            comps = " ".join(f"{x:.6f}" for x in vectors[word])
            fh.write(f"{word} {comps}\n")


def random_vectors(words: Iterable[str], dim: int, seed: int) -> dict[str, list[float]]:
    """Deterministic pseudo-random unit-scale vectors, for fixtures and synth runs."""
    rng = random.Random(seed)
    out: dict[str, list[float]] = {}
    for word in sorted(set(words)):
        out[word] = [rng.uniform(-1.0, 1.0) for _ in range(dim)]
    return out


# --- the synth command ------------------------------------------------------------

def synth(
    out: Path,
    *,
    seed: int,
    members: int,
    docs_per_member: int,
    ego_docs: int,
    planted: int,
    mega: int,
    groups: int,
    dim: int,
    extra_vocab: int,
) -> SyntheticTruth:
    """Write a corpus, its embeddings, a labelled seed corpus and a config to ``out``."""
    corpus = generate_synthetic_corpus(
        seed=seed,
        members=members,
        docs_per_member=docs_per_member,
        ego_docs=ego_docs,
        planted_members=planted,
        mega_members=mega,
        group_members=groups,
    )
    write_corpus_csvs(corpus, out)

    words = set(GLUE_WORDS) | set(DEMO_FILLER_VOCAB)
    for group in (*SENTIMENT_WORDS.values(), *DEMO_TOPIC_PROFILES.values()):
        words |= set(group)
    if extra_vocab > len(words):
        words |= {f"w{i:05d}" for i in range(extra_vocab - len(words))}
    write_embeddings(out / "embeddings.txt", random_vectors(sorted(words), dim, seed))

    with (out / "seed_categories.csv").open("w", encoding="utf-8", newline="") as fh:
        fh.write("text,category\n")
        for text, category in synthetic_seed_corpus(seed):
            fh.write(f"{text},{category}\n")

    # Ask for about as many targets as were planted; bucket rankings in a
    # synthetic corpus only hold members with documents in that bucket.
    n_it = min(50, planted) if planted else min(50, members - groups)
    config = {
        "platform": PLATFORM.value,
        "ego_id": EGO_ID,
        "datasets": {str(no): f"dataset_{no}.csv" for no in CONTENT_DATASETS}
        | {"5": "members.csv"},
        "window": {
            "since": format_timestamp(WINDOW[0]),
            "until": format_timestamp(WINDOW[1]),
        },
        "resources": {"embeddings": "embeddings.txt", "labeled_seed": "seed_categories.csv"},
        "bucket": "all",
        "n_it": n_it,
        "threshold": 5000,
        "normalization": "raw",
        "allow_small": True,
        "out_dir": "out",
    }
    (out / "config.json").write_text(
        json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return corpus.synthetic_truth
