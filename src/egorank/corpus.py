"""Nine-dataset activity data model, CSV ingestion, and synthetic corpora.

An ego user's collected social activity splits into nine datasets per
platform: the ego's own posts (1), share-texts (2), comments (3) and
messages (4); the list of interacted network members (5); and the members'
counterparts (6-9). Datasets 2, 3, 7 and 8 are dependent: each of their
rows references a parent post in dataset 1 or 6.

All loading is single-threaded per file. A loaded :class:`Corpus` is
immutable in practice and safe to share across threads.
"""

from __future__ import annotations

import csv
import json
import logging
import random
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import (
    BadParamsError,
    BadRowError,
    BadTimestampError,
    EmptyFileError,
    MissingColumnError,
)

log = logging.getLogger(__name__)

ACTIVITY_HEADER = [
    "post_id", "content", "user_name", "user_id",
    "react_count", "share_count", "language", "time", "parent_post_id",
]
MEMBER_HEADER = ["member_id", "display_name", "kind", "activity_types", "connections_count"]

EGO_DATASETS = (1, 2, 3, 4)
MEMBER_DATASETS = (6, 7, 8, 9)
CONTENT_DATASETS = EGO_DATASETS + MEMBER_DATASETS
DEPENDENT_DATASETS = frozenset({2, 3, 7, 8})
INDEPENDENT_DATASETS = frozenset({1, 4, 6, 9})
PARENT_DATASET = {2: 1, 3: 1, 7: 6, 8: 6}


class Platform(str, Enum):
    FACEBOOK = "Facebook"
    TWITTER = "Twitter"
    LINKEDIN = "LinkedIn"


class ActivityType(str, Enum):
    POST = "Post"
    REACT = "React"
    COMMENT = "Comment"
    TAG = "Tag"
    SHARE = "Share"
    MESSAGE = "Message"


class MemberKind(str, Enum):
    FRIEND = "Friend"
    FOLLOWER = "Follower"
    FOLLOWING = "Following"
    CONNECTION = "Connection"
    PAGE = "Page"
    GROUP = "Group"


# Activity carried by each content dataset; the CSV schema has no activity
# column, so the dataset number decides it.
DATASET_ACTIVITY = {
    1: ActivityType.POST, 2: ActivityType.SHARE, 3: ActivityType.COMMENT,
    4: ActivityType.MESSAGE, 6: ActivityType.POST, 7: ActivityType.SHARE,
    8: ActivityType.COMMENT, 9: ActivityType.MESSAGE,
}


@dataclass(frozen=True)
class Document:
    """One piece of activity text with provenance.

    ``parent_doc_id`` is set exactly for the dependent datasets 2, 3, 7
    and 8 and names the dataset-1 / dataset-6 post the row hangs off.
    """

    doc_id: str
    owner_id: str
    text: str
    dataset_no: int
    activity_type: ActivityType
    parent_doc_id: str | None
    time: datetime

    def __post_init__(self) -> None:
        if not 1 <= self.dataset_no <= 9:
            raise ValueError(f"dataset_no must be in 1..9, got {self.dataset_no}")
        if (self.parent_doc_id is not None) != (self.dataset_no in DEPENDENT_DATASETS):
            raise ValueError(
                f"parent_doc_id must be set iff dataset_no in {sorted(DEPENDENT_DATASETS)} "
                f"(dataset {self.dataset_no}, parent {self.parent_doc_id!r})"
            )


@dataclass(frozen=True)
class InteractedMember:
    """An alter from dataset 5: who they are and how they touch the ego."""

    member_id: str
    display_name: str
    kind: MemberKind
    activity_types: frozenset[ActivityType]
    connections_count: int | None = None


@dataclass
class SyntheticTruth:
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

    @classmethod
    def from_dict(cls, data: Mapping) -> "SyntheticTruth":
        return cls(
            doc_labels={k: (v[0], v[1]) for k, v in data["doc_labels"].items()},
            member_profiles={k: (v[0], v[1]) for k, v in data["member_profiles"].items()},
            planted=tuple(data["planted"]),
            mega=tuple(data["mega"]),
            ego_bucket=(data["ego_bucket"][0], data["ego_bucket"][1]),
        )


@dataclass
class Corpus:
    """All loaded activity of one ego on one platform within a time window."""

    platform: Platform
    ego_id: str
    datasets: dict[int, list[Document]]
    members: list[InteractedMember]
    window: tuple[datetime, datetime]
    synthetic_truth: SyntheticTruth | None = None

    def all_documents(self) -> list[Document]:
        out: list[Document] = []
        for no in CONTENT_DATASETS:
            out.extend(self.datasets.get(no, []))
        return out


# --- timestamps ---------------------------------------------------------------

def parse_timestamp(value: str, *, row: int | None = None) -> datetime:
    """Parse an ISO-8601 timestamp; naive values are taken as UTC."""
    text = value.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        parsed = datetime.fromisoformat(text)
    except ValueError:
        raise BadTimestampError(row if row is not None else -1, value) from None
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=timezone.utc)
    return parsed.astimezone(timezone.utc)


def format_timestamp(value: datetime) -> str:
    return value.astimezone(timezone.utc).isoformat()


# --- activity CSV loading -------------------------------------------------------

def _check_header(header: Sequence[str] | None, expected: Sequence[str], path: str) -> None:
    if header is None:
        raise EmptyFileError(path)
    got = [h.strip() for h in header]
    for name in expected:
        if name not in got:
            raise MissingColumnError(name, path)
    if got != list(expected):
        raise MissingColumnError(
            f"header order mismatch: expected {','.join(expected)}", path
        )


def _parse_count(value: str, row_no: int, name: str) -> int:
    try:
        n = int(value)
    except ValueError:
        raise BadRowError(row_no, f"{name} is not an integer: {value!r}") from None
    if n < 0:
        raise BadRowError(row_no, f"{name} is negative: {n}")
    return n


def load_activity_csv(
    path: str | Path,
    dataset_no: int,
    owner_id: str | None = None,
    *,
    window: tuple[datetime, datetime] | None = None,
) -> list[Document]:
    """Load one activity CSV into a list of Documents, in file order.

    ``owner_id``, when given, attributes every document in the file to that
    user (a single-user activity log, as for the ego-side datasets 1-4).
    Without it each row's ``user_id`` is the owner, so member-side datasets
    6-9 may live in one multi-owner file. Rows timestamped outside
    ``window`` are dropped.
    """
    if dataset_no not in CONTENT_DATASETS:
        raise BadParamsError(f"dataset_no must be one of {CONTENT_DATASETS}, got {dataset_no}")
    path = Path(path)
    dependent = dataset_no in DEPENDENT_DATASETS
    parent_dataset = PARENT_DATASET.get(dataset_no)

    docs: list[Document] = []
    seen_post_ids: set[str] = set()
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        _check_header(header, ACTIVITY_HEADER, str(path))
        for row_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(ACTIVITY_HEADER):
                raise BadRowError(row_no, f"expected {len(ACTIVITY_HEADER)} columns, got {len(row)}")
            rec = dict(zip(ACTIVITY_HEADER, row))
            post_id = rec["post_id"].strip()
            if not post_id:
                raise BadRowError(row_no, "empty post_id")
            if post_id in seen_post_ids:
                raise BadRowError(row_no, f"duplicate post_id {post_id!r}")
            seen_post_ids.add(post_id)
            user_id = rec["user_id"].strip()
            if not user_id:
                raise BadRowError(row_no, "empty user_id")
            _parse_count(rec["react_count"], row_no, "react_count")
            _parse_count(rec["share_count"], row_no, "share_count")
            time = parse_timestamp(rec["time"], row=row_no)
            parent_raw = rec["parent_post_id"].strip()
            if dependent and not parent_raw:
                raise BadRowError(row_no, f"dataset {dataset_no} requires parent_post_id")
            if not dependent and parent_raw:
                raise BadRowError(row_no, f"dataset {dataset_no} must leave parent_post_id empty")
            if window is not None and not (window[0] <= time <= window[1]):
                continue
            docs.append(Document(
                doc_id=f"d{dataset_no}-{post_id}",
                owner_id=owner_id if owner_id is not None else user_id,
                text=rec["content"],
                dataset_no=dataset_no,
                activity_type=DATASET_ACTIVITY[dataset_no],
                parent_doc_id=f"d{parent_dataset}-{parent_raw}" if dependent else None,
                time=time,
            ))
    return docs


def load_members_csv(path: str | Path) -> list[InteractedMember]:
    """Load dataset 5. Rows may repeat a member (one row per interaction);
    duplicates are merged with activity types unioned."""
    path = Path(path)
    merged: dict[str, InteractedMember] = {}
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        _check_header(header, MEMBER_HEADER, str(path))
        for row_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(MEMBER_HEADER):
                raise BadRowError(row_no, f"expected {len(MEMBER_HEADER)} columns, got {len(row)}")
            rec = dict(zip(MEMBER_HEADER, row))
            member_id = rec["member_id"].strip()
            if not member_id:
                raise BadRowError(row_no, "empty member_id")
            try:
                kind = MemberKind(rec["kind"].strip())
            except ValueError:
                raise BadRowError(row_no, f"unknown member kind {rec['kind']!r}") from None
            try:
                acts = frozenset(
                    ActivityType(a.strip()) for a in rec["activity_types"].split(";") if a.strip()
                )
            except ValueError:
                raise BadRowError(row_no, f"unknown activity in {rec['activity_types']!r}") from None
            if not acts:
                raise BadRowError(row_no, "activity_types must name at least one activity")
            conn_raw = rec["connections_count"].strip()
            connections = _parse_count(conn_raw, row_no, "connections_count") if conn_raw else None
            member = InteractedMember(member_id, rec["display_name"].strip(), kind, acts, connections)
            if member_id in merged:
                merged[member_id] = _merge_members(merged[member_id], member)
            else:
                merged[member_id] = member
    return [merged[mid] for mid in sorted(merged)]


def _merge_members(a: InteractedMember, b: InteractedMember) -> InteractedMember:
    # Order-insensitive merge: union activities, smallest kind by enum order,
    # lexicographically-first non-empty name, largest known connection count.
    kinds = sorted((a.kind, b.kind), key=lambda k: list(MemberKind).index(k))
    names = sorted(n for n in (a.display_name, b.display_name) if n)
    counts = [c for c in (a.connections_count, b.connections_count) if c is not None]
    return InteractedMember(
        member_id=a.member_id,
        display_name=names[0] if names else "",
        kind=kinds[0],
        activity_types=a.activity_types | b.activity_types,
        connections_count=max(counts) if counts else None,
    )


def build_interaction_list(corpus: Corpus, mentions: Iterable[str] = ()) -> list[InteractedMember]:
    """Return the deduplicated dataset-5 member list with harvested mentions merged in.

    A mention matching an existing member id or display name adds a Tag
    activity to that member; an unmatched mention becomes a new member of
    kind Connection. The result is sorted by member id and identical for
    any permutation of the inputs.
    """
    if not corpus.members:
        log.warning("dataset 5 is empty: no interacted members")
    merged: dict[str, InteractedMember] = {}
    for member in corpus.members:
        if member.member_id in merged:
            merged[member.member_id] = _merge_members(merged[member.member_id], member)
        else:
            merged[member.member_id] = member

    by_name = {m.display_name: mid for mid, m in sorted(merged.items()) if m.display_name}
    for mention in sorted(set(mentions)):
        target = mention if mention in merged else by_name.get(mention)
        if target is not None:
            m = merged[target]
            merged[target] = InteractedMember(
                m.member_id, m.display_name, m.kind,
                m.activity_types | {ActivityType.TAG}, m.connections_count,
            )
        else:
            merged[mention] = InteractedMember(
                member_id=mention,
                display_name=mention,
                kind=MemberKind.CONNECTION,
                activity_types=frozenset({ActivityType.TAG}),
                connections_count=None,
            )
    return [merged[mid] for mid in sorted(merged)]


# --- serialization -------------------------------------------------------------

def _member_to_dict(m: InteractedMember) -> dict:
    return {
        "member_id": m.member_id,
        "display_name": m.display_name,
        "kind": m.kind.value,
        "activity_types": sorted(a.value for a in m.activity_types),
        "connections_count": m.connections_count,
    }


def _member_from_dict(data: Mapping) -> InteractedMember:
    return InteractedMember(
        member_id=data["member_id"],
        display_name=data["display_name"],
        kind=MemberKind(data["kind"]),
        activity_types=frozenset(ActivityType(a) for a in data["activity_types"]),
        connections_count=data["connections_count"],
    )


def write_corpus_csvs(corpus: Corpus, directory: str | Path) -> None:
    """Serialize a corpus as one CSV per dataset plus a metadata sidecar.

    The layout round-trips through :func:`read_corpus_csvs` bit-for-bit.
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
        "platform": corpus.platform.value,
        "ego_id": corpus.ego_id,
        "window": [format_timestamp(corpus.window[0]), format_timestamp(corpus.window[1])],
        "synthetic_truth": corpus.synthetic_truth.to_dict() if corpus.synthetic_truth else None,
    }
    (directory / "corpus.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def read_corpus_csvs(directory: str | Path) -> Corpus:
    """Load a corpus directory written by :func:`write_corpus_csvs`."""
    directory = Path(directory)
    meta = json.loads((directory / "corpus.json").read_text(encoding="utf-8"))
    window = (parse_timestamp(meta["window"][0]), parse_timestamp(meta["window"][1]))
    ego_id = meta["ego_id"]
    datasets: dict[int, list[Document]] = {}
    for no in CONTENT_DATASETS:
        owner = ego_id if no in EGO_DATASETS else None
        datasets[no] = load_activity_csv(directory / f"dataset_{no}.csv", no, owner, window=window)
    truth = meta.get("synthetic_truth")
    return Corpus(
        platform=Platform(meta["platform"]),
        ego_id=ego_id,
        datasets=datasets,
        members=load_members_csv(directory / "members.csv"),
        window=window,
        synthetic_truth=SyntheticTruth.from_dict(truth) if truth else None,
    )


# --- synthetic corpora ----------------------------------------------------------

# Function words mixed into generated texts so language detection sees
# English; all of them are stop words and vanish before scoring. Negators
# and boosters are deliberately absent so sentiment planting stays clean.
GLUE_WORDS = (
    "the", "a", "an", "to", "of", "in", "on", "for", "with", "at",
    "it", "is", "are", "this", "that", "and", "but",
)

POSITIVE_SEED_WORDS = ("good", "great", "love", "happy", "win")
NEGATIVE_SEED_WORDS = ("bad", "terrible", "hate", "sad", "awful")

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

_DEFAULT_WINDOW = (
    datetime(2024, 1, 1, tzinfo=timezone.utc),
    datetime(2025, 12, 31, 23, 59, 59, tzinfo=timezone.utc),
)


def _synthetic_text(rng: random.Random, profile: Mapping[str, float],
                    sentiment: str, vocab: Sequence[str],
                    sentiment_words: Mapping[str, Sequence[str]],
                    tokens_per_doc: tuple[int, int]) -> str:
    n_tokens = rng.randint(*tokens_per_doc)
    words: list[str] = []
    profile_words = sorted(profile)
    weights = [profile[w] for w in profile_words]
    n_profile = max(2, int(n_tokens * 0.4))
    words.extend(rng.choices(profile_words, weights=weights, k=n_profile))
    words.extend(rng.choices(GLUE_WORDS, k=max(2, int(n_tokens * 0.35))))
    n_fill = max(0, n_tokens - len(words))
    if n_fill and vocab:
        words.extend(rng.choices(vocab, k=n_fill))
    pool = sentiment_words[sentiment]
    words.extend(rng.choices(pool, k=1 + (1 if rng.random() < 0.3 else 0)))
    rng.shuffle(words)
    return " ".join(words) + "."


def generate_synthetic_corpus(
    seed: int,
    members: int,
    docs_per_member: int,
    vocab: Sequence[str] | None = None,
    topic_profiles: Mapping[str, Mapping[str, float]] | None = None,
    *,
    platform: Platform = Platform.FACEBOOK,
    ego_id: str = "ego",
    ego_docs: int = 24,
    ego_bucket: tuple[str, str] | None = None,
    planted_members: int = 0,
    mega_members: int = 0,
    group_members: int = 0,
    noise_ratio: float = 0.1,
    tokens_per_doc: tuple[int, int] = (8, 16),
    sentiment_words: Mapping[str, Sequence[str]] | None = None,
    window: tuple[datetime, datetime] = _DEFAULT_WINDOW,
) -> Corpus:
    """Generate a deterministic corpus with a known (category, sentiment) plan.

    Every generated document carries a hidden ground-truth label in
    ``corpus.synthetic_truth``. ``planted_members`` members share the ego's
    dominant bucket, the first ``mega_members`` of them get more than 5000
    connections, and ``group_members`` of the remaining members are Groups
    (hence never eligible targets). The same seed always yields a
    byte-identical corpus.
    """
    if members < 1 or docs_per_member < 1 or ego_docs < 1:
        raise BadParamsError("members, docs_per_member and ego_docs must all be >= 1")
    vocab = tuple(vocab) if vocab is not None else DEMO_FILLER_VOCAB
    if not vocab:
        raise BadParamsError("vocab must be nonempty")
    profiles = dict(topic_profiles) if topic_profiles is not None else DEMO_TOPIC_PROFILES
    if not profiles:
        raise BadParamsError("topic_profiles must be nonempty")
    if planted_members + group_members > members:
        raise BadParamsError("planted_members + group_members exceeds the member count")
    senti_words = dict(sentiment_words) if sentiment_words is not None else {
        "Positive": POSITIVE_SEED_WORDS, "Negative": NEGATIVE_SEED_WORDS,
    }
    sentiments = tuple(senti_words)
    categories = list(profiles)
    rng = random.Random(seed)

    ego_profile = ego_bucket if ego_bucket is not None else (categories[0], sentiments[0])
    if ego_profile[0] not in profiles or ego_profile[1] not in senti_words:
        raise BadParamsError(f"ego_bucket {ego_profile} not covered by profiles/sentiments")
    all_buckets = [(c, s) for c in categories for s in sentiments]
    other_buckets = [b for b in all_buckets if b != ego_profile]

    member_ids = [f"m{i:03d}" for i in range(1, members + 1)]
    planted = tuple(member_ids[:planted_members])
    # Mega-connected members come from the planted set first so a planted
    # run exercises the default-influencer removal inside the ego bucket.
    mega_pool = list(planted) + [m for m in member_ids if m not in planted]
    mega = tuple(mega_pool[:mega_members])
    groups = set(member_ids[members - group_members:]) if group_members else set()
    kind_cycle = [MemberKind.FRIEND, MemberKind.FOLLOWER, MemberKind.FOLLOWING,
                  MemberKind.CONNECTION, MemberKind.PAGE]

    member_profiles: dict[str, tuple[str, str]] = {}
    for mid in member_ids:
        if mid in planted:
            member_profiles[mid] = ego_profile
        else:
            member_profiles[mid] = other_buckets[rng.randrange(len(other_buckets))]

    doc_labels: dict[str, tuple[str, str]] = {}
    datasets: dict[int, list[Document]] = {no: [] for no in CONTENT_DATASETS}
    counter = 0
    t0, t1 = window
    span = (t1 - t0).total_seconds()

    def next_time() -> datetime:
        frac = (counter % 997) / 997.0
        return t0 + timedelta(seconds=round(span * frac))

    def emit(owner: str, dataset_no: int, bucket: tuple[str, str],
             parent: str | None = None) -> Document:
        nonlocal counter
        counter += 1
        doc_id = f"d{dataset_no}-p{counter:05d}"
        text = _synthetic_text(rng, profiles[bucket[0]], bucket[1], vocab,
                               senti_words, tokens_per_doc)
        doc = Document(
            doc_id=doc_id, owner_id=owner, text=text, dataset_no=dataset_no,
            activity_type=DATASET_ACTIVITY[dataset_no], parent_doc_id=parent,
            time=next_time(),
        )
        datasets[dataset_no].append(doc)
        doc_labels[doc_id] = bucket
        return doc

    def pick_bucket(profile: tuple[str, str]) -> tuple[str, str]:
        if rng.random() < noise_ratio:
            options = [b for b in other_buckets if b != profile]
            if options:
                return options[rng.randrange(len(options))]
        return profile

    # Ego documents: mostly dataset 1, some messages, a few dependent rows.
    ego_parents: list[Document] = []
    for i in range(ego_docs):
        bucket = ego_profile if rng.random() >= noise_ratio * 2 else \
            other_buckets[rng.randrange(len(other_buckets))]
        roll = rng.random()
        if roll < 0.6 or not ego_parents:
            ego_parents.append(emit(ego_id, 1, bucket))
        elif roll < 0.8:
            emit(ego_id, 4, bucket)
        else:
            parent = ego_parents[rng.randrange(len(ego_parents))]
            child_no = 2 if roll < 0.9 else 3
            emit(ego_id, child_no, doc_labels[parent.doc_id], parent=parent.doc_id)

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
        acts = {DATASET_ACTIVITY[d.dataset_no] for d in datasets[6] if d.owner_id == mid}
        acts |= {DATASET_ACTIVITY[d.dataset_no]
                 for no in (7, 8, 9) for d in datasets[no] if d.owner_id == mid}
        if not acts:
            acts = {ActivityType.POST}
        member_list.append(InteractedMember(
            member_id=mid, display_name=f"member{mid[1:]}", kind=kind,
            activity_types=frozenset(acts), connections_count=connections,
        ))

    truth = SyntheticTruth(
        doc_labels=doc_labels,
        member_profiles=member_profiles,
        planted=planted,
        mega=mega,
        ego_bucket=ego_profile,
    )
    return Corpus(platform=platform, ego_id=ego_id, datasets=datasets,
                  members=member_list, window=window, synthetic_truth=truth)


def synthetic_seed_corpus(
    seed: int,
    topic_profiles: Mapping[str, Mapping[str, float]] | None = None,
    docs_per_category: int = 8,
    tokens_per_doc: tuple[int, int] = (8, 14),
) -> list[tuple[str, str]]:
    """Labeled (text, category) rows for training the category classifier.

    Drawn from the same topic profiles the generator plants, with neutral
    glue only; no sentiment words, so the classifier never keys on them.
    """
    profiles = dict(topic_profiles) if topic_profiles is not None else DEMO_TOPIC_PROFILES
    rng = random.Random(seed * 7919 + 13)
    rows: list[tuple[str, str]] = []
    for category in profiles:
        words = sorted(profiles[category])
        weights = [profiles[category][w] for w in words]
        for _ in range(docs_per_category):
            n = rng.randint(*tokens_per_doc)
            picked = rng.choices(words, weights=weights, k=max(3, int(n * 0.6)))
            picked += rng.choices(GLUE_WORDS, k=n - len(picked)) if n > len(picked) else []
            rng.shuffle(picked)
            rows.append((" ".join(picked) + ".", category))
    return rows
