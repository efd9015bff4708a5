"""Nine-dataset activity data model and CSV ingestion.

An ego user's collected social activity splits into nine datasets per
platform: the ego's own posts (1), share-texts (2), comments (3) and
messages (4); the list of interacted network members (5); and the members'
counterparts (6-9). Datasets 2, 3, 7 and 8 are dependent: each of their
rows references a parent post in dataset 1 or 6.

Both CSV loaders read their rows through one reader, which checks the
header and each row's cell count and numbers the rows. All loading is
single-threaded per file. Loaded documents and members are frozen and safe
to share across threads.
"""

from __future__ import annotations

import csv
import logging
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import BadRowError, DataError, utf8_text

log = logging.getLogger(__name__)

ACTIVITY_HEADER = [
    "post_id", "content", "user_name", "user_id",
    "react_count", "share_count", "language", "time", "parent_post_id",
]
MEMBER_HEADER = ["member_id", "display_name", "kind", "activity_types", "connections_count"]

EGO_DATASETS = (1, 2, 3, 4)
CONTENT_DATASETS = EGO_DATASETS + (6, 7, 8, 9)
# The dependent datasets, each with the dataset its parent posts are in.
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


class Document(NamedTuple):
    """One piece of activity text with provenance, from CSV row to score.

    Each stage fills its own fields and copies the rest: the CSV loader
    sets ``text``, ``parent_doc_id`` and ``time``; primary preprocessing
    (``textprep``) replaces ``text`` with the clean text, sets ``mentions``
    and ``flagged_non_english``, and clears ``time``, which the window read last;
    the Document-Set (``lexproc``) sets ``tokens``. Rank rebuilds the
    documents it ranks from checked bundle records, with ``tokens`` alone.
    ``parent_doc_id`` is set exactly for the dependent datasets 2, 3, 7 and
    8 and names the dataset-1 / dataset-6 post the row hangs off.

    A tokenized document whose token list is empty is inert: it is kept
    for bookkeeping but never labelled or scored, nor counts towards idf.
    """

    doc_id: str
    owner_id: str
    dataset_no: int
    tokens: tuple[str, ...] = ()
    text: str = ""
    parent_doc_id: str | None = None
    time: datetime | None = None
    mentions: tuple[str, ...] = ()
    flagged_non_english: bool = False

    @property
    def inert(self) -> bool:
        return not self.tokens


class InteractedMember(NamedTuple):
    """An alter from dataset 5: who they are and how they touch the ego."""

    member_id: str
    display_name: str
    kind: MemberKind
    activity_types: frozenset[ActivityType]
    connections_count: int | None = None


# --- timestamps ---------------------------------------------------------------

def parse_timestamp(value: str) -> datetime:
    """Parse an ISO-8601 timestamp; naive values are taken as UTC.
    Raises ValueError for anything else."""
    text = value.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    parsed = datetime.fromisoformat(text)
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=timezone.utc)
    return parsed.astimezone(timezone.utc)


# --- activity CSV loading -------------------------------------------------------

def _rows(path: Path, header: Sequence[str]) -> Iterator[tuple[int, list[str]]]:
    """(row number, cells) of each non-blank data row of a ``utf-8-sig`` CSV,
    after checking that its header is exactly ``header`` and that the row
    holds one cell per column. The header is row 1."""
    with path.open(newline="", encoding="utf-8-sig") as fh, utf8_text(path):
        rows = enumerate(csv.reader(fh), start=1)
        row_no = 0  # the last row read; a reader error is in the next one
        try:
            row_no, got = next(rows, (1, None))
            if got is None:
                raise DataError(f"empty file (no header row): {path}")
            got = [h.strip() for h in got]
            for name in header:
                if name not in got:
                    raise DataError(f"missing required column '{name}' in {path}")
            if got != list(header):
                raise BadRowError(path, 1, f"header order mismatch: expected {','.join(header)}")
            for row_no, row in rows:
                if not any(map(str.strip, row)):
                    continue
                if len(row) != len(header):
                    raise BadRowError(path, row_no,
                                      f"expected {len(header)} columns, got {len(row)}")
                yield row_no, row
        except csv.Error as exc:  # a cell longer than csv.field_size_limit()
            raise BadRowError(path, row_no + 1, str(exc)) from None


def _parse_count(value: str, path: Path, row_no: int, name: str) -> int:
    try:
        n = int(value)
    except ValueError:
        raise BadRowError(path, row_no, f"{name} is not an integer: {value!r}") from None
    if n < 0:
        raise BadRowError(path, row_no, f"{name} is negative: {n}")
    return n


def load_activity_csv(
    path: str | Path,
    dataset_no: int,
    owner_id: str | None = None,
) -> list[Document]:
    """Load one activity CSV into a list of Documents, in file order.

    ``owner_id``, when given, attributes every document in the file to that
    user (a single-user activity log, as for the ego-side datasets 1-4).
    Without it each row's ``user_id`` is the owner, so member-side datasets
    6-9 may live in one multi-owner file. Every valid row is kept; ingest
    applies the time window.
    """
    path = Path(path)
    parent_dataset = PARENT_DATASET.get(dataset_no)
    dependent = parent_dataset is not None

    docs: list[Document] = []
    seen_post_ids: set[str] = set()
    for row_no, (post_id, content, _, user_id, reacts, shares, _, time_raw,
                 parent_raw) in _rows(path, ACTIVITY_HEADER):
        post_id = post_id.strip()
        if not post_id:
            raise BadRowError(path, row_no, "empty post_id")
        if post_id in seen_post_ids:
            raise BadRowError(path, row_no, f"duplicate post_id {post_id!r}")
        seen_post_ids.add(post_id)
        user_id = user_id.strip()
        if not user_id:
            raise BadRowError(path, row_no, "empty user_id")
        _parse_count(reacts, path, row_no, "react_count")
        _parse_count(shares, path, row_no, "share_count")
        try:
            time = parse_timestamp(time_raw)
        except ValueError:
            raise BadRowError(path, row_no, f"unparseable timestamp {time_raw!r}") from None
        parent_raw = parent_raw.strip()
        if dependent and not parent_raw:
            raise BadRowError(path, row_no, f"dataset {dataset_no} requires parent_post_id")
        if not dependent and parent_raw:
            raise BadRowError(
                path, row_no, f"dataset {dataset_no} must leave parent_post_id empty")
        docs.append(Document(
            doc_id=f"d{dataset_no}-{post_id}",
            owner_id=owner_id if owner_id is not None else user_id,
            text=content,
            dataset_no=dataset_no,
            parent_doc_id=f"d{parent_dataset}-{parent_raw}" if dependent else None,
            time=time,
        ))
    return docs


def load_members_csv(path: str | Path) -> list[InteractedMember]:
    """Load dataset 5. Rows may repeat a member (one row per interaction);
    duplicates are merged with activity types unioned."""
    path = Path(path)
    merged: dict[str, InteractedMember] = {}
    for row_no, (member_id, display_name, kind_raw, activities,
                 conn_raw) in _rows(path, MEMBER_HEADER):
        member_id = member_id.strip()
        if not member_id:
            raise BadRowError(path, row_no, "empty member_id")
        try:
            kind = MemberKind(kind_raw.strip())
        except ValueError:
            raise BadRowError(path, row_no, f"unknown member kind {kind_raw!r}") from None
        try:
            acts = frozenset(ActivityType(a.strip()) for a in activities.split(";") if a.strip())
        except ValueError:
            raise BadRowError(path, row_no, f"unknown activity in {activities!r}") from None
        if not acts:
            raise BadRowError(path, row_no, "activity_types must name at least one activity")
        conn_raw = conn_raw.strip()
        connections = (_parse_count(conn_raw, path, row_no, "connections_count")
                       if conn_raw else None)
        member = InteractedMember(member_id, display_name.strip(), kind, acts, connections)
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


def build_interaction_list(
    members: Iterable[InteractedMember], mentions: Iterable[str] = ()
) -> list[InteractedMember]:
    """Return the dataset-5 member list with harvested mentions merged in.

    ``members`` holds one entry per member id, as ``load_members_csv``
    returns it. A mention matching an existing member id or display name
    adds a Tag activity to that member; an unmatched mention becomes a new
    member of kind Connection. The result is sorted by member id and
    identical for any permutation of the inputs.
    """
    merged = {m.member_id: m for m in members}
    if not merged:
        log.warning("dataset 5 is empty: no interacted members")

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
