"""Eligibility filtering and top-most influenceable target selection.

Groups can never be influenceable targets (joining them is gated by an
admin, not by influence), so ``filter_eligible`` drops them: ingest
buckets only eligible members' documents, and ``pipeline.run_targets``
bounds N_it by the eligible network's size. From a bucket's ranking the
first N_it members are the selected targets; those with more than 5000
connections already carry huge default influence and are removed, leaving
N_it - D_it effective targets. Nothing is re-filled after removal.
"""

from __future__ import annotations

import logging
from typing import Iterable, NamedTuple

from .classify import Bucket
from .corpus import InteractedMember, MemberKind
from .errors import RankingTooSmallError
from .recommend import MemberRanking

log = logging.getLogger(__name__)


class TargetSelection(NamedTuple):
    """Output of the selection stage for one bucket."""

    bucket: Bucket
    selected: list[str]
    defaults_removed: list[str]
    effective: list[str]

    @property
    def n_it(self) -> int:
        return len(self.selected)

    @property
    def d_it(self) -> int:
        return len(self.defaults_removed)


def filter_eligible(members: Iterable[InteractedMember]) -> list[InteractedMember]:
    """Keep friends, followers, followings, connections and pages; drop groups."""
    return [m for m in members if m.kind is not MemberKind.GROUP]


def top_most(
    ranking: MemberRanking,
    n_it: int,
    members: Iterable[InteractedMember],
    *,
    threshold: int,
) -> TargetSelection:
    """Select the first ``n_it`` members of the ranking, then split off the
    default influencers: those with more than ``threshold`` connections.

    An unknown connection count is never treated as above the threshold;
    removal requires evidence. Raises RankingTooSmallError when the
    ranking holds fewer than ``n_it`` members, and warns when a tie on
    score across the N_it cut leaves the choice to member id.
    """
    if len(ranking.entries) < n_it:
        raise RankingTooSmallError(ranking.bucket, len(ranking.entries), n_it)
    cut = ranking.entries[n_it - 1:n_it + 1]
    if len(cut) == 2 and cut[0].score == cut[1].score:
        log.warning("bucket %s: members ranked %d and %d tie on score %r; selection across "
                    "the cut falls to member id", ranking.bucket, n_it, n_it + 1, cut[0].score)
    selected = [entry.member_id for entry in ranking.entries[:n_it]]
    connections = {m.member_id: m.connections_count for m in members}
    # An unknown count reads as 0, which is below every threshold (>= 1).
    removed = [m for m in selected if (connections.get(m) or 0) > threshold]
    is_removed = set(removed)
    unknown = sum(1 for m in selected if m in connections and connections[m] is None)
    if unknown:
        log.warning("%d of %d selected members have unknown connections_count; retained",
                    unknown, len(selected))
    return TargetSelection(
        bucket=ranking.bucket,
        selected=selected,
        defaults_removed=removed,
        effective=[m for m in selected if m not in is_removed],
    )
