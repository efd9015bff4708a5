"""Eligibility filtering and top-most influenceable target selection.

Groups can never be influenceable targets (joining them is gated by an
admin, not by influence), so ``filter_eligible`` drops them: ingest
buckets only eligible members' documents, and selection bounds N_it by
the eligible network's size. From a bucket's ranking the first N_it
members are the selected targets; those with more than 5000 connections
already carry huge default influence and are removed, leaving N_it - D_it
effective targets. Nothing is re-filled after removal.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Sequence

from .classify import Bucket
from .corpus import InteractedMember, MemberKind
from .errors import ConfigError, RankingTooSmallError
from .recommend import MemberRanking

log = logging.getLogger(__name__)

MIN_N_IT = 50


@dataclass
class TargetSelection:
    """Output of the selection stage for one bucket."""

    bucket: Bucket
    n_it: int
    selected: list[str]
    defaults_removed: list[str]
    effective: list[str]

    @property
    def d_it(self) -> int:
        return len(self.defaults_removed)

    def validate(self) -> None:
        removed = set(self.defaults_removed)
        if len(self.selected) != self.n_it:
            raise AssertionError(f"|selected| = {len(self.selected)} != n_it = {self.n_it}")
        if len(self.effective) != self.n_it - self.d_it:
            raise AssertionError("|effective| != n_it - D_it")
        if self.effective != [m for m in self.selected if m not in removed]:
            raise AssertionError("effective is not selected minus defaults, order preserved")


def filter_eligible(members: Iterable[InteractedMember]) -> list[InteractedMember]:
    """Keep friends, followers, followings, connections and pages; drop groups."""
    return [m for m in members if m.kind is not MemberKind.GROUP]


def select_targets(
    ranking: MemberRanking,
    n_it: int,
    *,
    network_size: int,
    allow_small: bool = False,
) -> list[str]:
    """First ``n_it`` member ids of the ranking.

    The required amount is bounded by 50 <= n_it <= network size;
    ``allow_small`` relaxes the lower bound for desk-scale runs.
    """
    if n_it < MIN_N_IT and not allow_small:
        raise ConfigError(
            f"n_it = {n_it} violates the {MIN_N_IT} <= N_it <= network-size bound "
            "(pass --allow-small to relax the lower bound)"
        )
    if n_it > network_size:
        raise ConfigError(f"n_it = {n_it} exceeds the network size {network_size}")
    if len(ranking.entries) < n_it:
        raise RankingTooSmallError(len(ranking.entries), n_it)
    return [entry.member_id for entry in ranking.entries[:n_it]]


def remove_defaults(
    selected: Sequence[str],
    members: Iterable[InteractedMember],
    threshold: int,
) -> tuple[list[str], list[str]]:
    """Split the selected list into (effective, defaults_removed).

    Members with more than ``threshold`` connections are default
    influenceable targets. An unknown connection count is never treated as
    above the threshold; removal requires evidence.
    """
    by_id = {m.member_id: m for m in members}
    effective: list[str] = []
    removed: list[str] = []
    unknown = 0
    for member_id in selected:
        member = by_id.get(member_id)
        connections = member.connections_count if member is not None else None
        if connections is None:
            unknown += member is not None
            effective.append(member_id)
        elif connections > threshold:
            removed.append(member_id)
        else:
            effective.append(member_id)
    if unknown:
        log.warning("%d of %d selected members have unknown connections_count; retained",
                    unknown, len(selected))
    return effective, removed


def top_most(
    ranking: MemberRanking,
    n_it: int,
    members: Iterable[InteractedMember],
    *,
    threshold: int,
    network_size: int,
    allow_small: bool = False,
) -> TargetSelection:
    """Run selection then default removal; |effective| = n_it - D_it."""
    members = list(members)
    selected = select_targets(
        ranking, n_it, network_size=network_size, allow_small=allow_small
    )
    effective, removed = remove_defaults(selected, members, threshold)
    selection = TargetSelection(
        bucket=ranking.bucket,
        n_it=n_it,
        selected=selected,
        defaults_removed=removed,
        effective=effective,
    )
    selection.validate()
    return selection
