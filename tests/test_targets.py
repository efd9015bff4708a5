import random

import pytest

from egorank.classify import Bucket, Category, SentimentClass
from egorank.corpus import ActivityType, InteractedMember, MemberKind
from egorank.errors import ConfigError, RankingTooSmallError
from egorank.recommend import MemberRanking, RankEntry
from egorank.targets import (
    TargetSelection,
    filter_eligible,
    remove_defaults,
    select_targets,
    top_most,
)

BUCKET = Bucket(Category.POLITICS, SentimentClass.POSITIVE)


def member(member_id, kind=MemberKind.FRIEND, connections=None):
    return InteractedMember(
        member_id=member_id, display_name=member_id, kind=kind,
        activity_types=frozenset({ActivityType.POST}), connections_count=connections,
    )


def ranking_of(n, start_score=1000.0):
    entries = [
        RankEntry(member_id=f"m{i:04d}", score=start_score - i, best_doc_id=f"d6-{i:04d}")
        for i in range(n)
    ]
    return MemberRanking(bucket=BUCKET, entries=entries)


class TestFilterEligible:
    def test_groups_removed(self):
        members = [
            member("A", MemberKind.FRIEND),
            member("G", MemberKind.GROUP),
            member("P", MemberKind.PAGE),
        ]
        assert [m.member_id for m in filter_eligible(members)] == ["A", "P"]

    def test_no_groups_identity(self):
        members = [member("A"), member("B", MemberKind.FOLLOWER)]
        assert filter_eligible(members) == members

    def test_all_groups_empty(self):
        members = [member("G1", MemberKind.GROUP), member("G2", MemberKind.GROUP)]
        assert filter_eligible(members) == []

    def test_every_non_group_kind_retained(self):
        kinds = [k for k in MemberKind if k is not MemberKind.GROUP]
        members = [member(f"m{i}", k) for i, k in enumerate(kinds)]
        assert filter_eligible(members) == members


class TestSelectTargets:
    def test_first_n_of_ranking(self):
        ranking = ranking_of(120)
        selected = select_targets(ranking, 50, network_size=120)
        assert selected == [f"m{i:04d}" for i in range(50)]

    def test_lower_bound_enforced(self):
        with pytest.raises(ConfigError, match="violates the 50 <= N_it <= network-size bound"):
            select_targets(ranking_of(120), 10, network_size=120)

    def test_allow_small_override(self):
        selected = select_targets(ranking_of(12), 10, network_size=12, allow_small=True)
        assert len(selected) == 10

    def test_n_it_above_network_size(self):
        with pytest.raises(ConfigError, match="exceeds the network size 60"):
            select_targets(ranking_of(60), 80, network_size=60)

    def test_ranking_smaller_than_n_it(self):
        # network is large enough, but only 40 members actually ranked
        with pytest.raises(RankingTooSmallError, match="ranking holds 40 members but 50 were"):
            select_targets(ranking_of(40), 50, network_size=100)


class TestRemoveDefaults:
    def test_three_megas_removed(self):
        members = [member(f"m{i:04d}", connections=6000 if i < 3 else 100) for i in range(50)]
        selected = [m.member_id for m in members]
        effective, removed = remove_defaults(selected, members, 5000)
        assert len(effective) == 47
        assert removed == ["m0000", "m0001", "m0002"]

    def test_none_above_threshold_identity(self):
        members = [member(f"m{i}", connections=100) for i in range(5)]
        selected = [m.member_id for m in members]
        effective, removed = remove_defaults(selected, members, 5000)
        assert effective == selected and removed == []

    def test_exactly_threshold_not_removed(self):
        members = [member("A", connections=5000)]
        effective, removed = remove_defaults(["A"], members, 5000)
        assert effective == ["A"] and removed == []

    def test_unknown_count_retained_with_warning(self, caplog):
        members = [member("A", connections=None), member("B", connections=9000)]
        with caplog.at_level("WARNING"):
            effective, removed = remove_defaults(["A", "B"], members, 5000)
        assert effective == ["A"]
        assert removed == ["B"]
        assert any("unknown" in rec.message for rec in caplog.records)

    def test_unknown_counts_warned_once_with_count(self, caplog):
        members = [member(f"m{i}", connections=None) for i in range(4)]
        members.append(member("big", connections=9000))
        with caplog.at_level("WARNING"):
            top_most(MemberRanking(BUCKET, [RankEntry(m.member_id, 1.0, "d") for m in members]),
                     5, members, threshold=5000, network_size=5, allow_small=True)
        warnings = [r.message for r in caplog.records if "unknown" in r.message]
        assert warnings == ["4 of 5 selected members have unknown connections_count; retained"]

    def test_order_of_survivors_preserved(self):
        members = [member("C", connections=1), member("A", connections=9000),
                   member("B", connections=2)]
        effective, removed = remove_defaults(["C", "A", "B"], members, 5000)
        assert effective == ["C", "B"]

    def test_threshold_monotonicity(self):
        rng = random.Random(4)
        members = [
            member(f"m{i}", connections=rng.choice([None, rng.randrange(0, 12000)]))
            for i in range(40)
        ]
        selected = [m.member_id for m in members]
        sizes = []
        for threshold in (1000, 3000, 5000, 8000, 12000):
            effective, _ = remove_defaults(selected, members, threshold)
            sizes.append(len(effective))
        assert sizes == sorted(sizes)


class TestTopMost:
    def test_count_identity(self):
        members = [member(f"m{i:04d}", connections=7000 if i in (3, 7, 9) else 50)
                   for i in range(120)]
        selection = top_most(ranking_of(120), 50, members, threshold=5000, network_size=120)
        assert len(selection.selected) == 50
        assert selection.d_it == 3
        assert len(selection.effective) == 47

    def test_no_defaults(self):
        members = [member(f"m{i:04d}", connections=10) for i in range(60)]
        selection = top_most(ranking_of(60), 50, members, threshold=5000, network_size=60)
        assert selection.d_it == 0
        assert selection.effective == selection.selected

    def test_recovers_planted_megas_from_synthetic_ranking(self):
        rng = random.Random(21)
        planted_megas = {"m0005", "m0011", "m0042"}
        members = []
        for i in range(60):
            mid = f"m{i:04d}"
            conn = rng.randrange(6000, 20000) if mid in planted_megas else rng.randrange(0, 4000)
            members.append(member(mid, connections=conn))
        selection = top_most(ranking_of(60), 60, members, threshold=5000, network_size=60,
                             allow_small=True)
        assert set(selection.defaults_removed) == planted_megas

    def test_effective_is_order_preserving_subsequence(self):
        rng = random.Random(13)
        for trial in range(100):
            n = rng.randrange(1, 120)
            ranking = ranking_of(n)
            n_it = rng.randrange(1, n + 1)
            threshold = rng.choice([500, 2000, 5000, 9000])
            members = [
                member(e.member_id,
                       connections=rng.choice([None, rng.randrange(0, 12000)]))
                for e in ranking.entries
            ]
            selection = top_most(ranking, n_it, members,
                                 threshold=threshold, network_size=n, allow_small=True)
            assert len(selection.selected) == n_it
            assert len(selection.effective) == n_it - selection.d_it
            removed = set(selection.defaults_removed)
            assert selection.effective == [m for m in selection.selected if m not in removed]
            it = iter(selection.selected)
            assert all(m in it for m in selection.effective)  # subsequence check

    def test_validate_rejects_bad_selection(self):
        bad = TargetSelection(bucket=BUCKET, n_it=3, selected=["a", "b", "c"],
                              defaults_removed=["b"], effective=["c", "a"])
        with pytest.raises(AssertionError):
            bad.validate()
