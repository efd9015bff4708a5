import random

import pytest

from egorank.classify import Bucket, Category, SentimentClass
from egorank.corpus import ActivityType, InteractedMember, MemberKind
from egorank.errors import RankingTooSmallError
from egorank.recommend import MemberRanking, RankEntry
from egorank.targets import filter_eligible, top_most

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


# Both stages are top_most now. N_it's bounds (50 <= N_it <= network size,
# unless allow_small) are checked before any ranking is read, the lower one
# by the CLI before any stage runs; tests/test_cli.py covers them.
class TestSelectTargets:
    def test_first_n_of_ranking(self):
        selection = top_most(ranking_of(120), 50, [], threshold=5000)
        assert selection.selected == [f"m{i:04d}" for i in range(50)]
        assert selection.n_it == 50

    def test_ranking_smaller_than_n_it(self):
        with pytest.raises(RankingTooSmallError,
                           match="^bucket Politics/Positive: ranking holds 40 members but 50 "
                                 "were requested$"):
            top_most(ranking_of(40), 50, [], threshold=5000)

    def test_empty_ranking_is_too_small(self):
        with pytest.raises(RankingTooSmallError, match="ranking holds 0 members but 1 were"):
            top_most(ranking_of(0), 1, [], threshold=5000)


    @pytest.mark.parametrize("n_it, warned", [(1, False), (2, True), (3, False), (4, False)])
    def test_tie_across_the_cut_warns(self, caplog, n_it, warned):
        scores = [3.0, 2.0, 2.0, 1.0]
        ranking = MemberRanking(BUCKET, [RankEntry(f"m{i}", score, "d")
                                         for i, score in enumerate(scores)])
        with caplog.at_level("WARNING"):
            selection = top_most(ranking, n_it, [], threshold=5000)
        assert selection.selected == [f"m{i}" for i in range(n_it)]
        assert [r.message for r in caplog.records] == [
            "bucket Politics/Positive: members ranked 2 and 3 tie on score 2.0; selection "
            "across the cut falls to member id"] * warned


class TestRemoveDefaults:
    def test_three_megas_removed(self):
        members = [member(f"m{i:04d}", connections=6000 if i < 3 else 100) for i in range(50)]
        selection = top_most(ranking_of(50), 50, members, threshold=5000)
        assert len(selection.effective) == 47
        assert selection.defaults_removed == ["m0000", "m0001", "m0002"]

    def test_none_above_threshold_identity(self):
        members = [member(f"m{i:04d}", connections=100) for i in range(5)]
        selection = top_most(ranking_of(5), 5, members, threshold=5000)
        assert selection.effective == selection.selected and selection.defaults_removed == []

    def test_exactly_threshold_not_removed(self):
        selection = top_most(ranking_of(1), 1, [member("m0000", connections=5000)],
                             threshold=5000)
        assert selection.effective == ["m0000"] and selection.defaults_removed == []

    def test_unknown_count_retained_with_warning(self, caplog):
        members = [member("m0000", connections=None), member("m0001", connections=9000)]
        with caplog.at_level("WARNING"):
            selection = top_most(ranking_of(2), 2, members, threshold=5000)
        assert selection.effective == ["m0000"]
        assert selection.defaults_removed == ["m0001"]
        assert any("unknown" in rec.message for rec in caplog.records)

    def test_unknown_counts_warned_once_with_count(self, caplog):
        members = [member(f"m{i}", connections=None) for i in range(4)]
        members.append(member("big", connections=9000))
        with caplog.at_level("WARNING"):
            top_most(MemberRanking(BUCKET, [RankEntry(m.member_id, 1.0, "d") for m in members]),
                     5, members, threshold=5000)
        warnings = [r.message for r in caplog.records if "unknown" in r.message]
        assert warnings == ["4 of 5 selected members have unknown connections_count; retained"]

    def test_member_missing_from_list_retained_without_warning(self, caplog):
        with caplog.at_level("WARNING"):
            selection = top_most(ranking_of(2), 2, [member("m0000", connections=9000)],
                                 threshold=5000)
        assert selection.effective == ["m0001"]
        assert not caplog.records

    def test_order_of_survivors_preserved(self):
        members = [member("C", connections=1), member("A", connections=9000),
                   member("B", connections=2)]
        ranking = MemberRanking(BUCKET, [RankEntry(m, 1.0, "d") for m in ("C", "A", "B")])
        assert top_most(ranking, 3, members, threshold=5000).effective == ["C", "B"]

    def test_threshold_monotonicity(self):
        rng = random.Random(4)
        members = [
            member(f"m{i:04d}", connections=rng.choice([None, rng.randrange(0, 12000)]))
            for i in range(40)
        ]
        sizes = []
        for threshold in (1000, 3000, 5000, 8000, 12000):
            selection = top_most(ranking_of(40), 40, members, threshold=threshold)
            sizes.append(len(selection.effective))
        assert sizes == sorted(sizes)


class TestTopMost:
    def test_count_identity(self):
        members = [member(f"m{i:04d}", connections=7000 if i in (3, 7, 9) else 50)
                   for i in range(120)]
        selection = top_most(ranking_of(120), 50, members, threshold=5000)
        assert len(selection.selected) == 50
        assert selection.d_it == 3
        assert len(selection.effective) == 47

    def test_no_defaults(self):
        members = [member(f"m{i:04d}", connections=10) for i in range(60)]
        selection = top_most(ranking_of(60), 50, members, threshold=5000)
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
        selection = top_most(ranking_of(60), 60, members, threshold=5000)
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
            selection = top_most(ranking, n_it, members, threshold=threshold)
            assert len(selection.selected) == n_it
            assert len(selection.effective) == n_it - selection.d_it
            removed = set(selection.defaults_removed)
            assert selection.effective == [m for m in selection.selected if m not in removed]
            it = iter(selection.selected)
            assert all(m in it for m in selection.effective)  # subsequence check
