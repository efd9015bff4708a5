import json
import re

import pytest

from egorank import resources
from egorank.classify import Category
from egorank.corpus import (
    EGO_DATASETS,
    ActivityType,
    MemberKind,
    build_interaction_list,
    load_activity_csv,
    load_members_csv,
)
from egorank.errors import BadRowError, ConfigError, DataError
from egorank.simdex import load_word_vectors
from egorank.synth import (
    DEMO_TOPIC_PROFILES,
    EGO_ID,
    generate_synthetic_corpus,
    write_corpus_csvs,
)

HEADER = "post_id,content,user_name,user_id,react_count,share_count,language,time,parent_post_id"
MEMBER_HEADER_ROW = "member_id,display_name,kind,activity_types,connections_count"

T1 = "2024-03-01T10:00:00+00:00"
T2 = "2024-03-02T10:00:00+00:00"


def write_csv(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestLoadActivityCsv:
    def test_direct_field_mapping(self, tmp_path):
        path = write_csv(tmp_path, "d1.csv", [
            HEADER,
            f"p1,hello world,Ego,ego,3,1,en,{T1},",
        ])
        docs = load_activity_csv(path, 1, "ego")
        assert len(docs) == 1
        doc = docs[0]
        assert doc.text == "hello world"
        assert doc.doc_id == "d1-p1"
        assert doc.owner_id == "ego"
        assert doc.dataset_no == 1
        assert doc.parent_doc_id is None

    def test_missing_user_id_is_bad_row(self, tmp_path):
        path = write_csv(tmp_path, "d1.csv", [
            HEADER,
            f"p1,hello,Ego,,0,0,en,{T1},",
        ])
        with pytest.raises(BadRowError, match="row 2"):
            load_activity_csv(path, 1, "ego")

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path, "d1.csv", [
            "post_id,content,user_name,user_id,react_count,share_count,language,time",
            f"p1,x,Ego,ego,0,0,en,{T1}",
        ])
        with pytest.raises(DataError, match="missing required column 'parent_post_id' in "):
            load_activity_csv(path, 1, "ego")

    def test_swapped_columns_name_the_expected_order(self, tmp_path):
        path = write_csv(tmp_path, "d1.csv", [
            "content,post_id,user_name,user_id,react_count,share_count,language,time,"
            "parent_post_id",
            f"x,p1,Ego,ego,0,0,en,{T1},",
        ])
        with pytest.raises(BadRowError) as exc:
            load_activity_csv(path, 1, "ego")
        assert str(exc.value) == f"{path}: row 1: header order mismatch: expected {HEADER}"

    def test_blank_rows_are_skipped_but_counted(self, tmp_path):
        path = write_csv(tmp_path, "d1.csv", [
            HEADER, "", f"p1,x,Ego,ego,0,0,en,{T1},", " , ,,,,,,,", f"p2,y,Ego,,0,0,en,{T2},",
        ])
        with pytest.raises(BadRowError, match="row 5: empty user_id"):
            load_activity_csv(path, 1, "ego")
        path = write_csv(tmp_path, "d5.csv", [
            MEMBER_HEADER_ROW, "A,Alice,Friend,React,", "", " ,,, ,", "B,Bob,Friend,React,2",
        ])
        assert [m.member_id for m in load_members_csv(path)] == ["A", "B"]

    def test_bad_timestamp(self, tmp_path):
        path = write_csv(tmp_path, "d1.csv", [HEADER, "p1,x,Ego,ego,0,0,en,not-a-time,"])
        with pytest.raises(BadRowError, match="row 2: unparseable timestamp 'not-a-time'"):
            load_activity_csv(path, 1, "ego")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d1.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DataError, match=r"^empty file \(no header row\): "):
            load_activity_csv(path, 1, "ego")

    def test_header_only_file_is_no_documents(self, tmp_path):
        path = write_csv(tmp_path, "d1.csv", [HEADER])
        assert load_activity_csv(path, 1, "ego") == []

    def test_duplicate_post_id(self, tmp_path):
        path = write_csv(tmp_path, "d1.csv", [
            HEADER,
            f"p1,x,Ego,ego,0,0,en,{T1},",
            f"p1,y,Ego,ego,0,0,en,{T2},",
        ])
        with pytest.raises(BadRowError, match="duplicate"):
            load_activity_csv(path, 1, "ego")

    def test_negative_count_rejected(self, tmp_path):
        path = write_csv(tmp_path, "d1.csv", [HEADER, f"p1,x,Ego,ego,-1,0,en,{T1},"])
        with pytest.raises(BadRowError, match="negative"):
            load_activity_csv(path, 1, "ego")

    def test_dependent_dataset_requires_parent(self, tmp_path):
        path = write_csv(tmp_path, "d3.csv", [HEADER, f"c1,nice,Ego,ego,0,0,en,{T1},"])
        with pytest.raises(BadRowError, match="parent_post_id"):
            load_activity_csv(path, 3, "ego")

    def test_dependent_parent_resolves_to_parent_dataset(self, tmp_path):
        path = write_csv(tmp_path, "d3.csv", [HEADER, f"c1,nice,Ego,ego,0,0,en,{T1},p9"])
        docs = load_activity_csv(path, 3, "ego")
        assert docs[0].parent_doc_id == "d1-p9"

    def test_independent_dataset_rejects_parent(self, tmp_path):
        path = write_csv(tmp_path, "d1.csv", [HEADER, f"p1,x,Ego,ego,0,0,en,{T1},p0"])
        with pytest.raises(BadRowError, match="empty"):
            load_activity_csv(path, 1, "ego")

    def test_multi_owner_file_attributes_by_row(self, tmp_path):
        path = write_csv(tmp_path, "d6.csv", [
            HEADER,
            f"p1,a,Alice,m1,0,0,en,{T1},",
            f"p2,b,Bob,m2,0,0,en,{T1},",
        ])
        docs = load_activity_csv(path, 6)
        assert [d.owner_id for d in docs] == ["m1", "m2"]

    def test_utf8_bom_accepted(self, tmp_path):
        path = tmp_path / "d1.csv"
        path.write_text("\ufeff" + HEADER + f"\np1,hello world,Ego,ego,3,1,en,{T1},\n",
                        encoding="utf-8")
        docs = load_activity_csv(path, 1, "ego")
        assert [(d.doc_id, d.text) for d in docs] == [("d1-p1", "hello world")]


def _vectors(path):
    store = load_word_vectors(path, {"good", "bad"})
    return store.unit.tolist(), store.index


# Each resource loader, and a file it reads whose first line matters.
BOM_LOADERS = {
    "stop_list": (resources.load_stop_words, "the\nand\n"),
    "negators": (resources.load_negators, "not\nnever\n"),
    "boosters": (resources.load_boosters, "very\nreally\n"),
    "lemma_dictionary": (resources.load_lemma_table, "ran\trun\ngoes\tgo\n"),
    "sentiment_lexicon": (resources.load_sentiment_lexicon, "good\t1.9\nbad\t-2.5\n"),
    "spelling_dictionary": (resources.load_spelling_dictionary, "hello\t10\nworld\t3\n"),
    "labeled_seed": (resources.load_labeled_seed, "text,category\ncode ships,Technology\n"),
    "embeddings": (_vectors, "2 2\ngood 1 0\nbad 0 1\n"),
}


@pytest.mark.parametrize("resource", BOM_LOADERS)
def test_resource_loaders_accept_utf8_bom(tmp_path, resource):
    loader, text = BOM_LOADERS[resource]
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_text(text, encoding="utf-8")
    marked.write_text("\ufeff" + text, encoding="utf-8")
    assert loader(marked) == loader(plain)


def test_labeled_seed_keeps_a_quoted_line_break(tmp_path):
    path = tmp_path / "seed.csv"
    path.write_text('text,category\n"code\nships fast",Technology\n', encoding="utf-8")
    assert resources.load_labeled_seed(path) == [("code\nships fast", Category.TECHNOLOGY)]
    # a bad row after the quoted one is named by its line in the file
    with path.open("a", encoding="utf-8") as fh:
        fh.write("match day,Sprots\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: line 4: unknown category 'Sprots'$"):
        resources.load_labeled_seed(path)


class TestMembersCsv:
    def test_utf8_bom_accepted(self, tmp_path):
        path = tmp_path / "d5.csv"
        path.write_text("\ufeffmember_id,display_name,kind,activity_types,connections_count\n"
                        "A,Alice,Friend,React,120\n", encoding="utf-8")
        (member,) = load_members_csv(path)
        assert (member.member_id, member.connections_count) == ("A", 120)

    def test_load_and_merge_duplicates(self, tmp_path):
        path = write_csv(tmp_path, "d5.csv", [
            MEMBER_HEADER_ROW,
            "A,Alice,Friend,React,120",
            "A,Alice,Friend,Share,",
            "B,Bob,Page,Tag,900",
        ])
        members = load_members_csv(path)
        assert len(members) == 2
        a = members[0]
        assert a.member_id == "A"
        assert a.activity_types == frozenset({ActivityType.REACT, ActivityType.SHARE})
        assert a.connections_count == 120
        assert members[1].kind is MemberKind.PAGE

    def test_dedup_and_union(self, tmp_path):
        path = write_csv(tmp_path, "d5.csv", [MEMBER_HEADER_ROW, "A,a,Friend,React,",
                                              "A,a,Friend,Share,", "B,b,Friend,Tag,"])
        out = load_members_csv(path)
        assert [m.member_id for m in out] == ["A", "B"]
        assert out[0].activity_types == frozenset({ActivityType.REACT, ActivityType.SHARE})
        assert out[1].activity_types == frozenset({ActivityType.TAG})

    def test_order_insensitive(self, tmp_path):
        rows = ["A,a,Friend,React,", "B,b,Friend,Tag,", "A,a,Friend,Share,"]
        forward = load_members_csv(write_csv(tmp_path, "forward.csv", [MEMBER_HEADER_ROW, *rows]))
        backward = load_members_csv(
            write_csv(tmp_path, "backward.csv", [MEMBER_HEADER_ROW, *rows[::-1]]))
        assert forward == backward

    def test_unknown_kind_is_bad_row(self, tmp_path):
        path = write_csv(tmp_path, "d5.csv", [
            MEMBER_HEADER_ROW,
            "A,Alice,Stranger,React,",
        ])
        with pytest.raises(BadRowError, match="kind"):
            load_members_csv(path)


def member(member_id, kinds=("React",), kind=MemberKind.FRIEND, connections=None, name=None):
    from egorank.corpus import InteractedMember
    return InteractedMember(
        member_id=member_id,
        display_name=name if name is not None else member_id.lower(),
        kind=kind,
        activity_types=frozenset(ActivityType(k) for k in kinds),
        connections_count=connections,
    )


class TestBuildInteractionList:
    def test_empty_dataset5_warns(self, caplog):
        with caplog.at_level("WARNING"):
            out = build_interaction_list([])
        assert out == []
        assert any("empty" in rec.message for rec in caplog.records)

    def test_mentions_add_new_members(self):
        base = [member(f"M{i}") for i in range(10)]
        out = build_interaction_list(base, mentions=["zoe", "yuri"])
        assert len(out) == 12
        new = {m.member_id: m for m in out if m.member_id in ("zoe", "yuri")}
        assert set(new) == {"zoe", "yuri"}
        assert all(m.kind is MemberKind.CONNECTION for m in new.values())
        assert all(m.activity_types == frozenset({ActivityType.TAG}) for m in new.values())

    def test_mention_matching_existing_name_merges(self):
        out = build_interaction_list([member("u1", name="Alice")], mentions=["Alice"])
        assert len(out) == 1
        assert ActivityType.TAG in out[0].activity_types

    def test_idempotent(self):
        once = build_interaction_list([member("A", ["React"]), member("B", ["Tag"])])
        again = build_interaction_list(once)
        assert once == again


class TestSyntheticCorpus:
    def test_same_seed_identical(self):
        a = generate_synthetic_corpus(42, members=8, docs_per_member=5, planted_members=2)
        b = generate_synthetic_corpus(42, members=8, docs_per_member=5, planted_members=2)
        assert a == b

    def test_different_seed_differs(self):
        a = generate_synthetic_corpus(1, members=8, docs_per_member=5)
        b = generate_synthetic_corpus(2, members=8, docs_per_member=5)
        assert a != b

    def test_counts(self):
        corpus = generate_synthetic_corpus(7, members=50, docs_per_member=40)
        assert len(corpus.members) == 50
        member_docs = sum(len(corpus.datasets[no]) for no in (6, 7, 8, 9))
        assert member_docs == 50 * 40

    def test_topic_concentration(self):
        corpus = generate_synthetic_corpus(11, members=20, docs_per_member=10)
        truth = corpus.synthetic_truth
        docs = [doc for docs in corpus.datasets.values() for doc in docs]
        for category, profile in DEMO_TOPIC_PROFILES.items():
            labelled = [d for d in docs if truth.doc_labels[d.doc_id][0] == category]
            assert labelled, category
            hit = sum(1 for d in labelled if set(d.text.rstrip(".").split()) & set(profile))
            assert hit / len(labelled) >= 0.90, category

    def test_bad_params(self):
        with pytest.raises(ConfigError, match="docs_per_member and ego_docs must all be >= 1"):
            generate_synthetic_corpus(1, members=0, docs_per_member=5)
        with pytest.raises(ConfigError, match="docs_per_member and ego_docs must all be >= 1"):
            generate_synthetic_corpus(1, members=5, docs_per_member=0)

    def test_planted_and_mega_flags(self):
        corpus = generate_synthetic_corpus(
            3, members=12, docs_per_member=4,
            planted_members=4, mega_members=2, group_members=2,
        )
        truth = corpus.synthetic_truth
        assert len(truth.planted) == 4
        assert set(truth.mega) <= set(truth.planted)
        by_id = {m.member_id: m for m in corpus.members}
        for mid in truth.mega:
            assert by_id[mid].connections_count > 5000
        groups = [m for m in corpus.members if m.kind is MemberKind.GROUP]
        assert len(groups) == 2


class TestRoundTrip:
    def test_write_read_write_is_fixed_point(self, tmp_path):
        corpus = generate_synthetic_corpus(5, members=6, docs_per_member=4,
                                           planted_members=2, mega_members=1)
        write_corpus_csvs(corpus, tmp_path)
        for no, docs in corpus.datasets.items():
            owner = EGO_ID if no in EGO_DATASETS else None
            path = tmp_path / f"dataset_{no}.csv"
            assert load_activity_csv(path, no, owner) == docs, path.name
        assert load_members_csv(tmp_path / "members.csv") == corpus.members
        meta = json.loads((tmp_path / "corpus.json").read_text(encoding="utf-8"))
        assert meta["synthetic_truth"] == json.loads(json.dumps(corpus.synthetic_truth._asdict()))
