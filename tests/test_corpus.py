import json
import random
import re
import shutil
import sys

import pytest

from conftest import other_pythons, run_python
from egorank import resources
from egorank.classify import Category
from egorank.corpus import (
    EGO_DATASETS,
    ActivityType,
    MemberKind,
    build_interaction_list,
    load_activity_csv,
    load_members_csv,
    parse_timestamp,
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
        with pytest.raises(BadRowError) as exc:
            load_activity_csv(path, 1, "ego")
        assert str(exc.value) == f"{path}: row 1: header must be {HEADER}"

    def test_swapped_columns_name_the_expected_order(self, tmp_path):
        path = write_csv(tmp_path, "d1.csv", [
            "content,post_id,user_name,user_id,react_count,share_count,language,time,"
            "parent_post_id",
            f"x,p1,Ego,ego,0,0,en,{T1},",
        ])
        with pytest.raises(BadRowError) as exc:
            load_activity_csv(path, 1, "ego")
        assert str(exc.value) == f"{path}: row 1: header must be {HEADER}"

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

    def test_timestamp_forms_load_as_one_utc_instant(self, tmp_path):
        # A trailing Z (which fromisoformat rejects before Python 3.11), a
        # naive time (taken as UTC) and another offset.
        path = write_csv(tmp_path, "d1.csv", [
            HEADER,
            "p1,x,Ego,ego,0,0,en,2024-03-01T10:00:00Z,",
            "p2,x,Ego,ego,0,0,en,2024-03-01T10:00:00,",
            "p3,x,Ego,ego,0,0,en,2024-03-01T12:00:00+02:00,",
        ])
        assert [d.time.isoformat() for d in load_activity_csv(path, 1, "ego")] == [T1] * 3

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d1.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(BadRowError) as exc:
            load_activity_csv(path, 1, "ego")
        assert str(exc.value) == f"{path}: row 1: header must be {HEADER}"

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



# Each string with the UTC instant it reads as on every supported Python
# (naive taken as UTC), or None for a refusal. A Z or z reads as UTC. Python
# 3.10's fromisoformat reads the seven refused strings from
# "2024-01-02x03:04:05" to "2024-01-02T03:04:123+02:00"; 3.11 and later read
# all of those but the Z with an offset, and the eight after them down to
# "2024-01-02T0304"; no version reads the next four. The last two read in
# every version as instants that a UTC datetime cannot hold, and are
# refused; the four before them can be held.
TIMESTAMPS = {
    "2024-01-02": "2024-01-02T00:00:00+00:00",
    "2024-01-02Z": "2024-01-02T00:00:00+00:00",
    "2024-01-02T03": "2024-01-02T03:00:00+00:00",
    "2024-01-02T03:04": "2024-01-02T03:04:00+00:00",
    "2024-01-02t03:04": "2024-01-02T03:04:00+00:00",
    "2024-01-02 03:04:05": "2024-01-02T03:04:05+00:00",
    "2024-01-02T03:04:05.123": "2024-01-02T03:04:05.123000+00:00",
    "2024-01-02T03:04:05.123456": "2024-01-02T03:04:05.123456+00:00",
    "2024-01-02T03:04:05+02:00": "2024-01-02T01:04:05+00:00",
    "2024-01-02T03:04:05+02:00:30": "2024-01-02T01:03:35+00:00",
    "2024-01-02T03:04:05-02:00": "2024-01-02T05:04:05+00:00",
    "2024-01-02T03:04:05Z": "2024-01-02T03:04:05+00:00",
    "2024-01-02T03:04:05z": "2024-01-02T03:04:05+00:00",
    "2024-01-02x03:04:05": None,
    "2024-01-02T03:04:05:123456": None,
    "2024-01-02T03.123": None,
    "2024-01-02T03:04:05\x00": None,
    "2024-01-02T03:04:05+02:00:30.000001": None,
    "2024-01-02T03:04:05Z+02:00": None,
    "2024-01-02T03:04:123+02:00": None,
    "2024-01-02T03:04:05.1": None,
    "2024-01-02T03:04:05+0200": None,
    "2024-01-02T03:04:05+02": None,
    "20240102T030405": None,
    "20240102T030405Z": None,
    "2024-W01-2": None,
    "2024-01-02T03:04:05,123": None,
    "2024-01-02T0304": None,
    "2024-01-02T24:00": None,
    "2024-01-02T03:04:05+24:00": None,
    "9999-12-31-02+59:01": None,
    "2024-02-30": None,
    "0001-01-01T00:00:00": "0001-01-01T00:00:00+00:00",
    "0001-01-01T00:00:00-01:00": "0001-01-01T01:00:00+00:00",
    "9999-12-31T23:59:59.999999": "9999-12-31T23:59:59.999999+00:00",
    "9999-12-31T23:59:59+01:00": "9999-12-31T22:59:59+00:00",
    "0001-01-01T00:00:00+01:00": None,
    "9999-12-31T23:59:59-01:00": None,
}


@pytest.mark.parametrize("text, instant", TIMESTAMPS.items(), ids=list(TIMESTAMPS))
def test_timestamps_read_as_python_3_10_reads_them(text, instant):
    if instant is None:
        with pytest.raises(ValueError):
            parse_timestamp(text)
    else:
        assert parse_timestamp(text).isoformat() == instant


def read_timestamp(text):
    """``parse_timestamp``'s instant for ``text`` in ISO form, or None."""
    try:
        return parse_timestamp(text).isoformat()
    except ValueError:
        return None


def generated_timestamps(count=3000, seed=39):
    """``count`` strings drawn from the timestamp grammar, each part a step
    outside it one time in ten."""
    rng = random.Random(seed)
    parts = [  # (in the grammar, outside it)
        (["2024-01-02", "0001-01-01", "9999-12-31", "2024-02-29"],
         ["2023-02-29", "2024-13-01", "20240102", "2024-W01-2", "2024-01-0\u0662"]),
        (["T", "t", " "], ["", "x", "_", "\x00"]),
        (["00", "03", "23"], ["24", "3", "\u0660\u0663"]),
        ([":04", ":59", ""], [":60", "04"]),
        ([":05", ":59", ""], [":60", "05"]),
        ([".123", ".123456", ""], [".1", ":123", ",123", ".1234567"]),
        (["+02:00", "-02:00", "+02:00:30", "-23:59:59", "+00:00", "Z", "z", ""],
         ["+24:00", "+0200", "+02", "+02:00:30.000001"]),
        ([""], ["Z", "z", "\x00", " "]),
    ]
    return ["".join(rng.choice(outside if rng.random() < 0.1 else inside)
                    for inside, outside in parts) for _ in range(count)]


# Reads each JSON string on stdin with parse_timestamp, printing its instant
# or null.
READ_TIMESTAMPS = """
import json, sys
from egorank.corpus import parse_timestamp

def read(text):
    try:
        return parse_timestamp(text).isoformat()
    except ValueError:
        return None

print(json.dumps([read(text) for text in json.load(sys.stdin)]))
"""


SEED_7 = (["synth", "--out", "corpus", "--seed", "7"], ["ingest", "--config", "corpus/config.json"])


def cli_runs(python, cwd, *argvs):
    """The exit code, stdout and stderr of each egorank command of ``argvs``,
    run in turn under ``python`` in ``cwd``, and every file under ``cwd`` after them."""
    runs = [run_python("-m", "egorank.cli", *argv, python=python, cwd=cwd, text=False)
            for argv in argvs]
    return ([(run.returncode, run.stdout, run.stderr) for run in runs],
            {str(path.relative_to(cwd)): path.read_bytes()
             for path in sorted(cwd.rglob("*")) if path.is_file()})


@pytest.fixture(scope="module")
def seed_7_here(tmp_path_factory):
    return cli_runs(sys.executable, tmp_path_factory.mktemp("here"), *SEED_7)


@pytest.mark.parametrize("python", other_pythons())
def test_ingest_reads_alike_on_every_python(python, seed_7_here, tmp_path):
    texts = list(TIMESTAMPS) + generated_timestamps()
    proc = run_python("-c", READ_TIMESTAMPS, python=python, input=json.dumps(texts))
    assert proc.returncode == 0, proc.stderr
    assert [(text, there) for text, there in zip(texts, json.loads(proc.stdout))
            if there != read_timestamp(text)] == []
    runs, files = cli_runs(python, tmp_path, *SEED_7)
    assert [code for code, _, _ in runs] == [0, 0]
    assert runs == seed_7_here[0]
    assert files == seed_7_here[1]


@pytest.fixture(scope="module")
def ranked_seed_7(tmp_path_factory):
    """A folder holding ``synth --seed 7``, ingested and then ranked in every
    bucket under the running interpreter."""
    folder = tmp_path_factory.mktemp("ranked")
    runs, _ = cli_runs(sys.executable, folder, *SEED_7,
                       ["rank", "--config", "corpus/config.json", "--bucket", "all"])
    assert [code for code, _, _ in runs] == [0, 0, 0]
    return folder


@pytest.mark.parametrize("python", other_pythons())
def test_targets_read_alike_on_every_python(python, ranked_seed_7, tmp_path):
    # every ranking is current, so targets needs no numpy
    runs = {}
    for name, executable in (("here", sys.executable), ("there", python)):
        shutil.copytree(ranked_seed_7, tmp_path / name)
        runs[name] = cli_runs(executable, tmp_path / name,
                              ["targets", "--config", "corpus/config.json", "--bucket", "all"])
    assert [code for code, _, _ in runs["there"][0]] == [0]
    assert any(name.startswith("corpus/out/targets_") for name in runs["there"][1])
    assert runs["there"] == runs["here"]


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


# Every loader of an input file: the resource loaders and the two CSV loaders.
INPUT_LOADERS = BOM_LOADERS | {
    "activity_csv": (lambda path: load_activity_csv(path, 1, "ego"),
                     HEADER + f"\np1,hello world,Ego,ego,3,1,en,{T1},\n"),
    "members_csv": (load_members_csv, MEMBER_HEADER_ROW + "\nA,Alice,Friend,React,120\n"),
}


@pytest.mark.parametrize("loader", INPUT_LOADERS)
def test_input_loaders_name_a_file_that_is_not_utf8(tmp_path, loader):
    # One byte that no UTF-8 text holds, after a valid file's last line.
    load, text = INPUT_LOADERS[loader]
    path = tmp_path / "input"
    path.write_bytes(text.encode("utf-8") + b"caf\xff\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: not UTF-8 text$"):
        load(path)


def test_labeled_seed_keeps_a_quoted_line_break(tmp_path):
    path = tmp_path / "seed.csv"
    path.write_text('text,category\n"code\nships fast",Technology\n', encoding="utf-8")
    assert resources.load_labeled_seed(path) == [("code\nships fast", Category.TECHNOLOGY)]
    # a bad row after the quoted one is named by its row number, the header being row 1
    with path.open("a", encoding="utf-8") as fh:
        fh.write("match day,Sprots\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: row 3: unknown category 'Sprots'$"):
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

    @pytest.mark.parametrize("names", [("Bob", "Alice"), ("Alice", "Bob"), ("", "Alice")],
                             ids=["bob_first", "alice_first", "empty_first"])
    def test_merged_member_keeps_the_first_name_alphabetically(self, tmp_path, names):
        path = write_csv(tmp_path, "d5.csv", [MEMBER_HEADER_ROW, *(
            f"A,{name},Friend,React," for name in names)])
        (member,) = load_members_csv(path)
        assert member.display_name == "Alice"

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
        with pytest.raises(ConfigError, match="members and docs_per_member must both be >= 1"):
            generate_synthetic_corpus(1, members=0, docs_per_member=5)
        with pytest.raises(ConfigError, match="members and docs_per_member must both be >= 1"):
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
