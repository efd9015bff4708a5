import csv
import gc
import hashlib
import json
import math
import os
import random
import shutil
import sys
import threading
from collections import Counter

import pytest

from conftest import run_python
from egorank import __version__, pipeline, textprep
from egorank.classify import ALL_BUCKETS
from egorank.cli import build_parser, main
from egorank.config import RESOURCE_KEYS, PipelineConfig, load_config
from egorank.corpus import CONTENT_DATASETS, EGO_DATASETS, parse_timestamp
from egorank.recommend import MemberRanking, RankEntry
from egorank.simdex import SimilarityModels, load_word_vectors


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    code = main([
        "synth", "--out", str(out), "--seed", "7", "--members", "24",
        "--docs-per-member", "8", "--planted", "5",
    ])
    assert code == 0
    return out


def run_cli(*argv):
    return main(list(argv))


# The columns of an activity CSV row after user_id: counts, language, a time
# inside the synth window and no parent.
STAMP = "0,0,en,2024-06-01T00:00:00+00:00,"


@pytest.fixture
def ingested(synth_dir):
    """``synth_dir`` with a bundle in its ``out``, ingested here if no test has yet."""
    if not (synth_dir / "out" / "bundle.json").is_file():
        assert run_cli("ingest", "--config", str(synth_dir / "config.json")) == 0
    return synth_dir


@pytest.fixture
def targeted(ingested):
    """``synth_dir`` with rankings and targets in its ``out``, written here if
    no test has yet."""
    if not (ingested / "out" / "targets_Technology_Positive.json").is_file():
        assert run_cli("targets", "--config", str(ingested / "config.json")) == 0
    return ingested


def bucket_without_ego(out):
    """A bucket in which the ingested bundle at ``out`` holds no ego document."""
    bundle = json.loads((out / "bundle.json").read_text())
    ego = {d["bucket"] for d in bundle["documents"] if d["dataset_no"] in EGO_DATASETS}
    return next(str(b) for b in ALL_BUCKETS if str(b) not in ego)


def ego_document(bundle):
    """The first dataset-1 record of Technology/Positive, a bucket with both sides."""
    return next(d for d in bundle["documents"]
                if d["bucket"] == "Technology/Positive" and d["dataset_no"] == 1)


def member_document(bundle):
    """The first member-side record of Technology/Positive."""
    return next(d for d in bundle["documents"]
                if d["bucket"] == "Technology/Positive" and d["dataset_no"] > 5)


def ego_word(bundle):
    return ego_document(bundle)["tokens"].split()[0]


def edit_values(bundle):
    """Edit values only, every type kept: raise a scored word's df by 1, and
    move one member document from Sports/Positive into Technology/Positive."""
    bundle["df"][ego_word(bundle)] += 1
    next(d for d in bundle["documents"] if d["bucket"] == "Sports/Positive"
         and d["dataset_no"] > 5)["bucket"] = "Technology/Positive"


def bundle_text(bundle):
    """``bundle`` as ingest writes it."""
    return json.dumps(bundle, sort_keys=True, separators=(",", ":")) + "\n"


def seal(out):
    """Seal the bundle at ``out`` as ingest does, for a test that rewrites it on purpose."""
    digest = hashlib.sha256((out / "bundle.json").read_bytes()).hexdigest()
    (out / "bundle.json.sha256").write_text(f"{digest}  bundle.json\n")


def copy_bundle(out, to):
    """Copy the bundle at ``out``, and the seal beside it, into ``to``."""
    for name in ("bundle.json", "bundle.json.sha256"):
        shutil.copy(out / name, to)


def ingested_by_0_1_0(tree):
    """Rewrite the bundle in ``tree`` as egorank 0.1.0 would have written it, and seal it."""
    bundle = tree / "out" / "bundle.json"
    bundle.write_text(bundle.read_text().replace(f'"version":"{__version__}"', '"version":"0.1.0"'))
    seal(tree / "out")


class TestSynth:
    def test_writes_all_inputs(self, synth_dir):
        names = {p.name for p in synth_dir.iterdir()}
        expected = {f"dataset_{no}.csv" for no in (1, 2, 3, 4, 6, 7, 8, 9)}
        expected |= {"members.csv", "corpus.json", "embeddings.txt",
                     "seed_categories.csv", "config.json"}
        assert expected <= names

    def test_deterministic(self, synth_dir, tmp_path):
        again = tmp_path / "again"
        assert run_cli("synth", "--out", str(again), "--seed", "7", "--members", "24",
                       "--docs-per-member", "8", "--planted", "5") == 0
        for path in sorted(synth_dir.iterdir()):
            assert path.read_bytes() == (again / path.name).read_bytes(), path.name

    def test_no_member_but_groups_exits_config_error(self, tmp_path, caplog):
        # Both members would be Groups, so the config written would ask for n_it 0.
        out = tmp_path / "groups"
        with caplog.at_level("ERROR"):
            code = run_cli("synth", "--out", str(out), "--members", "2", "--planted", "0")
        assert code == 1
        assert [r.message for r in caplog.records] == [
            "members must exceed the 2 Group members, which are never targets"]
        assert not out.exists()

    def test_output_is_pinned(self, tmp_path):
        # sha256 of each file `synth --seed 7` wrote when these were taken.
        # Every pinned figure of the CLI tests starts from this corpus, so
        # these are not updated to let a change pass.
        assert run_cli("synth", "--out", str(tmp_path), "--seed", "7") == 0
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in tmp_path.iterdir()} == {
            "config.json": "e401fedaca14e2e164725b77c4e02c7d61f9ebf13ed41f67c5ec3a99c923afbc",
            "corpus.json": "3c6c92a270e39eb86c29b7d97f8b25a833ecdb7ca50d22ee9dfca17ca96bffdf",
            "dataset_1.csv": "abd2cafbf66ac8008e91e67e27a322e106adaf8aec5e07dafb474ce30be92b1d",
            "dataset_2.csv": "bb89ea27f0d647ecebc631a8b389b7eca55d342d2206a0d5c5c0655782c85efb",
            "dataset_3.csv": "79d1a74bc20db94828c44cb3e64768aa373f1991ba6c1aa168da3c99bc73054c",
            "dataset_4.csv": "1d6ceb5ccb8fea712b63895c7acaf3d20ab065091e74899891c6d7a3ca231cac",
            "dataset_6.csv": "be789a8ab524766c6c33321454c18876034a6723c98150297cd11df6b8ab7c3a",
            "dataset_7.csv": "532a0d5d5afe8f20d663dde70fdb9223f8ac334d0ed6978f4034b74839d6ac99",
            "dataset_8.csv": "253fd19e0352f9a840c3d1718abf62b127520795d79bc74c2bf2134c623ed9ab",
            "dataset_9.csv": "e40599cb4c479618b96870fbbdb112d9bbd1c19f82ca3638c73dd05e543f8a07",
            "embeddings.txt": "c92f68f082f0d29fd48306f003c37619fd6a2eb9cb741567c1537036791bb294",
            "members.csv": "8cd276c0f321146fcb80911969d4cb3fe67c3cf407d1e7bb837a0fb65198cf15",
            "seed_categories.csv":
                "985d6f563890f890f69074ec39d4c4e61abb8c0bcd16901d7d8de60d9db43d8a",
        }


class TestIngest:
    def test_report_lists_all_dataset_counts(self, synth_dir, capsys):
        assert run_cli("ingest", "--config", str(synth_dir / "config.json")) == 0
        printed = capsys.readouterr().out
        assert printed == (synth_dir / "out" / "ingest_report.json").read_text()
        report = json.loads(printed)
        assert set(report["dataset_counts"]) == {str(n) for n in range(1, 10)}
        member_side = sum(int(report["dataset_counts"][str(n)]) for n in (6, 7, 8, 9))
        assert member_side == 24 * 8
        assert report["dataset_counts"]["5"] == 24

    @pytest.mark.parametrize("edit, argv, field", [
        (lambda c: c.update(n_it="abc"), (), "n_it"),
        (lambda c: c.update(threshold=True), (), "threshold"),
        (lambda c: c.update(workers="two"), (), "workers"),
        (lambda c: c["datasets"].update(x="dataset_1.csv"), (), "datasets key"),
        (lambda c: c["datasets"].update({"10": "dataset_1.csv"}), (),
         "datasets key must be a dataset number 1-9, got '10'"),
        # int() would map these to 1, and the last of the two keys would win.
        (lambda c: c["datasets"].update({"01": "dataset_6.csv"}), (),
         "datasets key must be a dataset number 1-9, got '01'"),
        (lambda c: c["datasets"].update({" 1": "dataset_6.csv"}), (),
         "datasets key must be a dataset number 1-9, got ' 1'"),
        (lambda c: c["window"].update(since="yesterday"), (), "window.since"),
        (lambda c: c.update(allow_small="false"), (), "allow_small"),
        (lambda c: None, ("--until", "tomorrow"), "--until"),
        (lambda c: c.update(window="2024"), (), "window"),
        (lambda c: c.update(datasets=[]), (), "datasets"),
        (lambda c: c.update(resources=[]), (), "resources"),
        (lambda c: c.update(out_dir=3), (), "out_dir"),
        (lambda c: c.update(bucket=5), (), "bucket"),
        (lambda c: c.update(ego_id=7), (), "ego_id"),
        (lambda c: c["datasets"].update({"1": 1}), (), "datasets.1"),
        (lambda c: c["resources"].update(embeddings=["embeddings.txt"]), (),
         "resources.embeddings"),
    ], ids=["n_it", "bool_threshold", "workers", "dataset_key", "dataset_key_range",
            "dataset_key_padded", "dataset_key_spaced", "window", "allow_small", "until_flag",
            "window_string", "datasets_list", "resources_list", "out_dir_number",
            "bucket_number", "ego_id_number", "dataset_path_number", "resource_path_list"])
    def test_mistyped_field_exits_config_error(self, synth_dir, edit, argv, field, caplog):
        config = json.loads((synth_dir / "config.json").read_text())
        edit(config)
        mistyped = synth_dir / "mistyped.json"
        mistyped.write_text(json.dumps(config))
        with caplog.at_level("ERROR"):
            code = run_cli("ingest", "--config", str(mistyped), *argv)
        assert code == 1
        assert any(field in r.message for r in caplog.records)

    def test_non_object_config_exits_config_error(self, tmp_path, caplog):
        config = tmp_path / "list.json"
        config.write_text("[1]")
        with caplog.at_level("ERROR"):
            code = run_cli("ingest", "--config", str(config))
        assert code == 1
        assert [r.message for r in caplog.records] == [
            f"config file is not a JSON object: {config}"]

    def test_config_nested_too_deep_exits_config_error(self, tmp_path, caplog):
        config = tmp_path / "deep.json"
        config.write_text("[" * 100_000)
        with caplog.at_level("ERROR"):
            code = run_cli("ingest", "--config", str(config))
        assert code == 1
        [message] = [r.message for r in caplog.records]
        assert message.startswith(
            f"config file is not valid JSON: {config}: maximum recursion depth exceeded")

    def test_config_not_utf8_exits_config_error(self, synth_dir, tmp_path, caplog):
        config = tmp_path / "config.json"
        config.write_bytes((synth_dir / "config.json").read_bytes() + b"\xff")
        with caplog.at_level("ERROR"):
            code = run_cli("ingest", "--config", str(config))
        assert code == 1
        assert [r.message for r in caplog.records] == [
            f"config file is not valid JSON: {config}: 'utf-8' codec can't decode byte 0xff "
            f"in position {config.stat().st_size - 1}: invalid start byte"]

    def test_config_with_utf8_bom_loads_as_without(self, synth_dir):
        plain = synth_dir / "config.json"
        marked = synth_dir / "bom.json"
        marked.write_text("\ufeff" + plain.read_text(encoding="utf-8"), encoding="utf-8")
        assert load_config(marked, {}) == load_config(plain, {})

    @pytest.mark.parametrize("section, key, message", [
        ("resources", "stoplist",
         "unknown key resources.stoplist; expected one of boosters, embeddings, labeled_seed, "
         "lemma_dictionary, negators, sentiment_lexicon, spelling_dictionary, stop_list"),
        ("window", "from", "unknown key window.from; expected one of since, until"),
    ], ids=["resources", "window"])
    def test_unknown_nested_key_exits_config_error(self, synth_dir, section, key, message,
                                                   caplog):
        # a misspelt key would otherwise run with the default it meant to replace
        config = json.loads((synth_dir / "config.json").read_text())
        config[section][key] = "nothing.txt"
        misspelt = synth_dir / "misspelt.json"
        misspelt.write_text(json.dumps(config))
        with caplog.at_level("ERROR"):
            code = run_cli("ingest", "--config", str(misspelt))
        assert code == 1
        assert [r.message for r in caplog.records] == [message]

    def test_unknown_top_level_key_is_ignored(self, synth_dir, tmp_path):
        # perfbench's generated config carries a "seed" that the pipeline never reads
        config = json.loads((synth_dir / "config.json").read_text())
        config["seed"] = 7
        seeded = synth_dir / "seeded.json"
        seeded.write_text(json.dumps(config))
        assert run_cli("ingest", "--config", str(seeded), "--out-dir", str(tmp_path)) == 0

    def test_missing_dataset5_exits_config_error(self, synth_dir, tmp_path, caplog):
        broken = tmp_path / "broken"
        shutil.copytree(synth_dir, broken)
        (broken / "members.csv").unlink()
        with caplog.at_level("ERROR"):
            code = run_cli("ingest", "--config", str(broken / "config.json"))
        assert code == 1
        assert [r.message for r in caplog.records] == [
            f"datasets.5 not found: {broken / 'members.csv'}"]

    def test_unset_dataset5_exits_config_error(self, synth_dir, caplog):
        config = json.loads((synth_dir / "config.json").read_text())
        del config["datasets"]["5"]
        unset = synth_dir / "unset5.json"
        unset.write_text(json.dumps(config))
        with caplog.at_level("ERROR"):
            code = run_cli("ingest", "--config", str(unset))
        assert code == 1
        assert [r.message for r in caplog.records] == ["datasets.5 is not configured"]

    def test_rerun_is_byte_identical(self, synth_dir):
        bundle = synth_dir / "out" / "bundle.json"
        run_cli("ingest", "--config", str(synth_dir / "config.json"))
        first = bundle.read_bytes()
        run_cli("ingest", "--config", str(synth_dir / "config.json"))
        assert bundle.read_bytes() == first

    def test_new_bundle_removes_every_ranking_and_targets_file(self, seed7_dir, tmp_path,
                                                               caplog):
        # Each ranking names the bundle that was there when it was written,
        # so none is current for another bundle.
        corpus = tmp_path / "corpus"
        shutil.copytree(seed7_dir, corpus, ignore=shutil.ignore_patterns("out"))
        config, out = str(corpus / "config.json"), corpus / "out"
        assert run_cli("run", "--config", config) == 0
        swept = [*out.glob("ranking_*"), *out.glob("targets_*")]
        assert len(swept) > 20
        with (corpus / "dataset_6.csv").open("a") as fh:
            fh.write(f"px-new,great software love,m001,m001,{STAMP}\n")
        caplog.clear()
        with caplog.at_level("INFO"):
            assert run_cli("ingest", "--config", config) == 0
        assert (f"removed {len(swept)} ranking and targets files of the previous bundle"
                in caplog.messages)
        assert sorted(p.name for p in out.iterdir()) == [
            "bundle.json", "bundle.json.sha256", "ingest_report.json"]

    def test_ingest_from_unchanged_inputs_keeps_every_ranking_and_targets_file(
            self, synth_dir, tmp_path, caplog):
        argv = ["--config", str(synth_dir / "config.json"), "--out-dir", str(tmp_path)]
        assert run_cli("run", *argv) == 0
        saved = sorted([*tmp_path.glob("ranking_*"), *tmp_path.glob("targets_*")])
        assert saved
        for path in saved:
            os.utime(path, ns=(10**9, 10**9))
        before = {path: path.read_bytes() for path in saved}
        caplog.clear()
        with caplog.at_level("INFO"):
            assert run_cli("ingest", *argv) == 0
        assert not [m for m in caplog.messages if m.startswith("removed")]
        assert sorted([*tmp_path.glob("ranking_*"), *tmp_path.glob("targets_*")]) == saved
        for path in saved:
            assert path.read_bytes() == before[path], path.name
            assert path.stat().st_mtime_ns == 10**9, path.name

    def test_ingest_output_is_pinned(self, tmp_path):
        # sha256 of the canonical JSON of what ingest wrote for `synth --seed 7`
        # when these were taken: the bundle's documents, and the ingest report
        # without its version. A speed-up must leave both as they are; they
        # are not updated to let a change pass.
        assert run_cli("synth", "--out", str(tmp_path), "--seed", "7") == 0
        assert run_cli("ingest", "--config", str(tmp_path / "config.json")) == 0
        documents = json.loads((tmp_path / "out" / "bundle.json").read_text())["documents"]
        report = json.loads((tmp_path / "out" / "ingest_report.json").read_text())
        del report["version"]

        def digest(value):
            canonical = json.dumps(value, sort_keys=True, separators=(",", ":"))
            return hashlib.sha256(canonical.encode()).hexdigest()

        assert len(documents) == 744
        assert digest(documents) == "2ce8598f5cd97d22701324269d0172ee1a6af429e86a31358ec861a31306e025"
        assert digest(report) == "34a0fe13f62563e7e6d78d48bc0859c7cbb66a3b1a1e5a2cc65df3df6c3c0e55"

    def test_report_counts_bucketed_and_unbucketed_docs(self, synth_dir, tmp_path, capsys):
        corpus = tmp_path / "reasons"
        shutil.copytree(synth_dir, corpus)
        stamp = "0,0,en,2024-06-01T00:00:00+00:00"
        with (corpus / "dataset_6.csv").open("a") as fh:
            fh.write(f"px-ru,это совсем не английский текст,m001,m001,{stamp},\n")
            fh.write(f"px-stop,the and of to,m001,m001,{stamp},\n")
        with (corpus / "dataset_7.csv").open("a") as fh:
            fh.write(f"px-re,great software love,m002,m002,{stamp},px-ru\n")
        assert run_cli("ingest", "--config", str(corpus / "config.json")) == 0
        report = json.loads(capsys.readouterr().out)
        unbucketed = report["unbucketed_docs"]
        assert set(unbucketed) == {"non_english", "inert", "orphan", "group_owner",
                                   "unknown_owner"}
        assert (unbucketed["non_english"], unbucketed["inert"], unbucketed["orphan"]) == (1, 1, 1)
        assert report["flagged_non_english"] == 1
        assert set(report["bucketed_docs"]) == {str(b) for b in ALL_BUCKETS}
        content = sum(n for no, n in report["dataset_counts"].items() if no != "5")
        assert sum(report["bucketed_docs"].values()) + sum(unbucketed.values()) == content

    def test_ineligible_owners_are_left_out_of_buckets(self, synth_dir, tmp_path, caplog,
                                                       capsys):
        # a member-side document of an owner in neither members.csv nor the
        # mentions, and every member-side owner of one scored bucket made a
        # Group: their documents stay in the bundle but land in no bucket
        corpus = tmp_path / "groups"
        shutil.copytree(synth_dir, corpus, ignore=shutil.ignore_patterns("out"))
        config = str(corpus / "config.json")
        with (corpus / "dataset_6.csv").open("a") as fh:
            fh.write("px-ghost,great software love,Ghost,m777,0,0,en,2024-06-01T00:00:00+00:00,\n")
        assert run_cli("ingest", "--config", config) == 0
        before = json.loads(capsys.readouterr().out)["unbucketed_docs"]
        assert before["unknown_owner"] == 1
        bundle = json.loads((corpus / "out" / "bundle.json").read_text())
        sides = {}
        for doc in bundle["documents"]:
            if doc["bucket"] is not None:
                side = "ego" if doc["dataset_no"] in EGO_DATASETS else "member"
                sides.setdefault(doc["bucket"], {"ego": set(), "member": set()})[side].add(
                    doc["owner_id"])
        bucket = min((b for b, s in sides.items() if s["ego"] and s["member"]),
                     key=lambda b: (len(sides[b]["member"]), b))
        grouped = sides[bucket]["member"]
        moved = sum(1 for d in bundle["documents"]
                    if d["bucket"] is not None and d["owner_id"] in grouped)

        with (corpus / "members.csv").open(newline="") as fh:
            header, *rows = list(csv.reader(fh))
        kind = header.index("kind")
        assert grouped <= {row[0] for row in rows}
        groups = {row[0] for row in rows if row[kind] == "Group"} | grouped
        for row in rows:
            if row[0] in grouped:
                row[kind] = "Group"
        with (corpus / "members.csv").open("w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header, *rows])
        assert run_cli("ingest", "--config", config) == 0
        after = json.loads(capsys.readouterr().out)["unbucketed_docs"]
        assert after == before | {"group_owner": before["group_owner"] + moved}
        bundle = json.loads((corpus / "out" / "bundle.json").read_text())
        left_out = [d for d in bundle["documents"]
                    if d["dataset_no"] not in EGO_DATASETS and d["owner_id"] in groups | {"m777"}]
        assert any(d["doc_id"] == "d6-px-ghost" for d in left_out)
        assert all(d["bucket"] is None for d in left_out)

        with caplog.at_level("WARNING"):
            assert run_cli("rank", "--config", config, "--bucket", "all") == 0
        assert f"bucket {bucket}: no member documents; writing empty ranking" in [
            r.message for r in caplog.records]
        ranked = set()
        for path in (corpus / "out").glob("ranking_*.json"):
            ranked |= {e["member_id"] for e in json.loads(path.read_text())["entries"]}
        assert ranked and not ranked & (groups | {"m777"})
        slug = bucket.replace("/", "_")
        assert (corpus / "out" / f"ranking_{slug}.csv").read_text().splitlines() == [
            "rank,member_id,score,best_doc_id"]
        assert TestStartup.probe("rank", "--config", config, "--bucket", bucket)["loaded"] == []

    def test_window_drops_rows_on_both_sides_and_counts_them(self, synth_dir, tmp_path, capsys):
        since, until = "2024-01-10T00:00:00+00:00", "2024-05-01T00:00:00+00:00"
        out = tmp_path / "windowed"
        assert run_cli("ingest", "--config", str(synth_dir / "config.json"), "--out-dir", str(out),
                       "--since", since, "--until", until) == 0
        report = json.loads(capsys.readouterr().out)
        low, high = parse_timestamp(since), parse_timestamp(until)
        kept, early, late = set(), 0, 0
        for no in CONTENT_DATASETS:
            with (synth_dir / f"dataset_{no}.csv").open(newline="") as fh:
                rows = list(csv.DictReader(fh))
            times = [parse_timestamp(row["time"]) for row in rows]
            early += sum(t < low for t in times)
            late += sum(t > high for t in times)
            inside = [row for row, t in zip(rows, times) if low <= t <= high]
            kept |= {f"d{no}-{row['post_id']}" for row in inside}
            assert report["dataset_counts"][str(no)] == len(inside), no
            assert report["window_dropped"][str(no)] == len(rows) - len(inside), no
        assert early and late, "expected synth rows on both sides of the window"
        assert set(report["window_dropped"]) == {str(no) for no in CONTENT_DATASETS}
        bundle = json.loads((out / "bundle.json").read_text())
        assert {d["doc_id"] for d in bundle["documents"]} == kept

    def test_window_keeps_rows_at_both_bounds(self, synth_dir, tmp_path, capsys):
        # The window is closed: a row timed exactly at --since or at --until is kept.
        with (synth_dir / "dataset_1.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        stamps = sorted({row["time"] for row in rows}, key=parse_timestamp)
        since, until = stamps[1], stamps[-2]  # each the time of one row; one row lies outside each
        assert run_cli("ingest", "--config", str(synth_dir / "config.json"),
                       "--out-dir", str(tmp_path), "--since", since, "--until", until) == 0
        report = json.loads(capsys.readouterr().out)
        low, high = parse_timestamp(since), parse_timestamp(until)
        inside = sum(low <= parse_timestamp(row["time"]) <= high for row in rows)
        assert report["dataset_counts"]["1"] == inside
        assert report["window_dropped"]["1"] == len(rows) - inside == 2

    def test_z_bound_filters_as_utc_offset(self, synth_dir, tmp_path, capsys):
        # Python 3.10's fromisoformat rejects a trailing Z; the bound must not.
        written = []
        for n, since in enumerate(("2024-05-01T00:00:00Z", "2024-05-01T00:00:00+00:00")):
            out = tmp_path / f"out{n}"
            assert run_cli("ingest", "--config", str(synth_dir / "config.json"),
                           "--out-dir", str(out), "--since", since) == 0
            written.append((capsys.readouterr().out, (out / "bundle.json").read_bytes()))
        assert written[0] == written[1]
        assert sum(json.loads(written[0][0])["window_dropped"].values())

    def test_bundle_holds_tokens_and_buckets_as_ingest_returns_them(self, synth_dir, tmp_path):
        config = str(synth_dir / "config.json")
        assert run_cli("ingest", "--config", config, "--out-dir", str(tmp_path)) == 0
        bundle = json.loads((tmp_path / "bundle.json").read_text())
        assert set(bundle) == {"inputs", "members", "df", "n", "documents"}
        assert {key for d in bundle["documents"] for key in d} == {
            "doc_id", "owner_id", "dataset_no", "tokens", "bucket"}

    def test_fingerprint_names_each_ingest_input_once(self, synth_dir):
        # The bundle's ``inputs``, by the names a stale bundle's message prints.
        inputs = load_config(synth_dir / "config.json", {}).ingest_inputs()
        assert list(inputs) == [
            "version", "platform", "ego_id", "window",
            *(f"datasets.{no}" for no in range(1, 10)),
            *(f"resources.{key}" for key in RESOURCE_KEYS if key != "embeddings")]
        assert inputs["version"] == __version__
        assert inputs["datasets.5"] == hashlib.sha256(
            (synth_dir / "members.csv").read_bytes()).hexdigest()
        assert inputs["resources.stop_list"] is None  # the shipped default

    def test_bundle_df_and_n_span_every_non_inert_document(self, synth_dir, tmp_path):
        config = str(synth_dir / "config.json")
        assert run_cli("ingest", "--config", config, "--out-dir", str(tmp_path)) == 0
        bundle = json.loads((tmp_path / "bundle.json").read_text())
        non_inert = [d for d in bundle["documents"] if d["tokens"]]
        assert any(d["bucket"] is None for d in non_inert), "expected unbucketed documents"
        df = {}
        for d in non_inert:
            for word in set(d["tokens"].split()):
                df[word] = df.get(word, 0) + 1
        assert bundle["n"] == len(non_inert)
        assert bundle["df"] == df

    def test_load_bundle_fills_only_the_requested_buckets(self, ingested):
        cfg = load_config(ingested / "config.json", {})
        full = pipeline.load_bundle(cfg._replace(bucket=ALL_BUCKETS))
        filled = [b for b in ALL_BUCKETS if full.buckets[b]]
        assert len(filled) > 1
        one = pipeline.load_bundle(cfg._replace(bucket=tuple(filled[:1])))
        assert one.buckets[filled[0]] == full.buckets[filled[0]]
        assert all(not docs for b, docs in one.buckets.items() if b != filled[0])
        assert (one.df, one.n) == (full.df, full.n)

    def test_no_document_keeps_its_time_past_the_window(self, synth_dir, tmp_path, monkeypatch):
        # The window filter is the last reader of a document's time.
        reached = []
        build = pipeline.build_document_set

        def check(clean_docs, **kwargs):
            reached.extend(clean_docs)
            return build(clean_docs, **kwargs)

        monkeypatch.setattr(pipeline, "build_document_set", check)
        assert run_cli("ingest", "--config", str(synth_dir / "config.json"),
                       "--out-dir", str(tmp_path)) == 0
        assert reached and all(doc.time is None for doc in reached)

    def test_spelling_search_runs_once_per_distinct_word(self, synth_dir, tmp_path, monkeypatch):
        # Spelling correction is pure, so one ingest searches the
        # neighbours of each unknown word once, however often it occurs.
        spelling = tmp_path / "spelling.tsv"
        spelling.write_text("good\t10\ngreat\t5\nlove\t3\n")
        searched = Counter()
        edits1 = textprep._edits1

        def count(word):
            searched[word] += 1
            return edits1(word)

        monkeypatch.setattr(textprep, "_edits1", count)
        assert run_cli("ingest", "--config", str(synth_dir / "config.json"), "--out-dir",
                       str(tmp_path / "out"), "--spelling-dictionary", str(spelling)) == 0
        assert searched and max(searched.values()) == 1

    def test_bad_row_exits_data_error(self, synth_dir, tmp_path, caplog):
        for case, (name, row) in enumerate([
            ("dataset_1.csv", "px,some text,Ego,ego,-3,0,en,2024-06-01T00:00:00+00:00,"),
            ("dataset_6.csv", "px,some text,Al,m001,x,0,en,2024-06-01T00:00:00+00:00,"),
            ("dataset_1.csv", "px,some text,Ego,ego,0,0,en,not-a-time,"),
            ("members.csv", "m099,Someone,Stranger,Post,"),
        ]):
            broken = tmp_path / f"badrow{case}"
            shutil.copytree(synth_dir, broken)
            path = broken / name
            lines = path.read_text().splitlines()
            lines.append(row)
            path.write_text("\n".join(lines) + "\n")
            caplog.clear()
            with caplog.at_level("ERROR"):
                code = run_cli("ingest", "--config", str(broken / "config.json"))
            assert code == 2, name
            assert any(f"{path}: row {len(lines)}:" in r.message for r in caplog.records), name

    # One row per raise site of the CSV loaders: the file, the line that goes
    # last in it (or, after "HEADER ", the header that replaces its first), and
    # the whole message after the file's path, where {n} is that line's number.
    @pytest.mark.parametrize("name, line, detail", [
        ("dataset_1.csv", "px,some text", "row {n}: expected 9 columns, got 2"),
        ("members.csv", "m099,Someone", "row {n}: expected 5 columns, got 2"),
        ("dataset_1.csv", f",some text,Ego,ego,{STAMP}", "row {n}: empty post_id"),
        ("dataset_6.csv", f"px,some text,Al,,{STAMP}", "row {n}: empty user_id"),
        ("members.csv", ",Someone,Friend,Post,", "row {n}: empty member_id"),
        ("members.csv", "m099,Someone,Friend,Post;Poke,",
         "row {n}: unknown activity in 'Post;Poke'"),
        ("members.csv", "m099,Someone,Friend,,",
         "row {n}: activity_types must name at least one activity"),
        ("seed_categories.csv", "HEADER txt,category", "row 1: header must be text,category"),
        ("seed_categories.csv", "HEADER category,text", "row 1: header must be text,category"),
        ("seed_categories.csv", "one,two,three", "row {n}: expected 2 columns, got 3"),
        ("dataset_6.csv", f"px,{'x' * 131073},Al,m001,{STAMP}",
         "row {n}: field larger than field limit (131072)"),
        ("members.csv", f"m099,{'x' * 131073},Friend,Post,",
         "row {n}: field larger than field limit (131072)"),
        ("seed_categories.csv", f"{'x' * 131073},Technology",
         "row {n}: field larger than field limit (131072)"),
        # The first two read as instants that a UTC datetime cannot hold; the
        # third's separator is outside the documented grammar.
        *(("dataset_6.csv", f"px,some text,Al,m001,0,0,en,{time},",
           f"row {{n}}: unparseable timestamp '{time}'")
          for time in ("0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59-01:00",
                       "2024-01-02x03:04:05")),
    ], ids=["activity_columns", "member_columns", "empty_post_id", "empty_user_id",
            "empty_member_id", "unknown_activity", "no_activity", "seed_header",
            "seed_header_order", "seed_columns", "activity_cell_too_long",
            "member_cell_too_long", "seed_cell_too_long", "time_before_utc_range",
            "time_after_utc_range", "time_other_separator"])
    def test_malformed_input_names_file_and_line(self, synth_dir, tmp_path, caplog, name,
                                                 line, detail):
        broken = tmp_path / "broken"
        shutil.copytree(synth_dir, broken, ignore=shutil.ignore_patterns("out"))
        path = broken / name
        lines = path.read_text().splitlines()
        if line.startswith("HEADER "):
            lines[0] = line.removeprefix("HEADER ")
        else:
            lines.append(line)
        path.write_text("\n".join(lines) + "\n")
        with caplog.at_level("ERROR"):
            code = run_cli("ingest", "--config", str(broken / "config.json"))
        assert code == 2
        assert [r.message for r in caplog.records] == [f"{path}: {detail.format(n=len(lines))}"]

    @pytest.mark.parametrize("name", ["dataset_6.csv", "members.csv", "seed_categories.csv",
                                      "embeddings.txt"])
    def test_input_not_utf8_exits_data_error(self, synth_dir, tmp_path, caplog, name):
        broken = tmp_path / "broken"
        shutil.copytree(synth_dir, broken, ignore=shutil.ignore_patterns("out"))
        path = broken / name
        path.write_bytes(path.read_bytes() + b"caf\xff\n")
        with caplog.at_level("ERROR"):
            code = run_cli("run", "--config", str(broken / "config.json"))
        assert code == 2
        assert [r.message for r in caplog.records] == [f"{path}: not UTF-8 text"]

    def test_zero_embedding_row_exits_data_error(self, synth_dir, tmp_path, caplog):
        # Only the rows of words that bucketed documents hold are parsed as
        # numbers, so zero the row of a word every synth corpus scores.
        broken = tmp_path / "zero"
        shutil.copytree(synth_dir, broken)
        path = broken / "embeddings.txt"
        lines = path.read_text().splitlines()
        index = next(i for i, line in enumerate(lines) if line.split()[0] == "software")
        word, *components = lines[index].split()
        lines[index] = " ".join([word] + ["0.000000"] * len(components))
        path.write_text("\n".join(lines) + "\n")
        with caplog.at_level("ERROR"):
            code = run_cli("run", "--config", str(broken / "config.json"),
                           "--out-dir", str(tmp_path / "out"))
        assert code == 2
        assert any(f"{path}: row {index + 1}" in r.message and repr(word) in r.message
                   for r in caplog.records)

    @staticmethod
    def run_with_resource(synth_dir, tmp_path, resource, text):
        """Exit code of ``run`` on the synth inputs with ``resource`` holding ``text``."""
        broken = tmp_path / "badresource"
        shutil.copytree(synth_dir, broken)
        path = broken / f"{resource}.txt"
        path.write_text(text)
        config = json.loads((broken / "config.json").read_text())
        config["resources"][resource] = str(path)
        (broken / "config.json").write_text(json.dumps(config))
        return run_cli("run", "--config", str(broken / "config.json"),
                       "--out-dir", str(tmp_path / "out")), path

    # (resource, its text): the message after "PATH: ".
    BAD_LINES = {
        ("lemma_dictionary", "runs\trun\nbroken line\n"): "line 2: expected form<TAB>lemma",
        ("sentiment_lexicon", "good\t1.9\nbad\tvery\n"): "line 2: bad valence 'very'",
        ("labeled_seed", "text,category\nfine text,Technology\none,two,three\n"):
            "row 3: expected 2 columns, got 3",
        ("spelling_dictionary", "good\t10\nbroken line\n"): "line 2: expected word<TAB>count",
        # A comment line is skipped, as in the other two tab-separated resources.
        ("spelling_dictionary", "# unigram counts\ngood\t10\nbroken line\n"):
            "line 3: expected word<TAB>count",
        ("labeled_seed", "text,category\ngreat code software,Technlogy\n"):
            "row 2: unknown category 'Technlogy'",
    }

    @pytest.mark.parametrize("resource, text", BAD_LINES)
    def test_bad_resource_line_names_file(self, synth_dir, tmp_path, caplog, resource, text):
        with caplog.at_level("ERROR"):
            code, path = self.run_with_resource(synth_dir, tmp_path, resource, text)
        assert code == 2
        assert [r.message for r in caplog.records] == [f"{path}: {self.BAD_LINES[resource, text]}"]

    @pytest.mark.parametrize("resource, text, exit_code, message", [
        ("lemma_dictionary", "# no entries\n", 1, "no lemma dictionary loaded"),
        ("sentiment_lexicon", "# no entries\n", 1, "no sentiment lexicon loaded"),
        ("labeled_seed", None, 2, "training data has no examples for category 'Entertainment'"),
    ], ids=["empty_lemmas", "empty_lexicon", "seed_without_category"])
    def test_unusable_resource_exit_code(self, synth_dir, tmp_path, caplog, resource, text,
                                         exit_code, message):
        if text is None:  # the synth seed corpus without its Entertainment rows
            rows = (synth_dir / "seed_categories.csv").read_text().splitlines()
            text = "\n".join(r for r in rows if not r.endswith(",Entertainment")) + "\n"
        with caplog.at_level("ERROR"):
            code, _ = self.run_with_resource(synth_dir, tmp_path, resource, text)
        assert code == exit_code
        assert message in [r.message for r in caplog.records]


@pytest.fixture(scope="module")
def seed7_dir(tmp_path_factory):
    """The default ``synth --seed 7`` tree: members m001-m060, named member001-member060,
    none with a Tag activity, and no ``@`` in any text."""
    out = tmp_path_factory.mktemp("seed7")
    assert run_cli("synth", "--out", str(out), "--seed", "7") == 0
    return out


class TestMentions:
    """The paper's first stage end to end: ``@`` mentions in the ego's posts
    update the list of interacted members."""

    @staticmethod
    def ingest_with_ego_post(seed7_dir, tmp_path, text, member_rows=()):
        """Ingest the seed-7 tree with one more ego post and dataset-6 rows;
        returns the tree's copy, the ingest report and the bundle."""
        corpus = tmp_path / "mentions"
        shutil.copytree(seed7_dir, corpus)
        with (corpus / "dataset_1.csv").open("a") as fh:
            fh.write(f"px-mention,{text},ego,ego,{STAMP}\n")
        with (corpus / "dataset_6.csv").open("a") as fh:
            fh.writelines(f"{row}\n" for row in member_rows)
        assert run_cli("ingest", "--config", str(corpus / "config.json")) == 0
        report = json.loads((corpus / "out" / "ingest_report.json").read_text())
        bundle = json.loads((corpus / "out" / "bundle.json").read_text())
        return corpus, report, bundle

    def test_mention_only_member_is_added_bucketed_and_ranked(self, seed7_dir, tmp_path):
        corpus, report, bundle = self.ingest_with_ego_post(
            seed7_dir, tmp_path, "hey @m777 great software love",
            [f"px-m777,great software love,m777,m777,{STAMP}"])
        assert (report["mentions_harvested"], report["members_before_merge"],
                report["members_after_merge"]) == (1, 60, 61)
        assert report["unbucketed_docs"]["unknown_owner"] == 0
        assert [m for m in bundle["members"] if m["member_id"] == "m777"] == [
            {"member_id": "m777", "display_name": "m777", "kind": "Connection",
             "activity_types": ["Tag"], "connections_count": None}]
        (doc,) = [d for d in bundle["documents"] if d["owner_id"] == "m777"]
        assert doc["bucket"] == "Technology/Positive"
        config = str(corpus / "config.json")
        assert run_cli("rank", "--config", config, "--bucket", "Technology/Positive") == 0
        ranking = json.loads((corpus / "out" / "ranking_Technology_Positive.json").read_text())
        (entry,) = [e for e in ranking["entries"] if e["member_id"] == "m777"]
        assert entry["best_doc_id"] == doc["doc_id"]

    @pytest.mark.parametrize("text, harvested, tagged", [
        ("hey @member001 great software love", 1, "m001"),
        ("mail a@b.com great software love", 0, None),
    ], ids=["display_name", "email_address"])
    def test_mention_adds_no_member(self, seed7_dir, tmp_path, text, harvested, tagged):
        _, report, bundle = self.ingest_with_ego_post(seed7_dir, tmp_path, text)
        members = {m["member_id"]: m for m in bundle["members"]}
        assert (report["mentions_harvested"], report["members_after_merge"]) == (harvested, 60)
        assert set(members) == {f"m{i:03d}" for i in range(1, 61)}
        assert [mid for mid, m in members.items() if "Tag" in m["activity_types"]] == (
            [tagged] if tagged else [])


@pytest.mark.usefixtures("ingested")
class TestRank:
    def test_report_format_contract(self, synth_dir):
        assert run_cli("rank", "--config", str(synth_dir / "config.json")) == 0
        csv_path = synth_dir / "out" / "ranking_Technology_Positive.csv"
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "rank,member_id,score,best_doc_id"
        assert len(lines) > 1
        first = lines[1].split(",")
        assert first[0] == "1"
        json_path = synth_dir / "out" / "ranking_Technology_Positive.json"
        report = json.loads(json_path.read_text())
        assert set(report) == {"bucket", "normalization", "bundle_sha256",
                               "embeddings_sha256", "entries"}
        assert report["entries"][0]["rank"] == 1

    def test_scores_non_increasing(self, targeted):
        report = json.loads(
            (targeted / "out" / "ranking_Technology_Positive.json").read_text()
        )
        scores = [e["score"] for e in report["entries"]]
        assert scores == sorted(scores, reverse=True)

    def test_empty_bucket_warning_and_empty_report(self, synth_dir, tmp_path, caplog):
        config = str(synth_dir / "config.json")
        assert run_cli("ingest", "--config", config, "--out-dir", str(tmp_path)) == 0
        with caplog.at_level("WARNING"):
            code = run_cli("rank", "--config", config, "--out-dir", str(tmp_path))
        assert code == 0
        empty_warnings = [r for r in caplog.records if "empty ranking" in r.message]
        assert empty_warnings, "expected at least one thin bucket in the fixture"
        # the warned bucket still gets a header-only report, not a crash
        first = empty_warnings[0].message.split(":")[0].replace("bucket ", "")
        slug = first.replace("/", "_")
        lines = (tmp_path / f"ranking_{slug}.csv").read_text().splitlines()
        assert lines == ["rank,member_id,score,best_doc_id"]

    def test_current_rankings_are_reused(self, synth_dir, tmp_path, monkeypatch, capsys):
        config = str(synth_dir / "config.json")
        rank = ("rank", "--config", config, "--out-dir", str(tmp_path), "--bucket", "all")
        assert run_cli("ingest", "--config", config, "--out-dir", str(tmp_path)) == 0
        capsys.readouterr()
        assert run_cli(*rank) == 0
        printed = capsys.readouterr().out
        saved = sorted(tmp_path.glob("ranking_*"))
        assert len(saved) == 20
        for path in saved:
            os.utime(path, ns=(10**9, 10**9))
        before = {path: path.read_bytes() for path in saved}

        def refuse(*args, **kwargs):
            raise AssertionError("a current ranking was made again")

        for name in ("score_bucket", "load_word_vectors"):
            monkeypatch.setattr(pipeline, name, refuse)
        assert run_cli(*rank) == 0
        assert capsys.readouterr().out == printed
        assert sorted(tmp_path.glob("ranking_*")) == saved
        for path in saved:
            assert path.read_bytes() == before[path], path.name
            assert path.stat().st_mtime_ns == 10**9, path.name

    def test_empty_bucket_sides(self, synth_dir, tmp_path, caplog):
        config = str(synth_dir / "config.json")
        out = tmp_path / "sides"
        assert run_cli("ingest", "--config", config, "--out-dir", str(out)) == 0
        # Rewrite the bundle so that one bucket holds a single ego document
        # and another a single member document.
        bundle_path = out / "bundle.json"
        bundle = json.loads(bundle_path.read_text())
        ego_only, member_only = "Sports/Negative", "Politics/Negative"
        for doc in bundle["documents"]:
            if doc["bucket"] in (ego_only, member_only):
                doc["bucket"] = None
        documents = [d for d in bundle["documents"] if d["tokens"]]
        next(d for d in documents if d["dataset_no"] == 1)["bucket"] = ego_only
        next(d for d in documents if d["dataset_no"] == 6)["bucket"] = member_only
        bundle_path.write_text(json.dumps(bundle))
        seal(out)

        cfg = load_config(config, {"out_dir": str(out)})
        provenance = {
            "normalization": cfg.normalization,
            "bundle_sha256": pipeline.load_bundle(cfg._replace(bucket=())).bundle_sha256,
            "embeddings_sha256": hashlib.sha256(
                (synth_dir / "embeddings.txt").read_bytes()).hexdigest(),
        }
        saved = []
        for bucket, side in ((ego_only, "member"), (member_only, "ego")):
            caplog.clear()
            with caplog.at_level("WARNING"):
                assert run_cli("rank", "--config", config, "--out-dir", str(out),
                               "--bucket", bucket) == 0
            assert [r.message for r in caplog.records] == [
                f"bucket {bucket}: no {side} documents; writing empty ranking"]
            slug = bucket.replace("/", "_")
            csv_path, json_path = out / f"ranking_{slug}.csv", out / f"ranking_{slug}.json"
            assert csv_path.read_text().splitlines() == ["rank,member_id,score,best_doc_id"]
            report = json.loads(json_path.read_text())
            assert report["entries"] == []
            assert {key: report[key] for key in provenance} == provenance
            saved += [csv_path, json_path]

        for path in saved:
            os.utime(path, ns=(10**9, 10**9))
        before = {path: path.read_bytes() for path in saved}
        assert run_cli("targets", "--config", config, "--out-dir", str(out), "--bucket", "all") == 0
        for path in saved:
            assert path.read_bytes() == before[path], path.name
            assert path.stat().st_mtime_ns == 10**9, path.name

    @pytest.mark.parametrize("defect", ["repeated_word", "short_row"])
    def test_unscored_bucket_still_checks_embeddings(self, synth_dir, tmp_path, caplog, defect):
        corpus = tmp_path / "corpus"
        shutil.copytree(synth_dir, corpus, ignore=shutil.ignore_patterns("out"))
        config = str(corpus / "config.json")
        out = corpus / "out"
        assert run_cli("ingest", "--config", config) == 0
        path = corpus / "embeddings.txt"
        lines = path.read_text().splitlines()
        if defect == "repeated_word":
            lines.append(lines[1])
            row = len(lines)
        else:
            lines[2] = lines[2].rsplit(" ", 1)[0]
            row = 3
        path.write_text("\n".join(lines) + "\n")
        with caplog.at_level("ERROR"):
            code = run_cli("rank", "--config", config, "--bucket", bucket_without_ego(out))
        assert code == 2
        assert any(f"{path}: row {row}:" in r.message for r in caplog.records)
        assert not list(out.glob("ranking_*"))

    def test_truncated_embeddings_exit_data_error(self, synth_dir, tmp_path, caplog):
        corpus = tmp_path / "corpus"
        shutil.copytree(synth_dir, corpus, ignore=shutil.ignore_patterns("out"))
        config = str(corpus / "config.json")
        out = corpus / "out"
        assert run_cli("ingest", "--config", config) == 0
        # cut at a line boundary, so that every row left is well formed
        path = corpus / "embeddings.txt"
        header, *rows = path.read_text().splitlines()
        kept = len(rows) // 2
        path.write_text("\n".join([header] + rows[:kept]) + "\n")
        message = f"{path}: header declares {header.split()[0]} rows, but {kept} were read"
        for argv in (("run",), ("rank", "--bucket", bucket_without_ego(out))):
            caplog.clear()
            with caplog.at_level("ERROR"):
                code = run_cli(*argv, "--config", config)
            assert code == 2, argv
            assert [r.message for r in caplog.records] == [message], argv
        assert not list(out.glob("ranking_*"))

    def test_rerun_identical_reports(self, synth_dir):
        out = synth_dir / "out"
        run_cli("rank", "--config", str(synth_dir / "config.json"))
        before = {p.name: p.read_bytes() for p in out.glob("ranking_*")}
        run_cli("rank", "--config", str(synth_dir / "config.json"))
        after = {p.name: p.read_bytes() for p in out.glob("ranking_*")}
        assert before == after

    def test_bad_normalization_in_config_exits_config_error(self, synth_dir, caplog):
        median = synth_dir / "median.json"
        config = json.loads((synth_dir / "config.json").read_text())
        config["normalization"] = "median"
        median.write_text(json.dumps(config))
        with caplog.at_level("ERROR"):
            code = run_cli("rank", "--config", str(median))
        assert code == 1
        assert any("normalization" in r.message and "'median'" in r.message
                   for r in caplog.records)

    def test_zero_workers_exits_config_error(self, synth_dir, caplog):
        with caplog.at_level("ERROR"):
            code = run_cli("rank", "--config", str(synth_dir / "config.json"), "--workers", "0")
        assert code == 1
        assert any("workers must be >= 1" in r.message for r in caplog.records)

    @pytest.mark.parametrize("command", ["rank", "targets"])
    @pytest.mark.parametrize("edit, argv, field", [
        (lambda d: d.joinpath("dataset_6.csv").write_text(
            d.joinpath("dataset_6.csv").read_text().replace("internet", "intranet", 1)),
         (), "datasets.6"),
        (lambda d: d.joinpath("members.csv").write_text(
            d.joinpath("members.csv").read_text().replace(",12540\n", ",12541\n", 1)),
         (), "datasets.5"),
        (lambda d: None, ("--since", "2024-03-01T00:00:00+00:00"), "window"),
        (lambda d: None, ("--platform", "Twitter"),
         "platform; it records 'Facebook', now 'Twitter'"),
        (lambda d: None, ("--ego-id", "m001"), "ego_id; it records 'ego', now 'm001'"),
        (lambda d: d.joinpath("lemmas.tsv").write_text("runs\trun\n"),
         ("--lemma-dictionary", "LEMMAS"), "resources.lemma_dictionary"),
        (ingested_by_0_1_0, (), f"version; it records '0.1.0', now '{__version__}'"),
    ], ids=["dataset_content", "members_csv", "since", "platform", "ego_id", "lemma_dictionary",
            "version"])
    def test_stale_bundle_exits_config_error(self, synth_dir, tmp_path, caplog,
                                             command, edit, argv, field):
        corpus = tmp_path / "corpus"
        shutil.copytree(synth_dir, corpus)
        config = str(corpus / "config.json")
        assert run_cli("ingest", "--config", config) == 0
        edit(corpus)
        argv = [str(corpus / "lemmas.tsv") if a == "LEMMAS" else a for a in argv]
        with caplog.at_level("ERROR"):
            code = run_cli(command, "--config", config, *argv)
        assert code == 1
        assert any(f"bundle.json was ingested with a different {field};" in r.message
                   for r in caplog.records)

    @pytest.mark.parametrize("edit", [
        lambda bundle: bundle.update(inputs=[]),
        lambda bundle: bundle["documents"][0].pop("bucket"),
        lambda bundle: bundle["members"].__setitem__(0, {}),
        lambda bundle: bundle["members"][0].update(kind="Robot"),
        lambda bundle: bundle["members"][0].update(connections_count="9000"),
        lambda bundle: bundle["members"][0].update(connections_count=-1),
        lambda bundle: bundle["members"][0].update(connections_count=True),
        lambda bundle: bundle["members"][0].update(member_id=5),
        lambda bundle: bundle.update(df=[]),
        lambda bundle: bundle["df"].pop(ego_word(bundle)),
        lambda bundle: bundle["df"].update({ego_word(bundle): 0}),
        lambda bundle: bundle["df"].update({ego_word(bundle): bundle["n"] + 1}),
        lambda bundle: bundle.update(n="x"),
        lambda bundle: bundle.update(n=-1),
        lambda bundle: ego_document(bundle).update(tokens=5),
        lambda bundle: ego_document(bundle).update(tokens=""),
        lambda bundle: member_document(bundle).update(tokens=""),
        lambda bundle: ego_document(bundle).update(doc_id=7),
        lambda bundle: ego_document(bundle).update(owner_id=None),
        lambda bundle: ego_document(bundle).update(dataset_no="1"),
        lambda bundle: ego_document(bundle).update(dataset_no=5),
        lambda bundle: ego_document(bundle).update(dataset_no=True),
        lambda bundle: ego_document(bundle).update(bucket="Technology/Neutral"),
        edit_values,
    ], ids=["inputs_a_list", "document_without_bucket", "empty_member", "unknown_member_kind",
            "connections_count_a_string", "connections_count_negative",
            "connections_count_true", "member_id_not_a_string",
            "df_a_list", "df_missing_a_word", "df_zero", "df_above_n",
            "n_a_string", "n_negative",
            "tokens_not_a_string", "ego_tokens_empty", "member_tokens_empty", "doc_id_not_a_string", "owner_id_null",
            "ego_dataset_no_a_string", "dataset_no_5", "dataset_no_true", "unknown_bucket",
            "values_only"])
    def test_malformed_bundle_exits_config_error(self, ingested, tmp_path, caplog, edit):
        # The edited bundle keeps its seal, and is written as ingest writes
        # it, so only the edit changes a byte.
        copy_bundle(ingested / "out", tmp_path)
        text = (tmp_path / "bundle.json").read_text()
        bundle = json.loads(text)
        assert bundle_text(bundle) == text
        edit(bundle)
        (tmp_path / "bundle.json").write_text(bundle_text(bundle))
        caplog.clear()
        with caplog.at_level("ERROR"):
            code = run_cli("rank", "--config", str(ingested / "config.json"),
                           "--out-dir", str(tmp_path))
        assert code == 1
        assert [r.message for r in caplog.records] == [
            f"{tmp_path / 'bundle.json'} does not match {tmp_path / 'bundle.json.sha256'}; "
            "run ingest again"]

    @pytest.mark.parametrize("case", ["seal_missing", "ingest_died_before_the_seal"])
    def test_unsealed_bundle_exits_config_error(self, synth_dir, tmp_path, caplog, monkeypatch,
                                                case):
        argv = ["--config", str(synth_dir / "config.json"), "--out-dir", str(tmp_path)]
        assert run_cli("ingest", *argv) == 0
        bundle, sealed = tmp_path / "bundle.json", tmp_path / "bundle.json.sha256"
        # sha256sum's format, so that `sha256sum -c bundle.json.sha256` checks it too
        assert sealed.read_text() == (
            f"{hashlib.sha256(bundle.read_bytes()).hexdigest()}  bundle.json\n")
        if case == "seal_missing":
            sealed.unlink()
        else:
            # An ingest from other inputs replaces the bundle, then dies
            # before it replaces the seal.
            replace = pipeline._replace

            def die_at_the_seal(path, text):
                if path == sealed:
                    raise OSError("No space left on device")
                replace(path, text)

            argv += ["--since", "2024-03-01T00:00:00+00:00"]
            before = bundle.read_bytes()
            with monkeypatch.context() as patch:
                patch.setattr(pipeline, "_replace", die_at_the_seal)
                assert run_cli("ingest", *argv) == 1
            assert bundle.read_bytes() != before
            # The first ingest's report describes a bundle that is gone.
            assert not (tmp_path / "ingest_report.json").exists()
        for command in ("rank", "targets"):
            caplog.clear()
            with caplog.at_level("ERROR"):
                assert run_cli(command, *argv) == 1
            assert [r.message for r in caplog.records] == [
                f"{bundle} does not match {sealed}; run ingest again"]

    def test_rank_reads_labels_from_the_bundle(self, synth_dir, tmp_path, monkeypatch):
        config = str(synth_dir / "config.json")
        assert run_cli("ingest", "--config", config, "--out-dir", str(tmp_path)) == 0

        def relabel(*args, **kwargs):
            raise AssertionError("rank relabelled the corpus")

        for name in ("build_document_set", "label_documents", "train_category_classifier"):
            monkeypatch.setattr(pipeline, name, relabel)
        assert run_cli("rank", "--config", config, "--out-dir", str(tmp_path)) == 0
        assert len(list(tmp_path.glob("ranking_*.json"))) == 10

    def test_rank_takes_out_the_records_it_ranks(self, ingested, tmp_path, monkeypatch):
        # A bucket's bundle records are freed once its documents are built,
        # before the word vectors load.
        cfg = load_config(ingested / "config.json",
                          {"out_dir": str(tmp_path), "bucket": "Technology/Positive"})
        copy_bundle(ingested / "out", tmp_path)
        ingest = pipeline.load_bundle(cfg)
        (bucket,) = cfg.bucket
        assert ingest.buckets[bucket]

        def load(path, words):
            assert not ingest.buckets.get(bucket), "records held while the vectors load"
            return load_word_vectors(path, words)

        monkeypatch.setattr(pipeline, "load_word_vectors", load)
        assert pipeline.run_rank(cfg, ingest)[bucket].entries
        assert not ingest.buckets.get(bucket)

    def test_each_bucket_model_holds_that_bucket_only(self, ingested, tmp_path, monkeypatch):
        # No bucket's score reads another bucket's documents, so each scored
        # bucket's model is built, in the worker that scores it, from its own.
        copy_bundle(ingested / "out", tmp_path)
        bundle = json.loads((tmp_path / "bundle.json").read_text())
        buckets: dict[str, list[dict]] = {}
        for d in bundle["documents"]:
            buckets.setdefault(d["bucket"], []).append(d)
        scored = sorted(
            sorted(d["doc_id"] for d in docs) for bucket, docs in buckets.items()
            if bucket and {d["dataset_no"] in EGO_DATASETS for d in docs} == {True, False})
        assert len(scored) > 1
        built, build = [], SimilarityModels.build

        def record(df, n, vectors, docs):
            docs = list(docs)
            built.append(({d.doc_id for d in docs}, threading.current_thread()))
            return build(df, n, vectors, docs)

        monkeypatch.setattr(SimilarityModels, "build", record)
        assert run_cli("rank", "--config", str(ingested / "config.json"), "--bucket", "all",
                       "--out-dir", str(tmp_path)) == 0
        assert sorted(sorted(ids) for ids, _ in built) == scored
        assert threading.main_thread() not in {thread for _, thread in built}

    def test_failed_write_keeps_previous_report(self, synth_dir, tmp_path):
        class Unprintable(float):
            def __repr__(self):
                raise RuntimeError("disk went away")

        cfg = load_config(synth_dir / "config.json",
                          {"out_dir": str(tmp_path), "bucket": "Sports/Negative"})
        ranking = MemberRanking(bucket=cfg.bucket[0],
                                entries=[RankEntry("m1", 2.0, "d6-a"), RankEntry("m2", 1.0, "d6-b")])
        pipeline.write_ranking_reports(cfg, ranking, {"bundle_sha256": "0" * 64})
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        # the second row fails after the header and the first row were written
        ranking.entries[1] = RankEntry("m2", Unprintable(1.0), "d6-b")
        with pytest.raises(RuntimeError, match="disk went away"):
            pipeline.write_ranking_reports(cfg, ranking, {"bundle_sha256": "0" * 64})
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("score", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "minus_inf"])
    def test_non_finite_score_is_never_written(self, synth_dir, tmp_path, score):
        with pytest.raises(ValueError):
            pipeline._json({"score": score})
        cfg = load_config(synth_dir / "config.json",
                          {"out_dir": str(tmp_path), "bucket": "Sports/Negative"})
        ranking = MemberRanking(bucket=cfg.bucket[0], entries=[RankEntry("m1", score, "d6-a")])
        with pytest.raises(ValueError):
            pipeline.write_ranking_reports(cfg, ranking, {"bundle_sha256": "0" * 64})
        assert not list(tmp_path.iterdir())


@pytest.mark.usefixtures("ingested")
class TestTargets:
    def test_sections_and_counts(self, synth_dir):
        assert run_cli("targets", "--config", str(synth_dir / "config.json")) == 0
        json_path = synth_dir / "out" / "targets_Technology_Positive.json"
        report = json.loads(json_path.read_text())
        assert report["n_it"] == 5
        assert len(report["selected"]) == report["n_it"]
        assert len(report["effective"]) == report["n_it"] - report["d_it"]
        csv_path = synth_dir / "out" / "targets_Technology_Positive.csv"
        sections = {line.split(",")[0] for line in csv_path.read_text().splitlines()[1:]}
        assert sections <= {"selected", "default", "effective"}
        assert "selected" in sections and "effective" in sections

    def test_digest_chain_runs_from_targets_to_the_seal(self, synth_dir, tmp_path):
        # sha256sum checks every link: a targets JSON names its ranking JSON,
        # which names the bundle by the seal's digest
        assert run_cli("run", "--config", str(synth_dir / "config.json"),
                       "--out-dir", str(tmp_path), "--bucket", "all") == 0
        sealed, name = (tmp_path / "bundle.json.sha256").read_text().split()
        assert name == "bundle.json"
        assert sealed == hashlib.sha256((tmp_path / "bundle.json").read_bytes()).hexdigest()
        rankings = sorted(tmp_path.glob("ranking_*.json"))
        targets = sorted(tmp_path.glob("targets_*.json"))
        assert len(rankings) == 10 and targets
        for path in rankings:
            assert json.loads(path.read_text())["bundle_sha256"] == sealed, path.name
        for path in targets:
            ranking = (tmp_path / path.name.replace("targets_", "ranking_")).read_bytes()
            assert json.loads(path.read_text())["ranking_sha256"] == (
                hashlib.sha256(ranking).hexdigest()), path.name

    def test_planted_megas_are_removed(self, targeted):
        report = json.loads(
            (targeted / "out" / "targets_Technology_Positive.json").read_text()
        )
        truth = json.loads((targeted / "corpus.json").read_text())["synthetic_truth"]
        assert set(report["defaults_removed"]) == set(truth["mega"])

    def test_n_it_out_of_range_cites_bound(self, synth_dir, tmp_path, monkeypatch, caplog):
        # Either bound fails before any ranking is read or scored, also when
        # the one bucket asked for would have an empty ranking.
        strict = synth_dir / "strict.json"
        config = json.loads((synth_dir / "config.json").read_text())
        config["allow_small"] = False
        config["n_it"] = 7
        strict.write_text(json.dumps(config))
        out = tmp_path / "fresh"
        # The bundle's provenance ignores n_it and allow_small, and load_config
        # refuses the strict config, so ingest with synth's own.
        assert run_cli("ingest", "--config", str(synth_dir / "config.json"),
                       "--out-dir", str(out)) == 0

        def score_bucket(*args, **kwargs):
            raise AssertionError("a bucket was scored")

        monkeypatch.setattr(pipeline, "score_bucket", score_bucket)
        for bucket in ("all", bucket_without_ego(out)):
            for argv, message in [
                ((), "n_it = 7 violates the 50 <= N_it <= network-size bound "
                     "(pass --allow-small to relax the lower bound)"),
                (("--allow-small", "--n-it", "23"), "n_it = 23 exceeds the network size 22"),
            ]:
                caplog.clear()
                with caplog.at_level("ERROR"):
                    code = run_cli("targets", "--config", str(strict), "--out-dir", str(out),
                                   "--bucket", bucket, *argv)
                assert code == 1
                assert [r.message for r in caplog.records] == [message]
                assert not list(out.glob("ranking_*"))

    def test_allow_small_relaxes_the_lower_bound(self, synth_dir):
        strict = synth_dir / "strict.json"
        config = json.loads((synth_dir / "config.json").read_text())
        config["allow_small"] = False
        strict.write_text(json.dumps(config))
        assert config["n_it"] < 50
        assert run_cli("targets", "--config", str(strict), "--allow-small") == 0
        report = json.loads((synth_dir / "out" / "targets_Technology_Positive.json").read_text())
        assert report["n_it"] == config["n_it"]

    def test_no_selection_leaves_no_old_targets(self, synth_dir, tmp_path):
        config = str(synth_dir / "config.json")
        out = tmp_path / "out"
        assert run_cli("run", "--config", config, "--out-dir", str(out), "--n-it", "3") == 0
        before = sorted(p.name for p in out.glob("targets_*"))
        assert "targets_Technology_Positive.json" in before
        # A bucket named on the command line exits 2 and loses only its own
        # targets; a sweep in which no ranking holds 20 members leaves none.
        assert run_cli("targets", "--config", config, "--out-dir", str(out), "--n-it", "20",
                       "--bucket", "Technology/Positive") == 2
        assert sorted(p.name for p in out.glob("targets_*")) == [
            name for name in before if "Technology_Positive" not in name]
        assert run_cli("targets", "--config", config, "--out-dir", str(out), "--n-it", "20") == 0
        assert not list(out.glob("targets_*"))

    @pytest.mark.parametrize("flag, message", [
        ("--n-it", "n_it must be >= 1, got 0"),
        ("--threshold", "threshold must be >= 1, got 0"),
    ], ids=["n_it", "threshold"])
    def test_nonpositive_selection_bound_exits_config_error(self, synth_dir, caplog, flag,
                                                           message):
        with caplog.at_level("ERROR"):
            code = run_cli("targets", "--config", str(synth_dir / "config.json"), flag, "0")
        assert code == 1
        assert [r.message for r in caplog.records] == [message]

    def test_targets_computed_on_the_fly_after_ingest(self, synth_dir, tmp_path):
        # fresh out dir: ingest only, then targets must rank for itself
        out = tmp_path / "fresh"
        config = str(synth_dir / "config.json")
        assert run_cli("ingest", "--config", config, "--out-dir", str(out)) == 0
        assert not list(out.glob("ranking_*"))
        assert run_cli("targets", "--config", config, "--out-dir", str(out)) == 0
        assert (out / "targets_Technology_Positive.json").is_file()

    def test_targets_ranks_only_missing_buckets(self, synth_dir, tmp_path):
        out = tmp_path / "partial"
        config = str(synth_dir / "config.json")
        assert run_cli("ingest", "--config", config, "--out-dir", str(out)) == 0
        assert run_cli("rank", "--config", config, "--out-dir", str(out),
                       "--bucket", "Technology/Positive") == 0
        saved = sorted(out.glob("ranking_*"))
        assert [p.name for p in saved] == ["ranking_Technology_Positive.csv",
                                           "ranking_Technology_Positive.json"]
        for path in saved:
            os.utime(path, ns=(10**9, 10**9))
        before = {p.name: p.read_bytes() for p in saved}
        assert run_cli("targets", "--config", config, "--out-dir", str(out), "--bucket", "all") == 0
        for path in saved:
            assert path.read_bytes() == before[path.name], path.name
            assert path.stat().st_mtime_ns == 10**9, path.name
        assert len(list(out.glob("ranking_*.json"))) == 10

    def test_targets_reranks_under_a_new_normalization(self, synth_dir, tmp_path):
        config = str(synth_dir / "config.json")
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert run_cli("run", "--config", config, "--out-dir", str(out),
                       "--normalization", "raw") == 0
        assert run_cli("targets", "--config", config, "--out-dir", str(out),
                       "--normalization", "mean") == 0
        assert run_cli("run", "--config", config, "--out-dir", str(fresh),
                       "--normalization", "mean") == 0
        for path in sorted(out.glob("ranking_*.json")):
            assert json.loads(path.read_text())["normalization"] == "mean", path.name
        for path in sorted(fresh.glob("ranking_*")) + sorted(fresh.glob("targets_*")):
            assert (out / path.name).read_bytes() == path.read_bytes(), path.name

    def test_targets_reranks_after_a_new_ingest(self, synth_dir, tmp_path):
        corpus = tmp_path / "corpus"
        shutil.copytree(synth_dir, corpus)
        config = str(corpus / "config.json")
        assert run_cli("run", "--config", config) == 0
        ranking = corpus / "out" / "ranking_Technology_Positive.json"
        before = json.loads(ranking.read_text())["bundle_sha256"]
        dataset = corpus / "dataset_6.csv"
        dataset.write_text(dataset.read_text().replace("internet", "intranet"))
        assert run_cli("ingest", "--config", config) == 0
        assert run_cli("targets", "--config", config) == 0
        after = json.loads(ranking.read_text())["bundle_sha256"]
        assert after != before
        cfg = load_config(config, {})._replace(bucket=())
        assert after == pipeline.load_bundle(cfg).bundle_sha256
        targets = json.loads((corpus / "out" / "targets_Technology_Positive.json").read_text())
        assert targets["ranking_sha256"] == hashlib.sha256(ranking.read_bytes()).hexdigest()

    def test_targets_reranks_under_new_embeddings(self, synth_dir, tmp_path):
        corpus, fresh = tmp_path / "corpus", tmp_path / "fresh"
        shutil.copytree(synth_dir, corpus)
        config = str(corpus / "config.json")
        assert run_cli("run", "--config", config) == 0
        # the same words, each given the next word's vector
        embeddings = corpus / "embeddings.txt"
        header, *rows = embeddings.read_text().splitlines()
        words = [row.split(" ", 1)[0] for row in rows]
        vectors = [row.split(" ", 1)[1] for row in rows]
        embeddings.write_text("\n".join([header] + [
            f"{word} {vector}" for word, vector in zip(words, vectors[1:] + vectors[:1])]) + "\n")
        new_sha256 = hashlib.sha256(embeddings.read_bytes()).hexdigest()
        assert run_cli("targets", "--config", config) == 0
        assert run_cli("run", "--config", config, "--out-dir", str(fresh)) == 0
        out = corpus / "out"
        for path in sorted(fresh.glob("ranking_*.json")):
            assert json.loads((out / path.name).read_text())["embeddings_sha256"] == new_sha256
        for path in sorted(fresh.glob("ranking_*")) + sorted(fresh.glob("targets_*")):
            assert (out / path.name).read_bytes() == path.read_bytes(), path.name

    @pytest.mark.parametrize("command", ["targets", "run"])
    def test_unreadable_ranking_is_ranked_again(self, synth_dir, tmp_path, command):
        config = str(synth_dir / "config.json")
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        for path in (out, fresh):
            assert run_cli("run", "--config", config, "--out-dir", str(path)) == 0
        truncated = out / "ranking_Technology_Positive.json"
        truncated.write_text(truncated.read_text()[:-20])
        (out / "ranking_Technology_Negative.json").write_text("[]\n")
        (out / "ranking_Sports_Positive.csv").unlink()
        assert run_cli(command, "--config", config, "--out-dir", str(out)) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in fresh.iterdir())
        for path in sorted(fresh.iterdir()):
            assert (out / path.name).read_bytes() == path.read_bytes(), path.name

    # Entries are read as rank's types and must render as saved: a string
    # or bool that float() would take, NaN or infinity, a lone surrogate, a
    # score past float and a file nested past the JSON parser's depth make
    # the bucket rank again.
    @pytest.mark.parametrize("text", [
        *((lambda data, entries=entries: json.dumps(data | {"entries": entries}))
          for entries in [
              [{"rank": 1}],
              "oops",
              [{"rank": 1, "member_id": "m001", "score": "x", "best_doc_id": "d001"}],
              [{"rank": 1, "member_id": 1, "score": 1.0, "best_doc_id": "d001"}],
              *([{"rank": 1, "member_id": "m001", "score": score, "best_doc_id": "d001"}]
                for score in ("0.5", True, "nan", "inf", math.nan, 10**400)),
              [{"rank": 1, "member_id": "\ud800", "score": 1.0, "best_doc_id": "d001"}],
          ]),
        lambda data: "[" * 100_000,
    ], ids=["no_member_id", "entries_not_a_list", "score_not_a_number",
            "member_id_not_a_string", "score_a_string", "score_a_bool", "score_nan_string",
            "score_inf_string", "score_nan", "score_past_float", "member_id_lone_surrogate",
            "nested_100000_deep"])
    def test_malformed_ranking_entry_is_ranked_again(self, synth_dir, tmp_path, caplog, text):
        config = str(synth_dir / "config.json")
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        for path in (out, fresh):
            assert run_cli("run", "--config", config, "--out-dir", str(path)) == 0
        malformed = out / "ranking_Technology_Positive.json"
        malformed.write_text(text(json.loads(malformed.read_text())))
        caplog.clear()
        with caplog.at_level("INFO"):
            assert run_cli("targets", "--config", config, "--out-dir", str(out)) == 0
        assert (f"{malformed} or its CSV twin is not what rank would write now; ranking again"
                in caplog.messages)
        for path in sorted(fresh.iterdir()):
            assert (out / path.name).read_bytes() == path.read_bytes(), path.name

    # A saved ranking is reused only when its JSON and CSV files are, byte
    # for byte, what rank would write now for the entries the JSON holds.
    # A key rank does not write, such as the version older rankings held,
    # makes it rank again too.
    @pytest.mark.parametrize("edit", [
        lambda data, rows: data["entries"].reverse(),  # each entry keeps its rank field
        lambda data, rows: rows[1].__setitem__(2, repr(float(rows[1][2]) + 1.0)),
        lambda data, rows: [entry.update(rank=entry["rank"] - 1) for entry in data["entries"]],
        lambda data, rows: data.update(version="0.1.0"),
    ], ids=["entries_reversed", "csv_score_changed", "rank_from_zero", "extra_version_key"])
    def test_edited_ranking_is_ranked_again(self, synth_dir, tmp_path, caplog, edit):
        config = str(synth_dir / "config.json")
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert run_cli("run", "--config", config, "--out-dir", str(fresh)) == 0
        shutil.copytree(fresh, out)
        edited, twin = out / "ranking_Technology_Positive.json", out / "ranking_Technology_Positive.csv"
        data = json.loads(edited.read_text())
        rows = list(csv.reader(twin.read_text().splitlines()))
        assert len(data["entries"]) > 1
        edit(data, rows)
        edited.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        with twin.open("w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        caplog.clear()
        with caplog.at_level("INFO"):
            assert run_cli("targets", "--config", config, "--out-dir", str(out),
                           "--bucket", "Technology/Positive") == 0
        assert (f"{edited} or its CSV twin is not what rank would write now; ranking again"
                in caplog.messages)
        assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in fresh.iterdir())
        for path in sorted(fresh.iterdir()):
            assert (out / path.name).read_bytes() == path.read_bytes(), path.name

    def test_wrong_vocabulary_warns_of_ties_at_the_cut(self, synth_dir, tmp_path, caplog):
        # Word vectors of the right shape for words that no document holds:
        # every score is 0.0, so member id alone decides each selection.
        header, *rows = (synth_dir / "embeddings.txt").read_text().splitlines()
        wrong = tmp_path / "wrong_vocabulary.txt"
        wrong.write_text("".join(f"{line}\n" for line in [header, *(
            f"zz{i:05d} {row.split(' ', 1)[1]}" for i, row in enumerate(rows))]))
        out = tmp_path / "out"
        with caplog.at_level("WARNING"):
            assert run_cli("run", "--config", str(synth_dir / "config.json"), "--out-dir",
                           str(out), "--embeddings", str(wrong)) == 0
        n_it = json.loads((synth_dir / "config.json").read_text())["n_it"]
        rankings = {}
        for bucket in map(str, ALL_BUCKETS):
            path = out / f"ranking_{bucket.replace('/', '_')}.json"
            rankings[bucket] = json.loads(path.read_text())["entries"]
        assert {e["score"] for entries in rankings.values() for e in entries} == {0.0}
        tied = [bucket for bucket, entries in rankings.items() if len(entries) > n_it]
        assert tied
        assert [r.message for r in caplog.records if "tie" in r.message] == [
            f"bucket {bucket}: members ranked {n_it} and {n_it + 1} tie on score 0.0; "
            "selection across the cut falls to member id" for bucket in tied]

    def test_targets_without_ingest_is_config_error(self, synth_dir, tmp_path):
        code = run_cli("targets", "--config", str(synth_dir / "config.json"),
                       "--out-dir", str(tmp_path / "nothing"))
        assert code == 1


class TestRun:
    def test_full_run_and_parallel_identical(self, synth_dir, tmp_path):
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        for out_dir, workers in ((serial, "1"), (parallel, "4")):
            code = run_cli(
                "run", "--config", str(synth_dir / "config.json"),
                "--out-dir", str(out_dir), "--workers", workers,
            )
            assert code == 0
        serial_files = {p.name: p.read_bytes() for p in serial.iterdir()
                        if p.name != "bundle.json" and p.name != "ingest_report.json"}
        parallel_files = {p.name: p.read_bytes() for p in parallel.iterdir()
                          if p.name != "bundle.json" and p.name != "ingest_report.json"}
        assert set(serial_files) == set(parallel_files)
        for name in serial_files:
            assert serial_files[name] == parallel_files[name], name

    def test_staged_schedule_matches_run(self, synth_dir, tmp_path):
        config = str(synth_dir / "config.json")
        whole, staged = tmp_path / "whole", tmp_path / "staged"
        assert run_cli("run", "--config", config, "--out-dir", str(whole)) == 0
        assert run_cli("ingest", "--config", config, "--out-dir", str(staged)) == 0
        for bucket in ALL_BUCKETS:
            assert run_cli("rank", "--config", config, "--out-dir", str(staged),
                           "--bucket", str(bucket)) == 0
        assert run_cli("targets", "--config", config, "--out-dir", str(staged),
                       "--bucket", "all") == 0
        reports = sorted(p.name for p in whole.iterdir()
                         if p.name.startswith(("ranking_", "targets_")))
        assert reports == sorted(p.name for p in staged.iterdir()
                                 if p.name.startswith(("ranking_", "targets_")))
        assert any(name.startswith("targets_") for name in reports)
        for name in reports:
            assert (staged / name).read_bytes() == (whole / name).read_bytes(), name

    def test_second_run_changes_no_byte_and_scores_nothing(self, synth_dir, tmp_path,
                                                           monkeypatch):
        config, out = str(synth_dir / "config.json"), tmp_path / "out"
        assert run_cli("run", "--config", config, "--out-dir", str(out)) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert any(name.startswith("targets_") for name in before)

        def refuse(*args, **kwargs):
            raise AssertionError("a bucket with a current ranking was built or scored again")

        monkeypatch.setattr(pipeline, "score_bucket", refuse)
        monkeypatch.setattr(pipeline, "Document", refuse)
        for command in ("run", "targets"):
            assert run_cli(command, "--config", config, "--out-dir", str(out),
                           "--bucket", "all") == 0
            assert {p.name: p.read_bytes() for p in out.iterdir()} == before, command

    @pytest.mark.parametrize("allow_small, argv, message", [
        (True, ("--bucket", "Tech/Positive"),
         "unknown bucket 'Tech/Positive'; categories are ['Technology', 'Politics', "
         "'Sports', 'Business', 'Entertainment'] and sentiments ['Positive', 'Negative']"),
        (False, ("--n-it", "7"),
         "n_it = 7 violates the 50 <= N_it <= network-size bound "
         "(pass --allow-small to relax the lower bound)"),
    ], ids=["bucket", "n_it_below_bound"])
    def test_bad_selection_fails_before_ingest(self, synth_dir, tmp_path, caplog, allow_small,
                                               argv, message):
        config = json.loads((synth_dir / "config.json").read_text())
        config["allow_small"] = allow_small
        path = synth_dir / f"allow_small_{allow_small}.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        out.mkdir()
        with caplog.at_level("ERROR"):
            code = run_cli("run", "--config", str(path), "--out-dir", str(out), *argv)
        assert code == 1
        assert [r.message for r in caplog.records] == [message]
        assert not list(out.iterdir())

    # load_config parses bucket, so ingest, which reads no bucket, still
    # refuses a bad one before it writes a byte.
    @pytest.mark.parametrize("field, argv, message", [
        (None, ("--bucket", "Tech/Positive"),
         "unknown bucket 'Tech/Positive'; categories are ['Technology', 'Politics', "
         "'Sports', 'Business', 'Entertainment'] and sentiments ['Positive', 'Negative']"),
        ("Technology", (), "bucket must be 'all' or 'Category/Sentiment', got 'Technology'"),
    ], ids=["flag", "file"])
    def test_bad_bucket_fails_ingest_before_it_writes(self, synth_dir, tmp_path, caplog, field,
                                                      argv, message):
        config = json.loads((synth_dir / "config.json").read_text())
        if field is not None:
            config["bucket"] = field
        path = synth_dir / "bad_bucket.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        out.mkdir()
        with caplog.at_level("ERROR"):
            code = run_cli("ingest", "--config", str(path), "--out-dir", str(out), *argv)
        assert code == 1
        assert [r.message for r in caplog.records] == [message]
        assert not list(out.iterdir())

    # load_config checks N_it's lower bound, so ingest and rank, which use
    # no N_it, still refuse a small one before they write a byte.
    @pytest.mark.parametrize("command", ["ingest", "rank"])
    def test_small_n_it_fails_before_it_writes(self, synth_dir, tmp_path, caplog, command):
        config = json.loads((synth_dir / "config.json").read_text())
        config["allow_small"] = False
        path = synth_dir / "small_n_it.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        out.mkdir()
        if command == "rank":
            assert run_cli("ingest", "--config", str(synth_dir / "config.json"),
                           "--out-dir", str(out)) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        caplog.clear()
        with caplog.at_level("ERROR"):
            code = run_cli(command, "--config", str(path), "--out-dir", str(out))
        assert code == 1
        assert [r.message for r in caplog.records] == [
            f"n_it = {config['n_it']} violates the 50 <= N_it <= network-size bound "
            "(pass --allow-small to relax the lower bound)"]
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_module_form_logs_under_the_package_name(self, synth_dir):
        proc = run_python("-m", "egorank.cli", "rank", "--config", str(synth_dir / "config.json"),
                          "--bucket", "Tech/Positive", timeout=60)
        assert proc.returncode == 1
        assert proc.stderr == (
            "ERROR egorank.cli: unknown bucket 'Tech/Positive'; categories are ['Technology', "
            "'Politics', 'Sports', 'Business', 'Entertainment'] and sentiments "
            "['Positive', 'Negative']\n")

    def test_files_depend_only_on_what_produced_them(self, synth_dir, tmp_path):
        # ingest reads none of n_it, threshold and bucket, and rank does not
        # read threshold, so setting them must not change a byte they write
        config = str(synth_dir / "config.json")
        plain, flagged = tmp_path / "plain", tmp_path / "flagged"
        assert run_cli("ingest", "--config", config, "--out-dir", str(plain)) == 0
        assert run_cli("ingest", "--config", config, "--out-dir", str(flagged), "--n-it", "60",
                       "--threshold", "9", "--bucket", "Sports/Negative") == 0
        for name in ("bundle.json", "ingest_report.json"):
            assert (flagged / name).read_bytes() == (plain / name).read_bytes(), name
        assert "config_hash" not in (plain / "ingest_report.json").read_text()
        assert run_cli("rank", "--config", config, "--out-dir", str(plain)) == 0
        assert run_cli("rank", "--config", config, "--out-dir", str(flagged),
                       "--threshold", "9") == 0
        rankings = sorted(p.name for p in plain.glob("ranking_*"))
        assert len(rankings) == 20
        assert rankings == sorted(p.name for p in flagged.glob("ranking_*"))
        for name in rankings:
            assert (flagged / name).read_bytes() == (plain / name).read_bytes(), name
        # the threshold decides defaults_removed, so the targets JSON records it
        assert run_cli("targets", "--config", config, "--out-dir", str(flagged),
                       "--threshold", "9") == 0
        report = json.loads((flagged / "targets_Technology_Positive.json").read_text())
        assert report["threshold"] == 9
        assert "config_hash" not in report

    def test_shuffled_input_rows_give_the_same_reports(self, synth_dir, tmp_path):
        # every input is a set of rows, so their order may change only the
        # content digests that the ranking and targets JSONs record
        shuffled = tmp_path / "shuffled"
        shutil.copytree(synth_dir, shuffled, ignore=shutil.ignore_patterns("out"))
        config = json.loads((shuffled / "config.json").read_text())
        rng = random.Random(11)
        for name in [*config["datasets"].values(), config["resources"]["labeled_seed"],
                     config["resources"]["embeddings"]]:
            # synth writes one row per line
            path = shuffled / name
            header, *rows = path.read_text().splitlines()
            original = list(rows)
            while len(rows) > 1 and rows == original:
                rng.shuffle(rows)
            path.write_text("\n".join([header] + rows) + "\n")
        outputs = {}
        for corpus in (synth_dir, shuffled):
            out = tmp_path / f"out_{corpus.name}"
            assert run_cli("run", "--config", str(corpus / "config.json"),
                           "--out-dir", str(out)) == 0
            outputs[corpus] = {p.name: p.read_bytes() for p in out.iterdir()
                               if p.name not in ("bundle.json", "bundle.json.sha256")}
        plain, moved = outputs[synth_dir], outputs[shuffled]
        assert sorted(plain) == sorted(moved)
        assert any(name.startswith("targets_") for name in plain)
        digests = {"ranking_": ("bundle_sha256", "embeddings_sha256"),
                   "targets_": ("ranking_sha256",)}
        for name in plain:
            if name.endswith(".json") and name[:8] in digests:
                before, after = json.loads(plain[name]), json.loads(moved[name])
                for key in digests[name[:8]]:
                    assert before.pop(key) != after.pop(key), (name, key)
                assert before == after, name
            else:
                assert plain[name] == moved[name], name

    def test_blas_thread_count_does_not_change_reports(self, tmp_path):
        # dim 300 puts the word-vector products above the size at which a BLAS
        # starts threads; the synthetic vocabulary is small, so the bucket-wide
        # test in test_recommend.py is the one where BLAS itself would differ
        def cli(threads, *argv):
            proc = run_python("-m", "egorank.cli", *argv,
                              env={"OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads})
            assert proc.returncode == 0, proc.stderr

        synth = tmp_path / "synth"
        cli("1", "synth", "--out", str(synth), "--seed", "3", "--members", "30",
            "--docs-per-member", "12", "--planted", "5", "--dim", "300")
        outputs = {}
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            cli(threads, "run", "--config", str(synth / "config.json"), "--out-dir", str(out))
            outputs[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert any(name.startswith("ranking_") for name in outputs["1"])
        assert outputs["1"] == outputs["2"]

    def test_simd_dispatch_does_not_change_reports(self, tmp_path):
        # numpy picks a SIMD kernel per CPU at start-up; turning off every
        # dispatch target this CPU has leaves the baseline kernels.
        probe = ("import numpy as np\n"
                 "core = getattr(np, '_core', None) or np.core\n"
                 "m = core._multiarray_umath\n"
                 "print(' '.join(f for f in m.__cpu_dispatch__ if m.__cpu_features__.get(f)))")

        def cli(disabled, *argv):
            proc = run_python(*argv, env={"NPY_DISABLE_CPU_FEATURES": disabled})
            assert proc.returncode == 0, proc.stderr
            return proc.stdout

        found = cli("", "-c", probe).split()
        if not found:
            pytest.skip("numpy finds no SIMD dispatch target on this CPU")
        disabled = " ".join(found)
        assert cli(disabled, "-c", probe).split() == []
        synth = tmp_path / "synth"
        cli("", "-m", "egorank.cli", "synth", "--out", str(synth), "--seed", "3", "--members",
            "30", "--docs-per-member", "12", "--planted", "5", "--dim", "300")
        outputs = {}
        for features in ("", disabled):
            out = tmp_path / f"out{len(outputs)}"
            cli(features, "-m", "egorank.cli", "run", "--config", str(synth / "config.json"),
                "--out-dir", str(out))
            outputs[features] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert any(name.startswith("ranking_") for name in outputs[""])
        assert outputs[""] == outputs[disabled]

    def test_stop_word_corpus_runs_to_empty_rankings(self, synth_dir, tmp_path):
        # Every document reduces to no tokens, so none is labelled or
        # bucketed: each ranking is empty and no target is selected.
        corpus = tmp_path / "stops"
        shutil.copytree(synth_dir, corpus)
        for no in CONTENT_DATASETS:
            path = corpus / f"dataset_{no}.csv"
            with path.open(newline="") as fh:
                rows = list(csv.DictReader(fh))
            with path.open("w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
                writer.writeheader()
                writer.writerows({**row, "content": "the and of to."} for row in rows)
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(corpus / "config.json"), "--out-dir", str(out)) == 0
        bundle = json.loads((out / "bundle.json").read_text())
        assert (bundle["df"], bundle["n"]) == ({}, 0)
        rankings = sorted(out.glob("ranking_*.json"))
        assert len(rankings) == len(ALL_BUCKETS)
        assert all(json.loads(p.read_text())["entries"] == [] for p in rankings)
        assert not list(out.glob("targets_*"))

    def test_unknown_flag_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["rank", "--config", "x.json", "--bogus"])
        assert exc.value.code == 1

    def test_missing_config_exits_one(self):
        assert main(["rank", "--config", "/nonexistent/config.json"]) == 1


# One row per error exit that no other test reaches, and per unreadable
# bundle: the files to write into a copy of the synth tree (a dict is merged
# into config.json, one level deep), the command line, the exit code and the
# whole message. {dir} stands for the copy; rank and targets find a bundle
# ingested there before the files are written.
ERROR_EXITS = {
    "window_bound_not_a_string": (
        {"config.json": {"window": {"since": 5}}}, ["ingest", "--config", "{dir}/config.json"],
        1, "window.since must be an ISO-8601 timestamp string, got 5"),
    # Only an absent, null or "" bound keeps the default; a falsy one is mistyped.
    **{f"window_{bound}_{name}": (
        {"config.json": {"window": {bound: value}}}, ["ingest", "--config", "{dir}/config.json"],
        1, f"window.{bound} must be an ISO-8601 timestamp string, got {value!r}")
       for bound in ("since", "until")
       for name, value in (("0", 0), ("false", False), ("list", []))},
    **{name: (
        {}, ["ingest", "--config", "{dir}/config.json", f"--{bound}", time],
        1, f"--{bound} is not an ISO-8601 timestamp: '{time}'")
       for name, bound, time in (
           ("since_outside_utc_range", "since", "0001-01-01T00:00:00+01:00"),
           ("until_outside_utc_range", "until", "9999-12-31T23:59:59-01:00"),
           ("since_fraction_after_hour", "since", "2024-01-02T03.123"))},
    "since_after_until": (
        {}, ["ingest", "--config", "{dir}/config.json", "--since", "2025-06-01T00:00:00+00:00",
             "--until", "2024-06-01T00:00:00+00:00"],
        1, "window since is after until"),
    "config_not_json": (
        {"config.json": "{"}, ["ingest", "--config", "{dir}/config.json"],
        1, "config file is not valid JSON: {dir}/config.json: Expecting property name "
           "enclosed in double quotes: line 1 column 2 (char 1)"),
    "normalization_flag": (
        {}, ["ingest", "--config", "{dir}/config.json", "--normalization", "median"],
        1, "normalization must be 'raw' or 'mean', got 'median'"),
    "platform_in_file": (
        {"config.json": {"platform": "MySpace"}}, ["ingest", "--config", "{dir}/config.json"],
        1, "unknown platform 'MySpace'"),
    "platform_flag": (
        {}, ["ingest", "--config", "{dir}/config.json", "--platform", "MySpace"],
        1, "unknown platform 'MySpace'"),
    "missing_resource": (
        {"config.json": {"resources": {"stop_list": "nothing.txt"}}},
        ["ingest", "--config", "{dir}/config.json"],
        1, "resource 'stop_list' not found: {dir}/nothing.txt"),
    "malformed_bucket": (
        {}, ["rank", "--config", "{dir}/config.json", "--bucket", "Technology"],
        1, "bucket must be 'all' or 'Category/Sentiment', got 'Technology'"),
    "unknown_bucket": (
        {}, ["rank", "--config", "{dir}/config.json", "--bucket", "Tech/Positive"],
        1, "unknown bucket 'Tech/Positive'; categories are ['Technology', 'Politics', "
           "'Sports', 'Business', 'Entertainment'] and sentiments ['Positive', 'Negative']"),
    "ingest_bucket_in_file": (
        {"config.json": {"bucket": "Sports"}}, ["ingest", "--config", "{dir}/config.json"],
        1, "bucket must be 'all' or 'Category/Sentiment', got 'Sports'"),
    "no_embeddings": (
        {"config.json": {"resources": {"embeddings": None}}},
        ["rank", "--config", "{dir}/config.json"],
        1, "resources.embeddings must point at a word-vector file"),
    "empty_lemma_form": (
        {"lemmas.tsv": "\trun\n"},
        ["ingest", "--config", "{dir}/config.json", "--lemma-dictionary", "{dir}/lemmas.tsv"],
        2, "{dir}/lemmas.tsv: line 1: empty form or lemma"),
    "lexicon_line_without_tab": (
        {"lexicon.tsv": "good\t1.9\ngreat 3.1\n"},
        ["ingest", "--config", "{dir}/config.json", "--sentiment-lexicon", "{dir}/lexicon.tsv"],
        2, "{dir}/lexicon.tsv: line 2: expected word<TAB>valence"),
    "valence_out_of_range": (
        {"lexicon.tsv": "good\t4.5\n"},
        ["ingest", "--config", "{dir}/config.json", "--sentiment-lexicon", "{dir}/lexicon.tsv"],
        2, "{dir}/lexicon.tsv: line 1: valence 4.5 outside [-4, 4]"),
    "embedding_dimension": (
        {"embeddings.txt": "1 0\nsoftware\n"}, ["rank", "--config", "{dir}/config.json"],
        2, "{dir}/embeddings.txt: dimension must be positive"),
    # software is a word that every synth corpus scores, so its row is parsed
    "non_finite_component": (
        {"embeddings.txt": "1 2\nsoftware nan 1.0\n"}, ["rank", "--config", "{dir}/config.json"],
        2, "{dir}/embeddings.txt: row 2: non-finite vector component"),
    "spelling_count": (
        {"spelling.tsv": "good\t10\ngreat\tmany\n"},
        ["ingest", "--config", "{dir}/config.json", "--spelling-dictionary", "{dir}/spelling.tsv"],
        2, "{dir}/spelling.tsv: line 2: bad count 'many'"),
    "synth_too_many_members": (
        {}, ["synth", "--out", "{dir}/synth", "--members", "3", "--planted", "2"],
        1, "planted_members + group_members exceeds the member count"),
    "n_it_below_bound": (
        {"config.json": {"allow_small": False, "n_it": 7}},
        ["targets", "--config", "{dir}/config.json"],
        1, "n_it = 7 violates the 50 <= N_it <= network-size bound "
           "(pass --allow-small to relax the lower bound)"),
    "n_it_above_network_size": (
        {}, ["targets", "--config", "{dir}/config.json", "--n-it", "23"],
        1, "n_it = 23 exceeds the network size 22"),
    "thin_named_bucket": (
        {}, ["targets", "--config", "{dir}/config.json", "--n-it", "20",
             "--bucket", "Technology/Positive"],
        2, "bucket Technology/Positive: ranking holds 5 members but 20 were requested"),
    # out_dir is made by the first write, after ingest has read every input.
    "out_dir_is_a_file": (
        {"blocker": "a file"}, ["ingest", "--config", "{dir}/config.json", "--out-dir",
                                "{dir}/blocker"],
        1, "[Errno 17] File exists: '{dir}/blocker'"),
    "out_dir_under_a_file": (
        {"blocker": "a file"}, ["ingest", "--config", "{dir}/config.json", "--out-dir",
                                "{dir}/blocker/out"],
        1, "[Errno 20] Not a directory: '{dir}/blocker/out'"),
    "bundle_not_json": (
        {"out/bundle.json": "{"}, ["targets", "--config", "{dir}/config.json"],
        1, "{dir}/out/bundle.json does not match {dir}/out/bundle.json.sha256; run ingest again"),
    "bundle_without_inputs": (
        {"out/bundle.json": json.dumps({"version": __version__})},
        ["targets", "--config", "{dir}/config.json"],
        1, "{dir}/out/bundle.json does not match {dir}/out/bundle.json.sha256; run ingest again"),
}


@pytest.mark.parametrize("files, argv, code, message", ERROR_EXITS.values(), ids=ERROR_EXITS)
def test_error_exit_gives_the_whole_message(synth_dir, tmp_path, caplog, files, argv, code,
                                            message):
    tree = tmp_path / "tree"
    shutil.copytree(synth_dir, tree, ignore=shutil.ignore_patterns("out"))
    if argv[0] in ("rank", "targets"):
        assert run_cli("ingest", "--config", str(tree / "config.json")) == 0
    for name, content in files.items():
        path = tree / name
        if isinstance(content, dict):
            config = json.loads(path.read_text())
            for key, value in content.items():
                config[key] = {**config[key], **value} if isinstance(value, dict) else value
            content = json.dumps(config)
        path.write_text(content)
    caplog.clear()
    with caplog.at_level("ERROR"):
        assert run_cli(*(a.format(dir=tree) for a in argv)) == code
    assert [r.message for r in caplog.records] == [message.format(dir=tree)]


def parse_flags(*argv):
    """The flags of ``ingest`` as ``cli.main`` hands them to ``load_config``."""
    return vars(build_parser().parse_args(["ingest", "--config", "config.json", *argv]))


# One case per flag, and one per flag whose empty value means unset: the
# config section the flag's field lives in (None for the top level), the
# field, which the flag is named after, and a value. True stands for a flag
# that takes no value. {dir} is a directory holding a file named after each
# resource.
FLAG_CASES = {
    "platform": (None, "platform", "Twitter"),
    "ego_id": (None, "ego_id", "member_3"),
    "bucket": (None, "bucket", "Sports/Negative"),
    "n_it": (None, "n_it", 60),
    "threshold": (None, "threshold", 7),
    "normalization": (None, "normalization", "mean"),
    "allow_small": (None, "allow_small", True),
    "out_dir": (None, "out_dir", "{dir}/elsewhere"),
    "workers": (None, "workers", 2),
    "since": ("window", "since", "2024-03-01T00:00:00+00:00"),
    "until": ("window", "until", "2024-09-01T00:00:00Z"),
    **{key: ("resources", key, f"{{dir}}/{key}.txt") for key in RESOURCE_KEYS},
    "out_dir_empty": (None, "out_dir", ""),
    "since_empty": ("window", "since", ""),
    "embeddings_empty": ("resources", "embeddings", ""),
}


@pytest.mark.parametrize("section, key, value", FLAG_CASES.values(), ids=FLAG_CASES)
def test_flag_reads_as_the_file_field_it_replaces(synth_dir, tmp_path, section, key, value):
    for name in RESOURCE_KEYS:
        (tmp_path / f"{name}.txt").write_text("")
    if isinstance(value, str):
        value = value.format(dir=tmp_path)
    text = (synth_dir / "config.json").read_text()

    def config_with(name, field_value):
        config = json.loads(text)
        (config[section] if section else config)[key] = field_value
        path = synth_dir / name
        path.write_text(json.dumps(config))
        return path

    flag = [f"--{key.replace('_', '-')}"] + ([] if value is True else [str(value)])
    # The file value the flag replaces is not read, so it may be anything.
    assert (load_config(config_with("flagged.json", []), parse_flags(*flag))
            == load_config(config_with("filed.json", value), {}))


def test_every_config_field_but_datasets_has_its_flag():
    flags = set(parse_flags()) - {"command", "config"}
    fields = set(PipelineConfig._fields) - {"datasets", "window", "resources"}
    assert flags == fields | {"since", "until"} | set(RESOURCE_KEYS)
    assert flags == {key for _, key, _ in FLAG_CASES.values()}


def test_relative_paths_resolve_against_file_or_working_directory(synth_dir, tmp_path,
                                                                  monkeypatch):
    tree, work = tmp_path / "tree", tmp_path / "work"
    shutil.copytree(synth_dir, tree, ignore=shutil.ignore_patterns("out"))
    work.mkdir()
    for directory in (tree, work):
        (directory / "stop.txt").write_text("")
    config = json.loads((tree / "config.json").read_text())
    config["resources"]["stop_list"] = "stop.txt"
    (tree / "config.json").write_text(json.dumps(config))
    monkeypatch.chdir(work)
    filed = load_config(tree / "config.json", {})
    assert (filed.resources["stop_list"], filed.out_dir) == (tree / "stop.txt", tree / "out")
    flagged = load_config(tree / "config.json",
                          parse_flags("--stop-list", "stop.txt", "--out-dir", "out"))
    assert ((flagged.resources["stop_list"].resolve(), flagged.out_dir.resolve())
            == ((work / "stop.txt").resolve(), (work / "out").resolve()))


@pytest.mark.parametrize("flag", ["--out-dir", "--embeddings"])
def test_empty_flag_reads_as_the_empty_file_field(synth_dir, tmp_path, monkeypatch, flag):
    # "" in the file means the default out dir, or no embeddings: so in a flag
    tree = tmp_path / "tree"
    shutil.copytree(synth_dir, tree, ignore=shutil.ignore_patterns("out"))
    monkeypatch.chdir(tmp_path)
    assert run_cli("ingest", "--config", str(tree / "config.json"), flag, "") == 0
    assert [p.name for p in tmp_path.iterdir()] == ["tree"]
    assert (tree / "out" / "bundle.json").is_file()


# Runs egorank's CLI and reports, when the interpreter exits, which of the
# modules that only scoring and the synth command need, or that no command
# needs, were loaded, the OPENBLAS_NUM_THREADS it ran under, its thread
# count (None off Linux) and whether the collector was frozen. Handlers run
# last-registered first, so the report runs after every handler that
# importing egorank registers.
STARTUP_PROBE = """
import atexit, gc, json, os, sys
def report():
    tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
    print("probe:", json.dumps({
        "loaded": sorted(m for m in ("numpy", "egorank.synth", "concurrent.futures",
                                  "dataclasses", "inspect") if m in sys.modules),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"), "tasks": tasks,
        "frozen": gc.get_freeze_count() > 0}),
        file=sys.stderr)
atexit.register(report)
from egorank.cli import main
sys.exit(main(sys.argv[1:]))
"""

# What OpenBLAS reads for its thread count, in its order. In-process main()
# calls set the first in this process, so children get none of them unless
# a test gives one.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


class TestStartup:
    @staticmethod
    def probe(*argv, code=0, **env_vars):
        """The probe's report on a CLI process that must exit with ``code``,
        with the process's piped standard output under ``stdout``."""
        proc = run_python("-c", STARTUP_PROBE, *argv, env=env_vars, drop=BLAS_THREAD_VARS,
                          timeout=120)
        assert proc.returncode == code, proc.stderr
        (line,) = [ln for ln in proc.stderr.splitlines() if ln.startswith("probe:")]
        return json.loads(line.split(" ", 1)[1]) | {"stdout": proc.stdout}

    def loaded(self, *argv):
        return self.probe(*argv)["loaded"]

    def test_only_scoring_imports_numpy(self, synth_dir, tmp_path):
        config = str(synth_dir / "config.json")
        out = tmp_path / "out"
        assert self.loaded("--version") == []
        assert self.loaded("ingest", "--config", config, "--out-dir", str(out)) == []
        # nothing to score: the ego has no documents in this bucket
        assert self.loaded("rank", "--config", config, "--out-dir", str(out),
                           "--bucket", bucket_without_ego(out)) == []
        assert "numpy" in self.loaded("rank", "--config", config, "--out-dir", str(out),
                                      "--bucket", "all")
        assert self.loaded("targets", "--config", config, "--out-dir", str(out),
                           "--bucket", "all") == []
        assert len(list(out.glob("targets_*.json"))) > 0

    def test_scoring_starts_no_blas_threads(self, synth_dir, tmp_path):
        config = str(synth_dir / "config.json")
        out = tmp_path / "out"
        assert run_cli("ingest", "--config", config, "--out-dir", str(out)) == 0
        rank = ("rank", "--config", config, "--out-dir", str(out), "--bucket", "all")
        state = self.probe(*rank)
        assert "numpy" in state["loaded"]
        assert state["blas_threads"] == "1"
        if sys.platform.startswith("linux"):
            assert state["tasks"] == 1
        # a thread count the user set is kept
        assert self.probe(*rank, OPENBLAS_NUM_THREADS="2")["blas_threads"] == "2"

    def test_every_exit_freezes_the_collector(self, synth_dir, tmp_path):
        config = str(synth_dir / "config.json")
        out = str(tmp_path / "out")
        broken = tmp_path / "broken"
        shutil.copytree(synth_dir, broken, ignore=shutil.ignore_patterns("out"))
        with (broken / "members.csv").open("a") as fh:
            fh.write("m099,Someone\n")
        for code, argv in [
            (0, ("--version",)),
            (0, ("ingest", "--config", config, "--out-dir", out)),
            (0, ("rank", "--config", config, "--out-dir", out, "--bucket", "all")),
            (0, ("targets", "--config", config, "--out-dir", out, "--bucket", "all")),
            (1, ("rank", "--config", str(tmp_path / "absent.json"))),
            (2, ("ingest", "--config", str(broken / "config.json"))),
        ]:
            assert self.probe(*argv, code=code)["frozen"], argv

    def test_in_process_main_leaves_the_collector_unfrozen(self, ingested, tmp_path):
        out = tmp_path / "out"
        shutil.copytree(ingested / "out", out)
        frozen = gc.get_freeze_count()
        assert run_cli("rank", "--config", str(ingested / "config.json"),
                       "--out-dir", str(out), "--bucket", "all") == 0
        assert gc.get_freeze_count() == frozen

    def test_piped_rank_prints_every_bucket(self, ingested, tmp_path):
        out = tmp_path / "out"
        shutil.copytree(ingested / "out", out)
        printed = self.probe("rank", "--config", str(ingested / "config.json"),
                             "--out-dir", str(out), "--bucket", "all")["stdout"]
        sizes = {str(b): len(json.loads(
            (out / f"ranking_{b.category.value}_{b.sentiment.value}.json").read_text())["entries"])
            for b in ALL_BUCKETS}
        assert printed.splitlines() == [f"{b}: {n} ranked members" for b, n in sizes.items()]
