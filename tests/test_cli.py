import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from egorank import pipeline
from egorank.cli import main
from egorank.config import load_config
from egorank.recommend import MemberRanking, RankEntry

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    code = main([
        "synth", "--out", str(out), "--seed", "7", "--members", "24",
        "--docs-per-member", "8", "--planted", "5", "--mega", "2", "--groups", "2",
    ])
    assert code == 0
    return out


def run_cli(*argv):
    return main(list(argv))


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
                       "--docs-per-member", "8", "--planted", "5", "--mega", "2",
                       "--groups", "2") == 0
        for path in sorted(synth_dir.iterdir()):
            assert path.read_bytes() == (again / path.name).read_bytes(), path.name


class TestIngest:
    def test_report_lists_all_dataset_counts(self, synth_dir, capsys):
        assert run_cli("ingest", "--config", str(synth_dir / "config.json")) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report["dataset_counts"]) == {str(n) for n in range(1, 10)}
        member_side = sum(int(report["dataset_counts"][str(n)]) for n in (6, 7, 8, 9))
        assert member_side == 24 * 8
        assert report["dataset_counts"]["5"] == 24

    @pytest.mark.parametrize("edit, argv, field", [
        (lambda c: c.update(n_it="abc"), (), "n_it"),
        (lambda c: c.update(threshold=True), (), "threshold"),
        (lambda c: c.update(workers="two"), (), "workers"),
        (lambda c: c["datasets"].update(x="dataset_1.csv"), (), "datasets key"),
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
    ], ids=["n_it", "bool_threshold", "workers", "dataset_key", "window", "allow_small",
            "until_flag", "window_string", "datasets_list", "resources_list", "out_dir_number",
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

    def test_missing_dataset5_exits_config_error(self, synth_dir, tmp_path):
        broken = tmp_path / "broken"
        shutil.copytree(synth_dir, broken)
        (broken / "members.csv").unlink()
        code = run_cli("ingest", "--config", str(broken / "config.json"))
        assert code == 1

    def test_rerun_is_byte_identical(self, synth_dir):
        bundle = synth_dir / "out" / "bundle.json"
        run_cli("ingest", "--config", str(synth_dir / "config.json"))
        first = bundle.read_bytes()
        run_cli("ingest", "--config", str(synth_dir / "config.json"))
        assert bundle.read_bytes() == first

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

    @pytest.mark.parametrize("resource, text", [
        ("lemma_dictionary", "runs\trun\nbroken line\n"),
        ("sentiment_lexicon", "good\t1.9\nbad\tvery\n"),
        ("labeled_seed", "text,category\nfine text,Technology\none,two,three\n"),
    ])
    def test_bad_resource_line_names_file(self, synth_dir, tmp_path, caplog, resource, text):
        broken = tmp_path / "badresource"
        shutil.copytree(synth_dir, broken)
        path = broken / f"{resource}.txt"
        path.write_text(text)
        config = json.loads((broken / "config.json").read_text())
        config["resources"][resource] = str(path)
        (broken / "config.json").write_text(json.dumps(config))
        with caplog.at_level("ERROR"):
            code = run_cli("run", "--config", str(broken / "config.json"),
                           "--out-dir", str(tmp_path / "out"))
        assert code == 2
        assert any(f"{path}: line " in r.message for r in caplog.records)


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
        assert "config_hash" in report and "version" in report
        assert report["entries"][0]["rank"] == 1

    def test_scores_non_increasing(self, synth_dir):
        report = json.loads(
            (synth_dir / "out" / "ranking_Technology_Positive.json").read_text()
        )
        scores = [e["score"] for e in report["entries"]]
        assert scores == sorted(scores, reverse=True)

    def test_empty_bucket_warning_and_empty_report(self, synth_dir, caplog):
        with caplog.at_level("WARNING"):
            code = run_cli("rank", "--config", str(synth_dir / "config.json"))
        assert code == 0
        empty_warnings = [r for r in caplog.records if "empty ranking" in r.message]
        assert empty_warnings, "expected at least one thin bucket in the fixture"
        # the warned bucket still gets a header-only report, not a crash
        first = empty_warnings[0].message.split(":")[0].replace("bucket ", "")
        slug = first.replace("/", "_")
        lines = (synth_dir / "out" / f"ranking_{slug}.csv").read_text().splitlines()
        assert lines == ["rank,member_id,score,best_doc_id"]

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

    def test_failed_write_keeps_previous_report(self, synth_dir, tmp_path):
        class Unprintable(float):
            def __repr__(self):
                raise RuntimeError("disk went away")

        cfg = load_config(synth_dir / "config.json", {"out_dir": str(tmp_path)})
        ranking = MemberRanking(bucket=pipeline.parse_bucket_filter("Sports/Negative")[0],
                                entries=[RankEntry("m1", 2.0, "d6-a"), RankEntry("m2", 1.0, "d6-b")])
        pipeline.write_ranking_reports(cfg, ranking)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        # the second row fails after the header and the first row were written
        ranking.entries[1] = RankEntry("m2", Unprintable(1.0), "d6-b")
        with pytest.raises(RuntimeError, match="disk went away"):
            pipeline.write_ranking_reports(cfg, ranking)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


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

    def test_planted_megas_are_removed(self, synth_dir):
        report = json.loads(
            (synth_dir / "out" / "targets_Technology_Positive.json").read_text()
        )
        truth = json.loads((synth_dir / "corpus.json").read_text())["synthetic_truth"]
        assert set(report["defaults_removed"]) == set(truth["mega"])

    def test_n_it_out_of_range_cites_bound(self, synth_dir, caplog):
        strict = synth_dir / "strict.json"
        config = json.loads((synth_dir / "config.json").read_text())
        config["allow_small"] = False
        config["n_it"] = 7
        strict.write_text(json.dumps(config))
        with caplog.at_level("ERROR"):
            code = run_cli("targets", "--config", str(strict))
        assert code == 1
        assert any("50" in rec.message for rec in caplog.records)

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

    def test_blas_thread_count_does_not_change_reports(self, tmp_path):
        # dim 300 puts the word-vector products above the size at which a BLAS
        # starts threads; the synthetic vocabulary is small, so the bucket-wide
        # test in test_recommend.py is the one where BLAS itself would differ
        def cli(threads, *argv):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=str(SRC_DIR) + os.pathsep + os.environ.get("PYTHONPATH", ""))
            proc = subprocess.run([sys.executable, "-m", "egorank.cli", *argv], env=env,
                                  capture_output=True, text=True, timeout=300)
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

    def test_unknown_flag_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["rank", "--config", "x.json", "--bogus"])
        assert exc.value.code == 1

    def test_missing_config_exits_one(self):
        assert main(["rank", "--config", "/nonexistent/config.json"]) == 1
