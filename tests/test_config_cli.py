import gc
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from collections import Counter
from contextlib import contextmanager
import xml.etree.ElementTree as ET
from pathlib import Path
from xml.sax import saxutils

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from litla import citenet, cli, collabnet, textutil, topics
from litla.cli import STAGES, main
from litla.config import ConfigError, load_config
from litla.exports import (
    _attr_str,
    _dot_id,
    _escape,
    _quoteattr,
    kg_to_dot,
    kg_to_graphml,
    write_csv,
    write_graphml,
    write_text,
)
from litla.graph import (
    EDGE_CITES,
    NODE_PAPER,
    PROJECTION_CITATION,
    PROJECTION_COAUTHORSHIP,
    PROJECTION_KEYWORD,
    Edge,
    KnowledgeGraph,
    NodeRef,
    build_graph,
)
from litla.records import Author, PaperRecord


class TestTomlSubset:
    """The TOML forms the bundled configs are written in, read by
    ``load_config``, and the syntax errors it turns into config errors."""

    @staticmethod
    def write(tmp_path, fixture_dir, body) -> Path:
        """A config of ``body`` (text or bytes) that reads the fixture's records."""
        path = tmp_path / "c.toml"
        tail = '[input]\nrecords = "%s"\n[output]\ndir = "o"\n' % (fixture_dir / "records.jsonl")
        if isinstance(body, str):
            body = body.encode()
        path.write_bytes(body + tail.encode())
        return path

    def themes(self, tmp_path, fixture_dir, line: str) -> dict:
        path = self.write(tmp_path, fixture_dir, "[linkage.themes]\n" + line + "\n")
        return load_config(path).linkage.themes

    def config_error(self, tmp_path, fixture_dir, capsys, body) -> str:
        """The stderr of ``litla all`` on ``body``, which must fail as a config error."""
        path = self.write(tmp_path, fixture_dir, body)
        assert main(["all", "--config", str(path), "--output", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: ")
        assert not (tmp_path / "out").exists()
        return err

    def test_sections_scalars_arrays(self, tmp_path, fixture_dir):
        cfg = load_config(self.write(
            tmp_path, fixture_dir,
            '# comment\n'
            '[run]\n'
            'seed = 42\n'
            '[citenet]\n'
            'tol = 1e-10\n'
            'cd_exclude_self = false  # trailing comment\n'
            '[linkage.themes]\n'
            '"theme one" = ["kw a", "kw b"]\n'))
        assert (cfg.seed, cfg.citenet.tol, cfg.citenet.cd_exclude_self) == (42, 1e-10, False)
        assert cfg.linkage.themes == {"theme one": ["kw a", "kw b"]}

    def test_hash_inside_string_kept(self, tmp_path, fixture_dir):
        assert self.themes(tmp_path, fixture_dir, 't = ["a#b"]') == {"t": ["a#b"]}

    def test_escaped_quote_does_not_end_string(self, tmp_path, fixture_dir):
        assert self.themes(tmp_path, fixture_dir, 't = ["a\\"#b"]') == {"t": ['a"#b']}

    def test_hash_after_closed_string_starts_comment(self, tmp_path, fixture_dir):
        assert self.themes(tmp_path, fixture_dir, 't = ["a\\"b"] # c "d"') == {"t": ['a"b']}

    def test_duplicate_key_rejected(self, tmp_path, fixture_dir, capsys):
        err = self.config_error(tmp_path, fixture_dir, capsys, "[topics]\neps = 1.0\neps = 2.0\n")
        assert "Cannot overwrite a value (at line 3, column 10)" in err

    def test_bad_value_rejected(self, tmp_path, fixture_dir, capsys):
        err = self.config_error(tmp_path, fixture_dir, capsys, "[topics]\neps = nonsense\n")
        assert "Invalid value (at line 2, column 7)" in err

    def test_non_utf8_config_rejected(self, tmp_path, fixture_dir, capsys):
        err = self.config_error(tmp_path, fixture_dir, capsys, b"\xff\xfe[run]\nseed = 1\n")
        assert "can't decode byte 0xff in position 0" in err


class TestRunConfig:
    def test_fixture_config_loads(self, fixture_dir):
        cfg = load_config(fixture_dir / "config.toml")
        assert cfg.records_path.name == "records.jsonl"
        assert cfg.seed == 42
        assert cfg.topics.min_pts == 4
        assert cfg.linkage.epsilon == 0.15
        assert cfg.citenet.window() is None
        assert len(cfg.linkage.themes) == 10

    def test_unknown_section_rejected(self, tmp_path, fixture_dir):
        path = tmp_path / "c.toml"
        path.write_text('[input]\nrecords = "%s"\n[output]\ndir = "o"\n[bogus]\nx = 1\n'
                        % (fixture_dir / "records.jsonl"))
        with pytest.raises(ConfigError, match="bogus"):
            load_config(path)

    def test_unknown_block_key_rejected(self, tmp_path, fixture_dir):
        path = tmp_path / "c.toml"
        path.write_text('[input]\nrecords = "%s"\n[output]\ndir = "o"\n'
                        '[topics]\nepsilon_typo = 1\n' % (fixture_dir / "records.jsonl"))
        with pytest.raises(ConfigError, match="epsilon_typo"):
            load_config(path)

    def test_missing_records_rejected(self, tmp_path):
        path = tmp_path / "c.toml"
        path.write_text('[input]\nrecords = "missing.jsonl"\n[output]\ndir = "o"\n')
        with pytest.raises(ConfigError, match="not found"):
            load_config(path)

    def test_overrides(self, fixture_dir, tmp_path):
        cfg = load_config(fixture_dir / "config.toml", output_override=tmp_path,
                          seed_override=7)
        assert cfg.seed == 7
        assert cfg.output_dir == tmp_path

    def test_config_hash_stable(self, fixture_dir):
        a = load_config(fixture_dir / "config.toml")
        b = load_config(fixture_dir / "config.toml")
        assert a.config_hash() == b.config_hash()
        c = load_config(fixture_dir / "config.toml", seed_override=9)
        assert c.config_hash() != a.config_hash()

    def test_fixture_config_hash_pinned(self, fixture_dir):
        cfg = load_config(fixture_dir / "config.toml")
        assert cfg.config_hash() == (
            "021eb8c240b4e603d9e0cd076cf651145b0941549b83c98ac9488e5624eb9023")

    def test_fixture_config_hash_pinned_at_seed_7(self, fixture_dir, tmp_path):
        for out in (None, tmp_path / "a", tmp_path / "b"):
            cfg = load_config(fixture_dir / "config.toml", output_override=out, seed_override=7)
            assert cfg.config_hash() == (
                "372e30466de4892a0bdfb302ec5d8e267ae593f906eba5c86df65aaa8ede0a1c")

    @pytest.mark.parametrize("old, new, message", [
        ('allowed_languages = ["English"]', 'allowed_languages = "English"',
         "[exclusions] allowed_languages must be an array of strings"),
        ("eps = 1.4", 'eps = "1.4"', "[topics] eps must be a number"),
        ('"kriging", "expensive evaluations", "model management"]', "1, 2]",
         "[linkage.themes] surrogate assisted must be an array of strings"),
        ("max_iter = 500\ntop_k", "max_iter = true\ntop_k",
         "[collabnet] max_iter must be an integer"),
        ("min_pts = 4", "min_pts = 4.0", "[topics] min_pts must be an integer"),
        ("exclude_unknown = true", "exclude_unknown = 1",
         "[collabnet] exclude_unknown must be a boolean"),
        ("seed = 42", "seed = 1979-05-27", "seed must be an integer"),
        ("eps = 1.4", "eps = 1979-05-27",
         "[topics] eps must be a number, got datetime.date(1979, 5, 27)"),
        ('allowed_languages = ["English"]', 'allowed_languages = {first = "English"}',
         "[exclusions] allowed_languages must be an array of strings"),
        ("[topics]", "[[topics]]", "[topics] must be a section"),
    ], ids=["language_string", "eps_string", "theme_ints", "max_iter_bool", "min_pts_float",
            "exclude_unknown_int", "seed_date", "eps_date", "language_table",
            "topics_array_of_tables"])
    def test_mistyped_value_exits_two_before_any_stage(self, fixture_dir, tmp_path, capsys,
                                                       old, new, message):
        shutil.copytree(fixture_dir, tmp_path / "fixtures")
        config = tmp_path / "fixtures" / "config.toml"
        text = config.read_text()
        assert text.count(old) == 1
        config.write_text(text.replace(old, new))
        assert main(["all", "--config", str(config), "--output", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("old, new, output, message", [
        ('dir = "out"', "dir = 5", None, "[output] dir must be a string, got 5"),
        ('records = "records.jsonl"', "records = 5", "out",
         "[input] records must be a string, got 5"),
        ('queries = "queries.txt"', 'queries = ["q"]', "out",
         "[input] queries must be a string, got ['q']"),
        ('records = "records.jsonl"', "records = 1979-05-27", "out",
         "[input] records must be a string, got datetime.date(1979, 5, 27)"),
        (None, None, "taken", "cannot create output directory"),
    ], ids=["dir_int", "records_int", "queries_array", "records_date", "output_is_a_file"])
    def test_unusable_path_exits_two_before_any_stage(self, fixture_dir, tmp_path, capsys,
                                                      old, new, output, message):
        shutil.copytree(fixture_dir, tmp_path / "fixtures")
        config = tmp_path / "fixtures" / "config.toml"
        if old is not None:
            text = config.read_text()
            assert text.count(old) == 1
            config.write_text(text.replace(old, new))
        (tmp_path / "taken").write_text("")
        argv = ["all", "--config", str(config)]
        if output is not None:
            argv += ["--output", str(tmp_path / output)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert list(tmp_path.rglob("run_manifest.json")) == []

    def test_other_toml_forms_hash_like_the_fixture(self, fixture_dir, tmp_path):
        shutil.copytree(fixture_dir, tmp_path / "fixtures")
        config = tmp_path / "fixtures" / "config.toml"
        text = config.read_text()
        for old, new in [('dir = "out"', "dir = 'out'"),
                         ('excluded_doc_types = ["book", "keynote", "workshop paper", '
                          '"unpublished"]',
                          'excluded_doc_types = [\n    "book",\n    "keynote",  # a comment\n'
                          '    "workshop paper",\n    "unpublished",\n]')]:
            assert text.count(old) == 1
            text = text.replace(old, new)
        config.write_text(text)
        assert load_config(config).config_hash() == (
            "021eb8c240b4e603d9e0cd076cf651145b0941549b83c98ac9488e5624eb9023")

    def test_config_hash_independent_of_checkout(self, fixture_dir, tmp_path):
        hashes = set()
        for where in ("a/fixtures", "b/deeper/copy"):
            shutil.copytree(fixture_dir, tmp_path / where)
            cfg = load_config(tmp_path / where / "config.toml")
            assert cfg.records_path == (tmp_path / where / "records.jsonl").resolve()
            hashes.add(cfg.config_hash())
        assert hashes == {load_config(fixture_dir / "config.toml").config_hash()}


class ProcessLog:
    """Lines appended by the test process and by every worker it forks, so
    that probes inside stages count across processes."""

    def __init__(self, path: Path):
        self.path = path

    def append(self, line) -> None:
        with open(self.path, "a") as fh:  # one short O_APPEND write per line
            fh.write(f"{line}\n")

    def lines(self) -> list[str]:
        return self.path.read_text().splitlines() if self.path.exists() else []

    def clear(self) -> None:
        self.path.unlink(missing_ok=True)


@pytest.fixture
def forking(monkeypatch):
    """Two usable CPUs, so that a multi-stage run forks its workers on any
    machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def without_volatile(manifest: dict) -> dict:
    return {**manifest, "stages": [{k: v for k, v in e.items() if k != "duration_s"}
                                   for e in manifest["stages"]]}


def read_manifest(outdir: Path) -> dict:
    return json.loads((outdir / "run_manifest.json").read_text())


@contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the test process once ``seconds`` have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestCli:
    def test_invalid_config_exits_two(self, tmp_path, capsys):
        missing = tmp_path / "nope.toml"
        assert main(["stats", "--config", str(missing)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate", "--config", "x"])
        assert err.value.code == 2

    def test_single_stage_writes_manifest(self, fixture_dir, tmp_path):
        code = main(["ingest", "--config", str(fixture_dir / "config.toml"),
                     "--output", str(tmp_path)])
        assert code == 0
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["stages"][0]["stage"] == "ingest"
        assert manifest["stages"][0]["status"] == "ok"
        for name in manifest["stages"][0]["outputs"]:
            assert (tmp_path / name).is_file()
        assert (tmp_path / "rejections.csv").is_file()
        assert (tmp_path / "graph.graphml").is_file()

    def test_all_is_union_of_individual_stages(self, fixture_dir, tmp_path):
        all_dir = tmp_path / "all"
        assert main(["all", "--config", str(fixture_dir / "config.toml"),
                     "--output", str(all_dir)]) == 0
        for stage in STAGES:
            solo = tmp_path / stage
            assert main([stage, "--config", str(fixture_dir / "config.toml"),
                         "--output", str(solo)]) == 0
            manifest = json.loads((solo / "run_manifest.json").read_text())
            for name in manifest["stages"][0]["outputs"]:
                assert (solo / name).read_bytes() == (all_dir / name).read_bytes()

    def test_graph_reports_pinned(self, fixture_dir, tmp_path):
        # sha256 of the graph exports and of the reports the graph algorithms
        # write for the fixture at seed 7; backbone.graphml is left out
        # because it goes through np.exp
        pinned = {
            "graph.graphml": "98319535a1f95a553f04e3ef85f9af598f5800e1b43ad28606437add38fe68d1",
            "graph.dot": "3d3a1b8ea3cd447f715af332707ae7affce8658d323bbb9a9b1e722bf10ee191",
            "cd_papers.csv": "1f90401b641fa01ada1f2f6484d37378a0db774f1855ec7bc75e962ea339674b",
            "cd_yearly.csv": "97bbb50f904f92604009ecc9ee418f82df06856a2ee6d75a03824d8377d5a584",
            "collab_metrics.json":
                "20054b41df9f1101d70c899816b440cfa71983bb79d1744d4a52423165acc649",
            "component_sizes.csv":
                "7c10f9dda5ea8ddd61a1cd0c13466b5d60e15dc93617cd93299b7cc4f3b34216",
            "degree_distribution.csv":
                "bd694790166fa5d4e1878a078aece096b54334a790a887a6a07d9b2cd8fe6fb0",
            "top_authors.graphml":
                "808bc1b75cf2b1e8306145d110b1cb93283c7853572221d381735d134ec68368",
            "multilabel.csv": "fa55c99adc532524f6f7414235d57dd646fb781318d76483921c02e2ea807553",
            "topic_trends_count.csv":
                "49a7972091a230511509c5388296b2739577cd010bfa3ce41da099fedf6b7189",
            "topic_trends_share.csv":
                "49ea0c22050a965f862fc0ac338cf395531a8a7df9fc55f7c38f2eadbdcccc17",
            "linkage.csv": "618a42a328dad1d80504f755352656d30de596564f799e14aa9a099a8894e805",
            "linkage_shares.csv":
                "499923b5ea6665f6f085e78634f2c2161c8156e4b6f30f626442ef469c5362af",
            "topic_report.json":
                "266c3ab5bd80e1281a9929c62f96e9542e00460cc385c1e5883bfa8cd39ec468",
            "ttr.csv": "c198eecb531c9383d7b08ba94ce53c19aebeb4c8933ae93d213dc1dcffd63a22",
            "growth.csv": "b1492d159086bb4a69abf28baacc05d8d886b32ad79cac4886d0560c902d165d",
            "pref_attachment.csv":
                "89c5f3abb9a159e8260baeb940949f64621db6d27eb671675aeeb63109bd8e8a",
        }
        assert main(["all", "--config", str(fixture_dir / "config.toml"), "--seed", "7",
                     "--output", str(tmp_path)]) == 0
        assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in pinned} == pinned

    def test_ingest_stats_and_assignment_reports_pinned(self, fixture_dir, tmp_path):
        # sha256 of the fixture's reports at seed 7 that no np.exp, log,
        # polyfit or BLAS call touches: screening, counts and shares, and the
        # DBSCAN labels
        pinned = {
            "parse_errors.csv": "007813d75e8ddc6ffa6beb037ff86ee17c1fca19f787ae5e787f2cb8cc15b844",
            "rejections.csv": "17db55d1d1d78a0f9f35562a7c1c18a8fb5e58d97870a8ad3d76be69bcbb6cc2",
            "ingest_summary.json":
                "698bb8006622505bc0ca234afc13f85e7a85f6956e05cba97a23168680baecf9",
            "venue.csv": "e316ba4fe2f86ebefdfd51fec2b9fbe02a8e953d231c6cc83b24c2016b096af8",
            "pub_type.csv": "19bb573c6cea47ba4635e04e1779eb31ab3c37282ce2332e032ad528b9074a0a",
            "subject_category.csv":
                "8181f494629151c22adf0787b5055dc489b68406aa61fc7a3e296763331045ed",
            "intent.csv": "fad7997e1ac5a0536eb404650ac4752e1983a3010762dd21c7a209ca02c9fd33",
            "country.csv": "466192b763feafc2684fc12afa2bb98c74ec497173dcd2e21876baca9197f558",
            "author_countries.csv":
                "b5fb1678adeab7de8375b9f83746847571105282abd00ac09905171268bcc919",
            "assignments.csv":
                "ad2432ab40c53699d872decd144c9ab069436ccd7976acd2ffce682cfbb25b77",
        }
        assert main(["all", "--config", str(fixture_dir / "config.toml"), "--seed", "7",
                     "--output", str(tmp_path)]) == 0
        assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in pinned} == pinned

    def test_corpus_is_computed_once_per_run(self, fixture_dir, tmp_path, monkeypatch,
                                             forking):
        log = ProcessLog(tmp_path / "calls.log")

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                log.append(name)
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(cli, "load_records")
        counted(cli, "build_graph")
        counted(citenet, "cd_index_all")
        counted(topics, "dbscan_labels")
        counted(collabnet, "components")
        counted(collabnet, "connected_components")
        project = KnowledgeGraph.project

        def counted_project(kg, kind):
            log.append(kind)
            return project(kg, kind)
        monkeypatch.setattr(KnowledgeGraph, "project", counted_project)

        config = str(fixture_dir / "config.toml")
        assert main(["all", "--config", config, "--output", str(tmp_path / "all")]) == 0
        calls = Counter(log.lines())
        assert calls == {"load_records": 1, "build_graph": 1, "cd_index_all": 1,
                         "dbscan_labels": 1, "components": 16, "connected_components": 16,
                         PROJECTION_CITATION: 1,
                         PROJECTION_COAUTHORSHIP: 1, PROJECTION_KEYWORD: 1}
        log.clear()
        assert main(["stats", "--config", config, "--output", str(tmp_path / "stats")]) == 0
        calls = Counter(log.lines())
        assert calls == {"load_records": 1, "build_graph": 1}
        log.clear()
        assert main(["citenet", "--config", config, "--output", str(tmp_path / "citenet")]) == 0
        calls = Counter(log.lines())
        assert calls == {"load_records": 1, "build_graph": 1, "cd_index_all": 1,
                         PROJECTION_CITATION: 1}
        log.clear()
        # one components() per non-empty yearly snapshot; the last one is the
        # whole network, and hop coverage comes from its report
        assert main(["collabnet", "--config", config,
                     "--output", str(tmp_path / "collabnet")]) == 0
        calls = Counter(log.lines())
        assert calls == {"load_records": 1, "build_graph": 1, "dbscan_labels": 1,
                         "components": 16, "connected_components": 16,
                         PROJECTION_COAUTHORSHIP: 1}

    def test_each_kept_paper_tokenized_once(self, fixture_dir, tmp_path, monkeypatch):
        tokenized = []
        tokenize = textutil.tokenize

        def counted(text, *args, **kwargs):
            tokenized.append(text)
            return tokenize(text, *args, **kwargs)
        for module in [m for name, m in sys.modules.items() if name.startswith("litla")]:
            if getattr(module, "tokenize", None) is tokenize:
                monkeypatch.setattr(module, "tokenize", counted)

        config = fixture_dir / "config.toml"
        assert main(["all", "--config", str(config), "--output", str(tmp_path)]) == 0
        kept = cli.Corpus(load_config(config)).screened[0]
        assert kept
        calls = Counter(tokenized)
        fields = Counter(text for rec in kept for text in (rec.title, rec.abstract))
        # each field of each kept paper once (some titles repeat), never the two joined
        assert {text: calls[text] for text in fields} == fields
        assert not any(calls[rec.title + " " + rec.abstract] for rec in kept)

    @pytest.mark.parametrize("fail", [False, True])
    def test_collector_frozen_only_during_the_run(self, fixture_dir, tmp_path, monkeypatch,
                                                  forking, fail):
        log = ProcessLog(tmp_path / "seen.log")
        stage_stats = cli.stage_stats

        def probed(corpus, outdir):
            log.append(gc.get_freeze_count())
            if fail:
                raise RuntimeError("probe")
            return stage_stats(corpus, outdir)
        monkeypatch.setitem(cli._STAGE_FUNCS, "stats", probed)
        before = gc.get_freeze_count()
        assert before == 0
        code = main(["all", "--config", str(fixture_dir / "config.toml"),
                     "--output", str(tmp_path)])
        seen = [int(line) for line in log.lines()]
        assert code == (1 if fail else 0)
        assert gc.get_freeze_count() == before
        assert seen and seen[0] > 0  # the corpus built by ingest was frozen

    def test_collector_left_alone_when_frozen_on_entry(self, fixture_dir, tmp_path,
                                                       monkeypatch):
        calls = []
        gc.freeze()
        try:
            monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
            monkeypatch.setattr(gc, "unfreeze", lambda: calls.append("unfreeze"))
            assert main(["stats", "--config", str(fixture_dir / "config.toml"),
                         "--output", str(tmp_path)]) == 0
        finally:
            monkeypatch.undo()
            gc.unfreeze()
        assert calls == []

    def test_collector_restored_when_run_raises(self, fixture_dir, tmp_path, monkeypatch):
        def unwritable(path, payload):
            raise OSError("disk full")
        monkeypatch.setattr(cli, "write_json", unwritable)
        with pytest.raises(OSError, match="disk full"):
            main(["stats", "--config", str(fixture_dir / "config.toml"),
                  "--output", str(tmp_path)])
        assert gc.get_freeze_count() == 0

    def test_failed_load_fails_every_stage_alike(self, fixture_dir, tmp_path, monkeypatch,
                                                 forking):
        log = ProcessLog(tmp_path / "loads.log")

        def unreadable(path):
            log.append(path)
            raise OSError(f"cannot read {path.name}")
        monkeypatch.setattr(cli, "load_records", unreadable)
        assert main(["all", "--config", str(fixture_dir / "config.toml"),
                     "--output", str(tmp_path)]) == 1
        loads = log.lines()
        stages = json.loads((tmp_path / "run_manifest.json").read_text())["stages"]
        assert [(e["stage"], e["status"], e["error"]) for e in stages] == [
            (stage, "failed", "OSError: cannot read records.jsonl") for stage in STAGES]
        assert len(loads) == len(STAGES)  # a failed load is not cached

    def test_failed_clustering_fails_both_readers_alike(self, fixture_dir, tmp_path,
                                                        monkeypatch, forking):
        log = ProcessLog(tmp_path / "dbscan.log")

        def failing(*args, **kwargs):
            log.append("dbscan_labels")
            raise MemoryError("distance block")
        monkeypatch.setattr(topics, "dbscan_labels", failing)
        assert main(["all", "--config", str(fixture_dir / "config.toml"),
                     "--output", str(tmp_path / "out")]) == 1
        stages = read_manifest(tmp_path / "out")["stages"]
        assert [(e["stage"], e["status"], e["error"]) for e in stages] == [
            (stage, "failed", "MemoryError: distance block") if stage in ("topics", "collabnet")
            else (stage, "ok", None) for stage in STAGES]
        # once in the parent before the workers start, then once in each reader
        assert len(log.lines()) == 3

    def test_zero_max_iter_names_itself(self, fixture_dir, tmp_path):
        shutil.copytree(fixture_dir, tmp_path / "fixtures")
        config = tmp_path / "fixtures" / "config.toml"
        text = config.read_text()
        block = "[collabnet]\ndamping = 0.85\ntol = 1e-10\nmax_iter = 500\n"
        assert block in text
        config.write_text(text.replace(block, block.replace("500", "0")))
        assert main(["collabnet", "--config", str(config),
                     "--output", str(tmp_path / "out")]) == 1
        stages = json.loads((tmp_path / "out" / "run_manifest.json").read_text())["stages"]
        assert [(e["stage"], e["status"], e["error"]) for e in stages] == [
            ("collabnet", "failed", "ValueError: max_iter must be positive")]

    @pytest.mark.parametrize("stage, setting, error", [
        ("predict", "top_n = -5", "top_n must be non-negative, got -5"),
        ("topics", "top_terms = -3", "top_n must be non-negative, got -3"),
        ("topics", "emerging_k = -2", "k must be non-negative, got -2"),
        ("collabnet", "top_k = -1", "top_k must be non-negative, got -1"),
        ("citenet", "backbone_k = -1", "backbone_k must be non-negative, got -1"),
    ], ids=["top_n", "top_terms", "emerging_k", "top_k", "backbone_k"])
    def test_negative_count_fails_its_stage(self, stage, setting, error, fixture_dir, tmp_path):
        # each once cut its report from the end and exited 0
        shutil.copytree(fixture_dir, tmp_path / "fixtures")
        config = tmp_path / "fixtures" / "config.toml"
        key = setting.split(" = ")[0]
        lines = config.read_text().splitlines(keepends=True)
        assert sum(line.startswith(key + " = ") for line in lines) == 1
        config.write_text("".join(setting + "\n" if line.startswith(key + " = ") else line
                                  for line in lines))
        assert main([stage, "--config", str(config), "--output", str(tmp_path / "out")]) == 1
        stages = json.loads((tmp_path / "out" / "run_manifest.json").read_text())["stages"]
        assert [(e["stage"], e["status"], e["error"]) for e in stages] == [
            (stage, "failed", f"ValueError: {error}")]

    def test_unsafe_characters_cost_their_lines(self, fixture_dir, tmp_path):
        # a lone surrogate failed the whole ingest stage; U+0001 and U+000B
        # left graph.graphml malformed
        shutil.copytree(fixture_dir, tmp_path / "in")
        path = tmp_path / "in" / "records.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        for lineno, char in ((3, "\ud800"), (5, "\x01"), (8, "\x0b")):
            obj = json.loads(lines[lineno - 1])
            obj["title"] += char
            lines[lineno - 1] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["ingest", "--config", str(tmp_path / "in" / "config.toml"),
                     "--output", str(out)]) == 0
        with open(out / "parse_errors.csv", encoding="utf-8") as fh:
            rows = fh.read().splitlines()
        assert rows == ["line,message",
                        "3,\"title holds U+D800, which the reports cannot carry\"",
                        "5,\"title holds U+0001, which the reports cannot carry\"",
                        "8,\"title holds U+000B, which the reports cannot carry\""]
        assert json.loads((out / "ingest_summary.json").read_text())["parse_errors"] == 3
        ET.parse(out / "graph.graphml")

    def test_stage_failure_exits_one(self, tmp_path, fixture_dir):
        # a records file with zero keepable papers breaks downstream stages
        bad = tmp_path / "records.jsonl"
        bad.write_text(json.dumps({"id": "x", "title": "t", "year": 2010,
                                   "page_count": 1}) + "\n")
        cfg = tmp_path / "c.toml"
        cfg.write_text('[input]\nrecords = "records.jsonl"\n[output]\ndir = "out"\n')
        code = main(["predict", "--config", str(cfg)])
        assert code == 1
        manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
        assert manifest["stages"][0]["status"] == "failed"
        assert manifest["stages"][0]["error"]

    def test_non_utf8_query_line_fails_topics_naming_it(self, fixture_dir, tmp_path):
        shutil.copytree(fixture_dir, tmp_path / "fixtures")
        queries = tmp_path / "fixtures" / "queries.txt"
        lines = queries.read_bytes().splitlines(keepends=True)
        lines[2] = b"broken: \xff\n"
        queries.write_bytes(b"".join(lines))
        assert main(["topics", "--config", str(tmp_path / "fixtures" / "config.toml"),
                     "--output", str(tmp_path / "out")]) == 1
        entry = read_manifest(tmp_path / "out")["stages"][0]
        assert entry["status"] == "failed"
        assert entry["error"].startswith(f"QueryError: {queries.resolve()}:3: invalid UTF-8")

    def test_outputs_list_each_report_in_write_order(self, fixture_dir, tmp_path):
        outputs = {
            "ingest": ["parse_errors.csv", "rejections.csv", "graph.graphml", "graph.dot",
                       "ingest_summary.json"],
            "stats": ["venue.csv", "pub_type.csv", "subject_category.csv", "intent.csv",
                      "country.csv", "author_countries.csv", "stats_summary.json"],
            "topics": ["assignments.csv", "topic_report.json", "dendrogram.json",
                       "multilabel.csv", "topic_trends_count.csv", "topic_trends_share.csv",
                       "emerging.csv", "linkage.csv", "linkage_shares.csv"],
            "citenet": ["growth.csv", "pref_attachment.csv", "fits.json", "cd_papers.csv",
                        "cd_yearly.csv", "ttr.csv", "backbone.graphml"],
            "collabnet": ["component_sizes.csv", "degree_distribution.csv",
                          "top_authors.graphml", "collab_metrics.json"],
            "predict": ["model.json", "predictions.csv", "prediction_eval.json"],
        }
        out = tmp_path / "ok"
        assert main(["all", "--config", str(fixture_dir / "config.toml"), "--seed", "7",
                     "--output", str(out)]) == 0
        stages = read_manifest(out)["stages"]
        assert {e["stage"]: e["outputs"] for e in stages} == outputs
        listed = [name for e in stages for name in e["outputs"]] + ["run_manifest.json"]
        assert sorted(listed) == sorted(path.name for path in out.iterdir())

        # a failed stage lists nothing, though it wrote reports before it failed
        shutil.copytree(fixture_dir, tmp_path / "fixtures")
        config = tmp_path / "fixtures" / "config.toml"
        text = config.read_text()
        block = "[citenet]\ndecay = 0.2\ndamping = 0.85\ntol = 1e-10\nmax_iter = 500\n"
        assert block in text
        config.write_text(text.replace(block, block.replace("500", "0")))
        out = tmp_path / "failed"
        assert main(["all", "--config", str(config), "--seed", "7",
                     "--output", str(out)]) == 1
        stages = read_manifest(out)["stages"]
        assert [(e["stage"], e["status"]) for e in stages] == [
            (stage, "failed" if stage == "citenet" else "ok") for stage in STAGES]
        assert {e["stage"]: e["outputs"] for e in stages} == {**outputs, "citenet": []}
        assert (out / "growth.csv").is_file()


# Runs ``litla all`` (arguments after the first two) with two usable CPUs,
# logging the pid of every worker it forks to argv[1] and holding the
# predict worker in a sleep once it has touched argv[2].
_LOGGED_FORK_RUN = """
import os, sys, time
from litla import cli

log, ready = sys.argv[1], sys.argv[2]
fork = os.fork

def logged_fork():
    pid = fork()
    if pid:
        with open(log, "a") as fh:
            fh.write(f"{pid}\\n")
    return pid

def stuck(corpus, out):
    open(ready, "w").close()
    time.sleep(60)

os.fork = logged_fork
os.sched_getaffinity = lambda pid: {0, 1}
cli._STAGE_FUNCS["predict"] = stuck
sys.exit(cli.main(sys.argv[3:]))
"""


def running(pid: int) -> bool:
    """Whether ``pid`` is a process that has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestWorkers:
    def test_killed_worker_fails_only_its_stage(self, fixture_dir, tmp_path, monkeypatch,
                                                forking):
        parent = os.getpid()

        def killed(corpus, outdir):
            assert os.getpid() != parent, "citenet ran in the test process"
            os.kill(os.getpid(), signal.SIGKILL)
        monkeypatch.setitem(cli._STAGE_FUNCS, "citenet", killed)
        with time_limit(60):
            code = main(["all", "--config", str(fixture_dir / "config.toml"),
                         "--output", str(tmp_path)])
        assert code == 1
        stages = read_manifest(tmp_path)["stages"]
        assert [(e["stage"], e["status"]) for e in stages] == [
            (stage, "failed" if stage == "citenet" else "ok") for stage in STAGES]
        assert stages[STAGES.index("citenet")]["error"] == (
            "WorkerError: the citenet worker was killed by SIGKILL before it sent its entry")
        assert gc.get_freeze_count() == 0

    def test_interrupted_run_kills_and_reaps_its_workers(self, fixture_dir, tmp_path,
                                                         monkeypatch, forking):
        parent = os.getpid()
        log = ProcessLog(tmp_path / "pids.log")

        def stuck(corpus, outdir):  # interrupts the parent as Ctrl-C would, then hangs
            log.append(os.getpid())
            os.kill(parent, signal.SIGINT)
            time.sleep(60)
        monkeypatch.setitem(cli._STAGE_FUNCS, "predict", stuck)
        with time_limit(60), pytest.raises(KeyboardInterrupt):
            main(["all", "--config", str(fixture_dir / "config.toml"),
                  "--output", str(tmp_path / "out")])
        pids = [int(line) for line in log.lines()]
        assert len(pids) == 1 and pids[0] != os.getpid()
        with pytest.raises(ChildProcessError):  # already reaped
            os.waitpid(pids[0], os.WNOHANG)
        assert gc.get_freeze_count() == 0
        assert not (tmp_path / "out" / "run_manifest.json").exists()

    @pytest.mark.parametrize("case", ["single_stage", "one_cpu", "threaded"])
    def test_runs_in_process(self, case, fixture_dir, tmp_path, monkeypatch, forking):
        def no_fork():
            raise AssertionError("forked")
        monkeypatch.setattr(os, "fork", no_fork)
        if case == "one_cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        if case == "threaded":
            thread.start()
        try:
            code = main(["stats" if case == "single_stage" else "all",
                         "--config", str(fixture_dir / "config.toml"),
                         "--output", str(tmp_path)])
        finally:
            release.set()
            if case == "threaded":
                thread.join(timeout=10)
        assert not thread.is_alive()
        assert code == 0
        stages = read_manifest(tmp_path)["stages"]
        assert [e["stage"] for e in stages] == (
            ["stats"] if case == "single_stage" else list(STAGES))

    def test_platform_without_fork_runs_in_process(self, fixture_dir, tmp_path, monkeypatch,
                                                   forking):
        monkeypatch.delattr(os, "fork")
        assert main(["all", "--config", str(fixture_dir / "config.toml"),
                     "--output", str(tmp_path)]) == 0
        assert [(e["stage"], e["status"]) for e in read_manifest(tmp_path)["stages"]] == [
            (stage, "ok") for stage in STAGES]

    def test_failed_fork_runs_the_stage_in_process(self, fixture_dir, tmp_path, monkeypatch,
                                                   forking):
        def no_process():
            raise BlockingIOError("fork: Resource temporarily unavailable")
        monkeypatch.setattr(os, "fork", no_process)
        assert main(["all", "--config", str(fixture_dir / "config.toml"),
                     "--output", str(tmp_path)]) == 0
        assert [(e["stage"], e["status"]) for e in read_manifest(tmp_path)["stages"]] == [
            (stage, "ok") for stage in STAGES]

    def test_workers_change_no_report(self, fixture_dir, tmp_path, monkeypatch):
        forks = []
        fork = os.fork

        def counted_fork():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid
        monkeypatch.setattr(os, "fork", counted_fork)
        outputs = {}
        # in process, two workers, and as many workers as stages (more than cores)
        for cpus in (1, 2, 16):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                raising=False)
            out = tmp_path / str(cpus)
            with time_limit(60):
                assert main(["all", "--config", str(fixture_dir / "config.toml"),
                             "--seed", "7", "--output", str(out)]) == 0
            outputs[cpus] = {path.name: path.read_bytes() for path in out.iterdir()
                             if path.name != "run_manifest.json"}
            outputs[cpus]["manifest"] = without_volatile(read_manifest(out))
        assert len(forks) == 2 * (len(STAGES) - 1)  # every stage after ingest, once a run
        assert outputs[2] == outputs[1]
        assert outputs[16] == outputs[1]

    def test_stage_warnings_recorded(self, fixture_dir, tmp_path, forking):
        single_category = [f"UserWarning: assortativity undefined for {name!r}: single category"
                           for name in ("nationality", "primary_topic")]
        config = str(fixture_dir / "config.toml")
        assert main(["all", "--config", config, "--output", str(tmp_path / "all")]) == 0
        assert {e["stage"]: e["warnings"] for e in read_manifest(tmp_path / "all")["stages"]} == {
            **{stage: [] for stage in STAGES}, "collabnet": single_category}
        assert main(["collabnet", "--config", config,
                     "--output", str(tmp_path / "collabnet")]) == 0
        assert [e["warnings"] for e in read_manifest(tmp_path / "collabnet")["stages"]] == [
            single_category]

    def test_entry_larger_than_a_pipe_buffer_arrives_whole(self, fixture_dir, tmp_path,
                                                          monkeypatch, forking):
        parent = os.getpid()
        sent = [f"UserWarning: distinct warning {i:04d}" for i in range(3000)]
        assert len(json.dumps(sent)) > 1 << 16
        stage_stats = cli.stage_stats

        def chatty(corpus, out):
            assert os.getpid() != parent, "stats ran in the test process"
            for i in range(3000):
                warnings.warn(f"distinct warning {i:04d}")
            stage_stats(corpus, out)
        monkeypatch.setitem(cli._STAGE_FUNCS, "stats", chatty)
        with time_limit(60):
            assert main(["all", "--config", str(fixture_dir / "config.toml"),
                         "--output", str(tmp_path)]) == 0
        stages = read_manifest(tmp_path)["stages"]
        assert [(e["stage"], e["status"]) for e in stages] == [(stage, "ok") for stage in STAGES]
        assert stages[STAGES.index("stats")]["warnings"] == sent

    def test_worker_exit_status_fails_only_its_stage(self, fixture_dir, tmp_path, monkeypatch,
                                                     forking):
        parent = os.getpid()

        def exits(corpus, out):
            assert os.getpid() != parent, "stats ran in the test process"
            os._exit(3)
        monkeypatch.setitem(cli._STAGE_FUNCS, "stats", exits)
        with time_limit(60):
            assert main(["all", "--config", str(fixture_dir / "config.toml"),
                         "--output", str(tmp_path)]) == 1
        stages = read_manifest(tmp_path)["stages"]
        assert [(e["stage"], e["status"]) for e in stages] == [
            (stage, "failed" if stage == "stats" else "ok") for stage in STAGES]
        assert stages[STAGES.index("stats")]["error"] == (
            "WorkerError: the stats worker exited with status 3 before it sent its entry")

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/fd")
    def test_forked_run_leaves_no_descriptor_open(self, fixture_dir, tmp_path, monkeypatch,
                                                  forking):
        forks = []
        fork = os.fork

        def counted_fork():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid
        monkeypatch.setattr(os, "fork", counted_fork)
        before = len(os.listdir("/proc/self/fd"))
        with time_limit(60):
            assert main(["all", "--config", str(fixture_dir / "config.toml"),
                         "--output", str(tmp_path)]) == 0
        assert len(forks) == len(STAGES) - 1
        assert len(os.listdir("/proc/self/fd")) == before

    def test_single_stage_loads_no_worker_modules(self, fixture_dir, tmp_path):
        # a single-stage run forks nothing, so it pays for no worker import
        code = ("import sys; from litla.cli import main; assert main(sys.argv[1:]) == 0; "
                "print(sorted(m for m in sys.modules if m in "
                "('multiprocessing', 'select', 'signal')))")
        out = subprocess.run([sys.executable, "-c", code, "stats", "--config",
                              str(fixture_dir / "config.toml"), "--output", str(tmp_path)],
                             capture_output=True, text=True, check=True).stdout
        assert out == "[]\n"

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="the parent-death signal is Linux only")
    @pytest.mark.parametrize("signum", [signal.SIGKILL, signal.SIGTERM],
                             ids=["SIGKILL", "SIGTERM"])
    def test_killed_run_takes_its_workers_with_it(self, signum, fixture_dir, tmp_path):
        # the workers once ran on under PID 1 and went on writing reports
        log, ready = tmp_path / "pids.log", tmp_path / "ready"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
            str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
        with open(tmp_path / "run.err", "wb") as err:
            run = subprocess.Popen(
                [sys.executable, "-c", _LOGGED_FORK_RUN, str(log), str(ready), "all",
                 "--config", str(fixture_dir / "config.toml"), "--output", str(tmp_path / "out")],
                env=env, stdout=subprocess.DEVNULL, stderr=err)
        try:
            deadline = time.monotonic() + 60
            while not ready.exists():
                assert run.poll() is None, (tmp_path / "run.err").read_text()
                assert time.monotonic() < deadline, "predict never started"
                time.sleep(0.05)
            run.send_signal(signum)
            run.wait(timeout=10)
            pids = [int(pid) for pid in log.read_text().split()]
            assert pids
            deadline = time.monotonic() + 5
            while any(map(running, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert [pid for pid in pids if running(pid)] == []
            assert not (tmp_path / "out" / "run_manifest.json").exists()
        finally:
            run.kill()
            run.wait()
            for pid in (int(pid) for pid in log.read_text().split()) if log.exists() else ():
                if running(pid):
                    os.kill(pid, signal.SIGKILL)


# text the KG exports must escape: markup characters, quotes, backslashes,
# whitespace inside names and non-ASCII letters
_odd_text = st.text(alphabet="aZ &<>\"'\\\t\n,;:éß中", max_size=8)


def write_dot(path, nodes: dict[str, dict], edges: list[tuple[str, str, dict]],
              directed: bool) -> None:
    """The generic DOT writer that kg_to_dot replaced; the KG was its only use."""
    arrow = "->" if directed else "--"
    lines = [("digraph" if directed else "graph") + " G {"]
    for node in sorted(nodes):
        attrs = nodes[node]
        label_bits = [f"{k}={_attr_str(v)}" for k, v in sorted(attrs.items()) if v is not None]
        if label_bits:
            lines.append(f'  {_dot_id(node)} [label={_dot_id(node + chr(10) + " ".join(label_bits))}];')
        else:
            lines.append(f'  {_dot_id(node)};')
    for u, v, attrs in sorted(edges, key=lambda e: (e[0], e[1])):
        w = attrs.get("weight")
        suffix = f' [weight={_attr_str(w)}]' if w is not None else ""
        lines.append(f'  {_dot_id(u)} {arrow} {_dot_id(v)}{suffix};')
    lines.append("}")
    write_text(path, "\n".join(lines) + "\n")


def kg_export_reference_bytes(kg: KnowledgeGraph, tmp) -> tuple[bytes, bytes]:
    """graph.graphml and graph.dot of ``kg`` as the generic writers give
    them: every node and edge as a dict through write_graphml and write_dot."""
    nodes = {}
    for ref in sorted(kg.nodes):
        attrs = kg.nodes[ref]
        nodes[f"{ref.node_type}:{ref.key}"] = {
            "node_type": ref.node_type,
            "year": attrs.get("year"),
            "name": attrs.get("name") or attrs.get("title"),
        }
    edges = [(f"{e.src.node_type}:{e.src.key}", f"{e.dst.node_type}:{e.dst.key}",
              {"edge_type": e.edge_type, "weight": e.weight, "year": e.year})
             for e in kg.edges]
    write_graphml(tmp / "ref.graphml", nodes, edges, directed=True)
    write_dot(tmp / "ref.dot", {node: {} for node in nodes},
              [(u, v, {"weight": attrs["weight"]}) for u, v, attrs in edges], directed=True)
    return (tmp / "ref.graphml").read_bytes(), (tmp / "ref.dot").read_bytes()


def typed_value_kg() -> KnowledgeGraph:
    """A KG whose edge weights and years are equal as dict keys but format
    differently: 1, 1.0 and True; 0, 0.0, -0.0 and False."""
    values = [1, 1.0, True, 0, 0.0, -0.0, False, 2.5, 1, -0.0, True]
    refs = [NodeRef(NODE_PAPER, f"p{i}") for i in range(len(values) + 1)]
    # every third edge takes its year from the mixed values too
    edges = [Edge(refs[i + 1], refs[i], EDGE_CITES, value,
                  value if i % 3 == 0 else 2000 + i % 2) for i, value in enumerate(values)]
    return KnowledgeGraph({ref: {"year": 2000} for ref in refs}, edges, (2000, 2001))


def kg_export_bytes(kg: KnowledgeGraph, tmp) -> tuple[bytes, bytes]:
    kg_to_graphml(tmp / "new.graphml", kg)
    kg_to_dot(tmp / "new.dot", kg)
    return (tmp / "new.graphml").read_bytes(), (tmp / "new.dot").read_bytes()


class TestExports:
    def test_graphml_parses_and_keeps_attrs(self, tmp_path):
        path = tmp_path / "g.graphml"
        write_graphml(path, {"n1": {"year": 2010, "score": 0.5}, "n2": {"year": 2011}},
                      [("n1", "n2", {"weight": 0.25})], directed=True)
        root = ET.parse(path).getroot()
        ns = "{http://graphml.graphdrawing.org/xmlns}"
        nodes = root.findall(f".//{ns}node")
        edges = root.findall(f".//{ns}edge")
        assert {n.get("id") for n in nodes} == {"n1", "n2"}
        assert edges[0].get("source") == "n1"
        data = {d.get("key"): d.text for d in edges[0].findall(f"{ns}data")}
        assert data["e_weight"] == "0.25"

    def test_failed_write_keeps_earlier_file(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a"], [(1,)])
        before = path.read_bytes()

        def rows():
            yield (2,)
            raise RuntimeError("row failed")

        with pytest.raises(RuntimeError, match="row failed"):
            write_csv(path, ["a"], rows())
        assert path.read_bytes() == before == b"a\n1\n"
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]

    def test_csv_floats_are_their_repr(self, tmp_path):
        path = tmp_path / "f.csv"
        values = [0.1 + 0.2, np.float64(0.1 + 0.2), -0.0, 1e-20, float("inf"), float("nan")]
        write_csv(path, ["v"], [(v,) for v in values])
        assert path.read_text().splitlines()[1:] == [repr(float(v)) for v in values]

    @given(st.text(alphabet=st.one_of(st.sampled_from("&<>\"'\n\r\t"), st.characters())))
    def test_escape_and_quoteattr_match_saxutils(self, text):
        assert _escape(text) == saxutils.escape(text)
        assert _quoteattr(text) == saxutils.quoteattr(text)

    def test_cli_import_loads_no_network_modules(self):
        # xml.sax.saxutils imports urllib.request, http.client and email,
        # about 30-45 ms at the start of every litla process
        # nor multiprocessing, which only a run that forks stage workers
        # imports, nor concurrent.futures, which no part of litla uses
        code = ("import sys, litla.cli; print(sorted(m for m in sys.modules if m in "
                "('xml.sax', 'urllib.request', 'http.client', 'email', "
                "'multiprocessing', 'concurrent.futures')))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True).stdout
        assert out == "[]\n"

    def test_cli_import_needs_no_ctypes(self):
        # only a forked stage worker imports ctypes; numpy 2 loads it when it
        # can, so the import is blocked rather than looked for afterwards
        code = ("import sys; sys.modules['ctypes'] = None; import litla.cli; "
                "print(sys.modules['ctypes'])")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True).stdout
        assert out == "None\n"

    @pytest.mark.parametrize("corpus", ["fixture", "empty", "no_edges", "typed_values"])
    def test_kg_exports_match_generic_writers(self, corpus, fixture_records, tmp_path):
        if corpus == "typed_values":
            kg = typed_value_kg()
        else:
            records = {"fixture": fixture_records, "empty": [],
                       "no_edges": [PaperRecord(id="solo", title="", year=2001)]}[corpus]
            kg = build_graph(records)
        assert kg_export_bytes(kg, tmp_path) == kg_export_reference_bytes(kg, tmp_path)
        if corpus == "empty":
            assert b"<key" not in (tmp_path / "new.graphml").read_bytes()

    @given(st.lists(st.tuples(_odd_text, _odd_text, _odd_text, st.lists(_odd_text, max_size=3),
                              st.integers(2000, 2004), st.lists(st.integers(0, 5), max_size=3)),
                    min_size=1, max_size=6))
    def test_kg_exports_match_generic_writers_on_odd_text(self, specs):
        ids = [f"{i}{title}" for i, (title, *_) in enumerate(specs)]
        records = [
            PaperRecord(id=ids[i], title=title, year=year, venue=name,
                        authors=[Author(name, affiliation), Author(title or "x")],
                        author_keywords=keywords, abstract=" ".join(keywords),
                        references=[ids[r] for r in refs if r < len(ids)] + ["elsewhere"])
            for i, (title, name, affiliation, keywords, year, refs) in enumerate(specs)]
        kg = build_graph(records)
        with tempfile.TemporaryDirectory() as tmp:
            assert kg_export_bytes(kg, Path(tmp)) == kg_export_reference_bytes(kg, Path(tmp))

    def test_dot_escapes_quotes(self, tmp_path):
        path = tmp_path / "g.dot"
        kg_to_dot(path, build_graph([PaperRecord(id='we"ird\\', title="t", year=2001)]))
        assert path.read_text() == 'digraph G {\n  "paper:we\\"ird\\\\";\n}\n'
