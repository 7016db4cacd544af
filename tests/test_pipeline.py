"""``litla all`` on drawn corpora: every stage writes its reports or fails
with a named error, a second run writes the same bytes, and on explicit
corpora one run of all stages gives the reports of the six single-stage
runs and of a forked run."""

import json
import os
import random
import re
import runpy
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from litla.cli import STAGES, main

differences = runpy.run_path(
    str(Path(__file__).resolve().parents[1] / "scripts" / "same_reports.py"))["differences"]

NAMES = ["Ann Lee", "Bo Chen", "Cy Park", "Di Wu", "Ed Kim", "Fay Ng"]
AFFILIATIONS = ["Tsinghua University, China", "ETH Zurich, Switzerland", "MIT, USA", ""]
PHRASES = ["weight vectors", "decomposition", "constraint handling", "surrogate model",
           "flow shop", "reference points", "neighborhood selection"]

# the failures a drawn corpus may cause; each names the config key or the
# input that caused it
NAMED_FAILURES = [
    r"ValueError: min_pts must be at least 2",
    r"RuntimeError: keyword co-occurrence network is empty",
    r"RuntimeError: no usable training years: keyword network never grew",
    r"RuntimeError: no negative pair could be sampled in training years \[\d{4}(, \d{4})*\]: "
    r"by each year's end, every pair of the keywords seen the year before was linked",
]


def record(pid: str, year: int, keywords: list[str], authors=(), refs=(), embedding=None):
    """A record whose title, abstract and author keywords are ``keywords``."""
    text = " ".join(keywords) or f"paper {pid}"
    obj = {"id": pid, "title": text, "abstract": text, "year": year, "page_count": 8,
           "author_keywords": keywords, "references": list(refs),
           "authors": [{"name": name, "affiliation": aff} for name, aff in authors]}
    if embedding is not None:
        obj["embedding"] = embedding
    return obj


def one_class_records() -> list[dict]:
    """2011's only new keyword edge, alpha-gamma, links the last unconnected
    pair, so no negative pair is left to sample."""
    return [record(pid, year, kws.split(), authors=[(name, "")])
            for pid, year, kws, name in [("p1", 2010, "alpha beta", "Ann Lee"),
                                         ("p2", 2010, "beta gamma", "Bo Chen"),
                                         ("p3", 2011, "alpha gamma", "Cy Park"),
                                         ("p4", 2012, "alpha beta", "Di Wu")]]


def write_corpus(where: Path, records: list[dict], min_pts: int | None = None) -> Path:
    with open(where / "records.jsonl", "w") as fh:
        fh.writelines(json.dumps(obj) + "\n" for obj in records)
    config = '[input]\nrecords = "records.jsonl"\n[output]\ndir = "out"\n'
    if min_pts is not None:
        config += f"[topics]\nmin_pts = {min_pts}\n"
    (where / "c.toml").write_text(config)
    return where / "c.toml"


def run(config: Path, out: Path, *stages: str) -> dict:
    """The manifest of ``litla STAGE`` (``all`` when no stage is given) at seed 7."""
    main([*(stages or ["all"]), "--config", str(config), "--output", str(out), "--seed", "7"])
    return json.loads((out / "run_manifest.json").read_text())


def cpus(monkeypatch, n: int) -> None:
    """``n`` usable CPUs: with one, ``litla all`` runs every stage in process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


@st.composite
def corpora(draw):
    """0-30 papers over 2005-2017 with 0-3 authors from 6 names, keywords
    from 7 phrases, in-corpus references (self-references, repeats and
    same-year cycles among them) and 2-d, 3-d or no embeddings; and a
    ``min_pts`` of 1 to 3."""
    n = draw(st.integers(0, 30))
    dim = draw(st.sampled_from([None, 2, 3]))
    coords = st.sampled_from([0.0, 0.1, 0.2, 1.0, 1.1, 3.0])
    records = []
    for i in range(n):
        authors = draw(st.lists(st.tuples(st.sampled_from(NAMES), st.sampled_from(AFFILIATIONS)),
                                max_size=3))
        records.append(record(
            f"p{i}", draw(st.integers(2005, 2017)),
            draw(st.lists(st.sampled_from(PHRASES), max_size=3)), authors,
            [f"p{j}" for j in draw(st.lists(st.integers(0, n - 1), max_size=4))],
            draw(st.lists(coords, min_size=dim, max_size=dim)) if dim else None))
    return records, draw(st.integers(1, 3))


@given(corpora())
def test_all_fails_only_by_name_and_writes_the_same_bytes_twice(corpus):
    records, min_pts = corpus
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        cpus(mp, 1)
        tmp = Path(tmp)
        config = write_corpus(tmp, records, min_pts)
        manifest = run(config, tmp / "first")
        run(config, tmp / "second")
        assert [e["stage"] for e in manifest["stages"]] == list(STAGES)
        for entry in manifest["stages"]:
            if entry["status"] != "ok":
                assert any(re.fullmatch(p, entry["error"]) for p in NAMED_FAILURES), entry
        assert differences(tmp / "first", tmp / "second") == []


def cycle_records() -> list[dict]:
    """Self-references, a repeated reference, a same-year cycle (p1 -> p2
    -> p3 -> p1 in 2012), a backward citation and 2-d embeddings in two
    clusters."""
    spec = [("p0", 2010, "weight vectors decomposition", ["p0", "p0"]),
            ("p1", 2012, "decomposition flow shop", ["p2", "p0", "p0"]),
            ("p2", 2012, "flow shop surrogate model", ["p3"]),
            ("p3", 2012, "surrogate model weight vectors", ["p1", "p4"]),
            ("p4", 2014, "reference points decomposition", ["p0", "p2"]),
            ("p5", 2015, "weight vectors flow shop", ["p4", "p5"])]
    return [record(pid, year, [p for p in PHRASES if p in text],
                   authors=[(NAMES[i % 3], AFFILIATIONS[i % 4]), (NAMES[(i + 1) % 3], "")],
                   refs=refs, embedding=[float(i % 2), 0.1 * i])
            for i, (pid, year, text, refs) in enumerate(spec)]


def grown_records() -> list[dict]:
    """16 papers over 2010-2015 with 3 of the 7 phrases each, drawn with a
    fixed seed: every stage succeeds."""
    rng = random.Random(0)
    return [record(f"p{i:02d}", 2010 + i // 3, rng.sample(PHRASES, 3),
                   authors=[(NAMES[i % 6], AFFILIATIONS[i % 4]), (NAMES[(5 * i + 1) % 6], "")],
                   refs=[f"p{rng.randrange(16):02d}" for _ in range(3)],
                   embedding=[float(i % 2), 0.1 * (i % 3)])
            for i in range(16)]


EXAMPLES = {
    "one_class": (one_class_records(), None),
    "cycles_and_two_topics": (cycle_records(), 2),
    "grown": (grown_records(), 2),
    "min_pts_1": (cycle_records(), 1),
    "empty": ([], 3),
}


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_all_matches_single_stages_and_a_forked_run(name, tmp_path, monkeypatch):
    config = write_corpus(tmp_path, *EXAMPLES[name])
    cpus(monkeypatch, 1)
    together = run(config, tmp_path / "all")
    entries = []
    for stage in STAGES:
        entries += run(config, tmp_path / stage, stage)["stages"]
        for path in (tmp_path / stage).iterdir():
            if path.name != "run_manifest.json":
                assert path.read_bytes() == (tmp_path / "all" / path.name).read_bytes(), path
    without_duration = [{k: v for k, v in e.items() if k != "duration_s"}
                        for e in entries + together["stages"]]
    assert without_duration[:len(STAGES)] == without_duration[len(STAGES):]
    cpus(monkeypatch, 2)
    run(config, tmp_path / "forked")
    assert differences(tmp_path / "all", tmp_path / "forked") == []


def test_training_without_a_negative_pair_names_its_years(tmp_path):
    # failed in gbdt as "training requires both classes with 0/1 labels"
    config = write_corpus(tmp_path, one_class_records())
    (entry,) = run(config, tmp_path / "out", "predict")["stages"]
    assert entry["error"] == (
        "RuntimeError: no negative pair could be sampled in training years [2011]: "
        "by each year's end, every pair of the keywords seen the year before was linked")
