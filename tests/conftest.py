import json
import os
import random
from pathlib import Path

import hypothesis
import pytest

from litla.graph import ProjectedGraph
from litla.records import PaperRecord, load_records
from litla.textutil import TextIndex

hypothesis.settings.register_profile("ci", max_examples=60, deadline=None)
hypothesis.settings.load_profile("ci")

FIXTURE_DIR = Path(__file__).resolve().parents[1] / "fixtures"


def pytest_configure(config):
    # `python -m litla` subprocesses find the package as pytest's own
    # `pythonpath = ["src"]` does, also when it is not installed
    src = str(FIXTURE_DIR.parent / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture(scope="session")
def fixture_dir() -> Path:
    return FIXTURE_DIR


@pytest.fixture(scope="session")
def fixture_records():
    records, errors = load_records(FIXTURE_DIR / "records.jsonl")
    assert not errors
    return records


def text_index(texts: dict[str, str]) -> TextIndex:
    """The index of papers with empty titles whose abstracts are ``texts``,
    so that each paper's stream is ``tokenize(texts[pid])``."""
    return TextIndex({pid: ("", text) for pid, text in texts.items()})


def record_to_obj(rec: PaperRecord) -> dict:
    return {
        "id": rec.id,
        "title": rec.title,
        "abstract": rec.abstract,
        "authors": [{"name": a.name, "affiliation": a.affiliation} for a in rec.authors],
        "year": rec.year,
        "venue": rec.venue,
        "pub_type": rec.pub_type,
        "author_keywords": list(rec.author_keywords),
        "subject_categories": list(rec.subject_categories),
        "publisher": rec.publisher,
        "citation_count": rec.citation_count,
        "page_count": rec.page_count,
        "references": list(rec.references),
        "language": rec.language,
        "doc_type": rec.doc_type,
        "citation_statements": [
            {"text": s.text, "intent": s.intent} for s in rec.citation_statements
        ],
        "extracted_keywords": list(rec.extracted_keywords),
        "embedding": None if rec.embedding is None else rec.embedding.tolist(),
    }


def serialize_records(records) -> str:
    """Canonical JSONL, one line per record (sorted keys, no spaces): a
    fixpoint of parse -> serialize, which makes round-trips byte-identical."""
    return "".join(json.dumps(record_to_obj(r), sort_keys=True, separators=(",", ":"),
                              ensure_ascii=False) + "\n" for r in records)


def undirected(edges, nodes=None, years=None, weights=None) -> ProjectedGraph:
    """Small undirected graph from an edge list (plus optional isolated nodes)."""
    node_set = {n for e in edges for n in e}
    if nodes:
        node_set.update(nodes)
    node_attrs = {n: ({"year": years[n]} if years and n in years else {})
                  for n in node_set}
    edge_attrs = {}
    for e in edges:
        u, v = sorted(e)
        attrs = {"weight": (weights or {}).get((u, v), (weights or {}).get((v, u), 1.0))}
        edge_attrs[(u, v)] = attrs
    return ProjectedGraph(directed=False, nodes=node_attrs, edges=edge_attrs)


def citation(edges, years, authors=None) -> ProjectedGraph:
    """Small citation digraph; edge flags derive from endpoint years."""
    node_set = set(years)
    node_attrs = {
        n: {"year": years[n], "authors": tuple((authors or {}).get(n, ()))}
        for n in node_set
    }
    edge_attrs = {}
    for u, v in edges:
        flags = frozenset() if years[u] >= years[v] else frozenset({"temporal_anomaly"})
        edge_attrs[(u, v)] = {"year": years[u], "weight": 1.0, "flags": flags}
    return ProjectedGraph(directed=True, nodes=node_attrs, edges=edge_attrs)


def random_undirected(seed: int, n_lo=4, n_hi=30, p=0.2) -> ProjectedGraph:
    rng = random.Random(seed)
    n = rng.randint(n_lo, n_hi)
    nodes = [f"n{i:02d}" for i in range(n)]
    edges = [(nodes[i], nodes[j]) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return undirected(edges, nodes=nodes)


def random_dag(seed: int, n_lo=3, n_hi=15, p=0.3):
    """Random citation DAG: later ids cite earlier ids only. Returns
    (nodes, edges, years)."""
    rng = random.Random(seed)
    n = rng.randint(n_lo, n_hi)
    nodes = [f"d{i:02d}" for i in range(n)]
    years = {nodes[i]: 2000 + i for i in range(n)}
    edges = [(nodes[j], nodes[i]) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return nodes, edges, years


def attachment_snapshots(mode, seed=5, n_old=1000, n_new=1000, m=10):
    """Two snapshots of one linear/uniform attachment round over manufactured
    in-degree tiers 1, 2, 4, ..., 64."""
    import bisect

    rng = random.Random(seed)
    nodes = {}
    edges = {}
    old = [f"o{i:04d}" for i in range(n_old)]
    for nid in old:
        nodes[nid] = {"year": 0}
    indeg0 = {}
    for i, nid in enumerate(old):
        want = 2 ** (i % 7)
        indeg0[nid] = want
        j = 1
        made = 0
        while made < want:
            citer = old[(i + 37 * j) % n_old]
            j += 1
            if citer == nid or (citer, nid) in edges:
                continue
            edges[(citer, nid)] = {"year": 0, "flags": frozenset()}
            made += 1
    cumulative = []
    total = 0.0
    for nid in old:
        total += indeg0[nid]
        cumulative.append(total)
    for j in range(n_new):
        nid = f"n{j:04d}"
        nodes[nid] = {"year": 1}
        targets = set()
        while len(targets) < m:
            if mode == "linear":
                targets.add(old[bisect.bisect_left(cumulative, rng.random() * total)])
            else:
                targets.add(old[rng.randrange(n_old)])
        for t in targets:
            edges[(nid, t)] = {"year": 1, "flags": frozenset()}
    g = ProjectedGraph(True, nodes, edges)
    return [g.snapshot(0), g.snapshot(1)]
