"""Heterogeneous bibliographic knowledge graph and its homogeneous projections.

Nodes are papers, authors, venues, keywords and institutions; typed edges
carry a weight (a joint-paper count for co-authorship, affiliation and
keyword co-mention edges) and a first-appearance year. Yearly snapshots of a
projection are structural: no per-year figure reads a weight.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import combinations
from operator import itemgetter
from typing import Hashable, Iterable, NamedTuple

from .countries import UNKNOWN, infer_country
from .records import PaperRecord
from .textutil import TextIndex, contains_phrase, tokenize

NODE_PAPER = "paper"
NODE_AUTHOR = "author"
NODE_VENUE = "venue"
NODE_KEYWORD = "keyword"
NODE_INSTITUTION = "institution"
NODE_TYPES = (NODE_PAPER, NODE_AUTHOR, NODE_VENUE, NODE_KEYWORD, NODE_INSTITUTION)

EDGE_CITES = "cites"
EDGE_AUTHOR_OF = "author_of"
EDGE_AFFILIATED_WITH = "affiliated_with"
EDGE_PUBLISHED_AT = "published_at"
EDGE_MENTIONS_KEYWORD = "mentions_keyword"
EDGE_COAUTHORS_WITH = "coauthors_with"

# edge type -> (src node type, dst node type)
_EDGE_ENDPOINTS = {
    EDGE_CITES: (NODE_PAPER, NODE_PAPER),
    EDGE_AUTHOR_OF: (NODE_AUTHOR, NODE_PAPER),
    EDGE_AFFILIATED_WITH: (NODE_AUTHOR, NODE_INSTITUTION),
    EDGE_PUBLISHED_AT: (NODE_PAPER, NODE_VENUE),
    EDGE_MENTIONS_KEYWORD: (NODE_PAPER, NODE_KEYWORD),
    EDGE_COAUTHORS_WITH: (NODE_AUTHOR, NODE_AUTHOR),
}

FLAG_TEMPORAL_ANOMALY = "temporal_anomaly"
FLAG_CYCLE = "cycle"
# a citation edge's flags: one of these three sets, shared by every edge that has it
NO_FLAGS = frozenset()
TEMPORAL_ANOMALY_FLAGS = frozenset({FLAG_TEMPORAL_ANOMALY})
CYCLE_FLAGS = frozenset({FLAG_CYCLE})

PROJECTION_CITATION = "citation"
PROJECTION_COAUTHORSHIP = "coauthorship"
PROJECTION_KEYWORD = "keyword_cooccurrence"


def canonical(text: str) -> str:
    """Case-fold, trim and collapse whitespace."""
    return " ".join(text.casefold().split())


def institution_key(affiliation: str) -> str:
    """Canonical institution key: first comma-separated segment of the address."""
    return canonical(affiliation.split(",", 1)[0])


class NodeRef(NamedTuple):
    """A typed node key. A tuple, so hashing and ordering run in C; it
    compares equal to the plain ``(node_type, key)`` pair."""

    node_type: str
    key: str


class Edge(NamedTuple):
    """A typed, weighted edge; a tuple like :class:`NodeRef`."""

    src: NodeRef
    dst: NodeRef
    edge_type: str
    weight: float = 1.0
    year: int = 0
    flags: frozenset[str] = NO_FLAGS


class KnowledgeGraph:
    """Immutable-after-build typed multigraph.

    The constructor checks each node key and edge once (known types,
    non-empty keys, endpoint types, non-negative weights, no dangling
    endpoint). ``edges`` are sorted once, by (src, dst, edge_type, year),
    the order the exports write; each edge type's list keeps that order.
    :meth:`nodes_of_type` and :meth:`edges_of_type` return lists shared
    with the graph, which callers must not mutate. ``corpus_year_range`` is
    the first and last paper's year, ``(0, 0)`` without papers, and
    ``years`` is the span of every yearly series, empty without papers.
    ``text`` indexes the papers' titles and abstracts.
    """

    def __init__(self, nodes: dict[NodeRef, dict], edges: list[Edge], *,
                 text: TextIndex | None = None):
        self._nodes_by_type: dict[str, list[NodeRef]] = {}
        for ref in sorted(nodes):
            node_type, key = ref
            if node_type not in NODE_TYPES:
                raise ValueError(f"unknown node type {node_type!r}")
            if not key:
                raise ValueError("node key must be non-empty")
            self._nodes_by_type.setdefault(node_type, []).append(ref)
        for src, dst, edge_type, weight, _, _ in edges:
            expect = _EDGE_ENDPOINTS.get(edge_type)
            if expect is None:
                raise ValueError(f"unknown edge type {edge_type!r}")
            if (src.node_type, dst.node_type) != expect:
                raise ValueError(
                    f"{edge_type} edge requires endpoints {expect}, got "
                    f"({src.node_type}, {dst.node_type})")
            if weight < 0:
                raise ValueError("edge weight must be non-negative")
            if src not in nodes or dst not in nodes:
                raise ValueError(f"dangling edge endpoint: {src} -> {dst}")
        self.nodes = nodes
        self.edges = sorted(edges, key=itemgetter(0, 1, 2, 4))
        self.text = TextIndex({}) if text is None else text
        years = [nodes[ref]["year"] for ref in self.nodes_of_type(NODE_PAPER)]
        lo, hi = self.corpus_year_range = (min(years), max(years)) if years else (0, 0)
        self.years = range(lo, hi + 1) if years else range(0)
        self._edges_by_type: dict[str, list[Edge]] = {}
        for e in self.edges:
            self._edges_by_type.setdefault(e.edge_type, []).append(e)

    def node_count(self, node_type: str) -> int:
        return len(self.nodes_of_type(node_type))

    def nodes_of_type(self, node_type: str) -> list[NodeRef]:
        return self._nodes_by_type.get(node_type, [])

    def edges_of_type(self, edge_type: str) -> list[Edge]:
        return self._edges_by_type.get(edge_type, [])

    def paper(self, paper_id: str) -> dict:
        return self.nodes[NodeRef(NODE_PAPER, paper_id)]

    # -- homogeneous views ----------------------------------------------------

    def project(self, kind: str) -> "ProjectedGraph":
        """The homogeneous view ``kind``. The citation and co-authorship
        projections hold the graph's own paper and author dicts as their
        nodes, which callers must not mutate; the keyword projection tallies
        its nodes and edges from the papers' ``text_keywords``."""
        if kind == PROJECTION_CITATION:
            edges = {
                (e.src.key, e.dst.key): {"year": e.year, "weight": 1.0, "flags": e.flags}
                for e in self.edges_of_type(EDGE_CITES)
            }
            return ProjectedGraph(directed=True, nodes=self._by_key(NODE_PAPER), edges=edges)
        if kind == PROJECTION_COAUTHORSHIP:
            edges = {
                (e.src.key, e.dst.key): {"year": e.year, "weight": e.weight}
                for e in self.edges_of_type(EDGE_COAUTHORS_WITH)
            }
            return ProjectedGraph(directed=False, nodes=self._by_key(NODE_AUTHOR), edges=edges)
        if kind != PROJECTION_KEYWORD:
            raise ValueError(f"unknown projection {kind!r}")
        papers = [(attrs["text_keywords"], attrs["year"])
                  for attrs in self._by_key(NODE_PAPER).values()]
        firsts = _tally((kw, year) for kws, year in papers for kw in kws)
        pairs = _tally((pair, year) for kws, year in papers for pair in combinations(kws, 2))
        nodes = {kw: {"year": first} for kw, (_, first) in firsts.items()}
        edges = {pair: {"year": first, "weight": float(count)}
                 for pair, (count, first) in pairs.items()}
        return ProjectedGraph(directed=False, nodes=nodes, edges=edges)

    def _by_key(self, node_type: str) -> dict[str, dict]:
        return {ref.key: self.nodes[ref] for ref in self.nodes_of_type(node_type)}


class ProjectedGraph:
    """Homogeneous graph on string-named nodes. Undirected edges are keyed
    by canonical (u < v) pairs.

    The structure is fixed at construction and read as integers: node ``i``
    is ``names[i]`` (sorted, so index order is name order), ``pos`` maps a
    name back to its index, ``succ[i]`` is the sorted indices of its
    successors (of its neighbours, when the graph is undirected) and
    ``pred[i]`` those of its predecessors; an undirected graph's ``pred`` is
    its ``succ``. Edge attribute values are not copied, so they are read
    from ``edges`` when an algorithm runs.
    """

    def __init__(self, directed: bool, nodes: dict[str, dict],
                 edges: dict[tuple[str, str], dict]):
        self.directed = directed
        self.nodes = nodes
        self.edges = {}
        for (u, v), attrs in edges.items():
            if u not in nodes or v not in nodes:
                raise ValueError(f"dangling edge endpoint: {u} -> {v}")
            if u == v:
                raise ValueError(f"self-loop on {u}")
            if not directed and u > v:
                u, v = v, u
            self.edges[(u, v)] = attrs
        self.names = sorted(nodes)
        self.pos = {u: i for i, u in enumerate(self.names)}
        self.succ: list[list[int]] = [[] for _ in self.names]
        self.pred = [[] for _ in self.names] if directed else self.succ
        for u, v in self.edges:  # canonical, so an undirected pair is listed once
            i, j = self.pos[u], self.pos[v]
            self.succ[i].append(j)
            self.pred[j].append(i)
        for row in self.succ + self.pred if directed else self.succ:
            row.sort()

    def node_count(self) -> int:
        return len(self.nodes)

    def edge_count(self) -> int:
        return len(self.edges)

    def has_edge(self, u: str, v: str) -> bool:
        if not self.directed and u > v:
            u, v = v, u
        return (u, v) in self.edges

    def edge_attrs(self, u: str, v: str) -> dict:
        if not self.directed and u > v:
            u, v = v, u
        return self.edges[(u, v)]

    def neighbors(self, u: str) -> set[str]:
        return {self.names[j] for j in self.succ[self.pos[u]]}

    successors = neighbors

    def predecessors(self, u: str) -> set[str]:
        return {self.names[j] for j in self.pred[self.pos[u]]}

    def degree(self, u: str) -> int:
        return len(self.succ[self.pos[u]])

    def in_degree(self, u: str) -> int:
        return len(self.pred[self.pos[u]])

    def snapshot(self, year: int) -> "ProjectedGraph":
        """Induced subgraph of the nodes and edges first appearing in or
        before ``year`` (or with no year). Structural: a kept node or edge
        shares its attribute dict, and so its full-graph weight, with this graph."""
        nodes = {u: a for u, a in self.nodes.items() if a.get("year", year) <= year}
        edges = {(u, v): attrs for (u, v), attrs in self.edges.items()
                 if attrs.get("year", year) <= year and u in nodes and v in nodes}
        return ProjectedGraph(self.directed, nodes, edges)


# --- construction -------------------------------------------------------------


def _scc_roots(adj: dict[str, list[str]]) -> dict[str, str]:
    """Each node's strongly connected component, named by one of its
    members (Kosaraju-Sharir): a depth-first search records the finish
    order, then a sweep of the reversed edges, latest finish first, claims
    each component."""
    order: list[str] = []
    seen: set[str] = set()
    for root in adj:
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(adj[root]))]
        while stack:
            node, it = stack[-1]
            for nxt in it:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, iter(adj[nxt])))
                    break
            else:
                stack.pop()
                order.append(node)
    radj: dict[str, list[str]] = {u: [] for u in adj}
    for u, vs in adj.items():
        for v in vs:
            radj[v].append(u)
    comp: dict[str, str] = {}
    for root in reversed(order):
        if root in comp:
            continue
        comp[root] = root
        todo = [root]
        while todo:
            for v in radj[todo.pop()]:
                if v not in comp:
                    comp[v] = root
                    todo.append(v)
    return comp


def _tally(keyed_years: Iterable[tuple[Hashable, int]]) -> dict:
    """Each key's (paper count, first year) over its (key, paper year)
    pairs, in first-seen order: a shared-paper edge's weight and year."""
    tally: dict = {}
    for key, year in keyed_years:
        count, first = tally.get(key, (0, year))
        tally[key] = (count + 1, min(first, year))
    return tally


def build_graph(records: list[PaperRecord]) -> KnowledgeGraph:
    """Assemble the knowledge graph from deduplicated records.

    Citation edges are restricted to within-corpus targets. A paper node
    holds its record's embedding object itself. Backward-in-time citations are
    flagged as temporal anomalies and citation cycles among the remaining
    edges are flagged so DAG-based analyses can drop them. A paper's
    ``text_keywords`` are its canonical keywords, sorted, whose token sequence
    occurs contiguously in its title+abstract stream of the graph's ``text``
    index. A non-citation edge weighs its joint-paper count and is dated by
    the first of those papers. An author, venue, keyword or institution is
    dated by its first paper and named by its first record in id order.
    """
    paper_years = {r.id: r.year for r in records}
    if len(paper_years) != len(records):
        dupes = sorted(k for k, c in Counter(r.id for r in records).items() if c > 1)
        raise ValueError(f"duplicate record ids: {dupes}")

    records = sorted(records, key=lambda r: r.id)
    text = TextIndex({rec.id: (rec.title, rec.abstract) for rec in records})
    refs = cache(NodeRef)  # one NodeRef per node
    phrases = cache(tokenize)  # keyword -> its tokens
    canon = cache(canonical)  # name -> its canonical key
    nodes: dict[NodeRef, dict] = {}
    edges: list[Edge] = []
    shared: list[tuple[tuple[NodeRef, NodeRef, str], int]] = []  # (edge key, year) per joint paper
    cites_pairs: list[tuple[str, str]] = []

    def meet(ref: NodeRef, year: int, **attrs) -> dict:
        """The entity ``ref``, named by its first record, dated by its first paper so far."""
        node = nodes.setdefault(ref, {**attrs, "year": year})
        node["year"] = min(node["year"], year)
        return node

    for rec in records:
        paper_ref = refs(NODE_PAPER, rec.id)
        author_refs = []
        countries = []
        for a in rec.authors:
            akey = canon(a.name)
            if not akey:
                continue
            country = infer_country(a.affiliation) if a.affiliation else UNKNOWN
            author_ref = refs(NODE_AUTHOR, akey)
            author = meet(author_ref, rec.year, name=a.name, incidences=[])
            author["incidences"].append((rec.year, rec.id, country))
            author_refs.append(author_ref)
            countries.append(country)
            ikey = institution_key(a.affiliation)
            if ikey:
                inst_ref = refs(NODE_INSTITUTION, ikey)
                meet(inst_ref, rec.year, name=a.affiliation.split(",", 1)[0].strip())
                shared.append(((author_ref, inst_ref, EDGE_AFFILIATED_WITH), rec.year))
        author_refs = list(dict.fromkeys(author_refs))  # dedupe, keep order

        vkey = canon(rec.venue)
        all_keywords = sorted({canon(k) for k in rec.extracted_keywords + rec.author_keywords
                               if k.strip()})
        stream = text.streams[rec.id]
        text_kws = [kw for kw in all_keywords if contains_phrase(stream, phrases(kw))]

        in_refs = sorted(r for r in set(rec.references) if r in paper_years and r != rec.id)
        known_countries = sorted({c for c in countries if c != UNKNOWN})
        intents = tuple(s.intent for s in rec.citation_statements if s.intent)
        nodes[paper_ref] = {
            "year": rec.year,
            "title": rec.title,
            "venue": vkey,
            "pub_type": rec.pub_type,
            "authors": tuple(ref.key for ref in author_refs),
            "countries": tuple(known_countries) if known_countries else (UNKNOWN,) if rec.authors else (),
            "subject_categories": tuple(dict.fromkeys(rec.subject_categories)),
            "intents": intents,
            "text_keywords": tuple(text_kws),
            "embedding": rec.embedding,
        }

        shared.extend(((u, v, EDGE_COAUTHORS_WITH), rec.year)
                      for u, v in combinations(sorted(author_refs), 2))
        for author_ref in author_refs:
            edges.append(Edge(author_ref, paper_ref, EDGE_AUTHOR_OF, 1.0, rec.year))
        if vkey:
            venue_ref = refs(NODE_VENUE, vkey)
            meet(venue_ref, rec.year, name=rec.venue)
            edges.append(Edge(paper_ref, venue_ref, EDGE_PUBLISHED_AT, 1.0, rec.year))
        for kw in all_keywords:
            kw_ref = refs(NODE_KEYWORD, kw)
            meet(kw_ref, rec.year)
            edges.append(Edge(paper_ref, kw_ref, EDGE_MENTIONS_KEYWORD, 1.0, rec.year))
        cites_pairs.extend((rec.id, tgt) for tgt in in_refs)

    for (src, dst, edge_type), (count, first) in _tally(shared).items():
        edges.append(Edge(src, dst, edge_type, float(count), first))

    # cycle detection runs on temporally valid edges only
    valid_adj: dict[str, list[str]] = {pid: [] for pid in paper_years}
    for src, dst in cites_pairs:
        if paper_years[src] >= paper_years[dst]:
            valid_adj[src].append(dst)
    comp = _scc_roots(valid_adj)
    for src, dst in cites_pairs:  # src != dst, so one component means a cycle
        flags = (TEMPORAL_ANOMALY_FLAGS if paper_years[src] < paper_years[dst]
                 else CYCLE_FLAGS if comp[src] == comp[dst] else NO_FLAGS)
        edges.append(Edge(refs(NODE_PAPER, src), refs(NODE_PAPER, dst), EDGE_CITES, 1.0,
                          paper_years[src], flags=flags))

    for ref, attrs in nodes.items():
        if ref.node_type == NODE_AUTHOR:
            attrs["incidences"] = tuple(sorted(attrs["incidences"]))
    return KnowledgeGraph(nodes, edges, text=text)
