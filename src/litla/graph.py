"""Heterogeneous bibliographic knowledge graph and its homogeneous projections.

Nodes are papers, authors, venues, keywords and institutions; typed edges
carry a weight (a joint-paper count for co-authorship, affiliation and
keyword co-mention edges) and a first-appearance year. Yearly snapshots of a
projection are structural: no per-year figure reads a weight.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import combinations, groupby
from operator import itemgetter
from typing import NamedTuple

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

PROJECTION_CITATION = "citation"
PROJECTION_COAUTHORSHIP = "coauthorship"
PROJECTION_KEYWORD = "keyword_cooccurrence"


def canonical(text: str) -> str:
    """Case-fold, trim and collapse whitespace."""
    return " ".join(text.casefold().split())


def institution_key(affiliation: str) -> str:
    """Canonical institution key: first comma-separated segment of the address."""
    return canonical(affiliation.split(",", 1)[0])


class NodeRef(NamedTuple("NodeRef", [("node_type", str), ("key", str)])):
    """A typed node key. A tuple, so hashing and ordering run in C; it
    compares equal to the plain ``(node_type, key)`` pair."""

    __slots__ = ()

    def __new__(cls, node_type: str, key: str):
        if node_type not in NODE_TYPES:
            raise ValueError(f"unknown node type {node_type!r}")
        if not key:
            raise ValueError("node key must be non-empty")
        return tuple.__new__(cls, (node_type, key))


class Edge(NamedTuple("Edge", [("src", NodeRef), ("dst", NodeRef), ("edge_type", str),
                               ("weight", float), ("year", int), ("flags", frozenset[str])])):
    """A typed, weighted edge; a tuple like :class:`NodeRef`."""

    __slots__ = ()

    def __new__(cls, src: NodeRef, dst: NodeRef, edge_type: str, weight: float = 1.0,
                year: int = 0, flags: frozenset[str] = frozenset()):
        expect = _EDGE_ENDPOINTS.get(edge_type)
        if expect is None:
            raise ValueError(f"unknown edge type {edge_type!r}")
        if (src.node_type, dst.node_type) != expect:
            raise ValueError(
                f"{edge_type} edge requires endpoints {expect}, got "
                f"({src.node_type}, {dst.node_type})")
        if weight < 0:
            raise ValueError("edge weight must be non-negative")
        return tuple.__new__(cls, (src, dst, edge_type, weight, year, flags))


class KnowledgeGraph:
    """Immutable-after-build typed multigraph.

    ``edges`` are sorted by (edge_type, src, dst, year). The sorted refs of
    each node type and the edges of each edge type are kept once, at
    construction; :meth:`nodes_of_type` and :meth:`edges_of_type` return
    those shared lists, which callers must not mutate. ``text`` indexes the
    papers' titles and abstracts; :func:`build_graph` fills it.
    """

    text = TextIndex({})

    def __init__(self, nodes: dict[NodeRef, dict], edges: list[Edge],
                 corpus_year_range: tuple[int, int]):
        for e in edges:
            if e.src not in nodes or e.dst not in nodes:
                raise ValueError(f"dangling edge endpoint: {e.src} -> {e.dst}")
        self.nodes = nodes
        self.edges = sorted(edges, key=itemgetter(2, 0, 1, 4))
        self.corpus_year_range = corpus_year_range
        self._nodes_by_type: dict[str, list[NodeRef]] = {}
        for ref in sorted(nodes):
            self._nodes_by_type.setdefault(ref.node_type, []).append(ref)
        # edges are sorted by type first, so each type is one run
        self._edges_by_type = {t: list(run) for t, run in groupby(self.edges, itemgetter(2))}

    @cached_property
    def edges_by_endpoints(self) -> list[Edge]:
        """``edges`` stably sorted by (src, dst)."""
        return sorted(self.edges, key=itemgetter(0, 1))

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
        if kind == PROJECTION_CITATION:
            papers = ((ref.key, self.nodes[ref]) for ref in self.nodes_of_type(NODE_PAPER))
            nodes = {key: {"year": attrs["year"], "authors": attrs["authors"],
                           "venue": attrs["venue"]} for key, attrs in papers}
            edges = {
                (e.src.key, e.dst.key): {"year": e.year, "weight": 1.0, "flags": e.flags}
                for e in self.edges_of_type(EDGE_CITES)
            }
            return ProjectedGraph(directed=True, nodes=nodes, edges=edges)
        if kind == PROJECTION_COAUTHORSHIP:
            nodes = {ref.key: {"year": self.nodes[ref]["year"]}
                     for ref in self.nodes_of_type(NODE_AUTHOR)}
            edges = {
                (e.src.key, e.dst.key): {"year": e.year, "weight": e.weight}
                for e in self.edges_of_type(EDGE_COAUTHORS_WITH)
            }
            return ProjectedGraph(directed=False, nodes=nodes, edges=edges)
        if kind == PROJECTION_KEYWORD:
            return self._project_keywords()
        raise ValueError(f"unknown projection {kind!r}")

    def _project_keywords(self) -> "ProjectedGraph":
        first_seen: dict[str, int] = {}
        pair_years: dict[tuple[str, str], list[int]] = {}
        for ref in self.nodes_of_type(NODE_PAPER):
            attrs = self.nodes[ref]
            kws = sorted(set(attrs["text_keywords"]))
            year = attrs["year"]
            for kw in kws:
                if kw not in first_seen or year < first_seen[kw]:
                    first_seen[kw] = year
            for u, v in combinations(kws, 2):
                pair_years.setdefault((u, v), []).append(year)
        nodes = {kw: {"year": y} for kw, y in first_seen.items()}
        edges = {pair: {"year": min(years), "weight": float(len(years))}
                 for pair, years in pair_years.items()}
        return ProjectedGraph(directed=False, nodes=nodes, edges=edges)


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


class _Interned(dict):
    """A dict that makes a missing value from its key on first lookup and
    returns that same object on every later one."""

    def __init__(self, make):
        super().__init__()
        self._make = make

    def __missing__(self, key):
        value = self[key] = self._make(key)
        return value


def build_graph(records: list[PaperRecord]) -> KnowledgeGraph:
    """Assemble the knowledge graph from deduplicated records.

    Citation edges are restricted to within-corpus targets; external
    reference counts stay on the paper node. Backward-in-time citations are
    flagged as temporal anomalies and citation cycles among the remaining
    edges are flagged so DAG-based analyses can drop them. A paper's
    ``text_keywords`` are its canonical keywords whose token sequence occurs
    contiguously in its title+abstract stream of the graph's ``text`` index.
    """
    if not records:
        return KnowledgeGraph({}, [], (0, 0))
    ids = [r.id for r in records]
    if len(set(ids)) != len(ids):
        dupes = sorted(k for k, c in Counter(ids).items() if c > 1)
        raise ValueError(f"duplicate record ids: {dupes}")
    corpus_ids = set(ids)
    year_lo = min(r.year for r in records)
    year_hi = max(r.year for r in records)

    records = sorted(records, key=lambda r: r.id)
    text = TextIndex({rec.id: (rec.title, rec.abstract) for rec in records})
    refs = _Interned(lambda key: NodeRef(*key))  # one NodeRef per node
    phrases = _Interned(tokenize)  # keyword -> its tokens
    canon = _Interned(canonical)  # name -> its canonical key
    nodes: dict[NodeRef, dict] = {}
    edges: list[Edge] = []
    author_meta: dict[str, dict] = {}
    venue_meta: dict[str, dict] = {}
    keyword_first: dict[str, int] = {}
    inst_meta: dict[str, dict] = {}
    coauthor_years: dict[tuple[str, str], list[int]] = {}
    affil_years: dict[tuple[str, str], list[int]] = {}
    cites_pairs: list[tuple[str, str]] = []

    for rec in records:
        paper_ref = refs[NODE_PAPER, rec.id]
        author_keys = []
        countries = []
        for a in rec.authors:
            akey = canon[a.name]
            if not akey:
                continue
            country = infer_country(a.affiliation) if a.affiliation else UNKNOWN
            meta = author_meta.setdefault(akey, {"name": a.name, "incidences": []})
            meta["incidences"].append((rec.year, rec.id, country))
            author_keys.append(akey)
            countries.append(country)
            ikey = institution_key(a.affiliation)
            if ikey:
                inst_meta.setdefault(ikey, {"name": a.affiliation.split(",", 1)[0].strip(),
                                            "year": rec.year})
                inst_meta[ikey]["year"] = min(inst_meta[ikey]["year"], rec.year)
                affil_years.setdefault((akey, ikey), []).append(rec.year)
        author_keys = list(dict.fromkeys(author_keys))  # dedupe, keep order

        vkey = canon[rec.venue]
        if vkey:
            meta = venue_meta.setdefault(vkey, {"name": rec.venue, "year": rec.year})
            meta["year"] = min(meta["year"], rec.year)

        all_keywords = sorted({canon[k] for k in rec.extracted_keywords + rec.author_keywords
                               if k.strip()})
        for kw in all_keywords:
            keyword_first[kw] = min(keyword_first.get(kw, rec.year), rec.year)
        stream = text.streams[rec.id]
        text_kws = [kw for kw in all_keywords if contains_phrase(stream, phrases[kw])]

        in_refs = sorted(r for r in set(rec.references) if r in corpus_ids and r != rec.id)
        known_countries = sorted({c for c in countries if c != UNKNOWN})
        intents = tuple(s.intent for s in rec.citation_statements if s.intent)
        nodes[paper_ref] = {
            "year": rec.year,
            "title": rec.title,
            "venue": vkey,
            "pub_type": rec.pub_type,
            "authors": tuple(author_keys),
            "countries": tuple(known_countries) if known_countries else (UNKNOWN,) if rec.authors else (),
            "subject_categories": tuple(dict.fromkeys(rec.subject_categories)),
            "intents": intents,
            "keywords": tuple(all_keywords),
            "text_keywords": tuple(text_kws),
            "references": tuple(rec.references),
            "external_refs": len(set(rec.references)) - len(in_refs),
            "reported_citations": rec.citation_count,
            "language": rec.language,
            "doc_type": rec.doc_type,
            "page_count": rec.page_count,
            "publisher": rec.publisher,
            "embedding": tuple(rec.embedding) if rec.embedding is not None else None,
        }

        for u, v in combinations(sorted(author_keys), 2):
            coauthor_years.setdefault((u, v), []).append(rec.year)

        for akey in author_keys:
            edges.append(Edge(refs[NODE_AUTHOR, akey], paper_ref, EDGE_AUTHOR_OF, 1.0, rec.year))
        if vkey:
            edges.append(Edge(paper_ref, refs[NODE_VENUE, vkey], EDGE_PUBLISHED_AT, 1.0, rec.year))
        for kw in all_keywords:
            edges.append(Edge(paper_ref, refs[NODE_KEYWORD, kw], EDGE_MENTIONS_KEYWORD,
                              1.0, rec.year))
        cites_pairs.extend((rec.id, tgt) for tgt in in_refs)

    # entity nodes
    for akey, meta in sorted(author_meta.items()):
        incidences = tuple(sorted(meta["incidences"]))
        nodes[refs[NODE_AUTHOR, akey]] = {
            "name": meta["name"],
            "year": incidences[0][0],
            "incidences": incidences,
        }
    for vkey, meta in sorted(venue_meta.items()):
        nodes[refs[NODE_VENUE, vkey]] = meta
    for kw, first in sorted(keyword_first.items()):
        nodes[refs[NODE_KEYWORD, kw]] = {"year": first}
    for ikey, meta in sorted(inst_meta.items()):
        nodes[refs[NODE_INSTITUTION, ikey]] = meta

    # cycle detection runs on temporally valid edges only
    paper_years = {rec.id: rec.year for rec in records}
    valid_adj: dict[str, list[str]] = {pid: [] for pid in paper_years}
    for src, dst in cites_pairs:
        if paper_years[src] >= paper_years[dst]:
            valid_adj[src].append(dst)
    comp = _scc_roots(valid_adj)
    for src, dst in cites_pairs:  # src != dst, so one component means a cycle
        flags = set()
        if paper_years[src] < paper_years[dst]:
            flags.add(FLAG_TEMPORAL_ANOMALY)
        elif comp[src] == comp[dst]:
            flags.add(FLAG_CYCLE)
        edges.append(Edge(refs[NODE_PAPER, src], refs[NODE_PAPER, dst], EDGE_CITES, 1.0,
                          paper_years[src], flags=frozenset(flags)))

    for (u, v), years in sorted(coauthor_years.items()):
        edges.append(Edge(refs[NODE_AUTHOR, u], refs[NODE_AUTHOR, v],
                          EDGE_COAUTHORS_WITH, float(len(years)), min(years)))
    for (akey, ikey), years in sorted(affil_years.items()):
        edges.append(Edge(refs[NODE_AUTHOR, akey], refs[NODE_INSTITUTION, ikey],
                          EDGE_AFFILIATED_WITH, float(len(years)), min(years)))

    kg = KnowledgeGraph(nodes, edges, (year_lo, year_hi))
    kg.text = text
    return kg
