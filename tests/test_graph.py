from itertools import combinations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from litla import graph
from litla.countries import UNKNOWN, infer_country
from litla.graph import (
    EDGE_AFFILIATED_WITH,
    EDGE_AUTHOR_OF,
    EDGE_CITES,
    EDGE_COAUTHORS_WITH,
    EDGE_MENTIONS_KEYWORD,
    EDGE_PUBLISHED_AT,
    FLAG_CYCLE,
    FLAG_TEMPORAL_ANOMALY,
    NODE_AUTHOR,
    NODE_INSTITUTION,
    NODE_KEYWORD,
    NODE_PAPER,
    NODE_TYPES,
    NODE_VENUE,
    PROJECTION_CITATION,
    PROJECTION_COAUTHORSHIP,
    PROJECTION_KEYWORD,
    Edge,
    KnowledgeGraph,
    NodeRef,
    ProjectedGraph,
    build_graph,
    canonical,
    institution_key,
)
from litla.records import Author, PaperRecord
from litla.textutil import contains_phrase, tokenize


def rec(id, year, authors=(), refs=(), venue="V", kws=(), title=None, abstract=""):
    title = title if title is not None else " ".join(kws) or "untitled work"
    return PaperRecord(
        id=id, title=title, year=year, abstract=abstract,
        authors=[Author(name=n, affiliation=aff) for n, aff in authors],
        venue=venue, pub_type="journal", references=list(refs),
        extracted_keywords=list(kws), page_count=8,
    )


def match_text_keywords(record: PaperRecord, keywords: list[str]) -> list[str]:
    """Reference keyword match: the ``keywords`` whose token sequence occurs
    contiguously in the lowercased title+abstract token stream."""
    text_tokens = tokenize(record.title + " " + record.abstract)
    return [kw for kw in keywords
            if contains_phrase(text_tokens, tokenize(kw))]


def edge_sort_key(e: Edge):
    """Reference order of ``KnowledgeGraph.edges``, the exports' order."""
    return (e.src, e.dst, e.edge_type, e.year)


def reference_snapshot(pg: ProjectedGraph, year: int) -> tuple[set, set]:
    """The node and edge keys of ``pg.snapshot(year)`` by definition: the
    nodes without a year or dated up to ``year``, and the edges so dated
    whose two endpoints are kept."""
    def dated(attrs):
        return "year" not in attrs or attrs["year"] <= year
    nodes = {u for u, attrs in pg.nodes.items() if dated(attrs)}
    return nodes, {(u, v) for (u, v), attrs in pg.edges.items()
                   if dated(attrs) and u in nodes and v in nodes}


class TestBuild:
    def test_two_papers_shared_author(self):
        records = [
            rec("A", 2012, authors=[("Jia Li", "X Univ, China")], refs=["B"]),
            rec("B", 2010, authors=[("Jia Li", "X Univ, China")]),
        ]
        kg = build_graph(records)
        assert kg.node_count(NODE_PAPER) == 2
        assert kg.node_count(NODE_AUTHOR) == 1
        cites = kg.edges_of_type(EDGE_CITES)
        assert len(cites) == 1
        assert cites[0].src.key == "A" and cites[0].dst.key == "B"
        author_of = kg.edges_of_type("author_of")
        assert len(author_of) == 2

    def test_external_references_make_no_edge(self):
        kg = build_graph([rec("A", 2012, refs=["nowhere-1", "nowhere-2"])])
        assert kg.edges_of_type(EDGE_CITES) == []

    def test_duplicate_id_is_fatal(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_graph([rec("A", 2010), rec("A", 2011)])

    def test_backward_citation_flagged(self):
        records = [rec("old", 2010, refs=["new"]), rec("new", 2015)]
        kg = build_graph(records)
        (edge,) = kg.edges_of_type(EDGE_CITES)
        assert FLAG_TEMPORAL_ANOMALY in edge.flags

    def test_same_year_mutual_citation_flagged_cycle(self):
        records = [rec("a", 2010, refs=["b", "old"]), rec("b", 2010, refs=["a"]),
                   rec("old", 2005)]
        flags = {(e.src.key, e.dst.key): e.flags for e in build_graph(records).edges}
        assert flags[("a", "b")] == flags[("b", "a")] == {FLAG_CYCLE}
        assert flags[("a", "old")] == frozenset()

    def test_equal_citation_flags_are_one_shared_set(self):
        # each citation edge once made its own frozenset (216 bytes), nearly
        # always an empty one
        records = [rec("a", 2010, refs=["b", "old", "new"]), rec("b", 2010, refs=["a"]),
                   rec("c", 2010, refs=["b", "old", "new"]), rec("old", 2005),
                   rec("new", 2015, refs=["old"]), rec("d", 2012, refs=["old", "new"])]
        cites = build_graph(records).edges_of_type(EDGE_CITES)
        shared = {}
        for e in cites:
            assert shared.setdefault(e.flags, e.flags) is e.flags
        assert set(shared) == {frozenset(), frozenset({FLAG_TEMPORAL_ANOMALY}),
                               frozenset({FLAG_CYCLE})}
        assert len(cites) > len(shared)

    def test_node_counts_match_set_cardinalities(self, fixture_records):
        kg = build_graph(fixture_records)
        assert kg.node_count(NODE_PAPER) == len(fixture_records)
        # independent set-count oracle over raw records
        author_keys = {canonical(a.name) for r in fixture_records for a in r.authors}
        venue_keys = {canonical(r.venue) for r in fixture_records if r.venue}
        keyword_keys = {canonical(k) for r in fixture_records
                        for k in r.extracted_keywords + r.author_keywords}
        inst_keys = {institution_key(a.affiliation) for r in fixture_records
                     for a in r.authors if a.affiliation}
        assert kg.node_count(NODE_AUTHOR) == len(author_keys)
        assert kg.node_count(NODE_VENUE) == len(venue_keys)
        assert kg.node_count(NODE_KEYWORD) == len(keyword_keys)
        assert kg.node_count(NODE_INSTITUTION) == len(inst_keys)

    def test_every_cites_edge_forward_or_flagged(self, fixture_records):
        kg = build_graph(fixture_records)
        for e in kg.edges_of_type(EDGE_CITES):
            forward = kg.paper(e.src.key)["year"] >= kg.paper(e.dst.key)["year"]
            assert forward or FLAG_TEMPORAL_ANOMALY in e.flags

    def test_one_ref_constructed_per_node(self, fixture_records, monkeypatch):
        made = []

        def counted(*args):
            made.append(args)
            return NodeRef(*args)

        monkeypatch.setattr(graph, "NodeRef", counted)
        kg = build_graph(fixture_records)
        assert len(made) == len(kg.nodes)
        endpoints = {id(ref) for e in kg.edges for ref in (e.src, e.dst)}
        assert endpoints <= {id(ref) for ref in kg.nodes}

    def test_text_keywords_match_per_record_function(self, fixture_records):
        kg = build_graph(fixture_records)
        for r in fixture_records:
            keywords = sorted({canonical(k) for k in r.extracted_keywords + r.author_keywords}
                              - {""})
            assert kg.paper(r.id)["text_keywords"] == tuple(match_text_keywords(r, keywords))


class TestValidation:
    def test_unknown_node_type_and_empty_key(self):
        with pytest.raises(ValueError, match="unknown node type 'journal'"):
            KnowledgeGraph({NodeRef("journal", "x"): {}}, [])
        with pytest.raises(ValueError, match="node key must be non-empty"):
            KnowledgeGraph({NodeRef(NODE_PAPER, ""): {"year": 2010}}, [])

    def test_unknown_edge_type(self):
        a, b = NodeRef(NODE_PAPER, "a"), NodeRef(NODE_PAPER, "b")
        with pytest.raises(ValueError, match="unknown edge type 'likes'"):
            KnowledgeGraph({a: {"year": 2010}, b: {"year": 2010}}, [Edge(a, b, "likes")])

    def test_wrong_endpoint_types(self):
        a, b = NodeRef(NODE_PAPER, "a"), NodeRef(NODE_AUTHOR, "b")
        with pytest.raises(ValueError) as err:
            KnowledgeGraph({a: {"year": 2010}, b: {"year": 2010}}, [Edge(a, b, EDGE_AUTHOR_OF)])
        assert str(err.value) == ("author_of edge requires endpoints ('author', 'paper'), "
                                  "got (paper, author)")

    def test_negative_weight(self):
        a, b = NodeRef(NODE_AUTHOR, "a"), NodeRef(NODE_AUTHOR, "b")
        nodes = {a: {"year": 2010}, b: {"year": 2010}}
        with pytest.raises(ValueError, match="edge weight must be non-negative"):
            KnowledgeGraph(nodes, [Edge(a, b, EDGE_COAUTHORS_WITH, -0.5)])
        kg = KnowledgeGraph(nodes, [Edge(a, b, EDGE_COAUTHORS_WITH, 0.0)])
        assert kg.edges[0].weight == 0.0

    def test_dangling_endpoint(self):
        a, b = NodeRef(NODE_PAPER, "a"), NodeRef(NODE_PAPER, "b")
        with pytest.raises(ValueError, match="dangling edge endpoint"):
            KnowledgeGraph({a: {"year": 2010}}, [Edge(a, b, EDGE_CITES)])

    def test_span_follows_the_paper_nodes(self):
        nodes = {NodeRef(NODE_PAPER, "a"): {"year": 2003}, NodeRef(NODE_PAPER, "b"): {"year": 2001},
                 NodeRef(NODE_AUTHOR, "x"): {"year": 1999}}
        kg = KnowledgeGraph(nodes, [])
        assert kg.corpus_year_range == (2001, 2003)
        assert kg.years == range(2001, 2004)

    def test_no_papers_no_span(self):
        kg = KnowledgeGraph({NodeRef(NODE_AUTHOR, "x"): {"year": 1999}}, [])
        assert kg.corpus_year_range == (0, 0)
        assert list(kg.years) == []

    def test_text_index_is_keyword_only(self):
        with pytest.raises(TypeError):
            KnowledgeGraph({NodeRef(NODE_PAPER, "a"): {"year": 2010}}, [], (2010, 2010))

    def test_edge_defaults(self):
        e = Edge(NodeRef(NODE_PAPER, "a"), NodeRef(NODE_PAPER, "b"), EDGE_CITES)
        assert (e.weight, e.year, e.flags) == (1.0, 0, frozenset())

    def test_edge_fields(self):
        # an edge holds its weight and first year, no occurrence years
        assert Edge._fields == EDGE_FIELDS


EDGE_FIELDS = ("src", "dst", "edge_type", "weight", "year", "flags")
_keys = st.text(alphabet="ab'\"\\", min_size=1, max_size=3)
_refs = st.builds(NodeRef, st.sampled_from([NODE_AUTHOR, NODE_PAPER]), _keys)
_paper_refs = st.builds(NodeRef, st.just(NODE_PAPER), _keys)


def _fields(value):
    """A ref or edge as the nested plain tuple of its field values."""
    if isinstance(value, NodeRef):
        return (value.node_type, value.key)
    if isinstance(value, Edge):
        return tuple(_fields(getattr(value, name)) for name in EDGE_FIELDS)
    return value


@given(st.lists(_refs, max_size=8))
def test_refs_repr_hash_and_order_are_their_fields(refs):
    for ref in refs:
        assert repr(ref) == f"NodeRef(node_type={ref.node_type!r}, key={ref.key!r})"
        assert hash(ref) == hash((ref.node_type, ref.key))
    assert [_fields(r) for r in sorted(refs)] == sorted(_fields(r) for r in refs)


@given(st.lists(st.builds(lambda src, dst, w, year: Edge(src, dst, EDGE_CITES, w, year,
                                                       frozenset({"cycle"})),
                          _paper_refs, _paper_refs,
                          st.sampled_from([0.0, 1.0, 2.5]), st.integers(2000, 2003)),
                max_size=8))
def test_edges_repr_hash_and_order_are_their_fields(edges):
    for e in edges:
        assert repr(e) == ("Edge(" + ", ".join(f"{name}={getattr(e, name)!r}"
                                               for name in EDGE_FIELDS) + ")")
        assert hash(e) == hash(tuple(getattr(e, name) for name in EDGE_FIELDS))
    by_key = sorted(edges, key=edge_sort_key)
    by_fields = sorted(edges, key=lambda e: (_fields(e.src), _fields(e.dst), e.edge_type, e.year))
    assert [_fields(e) for e in by_key] == [_fields(e) for e in by_fields]


SNAPSHOT_KINDS = (PROJECTION_CITATION, PROJECTION_COAUTHORSHIP)


class TestSnapshot:
    def make(self):
        return build_graph([
            rec("A", 2010, authors=[("N One", "X, UK")]),
            rec("B", 2012, authors=[("N One", "X, UK"), ("N Two", "Y, China")], refs=["A"]),
            rec("C", 2014, authors=[("N Two", "Y, China")], refs=["A", "B"]),
        ])

    def test_snapshot_at_max_year_is_identity(self):
        kg = self.make()
        for kind in SNAPSHOT_KINDS:
            g = kg.project(kind)
            snap = g.snapshot(2014)
            assert snap.nodes == g.nodes
            assert snap.edges == g.edges

    def test_snapshot_before_corpus_is_empty(self):
        kg = self.make()
        for kind in SNAPSHOT_KINDS:
            empty = kg.project(kind).snapshot(2009)
            assert empty.node_count() == 0
            assert empty.edges == {}

    def test_snapshot_induces_exact_subgraph(self):
        kg = self.make()
        cit = kg.project(PROJECTION_CITATION).snapshot(2012)
        assert set(cit.nodes) == {"A", "B"}
        assert list(cit.edges) == [("B", "A")]
        co = kg.project(PROJECTION_COAUTHORSHIP)
        assert set(co.snapshot(2011).nodes) == {"n one"}
        assert co.snapshot(2011).edges == {}
        assert list(co.snapshot(2012).edges) == [("n one", "n two")]

    def test_snapshot_monotone(self):
        kg = self.make()
        for kind in SNAPSHOT_KINDS:
            g = kg.project(kind)
            for y1, y2 in combinations(range(2010, 2015), 2):
                g1, g2 = g.snapshot(y1), g.snapshot(y2)
                assert set(g1.nodes) <= set(g2.nodes)
                assert set(g1.edges) <= set(g2.edges)

    def test_snapshot_keeps_full_graph_weight(self):
        kg = build_graph([
            rec("A", 2013, authors=[("P Q", "X, UK"), ("R S", "X, UK")]),
            rec("B", 2010, authors=[("P Q", "X, UK"), ("R S", "X, UK")]),
        ])
        full = kg.project(PROJECTION_COAUTHORSHIP)
        assert full.edge_attrs("p q", "r s") == {"year": 2010, "weight": 2.0}
        early = full.snapshot(2011)
        assert early.edge_attrs("p q", "r s") is full.edge_attrs("p q", "r s")


class TestProjections:
    def test_coauthor_triangle_unit_weights(self):
        kg = build_graph([rec("A", 2010, authors=[
            ("a a", "X, UK"), ("b b", "X, UK"), ("c c", "X, UK")])])
        co = kg.project(PROJECTION_COAUTHORSHIP)
        assert co.edge_count() == 3
        assert all(attrs["weight"] == 1.0 for attrs in co.edges.values())

    def test_keyword_pair_single_edge(self):
        kg = build_graph([rec("A", 2010, kws=["alpha beta", "gamma"],
                              title="alpha beta meets gamma")])
        kw = kg.project(PROJECTION_KEYWORD)
        assert sorted(kw.edges) == [("alpha beta", "gamma")]

    def test_keyword_requires_text_occurrence(self):
        kg = build_graph([rec("A", 2010, kws=["visible", "missing"],
                              title="only visible here", abstract="")])
        kw = kg.project(PROJECTION_KEYWORD)
        assert sorted(kw.nodes) == ["visible"]

    def test_projection_against_bruteforce(self, fixture_records):
        sample = fixture_records[:5]
        kg = build_graph(sample)
        co = kg.project(PROJECTION_COAUTHORSHIP)
        expected = set()
        for r in sample:
            names = sorted({canonical(a.name) for a in r.authors})
            expected.update((u, v) for u, v in combinations(names, 2))
        assert set(co.edges) == expected

        cit = kg.project(PROJECTION_CITATION)
        ids = {r.id for r in sample}
        expected_cites = {(r.id, t) for r in sample for t in set(r.references)
                          if t in ids and t != r.id}
        assert set(cit.edges) == expected_cites

    def test_coauthor_weight_symmetry(self, fixture_records):
        kg = build_graph(fixture_records)
        co = kg.project(PROJECTION_COAUTHORSHIP)
        for (u, v), attrs in co.edges.items():
            assert attrs["weight"] == co.edge_attrs(v, u)["weight"]


def reference_rows(directed: bool, nodes, edges) -> tuple[list, list, list]:
    """``(names, succ, pred)`` of the graph on ``nodes`` whose edge keys are
    ``edges``, by definition: each row lists the indices into the sorted
    names in index order."""
    names = sorted(nodes)

    def rows(linked):
        return [[j for j, v in enumerate(names) if linked(u, v)] for u in names]

    if directed:
        return names, rows(lambda u, v: (u, v) in edges), rows(lambda u, v: (v, u) in edges)
    succ = rows(lambda u, v: (u, v) in edges or (v, u) in edges)
    return names, succ, succ


class TestIndexed:
    # insertion order, string order and numeric order all differ
    NAMES = ["9", "10", "b", "a", "100"]

    def graph(self, directed):
        nodes = {u: {"year": 2000 + i} for i, u in enumerate(self.NAMES)}
        edges = {("9", "10"): {"year": 2000}, ("b", "9"): {"year": 2003},
                 ("100", "9"): {"year": 2004}, ("a", "10"): {"year": 2003}}
        return ProjectedGraph(directed, nodes, edges)

    @pytest.mark.parametrize("directed", [True, False])
    def test_names_sorted_and_positions_invert_them(self, directed):
        pg = self.graph(directed)
        assert pg.names == ["10", "100", "9", "a", "b"]
        assert all(pg.pos[u] == i for i, u in enumerate(pg.names))
        assert len(pg.pos) == len(pg.names)

    @pytest.mark.parametrize("directed", [True, False])
    def test_adjacency_sorted_and_matches_sets(self, directed):
        pg = self.graph(directed)
        assert (pg.names, pg.succ, pg.pred) == reference_rows(directed, pg.nodes, pg.edges)
        for i, u in enumerate(pg.names):
            assert pg.succ[i] == sorted(pg.succ[i]) and pg.pred[i] == sorted(pg.pred[i])
            assert {pg.names[j] for j in pg.succ[i]} == pg.successors(u) == pg.neighbors(u)
            assert {pg.names[j] for j in pg.pred[i]} == pg.predecessors(u)
            assert pg.degree(u) == len(pg.succ[i]) and pg.in_degree(u) == len(pg.pred[i])

    def test_directed_succ_holds_successors_only(self):
        pg = self.graph(True)
        assert pg.succ[pg.pos["9"]] == [pg.pos["10"]]
        assert pg.pred[pg.pos["9"]] == [pg.pos["100"], pg.pos["b"]]
        transpose = [[i for i, row in enumerate(pg.succ) if j in row]
                     for j in range(len(pg.names))]
        assert pg.pred == transpose

    def test_undirected_succ_holds_every_neighbour(self):
        pg = self.graph(False)
        assert pg.succ[pg.pos["9"]] == [pg.pos["10"], pg.pos["100"], pg.pos["b"]]
        assert pg.pred is pg.succ

    def test_both_orientations_of_an_undirected_pair_give_one_entry(self):
        edges = {("a", "b"): {"weight": 1.0}, ("b", "a"): {"weight": 2.0},
                 ("c", "a"): {"weight": 1.0}}
        pg = ProjectedGraph(False, {u: {} for u in "abc"}, edges)
        assert list(pg.edges) == [("a", "b"), ("a", "c")]
        assert pg.succ == [[1, 2], [0], [0]]
        assert pg.degree("a") == 2

    def test_view_built_once(self):
        # the structure is fixed at construction; edge attributes are read
        # when asked for, so a reweighted edge shows without a rebuild
        pg = self.graph(False)
        succ = pg.succ
        pg.edges[("10", "9")]["weight"] = 3.0
        assert pg.succ is succ
        assert pg.edge_attrs("9", "10")["weight"] == 3.0

    def test_snapshot_gets_its_own_view(self):
        pg = self.graph(True)
        full = pg.succ
        snap = pg.snapshot(2002)
        assert snap.succ is not full
        assert snap.names == ["10", "9", "b"]
        assert snap.succ == [[], [0], []]
        assert snap.pred == [[1], [], []]
        assert pg.succ is full and pg.names == ["10", "100", "9", "a", "b"]


@given(st.lists(st.tuples(st.integers(2008, 2020), st.booleans()),
                min_size=1, max_size=12))
def test_snapshot_monotone_property(specs):
    records = []
    prev_ids = []
    for i, (year, cite_prev) in enumerate(specs):
        refs = prev_ids[-2:] if cite_prev else []
        records.append(rec(f"r{i:02d}", year, refs=refs,
                           authors=[(f"au {i % 4}", "X, UK")]))
        prev_ids.append(f"r{i:02d}")
    kg = build_graph(records)
    lo, hi = kg.corpus_year_range
    for kind in SNAPSHOT_KINDS:
        g = kg.project(kind)
        for y in range(lo, hi):
            g1, g2 = g.snapshot(y), g.snapshot(y + 1)
            assert set(g1.nodes) <= set(g2.nodes)
            assert set(g1.edges) <= set(g2.edges)


@given(st.lists(st.builds(lambda src, dst, year: Edge(src, dst, EDGE_CITES, 1.0, year),
                          _paper_refs, _paper_refs, st.integers(2000, 2003)),
                max_size=10))
def test_kg_edge_orders_match_reference_sorts(edges):
    nodes = {ref: {"year": 2000} for e in edges for ref in (e.src, e.dst)}
    kg = KnowledgeGraph(nodes, edges)
    assert [_fields(e) for e in kg.edges] == \
        [_fields(e) for e in sorted(edges, key=edge_sort_key)]
    # each type's list runs by (src, dst, year)
    assert [_fields(e) for e in kg.edges_of_type(EDGE_CITES)] == \
        [_fields(e) for e in sorted(edges, key=lambda e: (e.src, e.dst, e.year))]


@given(st.data())
def test_per_type_lists_match_scan_and_sort(data):
    absent = data.draw(st.sampled_from(NODE_TYPES), label="absent")
    present = [t for t in NODE_TYPES if t != absent]
    refs = data.draw(st.lists(st.builds(NodeRef, st.sampled_from(present), _keys), max_size=12))
    nodes = {ref: {"year": 2000} for ref in refs}  # in drawn, not sorted, order
    edges = []
    for edge_type in data.draw(st.lists(st.sampled_from(sorted(graph._EDGE_ENDPOINTS)),
                                        max_size=12)):
        src_type, dst_type = graph._EDGE_ENDPOINTS[edge_type]
        srcs = [ref for ref in nodes if ref.node_type == src_type]
        dsts = [ref for ref in nodes if ref.node_type == dst_type]
        if srcs and dsts:
            edges.append(Edge(data.draw(st.sampled_from(srcs)), data.draw(st.sampled_from(dsts)),
                              edge_type, 1.0, data.draw(st.integers(2000, 2003))))
    kg = KnowledgeGraph(nodes, edges)
    assert kg.node_count(absent) == 0 and kg.nodes_of_type(absent) == []
    for node_type in NODE_TYPES + ("unknown",):
        expected = sorted(ref for ref in kg.nodes if ref.node_type == node_type)
        assert kg.nodes_of_type(node_type) == expected
        assert kg.node_count(node_type) == len(expected)
    for edge_type in sorted(graph._EDGE_ENDPOINTS) + ["unknown"]:
        assert kg.edges_of_type(edge_type) == [e for e in kg.edges if e.edge_type == edge_type]


@given(st.data())
def test_citation_flags_by_definition(data):
    # few years, so that same-year papers cite each other, older papers and
    # newer ones
    years = data.draw(st.lists(st.integers(2010, 2012), min_size=1, max_size=8))
    n = len(years)
    cites = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                               max_size=24))
    records = [rec(f"p{i}", y, refs=[f"p{d}" for s, d in cites if s == i])
               for i, y in enumerate(years)]
    valid = {(s, d) for s, d in cites if s != d and years[s] >= years[d]}

    def reaches(a, b):  # brute force, over the temporally valid citations
        seen, todo = {a}, [a]
        while todo:
            u = todo.pop()
            for s, d in valid:
                if s == u and d not in seen:
                    seen.add(d)
                    todo.append(d)
        return b in seen

    flags = {(int(e.src.key[1:]), int(e.dst.key[1:])): e.flags
             for e in build_graph(records).edges_of_type(EDGE_CITES)}
    assert set(flags) == {(s, d) for s, d in cites if s != d}
    for (s, d), got in flags.items():
        if years[s] < years[d]:
            assert got == {FLAG_TEMPORAL_ANOMALY}
        else:
            assert got == ({FLAG_CYCLE} if reaches(d, s) else frozenset())
    # one object per distinct set of flags, whatever the edges
    assert len({id(got) for got in flags.values()}) == len(set(flags.values()))


_maybe_year = st.one_of(st.none(), st.sampled_from([2000, 2001, 2003]))


@given(st.booleans(),
       st.dictionaries(st.sampled_from("abcde"), _maybe_year, min_size=2),
       st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), _maybe_year,
                          st.sampled_from([1, 0.5, 2.0])), max_size=10))
def test_snapshot_matches_reference(directed, node_years, specs):
    names = sorted(node_years)
    nodes = {u: {} if y is None else {"year": y} for u, y in node_years.items()}
    edges = {}
    for i, j, first, weight in specs:
        u, v = names[i % len(names)], names[j % len(names)]
        if u != v:
            edges[(u, v)] = {"weight": weight} if first is None else {"year": first,
                                                                     "weight": weight}
    pg = ProjectedGraph(directed, nodes, edges)
    for year in range(1999, 2005):
        snap = pg.snapshot(year)
        want_nodes, want_edges = reference_snapshot(pg, year)
        assert snap.directed == directed
        assert set(snap.nodes) == want_nodes and set(snap.edges) == want_edges
        assert all(snap.nodes[u] is pg.nodes[u] for u in snap.nodes)
        assert all(snap.edges[k] is pg.edges[k] for k in snap.edges)
        assert (snap.names, snap.succ, snap.pred) == \
            reference_rows(directed, want_nodes, want_edges)
        for u in snap.nodes:
            assert snap.successors(u) == {v for v in pg.successors(u) if snap.has_edge(u, v)}
            assert snap.predecessors(u) == {v for v in pg.predecessors(u)
                                            if snap.has_edge(v, u)}


def test_snapshot_shares_settled_attributes(fixture_records):
    kg = build_graph(fixture_records)
    lo, hi = kg.corpus_year_range
    for kind in (PROJECTION_COAUTHORSHIP, PROJECTION_KEYWORD):
        g = kg.project(kind)
        for year in range(lo, hi + 1):
            snap = g.snapshot(year)
            assert all(snap.edges[k] is g.edges[k] for k in snap.edges)
        assert len(snap.edges) == len(g.edges) > 0


# names that differ only in case or spacing, an empty one, and affiliations
# that share their first comma segment
_names = st.sampled_from(["Ann Lee", "ann  LEE", " Ann Lee ", "Bo Chen", "bo chen", "Cy", " "])
_affiliations = st.sampled_from(["X Univ, Dept A, UK", "x univ,  Dept B, China",
                                 " Y Lab , Paris, France", "Y LAB", ""])
_venues = st.sampled_from(["Venue A", "venue  a", "Venue B", ""])
_keywords = st.sampled_from(["Alpha", "alpha", "beta gamma", "Beta  Gamma", "delta", " "])


@st.composite
def shared_paper_records(draw):
    """Up to 7 records whose ids are not in year order; an author may be
    listed twice on one record."""
    ids = draw(st.lists(st.sampled_from([f"p{i}" for i in range(9)]), unique=True,
                        max_size=7))
    return [rec(pid, draw(st.integers(2010, 2013)),
                authors=draw(st.lists(st.tuples(_names, _affiliations), max_size=4)),
                venue=draw(_venues), kws=draw(st.lists(_keywords, max_size=3)),
                title=draw(st.sampled_from(["alpha and beta gamma", "delta", "none"])))
            for pid in ids]


@given(shared_paper_records())
# the author's first record in id order (p1) is later than another of theirs
# (p2): named from p1, dated by p2
@example([rec("p1", 2012, authors=[("Jia Li", "X Univ, UK")], venue="Venue A", kws=["Alpha"]),
          rec("p2", 2010, authors=[("jia  LI", "x univ, China")], venue="venue  a",
              kws=["alpha"])])
def test_shared_paper_rule_by_definition(records):
    """Every non-citation edge's weight and year, every entity's name and
    year and every author's incidences, computed from the records alone:
    an edge weighs its joint papers and is dated by the first of them, an
    entity is dated by its first paper and named by its first record in id
    order."""
    kg = build_graph(records)
    want_nodes: dict[NodeRef, dict] = {}
    want_edges: dict[tuple, list[int]] = {}  # (src, dst, type) -> the year of each joint paper

    def entity(node_type, key, year, **name):
        attrs = want_nodes.setdefault(NodeRef(node_type, key), {**name, "year": year})
        attrs["year"] = min(attrs["year"], year)
        return attrs

    def link(src, dst, edge_type, year):
        want_edges.setdefault((src, dst, edge_type), []).append(year)

    for r in sorted(records, key=lambda r: r.id):
        paper = NodeRef(NODE_PAPER, r.id)
        listed = [(canonical(a.name), a) for a in r.authors if canonical(a.name)]
        # an author listed twice on a record counts twice in its incidences
        # and affiliation weights, and once in every other edge
        for key, a in listed:
            author = entity(NODE_AUTHOR, key, r.year, name=a.name)
            country = infer_country(a.affiliation) if a.affiliation else UNKNOWN
            author.setdefault("incidences", []).append((r.year, r.id, country))
            ikey = institution_key(a.affiliation)
            if ikey:
                entity(NODE_INSTITUTION, ikey, r.year, name=a.affiliation.split(",")[0].strip())
                link(NodeRef(NODE_AUTHOR, key), NodeRef(NODE_INSTITUTION, ikey),
                     EDGE_AFFILIATED_WITH, r.year)
        keys = sorted({key for key, _ in listed})
        for key in keys:
            link(NodeRef(NODE_AUTHOR, key), paper, EDGE_AUTHOR_OF, r.year)
        for u, v in combinations(keys, 2):
            link(NodeRef(NODE_AUTHOR, u), NodeRef(NODE_AUTHOR, v), EDGE_COAUTHORS_WITH, r.year)
        if canonical(r.venue):
            entity(NODE_VENUE, canonical(r.venue), r.year, name=r.venue)
            link(paper, NodeRef(NODE_VENUE, canonical(r.venue)), EDGE_PUBLISHED_AT, r.year)
        for kw in {canonical(k) for k in r.extracted_keywords} - {""}:
            entity(NODE_KEYWORD, kw, r.year)
            link(paper, NodeRef(NODE_KEYWORD, kw), EDGE_MENTIONS_KEYWORD, r.year)

    got_nodes = {ref: dict(attrs) for ref, attrs in kg.nodes.items()
                 if ref.node_type != NODE_PAPER}
    for attrs in want_nodes.values():
        if "incidences" in attrs:
            attrs["incidences"] = tuple(sorted(attrs["incidences"]))
    assert got_nodes == want_nodes
    got_edges = {(e.src, e.dst, e.edge_type): (e.weight, e.year) for e in kg.edges
                 if e.edge_type != EDGE_CITES}
    assert got_edges == {k: (float(len(years)), min(years)) for k, years in want_edges.items()}


def test_citation_and_coauthorship_projections_hold_the_graph_s_node_dicts(fixture_records):
    kg = build_graph(fixture_records)
    cit = kg.project(PROJECTION_CITATION)
    assert cit.nodes.keys() == {ref.key for ref in kg.nodes_of_type(NODE_PAPER)}
    assert all(cit.nodes[pid] is kg.paper(pid) for pid in cit.nodes)
    co = kg.project(PROJECTION_COAUTHORSHIP)
    assert co.nodes.keys() == {ref.key for ref in kg.nodes_of_type(NODE_AUTHOR)}
    assert all(co.nodes[a] is kg.nodes[NodeRef(NODE_AUTHOR, a)] for a in co.nodes)
