import csv
import json
from collections import Counter, deque
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from litla import collabnet
from litla.collabnet import (
    _bfs,
    assortativity_categorical,
    betweenness,
    components,
    connected_components,
    count_k_cliques,
    diameter_lcc,
    hop_coverage,
    pagerank,
    top_active_subnetwork,
)
from litla.cli import main
from litla.config import load_config
from litla.errors import ConvergenceError
from litla.graph import NODE_AUTHOR, PROJECTION_COAUTHORSHIP, NodeRef, ProjectedGraph, build_graph
from litla.records import Author, PaperRecord, apply_exclusions
from litla.stats import modal_country, modal_label
from litla.topics import NOISE

from conftest import random_undirected, undirected


# --- oracles -----------------------------------------------------------------------


def components_oracle(pg):
    seen = set()
    comps = []
    for start in sorted(pg.nodes):
        if start in seen:
            continue
        comp = set()
        stack = [start]
        while stack:
            u = stack.pop()
            if u in comp:
                continue
            comp.add(u)
            stack.extend(pg.neighbors(u))
        seen |= comp
        comps.append(frozenset(comp))
    return set(comps)


def floyd_warshall_diameter(pg, component):
    nodes = sorted(component)
    idx = {u: i for i, u in enumerate(nodes)}
    n = len(nodes)
    inf = float("inf")
    d = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for u in nodes:
        for v in pg.neighbors(u):
            if v in idx:
                d[idx[u]][idx[v]] = 1
    for k in range(n):
        for i in range(n):
            dik = d[i][k]
            if dik == inf:
                continue
            for j in range(n):
                alt = dik + d[k][j]
                if alt < d[i][j]:
                    d[i][j] = alt
    return max(max(row) for row in d) if n else 0


def bfs_counts(pg, s):
    dist = {s: 0}
    sigma = {s: 1}
    q = deque([s])
    while q:
        v = q.popleft()
        for w in sorted(pg.neighbors(v)):
            if w not in dist:
                dist[w] = dist[v] + 1
                sigma[w] = 0
                q.append(w)
            if dist[w] == dist[v] + 1:
                sigma[w] += sigma[v]
    return dist, sigma


def betweenness_oracle(pg):
    """Distance/path-count matrices plus the sigma_st(v) identity; no
    dependency accumulation."""
    nodes = sorted(pg.nodes)
    n = len(nodes)
    dist = {}
    sigma = {}
    for s in nodes:
        dist[s], sigma[s] = bfs_counts(pg, s)
    cb = {u: 0.0 for u in nodes}
    for i, s in enumerate(nodes):
        for t in nodes[i + 1:]:
            if t not in dist[s]:
                continue
            for v in nodes:
                if v in (s, t) or v not in dist[s] or t not in dist[v]:
                    continue
                if dist[s][v] + dist[v][t] == dist[s][t]:
                    cb[v] += sigma[s][v] * sigma[v][t] / sigma[s][t]
    norm = (n - 1) * (n - 2) / 2
    if norm <= 0:
        return {u: 0.0 for u in nodes}
    return {u: val / norm for u, val in cb.items()}


def pagerank_reference(pg, damping=0.85, tol=1e-10, max_iter=500):
    """:func:`pagerank` with each sparse sum by ``np.add.at`` and each
    node's weighted degree by the builtin ``sum``."""
    nodes = pg.names
    n = len(nodes)
    if n == 0:
        return {}
    src, dst, prob = [], [], []
    dangling = np.zeros(n, dtype=bool)
    for i, u in enumerate(nodes):
        nbrs = pg.succ[i]
        weights = [pg.edge_attrs(u, nodes[j]).get("weight", 1.0) for j in nbrs]
        wsum = float(sum(weights))
        if wsum <= 0.0 or not nbrs:
            dangling[i] = True
            continue
        for j, w in zip(nbrs, weights):
            src.append(i)
            dst.append(j)
            prob.append(w / wsum)
    src = np.array(src, dtype=int)
    dst = np.array(dst, dtype=int)
    prob = np.array(prob, dtype=float)

    p = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        inflow = np.zeros(n)
        if len(src):
            np.add.at(inflow, dst, p[src] * prob)
        inflow += p[dangling].sum() / n
        p_new = damping * inflow + (1.0 - damping) / n
        residual = float(np.max(np.abs(p_new - p)))
        p = p_new
        if residual < tol:
            return {u: float(p[i]) for i, u in enumerate(nodes)}
    raise ConvergenceError(f"pagerank failed to converge in {max_iter} iterations", residual)


def weighted_graph(n, links) -> ProjectedGraph:
    """Undirected graph on ``n00, n01, ...``; ``links`` holds (i, j, weight)
    triples, a weight of None leaving the edge without one (so 1.0)."""
    names = [f"n{i:02d}" for i in range(n)]
    edges = {(names[min(i, j)], names[max(i, j)]): {} if w is None else {"weight": w}
             for i, j, w in links if i != j}
    return ProjectedGraph(False, {u: {} for u in names}, edges)


@st.composite
def weighted_graphs(draw):
    """(n, links) of up to 10 nodes; weights are sums of halves, exact in
    any order, and may be 0, so a node may have no edge or a zero-weight
    row (both dangling)."""
    n = draw(st.integers(1, 10))
    weight = st.sampled_from([None, 0.0, 0.5, 1.0, 2.0, 3.0])
    links = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), weight),
                          max_size=2 * n))
    return n, links


def pagerank_outcome(rank, pg, **kwargs):
    """The repr of every score, or of the residual of a ConvergenceError."""
    try:
        return {u: repr(s) for u, s in rank(pg, **kwargs).items()}
    except ConvergenceError as err:
        return ("ConvergenceError", str(err), repr(err.residual))


def pagerank_oracle(pg, damping=0.85):
    nodes = sorted(pg.nodes)
    n = len(nodes)
    idx = {u: i for i, u in enumerate(nodes)}
    T = np.zeros((n, n))
    dangling = []
    for u in nodes:
        nbrs = sorted(pg.neighbors(u))
        weights = [pg.edge_attrs(u, v).get("weight", 1.0) for v in nbrs]
        total = float(sum(weights))
        if not nbrs or total <= 0:
            dangling.append(idx[u])
            continue
        for v, w in zip(nbrs, weights):
            T[idx[u], idx[v]] = w / total
    A = np.eye(n) - damping * T.T
    for j in dangling:
        A[:, j] -= damping / n
    p = np.linalg.solve(A, np.full(n, (1.0 - damping) / n))
    return {u: float(p[idx[u]]) for u in nodes}


def clique_count_oracle(pg, k):
    nodes = sorted(pg.nodes)
    n = len(nodes)
    if n < k:
        return 0
    idx = {u: i for i, u in enumerate(nodes)}
    A = np.zeros((n, n), dtype=bool)
    for (u, v) in pg.edges:
        A[idx[u], idx[v]] = A[idx[v], idx[u]] = True
    combos = np.array(list(combinations(range(n), k)))
    sub = A[combos[:, :, None], combos[:, None, :]]
    return int((sub.sum(axis=(1, 2)) == k * (k - 1)).sum())


def diameter_reference(pg):
    """Largest eccentricity over the largest component: one BFS per node."""
    return max(max(_bfs(pg.succ, pg.pos[u]).values()) for u in connected_components(pg)[0])


def brandes_reference(pg):
    """Brandes with fresh per-source lists, the float operations in the
    order ``betweenness`` must keep."""
    n = len(pg.names)
    cb = [0.0] * n
    for s in range(n):
        stack = []
        preds = [[] for _ in range(n)]
        sigma = [0.0] * n
        sigma[s] = 1.0
        dist = [-1] * n
        dist[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            stack.append(v)
            for w in pg.succ[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = [0.0] * n
        while stack:
            w = stack.pop()
            for v in preds[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if w != s:
                cb[w] += delta[w]
    norm = (n - 1) * (n - 2) / 2.0
    if norm <= 0:
        return {u: 0.0 for u in pg.names}
    return {u: cb[i] / 2.0 / norm for i, u in enumerate(pg.names)}


def reprs(scores):
    """Exact float bits, as the reports write them."""
    return {u: repr(v) for u, v in scores.items()}


def path(n):
    return undirected([(f"p{i:02d}", f"p{i + 1:02d}") for i in range(n - 1)],
                      nodes=[f"p{i:02d}" for i in range(n)])


def cycle(n):
    return undirected([(f"c{i:02d}", f"c{(i + 1) % n:02d}") for i in range(n)])


def barbell(k, bridge):
    """Two k-cliques joined by a path of ``bridge`` inner nodes."""
    left = [f"l{i}" for i in range(k)]
    right = [f"r{i}" for i in range(k)]
    chain = [left[-1]] + [f"m{i}" for i in range(bridge)] + [right[0]]
    return undirected(list(combinations(left, 2)) + list(combinations(right, 2))
                      + list(zip(chain, chain[1:])))


def lollipop(k, tail):
    """A k-clique with a path of ``tail`` nodes hanging off one member."""
    head = [f"h{i}" for i in range(k)]
    chain = [head[0]] + [f"t{i:02d}" for i in range(tail)]
    return undirected(list(combinations(head, 2)) + list(zip(chain, chain[1:])))


def grid(rows, cols):
    name = "g{}_{}".format
    edges = [(name(r, c), name(r, c + 1)) for r in range(rows) for c in range(cols - 1)]
    edges += [(name(r, c), name(r + 1, c)) for r in range(rows - 1) for c in range(cols)]
    return undirected(edges)


def star(leaves):
    return undirected([("hub", f"s{i}") for i in range(leaves)])


SHAPES = {
    "single node": undirected([], nodes=["a"]),
    "single edge": undirected([("a", "b")]),
    "path 2": path(2), "path 3": path(3), "path 10": path(10), "path 31": path(31),
    "odd cycle 7": cycle(7), "even cycle 8": cycle(8), "odd cycle 21": cycle(21),
    "barbell": barbell(5, 3), "barbell no bridge": barbell(4, 0),
    "lollipop": lollipop(6, 9),
    "grid 1x6": grid(1, 6), "grid 4x7": grid(4, 7), "grid 6x6": grid(6, 6),
    "star": star(9),
}


# --- connectivity -------------------------------------------------------------------


class TestComponents:
    def test_two_disjoint_edges(self):
        report = components(undirected([("a", "b"), ("c", "d")]))
        assert report.sizes == [2, 2]
        assert report.count == 2

    def test_empty_graph(self):
        report = components(undirected([]))
        assert report.count == 0 and report.sizes == []

    @given(st.integers(0, 10_000))
    @settings(max_examples=60)
    def test_matches_search_oracle(self, seed):
        pg = random_undirected(seed, n_lo=2, n_hi=25, p=0.12)
        got = {frozenset(c) for c in connected_components(pg)}
        assert got == components_oracle(pg)

    def test_stage_whole_network_figures(self, fixture_dir, fixture_records, tmp_path):
        config = fixture_dir / "config.toml"
        kept, _ = apply_exclusions(fixture_records, load_config(config).exclusions)
        oracle = components(build_graph(kept).project(PROJECTION_COAUTHORSHIP))
        assert main(["collabnet", "--config", str(config), "--output", str(tmp_path)]) == 0
        metrics = json.loads((tmp_path / "collab_metrics.json").read_text())
        assert (metrics["components"], metrics["largest_component"], metrics["diameter"]) == (
            oracle.count, oracle.largest_size, oracle.diameter_of_largest)
        with open(tmp_path / "component_sizes.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["size", "count"]] + [
            [str(size), str(n)] for size, n in sorted(Counter(oracle.sizes[1:]).items())]


class TestDiameter:
    def test_path_of_five(self):
        pg = undirected([(f"n{i}", f"n{i+1}") for i in range(4)])
        assert diameter_lcc(pg) == 4

    def test_clique(self):
        pg = undirected(list(combinations(["a", "b", "c", "d"], 2)))
        assert diameter_lcc(pg) == 1

    def test_random_fifty_node_matches_floyd_warshall(self):
        pg = random_undirected(404, n_lo=50, n_hi=50, p=0.08)
        lcc = connected_components(pg)[0]
        assert diameter_lcc(pg) == floyd_warshall_diameter(pg, lcc)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_tree_diameter_equals_double_sweep(self, seed):
        import random as _random

        rng = _random.Random(seed)
        n = rng.randint(2, 25)
        nodes = [f"t{i:02d}" for i in range(n)]
        edges = [(nodes[i], nodes[rng.randrange(i)]) for i in range(1, n)]
        pg = undirected(edges, nodes=nodes)
        # double sweep: BFS from any node, then BFS from the farthest node
        from collections import deque as _deque

        def bfs_far(start):
            dist = {start: 0}
            q = _deque([start])
            while q:
                u = q.popleft()
                for v in sorted(pg.neighbors(u)):
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        q.append(v)
            far = max(sorted(dist), key=lambda u: dist[u])
            return far, dist[far]

        far, _d = bfs_far(nodes[0])
        _far2, lower_bound = bfs_far(far)
        assert diameter_lcc(pg) == lower_bound


    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_shapes_match_all_sources_reference(self, shape):
        pg = SHAPES[shape]
        assert diameter_lcc(pg) == diameter_reference(pg)

    @given(st.integers(0, 10_000), st.sampled_from([0.03, 0.08, 0.2, 0.5, 0.9]))
    @settings(max_examples=80)
    def test_random_matches_all_sources_reference(self, seed, p):
        pg = random_undirected(seed, n_lo=1, n_hi=40, p=p)
        assert diameter_lcc(pg) == diameter_reference(pg)
        assert components(pg).diameter_of_largest == diameter_reference(pg)

    def test_fewer_bfs_than_lcc_nodes_on_fixture_snapshots(self, fixture_dir, fixture_records,
                                                          monkeypatch):
        kept, _ = apply_exclusions(fixture_records,
                                   load_config(fixture_dir / "config.toml").exclusions)
        kg = build_graph(kept)
        coauth = kg.project(PROJECTION_COAUTHORSHIP)
        lo, hi = kg.corpus_year_range
        snapshots = [snap for snap in (coauth.snapshot(y) for y in range(lo, hi + 1))
                     if snap.node_count()]
        assert len(snapshots) == 16
        runs = []

        def counted(succ, source):
            runs.append(source)
            return _bfs(succ, source)
        monkeypatch.setattr(collabnet, "_bfs", counted)
        lcc_total = 0
        for snap in snapshots:
            report = components(snap)
            assert report.diameter_of_largest == diameter_reference(snap)
            lcc_total += report.largest_size
        # one BFS per component, one from the source, then iFUB's eccentricities
        assert len(runs) < lcc_total


class TestHopCoverage:
    def test_star_full_coverage_at_one(self):
        pg = undirected([("hub", f"s{i}") for i in range(6)])
        cover = hop_coverage(pg)
        assert cover[0] == (0, pytest.approx(1 / 7))
        assert cover[-1] == (1, 1.0)

    def test_path_grows_one_node_per_hop(self):
        pg = undirected([(f"n{i}", f"n{i+1}") for i in range(4)])
        cover = hop_coverage(pg)
        # highest-degree tie broken lexicographically -> n1 (degree 2)
        fractions = [f for _k, f in cover]
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=60)
    def test_matches_layered_search_oracle(self, seed):
        pg = random_undirected(seed, n_lo=3, n_hi=25, p=0.15)
        cover = hop_coverage(pg)
        lcc = set(connected_components(pg)[0])
        source = min(lcc, key=lambda u: (-pg.degree(u), u))
        reached = {source}
        frontier = {source}
        expected = [(0, len(reached) / len(lcc))]
        k = 0
        while frontier:
            k += 1
            frontier = {v for u in frontier for v in pg.neighbors(u)} - reached
            if not frontier:
                break
            reached |= frontier
            expected.append((k, len(reached) / len(lcc)))
        assert [(k_, pytest.approx(f)) for k_, f in expected] == cover
        assert cover[-1][1] == 1.0


    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_report_carries_hop_coverage(self, shape):
        pg = SHAPES[shape]
        cover = components(pg).hop_coverage
        assert cover == hop_coverage(pg)
        assert cover[0][0] == 0 and cover[-1] == (len(cover) - 1, 1.0)

    def test_empty_graph(self):
        assert components(undirected([])).hop_coverage == []
        with pytest.raises(ValueError):
            hop_coverage(undirected([]))


# --- centralities --------------------------------------------------------------------


class TestPagerank:
    def test_ring_is_uniform(self):
        n = 8
        pg = undirected([(f"n{i}", f"n{(i+1) % n}") for i in range(n)])
        scores = pagerank(pg)
        for s in scores.values():
            assert s == pytest.approx(1 / n, abs=1e-9)

    def test_two_node_edge_split(self):
        scores = pagerank(undirected([("a", "b")]))
        assert scores["a"] == pytest.approx(0.5, abs=1e-9)
        assert scores["b"] == pytest.approx(0.5, abs=1e-9)

    def test_weighted_seven_node_matches_dense_solve(self):
        edges = [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d"), ("d", "e"),
                 ("e", "f"), ("f", "g"), ("c", "g")]
        weights = {("a", "b"): 3.0, ("a", "c"): 1.0, ("b", "c"): 2.0,
                   ("c", "d"): 5.0, ("d", "e"): 1.0, ("e", "f"): 0.5,
                   ("f", "g"): 2.5, ("c", "g"): 4.0}
        pg = undirected(edges, weights=weights)
        got = pagerank(pg, damping=0.85, tol=1e-14)
        expected = pagerank_oracle(pg, damping=0.85)
        for u, s in expected.items():
            assert got[u] == pytest.approx(s, abs=1e-8)

    def test_isolated_node_handled(self):
        pg = undirected([("a", "b")], nodes=["loner"])
        scores = pagerank(pg)
        assert sum(scores.values()) == pytest.approx(1.0, abs=1e-9)

    @given(st.integers(0, 10_000), st.floats(0.1, 50.0))
    @settings(max_examples=40)
    def test_weight_scaling_invariance(self, seed, scale):
        pg = random_undirected(seed, n_lo=3, n_hi=12, p=0.3)
        base = pagerank(pg, tol=1e-13)
        scaled_edges = {pair: dict(attrs, weight=attrs.get("weight", 1.0) * scale)
                        for pair, attrs in pg.edges.items()}
        from litla.graph import ProjectedGraph

        pg2 = ProjectedGraph(False, pg.nodes, scaled_edges)
        scaled = pagerank(pg2, tol=1e-13)
        for u in base:
            assert scaled[u] == pytest.approx(base[u], abs=1e-9)

    def test_nonconvergence_error_carries_residual(self):
        pg = undirected([("a", "b"), ("b", "c")])
        with pytest.raises(ConvergenceError) as err:
            pagerank(pg, tol=0.0, max_iter=2)
        assert err.value.residual > 0


    @given(weighted_graphs(), st.sampled_from([0.5, 0.85]),
           st.sampled_from([(1e-10, 500), (1e-14, 30), (0.0, 2)]))
    @example((4, [(0, 1, 0.0), (0, 2, 0.0), (1, 2, 1.0)]), 0.85, (1e-10, 500))
    @example((3, []), 0.85, (1e-10, 500))
    @example((5, [(0, 1, 2.0), (1, 2, None), (0, 2, 0.5)]), 0.85, (0.0, 2))
    @settings(max_examples=200)
    def test_every_score_and_residual_matches_reference_bits(self, graph, damping, stop):
        pg = weighted_graph(*graph)
        tol, max_iter = stop
        kwargs = dict(damping=damping, tol=tol, max_iter=max_iter)
        assert pagerank_outcome(pagerank, pg, **kwargs) == \
            pagerank_outcome(pagerank_reference, pg, **kwargs)

    def test_zero_max_iter_rejected(self):
        with pytest.raises(ValueError, match="max_iter must be positive"):
            pagerank(undirected([("a", "b")]), max_iter=0)


class TestBetweenness:
    def test_star_center_is_one(self):
        pg = undirected([("hub", f"s{i}") for i in range(5)])
        scores = betweenness(pg)
        assert scores["hub"] == pytest.approx(1.0, abs=1e-12)
        assert all(scores[f"s{i}"] == 0.0 for i in range(5))

    def test_clique_all_zero(self):
        pg = undirected(list(combinations("abcde", 2)))
        assert all(v == 0.0 for v in betweenness(pg).values())

    @given(st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_matches_path_counting_oracle(self, seed):
        pg = random_undirected(seed, n_lo=3, n_hi=12, p=0.3)
        got = betweenness(pg)
        expected = betweenness_oracle(pg)
        for u in expected:
            assert got[u] == pytest.approx(expected[u], abs=1e-10)


    @given(st.integers(0, 10_000), st.sampled_from([0.05, 0.15, 0.4, 0.8]),
           st.integers(0, 3))
    @settings(max_examples=80)
    def test_bit_identical_to_reference(self, seed, p, isolated):
        pg = random_undirected(seed, n_lo=0, n_hi=30, p=p)
        pg = undirected(list(pg.edges), nodes=list(pg.nodes) + [f"z{i}" for i in range(isolated)])
        assert reprs(betweenness(pg)) == reprs(brandes_reference(pg))

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_shapes_bit_identical_to_reference(self, shape):
        pg = SHAPES[shape]
        assert reprs(betweenness(pg)) == reprs(brandes_reference(pg))

    def test_many_shortest_paths_bit_identical(self):
        # complete bipartite layers: sigma grows as a product along the chain,
        # plus a second component and an isolated node
        layers = [[f"x{i}{j}" for j in range(w)] for i, w in enumerate((1, 3, 4, 3, 5, 1))]
        edges = [(u, v) for a, b in zip(layers, layers[1:]) for u in a for v in b]
        pg = undirected(edges + [("y0", "y1"), ("y1", "y2"), ("y0", "y3"), ("y3", "y2")],
                        nodes=["lone"])
        got = betweenness(pg)
        assert reprs(got) == reprs(brandes_reference(pg))
        assert got["x10"] > 0.0 and got["lone"] == 0.0


class TestCliques:
    def test_k5_counts(self):
        pg = undirected(list(combinations("abcde", 2)))
        assert count_k_cliques(pg, 4) == 5
        assert count_k_cliques(pg, 5) == 1

    def test_triangle_free(self):
        pg = undirected([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
        assert count_k_cliques(pg, 3) == 0
        assert count_k_cliques(pg, 4) == 0

    @given(st.integers(3, 8), st.integers(3, 5))
    def test_complete_graph_binomial(self, n, k):
        pg = undirected(list(combinations([f"n{i}" for i in range(n)], 2)))
        from math import comb

        assert count_k_cliques(pg, k) == comb(n, k)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_random_matches_subset_oracle(self, seed):
        pg = random_undirected(seed, n_lo=4, n_hi=18, p=0.35)
        for k in (3, 4, 5):
            assert count_k_cliques(pg, k) == clique_count_oracle(pg, k)


# --- attributes and mixing -----------------------------------------------------------


def kgraph(author_specs):
    """author_specs: list of (paper_id, year, [(name, country_hint)])."""
    affs = {"CN": "Tsinghua University, Beijing, China",
            "GB": "University of Exeter, Exeter, UK",
            "US": "MIT, Cambridge, MA 02139, USA",
            None: "Mysterious Place, Atlantis"}
    records = []
    for pid, year, authors in author_specs:
        records.append(PaperRecord(
            id=pid, title=pid, year=year, page_count=8,
            authors=[Author(name=n, affiliation=affs[c]) for n, c in authors]))
    return build_graph(records)


def incidences(kg, author_key):
    return kg.nodes[NodeRef(NODE_AUTHOR, author_key)]["incidences"]


def primary_topic(kg, author_key, labels):
    """The author's topic label as stage_collabnet computes it."""
    return modal_label((labels[pid] for _y, pid, _c in incidences(kg, author_key)), NOISE)


class TestAuthorAttribute:
    def test_all_papers_same_country(self):
        kg = kgraph([("p1", 2010, [("A B", "CN")]), ("p2", 2011, [("A B", "CN")])])
        assert modal_country(incidences(kg, "a b")) == "CN"

    def test_tie_breaks_lexicographically(self):
        kg = kgraph([("p1", 2010, [("A B", "CN")]), ("p2", 2011, [("A B", "GB")])])
        assert modal_country(incidences(kg, "a b")) == "CN"

    def test_unknown_when_no_data(self):
        kg = kgraph([("p1", 2010, [("A B", None)])])
        assert modal_country(incidences(kg, "a b")) == "UNKNOWN"

    def test_modal_topic_excludes_outliers(self):
        kg = kgraph([("p1", 2010, [("A B", "CN")]),
                     ("p2", 2011, [("A B", "CN")]),
                     ("p3", 2012, [("A B", "CN")])])
        labels = {"p1": 2, "p2": 2, "p3": NOISE}
        assert primary_topic(kg, "a b", labels) == "2"
        assert primary_topic(kg, "a b", {"p1": NOISE, "p2": NOISE, "p3": NOISE}) == "UNKNOWN"

    def test_modal_topic_ties_break_in_string_order(self):
        kg = kgraph([("p1", 2010, [("A B", "CN")]), ("p2", 2011, [("A B", "CN")])])
        labels = {"p1": 9, "p2": 10}
        assert primary_topic(kg, "a b", labels) == "10"

    def test_counting_oracle(self):
        kg = kgraph([(f"p{i}", 2010 + i, [("A B", c)])
                     for i, c in enumerate(["CN", "GB", "GB", "US", "GB"])])
        assert modal_country(incidences(kg, "a b")) == "GB"


class TestAssortativity:
    def test_monochromatic_cliques_r_one(self):
        edges = list(combinations(["a1", "a2", "a3"], 2)) \
            + list(combinations(["b1", "b2", "b3"], 2))
        labels = {n: n[0] for n in "a1 a2 a3 b1 b2 b3".split()}
        res = assortativity_categorical(undirected(edges), labels)
        assert res.r == pytest.approx(1.0, abs=1e-12)

    def test_complete_bipartite_r_minus_one(self):
        edges = [(a, b) for a in ("a1", "a2", "a3") for b in ("b1", "b2", "b3")]
        labels = {n: n[0] for n in "a1 a2 a3 b1 b2 b3".split()}
        res = assortativity_categorical(undirected(edges), labels)
        assert res.r == pytest.approx(-1.0, abs=1e-12)

    def test_twelve_edge_hand_value(self):
        aa = [("a1", "a2"), ("a1", "a3"), ("a2", "a3"), ("a4", "a5"), ("a3", "a4")]
        ab = [("a1", "b1"), ("a2", "b2"), ("a5", "b3"), ("a4", "b4")]
        bb = [("b1", "b2"), ("b2", "b3"), ("b3", "b4")]
        labels = {f"a{i}": "A" for i in range(1, 6)}
        labels.update({f"b{i}": "B" for i in range(1, 5)})
        res = assortativity_categorical(undirected(aa + ab + bb), labels)
        # e_AA = 10/24, e_BB = 6/24, a_A = 14/24, a_B = 10/24
        # r = (16/24 - 296/576) / (1 - 296/576) = 11/35
        assert res.r == pytest.approx(11 / 35, abs=1e-12)

    def test_single_category_undefined(self):
        labels = {"a": "X", "b": "X"}
        with pytest.warns(UserWarning):
            assert assortativity_categorical(undirected([("a", "b")]), labels) is None

    def test_mixing_matrix_sums_to_one(self):
        edges = [("a1", "b1"), ("a1", "a2"), ("b1", "b2")]
        labels = {"a1": "A", "a2": "A", "b1": "B", "b2": "B"}
        res = assortativity_categorical(undirected(edges), labels)
        assert sum(sum(row) for row in res.mixing) == pytest.approx(1.0, abs=1e-12)

    def test_r_one_iff_every_edge_monochromatic(self):
        edges = list(combinations(["a1", "a2", "a3"], 2)) + [("a1", "b1")]
        labels = {"a1": "A", "a2": "A", "a3": "A", "b1": "B"}
        res = assortativity_categorical(undirected(edges), labels)
        assert res.r < 1.0

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("exclude_unknown", [False, True])
    def test_edge_insertion_order_does_not_matter(self, seed, exclude_unknown):
        rng = np.random.default_rng(seed)
        pg = random_undirected(seed, n_lo=40, n_hi=60, p=0.3)
        labels = {n: str(rng.choice(["A", "B", "C", collabnet.UNKNOWN])) for n in pg.nodes}
        edges = list(pg.edges)
        rng.shuffle(edges)
        shuffled = undirected(edges, nodes=pg.nodes)
        assert list(shuffled.edges) != list(pg.edges)
        assert repr(assortativity_categorical(shuffled, labels, exclude_unknown=exclude_unknown)) \
            == repr(assortativity_categorical(pg, labels, exclude_unknown=exclude_unknown))


class TestTopActive:
    def test_k_equals_n_keeps_whole_graph(self):
        pg = undirected([("a", "b"), ("b", "c")], years={"a": 2010, "b": 2011, "c": 2012})
        sub = top_active_subnetwork(pg, 3, scores=pagerank(pg))
        assert set(sub.nodes) == {"a", "b", "c"}
        assert set(sub.edges) == set(pg.edges)

    def test_k_one_single_node_no_edges(self):
        pg = undirected([("a", "b")], years={"a": 2010, "b": 2011})
        sub = top_active_subnetwork(pg, 1, scores=pagerank(pg))
        assert len(sub.nodes) == 1 and sub.edge_count() == 0

    def test_top5_matches_pagerank_oracle(self):
        pg = random_undirected(77, n_lo=12, n_hi=12, p=0.3)
        sub = top_active_subnetwork(pg, 5, scores=pagerank(pg))
        oracle = pagerank_oracle(pg)
        expected = sorted(oracle, key=lambda u: (-oracle[u], u))[:5]
        assert set(sub.nodes) == set(expected)
        for u, attrs in sub.nodes.items():
            assert attrs["pagerank"] == pytest.approx(oracle[u], abs=1e-8)

    def test_k_above_n_rejected(self):
        pg = undirected([("a", "b")])
        with pytest.raises(ValueError):
            top_active_subnetwork(pg, 5, scores=pagerank(pg))
