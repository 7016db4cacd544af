"""The collaboration-network metrics against networkx, on drawn graphs.

networkx is no litla dependency, so this module is skipped where it is not
installed. Counts (component sizes, k-cliques) and the diameter must match
exactly. Floats must match within these absolute tolerances:

- betweenness, ``BETWEENNESS_TOL``: both sum the same pair dependencies,
  in other orders;
- PageRank, ``PAGERANK_TOL``: litla stops once no score moves by
  ``tol`` = 1e-13 and networkx once the scores move by less than n * 1e-15
  in total, so each is within about tol / (1 - damping) of the fixed point;
- assortativity, ``ASSORTATIVITY_TOL``: both divide the same integer
  mixing counts, summed in other orders.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from litla import collabnet as co
from litla.countries import UNKNOWN
from litla.graph import ProjectedGraph

nx = pytest.importorskip("networkx")

BETWEENNESS_TOL = 1e-12
PAGERANK_TOL = 1e-10
ASSORTATIVITY_TOL = 1e-12


@st.composite
def weighted_graphs(draw):
    """Up to 12 nodes, each pair linked with weight 0.5, 1, 2 or 3 or not at
    all; isolated nodes are PageRank's dangling nodes."""
    names = [f"n{i:02d}" for i in range(draw(st.integers(0, 12)))]
    weights = st.sampled_from([None, None, 0.5, 1.0, 2.0, 3.0])
    edges = {}
    for i, u in enumerate(names):
        for v in names[i + 1:]:
            w = draw(weights)
            if w is not None:
                edges[(u, v)] = {"weight": w}
    return ProjectedGraph(False, {u: {} for u in names}, edges)


def to_nx(pg: ProjectedGraph):
    g = nx.Graph()
    g.add_nodes_from(pg.names)
    g.add_edges_from((u, v, attrs) for (u, v), attrs in pg.edges.items())
    return g


@given(weighted_graphs())
def test_betweenness_matches_networkx(pg):
    want = nx.betweenness_centrality(to_nx(pg), normalized=True)
    got = co.betweenness(pg)
    assert got.keys() == want.keys()
    assert all(abs(got[u] - want[u]) <= BETWEENNESS_TOL for u in got)


@given(weighted_graphs())
def test_weighted_pagerank_with_dangling_nodes_matches_networkx(pg):
    pytest.importorskip("scipy")  # networkx's pagerank runs on scipy
    want = nx.pagerank(to_nx(pg), alpha=0.85, weight="weight", tol=1e-15, max_iter=10_000)
    got = co.pagerank(pg, damping=0.85, tol=1e-13, max_iter=10_000)
    assert got.keys() == want.keys()
    assert all(abs(got[u] - want[u]) <= PAGERANK_TOL for u in got)


@given(weighted_graphs())
def test_components_and_diameter_match_networkx(pg):
    g = to_nx(pg)
    comps = sorted(nx.connected_components(g), key=lambda c: (-len(c), min(c)))
    report = co.components(pg)
    assert report.sizes == [len(c) for c in comps]
    assert report.count == len(comps)
    if comps:  # the largest component, ties to the one with the first name
        assert report.diameter_of_largest == nx.diameter(g.subgraph(comps[0]))


@given(weighted_graphs())
def test_clique_counts_match_networkx(pg):
    sizes = [len(c) for c in nx.enumerate_all_cliques(to_nx(pg))]
    for k in (3, 4, 5):
        assert co.count_k_cliques(pg, k) == sizes.count(k)


@given(weighted_graphs(), st.data(), st.booleans())
def test_categorical_assortativity_matches_networkx(pg, data, exclude_unknown):
    labels = {u: data.draw(st.sampled_from(["A", "B", "C", UNKNOWN])) for u in pg.names}
    counted = [(u, v) for u, v in pg.edges
               if not (exclude_unknown and UNKNOWN in (labels[u], labels[v]))]
    categories = {labels[x] for edge in counted for x in edge}
    if len(categories) == 1:
        with pytest.warns(UserWarning, match="single category"):
            got = co.assortativity_categorical(pg, labels, exclude_unknown=exclude_unknown)
    else:
        got = co.assortativity_categorical(pg, labels, exclude_unknown=exclude_unknown)
    if len(categories) <= 1:  # no edge counted, or r is 0 / 0 (networkx's nan)
        assert got is None
        return
    g = nx.Graph(counted)
    nx.set_node_attributes(g, labels, "label")
    want = nx.attribute_assortativity_coefficient(g, "label")
    assert abs(got.r - want) <= ASSORTATIVITY_TOL
