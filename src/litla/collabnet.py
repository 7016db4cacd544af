"""Collaboration-network analytics: components, diameter, hop coverage,
centralities, clique counts, categorical assortativity and the top-active
author subnetwork."""

from __future__ import annotations

import warnings
from collections import Counter, deque
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .countries import UNKNOWN
from .errors import ConvergenceError
from .graph import ProjectedGraph
from .stats import ordered_sum


@dataclass
class ComponentReport:
    sizes: list[int]            # descending
    count: int
    largest_size: int
    diameter_of_largest: int
    hop_coverage: list[tuple[int, float]]  # see hop_coverage()


@dataclass
class AssortativityResult:
    r: float
    mixing: list[list[float]]   # edge-endpoint fractions, rows/cols sum to 1


# --- connectivity ---------------------------------------------------------------


def _bfs(succ: list[list[int]], source: int) -> dict[int, int]:
    """Hop distance from ``source`` to every node it reaches."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in succ[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def connected_components(pg: ProjectedGraph) -> list[list[str]]:
    """Components as sorted node lists, largest first (ties by first node)."""
    seen: set[int] = set()
    comps: list[list[str]] = []
    for start in range(len(pg.names)):
        if start in seen:
            continue
        comp = sorted(_bfs(pg.succ, start))
        seen.update(comp)
        comps.append([pg.names[i] for i in comp])
    comps.sort(key=lambda c: (-len(c), c[0]))
    return comps


def components(pg: ProjectedGraph) -> ComponentReport:
    """Component sizes, and the largest component's diameter and hop coverage."""
    comps = connected_components(pg)
    if not comps:
        return ComponentReport(sizes=[], count=0, largest_size=0, diameter_of_largest=0,
                               hop_coverage=[])
    # highest degree first, ties by index (= name order)
    source = min((pg.pos[u] for u in comps[0]), key=lambda i: (-len(pg.succ[i]), i))
    dist = _bfs(pg.succ, source)
    layer_counts = Counter(dist.values())
    reached = accumulate(layer_counts[k] for k in range(len(layer_counts)))
    sizes = [len(c) for c in comps]
    return ComponentReport(
        sizes=sizes,
        count=len(comps),
        largest_size=sizes[0],
        diameter_of_largest=_diameter_of(pg.succ, dist),
        hop_coverage=[(k, r / sizes[0]) for k, r in enumerate(reached)],
    )


def _diameter_of(succ: list[list[int]], dist: dict[int, int]) -> int:
    """Exact diameter of the component spanned by the BFS distances
    ``dist``, by iFUB (Crescenzi et al., TCS 2013).

    Eccentricities are taken from the deepest BFS level up. Before a node
    at level i, every pair not yet covered has both ends within i hops of
    the source, so is at most 2*i apart: once the lower bound reaches 2*i,
    it is the diameter.
    """
    lower = max(dist.values())
    for v in reversed(dist):  # BFS order, so deepest level first
        if lower >= 2 * dist[v]:
            break
        lower = max(lower, max(_bfs(succ, v).values()))
    return lower


def diameter_lcc(pg: ProjectedGraph) -> int:
    """Exact diameter of the largest connected component (iFUB)."""
    report = components(pg)
    if not report.count:
        raise ValueError("empty graph has no diameter")
    return report.diameter_of_largest


def hop_coverage(pg: ProjectedGraph) -> list[tuple[int, float]]:
    """Fraction of the largest component reached within k hops of its
    highest-degree node (degree ties broken lexicographically)."""
    report = components(pg)
    if not report.count:
        raise ValueError("empty graph")
    return report.hop_coverage


def degree_histogram(pg: ProjectedGraph) -> list[tuple[int, int]]:
    return sorted(Counter(map(len, pg.succ)).items())


# --- centralities ---------------------------------------------------------------


def pagerank(pg: ProjectedGraph, damping: float = 0.85, tol: float = 1e-10,
             max_iter: int = 500) -> dict[str, float]:
    """PageRank on the weighted undirected graph.

    Undirected edges act as reciprocal directed pairs with transition
    probability proportional to edge weight; nodes with zero weighted
    degree spread their mass uniformly. Scores sum to 1; convergence is
    max absolute change < tol.
    """
    if not 0.0 < damping < 1.0:
        raise ValueError("damping must lie in (0, 1)")
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    nodes = pg.names
    n = len(nodes)
    if n == 0:
        return {}
    src, dst, prob = [], [], []
    dangling = np.zeros(n, dtype=bool)
    for i, u in enumerate(nodes):
        nbrs = pg.succ[i]
        weights = [pg.edge_attrs(u, nodes[j]).get("weight", 1.0) for j in nbrs]
        wsum = float(ordered_sum(weights))
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
        inflow = np.bincount(dst, p[src] * prob, minlength=n) + p[dangling].sum() / n
        p_new = damping * inflow + (1.0 - damping) / n
        residual = float(np.max(np.abs(p_new - p)))
        p = p_new
        if residual < tol:
            return {u: float(p[i]) for i, u in enumerate(nodes)}
    raise ConvergenceError(f"pagerank failed to converge in {max_iter} iterations", residual)


def betweenness(pg: ProjectedGraph) -> dict[str, float]:
    """Exact shortest-path betweenness (Brandes accumulation, hop metric),
    normalized by (n-1)(n-2)/2 so a star center scores 1."""
    n = len(pg.names)
    cb = [0.0] * n
    # allocated once; after each source only the nodes it reached are reset
    preds: list[list[int]] = [[] for _ in range(n)]
    sigma = [0.0] * n
    dist = [-1] * n
    delta = [0.0] * n
    for s in range(n):
        sigma[s] = 1.0
        dist[s] = 0
        order = [s]  # BFS queue while it grows, then read back as the stack
        for v in order:
            step = dist[v] + 1
            for w in pg.succ[v]:
                if dist[w] < 0:
                    dist[w] = step
                    order.append(w)
                if dist[w] == step:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        for w in reversed(order):
            for v in preds[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if w != s:
                cb[w] += delta[w]
        for v in order:
            preds[v].clear()
            sigma[v] = 0.0
            dist[v] = -1
            delta[v] = 0.0
    norm = (n - 1) * (n - 2) / 2.0
    if norm <= 0:
        return {u: 0.0 for u in pg.names}
    # each unordered pair is accumulated from both endpoints
    return {u: cb[i] / 2.0 / norm for i, u in enumerate(pg.names)}


# --- cliques ---------------------------------------------------------------------


def count_k_cliques(pg: ProjectedGraph, k: int) -> int:
    """Exact number of k-vertex complete subgraphs, by ordered backtracking
    over neighbor intersections (intended for k in {3, 4, 5})."""
    if k < 1:
        raise ValueError("k must be positive")
    # each clique is counted once, from its lowest index upward
    later = [{v for v in nbrs if v > u} for u, nbrs in enumerate(pg.succ)]

    def extend(common: set[int], size: int) -> int:
        if size == k:
            return 1
        return sum(extend(common & later[v], size + 1) for v in common)

    return sum(extend(later[u], 1) for u in range(len(later)))


# --- mixing ----------------------------------------------------------------------


def assortativity_categorical(pg: ProjectedGraph, labels: dict[str, str],
                              attribute: str = "label",
                              exclude_unknown: bool = False
                              ) -> AssortativityResult | None:
    """Newman categorical assortativity r = (sum e_ii - sum a_i b_i) / (1 - sum a_i b_i).

    The mixing matrix counts each undirected edge once in each direction.
    Returns None (with a warning) when every endpoint falls in a single
    category, which makes the denominator vanish. The counts are integers,
    exact in float64, so edge order cannot change the mixing matrix. The
    result is not exact, though: ``np.dot(a, b)`` adds in an order set by
    the BLAS kernel, so r may differ in its last bits from one CPU to
    another.
    """
    pairs = []
    for (u, v) in pg.edges:
        cu, cv = labels[u], labels[v]
        if exclude_unknown and (cu == UNKNOWN or cv == UNKNOWN):
            continue
        pairs.append((cu, cv))
    if not pairs:
        return None
    cats = sorted({c for p in pairs for c in p})
    index = {c: i for i, c in enumerate(cats)}
    m = np.zeros((len(cats), len(cats)))
    for cu, cv in pairs:
        m[index[cu], index[cv]] += 1.0
        m[index[cv], index[cu]] += 1.0
    m /= m.sum()
    a = m.sum(axis=1)
    b = m.sum(axis=0)
    ab = float(np.dot(a, b))
    if abs(1.0 - ab) < 1e-15:
        warnings.warn(f"assortativity undefined for {attribute!r}: single category")
        return None
    r = (float(np.trace(m)) - ab) / (1.0 - ab)
    return AssortativityResult(r=r, mixing=m.tolist())


# --- top-active subnetwork ----------------------------------------------------------


def top_active_subnetwork(pg: ProjectedGraph, k: int,
                          scores: dict[str, float]) -> ProjectedGraph:
    """Induced subgraph of the k authors with the highest ``scores`` (their
    PageRank); node attrs carry the score and first-publication year, edges
    keep co-authorship weights."""
    if k > pg.node_count():
        raise ValueError("k exceeds node count")
    top = sorted(pg.nodes, key=lambda u: (-scores[u], u))[:k]
    top_set = set(top)
    nodes = {
        u: {"pagerank": scores[u], "entry_year": pg.nodes[u].get("year")}
        for u in top
    }
    edges = {
        (u, v): {"weight": attrs.get("weight", 1.0), "year": attrs.get("year")}
        for (u, v), attrs in pg.edges.items()
        if u in top_set and v in top_set
    }
    return ProjectedGraph(directed=False, nodes=nodes, edges=edges)
