"""Citation-network analytics: growth and densification, preferential
attachment, CD disruptiveness, lexical novelty, and the three-step main-path
backbone (mutual-reinforcement ranking, one-hop trimming, similarity
weighting).

Every analysis reads the citation projection alone: its paper nodes carry
the year, authors and venue that the CD index and the ranking need.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter

import numpy as np

from .errors import ConvergenceError
from .graph import FLAG_CYCLE, FLAG_TEMPORAL_ANOMALY, ProjectedGraph
from .powerlaw import PowerLawFit, fit_power_law_ls
from .stats import YearSeries, ordered_sum
from .textutil import TextIndex


# --- growth ----------------------------------------------------------------------


def densification_fit(n_t: list[int], e_t: list[int]) -> PowerLawFit:
    """Densification law e(t) ~ n(t)^alpha over yearly node and edge counts;
    years with no node or no edge are left out."""
    pairs = [(n, e) for n, e in zip(n_t, e_t) if n > 0 and e > 0]
    return fit_power_law_ls([p[0] for p in pairs], [p[1] for p in pairs])


# --- preferential attachment -------------------------------------------------------


def preferential_attachment_curve(
    snapshots: list[ProjectedGraph],
) -> tuple[list[tuple[float, float]], PowerLawFit | None]:
    """Mean citation gain per prior-citation bucket, plus a power-law fit.

    For each consecutive snapshot pair, papers are bucketed by their
    in-network citation count k >= 1 (log2 bins against the heavy tail) and
    the average gain over the next snapshot is recorded. The fit runs over
    bucket means with positive gain and needs at least 3 such buckets.
    Fewer than 2 snapshots have no pair and give ``([], None)``.
    """
    gains: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for g0, g1 in zip(snapshots, snapshots[1:]):
        for u in g0.nodes:
            if u not in g1.nodes:
                continue
            k = g0.in_degree(u)
            if k < 1:
                continue
            delta = g1.in_degree(u) - k
            gains[int(math.floor(math.log2(k)))].append((k, delta))
    curve = []
    for b in sorted(gains):
        pairs = gains[b]
        mean_k = sum(k for k, _ in pairs) / len(pairs)
        mean_d = sum(d for _, d in pairs) / len(pairs)
        curve.append((mean_k, mean_d))
    positive = [(k, d) for k, d in curve if d > 0]
    fit = None
    if len(positive) >= 3:
        fit = fit_power_law_ls([k for k, _ in positive], [d for _, d in positive])
    return curve, fit


# --- CD disruptiveness ----------------------------------------------------------


@dataclass
class CdResult:
    paper: str
    cd: float
    n_t: int
    f_count: int
    b_count: int


def _valid_edge(attrs: dict) -> bool:
    return FLAG_TEMPORAL_ANOMALY not in attrs.get("flags", frozenset())


def _cd_results(cit: ProjectedGraph, focals, window: int | None,
                exclude_self_citations: bool) -> list[CdResult]:
    """CD of the ``focals`` (indices into ``cit.names``). Each paper's valid
    references and citers are listed once, in one pass over the edges; the
    sets F and B are built per focal."""
    refs: list[list[int]] = [[] for _ in cit.names]
    citers: list[list[int]] = [[] for _ in cit.names]
    for (u, v), attrs in cit.edges.items():
        if _valid_edge(attrs):
            refs[cit.pos[u]].append(cit.pos[v])
            citers[cit.pos[v]].append(cit.pos[u])
    years = [cit.nodes[u]["year"] for u in cit.names]
    authors = [cit.nodes[u].get("authors", ()) for u in cit.names]

    out = []
    for i in focals:
        t0 = years[i]
        t1 = t0 + window if window is not None else math.inf
        own = set(authors[i]) if exclude_self_citations else set()
        f_all = set(citers[i])
        b_all = set().union(*(citers[r] for r in refs[i]))
        kept = {c for c in f_all | b_all if t0 < years[c] <= t1 and own.isdisjoint(authors[c])}
        if kept:
            f, b = kept & f_all, kept & b_all
            out.append(CdResult(paper=cit.names[i], cd=(len(f) - 2 * len(f & b)) / len(kept),
                                n_t=len(kept), f_count=len(f), b_count=len(b)))
    return out


def cd_index(cit: ProjectedGraph, focal: str, window: int | None = None,
             exclude_self_citations: bool = True) -> CdResult | None:
    """CD disruptiveness index of a focal paper.

    With R the focal's in-corpus references, F the later papers citing the
    focal and B the later papers citing any member of R (both restricted to
    ``window`` years after the focal when given):

        CD = (|F| - 2 |F & B|) / |F | B|     (& intersection, | union)

    which is (1/|S|) * sum_i (f_i - 2 f_i b_i) over S = F | B, where f_i /
    b_i flag whether citer i cites the focal / any reference. Temporally
    anomalous citations count for neither R nor the citer sets. Papers
    sharing an author with the focal are dropped from F and B by default.
    Returns None when S is empty (the index is undefined, never 0).
    """
    if focal not in cit.nodes:
        raise KeyError(f"unknown paper {focal!r}")
    results = _cd_results(cit, [cit.pos[focal]], window, exclude_self_citations)
    return results[0] if results else None


def cd_index_all(cit: ProjectedGraph, window: int | None = None,
                 exclude_self_citations: bool = True) -> list[CdResult]:
    """:func:`cd_index` of every paper with a defined index, in paper order."""
    return _cd_results(cit, range(len(cit.nodes)), window, exclude_self_citations)


def cd_index_yearly(cit: ProjectedGraph, results: list[CdResult]) -> YearSeries:
    """Mean CD by publication year of ``results`` (from :func:`cd_index_all`
    on ``cit``); years without a defined CD are omitted."""
    by_year: dict[int, list[float]] = defaultdict(list)
    for res in results:
        by_year[cit.nodes[res.paper]["year"]].append(res.cd)
    years = sorted(by_year)
    return YearSeries(years, [ordered_sum(by_year[y]) / len(by_year[y]) for y in years])


# --- lexical novelty -------------------------------------------------------------


def type_token_ratio(text: TextIndex, paper_years: dict[str, int]) -> YearSeries:
    """Distinct/total token ratio per year over the title+abstract streams of
    the indexed papers published that year (``paper_years``: paper id ->
    year); years with no tokens are omitted. Tokens keep stopwords so the
    ratio counts every word of the stream."""
    distinct: dict[int, set[str]] = {}
    total: dict[int, int] = defaultdict(int)
    for pid, stream in text.streams.items():
        y = paper_years[pid]
        distinct.setdefault(y, set()).update(stream)
        total[y] += len(stream)
    years = sorted(y for y in distinct if total[y])
    return YearSeries(years, [len(distinct[y]) / total[y] for y in years])


# --- main path step 1: mutual-reinforcement ranking --------------------------------


def _membership(groups_of: list) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The (paper index, group index) arrays of each paper's list of groups,
    in paper then list order with groups indexed in sorted order, each
    paper's group count floored at 1 and each group's paper count."""
    names = sorted({g for groups in groups_of for g in groups})
    index = {g: k for k, g in enumerate(names)}
    paper_idx = np.array([i for i, groups in enumerate(groups_of) for _ in groups], dtype=int)
    group_idx = np.array([index[g] for groups in groups_of for g in groups], dtype=int)
    per_paper = np.maximum(np.bincount(paper_idx, minlength=len(groups_of)), 1).astype(float)
    per_group = np.bincount(group_idx, minlength=len(names)).astype(float)
    return paper_idx, group_idx, per_paper, per_group


def rank_essential(cit: ProjectedGraph, decay: float = 0.2, damping: float = 0.85,
                   tol: float = 1e-10, max_iter: int = 500) -> dict[str, float]:
    """Paper importance via mutual reinforcement between papers, authors and
    venues (FutureRank), read from the year, authors and venue of each
    paper node of the citation projection ``cit``.

    Authors and venues are one paper-group membership rule applied twice:
    a paper belongs to each of its authors, and to its venue if it has one.
    Each iteration:
      paper  p(u) = damping * (citations(u) + authors(u) + venue(u)) / 3
                    + (1 - damping)/|P|
      citations(u) = sum over citers c of p(c)/outdeg(c) * exp(-decay*(t_now - t_c))
      authors(u), venue(u) = mean score of u's groups, 0 with none
      group g = mean of its papers' scores.

    All three vectors are renormalized to sum 1 every iteration; iteration
    stops when the maximum absolute change of any of them falls below
    ``tol``. Returns the paper scores. Each sparse sum adds by ascending
    index (``np.bincount``) and the paper total adds citations, then
    authors, then venues, so the scores keep their bits; a venue mean
    divides by a count of 1, exactly.
    """
    if not 0.0 < damping < 1.0:
        raise ValueError("damping must lie in (0, 1)")
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    papers = cit.names
    if not papers:
        return {}
    n_p = len(papers)
    nodes = [cit.nodes[pid] for pid in papers]
    years = np.array([node["year"] for node in nodes], dtype=float)
    t_now = years.max()
    memberships = [_membership([node["authors"] for node in nodes]),
                   _membership([[node["venue"]] if node["venue"] else [] for node in nodes])]

    # every citation edge, in (citer, cited) order
    out_deg = np.array([len(refs) for refs in cit.succ])
    src_idx = np.repeat(np.arange(n_p), out_deg)
    dst_idx = np.array([j for refs in cit.succ for j in refs], dtype=int)
    edge_factor = np.exp(-decay * (t_now - years[src_idx])) / out_deg[src_idx]

    p = np.full(n_p, 1.0 / n_p)
    scores = [np.full(len(per_group), 1.0 / max(len(per_group), 1))
              for _, _, _, per_group in memberships]
    for _ in range(max_iter):
        total = np.bincount(dst_idx, p[src_idx] * edge_factor, minlength=n_p)
        for (paper_idx, group_idx, per_paper, _), g in zip(memberships, scores):
            # not +=: with no citation, bincount returns integer zeros
            total = total + np.bincount(paper_idx, g[group_idx], minlength=n_p) / per_paper
        p_new = damping * total / 3.0 + (1.0 - damping) / n_p
        p_new /= p_new.sum()
        new_scores = []
        for paper_idx, group_idx, _, per_group in memberships:
            g_new = np.bincount(group_idx, p_new[paper_idx], minlength=len(per_group)) / per_group
            new_scores.append(g_new / g_new.sum())
        residual = max(float(np.max(np.abs(new - old), initial=0.0))
                       for new, old in zip([p_new, *new_scores], [p, *scores]))
        p, scores = p_new, new_scores
        if residual < tol:
            return {pid: float(p[i]) for i, pid in enumerate(papers)}
    raise ConvergenceError(f"ranking failed to converge in {max_iter} iterations", residual)


# --- main path step 2: one-hop trimming --------------------------------------------


def trim_network(nodes, edges) -> set[tuple[str, str]]:
    """Drop every edge u->w implied by a one-hop detour u->v->w.

    The redundancy condition is evaluated on the input edge set, so no
    visiting order matters and reachability between surviving nodes is
    preserved exactly. Cyclic input, a self-loop included, is rejected.
    """
    succ: dict[str, set[str]] = {u: set() for u in nodes}
    for u, w in edges:
        if u not in succ or w not in succ:
            raise ValueError(f"edge ({u}, {w}) references unknown node")
        succ[u].add(w)
    try:
        TopologicalSorter(succ).prepare()
    except CycleError:
        raise ValueError("cycle detected in citation subgraph; pre-filter anomalies") from None
    return {(u, w) for u, ws in succ.items() for w in ws
            if not any(w in succ[v] for v in ws if v != w)}


# --- main path step 3: similarity weighting ----------------------------------------


def weight_edges(trimmed_edges, full: ProjectedGraph) -> ProjectedGraph:
    """The surviving edges, weighted by co-citation and bibliographic
    coupling, as a directed graph on their endpoints.

    cocite(u, v) counts papers citing both endpoints in the full citation
    graph; jaccard(u, v) compares in-corpus reference sets with the pair
    itself excluded (u citing v is the link being weighted, not shared
    background). The edge weight is the mean of the normalized co-citation
    count and raw Jaccard. Co-citation counts are min-max normalized over
    the surviving edge set (all-equal counts map to 0), which keeps weights
    in [0, 1].
    """
    edges = sorted(set(trimmed_edges))
    cocites, jaccards = [], []
    pos, succ, pred = full.pos, full.succ, full.pred
    for u, v in edges:
        i, j = pos[u], pos[v]
        cocites.append(len(set(pred[i]).intersection(pred[j])))
        refs_u = set(succ[i]) - {j}
        refs_v = set(succ[j]) - {i}
        union = refs_u | refs_v
        jaccards.append(len(refs_u & refs_v) / len(union) if union else 0.0)
    lo, hi = min(cocites, default=0), max(cocites, default=0)
    out_edges = {}
    for pair, c, jac in zip(edges, cocites, jaccards):
        c_norm = (c - lo) / (hi - lo) if hi > lo else 0.0
        out_edges[pair] = {"weight": (c_norm + jac) / 2.0, "cocite": c, "jaccard": jac}
    nodes = {n: {} for n in sorted({n for pair in edges for n in pair})}
    return ProjectedGraph(directed=True, nodes=nodes, edges=out_edges)


def main_path_backbone(cit: ProjectedGraph, k: int, decay: float = 0.2,
                       damping: float = 0.85, tol: float = 1e-10,
                       max_iter: int = 500) -> ProjectedGraph:
    """Rank papers, keep the top k, trim one-hop redundancy in their induced
    citation subgraph and weight the surviving links. Every top-ranked
    paper, isolated or not, is a node with its score, year and citations."""
    if k < 2:
        raise ValueError("k must be at least 2")
    scores = rank_essential(cit, decay=decay, damping=damping, tol=tol, max_iter=max_iter)
    top = sorted(scores, key=lambda pid: (-scores[pid], pid))[:k]
    top_set = set(top)
    induced = {
        (u, v) for (u, v), attrs in cit.edges.items()
        if u in top_set and v in top_set
        and not attrs.get("flags", frozenset()) & {FLAG_TEMPORAL_ANOMALY, FLAG_CYCLE}
    }
    nodes = {pid: {"score": scores[pid], "year": cit.nodes[pid]["year"],
                   "citations": cit.in_degree(pid)} for pid in top}
    return ProjectedGraph(directed=True, nodes=nodes,
                          edges=weight_edges(trim_network(top, induced), cit).edges)
