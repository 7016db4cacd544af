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
from .stats import YearSeries
from .textutil import TextIndex


# --- growth ----------------------------------------------------------------------


def densification_fit(n_t: list[int], e_t: list[int]) -> PowerLawFit:
    """Densification law e(t) ~ n(t)^alpha over yearly node and edge counts;
    years with no node or no edge are left out."""
    pairs = [(n, e) for n, e in zip(n_t, e_t) if n > 0 and e > 0]
    return fit_power_law_ls([p[0] for p in pairs], [p[1] for p in pairs])


def in_degree_samples(cit: ProjectedGraph) -> list[int]:
    """In-network citation counts (in-degrees), sorted ascending."""
    return sorted(map(len, cit.pred))


# --- preferential attachment -------------------------------------------------------


def preferential_attachment_curve(
    snapshots: list[ProjectedGraph],
) -> tuple[list[tuple[float, float]], PowerLawFit | None]:
    """Mean citation gain per prior-citation bucket, plus a power-law fit.

    For each consecutive snapshot pair, papers are bucketed by their
    in-network citation count k >= 1 (log2 bins against the heavy tail) and
    the average gain over the next snapshot is recorded. The fit runs over
    bucket means with positive gain and needs at least 3 such buckets.
    """
    if len(snapshots) < 2:
        raise ValueError("need at least 2 snapshots")
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
    return YearSeries(years, [sum(by_year[y]) / len(by_year[y]) for y in years])


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


def rank_essential(cit: ProjectedGraph, decay: float = 0.2, damping: float = 0.85,
                   tol: float = 1e-10, max_iter: int = 500) -> dict[str, float]:
    """Paper importance via mutual reinforcement between papers, authors and
    venues, read from the year, authors and venue of each paper node of the
    citation projection ``cit``.

    Each iteration:
      paper  p(u) = damping * (citations(u) + mean-author(u) + venue(u)) / 3
                    + (1 - damping)/|P|
      citations(u) = sum over citers c of p(c)/outdeg(c) * exp(-decay*(t_now - t_c))
      author a = mean of its papers' scores; venue v = mean of its papers'.

    All three vectors are renormalized to sum 1 every iteration; iteration
    stops when the maximum absolute change of any of them falls below
    ``tol``. Returns the paper scores.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    papers = cit.names
    if not papers:
        return {}
    years = np.array([cit.nodes[pid]["year"] for pid in papers], dtype=float)
    t_now = years.max()

    authors = sorted({a for pid in papers for a in cit.nodes[pid]["authors"]})
    a_idx = {a: i for i, a in enumerate(authors)}
    venues = sorted({cit.nodes[pid]["venue"] for pid in papers if cit.nodes[pid]["venue"]})
    v_idx = {v: i for i, v in enumerate(venues)}

    pa_papers, pa_authors = [], []
    for i, pid in enumerate(papers):
        for a in cit.nodes[pid]["authors"]:
            pa_papers.append(i)
            pa_authors.append(a_idx[a])
    pa_papers = np.array(pa_papers, dtype=int)
    pa_authors = np.array(pa_authors, dtype=int)
    paper_author_n = np.bincount(pa_papers, minlength=len(papers)).astype(float)
    author_paper_n = np.bincount(pa_authors, minlength=len(authors)).astype(float)

    pv_papers, pv_venues = [], []
    for i, pid in enumerate(papers):
        v = cit.nodes[pid]["venue"]
        if v:
            pv_papers.append(i)
            pv_venues.append(v_idx[v])
    pv_papers = np.array(pv_papers, dtype=int)
    pv_venues = np.array(pv_venues, dtype=int)
    venue_paper_n = np.bincount(pv_venues, minlength=len(venues)).astype(float)

    # every citation edge, in (citer, cited) order
    out_deg = np.array([len(refs) for refs in cit.succ])
    src_idx = np.repeat(np.arange(len(papers)), out_deg)
    dst_idx = np.array([j for refs in cit.succ for j in refs], dtype=int)
    edge_factor = np.exp(-decay * (t_now - years[src_idx])) / out_deg[src_idx]

    n_p, n_a, n_v = len(papers), len(authors), len(venues)
    p = np.full(n_p, 1.0 / n_p)
    a = np.full(n_a, 1.0 / n_a) if n_a else np.zeros(0)
    v = np.full(n_v, 1.0 / n_v) if n_v else np.zeros(0)

    for _ in range(max_iter):
        cit_term = np.zeros(n_p)
        if len(src_idx):
            np.add.at(cit_term, dst_idx, p[src_idx] * edge_factor)
        author_term = np.zeros(n_p)
        if n_a:
            np.add.at(author_term, pa_papers, a[pa_authors])
            author_term /= np.maximum(paper_author_n, 1.0)
        venue_term = np.zeros(n_p)
        if n_v:
            np.add.at(venue_term, pv_papers, v[pv_venues])
        p_new = damping * (cit_term + author_term + venue_term) / 3.0 \
            + (1.0 - damping) / n_p
        p_new /= p_new.sum()

        if n_a:
            a_new = np.zeros(n_a)
            np.add.at(a_new, pa_authors, p_new[pa_papers])
            a_new /= author_paper_n
            a_new /= a_new.sum()
        else:
            a_new = a
        if n_v:
            v_new = np.zeros(n_v)
            np.add.at(v_new, pv_venues, p_new[pv_papers])
            v_new /= venue_paper_n
            v_new /= v_new.sum()
        else:
            v_new = v

        residual = float(np.max(np.abs(p_new - p)))
        if n_a:
            residual = max(residual, float(np.max(np.abs(a_new - a))))
        if n_v:
            residual = max(residual, float(np.max(np.abs(v_new - v))))
        p, a, v = p_new, a_new, v_new
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
    cocites = {}
    jaccards = {}
    pos, succ, pred = full.pos, full.succ, full.pred
    for u, v in edges:
        i, j = pos[u], pos[v]
        cocites[(u, v)] = len(set(pred[i]).intersection(pred[j]))
        refs_u = set(succ[i]) - {j}
        refs_v = set(succ[j]) - {i}
        union = refs_u | refs_v
        jaccards[(u, v)] = len(refs_u & refs_v) / len(union) if union else 0.0
    counts = np.array([cocites[pair] for pair in edges], dtype=float)
    if len(counts) == 0:
        normalized = counts
    else:
        span = counts.max() - counts.min()
        normalized = (counts - counts.min()) / span if span else np.zeros_like(counts)
    out_edges = {}
    for pair, c_norm in zip(edges, normalized):
        out_edges[pair] = {
            "weight": (float(c_norm) + jaccards[pair]) / 2.0,
            "cocite": cocites[pair],
            "jaccard": jaccards[pair],
        }
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
