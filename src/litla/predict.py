"""Keyword link prediction: temporal pair sampling, structural features,
model training glue and rank-based evaluation."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import chain, combinations, islice

import numpy as np

from .gbdt import GbdtModel, train_gbdt
from .graph import ProjectedGraph
from .stats import ordered_sum

@dataclass
class PairSample:
    u: str
    v: str
    features: list[float]
    label: int | None = None

    def __post_init__(self):
        if self.u >= self.v:
            raise ValueError("pair must be canonically ordered (u < v)")


class DegenerateYearError(ValueError):
    pass


def canonical_pair(a: str, b: str) -> tuple[str, str]:
    if a == b:
        raise ValueError("pair endpoints must differ")
    return (a, b) if a < b else (b, a)


def pair_features(snapshots: dict[int, ProjectedGraph], pair: tuple[str, str],
                  year: int) -> list[float]:
    """Fixed-order feature vector for a keyword pair at ``year``.

    Static features come from the snapshot at ``year``; delta features
    compare against ``year - 1`` and are 0 when that snapshot is missing.
    Common neighbors have degree >= 2, so the Adamic-Adar 1/ln(deg) terms
    are always finite.
    """
    u, v = canonical_pair(*pair)
    g = snapshots[year]
    if u not in g.nodes:
        raise KeyError(f"unknown node {u!r} at {year}")
    if v not in g.nodes:
        raise KeyError(f"unknown node {v!r} at {year}")
    nu = g.succ[g.pos[u]]
    nv = g.succ[g.pos[v]]
    du, dv = len(nu), len(nv)
    # index order is name order, which keeps the float sum reproducible
    common = sorted(set(nu).intersection(nv))
    union = du + dv - len(common)
    jaccard = len(common) / union if union else 0.0
    aa = ordered_sum(1.0 / math.log(len(g.succ[w])) for w in common)

    prev = snapshots.get(year - 1)
    if prev is None:
        du_delta = dv_delta = cn_delta = 0.0
    else:
        pu = prev.succ[prev.pos[u]] if u in prev.pos else []
        pv = prev.succ[prev.pos[v]] if v in prev.pos else []
        du_delta = float(du - len(pu))
        dv_delta = float(dv - len(pv))
        cn_delta = float(len(common) - len(set(pu).intersection(pv)))
    return [float(du), float(dv), float(du + dv), float(du * dv),
            float(len(common)), jaccard, aa, du_delta, dv_delta, cn_delta]


def new_edges(prev: ProjectedGraph, curr: ProjectedGraph) -> list[tuple[str, str]]:
    """Pairs unconnected at the previous snapshot whose edge exists at the
    current one, restricted to endpoints already present earlier."""
    out = []
    for (u, v) in curr.edges:
        if u in prev.nodes and v in prev.nodes and not prev.has_edge(u, v):
            out.append((u, v))
    return sorted(out)


def sample_negative_pairs(prev: ProjectedGraph, curr: ProjectedGraph, count: int,
                          seed: int) -> list[tuple[str, str]]:
    """Uniform sample of pairs unconnected at both snapshots (endpoints
    present at the earlier one), reproducible for a fixed seed."""
    nodes = prev.names
    n = len(nodes)
    max_pairs = n * (n - 1) // 2
    rng = random.Random(seed)
    chosen: set[tuple[str, str]] = set()
    attempts = 0
    limit = max(100 * count, 1000)
    while len(chosen) < count and attempts < limit:
        attempts += 1
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        pair = canonical_pair(nodes[i], nodes[j])
        if pair in chosen or prev.has_edge(*pair) or curr.has_edge(*pair):
            continue
        chosen.add(pair)
    if len(chosen) < count and max_pairs <= 2_000_000:
        # small universes: fall back to exact enumeration
        fresh = (pair for pair in combinations(nodes, 2) if pair not in chosen
                 and not prev.has_edge(*pair) and not curr.has_edge(*pair))
        chosen.update(islice(fresh, count - len(chosen)))
    return sorted(chosen)


def build_training_set(snapshots: dict[int, ProjectedGraph], year: int,
                       neg_ratio: int = 5, seed: int = 0) -> list[PairSample]:
    """Labeled pairs for the transition (year-1) -> year.

    Positives are the new edges at ``year``; negatives are uniformly
    sampled pairs unconnected at both snapshots, ``neg_ratio`` per positive.
    Features are computed at ``year - 1`` (and ``year - 2`` deltas), never
    at the label year.
    """
    if year - 1 not in snapshots or year not in snapshots:
        raise ValueError(f"need snapshots at {year - 1} and {year}")
    prev, curr = snapshots[year - 1], snapshots[year]
    positives = new_edges(prev, curr)
    if not positives:
        raise DegenerateYearError(f"degenerate year {year}: no new edges")
    negatives = sample_negative_pairs(prev, curr, neg_ratio * len(positives), seed)
    samples = []
    for pair, label in [(p, 1) for p in positives] + [(p, 0) for p in negatives]:
        feats = pair_features(snapshots, pair, year - 1)
        samples.append(PairSample(u=pair[0], v=pair[1], features=feats, label=label))
    return samples


def samples_to_matrices(samples: list[PairSample]) -> tuple[np.ndarray, np.ndarray]:
    X = np.array([s.features for s in samples], dtype=float)
    y = np.array([s.label for s in samples], dtype=float)
    return X, y


def train_link_model(samples: list[PairSample], n_trees: int = 100,
                     max_depth: int = 3, learning_rate: float = 0.1,
                     min_leaf: int = 1) -> GbdtModel:
    X, y = samples_to_matrices(samples)
    return train_gbdt(X, y, n_trees=n_trees, max_depth=max_depth,
                      learning_rate=learning_rate, min_leaf=min_leaf)


def predict_links(model: GbdtModel, snapshots: dict[int, ProjectedGraph], year: int,
                  top_n: int | None = None) -> list[tuple[tuple[str, str], float]]:
    """Rank every pair unconnected at ``year`` by connection probability,
    descending; ties break by canonical pair order. Nodes without a
    neighbour are left out: degree-0 keywords carry no structural signal."""
    if top_n is not None and top_n < 0:
        raise ValueError(f"top_n must be non-negative, got {top_n}")
    g = snapshots[year]
    nodes = [u for u, row in zip(g.names, g.succ) if row]
    pairs = [(u, v) for u, v in combinations(nodes, 2) if not g.has_edge(u, v)]
    X = np.fromiter(chain.from_iterable(pair_features(snapshots, p, year) for p in pairs),
                    dtype=float, count=10 * len(pairs)).reshape(len(pairs), 10)
    probs = model.predict_proba(X)
    ranked = sorted(zip(pairs, probs), key=lambda r: (-r[1], r[0]))
    if top_n is not None:
        ranked = ranked[:top_n]
    return [(pair, float(p)) for pair, p in ranked]


def evaluate_auc(scores, labels) -> float:
    """ROC AUC via the Mann-Whitney rank statistic with tie averaging."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if len(scores) != len(labels):
        raise ValueError("scores and labels must align")
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC requires both classes")
    order = np.argsort(scores, kind="stable")
    s = scores[order]
    # each run of equal sorted scores; NaN equals nothing, so each NaN is a run
    first = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    ties = np.diff(np.r_[first, len(s)])
    ranks = np.empty(len(scores))
    ranks[order] = np.repeat((2 * first + ties - 1) / 2.0 + 1.0, ties)  # average 1-based rank
    rank_sum_pos = float(ranks[labels == 1].sum())
    u_stat = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u_stat / (n_pos * n_neg)
