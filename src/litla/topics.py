"""Topic pipeline: density clustering over embeddings, class-based TF-IDF
labels, hierarchical topic tree, boolean-query multi-labeling, temporal
trends, emerging-topic ranking and the thresholded theme-linkage matrix.
"""

from __future__ import annotations

import codecs
import math
import re
import warnings
from collections import Counter, deque
from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations, filterfalse
from operator import or_

import numpy as np

from .stats import YearSeries, ordered_sum
from .textutil import STOPWORDS, TextIndex, tokenize

NOISE = -1

# Size of one block of DBSCAN's pair matrices (rows x n float64), and of
# one chunk of the band's gathered rows. Measured at 600 x 384, 1,500 x 5 and
# 5,211 x 384: blocks of 256 KiB to 1 MiB ran alike, 4 MiB and more slower.
_DBSCAN_BLOCK_BYTES = 2 ** 18


@dataclass
class TopicAssignment:
    labels: dict[str, int]             # paper id -> topic id, -1 = outlier
    topic_sizes: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.topic_sizes:
            sizes = Counter(l for l in self.labels.values() if l != NOISE)
            self.topic_sizes = dict(sorted(sizes.items()))


@dataclass
class TopicSummary:
    topic: int
    top_terms: list[tuple[str, float]]


@dataclass
class LinkageMatrix:
    themes: list[str]
    weights: list[list[float]]

    def row_shares(self) -> list[list[float]]:
        shares = []
        for row in self.weights:
            total = ordered_sum(row)
            shares.append([w / total if total else 0.0 for w in row])
        return shares


# --- density clustering --------------------------------------------------------


def dbscan_labels(points: np.ndarray, eps: float, min_pts: int) -> list[int]:
    """Classical DBSCAN with Euclidean distance.

    A point's eps-neighborhood includes the point itself; core points have
    at least ``min_pts`` neighbors. A border point (not core, but within
    eps of a core point) joins, of its core neighbours' clusters, the one
    whose lowest core index is smallest: clusters grow from their core
    points in index order, and the first to reach a border point keeps it.
    Cluster ids are assigned 0..k-1 in order of descending cluster size
    (size ties broken by the smallest member index), noise is -1.
    Deterministic for a fixed input.

    A pair (a, b) is within eps when ``np.sum((a - b) ** 2) <= eps * eps``,
    the reference expression R <= E. Each row block first computes
    G = (|a|² + |b|²) - 2 a·b with one product and no BLAS call, and only the
    pairs with |G - E| <= M, where

        M = c S + t,  c = 4 (d + 4) u,  u = 2⁻⁵³,  S = fl(|a|² + |b|²),

    are decided by R itself, so R is the only decider near the threshold.
    Derivation (Higham 2002, §3.1; γₖ = ku / (1 - ku); N = |a|² + |b|²;
    D = |a - b|² <= 2N):

    - the product: a dot product of d terms, summed in any order, with or
      without FMA, is off by at most γ_d Σ|a_k b_k| <= γ_d N / 2, and each
      squared norm by γ_d of itself. With the rounding of S, of S - 2a·b
      and D <= 2N: |G - D| <= 2γ_{d+2} N.
    - the reference: d squares of rounded differences, summed in any order,
      are all >= 0, so |R - D| <= γ_{d+2} D <= 2γ_{d+2} N.
    - the margin: M is computed as fl(fl(cS) + t) and compared with
      fl(G - E). S >= N (1 - γ_{d+1}), and the factor (d + 4) / (d + 2) of
      c over the needed 4γ_{d+2} covers the error of S and these three
      roundings for any d < 2²⁰. The absolute term t = 8 (d + 4) 2⁻¹⁰⁷⁵
      covers underflow: at most 2⁻¹⁰⁷⁵ per rounded product, 5d of them
      with a·b counted twice.

    So |G - R| <= 4γ_{d+2} N <= M / (1 + u): fl(G - E) < -M gives R <= E
    and fl(G - E) > M gives R > E. A NaN or an overflow falls in the band.
    Points far from the origin widen the band (M grows with N, not with
    D): slower, never different.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if min_pts < 2:
        raise ValueError("min_pts must be at least 2")
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if n == 0:
        return []
    e2 = eps * eps
    d = pts.shape[1]
    c, t = 4 * (d + 4) * 2.0 ** -53, (d + 4) * 2.0 ** -1072  # M = c S + t, see above
    squares = np.einsum("ik,ik->i", pts, pts)
    # Rows are compared with the later points a block at a time, so memory
    # stays O(block * n) and each pair is decided once. The band's pairs
    # are gathered a block's worth at a time.
    rows = max(1, _DBSCAN_BLOCK_BYTES // (8 * n))
    pairs = max(1, _DBSCAN_BLOCK_BYTES // (8 * max(d, 1)))
    upper = []  # upper[i]: the neighbours j > i, ascending
    n_lower = np.zeros(n, dtype=np.int64)
    for s in range(0, n, rows):
        a, b = pts[s:s + rows], pts[s:]
        margin = squares[s:s + rows, None] + squares[None, s:]
        gap = np.einsum("ik,jk->ij", a, b)
        gap *= -2.0
        gap += margin
        gap -= e2
        margin *= c
        margin += t
        within = gap < -margin
        np.abs(gap, out=gap)
        bi, bj = np.nonzero(np.triu(~(gap > margin), 1))
        for k in range(0, len(bi), pairs):
            i, j = bi[k:k + pairs], bj[k:k + pairs]
            within[i, j] = np.sum((a[i] - b[j]) ** 2, axis=-1) <= e2
        within = np.triu(within, 1)
        # one int32 array per block, split into per-row views (an int32 copy
        # per row interleaves small allocations and raises the peak RSS)
        cols = (np.nonzero(within)[1] + s).astype(np.int32)
        upper.extend(np.split(cols, np.cumsum(within.sum(axis=1))[:-1]))
        n_lower += np.bincount(cols, minlength=n)
    # the mirrored neighbours i < j of each j, CSR-style, ascending because
    # the sources are visited in ascending order
    start = np.concatenate(([0], np.cumsum(n_lower)))
    lower = np.empty(start[-1], dtype=np.int32)
    fill = start[:-1].copy()
    for i, nb in enumerate(upper):
        lower[fill[nb]] = i
        fill[nb] += 1
    is_core = n_lower + 1 + np.array([len(nb) for nb in upper]) >= min_pts  # + 1: the point itself

    # NOISE marks a point no cluster has reached yet; one never reached stays noise
    reached = np.full(n, NOISE)
    cluster = 0
    for seed in np.flatnonzero(is_core):
        if reached[seed] != NOISE:
            continue
        reached[seed] = cluster
        queue = deque([seed])
        while queue:
            i = queue.popleft()
            if not is_core[i]:
                continue  # border points join but never expand
            # lower then upper is the ascending order of the whole neighbourhood
            for nb in (lower[start[i]:start[i + 1]], upper[i]):
                new = nb[reached[nb] == NOISE]
                reached[new] = cluster
                queue.extend(new)
        cluster += 1
    labels = reached.tolist()

    sizes = Counter(l for l in labels if l != NOISE)
    first_member = {}
    for i, l in enumerate(labels):
        if l != NOISE and l not in first_member:
            first_member[l] = i
    order = sorted(sizes, key=lambda l: (-sizes[l], first_member[l]))
    remap = {old: new for new, old in enumerate(order)}
    return [remap[l] if l != NOISE else NOISE for l in labels]


def cluster_embeddings(embeddings, eps: float, min_pts: int,
                       ids: list[str] | None = None) -> TopicAssignment:
    """Density clustering of paper embeddings into size-ranked topics."""
    emb = np.asarray(embeddings, dtype=float)
    if emb.size == 0:
        return TopicAssignment(labels={}, topic_sizes={})
    if emb.ndim != 2:
        raise ValueError("embeddings must be a 2-D matrix")
    labels = dbscan_labels(emb, eps, min_pts)
    if ids is None:
        ids = [str(i) for i in range(len(labels))]
    if len(ids) != len(labels):
        raise ValueError("ids and embeddings length mismatch")
    return TopicAssignment(labels=dict(zip(ids, labels)))


# --- class-based TF-IDF ---------------------------------------------------------


def ctfidf(docs_by_topic: dict[int, list[str]], top_n: int = 10) -> list[TopicSummary]:
    """Class-based TF-IDF summaries.

    score(t, c) = tf(t, c) * log(1 + A / f(t)) with tf the within-class
    frequency normalized by the class token total, f(t) the term's total
    frequency across classes and A the average tokens per class.
    """
    if top_n < 0:
        raise ValueError(f"top_n must be non-negative, got {top_n}")
    if not docs_by_topic:
        raise ValueError("at least one topic required")
    class_counts = {c: Counter(toks) for c, toks in docs_by_topic.items()}
    class_totals = {c: sum(cnt.values()) for c, cnt in class_counts.items()}
    global_counts: Counter[str] = Counter()
    for cnt in class_counts.values():
        global_counts.update(cnt)
    avg_tokens = sum(class_totals.values()) / len(docs_by_topic)

    summaries = []
    for c in sorted(docs_by_topic):
        total = class_totals[c]
        if total == 0:
            summaries.append(TopicSummary(topic=c, top_terms=[]))
            continue
        scored = []
        for term, count in class_counts[c].items():
            tf = count / total
            score = tf * math.log(1.0 + avg_tokens / global_counts[term])
            scored.append((term, score))
        scored.sort(key=lambda ts: (-ts[1], ts[0]))
        summaries.append(TopicSummary(topic=c, top_terms=scored[:top_n]))
    return summaries


def topic_token_pools(assignment: TopicAssignment, text: TextIndex) -> dict[int, list[str]]:
    """Concatenated stopword-filtered title+abstract tokens per topic, in
    paper id order (outliers dropped)."""
    pools: dict[int, list[str]] = {t: [] for t in assignment.topic_sizes}
    for pid, label in sorted(assignment.labels.items()):
        if label == NOISE:
            continue
        pools[label].extend(filterfalse(STOPWORDS.__contains__, text.streams[pid]))
    return pools


# --- hierarchical topic tree ----------------------------------------------------


def hierarchical_topics(centroids) -> list[tuple[int, int, float, int]]:
    """Agglomerative average-linkage merge list over topic centroids.

    Returns scipy-style rows (left, right, height, size): leaves are
    0..n-1, merge i creates cluster n+i. Distances are Euclidean and the
    average-linkage update follows Lance-Williams, so merge heights are
    non-decreasing. Fewer than 2 centroids yield an empty merge list.
    """
    pts = np.asarray(centroids, dtype=float)
    n = len(pts)
    dist = {}
    for i in range(n):
        for j in range(i + 1, n):
            dist[(i, j)] = float(np.linalg.norm(pts[i] - pts[j]))
    sizes = {i: 1 for i in range(n)}
    active = set(range(n))
    merges = []
    next_id = n
    while len(active) > 1:
        (i, j) = min(((a, b) for a in active for b in active if a < b),
                     key=lambda p: (dist[p], p))
        h = dist[(i, j)]
        size = sizes[i] + sizes[j]
        merges.append((i, j, h, size))
        active -= {i, j}
        for k in sorted(active):
            # average linkage: d(k, i+j) = (n_i d(k,i) + n_j d(k,j)) / (n_i + n_j)
            dki = dist[tuple(sorted((k, i)))]
            dkj = dist[tuple(sorted((k, j)))]
            dist[(k, next_id)] = (sizes[i] * dki + sizes[j] * dkj) / size
        sizes[next_id] = size
        active.add(next_id)
        next_id += 1
    return merges


def dendrogram_json(merges: list[tuple[int, int, float, int]],
                    leaf_names: list[str]) -> dict:
    """Nested {name|children, height} tree from a merge list: with no merge
    the first leaf, and with no leaf ``{"name": None, "height": 0.0}``."""
    n = len(leaf_names)
    nodes: dict[int, dict] = {
        i: {"name": leaf_names[i], "height": 0.0} for i in range(n)
    }
    for idx, (a, b, h, _size) in enumerate(merges):
        nodes[n + idx] = {"height": h, "children": [nodes[a], nodes[b]]}
    return nodes[n + len(merges) - 1] if merges else nodes.get(0, {"name": None, "height": 0.0})


# --- boolean keyword queries ----------------------------------------------------


class QueryError(ValueError):
    pass


_QUERY_TOKEN_RE = re.compile(r'\s*(?:(\()|(\))|"([^"]*)"|(AND|OR|NOT)(?=[\s()"]|$)|([^\s()"]+))')


def _lex_query(expr: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(expr):
        m = _QUERY_TOKEN_RE.match(expr, pos)
        if not m or m.end() == pos:
            if expr[pos:].strip():
                raise QueryError(f"cannot tokenize query at {expr[pos:]!r}")
            break
        lparen, rparen, phrase, op, word = m.groups()
        if lparen:
            tokens.append(("LPAREN", "("))
        elif rparen:
            tokens.append(("RPAREN", ")"))
        elif phrase is not None:
            tokens.append(("PHRASE", phrase))
        elif op:
            tokens.append((op, op))
        else:
            tokens.append(("WORD", word))
        pos = m.end()
    return tokens


def query_mask(expr: str, text: TextIndex) -> int:
    """The mask of the indexed papers that match the boolean expression
    ``expr``, evaluated as it parses by recursive descent over:
    or := and (OR and)*; and := unary (AND unary)*;
    unary := NOT unary | '(' or ')' | phrase | word.
    NOT complements within the indexed papers; an empty phrase matches none."""
    tokens = _lex_query(expr)
    if not tokens:
        raise QueryError("empty query")
    pos = 0

    def peek():
        return tokens[pos][0] if pos < len(tokens) else None

    def take(kind) -> str:
        nonlocal pos
        if peek() != kind:
            raise QueryError(f"expected {kind}, found {peek()}")
        pos += 1
        return tokens[pos - 1][1]

    def or_mask() -> int:
        mask = and_mask()
        while peek() == "OR":
            take("OR")
            mask |= and_mask()
        return mask

    def and_mask() -> int:
        mask = unary_mask()
        while peek() == "AND":
            take("AND")
            mask &= unary_mask()
        return mask

    def unary_mask() -> int:
        kind = peek()
        if kind == "NOT":
            take("NOT")
            return text.everything & ~unary_mask()
        if kind == "LPAREN":
            take("LPAREN")
            mask = or_mask()
            take("RPAREN")
            return mask
        if kind in ("PHRASE", "WORD"):
            return text.matches(tokenize(take(kind)))
        raise QueryError(f"unexpected token {kind}")

    mask = or_mask()
    if pos != len(tokens):
        raise QueryError(f"trailing tokens after expression: {tokens[pos:]}")
    return mask


def assign_by_query(queries: dict[str, str], text: TextIndex) -> dict[str, set[str]]:
    """Multi-label assignment: paper -> set of topic names whose boolean
    expression (see :func:`query_mask`) matches its title+abstract token
    stream. Every indexed paper has an entry, empty when no query matches. A
    malformed expression raises :class:`QueryError` naming its topic."""
    result: dict[str, set[str]] = {pid: set() for pid in text.ids}
    for name, expr in queries.items():
        try:
            mask = query_mask(expr, text)
        except QueryError as exc:
            raise QueryError(f"query {name!r}: {exc}") from exc
        for pid in text.papers(mask):
            result[pid].add(name)
    return result


def load_queries(path) -> dict[str, str]:
    """Read one `topic_name: expression` per line; # starts a comment line."""
    queries: dict[str, str] = {}
    with open(path, "rb") as fh:
        # bytes.splitlines breaks lines where text mode's universal newlines do
        lines = fh.read().removeprefix(codecs.BOM_UTF8).splitlines()
    for lineno, raw in enumerate(lines, start=1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise QueryError(f"{path}:{lineno}: invalid UTF-8: {exc}") from None
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise QueryError(f"{path}:{lineno}: expected 'name: expression'")
        name, expr = line.split(":", 1)
        name = name.strip()
        if not name or name in queries:
            raise QueryError(f"{path}:{lineno}: missing or duplicate topic name")
        queries[name] = expr.strip()
    return queries


# --- temporal trends ------------------------------------------------------------


def topic_trend(labels: dict[str, set], years: dict[str, int]
                ) -> dict[str, dict[object, YearSeries]]:
    """Per-topic yearly series of paper -> topic-set ``labels``, as
    ``{"count": ..., "share": ...}``.

    count: papers per topic per year (a paper in several topics counts once
    in each). share: topic count divided by the number of labeled papers
    that year. A paper with an empty set, or without a year, never counts.
    """
    if not years:
        return {"count": {}, "share": {}}
    span = range(min(years.values()), max(years.values()) + 1)
    topics = sorted({t for s in labels.values() for t in s}, key=str)
    per_topic: dict[object, Counter[int]] = {t: Counter() for t in topics}
    labeled_per_year: Counter[int] = Counter()
    for pid, topic_set in labels.items():
        if not topic_set or pid not in years:
            continue
        y = years[pid]
        labeled_per_year[y] += 1
        for t in topic_set:
            per_topic[t][y] += 1
    return {
        "count": {t: YearSeries(list(span), [float(per_topic[t][y]) for y in span])
                  for t in topics},
        "share": {t: YearSeries(list(span), [per_topic[t][y] / labeled_per_year[y]
                                             if labeled_per_year[y] else 0.0 for y in span])
                  for t in topics},
    }


def emerging_topics(trends: dict[object, YearSeries], since_year: int, k: int
                    ) -> list[tuple[object, float]]:
    """Topics ranked by normalized growth: least-squares slope of yearly
    counts over [since_year, latest] divided by the window mean. Ties are
    broken by the larger latest-year count; all-zero topics are excluded."""
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    latest = max((s.years[-1] for s in trends.values() if s.years), default=None)
    if latest is None or latest < since_year:
        return []
    ranked = []
    for topic in sorted(trends, key=str):
        series = trends[topic]
        window = [(y, v) for y, v in zip(series.years, series.values)
                  if since_year <= y <= latest]
        if not window or all(v == 0 for _y, v in window):
            continue
        ys = np.array([y for y, _ in window], dtype=float)
        vs = np.array([v for _, v in window], dtype=float)
        if len(window) > 1:
            # closed-form OLS slope; exact 0 for constant series
            yc = ys - ys.mean()
            slope = float(np.dot(yc, vs - vs.mean()) / np.dot(yc, yc))
        else:
            slope = 0.0
        rate = slope / float(vs.mean())
        ranked.append((topic, rate, window[-1][1]))
    ranked.sort(key=lambda r: (-r[1], -r[2], str(r[0])))
    return [(topic, rate) for topic, rate, _latest in ranked[:k]]


# --- theme linkage ---------------------------------------------------------------


def topic_linkage(theme_keywords: dict[str, list[str]], text: TextIndex,
                  epsilon: float) -> LinkageMatrix:
    """Theme co-mention matrix over the papers' abstracts with two-sided
    epsilon thresholding.

    weight(i, j) counts papers whose abstract matches at least one keyword of
    theme i and one of theme j; an entry is zeroed only when its share falls
    below epsilon in both row normalizations. The result stays symmetric
    with a zero diagonal.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    themes = []
    papers = []  # per theme: the mask of the papers whose abstract matches one of its keywords
    for name, kws in theme_keywords.items():
        phrases = [tokenize(k) for k in kws if k.strip()]
        phrases = [p for p in phrases if p]
        if not phrases:
            warnings.warn(f"theme {name!r} has no usable keywords; dropped")
            continue
        themes.append(name)
        papers.append(reduce(or_, map(text.abstract_matches, phrases)))
    k = len(themes)
    weights = np.zeros((k, k))
    for a, b in combinations(range(k), 2):
        weights[a, b] = weights[b, a] = (papers[a] & papers[b]).bit_count()
    # weights is symmetric, so shares.T[i, j] is (i, j)'s share of row j
    shares = np.divide(weights, weights.sum(axis=1)[:, None], out=np.zeros_like(weights),
                       where=weights != 0)
    out = np.where((shares >= epsilon) | (shares.T >= epsilon), weights, 0.0)
    return LinkageMatrix(themes=themes, weights=out.tolist())
