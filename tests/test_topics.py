import codecs
import csv
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from collections import Counter, deque
from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import or_

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from litla import topics
from litla.cli import main
from litla.stats import YearSeries
from litla.textutil import TextIndex, contains_phrase, tokenize
from litla.topics import (
    NOISE,
    QueryError,
    _lex_query,
    assign_by_query,
    cluster_embeddings,
    ctfidf,
    dbscan_labels,
    dendrogram_json,
    emerging_topics,
    hierarchical_topics,
    load_queries,
    topic_linkage,
    topic_trend,
)

from conftest import text_index


def linkage_threshold_reference(weights: np.ndarray, epsilon: float) -> np.ndarray:
    """The thresholding of :func:`topic_linkage` as a loop over every
    off-diagonal entry: keep a nonzero weight when its share of either row
    reaches ``epsilon``."""
    k = len(weights)
    row_sums = weights.sum(axis=1)
    keep = np.zeros_like(weights, dtype=bool)
    for i in range(k):
        for j in range(k):
            if i == j or weights[i, j] == 0:
                continue
            share_i = weights[i, j] / row_sums[i] if row_sums[i] else 0.0
            share_j = weights[i, j] / row_sums[j] if row_sums[j] else 0.0
            keep[i, j] = share_i >= epsilon or share_j >= epsilon
    return np.where(keep, weights, 0.0)


class _QueryOracle:
    """The query parser that built a tuple AST before any evaluation, kept as
    the reference for :func:`topics.query_mask`. Recursive descent over:
    or := and (OR and)*; and := unary (AND unary)*;
    unary := NOT unary | '(' or ')' | phrase | word."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self, kind):
        if self.peek() != kind:
            raise QueryError(f"expected {kind}, found {self.peek()}")
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self):
        node = self.parse_or()
        if self.pos != len(self.tokens):
            raise QueryError(f"trailing tokens after expression: {self.tokens[self.pos:]}")
        return node

    def parse_or(self):
        node = self.parse_and()
        while self.peek() == "OR":
            self.take("OR")
            node = ("or", node, self.parse_and())
        return node

    def parse_and(self):
        node = self.parse_unary()
        while self.peek() == "AND":
            self.take("AND")
            node = ("and", node, self.parse_unary())
        return node

    def parse_unary(self):
        kind = self.peek()
        if kind == "NOT":
            self.take("NOT")
            return ("not", self.parse_unary())
        if kind == "LPAREN":
            self.take("LPAREN")
            node = self.parse_or()
            self.take("RPAREN")
            return node
        if kind in ("PHRASE", "WORD"):
            return ("phrase", tokenize(self.take(kind)[1]))
        raise QueryError(f"unexpected token {kind}")


def parse_query_reference(expr: str):
    tokens = _lex_query(expr)
    if not tokens:
        raise QueryError("empty query")
    return _QueryOracle(tokens).parse()


def eval_query_reference(node, text) -> int:
    """The mask of the indexed papers that match ``node``; NOT complements
    within them."""
    op = node[0]
    if op == "phrase":
        return text.matches(node[1])
    if op == "and":
        return eval_query_reference(node[1], text) & eval_query_reference(node[2], text)
    if op == "or":
        return eval_query_reference(node[1], text) | eval_query_reference(node[2], text)
    return text.everything & ~eval_query_reference(node[1], text)


def labels_reference(queries: dict[str, str], text) -> dict[str, set[str]]:
    """``assign_by_query`` through the reference parser: every query is
    parsed before any is evaluated."""
    compiled = {}
    for name, expr in queries.items():
        try:
            compiled[name] = parse_query_reference(expr)
        except QueryError as exc:
            raise QueryError(f"query {name!r}: {exc}") from exc
    result: dict[str, set[str]] = {pid: set() for pid in text.ids}
    for name, node in compiled.items():
        for pid in text.papers(eval_query_reference(node, text)):
            result[pid].add(name)
    return result


def blob(rng, center, n, sigma=0.3):
    return [[rng.gauss(c, sigma) for c in center] for _ in range(n)]


class TestDbscan:
    def test_two_separated_blobs(self):
        import random
        rng = random.Random(1)
        pts = blob(rng, [0.0, 0.0], 20, 0.2) + blob(rng, [10.0, 0.0], 15, 0.2)
        labels = dbscan_labels(np.array(pts), eps=1.0, min_pts=3)
        assert NOISE not in labels
        assert set(labels[:20]) == {0} and set(labels[20:]) == {1}

    def test_identical_points_single_cluster(self):
        pts = np.zeros((6, 3))
        assert dbscan_labels(pts, eps=0.5, min_pts=2) == [0] * 6

    def test_isolated_point_is_noise(self):
        pts = np.array([[0.0, 0.0]])
        assert dbscan_labels(pts, eps=0.5, min_pts=2) == [NOISE]

    def test_labels_ranked_by_size(self):
        import random
        rng = random.Random(2)
        pts = blob(rng, [0, 0], 5, 0.1) + blob(rng, [50, 0], 12, 0.1)
        labels = dbscan_labels(np.array(pts), eps=1.0, min_pts=3)
        assert set(labels[5:]) == {0}  # larger blob gets id 0
        assert set(labels[:5]) == {1}

    def test_assignment_maps_ids(self):
        assignment = cluster_embeddings([[0.0], [0.1], [9.9]], eps=0.5, min_pts=2,
                                        ids=["a", "b", "c"])
        assert assignment.labels == {"a": 0, "b": 0, "c": NOISE}
        assert assignment.topic_sizes == {0: 2}

    def test_empty_input(self):
        assignment = cluster_embeddings([], eps=0.5, min_pts=2)
        assert assignment.labels == {} and assignment.topic_sizes == {}

    @given(st.integers(0, 10**6))
    def test_order_invariant_up_to_relabeling(self, seed):
        import random
        rng = random.Random(seed)
        pts = blob(rng, [0.0, 0.0], 10, 0.15) + blob(rng, [8.0, 8.0], 7, 0.15) \
            + [[100.0, -100.0]]
        perm = list(range(len(pts)))
        rng.shuffle(perm)
        base = dbscan_labels(np.array(pts), eps=1.0, min_pts=3)
        shuffled = dbscan_labels(np.array([pts[i] for i in perm]), eps=1.0, min_pts=3)
        def clusters(labels, index):
            out = {}
            for pos, lab in enumerate(labels):
                if lab != NOISE:
                    out.setdefault(lab, set()).add(index[pos])
            return {frozenset(v) for v in out.values()}
        assert clusters(base, list(range(len(pts)))) == clusters(shuffled, perm)


def dbscan_one_shot(points, eps, min_pts):
    """DBSCAN over one n*n*d difference tensor, written out independently of
    ``dbscan_labels``: same neighbourhoods, expansion and size ranking."""
    pts = np.asarray(points, dtype=float)
    within = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1) <= eps * eps
    n = len(pts)
    core = within.sum(axis=1) >= min_pts
    labels = [None] * n
    k = 0
    for seed in range(n):
        if labels[seed] is not None or not core[seed]:
            continue
        labels[seed] = k
        queue = deque([seed])
        while queue:
            i = queue.popleft()
            if core[i]:
                for j in np.flatnonzero(within[i]):
                    if labels[j] is None:
                        labels[j] = k
                        queue.append(j)
        k += 1
    sizes = Counter(l for l in labels if l is not None)
    first = {l: labels.index(l) for l in sizes}
    rank = {l: r for r, l in enumerate(sorted(sizes, key=lambda l: (-sizes[l], first[l])))}
    return [NOISE if l is None else rank[l] for l in labels]


def exact_radii(pts, count):
    """Pairwise distances r among the closest tenth of the pairs with r*r
    equal to the pair's squared distance bit for bit, so that pair sits
    exactly on the eps = r boundary."""
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)[np.triu_indices(len(pts), 1)]
    close = np.quantile(d2, 0.1)
    radii = sorted({math.sqrt(v) for v in d2 if v <= close and math.sqrt(v) ** 2 == v})
    return radii[::max(1, len(radii) // count)][:count]


class TestDbscanBlocks:
    @pytest.mark.parametrize("n, d, rows", [
        (37, 3, 5),      # 37 is not a multiple of the block's 5 rows
        (37, 3, 1),      # one row per block
        (64, 7, 64),     # the whole matrix in one block
        (50, 4, 0.4),    # a single row already exceeds the budget
    ])
    def test_equals_one_shot_tensor_at_exact_eps(self, monkeypatch, n, d, rows):
        monkeypatch.setattr(topics, "_DBSCAN_BLOCK_BYTES", int(rows * 8 * n))
        rng = np.random.default_rng(n * d)
        pts = np.round(rng.normal(size=(n, d)), 1)
        radii = exact_radii(pts, 6)
        assert radii
        for eps in radii:
            for min_pts in (2, 3, 5):
                assert dbscan_labels(pts, eps, min_pts) == dbscan_one_shot(pts, eps, min_pts)

    @pytest.mark.parametrize("rows", [1, 2])
    def test_duplicates_and_exact_eps_pairs_across_blocks(self, monkeypatch, rows):
        # each pair's distance comes from the block of its first point alone;
        # duplicates sit at distance exactly 0
        n, d = 41, 3
        monkeypatch.setattr(topics, "_DBSCAN_BLOCK_BYTES", rows * 8 * n)
        rng = np.random.default_rng(11)
        base = np.round(rng.normal(size=(29, d)), 1)
        pts = base[rng.permutation(np.concatenate([np.arange(29), rng.integers(0, 29, 12)]))]
        d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
        i, j = np.triu_indices(n, 1)
        assert (d2[i, j] == 0).sum() >= 12
        radii = [r for r in exact_radii(pts, 6) if r > 0]
        assert radii
        for eps in [1e-3] + radii:
            on_eps = d2[i, j] == eps * eps
            assert eps == 1e-3 or (on_eps & (i // rows != j // rows)).any()
            for min_pts in (2, 3, 4):
                assert dbscan_labels(pts, eps, min_pts) == dbscan_one_shot(pts, eps, min_pts)

    @pytest.mark.parametrize("min_pts", [2, 3])
    def test_single_point(self, min_pts):
        pts = np.array([[0.5, -1.0, 2.0]])
        assert dbscan_labels(pts, 1.0, min_pts) == dbscan_one_shot(pts, 1.0, min_pts) == [NOISE]

    def test_grid_points_at_eps_join(self, monkeypatch):
        monkeypatch.setattr(topics, "_DBSCAN_BLOCK_BYTES", 3 * 8 * 11)
        pts = np.array([[float(i), 0.0] for i in range(10)] + [[30.0, 0.0]])
        assert dbscan_labels(pts, 1.0, 3) == [0] * 10 + [NOISE]
        assert dbscan_labels(pts, 1.0, 3) == dbscan_one_shot(pts, 1.0, 3)

    def test_default_budget_matches_one_shot_at_embedding_width(self):
        # 210 x 384 under the default budget: 156 rows per block, 2 blocks
        rng = np.random.default_rng(5)
        centers = rng.normal(size=(3, 384)) * 3
        pts = np.concatenate([c + rng.normal(scale=0.05, size=(70, 384)) for c in centers])
        assert dbscan_labels(pts, 1.4, 4) == dbscan_one_shot(pts, 1.4, 4)

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 12), d=st.integers(1, 384),
           offset=st.one_of(st.just(0), st.integers(0, 10 ** 8)), rows=st.integers(1, 12),
           min_pts=st.integers(2, 5))
    @example(seed=0, n=12, d=384, offset=10 ** 8, rows=1, min_pts=3)
    @example(seed=1, n=9, d=1, offset=0, rows=1, min_pts=2)
    def test_band_pairs_decided_as_one_shot(self, seed, n, d, offset, rows, min_pts):
        # integer-grid points a few unit steps apart, shifted by ``offset``; eps
        # is the distance of a drawn pair, so some pair sits exactly at eps
        rng = np.random.default_rng(seed)
        steps = rng.integers(-1, 2, size=(n, d)) * (rng.random((n, d)) < 4 / d)
        steps[np.arange(n), rng.integers(0, d, n)] = rng.choice([-1, 1], n)
        grid = np.cumsum(steps, axis=0) + offset
        i, j = np.triu_indices(n, 1)
        dist2 = [int(v) for v in ((grid[i] - grid[j]) ** 2).sum(axis=1)]
        norms = [int(v) for v in (grid ** 2).sum(axis=1)]
        eps = math.sqrt(rng.choice([v for v in dist2 if v]))
        # the stated margin is M = 4(d + 4)u(|a|² + |b|²) + t; a pair within
        # M / 4 of eps² is in the band whatever the rounding of G, so the
        # reference expression must decide it
        quarter = Fraction(d + 4, 2 ** 53)
        e2 = Fraction(eps * eps)
        assert any(abs(dd - e2) <= quarter * (norms[a] + norms[b])
                   for dd, a, b in zip(dist2, i, j))
        pts = grid.astype(float)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(topics, "_DBSCAN_BLOCK_BYTES", min(rows, n) * 8 * n)
            assert dbscan_labels(pts, eps, min_pts) == dbscan_one_shot(pts, eps, min_pts)

    def test_memory_bounded_at_400_by_384(self):
        # a one-shot 400 x 400 x 384 float64 tensor alone would be ~470 MiB
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(400, 384))
        tracemalloc.start()
        try:
            dbscan_labels(pts, 27.0, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20

    def test_memory_of_dense_neighbour_lists(self):
        # 3,000 points all within eps: 9M neighbour entries, ~69 MiB at 8 bytes each
        rng = np.random.default_rng(0)
        pts = rng.uniform(size=(3000, 5))
        tracemalloc.start()
        try:
            labels = dbscan_labels(pts, 10.0, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert labels == [0] * 3000
        assert peak < 60 * 2 ** 20


def cpu_flags() -> set[str]:
    try:
        with open("/proc/cpuinfo") as fh:
            return next((set(line.split(":", 1)[1].split()) for line in fh
                         if line.startswith("flags")), set())
    except OSError:
        return set()


# OpenBLAS core type -> the /proc/cpuinfo flag its kernels need (pni is SSE3)
BLAS_KERNELS = {"Prescott": "pni", "Haswell": "avx2", "SkylakeX": "avx512f"}


def topics_assignments(config, out, **env) -> bytes:
    """``assignments.csv`` of ``python -m litla topics`` run with ``env`` set and
    no other OpenBLAS setting."""
    env = {**{k: v for k, v in os.environ.items() if not k.startswith("OPENBLAS_")}, **env}
    subprocess.run([sys.executable, "-m", "litla", "topics", "--config", str(config),
                    "--output", str(out)], env=env, check=True, capture_output=True,
                   timeout=120)
    return (out / "assignments.csv").read_bytes()


@pytest.fixture(scope="module")
def default_assignments(fixture_dir, tmp_path_factory):
    return topics_assignments(fixture_dir / "config.toml", tmp_path_factory.mktemp("default"))


@pytest.mark.parametrize("env", [{"OPENBLAS_NUM_THREADS": "1"}] + [
    {"OPENBLAS_CORETYPE": kernel} for kernel in BLAS_KERNELS], ids=lambda env: "-".join(env.values()))
def test_assignments_same_under_every_blas_kernel(env, fixture_dir, tmp_path,
                                                  default_assignments):
    # DBSCAN decides each pair without BLAS, so the labels cannot depend on
    # the kernel, its thread count or its summation order
    kernel = env.get("OPENBLAS_CORETYPE")
    if kernel and BLAS_KERNELS[kernel] not in cpu_flags():
        pytest.skip(f"this CPU cannot run OpenBLAS's {kernel} kernels")
    labels = {row[1] for row in csv.reader(default_assignments.decode().splitlines()[1:])}
    assert len(labels - {"-1"}) > 1
    assert topics_assignments(fixture_dir / "config.toml", tmp_path, **env) == default_assignments


class TestCtfidf:
    corpus = {
        0: ["apple", "apple", "banana", "cherry", "apple", "banana"],
        1: ["banana", "banana", "dates", "dates", "cherry", "apple", "fig"],
        2: ["fig", "fig", "grape", "grape", "grape", "cherry", "dates"],
    }

    def test_hand_computed_scores(self):
        # 20 tokens over 3 classes: A = 20/3; f(apple)=4, f(grape)=3, ...
        summaries = {s.topic: dict(s.top_terms) for s in ctfidf(self.corpus)}
        A = 20.0 / 3.0
        assert summaries[0]["apple"] == pytest.approx(
            (3 / 6) * math.log(1 + A / 4), abs=1e-12)
        assert summaries[1]["dates"] == pytest.approx(
            (2 / 7) * math.log(1 + A / 3), abs=1e-12)
        assert summaries[2]["grape"] == pytest.approx(
            (3 / 7) * math.log(1 + A / 3), abs=1e-12)

    def test_class_unique_term_outranks_shared(self):
        docs = {
            0: ["unique", "shared"],
            1: ["shared", "other"],
            2: ["shared", "misc"],
        }
        top = {s.topic: [t for t, _ in s.top_terms] for s in ctfidf(docs)}
        assert top[0].index("unique") < top[0].index("shared")

    def test_identical_classes_identical_scores(self):
        docs = {0: ["a", "b", "b"], 1: ["a", "b", "b"]}
        s0, s1 = ctfidf(docs)
        assert s0.top_terms == [(t, v) for t, v in s1.top_terms]

    def test_duplication_invariance(self):
        base = {c: dict(ctfidf(self.corpus)[i].top_terms)
                for i, c in enumerate(sorted(self.corpus))}
        doubled = {c: toks + toks for c, toks in self.corpus.items()}
        dup = {c: dict(ctfidf(doubled)[i].top_terms)
               for i, c in enumerate(sorted(doubled))}
        for c in base:
            for term, score in base[c].items():
                assert dup[c][term] == pytest.approx(score, abs=1e-12)

    def test_empty_class_empty_terms(self):
        summaries = ctfidf({0: [], 1: ["x"]})
        assert summaries[0].top_terms == []


class TestHierarchy:
    def test_collinear_first_merge_is_nearest_pair(self):
        merges = hierarchical_topics([[0.0], [1.0], [10.0]])
        assert merges[0][:2] == (0, 1)
        assert merges[0][2] == pytest.approx(1.0)

    def test_duplicates_merge_at_zero(self):
        merges = hierarchical_topics([[2.0, 2.0], [2.0, 2.0], [9.0, 9.0]])
        assert merges[0][2] == 0.0

    def test_single_centroid_empty_tree(self):
        assert hierarchical_topics([[1.0, 2.0]]) == []

    def test_heights_non_decreasing(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((12, 4))
        merges = hierarchical_topics(pts)
        heights = [h for _a, _b, h, _s in merges]
        assert all(h2 >= h1 - 1e-12 for h1, h2 in zip(heights, heights[1:]))

    def test_matches_naive_average_linkage_oracle(self):
        rng = np.random.default_rng(11)
        pts = rng.standard_normal((6, 3))
        merges = hierarchical_topics(pts)

        # oracle: recompute mean pairwise distance between member sets each step
        clusters = {i: [i] for i in range(len(pts))}
        next_id = len(pts)
        oracle = []
        while len(clusters) > 1:
            best = None
            for a, b in combinations(sorted(clusters), 2):
                d = float(np.mean([np.linalg.norm(pts[i] - pts[j])
                                   for i in clusters[a] for j in clusters[b]]))
                if best is None or d < best[0] - 1e-12:
                    best = (d, a, b)
            d, a, b = best
            members = clusters.pop(a) + clusters.pop(b)
            clusters[next_id] = members
            oracle.append((a, b, d, len(members)))
            next_id += 1
        for got, exp in zip(merges, oracle):
            assert got[0] == exp[0] and got[1] == exp[1]
            assert got[2] == pytest.approx(exp[2], abs=1e-9)
            assert got[3] == exp[3]

    def test_dendrogram_json_shape(self):
        merges = hierarchical_topics([[0.0], [1.0], [10.0]])
        tree = dendrogram_json(merges, ["T0", "T1", "T2"])
        assert set(tree) == {"height", "children"}
        assert tree["height"] >= tree["children"][0]["height"]


class TestQueries:
    def test_load_queries_ignores_byte_order_mark(self, tmp_path):
        path = tmp_path / "queries.txt"
        path.write_bytes(codecs.BOM_UTF8 + b"alpha: a\nbeta: b\n")
        assert load_queries(path) == {"alpha": "a", "beta": "b"}

    def test_and_phrase_match(self):
        labels = assign_by_query(
            {"t": '"constrained" AND "multi-objective"'},
            text_index({"p": "A constrained multi-objective benchmark"}))
        assert labels == {"p": {"t"}}

    def test_not_clause_excludes(self):
        labels = assign_by_query(
            {"t": 'benchmark AND NOT constrained'},
            text_index({"p": "A constrained benchmark"}))
        assert labels == {"p": set()}

    def test_phrase_requires_contiguity(self):
        labels = assign_by_query(
            {"t": '"pareto front"'},
            text_index({"a": "the pareto front moves", "b": "pareto approximation of the front"}))
        assert labels == {"a": {"t"}, "b": set()}

    def test_not_complements_within_indexed_papers(self):
        labels = assign_by_query({"t": 'NOT alpha', "e": '""', "x": 'gamma'},
                                 text_index({"p": "alpha", "q": "beta", "r": ""}))
        assert labels == {"p": set(), "q": {"t"}, "r": {"t"}}

    def test_parentheses_and_or(self):
        # AND binds tighter than OR: only the parenthesised query drops "g"
        labels = assign_by_query(
            {"t": '(alpha OR beta) AND NOT gamma', "u": 'alpha OR beta AND NOT gamma'},
            text_index({"a": "alpha", "b": "beta gamma", "g": "alpha gamma", "z": "zeta"}))
        assert labels == {"a": {"t", "u"}, "b": set(), "g": {"u"}, "z": set()}

    def test_operator_with_a_hyphen_is_a_word(self):
        docs = text_index({"o": "OR-Library benchmark", "l": "library",
                           "n": "NOT-dominated sorting", "d": "non dominated sorting"})
        labels = assign_by_query({"lib": "OR-Library", "nd": "NOT-dominated",
                                  "both": "benchmark AND OR-Library"}, docs)
        assert labels == {"o": {"lib", "both"}, "l": set(), "n": {"nd"}, "d": set()}

    def test_operator_is_a_whole_word(self):
        assert _lex_query('a OR.b NOT(c) AND"d" OR-e') == [
            ("WORD", "a"), ("WORD", "OR.b"), ("NOT", "NOT"), ("LPAREN", "("),
            ("WORD", "c"), ("RPAREN", ")"), ("AND", "AND"), ("PHRASE", "d"),
            ("WORD", "OR-e")]

    def test_malformed_expression_names_query(self):
        with pytest.raises(QueryError, match="broken"):
            assign_by_query({"broken": '(alpha AND'}, text_index({"p": "alpha"}))

    def test_empty_query_rejected(self):
        with pytest.raises(QueryError) as info:
            assign_by_query({"blank": "   "}, text_index({"p": "alpha"}))
        assert str(info.value) == "query 'blank': empty query"

    def test_matches_naive_predicate_oracle(self, fixture_records):
        docs = {r.id: r.title + " " + r.abstract for r in fixture_records[:50]}
        queries = {
            "q0": '"weight vectors"',
            "q1": 'makespan OR "flow shop"',
            "q2": '"surrogate model" AND NOT kriging',
            "q3": '"pareto front" AND convergence',
            "q4": 'NOT "evolutionary algorithm"',
            "q5": '("vehicle routing" OR "path planning") AND optimization',
            "q6": 'energy AND (storage OR dispatch)',
            "q7": '"feature selection" OR "neural architecture"',
            "q8": 'benchmark AND instances AND NOT industrial',
            "q9": '"constraint handling" OR "penalty functions"',
        }
        got = assign_by_query(queries, text_index(docs))

        def has(tokens, phrase):
            return contains_phrase(tokens, tokenize(phrase))

        oracle_fns = {
            "q0": lambda t: has(t, "weight vectors"),
            "q1": lambda t: has(t, "makespan") or has(t, "flow shop"),
            "q2": lambda t: has(t, "surrogate model") and not has(t, "kriging"),
            "q3": lambda t: has(t, "pareto front") and has(t, "convergence"),
            "q4": lambda t: not has(t, "evolutionary algorithm"),
            "q5": lambda t: (has(t, "vehicle routing") or has(t, "path planning"))
            and has(t, "optimization"),
            "q6": lambda t: has(t, "energy") and (has(t, "storage") or has(t, "dispatch")),
            "q7": lambda t: has(t, "feature selection") or has(t, "neural architecture"),
            "q8": lambda t: has(t, "benchmark") and has(t, "instances")
            and not has(t, "industrial"),
            "q9": lambda t: has(t, "constraint handling") or has(t, "penalty functions"),
        }
        for pid, text in docs.items():
            tokens = tokenize(text)
            expected = {q for q, fn in oracle_fns.items() if fn(tokens)}
            assert got[pid] == expected, pid


# title, abstract: "the pareto front" and "front weight" span a title/abstract
# boundary, and "and" is a word of the text, which only a quoted "AND" reaches
_QUERY_DOCS = TextIndex({
    "p0": ("pareto front", "weight and vectors"),
    "p1": ("the pareto", "front of weight vectors"),
    "p2": ("", "and or not"),
    "p3": ("Weight", ""),
    "p4": ("", ""),
    "p5": ("vectors and pareto", "front"),
    "p6": ("OR-Library or", "NOT-dominated and"),
})
_query_atom = st.sampled_from([
    "pareto", "front", "weight", "Vectors", "and", "zeta", '"pareto front"',
    '"front weight"', '"the pareto front"', '"AND"', '"and or"', '"zeta pareto"', '""',
    '"  "', "OR-Library", "NOT-dominated", "AND.or", "or-library"])
_query_expr = st.recursive(_query_atom, lambda inner: st.one_of(
    st.tuples(inner, st.sampled_from(["AND", "OR"]), inner).map(" ".join),
    inner.map(lambda e: f"NOT {e}"),
    inner.map(lambda e: f"({e})")), max_leaves=10)


def _labels_or_error(fn, expr):
    try:
        return fn({"q": expr}, _QUERY_DOCS)
    except QueryError as exc:
        return f"QueryError: {exc}"


class TestQueryOracle:
    """``assign_by_query`` against the parser that built an AST first."""

    @given(_query_expr)
    @example("NOT NOT pareto")
    @example('"AND" AND NOT (zeta OR "front weight")')
    @example('((pareto OR "the pareto front") AND NOT NOT weight) OR NOT ""')
    def test_labels_match_reference(self, expr):
        assert assign_by_query({"q": expr}, _QUERY_DOCS) == labels_reference({"q": expr},
                                                                             _QUERY_DOCS)

    @given(_query_expr, st.sampled_from([
        lambda e: f"({e}", lambda e: f"{e})", lambda e: f"(({e})", lambda e: f"{e} AND",
        lambda e: f"OR {e}", lambda e: f"{e} NOT", lambda e: f"{e} AND ()",
        lambda e: f"{e} pareto", lambda e: f'{e} "front"', lambda e: f'{e} AND "open',
        lambda e: f'"open {e}', lambda e: " \t\n "]))
    def test_malformed_raises_reference_text(self, expr, break_it):
        bad = break_it(expr)
        with pytest.raises(QueryError) as ref:
            labels_reference({"q": bad}, _QUERY_DOCS)
        with pytest.raises(QueryError) as got:
            assign_by_query({"q": bad}, _QUERY_DOCS)
        assert str(got.value) == str(ref.value)

    @given(st.lists(st.sampled_from(["(", ")", "AND", "OR", "NOT", "pareto", '"pareto front"',
                                     '"AND"', '"', "zeta", '""', "and", "OR-Library",
                                     "NOT-dominated", "AND.or", "NOT(pareto)", 'OR"front"']),
                    max_size=8))
    def test_any_token_sequence_matches_reference(self, words):
        expr = " ".join(words)
        assert _labels_or_error(assign_by_query, expr) == _labels_or_error(labels_reference,
                                                                           expr)

    @pytest.mark.parametrize("expr, message", [
        ("(alpha AND beta", "expected RPAREN, found None"),
        ("alpha)", "trailing tokens after expression: [('RPAREN', ')')]"),
        ("alpha AND", "unexpected token None"),
        ("OR alpha", "unexpected token OR"),
        ("()", "unexpected token RPAREN"),
        ('alpha "beta gamma"', "trailing tokens after expression: [('PHRASE', 'beta gamma')]"),
        ('alpha AND "beta', "cannot tokenize query at ' \"beta'"),
        ("benchmark OR-Library", "trailing tokens after expression: [('WORD', 'OR-Library')]"),
        (" \t ", "empty query")])
    def test_error_texts(self, expr, message):
        for fn in (labels_reference, assign_by_query):
            with pytest.raises(QueryError) as info:
                fn({"q": expr}, _QUERY_DOCS)
            assert str(info.value) == f"query 'q': {message}"


class TestTrends:
    def test_single_topic_share_is_one(self):
        labels = {"a": {0}, "b": {0}, "c": {0}}
        years = {"a": 2010, "b": 2011, "c": 2011}
        trends = topic_trend(labels, years)["share"]
        assert trends[0].values == [1.0, 1.0]

    def test_multilabel_counts_once_per_topic(self):
        labels = {"a": {"x", "y"}}
        years = {"a": 2015}
        trends = topic_trend(labels, years)["count"]
        assert trends["x"].values == [1.0]
        assert trends["y"].values == [1.0]

    def test_fixture_matches_groupby_oracle(self, fixture_records):
        sample = fixture_records[:60]
        labels = {r.id: {r.extracted_keywords[0]} for r in sample}
        years = {r.id: r.year for r in sample}
        trends = topic_trend(labels, years)["count"]
        for topic, series in trends.items():
            for y, v in zip(series.years, series.values):
                expected = sum(1 for r in sample
                               if r.year == y and r.extracted_keywords[0] == topic)
                assert v == float(expected)

    def test_count_sums_bound_labeled_papers(self):
        labels = {"a": {0, 1}, "b": {1}, "c": set()}
        years = {"a": 2010, "b": 2010, "c": 2010}
        trends = topic_trend(labels, years)["count"]
        total = sum(series.values[0] for series in trends.values())
        assert total == 3.0  # >= 2 labeled papers, multi-label inflates

    def test_outliers_never_labeled(self):
        labels = {"a": set(), "b": {0}}
        years = {"a": 2010, "b": 2010}
        trends = topic_trend(labels, years)["share"]
        assert trends[0].values == [1.0]


def as_label_sets_reference(labels) -> dict[str, set]:
    """Single labels (``NOISE`` or a topic) and label sets as sets, as
    :func:`topic_trend` once read them."""
    out = {}
    for pid, val in labels.items():
        if isinstance(val, (set, frozenset)):
            out[pid] = set(val)
        else:
            out[pid] = set() if val == NOISE else {val}
    return out


def topic_trend_reference(labels: dict, years: dict[str, int], mode: str = "count"
                          ) -> dict[object, YearSeries]:
    """:func:`topic_trend` as it was when one call gave one mode's series of
    single-label or multi-label assignments."""
    if mode not in ("count", "share"):
        raise ValueError("mode must be 'count' or 'share'")
    label_sets = as_label_sets_reference(labels)
    if not years:
        return {}
    lo, hi = min(years.values()), max(years.values())
    span = list(range(lo, hi + 1))
    topics = sorted({t for s in label_sets.values() for t in s}, key=str)
    per_topic = {t: Counter() for t in topics}
    labeled_per_year: Counter[int] = Counter()
    for pid, topic_set in label_sets.items():
        if not topic_set or pid not in years:
            continue
        y = years[pid]
        labeled_per_year[y] += 1
        for t in topic_set:
            per_topic[t][y] += 1
    out = {}
    for t in topics:
        if mode == "count":
            vals = [float(per_topic[t].get(y, 0)) for y in span]
        else:
            vals = [per_topic[t].get(y, 0) / labeled_per_year[y]
                    if labeled_per_year.get(y) else 0.0 for y in span]
        out[t] = YearSeries(span, vals)
    return out


_PIDS = [f"p{i}" for i in range(8)]
# cluster ids with NOISE, or query topic names: the two label shapes of stage_topics
_SINGLE_LABELS = st.dictionaries(st.sampled_from(_PIDS), st.integers(NOISE, 11))
_LABEL_SETS = st.dictionaries(st.sampled_from(_PIDS),
                              st.sets(st.sampled_from(["alpha", "beta", "gamma", "delta"])))
_YEARS = st.dictionaries(st.sampled_from(_PIDS), st.integers(1995, 2004))


class TestTrendReference:
    """One :func:`topic_trend` call against both modes of the earlier one,
    on the labels each path of ``stage_topics`` gives it."""

    @staticmethod
    def both_modes(labels, years):
        return {mode: topic_trend_reference(labels, years, mode) for mode in ("count", "share")}

    @given(labels=_SINGLE_LABELS, years=_YEARS)
    @example(labels={"p0": NOISE, "p1": 10, "p2": 2}, years={"p0": 2000, "p1": 2002})
    def test_cluster_labels_match_reference(self, labels, years):
        converted = {pid: {label} - {NOISE} for pid, label in labels.items()}
        assert repr(topic_trend(converted, years)) == repr(self.both_modes(labels, years))

    @given(labels=_LABEL_SETS, years=_YEARS)
    @example(labels={"p0": set(), "p1": {"alpha", "beta"}, "p5": {"gamma"}},
             years={"p0": 2000, "p1": 2003})
    def test_label_sets_match_reference(self, labels, years):
        assert repr(topic_trend(labels, years)) == repr(self.both_modes(labels, years))

    def test_trends_without_queries_count_clusters(self, fixture_dir, fixture_records, tmp_path):
        shutil.copytree(fixture_dir, tmp_path / "fixtures")
        config = tmp_path / "fixtures" / "config.toml"
        text = config.read_text()
        assert text.count('queries = "queries.txt"\n') == 1
        config.write_text(text.replace('queries = "queries.txt"\n', ""))
        out = tmp_path / "out"
        assert main(["topics", "--config", str(config), "--output", str(out)]) == 0
        assert not (out / "multilabel.csv").exists()

        def rows(name):
            with open(out / name, newline="", encoding="utf-8") as fh:
                return list(csv.reader(fh))

        year_of = {r.id: r.year for r in fixture_records}
        assignments = rows("assignments.csv")
        assert assignments[0] == ["paper_id", "topic"]
        assigned = [(pid, int(topic), year_of[pid]) for pid, topic in assignments[1:]]
        assert any(topic == NOISE for _, topic, _ in assigned)
        count = Counter((topic, year) for _, topic, year in assigned if topic != NOISE)
        labeled = Counter(year for _, topic, year in assigned if topic != NOISE)
        span = range(min(y for *_, y in assigned), max(y for *_, y in assigned) + 1)
        clusters = sorted({topic for topic, _ in count}, key=str)
        expected = {
            "count": [(str(t), y, float(count[t, y])) for t in clusters for y in span],
            "share": [(str(t), y, count[t, y] / labeled[y] if labeled[y] else 0.0)
                      for t in clusters for y in span],
        }
        for mode, want in expected.items():
            got = rows(f"topic_trends_{mode}.csv")
            assert got[0] == ["topic", "year", "value"]
            assert [(t, int(y), float(v)) for t, y, v in got[1:]] == want


class TestEmerging:
    def test_exponential_beats_flat(self):
        trends = {
            "exp": YearSeries([2018, 2019, 2020, 2021], [1.0, 2.0, 4.0, 8.0]),
            "flat": YearSeries([2018, 2019, 2020, 2021], [5.0, 5.0, 5.0, 5.0]),
        }
        ranked = emerging_topics(trends, 2018, k=2)
        assert ranked[0][0] == "exp" and ranked[0][1] > 0
        assert ranked[1][1] == pytest.approx(0.0)

    def test_flat_ties_ranked_by_latest_count(self):
        trends = {
            "small": YearSeries([2018, 2019], [2.0, 2.0]),
            "big": YearSeries([2018, 2019], [9.0, 9.0]),
        }
        ranked = emerging_topics(trends, 2018, k=2)
        assert [t for t, _ in ranked] == ["big", "small"]

    def test_absent_topic_excluded(self):
        trends = {
            "zero": YearSeries([2018, 2019], [0.0, 0.0]),
            "live": YearSeries([2018, 2019], [1.0, 2.0]),
        }
        assert [t for t, _ in emerging_topics(trends, 2018, k=5)] == ["live"]

    def test_hand_computed_slopes(self):
        counts = {
            "a": [1.0, 3.0, 5.0],   # slope 2, mean 3 -> 2/3
            "b": [4.0, 4.0, 7.0],   # slope 1.5, mean 5 -> 0.3
        }
        trends = {t: YearSeries([2019, 2020, 2021], v) for t, v in counts.items()}
        ranked = dict(emerging_topics(trends, 2019, k=2))
        assert ranked["a"] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert ranked["b"] == pytest.approx(1.5 / 5.0, abs=1e-12)


class TestLinkage:
    def test_never_comentioned_is_zero(self):
        matrix = topic_linkage(
            {"a": ["alpha"], "b": ["beta"]},
            text_index({"p1": "alpha only here", "p2": "beta elsewhere"}), epsilon=0.1)
        assert matrix.weights == [[0.0, 0.0], [0.0, 0.0]]

    def test_all_papers_mention_all_themes(self):
        abstracts = {f"p{i}": "alpha beta gamma" for i in range(4)}
        matrix = topic_linkage(
            {"a": ["alpha"], "b": ["beta"], "c": ["gamma"]}, text_index(abstracts), epsilon=0.15)
        w = np.array(matrix.weights)
        assert np.all(w[~np.eye(3, dtype=bool)] == 4.0)
        assert np.all(np.diag(w) == 0.0)

    def test_symmetry_and_zero_diagonal(self, fixture_records):
        themes = {
            "sched": ["flow shop", "makespan"],
            "route": ["vehicle routing", "path planning"],
            "energy": ["power dispatch", "renewable energy"],
            "learn": ["feature selection", "reinforcement learning"],
        }
        abstracts = {r.id: r.abstract for r in fixture_records}
        matrix = topic_linkage(themes, text_index(abstracts), epsilon=0.15)
        w = np.array(matrix.weights)
        assert np.allclose(w, w.T)
        assert np.all(np.diag(w) == 0.0)

    def test_threshold_against_bruteforce_oracle(self, fixture_records):
        themes = {
            "sched": ["flow shop", "makespan"],
            "route": ["vehicle routing", "path planning"],
            "energy": ["power dispatch", "renewable energy"],
            "learn": ["feature selection", "reinforcement learning"],
        }
        abstracts = {r.id: r.abstract for r in fixture_records}
        eps = 0.15
        matrix = topic_linkage(themes, text_index(abstracts), eps)

        names = list(themes)
        hits = {}
        for pid, text in abstracts.items():
            tokens = tokenize(text)
            hits[pid] = {n for n in names
                         if any(contains_phrase(tokens, tokenize(k))
                                for k in themes[n])}
        raw = np.zeros((4, 4))
        for pid in abstracts:
            for i, a in enumerate(names):
                for j, b in enumerate(names):
                    if i != j and a in hits[pid] and b in hits[pid]:
                        raw[i, j] += 1
        rows = raw.sum(axis=1)
        expected = raw.copy()
        for i in range(4):
            for j in range(4):
                if i == j or raw[i, j] == 0:
                    continue
                si = raw[i, j] / rows[i] if rows[i] else 0.0
                sj = raw[i, j] / rows[j] if rows[j] else 0.0
                if si < eps and sj < eps:
                    expected[i, j] = 0.0
        assert matrix.themes == names
        assert np.array_equal(np.array(matrix.weights), expected)

    @given(st.lists(st.lists(st.sampled_from(["alpha", "beta", "gamma", "delta"]),
                             max_size=4).map(" ".join), min_size=1, max_size=12),
           st.lists(st.lists(st.sampled_from(["alpha", "beta", "gamma", "delta", "absent"]),
                             min_size=1, max_size=2), min_size=1, max_size=5),
           st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0, 1))
    @example(["alpha beta", "alpha gamma", "alpha gamma", "alpha gamma"],
             [["alpha"], ["beta"], ["gamma"], ["absent"]], 0.5)  # kept for beta's share alone
    def test_threshold_matches_loop_reference(self, abstracts, themes, epsilon):
        # "absent" is in no abstract, so a theme of it alone matches no paper
        text = text_index({f"p{i:02d}": a for i, a in enumerate(abstracts)})
        matrix = topic_linkage({f"t{i}": kws for i, kws in enumerate(themes)}, text, epsilon)
        masks = [reduce(or_, (text.abstract_matches(tokenize(kw)) for kw in kws))
                 for kws in themes]
        raw = np.array([[0.0 if a == b else float((ma & mb).bit_count())
                         for b, mb in enumerate(masks)] for a, ma in enumerate(masks)])
        assert matrix.weights == linkage_threshold_reference(raw, epsilon).tolist()

    def test_empty_theme_dropped_with_warning(self):
        with pytest.warns(UserWarning, match="empty"):
            matrix = topic_linkage({"empty": [], "ok": ["alpha"]},
                                   text_index({"p": "alpha"}), epsilon=0.1)
        assert matrix.themes == ["ok"]
