import json
import math
import random
import subprocess
import sys
from functools import reduce
from itertools import combinations
from operator import add

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from litla import gbdt
from litla.gbdt import LEAF_CLIP, MODEL_FORMAT, MODEL_VERSION, GbdtModel, train_gbdt
from litla.graph import ProjectedGraph
from litla.predict import (
    DegenerateYearError,
    all_unconnected_pairs,
    build_training_set,
    evaluate_auc,
    pair_features,
    predict_links,
    sample_negative_pairs,
)



def auc_reference(scores, labels) -> float:
    """:func:`evaluate_auc` as a loop that averages the ranks of each run of
    equal sorted scores."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0  # average 1-based rank
        i = j + 1
    rank_sum_pos = float(ranks[labels == 1].sum())
    u_stat = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u_stat / (n_pos * n_neg)


def unconnected_pairs_reference(g: ProjectedGraph) -> list[tuple[str, str]]:
    """:func:`all_unconnected_pairs` as a nested index loop."""
    nodes = [u for u in sorted(g.nodes) if g.degree(u) >= 1]
    out = []
    for i, u in enumerate(nodes):
        for v in nodes[i + 1:]:
            if not g.has_edge(u, v):
                out.append((u, v))
    return out


def negative_pairs_reference(prev: ProjectedGraph, curr: ProjectedGraph, count: int,
                             seed: int) -> list[tuple[str, str]]:
    """:func:`sample_negative_pairs` with its exact-enumeration fallback as a
    nested index loop."""
    nodes = sorted(prev.nodes)
    n = len(nodes)
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
        pair = (nodes[i], nodes[j]) if nodes[i] < nodes[j] else (nodes[j], nodes[i])
        if pair in chosen or prev.has_edge(*pair) or curr.has_edge(*pair):
            continue
        chosen.add(pair)
    if len(chosen) < count:
        for i in range(n):
            for j in range(i + 1, n):
                pair = (nodes[i], nodes[j])
                if pair in chosen or prev.has_edge(*pair) or curr.has_edge(*pair):
                    continue
                chosen.add(pair)
                if len(chosen) >= count:
                    break
            if len(chosen) >= count:
                break
    return sorted(chosen)


def kw_graph(edges, year=2010):
    nodes = {n for e in edges for n in e}
    return ProjectedGraph(
        False,
        {n: {"year": year} for n in nodes},
        {tuple(sorted(e)): {"year": year, "weight": 1.0} for e in edges},
    )


# --- features ----------------------------------------------------------------------


def pair_features_reference(snapshots, pair, year):
    """:func:`pair_features` as set algebra on neighbour names."""
    u, v = sorted(pair)
    g = snapshots[year]
    if u not in g.nodes:
        raise KeyError(f"unknown node {u!r} at {year}")
    if v not in g.nodes:
        raise KeyError(f"unknown node {v!r} at {year}")
    nu = g.neighbors(u)
    nv = g.neighbors(v)
    du, dv = len(nu), len(nv)
    common = nu & nv
    union = nu | nv
    jaccard = len(common) / len(union) if union else 0.0
    aa = reduce(add, (1.0 / math.log(len(g.neighbors(w))) for w in sorted(common)), 0)

    prev = snapshots.get(year - 1)
    if prev is None:
        du_delta = dv_delta = cn_delta = 0.0
    else:
        pu = prev.neighbors(u) if u in prev.nodes else set()
        pv = prev.neighbors(v) if v in prev.nodes else set()
        du_delta = float(du - len(pu))
        dv_delta = float(dv - len(pv))
        cn_delta = float(len(common) - len(pu & pv))
    return [float(du), float(dv), float(du + dv), float(du * dv),
            float(len(common)), jaccard, aa, du_delta, dv_delta, cn_delta]


# string order differs from numeric order, so name order is not draw order
_KEYWORDS = ["k9", "k10", "k100", "kb", "ka", "k2", "k11", "kc", "k1", "k20", "k3", "kd"]
_YEARS = st.integers(2000, 2003)


@given(st.dictionaries(st.sampled_from(_KEYWORDS), _YEARS, min_size=2),
       st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11), _YEARS), max_size=40),
       st.sets(_YEARS, min_size=1))
def test_pair_features_match_set_reference_bit_for_bit(first_seen, specs, years):
    # a keyword history: nodes and edges appear in their first year, so a
    # node of a later year is absent from the earlier snapshots
    names = sorted(first_seen)
    edges = {}
    for i, j, year in specs:
        u, v = names[i % len(names)], names[j % len(names)]
        if u != v:
            edges[u, v] = {"year": max(year, first_seen[u], first_seen[v]), "weight": 1.0}
    full = ProjectedGraph(False, {u: {"year": y} for u, y in first_seen.items()}, edges)
    snapshots = {year: full.snapshot(year) for year in years}  # gaps leave no history
    for year, g in snapshots.items():
        for pair in combinations(g.names, 2):
            want = pair_features_reference(snapshots, pair, year)
            assert list(map(repr, pair_features(snapshots, pair, year))) == \
                list(map(repr, want))
            assert list(map(repr, pair_features(snapshots, pair[::-1], year))) == \
                list(map(repr, want))


class TestPairFeatures:
    def snapshots(self):
        prev = kw_graph([("ka", "c1"), ("ka", "c2"), ("kb", "c2"), ("kb", "c4")])
        curr = kw_graph([
            ("ka", "c1"), ("ka", "c2"), ("ka", "c3"),
            ("kb", "c2"), ("kb", "c3"), ("kb", "c4"), ("kb", "c5"),
            ("c2", "c6"), ("c1", "c7"),
        ])
        return {2009: prev, 2010: curr}

    def test_nine_node_hand_computation(self):
        feats = pair_features(self.snapshots(), ("ka", "kb"), 2010)
        aa = 1.0 / math.log(3) + 1.0 / math.log(2)  # deg(c2)=3, deg(c3)=2
        assert feats == pytest.approx(
            [3.0, 4.0, 7.0, 12.0, 2.0, 2 / 5, aa, 1.0, 2.0, 1.0], abs=1e-12)

    def test_adamic_adar_sums_in_name_order(self):
        # common neighbours c1, c2, c3 of degrees 2, 3 and 6: the float sum
        # differs with the order of its terms
        g = kw_graph([("a", "c1"), ("a", "c2"), ("a", "c3"), ("b", "c1"), ("b", "c2"),
                      ("b", "c3"), ("c2", "x1")] + [("c3", f"x{i}") for i in range(1, 5)])
        terms = [1.0 / math.log(d) for d in (2, 3, 6)]
        assert reduce(add, terms) != reduce(add, reversed(terms))
        assert repr(pair_features({2010: g}, ("a", "b"), 2010)[6]) == repr(reduce(add, terms))

    def test_no_common_neighbors(self):
        g = kw_graph([("u", "x"), ("v", "y")])
        feats = pair_features({2010: g}, ("u", "v"), 2010)
        assert feats[4] == 0.0 and feats[5] == 0.0 and feats[6] == 0.0

    def test_identical_neighborhoods_jaccard_one(self):
        g = kw_graph([("u", "x"), ("u", "y"), ("v", "x"), ("v", "y")])
        feats = pair_features({2010: g}, ("u", "v"), 2010)
        assert feats[5] == 1.0

    def test_missing_history_deltas_zero(self):
        g = kw_graph([("u", "x"), ("v", "x")])
        feats = pair_features({2010: g}, ("u", "v"), 2010)
        assert feats[7:] == [0.0, 0.0, 0.0]

    def test_unknown_node_raises(self):
        g = kw_graph([("u", "x")])
        with pytest.raises(KeyError, match="unknown node 'ghost' at 2010"):
            pair_features({2010: g}, ("u", "ghost"), 2010)
        with pytest.raises(KeyError, match="unknown node 'zz' at 2010"):
            pair_features({2010: g}, ("u", "zz"), 2010)

    def test_symmetric_components_invariant_under_swap(self):
        snaps = self.snapshots()
        a = pair_features(snaps, ("ka", "kb"), 2010)
        b = pair_features(snaps, ("kb", "ka"), 2010)
        assert a == b  # canonical ordering normalizes the pair


# --- training-set construction --------------------------------------------------------


class TestTrainingSet:
    def history(self):
        g0 = kw_graph([("a", "b"), ("b", "c"), ("c", "d")], year=2000)
        g1 = ProjectedGraph(False, dict(g0.nodes), dict(g0.edges))
        g1.edges[("a", "c")] = {"year": 2001, "weight": 1.0}
        g1 = ProjectedGraph(False, g1.nodes, g1.edges)
        return {2000: g0, 2001: g1}

    def test_static_graph_degenerate(self):
        g = kw_graph([("a", "b")])
        with pytest.raises(DegenerateYearError):
            build_training_set({2000: g, 2001: g}, 2001)

    def test_single_new_edge_single_positive(self):
        samples = build_training_set(self.history(), 2001, neg_ratio=2, seed=1)
        positives = [(s.u, s.v) for s in samples if s.label == 1]
        assert positives == [("a", "c")]

    def test_positives_equal_edge_set_difference_oracle(self, fixture_records):
        from litla.graph import PROJECTION_KEYWORD, build_graph

        kg = build_graph(fixture_records)
        kw = kg.project(PROJECTION_KEYWORD)
        snaps = {y: kw.snapshot(y) for y in (2014, 2015)}
        samples = build_training_set(snaps, 2015, neg_ratio=1, seed=0)
        got = {(s.u, s.v) for s in samples if s.label == 1}
        prev, curr = snaps[2014], snaps[2015]
        expected = {pair for pair in set(curr.edges) - set(prev.edges)
                    if pair[0] in prev.nodes and pair[1] in prev.nodes}
        assert got == expected

    def test_negatives_unconnected_at_both_years(self):
        samples = build_training_set(self.history(), 2001, neg_ratio=3, seed=7)
        prev, curr = self.history()[2000], self.history()[2001]
        for s in samples:
            if s.label == 0:
                assert not prev.has_edge(s.u, s.v)
                assert not curr.has_edge(s.u, s.v)

    def test_negative_sampling_reproducible(self):
        h = self.history()
        a = sample_negative_pairs(h[2000], h[2001], 3, seed=5)
        b = sample_negative_pairs(h[2000], h[2001], 3, seed=5)
        assert a == b


_NODES = [f"k{i:02d}" for i in range(80)]
_PAIRS = list(combinations(_NODES, 2))


def _graph(edges) -> ProjectedGraph:
    return ProjectedGraph(False, {u: {"year": 2000} for u in _NODES},
                          {e: {"year": 2000, "weight": 1.0} for e in edges})


@given(st.sets(st.integers(0, len(_PAIRS) - 1), max_size=12),
       st.sets(st.integers(0, len(_PAIRS) - 1), max_size=6),
       st.integers(0, 20), st.integers(0, 3))
def test_pair_enumeration_matches_loop_references(free, closed, count, seed):
    # all but a few of the 3,160 pairs are edges, so the random draws miss
    # free pairs and the exact enumeration supplies the rest
    prev_edges = [pair for i, pair in enumerate(_PAIRS) if i not in free]
    prev = _graph(prev_edges)
    curr = _graph(prev_edges + [_PAIRS[i] for i in free & closed])
    assert sample_negative_pairs(prev, curr, count, seed) == \
        negative_pairs_reference(prev, curr, count, seed)
    assert all_unconnected_pairs(curr) == unconnected_pairs_reference(curr)


@given(st.sets(st.integers(0, len(_PAIRS) - 1), max_size=40))
def test_unconnected_pairs_of_a_sparse_graph_match_loop_reference(edges):
    g = _graph([_PAIRS[i] for i in edges])  # most keywords have no neighbour
    assert all_unconnected_pairs(g) == unconnected_pairs_reference(g)


@given(st.lists(st.tuples(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, math.nan, math.inf]) |
                          st.floats(allow_nan=True), st.integers(0, 1)),
                min_size=2, max_size=60))
@example([(s, i % 3 == 0) for i, s in enumerate(
    [0.5] * 30 + [math.nan] * 5 + [0.0, -0.0] * 10 + [0.25] * 15)])  # long ties
def test_auc_matches_loop_reference(rows):
    scores = [s for s, _l in rows]
    labels = [l for _s, l in rows]
    if len(set(labels)) < 2:
        return
    assert repr(evaluate_auc(scores, labels)) == repr(auc_reference(scores, labels))


# --- gradient boosting ----------------------------------------------------------------


def fit_tree_per_node_sort(X, grad, hess, max_depth, min_leaf):
    """The tree fit that stable-sorts every column again at every node, kept
    as the reference for the presorted ``gbdt._fit_tree``."""

    def leaf(idx):
        g = grad[idx].sum()
        h = hess[idx].sum()
        value = g / max(h, 1e-12)
        return {"leaf": float(np.clip(value, -LEAF_CLIP, LEAF_CLIP))}

    def best_split(idx):
        g = grad[idx]
        total = g.sum()
        n = len(idx)
        if n < 2 * min_leaf:
            return None
        best = None  # (gain, feature, threshold)
        pos = np.arange(1, n)
        sizes_ok = (pos >= min_leaf) & (n - pos >= min_leaf)
        for f in range(X.shape[1]):
            col = X[idx, f]
            order = np.argsort(col, kind="stable")
            col_sorted = col[order]
            prefix = np.cumsum(g[order])[:-1]
            ok = sizes_ok & (col_sorted[:-1] != col_sorted[1:])
            if not ok.any():
                continue
            gain = (prefix ** 2 / pos + (total - prefix) ** 2 / (n - pos)
                    - total * total / n)
            gain[~ok] = -np.inf
            at = int(np.argmax(gain))
            if best is None or gain[at] > best[0]:
                thr = (col_sorted[at] + col_sorted[at + 1]) / 2.0
                best = (float(gain[at]), f, float(thr))
        return best

    def build(idx, depth):
        if depth >= max_depth or len(idx) < 2 * min_leaf:
            return leaf(idx)
        split = best_split(idx)
        if split is None or split[0] <= 1e-12:
            return leaf(idx)
        _gain, f, thr = split
        mask = X[idx, f] <= thr
        return {
            "feature": int(f),
            "threshold": thr,
            "left": build(idx[mask], depth + 1),
            "right": build(idx[~mask], depth + 1),
        }

    return build(np.arange(len(grad)), 0)


def random_training_set(rng):
    """Columns of every kind a split search meets, n from below 2 * min_leaf
    up. A few-valued column ``a`` has heavy ties, and ``a`` with its ties
    broken by row index gives the same gain at each of ``a``'s run ends, so
    the first feature wins only if both prefix sums add in the same order."""
    n = int(rng.choice([3, 7, 12, 40, 150, 400]))
    a = rng.integers(0, 4, size=n).astype(float)
    c = rng.normal(size=n)
    cols = [a, a + np.arange(n) * 1e-9, c, np.round(rng.normal(size=n), 1),
            rng.integers(0, 3, size=n).astype(float), np.full(n, 3.0)]
    X = np.stack(cols, axis=1)[:, rng.permutation(len(cols))]
    y = ((a >= 2) ^ (c > 1.0)).astype(float)
    y[:2] = [0.0, 1.0]
    return X, y


def test_presorted_trees_equal_per_node_sort(monkeypatch):
    rng = np.random.default_rng(2024)
    for _ in range(150):
        X, y = random_training_set(rng)
        kw = dict(n_trees=int(rng.integers(1, 6)), max_depth=int(rng.integers(1, 5)),
                  learning_rate=0.3, min_leaf=int(rng.integers(1, 7)))
        model = train_gbdt(X, y, **kw)
        with monkeypatch.context() as m:
            m.setattr(gbdt, "_fit_tree", lambda X, _order, grad, hess, depth, leaf:
                      fit_tree_per_node_sort(X, grad, hess, depth, leaf))
            reference = train_gbdt(X, y, **kw)
        assert model.to_json() == reference.to_json()
        assert repr(model.loss_curve) == repr(reference.loss_curve)


def model_from_json(text: str) -> GbdtModel:
    """The model that ``GbdtModel.to_json`` wrote as ``text``."""
    payload = json.loads(text)
    if payload.get("format") != MODEL_FORMAT:
        raise ValueError("not a litla-gbdt model")
    if payload.get("version") != MODEL_VERSION:
        raise ValueError(f"unsupported model version {payload.get('version')}")
    return GbdtModel(trees=payload["trees"], learning_rate=payload["learning_rate"],
                     base_score=payload["base_score"], n_features=payload["n_features"])


class TestGbdt:
    def test_separable_1d_perfect_within_ten_trees(self):
        X = np.array([[float(i)] for i in range(20)])
        y = np.array([0] * 10 + [1] * 10, dtype=float)
        model = train_gbdt(X, y, n_trees=10, max_depth=2, learning_rate=0.5)
        assert (model.predict(X) == y).mean() == 1.0

    def test_xor_with_depth_two(self):
        rng = np.random.default_rng(0)
        X = rng.random((200, 2))
        y = ((X[:, 0] > 0.5) ^ (X[:, 1] > 0.5)).astype(float)
        model = train_gbdt(X, y, n_trees=50, max_depth=2, learning_rate=0.3)
        assert (model.predict(X) == y).mean() >= 0.95

    def test_identical_features_predict_base_rate(self):
        X = np.ones((10, 3))
        y = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 0], dtype=float)
        model = train_gbdt(X, y, n_trees=5, max_depth=3)
        probs = model.predict_proba(X)
        assert np.allclose(probs, 0.3, atol=1e-12)
        assert all("leaf" in t for t in model.trees)  # no split gain anywhere

    def test_loss_non_increasing(self):
        rng = np.random.default_rng(3)
        X = rng.random((120, 4))
        y = (X[:, 0] + 0.3 * rng.random(120) > 0.6).astype(float)
        model = train_gbdt(X, y, n_trees=40, max_depth=3, learning_rate=0.1)
        curve = model.loss_curve
        assert all(b <= a + 1e-9 for a, b in zip(curve, curve[1:]))

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            train_gbdt(np.ones((5, 1)), np.ones(5))

    @pytest.mark.parametrize("y", [
        [0.0] * 5,                       # one class
        [0.0, 1.0, 2.0, 1.0, 0.0],       # a label other than 0 or 1
        [0.0, 1.0, math.nan, 1.0, 0.0],  # NaN is no class
        [],
    ])
    def test_labels_other_than_both_classes_rejected(self, y):
        with pytest.raises(ValueError, match="training requires both classes with 0/1 labels"):
            train_gbdt(np.ones((len(y), 1)), np.array(y))

    def test_predict_stage_does_not_load_numpy_ma(self, fixture_dir, tmp_path):
        # np.unique once loaded numpy.ma into every predict process
        code = ("import sys; from litla.cli import main; "
                "assert main(sys.argv[1:]) == 0; print('numpy.ma' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code, "predict", "--config",
                              str(fixture_dir / "config.toml"), "--output", str(tmp_path)],
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"

    def test_min_leaf_respected(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        model = train_gbdt(X, y, n_trees=1, max_depth=3, min_leaf=2)

        def leaves(node, size_idx):
            if "leaf" in node:
                return [len(size_idx)]
            mask = X[size_idx, node["feature"]] <= node["threshold"]
            return leaves(node["left"], size_idx[mask]) \
                + leaves(node["right"], size_idx[~mask])

        assert all(s >= 2 for s in leaves(model.trees[0], np.arange(4)))

    def test_json_round_trip_exact(self):
        rng = np.random.default_rng(5)
        X = rng.random((60, 3))
        y = (X[:, 1] > 0.5).astype(float)
        model = train_gbdt(X, y, n_trees=12, max_depth=3, learning_rate=0.2)
        clone = model_from_json(model.to_json())
        assert clone.to_json() == model.to_json()
        assert np.array_equal(clone.predict_proba(X), model.predict_proba(X))

    def test_rejects_wrong_format(self):
        with pytest.raises(ValueError):
            model_from_json('{"format": "other"}')


# --- ranking and evaluation ------------------------------------------------------------


class TestPredictLinks:
    def trained(self):
        g = kw_graph([("a", "b"), ("b", "c"), ("c", "d"), ("a", "c"), ("b", "d"),
                      ("d", "e"), ("e", "f")])
        snaps = {2010: g}
        rng = np.random.default_rng(2)
        X = rng.random((40, 10))
        y = (X[:, 4] > 0.5).astype(float)
        model = train_gbdt(X, y, n_trees=5, max_depth=2)
        return model, snaps, g

    def test_empty_candidates(self):
        model, snaps, _g = self.trained()
        assert predict_links(model, snaps, 2010, []) == []

    def test_single_candidate_returned(self):
        model, snaps, _g = self.trained()
        ranked = predict_links(model, snaps, 2010, [("a", "f")])
        assert [pair for pair, _p in ranked] == [("a", "f")]

    def test_order_matches_score_then_sort_oracle(self):
        model, snaps, g = self.trained()
        candidates = all_unconnected_pairs(g)
        ranked = predict_links(model, snaps, 2010, candidates)
        X = np.array([pair_features(snaps, p, 2010) for p in sorted(candidates)])
        probs = model.predict_proba(X)
        oracle = sorted(zip(sorted(candidates), probs), key=lambda r: (-r[1], r[0]))
        assert [(pair, pytest.approx(float(p))) for pair, p in oracle] == ranked

    def test_probabilities_in_open_interval(self):
        model, snaps, g = self.trained()
        for _pair, p in predict_links(model, snaps, 2010, all_unconnected_pairs(g)):
            assert 0.0 < p < 1.0

    def test_connected_candidate_rejected(self):
        model, snaps, _g = self.trained()
        with pytest.raises(ValueError):
            predict_links(model, snaps, 2010, [("a", "b")])

    def test_top_n_truncation(self):
        model, snaps, g = self.trained()
        full = predict_links(model, snaps, 2010, all_unconnected_pairs(g))
        assert predict_links(model, snaps, 2010, all_unconnected_pairs(g), top_n=3) \
            == full[:3]

    def test_ranking_invariant_to_monotone_transform(self):
        # sorting by probability must equal sorting by raw margin
        model, snaps, g = self.trained()
        candidates = all_unconnected_pairs(g)
        ranked = predict_links(model, snaps, 2010, candidates)
        X = np.array([pair_features(snaps, p, 2010) for p in sorted(candidates)])
        margins = model.decision_function(X)
        by_margin = sorted(zip(sorted(candidates), margins),
                           key=lambda r: (-r[1], r[0]))
        assert [pair for pair, _m in by_margin] == [pair for pair, _p in ranked]


class TestAuc:
    def test_perfect_separation(self):
        assert evaluate_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_constant_scores_half(self):
        assert evaluate_auc([0.5] * 6, [0, 1, 0, 1, 0, 1]) == 0.5

    def test_ten_sample_matches_pair_counting_oracle(self):
        scores = [0.1, 0.4, 0.35, 0.8, 0.65, 0.65, 0.2, 0.9, 0.5, 0.3]
        labels = [0, 0, 1, 1, 0, 1, 0, 1, 1, 0]
        got = evaluate_auc(scores, labels)
        pos = [s for s, l in zip(scores, labels) if l == 1]
        neg = [s for s, l in zip(scores, labels) if l == 0]
        wins = sum(1.0 if p > n else 0.5 if p == n else 0.0
                   for p in pos for n in neg)
        assert got == pytest.approx(wins / (len(pos) * len(neg)), abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            evaluate_auc([0.1, 0.2], [1, 1])

    @given(st.lists(st.tuples(st.floats(0, 1), st.integers(0, 1)),
                    min_size=4, max_size=40))
    @settings(max_examples=60)
    def test_matches_counting_oracle_property(self, rows):
        labels = [l for _s, l in rows]
        if len(set(labels)) < 2:
            return
        scores = [s for s, _l in rows]
        pos = [s for s, l in zip(scores, labels) if l == 1]
        neg = [s for s, l in zip(scores, labels) if l == 0]
        wins = sum(1.0 if p > n else 0.5 if p == n else 0.0
                   for p in pos for n in neg)
        assert evaluate_auc(scores, labels) == pytest.approx(
            wins / (len(pos) * len(neg)), abs=1e-12)
