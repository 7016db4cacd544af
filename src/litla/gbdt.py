"""Gradient-boosted regression trees on logistic loss, from first principles.

Each round fits a depth-bounded regression tree to the negative gradients
(residuals y - p) with exact greedy variance-reduction splits; leaf values
are Newton steps sum(g)/sum(h) clipped to [-4, 4]. Each feature column is
sorted once per fit, and every node reads its rows' order off its parent's
(the presorted exact greedy search of Chen & Guestrin, KDD 2016).
Deterministic for a fixed input order; models serialize to versioned JSON
exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

MODEL_FORMAT = "litla-gbdt"
MODEL_VERSION = 1
LEAF_CLIP = 4.0


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _log_loss(y, p):
    eps = 1e-15
    p = np.clip(p, eps, 1.0 - eps)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def _fit_tree(X, order, grad, hess, max_depth, min_leaf):
    """Greedy regression tree on residuals; returns a nested dict.

    ``order`` holds each column's stable argsort, one row per feature. A
    node's rows stay in ascending index order, so its parent's order without
    the other rows is the stable sort of its own column.
    """
    features = np.arange(X.shape[1])[:, None]

    def leaf(idx):
        g = grad[idx].sum()
        h = hess[idx].sum()
        value = g / max(h, 1e-12)
        return {"leaf": float(np.clip(value, -LEAF_CLIP, LEAF_CLIP))}

    def best_split(idx, ords):
        """(gain, feature, threshold) of the first best split by (feature, position)."""
        n = len(idx)
        total = grad[idx].sum()
        pos = np.arange(1, n)
        col_sorted = X[ords, features]
        prefix = np.cumsum(grad[ords], axis=1)[:, :-1]
        # candidate splits between consecutive distinct values only
        ok = ((pos >= min_leaf) & (n - pos >= min_leaf)
              & (col_sorted[:, :-1] != col_sorted[:, 1:]))
        fs, ats = np.nonzero(ok)
        if not len(fs):
            return None
        left, size = prefix[fs, ats], pos[ats]
        gain = (left ** 2 / size + (total - left) ** 2 / (n - size)
                - total * total / n)
        k = int(np.argmax(gain))
        f, at = int(fs[k]), ats[k]
        thr = (col_sorted[f, at] + col_sorted[f, at + 1]) / 2.0
        return float(gain[k]), f, float(thr)

    def build(idx, ords, depth):
        if depth >= max_depth or len(idx) < 2 * min_leaf:
            return leaf(idx)
        split = best_split(idx, ords)
        if split is None or split[0] <= 1e-12:
            return leaf(idx)
        _gain, f, thr = split
        goes_left = X[:, f] <= thr
        left, right = (build(idx[side[idx]], ords[side[ords]].reshape(len(ords), -1), depth + 1)
                       for side in (goes_left, ~goes_left))
        return {"feature": f, "threshold": thr, "left": left, "right": right}

    return build(np.arange(len(grad)), order, 0)


def _eval_tree(node, X, out=None, idx=None):
    if out is None:
        out = np.zeros(len(X))
        idx = np.arange(len(X))
    if "leaf" in node:
        out[idx] = node["leaf"]
        return out
    mask = X[idx, node["feature"]] <= node["threshold"]
    _eval_tree(node["left"], X, out, idx[mask])
    _eval_tree(node["right"], X, out, idx[~mask])
    return out


@dataclass
class GbdtModel:
    trees: list[dict]
    learning_rate: float
    base_score: float            # log-odds prior
    n_features: int
    loss_curve: list[float] = field(default_factory=list)

    def decision_function(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"expected (n, {self.n_features}) feature matrix")
        z = np.full(len(X), self.base_score)
        for tree in self.trees:
            z += self.learning_rate * _eval_tree(tree, X)
        return z

    def predict_proba(self, X) -> np.ndarray:
        return _sigmoid(self.decision_function(X))

    def predict(self, X) -> np.ndarray:
        return (self.predict_proba(X) > 0.5).astype(int)

    def to_json(self) -> str:
        payload = {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "learning_rate": self.learning_rate,
            "base_score": self.base_score,
            "n_features": self.n_features,
            "trees": self.trees,
        }
        return json.dumps(payload, sort_keys=True)


def train_gbdt(X, y, n_trees: int = 100, max_depth: int = 3,
               learning_rate: float = 0.1, min_leaf: int = 1) -> GbdtModel:
    """Boost ``n_trees`` rounds of logistic-loss trees.

    The base score is the log-odds of the positive rate; training requires
    both classes. ``loss_curve`` records the training loss before boosting
    and after every round.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or len(X) != len(y):
        raise ValueError("X must be (n, d) with matching labels")
    if set(np.unique(y)) != {0.0, 1.0}:
        raise ValueError("training requires both classes with 0/1 labels")
    if min_leaf < 1:
        raise ValueError("min_leaf must be at least 1")
    rate = float(y.mean())
    rate = min(max(rate, 1e-12), 1.0 - 1e-12)
    base = float(np.log(rate / (1.0 - rate)))
    z = np.full(len(y), base)
    model = GbdtModel(trees=[], learning_rate=learning_rate, base_score=base,
                      n_features=X.shape[1])
    model.loss_curve.append(_log_loss(y, _sigmoid(z)))
    order = np.argsort(X, axis=0, kind="stable").T
    for _round in range(n_trees):
        p = _sigmoid(z)
        grad = y - p
        hess = p * (1.0 - p)
        tree = _fit_tree(X, order, grad, hess, max_depth, min_leaf)
        model.trees.append(tree)
        z += learning_rate * _eval_tree(tree, X)
        model.loss_curve.append(_log_loss(y, _sigmoid(z)))
    return model
