"""Oracles written from each algorithm's definition, not from earlier code:
DBSCAN's core, border and noise rules, the exact discrete power-law MLE, AUC
by pair counting and the quadratic fit on exact data.

The module needs nothing beyond the test extra, so it runs everywhere that
tier-1 runs.
"""

import math
import random
from itertools import product

from hypothesis import assume, given
from hypothesis import strategies as st

from litla.powerlaw import fit_power_law_mle
from litla.predict import evaluate_auc
from litla.stats import YearSeries, fit_quadratic
from litla.topics import NOISE, dbscan_labels
from test_powerlaw import sample_discrete_power_law

# --- DBSCAN -----------------------------------------------------------------------


def dbscan_definition(points, eps, min_pts):
    """DBSCAN labels from the pairwise distances alone (Ester et al., KDD 1996).

    A point is core when at least ``min_pts`` points, itself included, lie
    within ``eps``. Core points within ``eps`` of each other are in one
    cluster, and so are chains of them. A non-core point with no core point
    within ``eps`` is noise; any other takes, of its core neighbours'
    clusters, the one whose lowest core index is smallest. Labels count from
    0 by descending size, ties broken by the smallest member index.
    """
    n = len(points)
    within = [[(xi - xj) ** 2 + (yi - yj) ** 2 <= eps * eps for xj, yj in points]
              for xi, yi in points]
    core = [sum(row) >= min_pts for row in within]
    root = list(range(n))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    for i, j in product(range(n), repeat=2):
        if core[i] and core[j] and within[i][j]:
            ri, rj = find(i), find(j)
            root[max(ri, rj)] = min(ri, rj)  # a root is its cluster's lowest core index
    cluster = [find(i) if core[i] else NOISE for i in range(n)]
    for i in range(n):
        if not core[i]:
            cluster[i] = min((find(j) for j in range(n) if core[j] and within[i][j]),
                             default=NOISE)
    members = {}
    for i, c in enumerate(cluster):
        if c != NOISE:
            members.setdefault(c, []).append(i)
    order = sorted(members, key=lambda c: (-len(members[c]), members[c][0]))
    label = {c: new for new, c in enumerate(order)}
    return [label[c] if c != NOISE else NOISE for c in cluster]


@given(points=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=25),
       eps=st.sampled_from([1.0, 1.5, 2.0, 2.5]),
       min_pts=st.integers(2, 5))
def test_dbscan_matches_its_definition(points, eps, min_pts):
    # on the integer grid some pairs lie exactly at eps, where a pair counts as within
    assert dbscan_labels(points, eps, min_pts) == dbscan_definition(points, eps, min_pts)


# --- discrete power-law MLE ---------------------------------------------------------

# fit_power_law_mle's continuous approximation against the exact discrete MLE;
# the largest relative difference over the draws below was 1.4%
MLE_REL_TOL = 0.02


def hurwitz_zeta(s, q, terms=2000):
    """zeta(s, q) = sum over k >= 0 of (q + k)^-s: the first ``terms`` terms
    summed directly, the rest by Euler-Maclaurin up to the B4 term."""
    head = math.fsum((q + k) ** -s for k in range(terms))
    a = q + terms
    tail = (a ** (1 - s) / (s - 1) + a ** -s / 2 + s * a ** (-s - 1) / 12
            - s * (s + 1) * (s + 2) * a ** (-s - 3) / 720)
    return head + tail


def exact_discrete_mle(samples, x_min):
    """The alpha in [1.01, 6] that maximises the discrete power-law
    log-likelihood -n ln zeta(alpha, x_min) - alpha sum(ln x_i), found by
    golden-section search (Clauset, Shalizi & Newman, SIAM Review 2009, §3
    and App. B)."""
    n, log_sum = len(samples), math.fsum(math.log(x) for x in samples)

    def loglik(alpha):
        return -n * math.log(hurwitz_zeta(alpha, x_min)) - alpha * log_sum

    g = (math.sqrt(5) - 1) / 2
    lo, hi = 1.01, 6.0
    c, d = hi - g * (hi - lo), lo + g * (hi - lo)
    fc, fd = loglik(c), loglik(d)
    while hi - lo > 1e-9:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - g * (hi - lo)
            fc = loglik(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + g * (hi - lo)
            fd = loglik(d)
    return (lo + hi) / 2


def test_hurwitz_zeta_of_two_is_pi_squared_over_six():
    assert math.isclose(hurwitz_zeta(2.0, 1.0), math.pi ** 2 / 6, rel_tol=1e-14)


def test_power_law_mle_close_to_exact_discrete_mle():
    for x_min, alpha in product((6, 10), (2.0, 2.5, 3.0, 3.5)):
        rng = random.Random(10 * x_min + int(10 * alpha))
        samples = sample_discrete_power_law(alpha, x_min, 4000, rng)
        approx = fit_power_law_mle(samples, x_min=x_min).alpha
        exact = exact_discrete_mle(samples, x_min)
        assert abs(approx - exact) <= MLE_REL_TOL * exact, (x_min, alpha, approx, exact)


# --- AUC --------------------------------------------------------------------------


@given(st.lists(st.tuples(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), st.integers(0, 1)),
                min_size=2, max_size=40)
       .filter(lambda rows: len({label for _, label in rows}) == 2))
def test_auc_is_the_share_of_ordered_pairs(rows):
    """A positive scored above a negative counts 1 and a tie counts 1/2; both
    sides divide the same exact half-integer count."""
    pos = [s for s, label in rows if label == 1]
    neg = [s for s, label in rows if label == 0]
    count = sum(1.0 if p > q else 0.5 if p == q else 0.0 for p in pos for q in neg)
    scores, labels = zip(*rows)
    assert evaluate_auc(scores, labels) == count / (len(pos) * len(neg))


# --- quadratic fit ----------------------------------------------------------------


@given(a=st.integers(-5, 5), b=st.integers(-50, 50), c=st.integers(-500, 500),
       first=st.integers(1990, 2020), n_years=st.integers(4, 30))
def test_quadratic_fit_recovers_exact_integer_data(a, b, c, first, n_years):
    assume(a or b)  # a constant series has no variance to explain
    years = list(range(first, first + n_years))
    fit = fit_quadratic(YearSeries(years, [float(a * t * t + b * t + c)
                                           for t in range(n_years)]))
    assert abs(fit.a - a) <= 1e-9 and abs(fit.b - b) <= 1e-9 and abs(fit.c - c) <= 1e-9
    assert abs(fit.r_squared - 1.0) <= 1e-12
