"""Oracles written from each algorithm's definition, not from earlier code:
DBSCAN's core, border and noise rules, the exact discrete power-law MLE, AUC
by pair counting, the quadratic fit on exact data and the CD index on hand
cases.

The module needs nothing beyond the test extra, so it runs everywhere that
tier-1 runs.
"""

import math
import random
from itertools import product

from hypothesis import assume, given
from hypothesis import strategies as st

from litla.citenet import cd_index
from litla.graph import PROJECTION_CITATION, build_graph
from litla.powerlaw import fit_power_law_mle
from litla.predict import evaluate_auc
from litla.records import Author, PaperRecord
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


# --- CD index ---------------------------------------------------------------------
# Funk & Owen-Smith, "A dynamic network measure of technological change"
# (Management Science 2017). S is the set of papers later than the focal that
# cite the focal or one of its references R, and
#     CD = (1/|S|) * sum over i in S of (f_i - 2 * f_i * b_i)
# with f_i = 1 when i cites the focal and b_i = 1 when i cites a member of R.
# A reference later than the focal is no member of R. Each case below works
# the sum by hand; every paper is a record that goes through build_graph.


def focal_cd(papers, **kwargs):
    """``cd_index`` of the paper ``focal`` among ``papers``, each an
    (id, year, references) or (id, year, references, authors) tuple."""
    records = [PaperRecord(id=pid, title=pid, year=year, references=list(refs),
                           authors=[Author(name=a) for a in (rest[0] if rest else ())],
                           page_count=8)
               for pid, year, refs, *rest in papers]
    return cd_index(build_graph(records).project(PROJECTION_CITATION), "focal", **kwargs)


def cd_row(res):
    return None if res is None else (res.cd, res.n_t, res.f_count, res.b_count)


def test_cd_citers_of_the_focal_only_give_plus_one():
    # S = {c1, c2}, each f = 1, b = 0: (1 + 1) / 2 = 1
    assert cd_row(focal_cd([("ref", 1999, []), ("focal", 2000, ["ref"]),
                            ("c1", 2001, ["focal"]), ("c2", 2002, ["focal"])])) == (1.0, 2, 2, 0)


def test_cd_citers_of_the_focal_and_its_reference_give_minus_one():
    # S = {c1, c2}, each f = b = 1: ((1 - 2) + (1 - 2)) / 2 = -1
    assert cd_row(focal_cd([("ref", 1999, []), ("focal", 2000, ["ref"]),
                            ("c1", 2001, ["focal", "ref"]),
                            ("c2", 2002, ["focal", "ref"])])) == (-1.0, 2, 2, 2)


def test_cd_one_citer_of_each_kind_gives_zero():
    # S = {c1, c2, c3}: c1 cites the focal only (1), c2 both (1 - 2 = -1),
    # c3 the reference only (0): (1 - 1 + 0) / 3 = 0
    assert cd_row(focal_cd([("ref", 1999, []), ("focal", 2000, ["ref"]),
                            ("c1", 2001, ["focal"]), ("c2", 2001, ["focal", "ref"]),
                            ("c3", 2001, ["ref"])])) == (0.0, 3, 2, 2)


def test_cd_without_a_later_citer_is_undefined():
    # the only citers share the focal's year or precede it, so S is empty
    assert focal_cd([("ref", 1999, []), ("focal", 2000, ["ref"]),
                     ("same", 2000, ["focal", "ref"]), ("early", 1999, ["focal"])]) is None


def test_cd_leaves_out_a_citer_outside_the_window():
    papers = [("ref", 1999, []), ("focal", 2000, ["ref"]),
              ("near", 2002, ["focal"]), ("far", 2010, ["focal", "ref"])]
    # S = {near, far}: (1 + (1 - 2)) / 2 = 0
    assert cd_row(focal_cd(papers)) == (0.0, 2, 2, 1)
    # within 5 years S = {near}: 1 / 1 = 1
    assert cd_row(focal_cd(papers, window=5)) == (1.0, 1, 1, 0)


def test_cd_leaves_out_a_co_author_citer_by_default():
    papers = [("ref", 1999, []), ("focal", 2000, ["ref"], ["Ann Smith"]),
              ("self", 2001, ["focal", "ref"], ["Ann Smith", "Bo Li"]),
              ("other", 2001, ["focal"], ["Cy Jones"])]
    # S = {other}: 1 / 1 = 1
    assert cd_row(focal_cd(papers)) == (1.0, 1, 1, 0)
    # S = {self, other}: ((1 - 2) + 1) / 2 = 0
    assert cd_row(focal_cd(papers, exclude_self_citations=False)) == (0.0, 2, 2, 1)


def test_cd_forward_reference_pulls_no_citer_into_b():
    # the focal (2000) cites a 2003 paper, which is no member of R, so its 2005
    # citer is not in S: S = {c}, 1 / 1 = 1 (counting it would give 1/2)
    assert cd_row(focal_cd([("focal", 2000, ["late"]), ("late", 2003, []),
                            ("c", 2004, ["focal"]), ("d", 2005, ["late"])])) == (1.0, 1, 1, 0)


def test_cd_citer_earlier_than_the_focal_never_counts():
    # "early" cites both but precedes the focal, so S = {c}: 1 / 1 = 1
    # (counting it would give (1 + (1 - 2)) / 2 = 0)
    assert cd_row(focal_cd([("ref", 1995, []), ("focal", 2000, ["ref"]),
                            ("early", 1998, ["focal", "ref"]),
                            ("c", 2001, ["focal"])])) == (1.0, 1, 1, 0)
