"""Descriptive corpus statistics: yearly series, quadratic growth fits and
faceted distributions."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from operator import add, itemgetter

import numpy as np

from .countries import UNKNOWN
from .graph import NODE_AUTHOR, NODE_PAPER, KnowledgeGraph


def ordered_sum(values) -> float:
    """``values`` added left to right from 0, the same bits on every Python.

    A report never reads the builtin ``sum()`` of floats: from Python 3.12
    it adds floats with Neumaier compensation, which 3.11 does not, so the
    last bits of the two sums can differ."""
    return reduce(add, values, 0)


@dataclass
class YearSeries:
    years: list[int]
    values: list[float]

    def __post_init__(self):
        if len(self.years) != len(self.values):
            raise ValueError("years and values must have equal length")
        if any(b <= a for a, b in zip(self.years, self.years[1:])):
            raise ValueError("years must be strictly increasing")

    def cumulative(self) -> "YearSeries":
        return YearSeries(list(self.years), list(accumulate(self.values, initial=0.0))[1:])


@dataclass
class QuadFit:
    a: float
    b: float
    c: float
    r_squared: float


def _counts_per_year(kg: KnowledgeGraph, years) -> YearSeries:
    """``years`` counted per year, zero-filled across the corpus's years."""
    counts = Counter(years)
    return YearSeries(list(kg.years), [float(counts[y]) for y in kg.years])


def publications_per_year(kg: KnowledgeGraph) -> YearSeries:
    """Paper counts per year, zero-filled across the corpus's years."""
    return _counts_per_year(kg, (kg.nodes[ref]["year"] for ref in kg.nodes_of_type(NODE_PAPER)))


def authors_per_year(kg: KnowledgeGraph) -> tuple[YearSeries, YearSeries]:
    """(distinct authors publishing each year, cumulative distinct authors).

    The cumulative series adds each author in the year of their first
    paper, so an author active in several years is counted once.
    """
    authors = kg.nodes_of_type(NODE_AUTHOR)
    if not authors:
        return YearSeries([], []), YearSeries([], [])
    per_year = _counts_per_year(kg, (year for ref in authors
                                     for year in {y for y, _, _ in kg.nodes[ref]["incidences"]}))
    firsts = _counts_per_year(kg, (kg.nodes[ref]["year"] for ref in authors))
    return per_year, firsts.cumulative()


def fit_quadratic(series: YearSeries) -> QuadFit:
    """OLS quadratic fit y = a*t^2 + b*t + c on years centered at the first
    year (raw calendar years square to ~4e6 and lose conditioning)."""
    if len(series.years) < 4:
        raise ValueError("quadratic fit requires at least 4 points")
    t = np.asarray(series.years, dtype=float)
    t -= t[0]
    y = np.asarray(series.values, dtype=float)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        raise ValueError("degenerate variance: series is constant")
    coeffs = np.polyfit(t, y, 2)
    resid = y - np.polyval(coeffs, t)
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot
    a, b, c = (float(v) for v in coeffs)
    return QuadFit(a=a, b=b, c=c, r_squared=r2)


# each facet's labels on one paper node: the stored multi-valued tuples hold
# each category and country once, and one intent per labeled statement
FACETS = {
    "venue": lambda paper: (paper["venue"],) if paper["venue"] else (),
    "pub_type": lambda paper: (paper["pub_type"],),
    "subject_category": itemgetter("subject_categories"),
    "intent": itemgetter("intents"),
    "country": itemgetter("countries"),
}


def distribution(kg: KnowledgeGraph, facet: str) -> list[tuple[str, int, float]]:
    """(label, count, share) rows, count-descending then label-ascending.

    Multi-valued facets contribute one count per distinct (paper, value)
    pair, intents one count per labeled citation statement.
    """
    labels_of = FACETS[facet]
    counts: Counter[str] = Counter()
    for ref in kg.nodes_of_type(NODE_PAPER):
        counts.update(labels_of(kg.nodes[ref]))
    return _ranked_shares(counts)


def author_country_tally(kg: KnowledgeGraph) -> list[tuple[str, int, float]]:
    """Researchers per country, each author assigned their modal country."""
    return _ranked_shares(Counter(modal_country(kg.nodes[ref]["incidences"])
                                 for ref in kg.nodes_of_type(NODE_AUTHOR)))


def _ranked_shares(counts: Counter[str]) -> list[tuple[str, int, float]]:
    """(label, count, share) rows, count-descending then label-ascending."""
    total = sum(counts.values())
    rows = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [(label, n, n / total) for label, n in rows]


def modal_label(labels, missing) -> str:
    """Most frequent label other than ``missing``, as a string; ties break
    in string order; UNKNOWN when no label is left."""
    counts = Counter(str(label) for label in labels if label != missing)
    if not counts:
        return UNKNOWN
    return min(counts, key=lambda label: (-counts[label], label))


def modal_country(incidences) -> str:
    """Most frequent resolved country across (year, paper, country) incidences."""
    return modal_label((c for _y, _p, c in incidences), UNKNOWN)
