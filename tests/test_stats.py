from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from litla.graph import NODE_AUTHOR, NODE_PAPER, build_graph, canonical
from litla.records import INTENT_LABELS, PUB_TYPES, Author, CitationStatement, PaperRecord
from litla.stats import (
    FACETS,
    YearSeries,
    authors_per_year,
    author_country_tally,
    distribution,
    fit_quadratic,
    publications_per_year,
)


def rec(id, year, authors=(), pub_type="journal", cats=(), intents=()):
    return PaperRecord(
        id=id, title="t", year=year, pub_type=pub_type,
        authors=[Author(name=n, affiliation=aff) for n, aff in authors],
        subject_categories=list(cats),
        citation_statements=[CitationStatement(text="s", intent=i) for i in intents],
        page_count=8,
    )


class TestYearSeries:
    def test_zero_filled_counts(self):
        kg = build_graph([rec("a", 2010), rec("b", 2012), rec("c", 2012)])
        series = publications_per_year(kg)
        assert series.years == [2010, 2011, 2012]
        assert series.values == [1.0, 0.0, 2.0]

    def test_empty_corpus(self):
        kg = build_graph([])
        assert publications_per_year(kg).years == []

    def test_fixture_matches_groupby_oracle(self, fixture_records):
        kg = build_graph(fixture_records)
        series = publications_per_year(kg)
        oracle = Counter(r.year for r in fixture_records)
        assert dict(zip(series.years, series.values)) == {
            y: float(oracle.get(y, 0)) for y in series.years}
        assert sum(series.values) == len(fixture_records)

    def test_strictly_increasing_years_enforced(self):
        with pytest.raises(ValueError):
            YearSeries([2010, 2010], [1.0, 2.0])


class TestAuthorsPerYear:
    def test_repeat_author_deduped_in_cumulative(self):
        kg = build_graph([
            rec("a", 2010, authors=[("Solo Author", "X, UK")]),
            rec("b", 2011, authors=[("Solo Author", "X, UK")]),
        ])
        per_year, cumulative = authors_per_year(kg)
        assert per_year.values == [1.0, 1.0]
        assert cumulative.values == [1.0, 1.0]

    def test_disjoint_authors_cumulative_is_running_sum(self):
        kg = build_graph([
            rec("a", 2010, authors=[("A One", "X, UK")]),
            rec("b", 2011, authors=[("B Two", "X, UK")]),
            rec("c", 2012, authors=[("C Three", "X, UK")]),
        ])
        per_year, cumulative = authors_per_year(kg)
        assert cumulative.values == [1.0, 2.0, 3.0]

    def test_fixture_matches_set_union_oracle(self, fixture_records):
        kg = build_graph(fixture_records)
        per_year, cumulative = authors_per_year(kg)
        by_year = {}
        for r in fixture_records:
            by_year.setdefault(r.year, set()).update(canonical(a.name) for a in r.authors)
        seen = set()
        for year, cum in zip(cumulative.years, cumulative.values):
            assert dict(zip(per_year.years, per_year.values))[year] == \
                float(len(by_year.get(year, ())))
            seen |= by_year.get(year, set())
            assert cum == float(len(seen))

    def test_cumulative_bounds(self, fixture_records):
        kg = build_graph(fixture_records)
        per_year, cumulative = authors_per_year(kg)
        running = np.cumsum(per_year.values)
        for cum, run, py in zip(cumulative.values, running, per_year.values):
            assert py <= cum <= run


def publications_per_year_reference(kg):
    """:func:`publications_per_year` as it was before the knowledge graph
    held the corpus's ``years``."""
    papers = kg.nodes_of_type(NODE_PAPER)
    if not papers:
        return YearSeries([], [])
    counts = Counter(kg.nodes[ref]["year"] for ref in papers)
    lo, hi = kg.corpus_year_range
    years = list(range(lo, hi + 1))
    return YearSeries(years, [float(counts.get(y, 0)) for y in years])


def authors_per_year_reference(kg):
    """:func:`authors_per_year` as a running union of each year's authors."""
    authors = kg.nodes_of_type(NODE_AUTHOR)
    if not authors:
        return YearSeries([], []), YearSeries([], [])
    by_year: dict[int, set[str]] = {}
    for ref in authors:
        for year, _pid, _country in kg.nodes[ref]["incidences"]:
            by_year.setdefault(year, set()).add(ref.key)
    lo, hi = kg.corpus_year_range
    years = list(range(lo, hi + 1))
    per_year = [float(len(by_year.get(y, ()))) for y in years]
    seen: set[str] = set()
    cumulative = []
    for y in years:
        seen |= by_year.get(y, set())
        cumulative.append(float(len(seen)))
    return YearSeries(years, per_year), YearSeries(years, cumulative)


# a record: its year and its author names, from a small pool so that authors
# publish in several years; a name may be listed twice on one record, another
# spelling may share its canonical key, and a blank name gives no author
yearly_records = st.lists(
    st.tuples(st.integers(2000, 2008),
              st.lists(st.sampled_from(["Ann Lee", "ann  lee", "Bo Chen", "Cy Diaz", " "]),
                       max_size=4)),
    max_size=12)


@given(yearly_records, st.randoms(use_true_random=False))
def test_yearly_series_keep_the_reference_bits(drawn, rnd):
    ids = [f"p{i:02d}" for i in range(len(drawn))]
    rnd.shuffle(ids)  # ids out of year order
    kg = build_graph([rec(pid, year, authors=[(name, "X, UK") for name in names])
                      for pid, (year, names) in zip(ids, drawn)])
    assert repr(publications_per_year(kg)) == repr(publications_per_year_reference(kg))
    assert repr(authors_per_year(kg)) == repr(authors_per_year_reference(kg))


class TestQuadraticFit:
    def test_exact_quadratic_recovered(self):
        t = list(range(8))
        series = YearSeries(t, [2.0 * x * x + 3.0 for x in t])
        fit = fit_quadratic(series)
        assert abs(fit.a - 2.0) < 1e-9
        assert abs(fit.b) < 1e-9
        assert abs(fit.c - 3.0) < 1e-9
        assert abs(fit.r_squared - 1.0) < 1e-9

    def test_constant_series_degenerate(self):
        with pytest.raises(ValueError, match="degenerate variance"):
            fit_quadratic(YearSeries([1, 2, 3, 4], [5.0] * 4))

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_quadratic(YearSeries([1, 2, 3], [1.0, 4.0, 9.0]))

    def test_noisy_quadratic_r2(self):
        # cumulative-publication shape: quadratic plus 1% noise keeps R^2 high
        rng = np.random.default_rng(7)
        years = list(range(2008, 2024))
        t = np.arange(len(years))
        y = 5.0 * t * t + 12.0 * t + 20.0
        y = y * (1.0 + 0.01 * rng.standard_normal(len(t)))
        fit = fit_quadratic(YearSeries(years, y.tolist()))
        assert fit.r_squared >= 0.99

    @given(st.integers(-300, 300))
    def test_r_squared_invariant_to_year_shift(self, shift):
        years = [2000, 2001, 2002, 2003, 2004, 2005]
        values = [1.0, 2.5, 7.0, 13.0, 22.0, 33.5]
        base = fit_quadratic(YearSeries(years, values))
        shifted = fit_quadratic(YearSeries([y + shift for y in years], values))
        assert shifted.r_squared == pytest.approx(base.r_squared, abs=1e-9)
        assert shifted.a == pytest.approx(base.a, abs=1e-9)


class TestDistribution:
    def test_pub_type_shares(self):
        kg = build_graph([rec(f"j{i}", 2010) for i in range(3)]
                         + [rec("c0", 2010, pub_type="conference")])
        rows = distribution(kg, "pub_type")
        assert rows[0] == ("journal", 3, 0.75)
        assert rows[1] == ("conference", 1, 0.25)

    def test_intent_counts_per_statement(self):
        kg = build_graph([
            rec("a", 2010, intents=["method", "method"]),
            rec("b", 2010, intents=["background", "extension"]),
        ])
        rows = dict((label, share) for label, _n, share in distribution(kg, "intent"))
        assert rows["method"] == 0.5

    def test_fixture_matches_groupby_oracle(self, fixture_records):
        kg = build_graph(fixture_records)
        oracle = Counter()
        for r in fixture_records:
            oracle.update(set(r.subject_categories))
        rows = distribution(kg, "subject_category")
        assert {label: n for label, n, _ in rows} == dict(oracle)

    def test_shares_sum_to_one_untruncated(self, fixture_records):
        kg = build_graph(fixture_records)
        for facet in ("venue", "pub_type", "subject_category", "intent", "country"):
            rows = distribution(kg, facet)
            if rows:
                assert abs(sum(share for _l, _n, share in rows) - 1.0) < 1e-12

    def test_author_country_tally_shares(self, fixture_records):
        kg = build_graph(fixture_records)
        rows = author_country_tally(kg)
        assert abs(sum(share for _l, _n, share in rows) - 1.0) < 1e-12
        assert sum(n for _l, n, _s in rows) == kg.node_count("author")


def facet_values_reference(attrs: dict, facet: str) -> list[str]:
    """The labels one paper node adds to ``facet``, as :func:`distribution`
    once chose them per facet name."""
    if facet == "venue":
        return [attrs["venue"]] if attrs["venue"] else []
    if facet == "pub_type":
        return [attrs["pub_type"]]
    if facet == "subject_category":
        return sorted(set(attrs["subject_categories"]))
    if facet == "intent":
        return list(attrs["intents"])  # one count per labeled statement
    if facet == "country":
        return sorted(set(attrs["countries"]))
    raise ValueError(f"unknown facet {facet!r}")


def distribution_reference(kg, facet: str) -> list[tuple[str, int, float]]:
    counts = Counter()
    for ref in kg.nodes_of_type(NODE_PAPER):
        counts.update(facet_values_reference(kg.nodes[ref], facet))
    total = sum(counts.values())
    rows = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [(label, n, n / total) for label, n in rows]


_AUTHORS = st.lists(st.tuples(st.sampled_from(["Ann Lee", "Bo Li", "Cy Diaz"]),
                              # no affiliation, one without a country, two countries
                              st.sampled_from(["", "Lab of Nowhere", "Lab, UK", "Lab, China"])),
                    max_size=3)


@st.composite
def facet_records(draw):
    n = draw(st.integers(0, 6))
    return [PaperRecord(
        id=f"p{i}", title="t", year=2010, page_count=8,
        venue=draw(st.sampled_from(["", "GECCO", "CEC"])),
        pub_type=draw(st.sampled_from(PUB_TYPES)),
        authors=[Author(name=name, affiliation=aff) for name, aff in draw(_AUTHORS)],
        subject_categories=draw(st.lists(st.sampled_from(["AI", "OR", "Math"]), max_size=4)),
        citation_statements=[CitationStatement(text="s", intent=intent) for intent in draw(
            st.lists(st.sampled_from([None, *INTENT_LABELS]), max_size=4))],
    ) for i in range(n)]


@given(facet_records())
def test_distribution_matches_reference(records):
    kg = build_graph(records)
    for facet in FACETS:
        assert repr(distribution(kg, facet)) == repr(distribution_reference(kg, facet))
