import csv
import random

import numpy as np

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from litla.citenet import (
    CdResult,
    cd_index,
    cd_index_all,
    cd_index_yearly,
    main_path_backbone,
    preferential_attachment_curve,
    rank_essential,
    trim_network,
    type_token_ratio,
    weight_edges,
)
from litla.errors import ConvergenceError
from litla.graph import FLAG_TEMPORAL_ANOMALY, PROJECTION_CITATION, ProjectedGraph, build_graph
from litla.cli import main
from litla.config import load_config
from litla.records import Author, PaperRecord, apply_exclusions

from conftest import attachment_snapshots, citation, random_dag, serialize_records, text_index


def rec(id, year, authors=(), refs=(), venue="V"):
    return PaperRecord(id=id, title=id, year=year,
                       authors=[Author(name=n, affiliation="X, UK") for n in authors],
                       venue=venue, references=list(refs), page_count=8)


# --- growth -----------------------------------------------------------------------


def growth_rows(tmp_path, config) -> list[tuple[int, int, int]]:
    """(year, nodes, edges) rows of growth.csv from ``litla citenet``."""
    out = tmp_path / "out"
    assert main(["citenet", "--config", str(config), "--output", str(out)]) == 0
    with open(out / "growth.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["year", "nodes", "edges"]
    return [tuple(int(v) for v in row) for row in rows[1:]]


def records_config(tmp_path, records):
    (tmp_path / "records.jsonl").write_text(serialize_records(records))
    config = tmp_path / "config.toml"
    config.write_text('[input]\nrecords = "records.jsonl"\n')
    return config


class TestGrowth:
    def test_empty(self, tmp_path):
        rejected = [PaperRecord(id="a", title="a", year=2010, page_count=1)]
        assert growth_rows(tmp_path, records_config(tmp_path, rejected)) == []

    def test_three_paper_chain(self, tmp_path):
        chain = [rec("a", 2010), rec("b", 2011, refs=["a"]), rec("c", 2012, refs=["b"])]
        assert growth_rows(tmp_path, records_config(tmp_path, chain)) == [
            (2010, 1, 0), (2011, 2, 1), (2012, 3, 2)]

    def test_fixture_matches_snapshot_oracle(self, fixture_dir, fixture_records, tmp_path):
        config = fixture_dir / "config.toml"
        kept, _ = apply_exclusions(fixture_records, load_config(config).exclusions)
        cit = build_graph(kept).project(PROJECTION_CITATION)
        rows = growth_rows(tmp_path, config)
        assert [y for y, _n, _e in rows] == list(range(2008, 2024))
        for y, n, e in rows:
            snap = cit.snapshot(y)
            assert (n, e) == (snap.node_count(), snap.edge_count())


# --- preferential attachment --------------------------------------------------------


class TestPreferentialAttachment:
    def test_linear_attachment_recovers_slope_one(self):
        _curve, fit = preferential_attachment_curve(attachment_snapshots("linear"))
        assert 0.9 <= fit.alpha <= 1.1

    def test_uniform_attachment_recovers_slope_zero(self):
        _curve, fit = preferential_attachment_curve(attachment_snapshots("uniform"))
        assert -0.1 <= fit.alpha <= 0.1

    def test_static_graph_all_gains_zero(self):
        g = citation([("b", "a")], years={"a": 2000, "b": 2001})
        curve, fit = preferential_attachment_curve([g, g])
        assert all(d == 0.0 for _k, d in curve)
        assert fit is None

    def test_requires_two_snapshots(self):
        g = citation([], years={"a": 2000})
        assert preferential_attachment_curve([g]) == ([], None)
        assert preferential_attachment_curve([]) == ([], None)


# --- CD index ----------------------------------------------------------------------


def cd_oracle(nodes, edges, years, focal, window=None):
    """Literal transcription of the CD formula over plain sets."""
    cites = {(u, v) for (u, v) in edges if years[u] >= years[v]}
    refs = {v for (u, v) in cites if u == focal}
    acc, total = 0, 0
    for i in sorted(nodes):
        if i == focal or years[i] <= years[focal]:
            continue
        if window is not None and years[i] > years[focal] + window:
            continue
        f = 1 if (i, focal) in cites else 0
        b = 1 if any((i, r) in cites for r in refs) else 0
        if f == 0 and b == 0:
            continue
        total += 1
        acc += f - 2 * f * b
    return acc / total if total else None


def cd_reference(cit, focal, window=None, exclude_self_citations=True):
    """The per-candidate CD loop: every later citer of the focal or of one of
    its references is checked edge by edge for f_i and b_i."""
    def valid(u, v):
        return FLAG_TEMPORAL_ANOMALY not in cit.edge_attrs(u, v).get("flags", frozenset())

    t0 = cit.nodes[focal]["year"]
    focal_authors = set(cit.nodes[focal].get("authors", ()))
    refs = {v for v in cit.successors(focal) if valid(focal, v)}
    candidates = {u for u in cit.predecessors(focal) if valid(u, focal)}
    for r in refs:
        candidates.update(u for u in cit.predecessors(r) if valid(u, r))
    candidates.discard(focal)
    total = f_count = b_count = acc = 0
    for i in sorted(candidates):
        yi = cit.nodes[i]["year"]
        if yi <= t0 or (window is not None and yi > t0 + window):
            continue
        if exclude_self_citations and focal_authors & set(cit.nodes[i].get("authors", ())):
            continue
        f = 1 if cit.has_edge(i, focal) and valid(i, focal) else 0
        b = 1 if any(cit.has_edge(i, r) and valid(i, r) for r in refs) else 0
        total += 1
        f_count += f
        b_count += b
        acc += f - 2 * f * b
    if total == 0:
        return None
    return CdResult(paper=focal, cd=acc / total, n_t=total, f_count=f_count, b_count=b_count)


def random_citation_graph(seed):
    """Small citation graph with same-year, backward (flagged) and mutual
    citations, and authors drawn from a pool of three."""
    rng = random.Random(seed)
    nodes = [f"p{i}" for i in range(rng.randint(2, 9))]
    years = {u: rng.randint(2000, 2004) for u in nodes}
    authors = {u: rng.sample(["x", "y", "z"], rng.randint(0, 2)) for u in nodes}
    edges = [(u, v) for u in nodes for v in nodes if u != v and rng.random() < 0.35]
    return citation(edges, years, authors=authors)


class TestCdIndex:
    def test_all_citers_focal_only_is_plus_one(self):
        years = {"focal": 2000, "c1": 2001, "c2": 2002, "c3": 2003}
        g = citation([("c1", "focal"), ("c2", "focal"), ("c3", "focal")], years)
        res = cd_index(g, "focal")
        assert res.cd == 1.0 and res.n_t == 3

    def test_all_citers_consolidating_is_minus_one(self):
        years = {"ref": 1999, "focal": 2000, "c1": 2001, "c2": 2001, "c3": 2002}
        edges = [("focal", "ref")]
        for c in ("c1", "c2", "c3"):
            edges += [(c, "focal"), (c, "ref")]
        res = cd_index(citation(edges, years), "focal")
        assert res.cd == -1.0

    def test_hand_graph_mixed_citers(self):
        years = {"ref": 1999, "focal": 2000, "c1": 2001, "c2": 2001, "c3": 2001}
        edges = [("focal", "ref"), ("c1", "focal"),
                 ("c2", "focal"), ("c2", "ref"), ("c3", "ref")]
        res = cd_index(citation(edges, years), "focal")
        assert res.cd == pytest.approx((1 - 1 + 0) / 3)
        assert res.n_t == 3 and res.f_count == 2 and res.b_count == 2

    def test_no_successors_is_absent(self):
        g = citation([("focal", "ref")], {"ref": 1999, "focal": 2000})
        assert cd_index(g, "focal") is None

    def test_window_limits_successors(self):
        years = {"focal": 2000, "near": 2001, "far": 2010}
        g = citation([("near", "focal"), ("far", "focal")], years)
        assert cd_index(g, "focal").n_t == 2
        assert cd_index(g, "focal", window=3).n_t == 1

    def test_self_citations_excluded_by_default(self):
        years = {"focal": 2000, "self": 2001, "other": 2001}
        authors = {"focal": ("a smith",), "self": ("a smith",), "other": ("b jones",)}
        g = citation([("self", "focal"), ("other", "focal")], years, authors=authors)
        assert cd_index(g, "focal").n_t == 1
        assert cd_index(g, "focal", exclude_self_citations=False).n_t == 2

    def test_unknown_focal_raises(self):
        g = citation([], {"a": 2000})
        with pytest.raises(KeyError):
            cd_index(g, "nope")

    @given(st.integers(0, 10_000))
    @settings(max_examples=120)
    def test_matches_bruteforce_on_random_dags(self, seed):
        nodes, edges, years = random_dag(seed, n_lo=2, n_hi=7, p=0.4)
        g = citation(edges, years)
        for focal in nodes:
            expected = cd_oracle(nodes, edges, years, focal)
            got = cd_index(g, focal, exclude_self_citations=False)
            if expected is None:
                assert got is None
            else:
                assert got.cd == pytest.approx(expected, abs=1e-12)
                assert -1.0 <= got.cd <= 1.0


class TestCdSetAlgebra:
    """``cd_index_all`` and ``cd_index`` against :func:`cd_reference` on the
    cases the acceptance DAGs never hold: flagged edges and self-citations."""

    @pytest.mark.parametrize("window", [None, 1, 2])
    @pytest.mark.parametrize("exclude_self_citations", [True, False])
    def test_matches_reference_with_flags_and_shared_authors(self, window,
                                                             exclude_self_citations):
        flagged = self_cited = 0
        for seed in range(300):
            g = random_citation_graph(seed)
            expected = [cd_reference(g, u, window, exclude_self_citations)
                        for u in sorted(g.nodes)]
            assert cd_index_all(g, window, exclude_self_citations) == \
                [r for r in expected if r is not None]
            for u, res in zip(sorted(g.nodes), expected):
                assert cd_index(g, u, window, exclude_self_citations) == res
                if res != cd_reference(g, u, window, not exclude_self_citations):
                    self_cited += 1
            flagged += any(FLAG_TEMPORAL_ANOMALY in a["flags"] for a in g.edges.values())
        # the sample really exercises both filters
        assert flagged > 100 and self_cited > 50

    def test_flagged_citation_counts_for_neither_side(self):
        years = {"ref": 2001, "focal": 2000, "c": 2002}
        g = citation([("focal", "ref"), ("c", "ref"), ("c", "focal")], years)
        assert g.edge_attrs("focal", "ref")["flags"] == {FLAG_TEMPORAL_ANOMALY}
        res = cd_index(g, "focal")
        assert (res.cd, res.n_t, res.f_count, res.b_count) == (1.0, 1, 1, 0)


class TestCdYearly:
    def test_single_paper_year(self):
        years = {"focal": 2000, "c": 2001}
        g = citation([("c", "focal")], years)
        series = cd_index_yearly(g, cd_index_all(g))
        assert series.years == [2000]
        assert series.values == [1.0]

    def test_undefined_years_omitted(self):
        g = citation([], {"lonely": 2005})
        series = cd_index_yearly(g, cd_index_all(g))
        assert series.years == []

    def test_fixture_mean_matches_per_paper_oracle(self, fixture_records):
        kg = build_graph(fixture_records[:80])
        cit = kg.project(PROJECTION_CITATION)
        series = cd_index_yearly(cit, cd_index_all(cit))
        by_year = {}
        for res in cd_index_all(cit):
            by_year.setdefault(cit.nodes[res.paper]["year"], []).append(res.cd)
        for y, v in zip(series.years, series.values):
            assert v == pytest.approx(sum(by_year[y]) / len(by_year[y]))


def ttr_of(texts_by_year: dict[int, list[str]]):
    """``type_token_ratio`` of papers with empty titles whose abstracts are
    the texts of each year."""
    texts = {f"{y}-{i}": text for y, year_texts in texts_by_year.items()
             for i, text in enumerate(year_texts)}
    return type_token_ratio(text_index(texts), {pid: int(pid.split("-")[0]) for pid in texts})


class TestTypeTokenRatio:
    def test_repeated_token(self):
        series = ttr_of({2000: ["a b a"]})
        assert series.values == [pytest.approx(2 / 3)]

    def test_all_distinct(self):
        series = ttr_of({2000: ["alpha beta gamma"]})
        assert series.values == [1.0]

    def test_empty_year_omitted(self):
        series = ttr_of({2000: [""], 2001: ["x y"]})
        assert series.years == [2001]

    def test_fixture_matches_set_len_oracle(self, fixture_records):
        from litla.textutil import tokenize

        texts = {}
        for r in fixture_records:
            texts.setdefault(r.year, []).append(r.title + " " + r.abstract)
        series = ttr_of(texts)
        for y, v in zip(series.years, series.values):
            tokens = []
            for t in texts[y]:
                tokens.extend(tokenize(t))
            assert v == pytest.approx(len(set(tokens)) / len(tokens))


# --- ranking ----------------------------------------------------------------------


def rank_oracle(kg, damping=0.85, tol=1e-12, max_iter=2000):
    """Plain-dict reimplementation of the mutual-reinforcement fixed point
    with zero time decay, reading authors and venues from the paper nodes of
    the knowledge graph rather than from the citation projection."""
    papers = [r.key for r in kg.nodes_of_type("paper")]
    authors = sorted({a for p in papers for a in kg.paper(p)["authors"]})
    venues = sorted({kg.paper(p)["venue"] for p in papers if kg.paper(p)["venue"]})
    cit = kg.project(PROJECTION_CITATION)
    outdeg = {p: len(cit.successors(p)) for p in papers}
    p_score = {p: 1 / len(papers) for p in papers}
    a_score = {a: 1 / len(authors) for a in authors} if authors else {}
    v_score = {v: 1 / len(venues) for v in venues} if venues else {}
    for _ in range(max_iter):
        new_p = {}
        for u in papers:
            cit_term = sum(p_score[c] / max(outdeg[c], 1)
                           for c in sorted(cit.predecessors(u)))
            au = kg.paper(u)["authors"]
            a_term = sum(a_score[a] for a in au) / len(au) if au else 0.0
            v_term = v_score.get(kg.paper(u)["venue"], 0.0)
            new_p[u] = damping * (cit_term + a_term + v_term) / 3 \
                + (1 - damping) / len(papers)
        z = sum(new_p.values())
        new_p = {u: s / z for u, s in new_p.items()}
        new_a = {}
        for a in authors:
            mine = [p for p in papers if a in kg.paper(p)["authors"]]
            new_a[a] = sum(new_p[p] for p in mine) / len(mine)
        if new_a:
            za = sum(new_a.values())
            new_a = {a: s / za for a, s in new_a.items()}
        new_v = {}
        for v in venues:
            mine = [p for p in papers if kg.paper(p)["venue"] == v]
            new_v[v] = sum(new_p[p] for p in mine) / len(mine)
        if new_v:
            zv = sum(new_v.values())
            new_v = {v: s / zv for v, s in new_v.items()}
        resid = max(abs(new_p[u] - p_score[u]) for u in papers)
        if new_a:
            resid = max(resid, max(abs(new_a[a] - a_score[a]) for a in authors))
        if new_v:
            resid = max(resid, max(abs(new_v[v] - v_score[v]) for v in venues))
        p_score, a_score, v_score = new_p, new_a, new_v
        if resid < tol:
            break
    return p_score


class TestRankEssential:
    def test_single_paper_scores_one(self):
        cit = build_graph([rec("only", 2010, authors=["a b"])]).project(PROJECTION_CITATION)
        assert rank_essential(cit) == {"only": 1.0}

    def test_symmetric_twins_equal_scores(self):
        kg = build_graph([
            rec("t1", 2010, authors=["a one"], venue="V"),
            rec("t2", 2010, authors=["b two"], venue="V"),
        ])
        scores = rank_essential(kg.project(PROJECTION_CITATION))
        assert scores["t1"] == pytest.approx(scores["t2"], abs=1e-12)

    def test_toy_graph_matches_iteration_oracle(self):
        kg = build_graph([
            rec("a", 2008, authors=["x x"], venue="V1"),
            rec("b", 2009, authors=["x x", "y y"], venue="V1", refs=["a"]),
            rec("c", 2010, authors=["y y"], venue="V2", refs=["a", "b"]),
            rec("d", 2011, authors=["z z"], venue="V2", refs=["b", "c"]),
            rec("e", 2012, authors=["z z", "x x"], venue="V1", refs=["a", "d"]),
            rec("f", 2012, authors=["w w"], venue="V2", refs=["e", "a"]),
        ])
        got = rank_essential(kg.project(PROJECTION_CITATION), decay=0.0, tol=1e-13,
                             max_iter=3000)
        expected = rank_oracle(kg)
        for pid, score in expected.items():
            assert got[pid] == pytest.approx(score, abs=1e-8)
        assert sum(got.values()) == pytest.approx(1.0, abs=1e-9)

    def test_scores_sum_one_and_positive(self, fixture_records):
        cit = build_graph(fixture_records[:60]).project(PROJECTION_CITATION)
        scores = rank_essential(cit)
        assert sum(scores.values()) == pytest.approx(1.0, abs=1e-9)
        assert all(s > 0 for s in scores.values())

    def test_zero_max_iter_rejected(self):
        cit = build_graph([rec("a", 2010, authors=["x x"]),
                           rec("b", 2011, authors=["y y"], refs=["a"])]).project(PROJECTION_CITATION)
        with pytest.raises(ValueError, match="max_iter must be positive"):
            rank_essential(cit, max_iter=0)

    def test_nonconvergence_raises_with_residual(self):
        cit = build_graph([rec("a", 2010, authors=["x x"]),
                           rec("b", 2011, authors=["y y"], refs=["a"])]).project(PROJECTION_CITATION)
        with pytest.raises(ConvergenceError) as err:
            rank_essential(cit, tol=0.0, max_iter=3)
        assert err.value.residual >= 0.0


def rank_essential_reference(cit, decay=0.2, damping=0.85, tol=1e-10, max_iter=500):
    """:func:`rank_essential` with its author and venue halves written out
    one by one and each sparse sum by ``np.add.at``."""
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


def ranked_corpus(years, cites, authors, venues) -> ProjectedGraph:
    """Citation projection of papers ``p0, p1, ...`` with the given years,
    author tuples and venues (None or "" for none); ``cites`` holds
    (citer, cited) index pairs."""
    names = [f"p{i}" for i in range(len(years))]
    nodes = {pid: {"year": y, "authors": tuple(au), "venue": v}
             for pid, y, au, v in zip(names, years, authors, venues)}
    edges = {(names[i], names[j]): {"year": years[i], "weight": 1.0, "flags": frozenset()}
             for i, j in cites if i != j}
    return ProjectedGraph(directed=True, nodes=nodes, edges=edges)


@st.composite
def ranked_corpora(draw):
    """(years, cites, authors, venues): up to 12 papers over pools of up to
    4 authors and 3 venues; an empty pool gives a corpus without any, and
    a paper may have none or cite and be cited by none."""
    n = draw(st.integers(1, 12))
    author_pool = [f"a{k}" for k in range(draw(st.integers(0, 4)))]
    venue_pool = [f"v{k}" for k in range(draw(st.integers(0, 3)))]
    years = draw(st.lists(st.integers(2000, 2005), min_size=n, max_size=n))
    cites = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n))
    names = st.lists(st.sampled_from(author_pool), max_size=3, unique=True) \
        if author_pool else st.just([])
    authors = draw(st.lists(names, min_size=n, max_size=n))
    venue = st.sampled_from([None, "", *venue_pool])
    venues = draw(st.lists(venue, min_size=n, max_size=n))
    return years, cites, authors, venues


def rank_outcome(rank, cit, **kwargs):
    """The repr of every score, or of the residual of a ConvergenceError."""
    try:
        return {pid: repr(s) for pid, s in rank(cit, **kwargs).items()}
    except ConvergenceError as err:
        return ("ConvergenceError", str(err), repr(err.residual))


NO_AUTHOR_AT_ALL = ([2000, 2001, 2002, 2003], [(1, 0), (2, 0), (2, 1)], [[], [], [], []],
                    ["v0", None, "v1", "v0"])
NO_VENUE_AT_ALL = ([2000, 2001, 2002, 2003], [(1, 0), (3, 1)], [["a0"], ["a0", "a1"], [], ["a1"]],
                   [None, "", None, None])
NEITHER_AND_UNCITED = ([2000, 2003, 2001], [], [[], [], []], [None, None, ""])
MIXED_WITH_ISOLATED = ([2000, 2001, 2002, 2004, 2004], [(1, 0), (2, 0), (2, 1)],
                       [["a0"], [], ["a1", "a0"], ["a2"], []], ["v0", "v0", None, "v1", None])


class TestRankEssentialReference:
    @given(ranked_corpora(), st.sampled_from([0.0, 0.2, 1.0]), st.sampled_from([0.5, 0.85]),
           st.sampled_from([(1e-10, 500), (1e-13, 40), (0.0, 3)]))
    @example(NO_AUTHOR_AT_ALL, 0.2, 0.85, (1e-10, 500))
    @example(NO_VENUE_AT_ALL, 0.2, 0.85, (1e-10, 500))
    @example(NEITHER_AND_UNCITED, 0.2, 0.85, (1e-10, 500))
    @example(MIXED_WITH_ISOLATED, 0.2, 0.85, (1e-10, 500))
    @example(MIXED_WITH_ISOLATED, 0.2, 0.85, (0.0, 3))
    @settings(max_examples=200)
    def test_every_score_and_residual_keeps_its_bits(self, corpus, decay, damping, stop):
        cit = ranked_corpus(*corpus)
        tol, max_iter = stop
        kwargs = dict(decay=decay, damping=damping, tol=tol, max_iter=max_iter)
        assert rank_outcome(rank_essential, cit, **kwargs) == \
            rank_outcome(rank_essential_reference, cit, **kwargs)

    def test_fixture_scores_keep_their_bits(self, fixture_records):
        cit = build_graph(fixture_records).project(PROJECTION_CITATION)
        want = rank_outcome(rank_essential_reference, cit)
        assert isinstance(want, dict) and rank_outcome(rank_essential, cit) == want

    def test_convergence_error_keeps_its_residual(self, fixture_records):
        cit = build_graph(fixture_records).project(PROJECTION_CITATION)
        want = rank_outcome(rank_essential_reference, cit, max_iter=50)
        assert want[0] == "ConvergenceError"
        assert rank_outcome(rank_essential, cit, max_iter=50) == want


# --- trimming ----------------------------------------------------------------------


def closure(nodes, edges):
    succ = {u: set() for u in nodes}
    for u, v in edges:
        succ[u].add(v)
    out = {}
    for u in nodes:
        seen = set()
        stack = [u]
        while stack:
            x = stack.pop()
            for y in succ[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        out[u] = seen
    return out


class TestTrim:
    def test_triangle_shortcut_removed(self):
        kept = trim_network(["a", "b", "c"], {("a", "b"), ("b", "c"), ("a", "c")})
        assert kept == {("a", "b"), ("b", "c")}

    def test_bare_path_unchanged(self):
        edges = {("a", "b"), ("b", "c")}
        assert trim_network(["a", "b", "c"], edges) == edges

    def test_cycle_rejected(self):
        for nodes, edges in ((["a", "b"], {("a", "b"), ("b", "a")}), (["a"], {("a", "a")})):
            with pytest.raises(ValueError, match="cycle"):
                trim_network(nodes, edges)

    @given(st.integers(0, 10_000))
    @settings(max_examples=100)
    def test_random_dag_matches_onehop_oracle_and_preserves_closure(self, seed):
        nodes, edges, _years = random_dag(seed, n_lo=3, n_hi=15, p=0.35)
        edge_set = set(edges)
        kept = trim_network(nodes, edge_set)
        succ = {u: {v for (x, v) in edge_set if x == u} for u in nodes}
        expected = {
            (u, w) for (u, w) in edge_set
            if not any(w in succ[v] for v in succ[u] if v != w)
        }
        assert kept == expected
        assert closure(nodes, kept) == closure(nodes, edge_set)


# --- edge weighting ------------------------------------------------------------------


def weight_edges_reference(trimmed_edges, full):
    """:func:`weight_edges` as set algebra on the endpoints' names."""
    edges = sorted(set(trimmed_edges))
    cocites = {}
    jaccards = {}
    for u, v in edges:
        citers_u = full.predecessors(u)
        citers_v = full.predecessors(v)
        cocites[(u, v)] = len(citers_u & citers_v)
        refs_u = full.successors(u) - {v}
        refs_v = full.successors(v) - {u}
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


class TestWeightEdges:
    @given(st.integers(0, 10_000), st.booleans())
    @settings(max_examples=100)
    def test_random_dag_matches_set_reference_bit_for_bit(self, seed, trim):
        nodes, edges, years = random_dag(seed, n_lo=2, n_hi=15, p=0.35)
        cit = citation(edges, years)
        surviving = trim_network(nodes, set(edges)) if trim else set(edges)
        got = weight_edges(surviving, cit)
        want = weight_edges_reference(surviving, cit)
        assert got.nodes == want.nodes
        assert list(got.edges) == list(want.edges)
        for pair, attrs in want.edges.items():
            assert {k: repr(x) for k, x in got.edges[pair].items()} == \
                {k: repr(x) for k, x in attrs.items()}

    def test_no_cociters_disjoint_refs_weight_zero(self):
        years = {"u": 2001, "v": 2000}
        g = citation([("u", "v")], years)
        backbone = weight_edges({("u", "v")}, g)
        assert backbone.edges[("u", "v")]["weight"] == 0.0

    def test_identical_reference_sets_jaccard_one(self):
        years = {"r1": 1999, "r2": 1999, "u": 2001, "v": 2000}
        edges = [("u", "r1"), ("u", "r2"), ("v", "r1"), ("v", "r2"), ("u", "v")]
        backbone = weight_edges({("u", "v")}, citation(edges, years))
        assert backbone.edges[("u", "v")]["jaccard"] == 1.0

    def test_eight_node_fixture_hand_values(self):
        years = {"a": 2000, "b": 2001, "c": 2002, "d": 2003,
                 "w": 2004, "x": 2004, "y": 2004, "z": 2004}
        edges = [
            ("b", "a"), ("c", "a"), ("c", "b"), ("d", "b"), ("d", "c"),
            # co-citers
            ("w", "b"), ("w", "c"), ("x", "b"), ("x", "c"), ("y", "c"),
            ("y", "d"), ("z", "d"),
        ]
        g = citation(edges, years)
        surviving = {("c", "b"), ("d", "c")}
        backbone = weight_edges(surviving, g)
        # cocite(c,b) = |{w,x,d}| = 3; cocite(d,c) = |{y}| = 1
        # refs exclude the weighted pair itself:
        #   (c,b): refs(c)\{b}={a}, refs(b)\{c}={a} -> jac 1
        #   (d,c): refs(d)\{c}={b}, refs(c)\{d}={a,b} -> jac 1/2
        cb = backbone.edges[("c", "b")]
        dc = backbone.edges[("d", "c")]
        assert cb["cocite"] == 3 and dc["cocite"] == 1
        assert cb["jaccard"] == pytest.approx(1.0, abs=1e-12)
        assert dc["jaccard"] == pytest.approx(0.5, abs=1e-12)
        # min-max over {3, 1}: c,b -> 1.0; d,c -> 0.0
        assert cb["weight"] == pytest.approx((1.0 + 1.0) / 2, abs=1e-12)
        assert dc["weight"] == pytest.approx((0.0 + 0.5) / 2, abs=1e-12)

    def test_max_cocite_normalizes_to_one(self):
        years = {"a": 2000, "b": 2001, "p": 2002, "q": 2002, "r": 2003}
        edges = [("b", "a"), ("p", "a"), ("p", "b"), ("q", "a"), ("q", "b"),
                 ("r", "p"), ("r", "q")]
        g = citation(edges, years)
        backbone = weight_edges({("b", "a"), ("q", "p")}, g)
        cocites = {pair: attrs["cocite"] for pair, attrs in backbone.edges.items()}
        assert cocites[("b", "a")] == 2 and cocites[("q", "p")] == 1
        assert backbone.edges[("b", "a")]["weight"] >= 0.5  # normalized cocite = 1

    def test_weights_in_unit_interval(self, fixture_records):
        kg = build_graph(fixture_records)
        cit = kg.project(PROJECTION_CITATION)
        edges = sorted(cit.edges)[:40]
        backbone = weight_edges(set(edges), cit)
        for attrs in backbone.edges.values():
            assert 0.0 <= attrs["weight"] <= 1.0


# --- full pipeline -------------------------------------------------------------------


class TestBackbone:
    def test_chain_backbone_is_trimmed_chain(self):
        records = [rec("p0", 2008, authors=["a a"])]
        for i in range(1, 5):
            records.append(rec(f"p{i}", 2008 + i, authors=["a a"],
                               refs=[f"p{i-1}"]))
        cit = build_graph(records).project(PROJECTION_CITATION)
        backbone = main_path_backbone(cit, k=5)
        assert set(backbone.nodes) == {f"p{i}" for i in range(5)}
        assert set(backbone.edges) == {(f"p{i}", f"p{i-1}") for i in range(1, 5)}

    def test_k_two_at_most_one_edge(self, fixture_records):
        cit = build_graph(fixture_records[:40]).project(PROJECTION_CITATION)
        backbone = main_path_backbone(cit, k=2)
        assert len(backbone.nodes) == 2
        assert len(backbone.edges) <= 1

    def test_k_below_two_rejected(self, fixture_records):
        cit = build_graph(fixture_records[:10]).project(PROJECTION_CITATION)
        with pytest.raises(ValueError):
            main_path_backbone(cit, k=1)

    def test_staged_oracle_composition(self, fixture_records):
        cit = build_graph(fixture_records[:30]).project(PROJECTION_CITATION)
        k = 10
        backbone = main_path_backbone(cit, k=k)
        scores = rank_essential(cit)
        top = sorted(scores, key=lambda p: (-scores[p], p))[:k]
        assert set(backbone.nodes) == set(top)
        induced = {(u, v) for (u, v) in cit.edges
                   if u in set(top) and v in set(top)
                   and not cit.edges[(u, v)]["flags"]}
        trimmed = trim_network(top, induced)
        expected = weight_edges(trimmed, cit)
        assert set(backbone.edges) == set(expected.edges)
        for pair, attrs in expected.edges.items():
            assert backbone.edges[pair]["weight"] == pytest.approx(
                attrs["weight"], abs=1e-12)
        for pid in top:
            assert backbone.nodes[pid]["score"] == pytest.approx(scores[pid])
            assert backbone.nodes[pid]["citations"] == cit.in_degree(pid)
