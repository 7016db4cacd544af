"""The pipeline's stages and the corpus they share.

Each stage reads one lazy :class:`Corpus` and writes its reports through
``out(name)``; :data:`STAGE_FUNCS` maps each stage name of
:data:`litla.cli.STAGES` to its function. This module loads numpy and every
analysis module, so :mod:`litla.cli` imports it only when a run begins.
"""

from __future__ import annotations

import gc
from collections import Counter
from dataclasses import asdict
from functools import cached_property

from . import citenet as cn
from . import collabnet as co
from . import predict as pr
from . import stats, topics
from .config import RunConfig
from .exports import (
    kg_to_dot,
    kg_to_graphml,
    projected_to_graphml,
    write_csv,
    write_json,
    write_text,
)
from .graph import (
    EDGE_CITES,
    FLAG_CYCLE,
    FLAG_TEMPORAL_ANOMALY,
    NODE_AUTHOR,
    NODE_PAPER,
    NODE_TYPES,
    PROJECTION_CITATION,
    PROJECTION_COAUTHORSHIP,
    PROJECTION_KEYWORD,
    KnowledgeGraph,
    build_graph,
)
from .powerlaw import fit_power_law_mle
from .records import apply_exclusions, load_records, rejection_counts


class Corpus:
    """Everything the stages of one invocation read, each part computed on
    first use and then shared.

    It holds only the parts that two or more stages read, and beside the
    graph the few figures ingest writes about the records, so that no
    record outlives the build. A part whose computation raises is not
    cached, so every stage that reads it fails the same way. Stages must
    not mutate what they read.
    When :func:`litla.cli.run_stages` forks workers, the parent has built
    the graph (its first stage reads it), and ``assignment`` when both
    topics and collabnet run; each worker inherits them and computes any
    other part it reads itself.
    """

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self._freeze_built = False  # run_stages sets it when it owns the frozen set

    @cached_property
    def built(self) -> tuple[KnowledgeGraph, int, list, list]:
        """The knowledge graph of the screened records, the number of records
        parsed, the (line, message) parse-error rows and the sorted (id,
        reason) rejection rows.

        The collector is off while the corpus is built: the build allocates
        many objects and frees no cycles, so each pass would only walk what
        it keeps. The caller's collector state is restored on the way out."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            records, errors = load_records(self.cfg.records_path)
            kept, rejected = apply_exclusions(records, self.cfg.exclusions)
            built = (build_graph(kept), len(records), [(e.line, e.message) for e in errors],
                     sorted((rec.id, reason) for rec, reason in rejected))
            del records, kept, rejected  # no record outlives the build
            if self._freeze_built:
                # the built corpus lives until the run ends: keep it out of the
                # collector's passes, which would otherwise walk it every time
                gc.freeze()
        finally:
            if enabled:
                gc.enable()
        return built

    @property
    def kg(self) -> KnowledgeGraph:
        return self.built[0]

    @cached_property
    def assignment(self) -> topics.TopicAssignment:
        """DBSCAN topics of the papers; papers without an embedding are noise."""
        embs = {ref.key: self.kg.nodes[ref]["embedding"]
                for ref in self.kg.nodes_of_type(NODE_PAPER)}
        ids = [pid for pid, emb in embs.items() if emb is not None]
        block = self.cfg.topics
        assignment = topics.cluster_embeddings([embs[pid] for pid in ids],
                                               block.eps, block.min_pts, ids=ids)
        assignment.labels.update((pid, topics.NOISE) for pid, emb in embs.items() if emb is None)
        return assignment


# --- stages ------------------------------------------------------------------------
# Each stage writes report ``name`` to the path ``out(name)``; see cli._run_stage.


def stage_ingest(corpus: Corpus, out) -> None:
    kg, parsed, errors, rejections = corpus.built
    write_csv(out("parse_errors.csv"), ["line", "message"], errors)
    write_csv(out("rejections.csv"), ["id", "reason"], rejections)
    kg_to_graphml(out("graph.graphml"), kg)
    kg_to_dot(out("graph.dot"), kg)
    flagged = [e for e in kg.edges_of_type(EDGE_CITES) if e.flags]
    write_json(out("ingest_summary.json"), {
        "records_parsed": parsed,
        "parse_errors": len(errors),
        "records_kept": kg.node_count(NODE_PAPER),
        "rejections_by_reason": rejection_counts(rejections),
        "corpus_year_range": list(kg.corpus_year_range),
        "node_counts": {t: kg.node_count(t) for t in NODE_TYPES},
        "edge_counts": dict(sorted(Counter(e.edge_type for e in kg.edges).items())),
        "citation_flags": {flag: sum(1 for e in flagged if flag in e.flags)
                           for flag in (FLAG_TEMPORAL_ANOMALY, FLAG_CYCLE)},
    })


def _fit_payload(fn, *args):
    try:
        fit = fn(*args)
    except (ValueError, RuntimeError) as exc:
        return {"error": str(exc)}
    return asdict(fit)


def stage_stats(corpus: Corpus, out) -> None:
    kg = corpus.kg
    pubs = stats.publications_per_year(kg)
    per_year, cum_authors = stats.authors_per_year(kg)
    tables = {facet: stats.distribution(kg, facet) for facet in stats.FACETS}
    tables["author_countries"] = stats.author_country_tally(kg)
    for name, rows in tables.items():
        write_csv(out(f"{name}.csv"), ["label", "count", "share"], rows)
    summary_dists = {
        facet: [{"label": label, "count": count, "share": share}
                for label, count, share in tables[facet][:20]]
        for facet in stats.FACETS
    }
    write_json(out("stats_summary.json"), {
        "publications_per_year": asdict(pubs),
        "publications_cumulative": asdict(pubs.cumulative()) if pubs.years else {},
        "authors_per_year": asdict(per_year),
        "authors_cumulative_distinct": asdict(cum_authors),
        "quadratic_fit_cumulative_publications":
            _fit_payload(stats.fit_quadratic, pubs.cumulative()) if pubs.years else None,
        "quadratic_fit_cumulative_authors":
            _fit_payload(stats.fit_quadratic, cum_authors) if cum_authors.years else None,
        "distributions_top20": summary_dists,
    })


def _check_non_negative(block, *keys: str) -> None:
    """Fail the stage, naming the key, when one of ``block``'s ``keys`` is negative."""
    for key in keys:
        if getattr(block, key) < 0:
            raise ValueError(f"{key} must be non-negative, got {getattr(block, key)}")


def stage_topics(corpus: Corpus, out) -> None:
    cfg, kg = corpus.cfg, corpus.kg
    _check_non_negative(cfg.topics, "top_terms", "emerging_k")
    years = {ref.key: kg.nodes[ref]["year"] for ref in kg.nodes_of_type(NODE_PAPER)}
    assignment = corpus.assignment

    write_csv(out("assignments.csv"), ["paper_id", "topic"],
              sorted(assignment.labels.items()))

    pools = topics.topic_token_pools(assignment, kg.text)
    summaries = topics.ctfidf(pools, top_n=cfg.topics.top_terms) if pools else []
    write_json(out("topic_report.json"), {
        "n_topics": len(assignment.topic_sizes),
        "outliers": sum(1 for l in assignment.labels.values() if l == topics.NOISE),
        "topics": [
            {"id": s.topic, "size": assignment.topic_sizes.get(s.topic, 0),
             "top_terms": [[term, score] for term, score in s.top_terms]}
            for s in summaries
        ],
    })

    # every member has an embedding: a paper without one is noise
    members: dict[int, list] = {topic: [] for topic in assignment.topic_sizes}
    for pid, label in sorted(assignment.labels.items()):
        if label != topics.NOISE:
            members[label].append(kg.paper(pid)["embedding"])
    # sum() adds rows left to right on every Python; numpy's axis-0 sum may not
    centroids = [sum(rows) / len(rows) for rows in members.values()]
    write_json(out("dendrogram.json"), topics.dendrogram_json(
        topics.hierarchical_topics(centroids), [f"T{topic}" for topic in members]))

    if cfg.queries_path is not None:
        queries = topics.load_queries(cfg.queries_path)
        labels = topics.assign_by_query(queries, kg.text)
        write_csv(out("multilabel.csv"), ["paper_id", "topics"],
                  [(pid, ";".join(sorted(lbls))) for pid, lbls in sorted(labels.items())])
    else:
        labels = {pid: {label} - {topics.NOISE} for pid, label in assignment.labels.items()}

    trends = topics.topic_trend(labels, years)
    for mode, series in trends.items():
        rows = []
        for topic in sorted(series, key=str):
            for y, v in zip(series[topic].years, series[topic].values):
                rows.append((str(topic), y, v))
        write_csv(out(f"topic_trends_{mode}.csv"), ["topic", "year", "value"], rows)

    emerging = topics.emerging_topics(trends["count"], cfg.topics.trend_since,
                                      cfg.topics.emerging_k)
    write_csv(out("emerging.csv"), ["topic", "growth_rate"],
              [(str(t), rate) for t, rate in emerging])

    if cfg.linkage.themes:
        matrix = topics.topic_linkage(cfg.linkage.themes, kg.text, cfg.linkage.epsilon)
        header = ["theme"] + matrix.themes
        write_csv(out("linkage.csv"), header,
                  [(t, *row) for t, row in zip(matrix.themes, matrix.weights)])
        write_csv(out("linkage_shares.csv"), header,
                  [(t, *row) for t, row in zip(matrix.themes, matrix.row_shares())])


def stage_citenet(corpus: Corpus, out) -> None:
    block = corpus.cfg.citenet
    _check_non_negative(block, "backbone_k", "cd_window")
    cit = corpus.kg.project(PROJECTION_CITATION)

    years = corpus.kg.years
    snapshots = [cit.snapshot(y) for y in years]
    n_t = [snap.node_count() for snap in snapshots]
    e_t = [snap.edge_count() for snap in snapshots]
    write_csv(out("growth.csv"), ["year", "nodes", "edges"],
              list(zip(years, n_t, e_t)))

    fits: dict = {"densification": _fit_payload(cn.densification_fit, n_t, e_t)}
    fits["degree_mle"] = _fit_payload(fit_power_law_mle, sorted(map(len, cit.pred)),
                                      block.degree_xmin)

    curve, pa_fit = cn.preferential_attachment_curve(snapshots)
    write_csv(out("pref_attachment.csv"), ["mean_prior_citations", "mean_gain"], curve)
    fits["preferential_attachment"] = asdict(pa_fit) if pa_fit else None
    write_json(out("fits.json"), fits)

    results = cn.cd_index_all(cit, window=block.window(),
                              exclude_self_citations=block.cd_exclude_self)
    write_csv(out("cd_papers.csv"), ["paper_id", "cd", "n_t", "f_count", "b_count"],
              [(r.paper, r.cd, r.n_t, r.f_count, r.b_count) for r in results])
    yearly = cn.cd_index_yearly(cit, results)
    write_csv(out("cd_yearly.csv"), ["year", "mean_cd"],
              zip(yearly.years, yearly.values))

    ttr = cn.type_token_ratio(corpus.kg.text,
                              {pid: attrs["year"] for pid, attrs in cit.nodes.items()})
    write_csv(out("ttr.csv"), ["year", "type_token_ratio"], zip(ttr.years, ttr.values))

    k = min(block.backbone_k, len(cit.nodes))
    if k >= 2:
        backbone = cn.main_path_backbone(cit, k, decay=block.decay, damping=block.damping,
                                         tol=block.tol, max_iter=block.max_iter)
        projected_to_graphml(out("backbone.graphml"), backbone)


def stage_collabnet(corpus: Corpus, out) -> None:
    block = corpus.cfg.collabnet
    _check_non_negative(block, "top_k")
    kg = corpus.kg
    coauth = kg.project(PROJECTION_COAUTHORSHIP)

    paper_topic = corpus.assignment.labels  # every paper's
    nationality = {}
    topic_label = {}  # modal topic over the author's papers, noise left out
    for ref in kg.nodes_of_type(NODE_AUTHOR):
        incidences = kg.nodes[ref]["incidences"]
        nationality[ref.key] = stats.modal_country(incidences)
        topic_label[ref.key] = stats.modal_label(
            (paper_topic[pid] for _y, pid, _c in incidences), topics.NOISE)

    lo, hi = kg.corpus_year_range
    per_year = []
    for y in range(lo, hi + 1):
        snap = coauth.snapshot(y)
        report = co.components(snap)  # the last year's is the whole network's
        if snap.node_count() == 0:
            continue
        entry = {
            "year": y,
            "nodes": snap.node_count(),
            "edges": snap.edge_count(),
            "components": report.count,
            "largest_component": report.largest_size,
            "diameter": report.diameter_of_largest,
        }
        for name, labels in (("nationality", nationality), ("primary_topic", topic_label)):
            res = co.assortativity_categorical(
                snap, labels, attribute=name, exclude_unknown=block.exclude_unknown)
            entry[f"assortativity_{name}"] = res.r if res else None
        per_year.append(entry)

    try:
        growth_fit = asdict(cn.densification_fit([e["nodes"] for e in per_year],
                                                 [e["edges"] for e in per_year]))
    except ValueError:  # fewer than 3 years with co-authorships
        growth_fit = None

    write_csv(out("component_sizes.csv"), ["size", "count"],
              sorted(Counter(report.sizes[1:]).items()))
    write_csv(out("degree_distribution.csv"), ["degree", "count"],
              co.degree_histogram(coauth))

    scores = co.pagerank(coauth, damping=block.damping, tol=block.tol,
                         max_iter=block.max_iter) if coauth.node_count() else {}
    between = co.betweenness(coauth)

    k = min(block.top_k, coauth.node_count())
    cliques = {}
    if k >= 1:
        sub = co.top_active_subnetwork(coauth, k, scores=scores)
        projected_to_graphml(out("top_authors.graphml"), sub)
        cliques = {str(size): co.count_k_cliques(sub, size) for size in (3, 4, 5)}

    top_between = sorted(between.items(), key=lambda kv: (-kv[1], kv[0]))[:20]
    write_json(out("collab_metrics.json"), {
        "per_year": per_year,
        "growth_fit": growth_fit,
        "components": report.count,
        "largest_component": report.largest_size,
        "diameter": report.diameter_of_largest,
        "hop_coverage": [[k_, repr(f)] for k_, f in report.hop_coverage],
        "clique_counts_top_subnetwork": cliques,
        "top_betweenness": [[u, v] for u, v in top_between],
    })


def stage_predict(corpus: Corpus, out) -> None:
    cfg, kg = corpus.cfg, corpus.kg
    kw = kg.project(PROJECTION_KEYWORD)
    block = cfg.predict
    if block.neg_ratio < 1:
        raise ValueError(f"neg_ratio must be at least 1, got {block.neg_ratio}")
    if kw.node_count() == 0:
        raise RuntimeError("keyword co-occurrence network is empty")
    lo, hi = kg.corpus_year_range
    snapshots = {y: kw.snapshot(y) for y in range(lo, hi + 1)}

    eval_year = hi
    if block.train_start >= eval_year:
        raise ValueError(f"train_start must be before the held-out year {eval_year}, "
                         f"got {block.train_start}")
    first_train = max(lo + 1, block.train_start) if block.train_start else lo + 1
    train_samples = []
    used_years = []
    for year in range(first_train, eval_year):
        try:
            batch = pr.build_training_set(snapshots, year, neg_ratio=block.neg_ratio,
                                          seed=cfg.seed + year)
        except pr.DegenerateYearError:
            continue
        train_samples.extend(batch)
        used_years.append(year)
    if not train_samples:
        raise RuntimeError("no usable training years: keyword network never grew")
    if all(s.label == 1 for s in train_samples):  # each used year has a new edge
        raise RuntimeError(f"no negative pair could be sampled in training years {used_years}: "
                           "by each year's end, every pair of the keywords seen the year "
                           "before was linked")

    model = pr.train_link_model(train_samples, n_trees=block.n_trees,
                                max_depth=block.max_depth,
                                learning_rate=block.learning_rate,
                                min_leaf=block.min_leaf)
    write_text(out("model.json"), model.to_json() + "\n")

    eval_payload = None
    try:
        test_samples = pr.build_training_set(snapshots, eval_year,
                                             neg_ratio=block.neg_ratio,
                                             seed=cfg.seed + eval_year)
        X, y = pr.samples_to_matrices(test_samples)
        auc = pr.evaluate_auc(model.predict_proba(X), y)
        eval_payload = {
            "year": eval_year,
            "auc": auc,
            "positives": int(y.sum()),
            "negatives": int(len(y) - y.sum()),
        }
    except (pr.DegenerateYearError, ValueError) as exc:
        eval_payload = {"year": eval_year, "error": str(exc)}

    candidates = pr.all_unconnected_pairs(snapshots[eval_year])
    ranked = pr.predict_links(model, snapshots, eval_year, candidates,
                              top_n=block.top_n)
    write_csv(out("predictions.csv"),
              ["keyword_a", "keyword_b", "probability", "rank"],
              [(u, v, p, i + 1) for i, ((u, v), p) in enumerate(ranked)])
    write_json(out("prediction_eval.json"), {
        "train_years": used_years,
        "train_samples": len(train_samples),
        "train_positives": sum(1 for s in train_samples if s.label == 1),
        "final_train_loss": model.loss_curve[-1],
        "heldout": eval_payload,
        "candidates_scored": len(candidates),
    })


STAGE_FUNCS = {
    "ingest": stage_ingest,
    "stats": stage_stats,
    "topics": stage_topics,
    "citenet": stage_citenet,
    "collabnet": stage_collabnet,
    "predict": stage_predict,
}
