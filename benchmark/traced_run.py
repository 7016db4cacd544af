"""Run ``litla.cli.main`` in process with a span around each public function
that a per-layer metric of the benchmark reads.

The wrappers are installed from outside the package, at module attributes:
every loaded ``litla`` module attribute that holds a wrapped function is
replaced, so names imported into ``litla.cli`` are traced too. Spans are
kept in memory and written as JSON when the run ends.

Inside ``cluster_embeddings``, whose DBSCAN distance tensor sets peak
memory, a thread samples the resident set size every millisecond. It
replaces ``tracemalloc``, which slowed DBSCAN's per-element Python loop
about ninefold and so hid the very time it was meant to attribute.

    python3 benchmark/traced_run.py --spans spans.json -- all --config CFG --output OUT --seed 1
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import sys
import threading
import time
from pathlib import Path

# layer -> module -> public functions (Class.method for methods) to wrap
TRACED = {
    "cli": {"litla.cli": ["main"]},
    "records": {"litla.records": ["load_records", "parse_records", "apply_exclusions"]},
    "graph": {"litla.graph": ["build_graph", "KnowledgeGraph.project",
                              "KnowledgeGraph.snapshot", "ProjectedGraph.snapshot"]},
    "stats": {"litla.stats": ["publications_per_year", "authors_per_year", "fit_quadratic",
                              "distribution", "author_country_tally"]},
    "topics": {"litla.topics": ["cluster_embeddings", "dbscan_labels", "topic_token_pools",
                                "ctfidf", "hierarchical_topics", "dendrogram_json",
                                "load_queries", "assign_by_query", "topic_trend",
                                "emerging_topics", "topic_linkage"]},
    "citenet": {"litla.citenet": ["growth_series", "densification_fit", "in_degree_samples",
                                  "preferential_attachment_curve", "cd_index_all",
                                  "cd_index_yearly", "type_token_ratio", "rank_essential",
                                  "rank_essential_full", "trim_network",
                                  "transitive_reduction", "weight_edges",
                                  "main_path_backbone"],
                "litla.powerlaw": ["fit_power_law_ls", "fit_power_law_mle"]},
    "collabnet": {"litla.collabnet": ["components", "connected_components", "diameter_lcc",
                                      "hop_coverage", "degree_histogram", "pagerank",
                                      "betweenness", "count_k_cliques",
                                      "top_active_subnetwork", "author_attribute",
                                      "assortativity_categorical"]},
    "predict": {"litla.predict": ["build_training_set", "pair_features",
                                  "all_unconnected_pairs", "predict_links",
                                  "train_link_model", "evaluate_auc"]},
    "gbdt": {"litla.gbdt": ["train_gbdt", "GbdtModel.predict_proba"]},
    "exports": {"litla.exports": ["write_csv", "write_json", "write_graphml", "write_dot",
                                  "kg_to_graphml", "kg_to_dot", "projected_to_graphml"]},
}
MEMORY_TRACED = "cluster_embeddings"


class PeakRss:
    """Highest resident set size, in bytes above the size at entry, seen
    while the block runs."""

    PAGE = os.sysconf("SC_PAGE_SIZE")

    def __init__(self) -> None:
        self.peak = 0
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    @classmethod
    def rss(cls) -> int:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * cls.PAGE

    def _sample(self) -> None:
        base = self.rss()
        while not self._done.wait(0.001):
            self.peak = max(self.peak, self.rss() - base)
        self.peak = max(self.peak, self.rss() - base)

    def __enter__(self) -> "PeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._done.set()
        self._thread.join()


class Tracer:
    """Spans as [name, start, end, parent index, peak RSS bytes or None]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, None]
            self.spans.append(span)
            self._stack.append(index)
            try:
                if not name.endswith(MEMORY_TRACED):
                    return fn(*args, **kwargs)
                with PeakRss() as memory:
                    return fn(*args, **kwargs)
            finally:
                if name.endswith(MEMORY_TRACED):
                    span[4] = memory.peak
                self._stack.pop()
                span[2] = time.perf_counter()
        return traced

    def install(self) -> list[str]:
        """Wrap every traced function that exists; return the missing ones."""
        missing = []
        for layer in TRACED.values():
            for modname, names in layer.items():
                module = importlib.import_module(modname)
                for name in names:
                    owner_name, _, attr = name.rpartition(".")
                    owner = getattr(module, owner_name) if owner_name else module
                    fn = getattr(owner, attr, None)
                    if fn is None:
                        missing.append(f"{modname}.{name}")
                        continue
                    wrapped = self.wrap(f"{modname}.{name}", fn)
                    if owner_name:
                        setattr(owner, attr, wrapped)
                        continue
                    for loaded in [m for n, m in sys.modules.items() if n.startswith("litla")]:
                        for key, value in list(vars(loaded).items()):
                            if value is fn:
                                setattr(loaded, key, wrapped)
        return missing


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--spans", required=True, type=Path)
    parser.add_argument("litla_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    litla_args = [a for a in args.litla_args if a != "--"]
    import litla.cli

    tracer = Tracer()
    missing = tracer.install()
    status = litla.cli.main(litla_args)
    args.spans.write_text(json.dumps({"missing": missing, "spans": tracer.spans}))
    return status


if __name__ == "__main__":
    sys.exit(main())
