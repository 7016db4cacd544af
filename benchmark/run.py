"""Benchmark of ``litla`` end to end and per layer.

    python3 benchmark/run.py --workload citations --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Each run generates its inputs from the
seed, then runs the real CLI (``python -m litla``) from ``src/`` as fresh
processes, one at a time, until ``--seconds`` of measuring have passed
(at least three repeats). It prints one JSON object as its last line.

With ``--trace 0`` the metrics are end-to-end, each a median over repeats:

    wall_s         spawn of ``litla all`` to its exit; the sum over six
                   single-stage processes on ``stages``
    papers_per_s   ``records_kept`` of ingest_summary.json over wall_s
    peak_rss_mb    ``ru_maxrss`` of the litla process (the largest of six)
    setup_s        a fresh process that imports litla.cli and loads the config
    stage_ok_frac  stage executions that succeeded over those attempted; the
                   result's ``attempted`` and ``failed`` count them

With ``--trace 1`` one untraced and one traced pass (``traced_run.py``, in
process) give the per-layer metrics; ``MOVES`` says which end-to-end
metric each should move. Every run checks exit codes against the
manifests, ingest counts against the generator's, that the embeddings
cluster, and that repeats, the traced pass and (on ``stages``) ``litla all``
produce byte-identical reports. The baseline measured when the benchmark
was added is in ``baseline.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import corpus  # the script's directory is first on sys.path
from traced_run import TRACED

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
STAGES = ("ingest", "stats", "topics", "citenet", "collabnet", "predict")
MANIFEST = "run_manifest.json"
# DBSCAN holds an n x n x d float64 tensor, and the process peaks at about
# its size. 2 GiB leaves headroom on a 7 GB machine shared with others.
DBSCAN_TENSOR_CAP = 2 * 1024 ** 3
SETUP_SAMPLES = 9
MIN_REPEATS = 3  # a median that one slow repeat cannot move
DEADLINE_S = 170  # every run exits within 180 s


@dataclass(frozen=True)
class Workload:
    why: str
    shape: corpus.Shape | None  # None: the bundled fixture, one process per stage


WORKLOADS = {
    "citations": Workload(
        "1,500 papers over the fixture's 72 authors and 44 keywords with 2-8 references "
        "each: six corpus loads, DBSCAN and the twice-computed CD index dominate.",
        corpus.Shape(papers=1500, authors=72, keywords=44, refs=(2, 8))),
    "entities": Workload(
        "1,500 papers whose 450 authors and 130 keywords grow with the corpus: corpus loads, "
        "collabnet and predict dominate; citenet's ranking needs about 760 of the "
        "fixture's 500 iterations and fails.",
        corpus.Shape(papers=1500, authors=450, keywords=130, refs=(0, 3))),
    "embeddings": Workload(
        "600 papers with 384-d embeddings in 6 clusters: DBSCAN's n*n*d tensor sets peak "
        "memory and float-heavy lines load the records layer.",
        corpus.Shape(papers=600, authors=72, keywords=44, refs=(2, 8), dim=384, clusters=6)),
    "stages": Workload(
        "The bundled 200-record fixture run as six single-stage processes: start-up, "
        "imports, config and one corpus load per process dominate.",
        None),
}

UNITS = {"s": "s", "mb": "MB", "frac": "ratio", "bytes": "bytes"}  # by name suffix
END_TO_END = {  # name -> unit
    "wall_s": "s", "papers_per_s": "papers/s", "peak_rss_mb": "MB",
    "setup_s": "s", "stage_ok_frac": "ratio",
}


# Which end-to-end metric each per-layer metric should move, and on which
# workloads that shows; the most specific key (metric, then layer) applies.
MOVES = {
    "cli": "wall_s on all workloads",
    "cli.corpus_loads": "wall_s on citations and entities; stays 1 per process on stages",
    "records": "wall_s on embeddings and stages",
    "graph": "wall_s on citations and entities",
    "stats": "wall_s on all workloads (small everywhere)",
    "topics": "wall_s on embeddings",
    "topics.dbscan_peak_mb": "peak_rss_mb on embeddings, citations and entities",
    "citenet": "wall_s on citations",
    "citenet.rank_s": "wall_s and stage_ok_frac on entities",
    "collabnet": "wall_s on entities",
    "predict": "wall_s on entities",
    "gbdt": "wall_s on entities",
    "exports": "wall_s on all workloads",
}
# module -> layer, for self times
LAYER_OF = {module: layer for layer, modules in TRACED.items() for module in modules}


class Failure(Exception):
    """The benchmark cannot produce a result."""


def _alarm(_signum, _frame):
    raise TimeoutError


def spawn(argv: list[str], deadline: float) -> tuple[float, int, object]:
    """Run one child to completion: (wall seconds, exit code, rusage)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # users keep bytecode caches
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    left = int(deadline - time.monotonic())
    try:
        if left < 1:
            raise TimeoutError
        signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(left)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        signal.alarm(0)
    except BaseException:
        signal.alarm(0)
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


def litla(args: list[str], config: Path, out: Path, seed: int, deadline: float):
    return spawn([sys.executable, "-m", "litla", *args, "--config", str(config),
                  "--output", str(out), "--seed", str(seed)], deadline)


def digest(outdir: Path) -> str:
    """sha256 over every report's name and bytes, the manifest excluded."""
    h = hashlib.sha256()
    for path in sorted(outdir.iterdir()):
        if path.name != MANIFEST:
            h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def stage_failures(outdir: Path, code: int, stages: tuple[str, ...],
                   problems: list[str]) -> int:
    """Failed stages of one process, from its manifest and exit code."""
    path = outdir / MANIFEST
    if not path.is_file():
        problems.append(f"exit {code} without a manifest")
        return len(stages)
    entries = json.loads(path.read_text())["stages"]
    if tuple(e["stage"] for e in entries) != stages:
        problems.append(f"manifest lists {[e['stage'] for e in entries]}")
        return len(stages)
    failed = sum(e["status"] != "ok" for e in entries)
    if code != (1 if failed else 0):
        problems.append(f"exit {code} with {failed} failed stages")
    return failed


@dataclass
class Repeat:
    wall: float
    rss_mb: float
    cpu: float
    failed: int
    digest: str
    stage_s: dict


def run_once(workload: Workload, config: Path, out: Path, seed: int, deadline: float,
             problems: list[str]) -> Repeat:
    """One timed pass: ``litla all``, or one process per stage for ``stages``."""
    if out.exists():
        shutil.rmtree(out)
    groups = [(s,) for s in STAGES] if workload.shape is None else [STAGES]
    wall = cpu = rss = 0.0
    failed = 0
    stage_s = {}
    for stages in groups:
        args = list(stages) if len(stages) == 1 else ["all"]
        secs, code, usage = litla(args, config, out, seed, deadline)
        wall += secs
        cpu += usage.ru_utime + usage.ru_stime
        rss = max(rss, usage.ru_maxrss / 1024)
        failed += stage_failures(out, code, stages, problems)
        if (out / MANIFEST).is_file():
            for entry in json.loads((out / MANIFEST).read_text())["stages"]:
                stage_s[entry["stage"]] = entry["duration_s"]
    return Repeat(wall, rss, cpu, failed, digest(out), stage_s)


def measure_setup(config: Path, deadline: float) -> list[float]:
    """Fresh processes that import the CLI and load the workload's config."""
    code = ("import sys, litla.cli; from litla.config import load_config; "
            "load_config(sys.argv[1])")
    argv = [sys.executable, "-c", code, str(config)]
    spawn(argv, deadline)  # fills the bytecode cache
    samples = []
    for _ in range(SETUP_SAMPLES):
        secs, status, _ = spawn(argv, deadline)
        if status != 0:
            raise Failure(f"importing litla.cli and loading {config.name} failed")
        samples.append(secs)
    return samples


def check_reports(out: Path, expected: corpus.Expected | None, problems: list[str]) -> dict:
    """Compare the ingest counts with the generator's and check that the
    embeddings cluster; return ingest_summary.json."""
    summary = json.loads((out / "ingest_summary.json").read_text())
    if expected is not None:
        for key in ("records_parsed", "parse_errors", "records_kept"):
            if summary[key] != getattr(expected, key):
                problems.append(f"{key} {summary[key]} != {getattr(expected, key)}")
    topics = json.loads((out / "topic_report.json").read_text())
    if topics["n_topics"] < 2 or topics["outliers"] >= 0.5 * summary["records_kept"]:
        problems.append(f"{topics['n_topics']} topics, {topics['outliers']} outliers")
    return summary


def prepare(name: str, workload: Workload, seed: int, work: Path):
    """Inputs of one run: (config, expected counts or None for the fixture)."""
    if not (SRC / "litla" / "cli.py").is_file():
        raise Failure(f"no litla sources under {SRC}")
    if workload.shape is None:
        lines = (ROOT / "fixtures" / "records.jsonl").read_text().splitlines()
        papers, dim = len(lines), len(json.loads(lines[0]).get("embedding") or [])
    else:
        papers, dim = workload.shape.papers, workload.shape.dim
    tensor = papers * papers * dim * 8
    if tensor > DBSCAN_TENSOR_CAP:
        raise Failure(f"{name}: DBSCAN would need {tensor / 2**30:.1f} GiB, "
                      f"over the {DBSCAN_TENSOR_CAP / 2**30:.0f} GiB cap")
    if workload.shape is None:
        return ROOT / "fixtures" / "config.toml", None
    expected = corpus.generate(workload.shape, seed, work / "input")
    return work / "input" / "config.toml", expected


def end_to_end(name: str, workload: Workload, seed: int, seconds: int, work: Path,
               deadline: float) -> dict:
    config, expected = prepare(name, workload, seed, work)
    problems: list[str] = []
    reference = None
    if workload.shape is None:  # the six stages together must equal `litla all`
        _, code, _ = litla(["all"], config, work / "all", seed, deadline)
        stage_failures(work / "all", code, STAGES, problems)
        reference = digest(work / "all")
    setup = measure_setup(config, deadline)

    repeats: list[Repeat] = []
    start = time.perf_counter()
    while len(repeats) < MIN_REPEATS or (
            time.perf_counter() - start + statistics.median(r.wall for r in repeats)
            <= seconds):
        out = work / "out"
        rep = run_once(workload, config, out, seed, deadline, problems)
        if not repeats:
            summary = check_reports(out, expected, problems)
            if reference is not None and rep.digest != reference:
                problems.append("six single-stage runs differ from litla all")
        elif rep.digest != repeats[0].digest:
            problems.append(f"repeat {len(repeats)} differs from the first")
            rep.failed = len(STAGES)
        repeats.append(rep)

    wall = statistics.median(r.wall for r in repeats)
    attempted = len(STAGES) * len(repeats)
    failed = sum(r.failed for r in repeats)
    metrics = {
        "wall_s": wall,
        "papers_per_s": summary["records_kept"] / wall,
        "peak_rss_mb": statistics.median(r.rss_mb for r in repeats),
        "setup_s": statistics.median(setup),
        "stage_ok_frac": 1.0 - failed / attempted,
    }
    info = {"repeats": len(repeats), "setup_samples": len(setup),
            "failed_frac": failed / attempted, "digest": repeats[0].digest,
            "walls_s": [round(r.wall, 4) for r in repeats]}
    return result(metrics, END_TO_END, attempted, failed, problems, info)


def per_layer(name: str, workload: Workload, seed: int, work: Path, deadline: float) -> dict:
    """One untraced pass, then one traced pass of the same work."""
    config, expected = prepare(name, workload, seed, work)
    problems: list[str] = []
    plain = run_once(workload, config, work / "plain", seed, deadline, problems)
    summary = check_reports(work / "plain", expected, problems)
    out = work / "traced"
    groups = [[s] for s in STAGES] if workload.shape is None else [["all"]]
    traced_wall, spans, loads = 0.0, [], []
    for k, args in enumerate(groups):
        spans_path = work / f"spans{k}.json"
        secs, _, _ = spawn([sys.executable, str(BENCH / "traced_run.py"), "--spans",
                            str(spans_path), "--", *args, "--config", str(config),
                            "--output", str(out), "--seed", str(seed)], deadline)
        traced_wall += secs
        if not spans_path.is_file():
            raise Failure(f"traced run of {args} wrote no spans")
        trace = json.loads(spans_path.read_text())
        if trace["missing"]:
            print(f"not traced (missing): {trace['missing']}", file=sys.stderr)
        loads.append(sum(s[0] == "litla.records.load_records" for s in trace["spans"]))
        spans.extend(_shift(trace["spans"], len(spans)))
    if digest(out) != plain.digest:
        problems.append("the traced run's reports differ from the untraced run's")
    metrics = layer_metrics(spans, work / "plain", summary)
    metrics.update({f"cli.{s}_s": plain.stage_s.get(s, 0.0) for s in STAGES})
    metrics["cli.corpus_loads"] = max(loads)
    metrics["cli.cpu_s"] = plain.cpu
    metrics["cli.trace_overhead_s"] = traced_wall - plain.wall
    layer_self = self_times(spans)
    metrics.update({f"{layer}.self_s": layer_self.get(layer, 0.0) for layer in TRACED})
    units = {k: UNITS.get(k.rpartition("_")[2].rpartition(".")[2], "count") for k in metrics}
    notes = {k: MOVES.get(k, MOVES[k.split(".")[0]]) for k in metrics}
    info = {"digest": plain.digest, "spans": len(spans)}
    return result(metrics, units, len(STAGES), plain.failed, problems, info, notes)


def _shift(spans: list, offset: int) -> list:
    return [[n, a, b, p + offset if p >= 0 else -1, m] for n, a, b, p, m in spans]


def busy(spans: list, *names: str) -> float:
    """Seconds inside the named functions, a span nested in another named
    span counted once."""
    wanted = {"litla." + n for n in names}
    total = 0.0
    for span in spans:
        if span[0] not in wanted:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] not in wanted:
            parent = spans[parent][3]
        if parent < 0:
            total += span[2] - span[1]
    return total


def calls(spans: list, name: str) -> int:
    return sum(s[0] == "litla." + name for s in spans)


def self_times(spans: list) -> dict:
    """Per layer, span durations minus the time their child spans cover."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, _, _), inner in zip(spans, child_time):
        layer = LAYER_OF[".".join(name.split(".")[:2])]
        out[layer] = out.get(layer, 0.0) + (end - start - inner)
    return out


def report(out: Path, name: str):
    """A JSON report's content, or a CSV report's row count; a stage that
    failed before writing it gives an empty dict or 0."""
    path = out / name
    if not path.is_file():
        return {} if name.endswith(".json") else 0
    if name.endswith(".json"):
        return json.loads(path.read_text())
    return len(path.read_text().splitlines()) - 1


def layer_metrics(spans: list, out: Path, summary: dict) -> dict:
    topic_report = report(out, "topic_report.json")
    pred = report(out, "prediction_eval.json")
    peaks = [s[4] for s in spans if s[4] is not None]
    return {
        "records.parse_s": busy(spans, "records.load_records", "records.parse_records"),
        "records.lines": summary["records_parsed"] + summary["parse_errors"],
        "records.parse_errors": summary["parse_errors"],
        "records.exclude_s": busy(spans, "records.apply_exclusions"),
        "records.kept": summary["records_kept"],
        "graph.build_s": busy(spans, "graph.build_graph"),
        "graph.nodes": sum(summary["node_counts"].values()),
        "graph.edges": sum(summary["edge_counts"].values()),
        "graph.project_s": busy(spans, "graph.KnowledgeGraph.project"),
        "graph.project_calls": calls(spans, "graph.KnowledgeGraph.project"),
        "graph.snapshot_s": busy(spans, "graph.KnowledgeGraph.snapshot",
                                 "graph.ProjectedGraph.snapshot"),
        "graph.snapshot_calls": calls(spans, "graph.KnowledgeGraph.snapshot")
        + calls(spans, "graph.ProjectedGraph.snapshot"),
        "stats.s": busy(spans, "stats.publications_per_year", "stats.authors_per_year",
                        "stats.fit_quadratic", "stats.distribution",
                        "stats.author_country_tally"),
        "topics.dbscan_s": busy(spans, "topics.dbscan_labels"),
        "topics.dbscan_calls": calls(spans, "topics.dbscan_labels"),
        "topics.dbscan_peak_mb": max(peaks, default=0) / 2 ** 20,
        "topics.noise_frac": topic_report.get("outliers", 0)
        / max(1, report(out, "assignments.csv")),
        "topics.labels_s": busy(spans, "topics.topic_token_pools", "topics.ctfidf",
                                "topics.hierarchical_topics", "topics.dendrogram_json"),
        "topics.query_s": busy(spans, "topics.load_queries", "topics.assign_by_query",
                               "topics.topic_trend", "topics.emerging_topics"),
        "topics.linkage_s": busy(spans, "topics.topic_linkage"),
        "citenet.cd_s": busy(spans, "citenet.cd_index_all", "citenet.cd_index_yearly"),
        "citenet.cd_calls": calls(spans, "citenet.cd_index_all"),
        "citenet.cd_defined_frac": report(out, "cd_papers.csv") / max(1, summary["records_kept"]),
        "citenet.rank_s": busy(spans, "citenet.rank_essential", "citenet.rank_essential_full"),
        "citenet.backbone_s": busy(spans, "citenet.trim_network",
                                   "citenet.transitive_reduction", "citenet.weight_edges"),
        "citenet.growth_s": busy(spans, "citenet.growth_series", "citenet.densification_fit",
                                 "citenet.in_degree_samples",
                                 "citenet.preferential_attachment_curve",
                                 "citenet.type_token_ratio", "powerlaw.fit_power_law_ls",
                                 "powerlaw.fit_power_law_mle"),
        "collabnet.components_s": busy(spans, "collabnet.components",
                                       "collabnet.connected_components",
                                       "collabnet.diameter_lcc", "collabnet.hop_coverage"),
        "collabnet.components_calls": calls(spans, "collabnet.components"),
        "collabnet.betweenness_s": busy(spans, "collabnet.betweenness"),
        "collabnet.pagerank_s": busy(spans, "collabnet.pagerank"),
        "collabnet.cliques_s": busy(spans, "collabnet.count_k_cliques",
                                    "collabnet.top_active_subnetwork"),
        "collabnet.assort_s": busy(spans, "collabnet.assortativity_categorical",
                                   "collabnet.author_attribute"),
        "collabnet.authors": summary["node_counts"]["author"],
        "collabnet.edges": summary["edge_counts"].get("coauthors_with", 0),
        "predict.trainset_s": busy(spans, "predict.build_training_set"),
        "predict.samples": pred.get("train_samples", 0),
        "predict.features_s": busy(spans, "predict.pair_features"),
        "predict.feature_calls": calls(spans, "predict.pair_features"),
        "predict.candidates_s": busy(spans, "predict.all_unconnected_pairs"),
        "predict.candidates": pred.get("candidates_scored", 0),
        "predict.rank_s": busy(spans, "predict.predict_links"),
        "gbdt.fit_s": busy(spans, "gbdt.train_gbdt"),
        "gbdt.predict_s": busy(spans, "gbdt.GbdtModel.predict_proba"),
        "exports.write_s": busy(spans, "exports.write_csv", "exports.write_json",
                                "exports.write_graphml", "exports.write_dot",
                                "exports.kg_to_graphml", "exports.kg_to_dot",
                                "exports.projected_to_graphml"),
        "exports.bytes": sum(p.stat().st_size for p in out.iterdir() if p.name != MANIFEST),
    }


def result(metrics: dict, units: dict, attempted: int, failed: int, problems: list[str],
           info: dict, notes: dict | None = None) -> dict:
    for name, value in metrics.items():
        note = f"  moves {notes[name]}" if notes else ""
        print(f"{name:28s} {value:>16.6g} {units[name]:9s}{note}")
    for key, value in info.items():
        print(f"{key:28s} {value}")
    for problem in problems:
        print(f"check failed: {problem}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind through spawn(), which kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + DEADLINE_S
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload]
    try:
        if args.trace:
            res = per_layer(args.workload, workload, args.seed, work, deadline)
        else:
            res = end_to_end(args.workload, workload, args.seed, args.seconds, work, deadline)
    except (Failure, TimeoutError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
