"""Seeded synthetic corpora for the litla benchmark.

A corpus is a records file, a queries file and a run config. The corpus
grows over the years following the densification model of Leskovec,
Kleinberg and Faloutsos (KDD 2005): the papers of each year grow
geometrically, and the in-corpus references of a new paper grow as
N(t)^(a-1), where N(t) is the cumulative corpus size, so that citation
edges grow as N(t)^a. The author pool and the keyword vocabulary are
parameters and enter the corpus in proportion to N(t), so collaboration and
keyword networks grow with the corpus too. A few records trip each
exclusion rule and a few lines are malformed, so those paths run as well.

The config copies every setting of ``fixtures/config.toml`` except the input
paths and the DBSCAN ``eps``, which is scaled to the embedding dimension.
The queries file is the fixture's. Uses the standard library (3.11+, for
``tomllib``) and numpy only.

    python3 benchmark/corpus.py --out DIR --seed 1 --papers 1500 --authors 450 --keywords 130 --refs 0 3
"""

from __future__ import annotations

import argparse
import json
import math
import random
import re
import tomllib
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"

FIRST_YEAR, LAST_YEAR = 2008, 2023
YEARLY_GROWTH = 1.15  # papers of year t+1 / papers of year t
GLOBAL_KEYWORDS = ["multi-objective optimization", "evolutionary algorithm",
                   "pareto front", "diversity maintenance", "convergence"]
# Words of the synthetic keyword phrases; none is a stopword or a word of
# the fixture's theme phrases, so synthetic phrases never match those.
QUALIFIERS = ["sparse", "robust", "stochastic", "parallel", "bayesian", "quantum",
              "adaptive", "distributed", "hierarchical", "fuzzy", "elitist", "hybrid",
              "memetic", "cooperative", "incremental", "spectral"]
SUBJECTS = ["sampling", "encoding", "archives", "crossover", "mutation", "indicators",
            "niching", "restarts", "migration", "clustering", "ensembles", "operators",
            "landscapes", "tournaments", "populations", "grids"]
FIRST_NAMES = ["Mei", "Rahul", "Elena", "Tomas", "Aiko", "Lucas", "Priya", "Jonas",
               "Sofia", "Wei", "Hana", "Diego", "Ingrid", "Omar", "Yuki", "Carlos",
               "Nadia", "Petr", "Lin", "Anya"]
LAST_NAMES = ["Chen", "Gupta", "Novak", "Silva", "Tanaka", "Weber", "Iyer", "Berg",
              "Rossi", "Zhang", "Kim", "Moreno", "Larsen", "Haddad", "Sato", "Diaz",
              "Kovacs", "Dvorak", "Wang", "Petrov"]
AFFILIATIONS = [
    "Tsinghua University, Beijing, 100084, China",
    "Northwestern Polytechnical University, Xian, China",
    "University of Exeter, Exeter EX4 4QF, UK",
    "University of Birmingham, Birmingham, England",
    "Massachusetts Institute of Technology, Cambridge, MA 02139, USA",
    "Michigan State University, East Lansing, Michigan",
    "Indian Institute of Technology, Kanpur, 208016, India",
    "Osaka Metropolitan University, Osaka, Japan",
    "CINVESTAV-IPN, Mexico City, Mexico",
    "University of Adelaide, Adelaide, Australia",
    "Universidade Nova de Lisboa, Lisbon, Portugal",
    "Deep Crevasse Research Station, Atlantis",
]
VENUES = [("IEEE Transactions on Evolutionary Computation", "journal"),
          ("Applied Soft Computing", "journal"),
          ("Swarm and Evolutionary Computation", "journal"),
          ("Information Sciences", "journal"),
          ("IEEE Congress on Evolutionary Computation", "conference"),
          ("Genetic and Evolutionary Computation Conference", "conference")]
CATEGORIES = ["Computer Science, Artificial Intelligence",
              "Computer Science, Theory & Methods",
              "Engineering, Electrical & Electronic",
              "Operations Research & Management Science",
              "Automation & Control Systems", "Telecommunications"]
INTENTS = ["background", "method", "extension", "comparison"]
# Records that trip each exclusion rule, per 1,000 papers.
EXCLUDED_PER_1000 = {"language": 10, "pages": 10, "doc_type": 15}
EXCLUDED_VALUES = {"language": ("language", "German"), "pages": ("page_count", 3),
                   "doc_type": ("doc_type", "workshop paper")}
MALFORMED_LINES = ['{"id": "broken", "title": "truncated line"',
                   '{"id": "bad-year", "title": "year as text", "year": "2015"}',
                   '["not", "an", "object"]']


@dataclass(frozen=True)
class Shape:
    """What a corpus looks like; the seed only varies the random choices."""

    papers: int
    authors: int          # final author pool
    keywords: int         # keyword vocabulary, at least the fixture's phrases
    refs: tuple[int, int]  # in-corpus references of a final-year paper, lo..hi
    dim: int = 5          # embedding dimension
    clusters: int = 3     # planted embedding clusters
    densification: float = 1.2  # the exponent a of E(t) ~ N(t)^a


@dataclass(frozen=True)
class Expected:
    """Counts a correct ingest reproduces exactly."""

    records_parsed: int
    parse_errors: int
    records_kept: int


def fixture_config() -> tuple[str, dict]:
    text = (FIXTURES / "config.toml").read_text(encoding="utf-8")
    return text, tomllib.loads(text)


def eps_for(dim: int, fixture_eps: float, fixture_dim: int = 5) -> float:
    """Typical distances between Gaussian points grow as sqrt(dim); the
    fixture's eps suits its 5-d blobs, so scale it by sqrt(dim / 5)."""
    return round(fixture_eps * math.sqrt(dim / fixture_dim), 4)


def write_config(path: Path, dim: int) -> None:
    text, cfg = fixture_config()
    eps = eps_for(dim, cfg["topics"]["eps"])
    out, section = [], None
    for line in text.splitlines():
        header = re.match(r"\s*\[([^\]]+)\]", line)
        if header:
            section = header.group(1)
        elif section == "input" and re.match(r"\s*records\s*=", line):
            line = 'records = "records.jsonl"'
        elif section == "input" and re.match(r"\s*queries\s*=", line):
            line = 'queries = "queries.txt"'
        elif section == "topics" and re.match(r"\s*eps\s*=", line):
            line = f"eps = {eps!r}"
        out.append(line)
    path.write_text("\n".join(out) + "\n", encoding="utf-8")


def yearly_counts(n: int) -> dict[int, int]:
    years = list(range(FIRST_YEAR, LAST_YEAR + 1))
    raw = [YEARLY_GROWTH ** i for i in range(len(years))]
    counts = [max(1, int(n * r / sum(raw))) for r in raw]
    counts[-1] += n - sum(counts)
    return dict(zip(years, counts))


def keyword_groups(themes: dict[str, list[str]], size: int) -> list[list[str]]:
    """The fixture's theme phrases, then synthetic groups of four phrases,
    until the vocabulary (with the global keywords) holds ``size`` phrases."""
    groups = [list(phrases) for phrases in themes.values()]
    have = sum(len(g) for g in groups) + len(GLOBAL_KEYWORDS)
    synthetic = [f"{q} {s}" for s in SUBJECTS for q in QUALIFIERS]
    if size - have > len(synthetic):
        raise ValueError(f"at most {have + len(synthetic)} keywords")
    extra = synthetic[:max(0, size - have)]
    groups += [extra[i:i + 4] for i in range(0, len(extra), 4)]
    return groups


def author_names(count: int) -> list[str]:
    names = [f"{f} {chr(65 + m)}. {l}" for m in range(26)
             for l in LAST_NAMES for f in FIRST_NAMES]
    if count > len(names):
        raise ValueError(f"at most {len(names)} authors")
    return names[:count]


def planted_centers(rng: np.random.Generator, shape: Shape, sigma: float) -> np.ndarray:
    """Cluster centers at least three times the typical distance between
    two members of one cluster, sigma * sqrt(2 * dim), apart."""
    gap = 3.0 * sigma * math.sqrt(2 * shape.dim)
    while True:
        centers = rng.normal(0.0, 4.0 * sigma, size=(shape.clusters, shape.dim))
        dist = np.linalg.norm(centers[:, None] - centers[None, :], axis=-1)
        if shape.clusters < 2 or dist[np.triu_indices(shape.clusters, 1)].min() >= gap:
            return centers


def weighted_pick(rng: random.Random, cum_weights: np.ndarray) -> int:
    return int(np.searchsorted(cum_weights, rng.random() * cum_weights[-1], side="right"))


def generate(shape: Shape, seed: int, outdir: Path) -> Expected:
    """Write records.jsonl, queries.txt and config.toml into ``outdir``."""
    _text, cfg = fixture_config()
    rng = random.Random(seed)
    nprng = np.random.default_rng(seed)
    groups = keyword_groups(cfg["linkage"]["themes"], shape.keywords)
    names = author_names(shape.authors)
    affiliation = {a: AFFILIATIONS[rng.randrange(len(AFFILIATIONS))] for a in names}
    sigma = 0.45  # the fixture's cluster spread, for which its eps of 1.4 was set
    centers = planted_centers(nprng, shape, sigma)
    counts = yearly_counts(shape.papers)

    excluded = {}
    for reason, per_1000 in EXCLUDED_PER_1000.items():
        for _ in range(max(1, shape.papers * per_1000 // 1000)):
            idx = rng.randrange(shape.papers)
            while idx in excluded:
                idx = rng.randrange(shape.papers)
            excluded[idx] = reason

    records: list[dict] = []
    cited = np.zeros(shape.papers)  # in-corpus citations received so far
    papers_by = np.zeros(shape.authors)  # papers written so far, per author
    # closed groups of three authors that never write with anyone else
    closed = [list(range(i, i + 3)) for i in range(shape.authors - 3 * max(1, shape.authors // 24),
                                                   shape.authors, 3)]
    open_pool = closed[0][0]
    idx, done = 0, 0
    for year, count in counts.items():
        share = (done + count) / shape.papers
        n_authors = max(12, round(open_pool * share))
        n_groups = max(min(10, len(groups)), round(len(groups) * share))
        ref_scale = share ** (shape.densification - 1.0)
        group_weights = np.cumsum(1.0 / np.arange(1, n_groups + 1))
        earlier = idx
        for _ in range(count):
            pid = f"p{idx:05d}"
            group = weighted_pick(rng, group_weights)
            phrases = groups[group]
            kws = rng.sample(phrases, rng.randint(min(2, len(phrases)), min(4, len(phrases))))
            kws += rng.sample(GLOBAL_KEYWORDS, 2)
            if rng.random() < 0.25:
                kws.append(rng.choice(groups[rng.randrange(n_groups)]))
            kws = list(dict.fromkeys(kws))

            if idx % 37 == 11:  # an outlier far from every cluster
                embedding = nprng.normal(0.0, 3.0 * sigma, shape.dim) + 40.0 * sigma
                embedding[idx % shape.dim] += 40.0 * sigma * (1 + idx % 7)
            else:
                embedding = nprng.normal(centers[group % shape.clusters], sigma)

            if idx % 23 == 7:
                team = rng.sample(closed[(idx // 23) % len(closed)], rng.randint(2, 3))
            else:
                size = rng.choices([1, 2, 3, 4], weights=[1, 4, 4, 2])[0]
                # linear preferential attachment, offset by the mean so that
                # newcomers keep joining
                counts_so_far = papers_by[:n_authors]
                weights = np.cumsum(counts_so_far + 1.0 + counts_so_far.mean())
                team = []
                while len(team) < min(size, n_authors):
                    pick = weighted_pick(rng, weights)
                    if pick not in team:
                        team.append(pick)
            for a in team:
                papers_by[a] += 1

            want = min(earlier, round(rng.randint(*shape.refs) * ref_scale))
            refs: list[int] = []
            if want:
                # offset by the mean as for authors: a finite second moment
                # of in-degree keeps the CD index's cost alike across seeds
                pool_weights = np.cumsum(cited[:earlier] + 1.0 + cited[:earlier].mean())
                while len(refs) < want:
                    pick = weighted_pick(rng, pool_weights)
                    if pick not in refs:
                        refs.append(pick)
            ref_ids = [f"p{p:05d}" for p in refs]
            if idx > earlier and rng.random() < 0.05:  # same-year citation
                ref_ids.append(f"p{rng.randrange(earlier, idx):05d}")
            ref_ids += [f"ext-{rng.randint(1000, 9999)}" for _ in range(rng.randint(1, 3))]
            for p in refs:
                cited[p] += 1

            venue, pub_type = rng.choices(VENUES, weights=[5, 4, 3, 2, 3, 2])[0]
            rec = {
                "id": pid,
                "title": f"A {rng.choice(['novel', 'two-stage', 'adaptive', 'hybrid'])} "
                         f"{kws[0]} strategy for {kws[-1]}",
                "abstract": (f"This paper studies {kws[0]} within {kws[-2]} for "
                             f"{rng.choice(['benchmark suites', 'real-world instances', 'industrial cases'])}. "
                             f"We combine {' and '.join(kws[1:-1])} with {kws[-1]} and report "
                             f"consistent gains over {rng.randint(3, 9)} competitors on "
                             f"{rng.randint(10, 40)} instances."),
                "authors": [{"name": names[a], "affiliation": affiliation[names[a]]}
                            for a in team],
                "year": year,
                "venue": venue,
                "pub_type": pub_type,
                "author_keywords": sorted(rng.sample(kws, 2)),
                "subject_categories": sorted(rng.sample(CATEGORIES, rng.randint(1, 2))),
                "publisher": "Synthetic Press",
                "citation_count": 0,
                "page_count": rng.randint(6, 14),
                "references": ref_ids,
                "language": "English",
                "doc_type": "article" if pub_type == "journal" else "proceedings paper",
                "citation_statements": [
                    {"text": f"Prior work on {kws[0]} is adopted as the {i} baseline.",
                     "intent": i}
                    for i in rng.sample(INTENTS, rng.randint(0, 2))],
                "extracted_keywords": sorted(kws),
                "embedding": [round(float(v), 6) for v in embedding],
            }
            if idx in excluded:
                field, value = EXCLUDED_VALUES[excluded[idx]]
                rec[field] = value
            records.append(rec)
            idx += 1
        done += count

    # in-press citations: an early paper cites a later one
    for k in range(max(1, shape.papers // 500)):
        src = rng.randrange(counts[FIRST_YEAR])
        records[src]["references"].append(records[-1 - k]["id"])

    lines = [json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records]
    bad = [MALFORMED_LINES[k % len(MALFORMED_LINES)]
           for k in range(max(1, shape.papers // 1000))]
    for k, line in enumerate(bad):
        lines.insert((k + 1) * len(lines) // (len(bad) + 1), line)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "records.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (outdir / "queries.txt").write_bytes((FIXTURES / "queries.txt").read_bytes())
    write_config(outdir / "config.toml", shape.dim)

    expected = Expected(records_parsed=len(records), parse_errors=len(bad),
                        records_kept=len(records) - len(excluded))
    eps = eps_for(shape.dim, cfg["topics"]["eps"])
    kept = np.array([r["embedding"] for i, r in enumerate(records) if i not in excluded])
    topics, noise = density_clusters(kept, eps, cfg["topics"]["min_pts"])
    if topics < 2 or noise >= 0.5:
        raise ValueError(f"embeddings do not cluster: {topics} topics, noise {noise:.2f}")
    return expected


def density_clusters(points: np.ndarray, eps: float, min_pts: int) -> tuple[int, float]:
    """DBSCAN's cluster count and noise fraction, from the Gram matrix so
    that it needs n x n memory only."""
    sq = np.einsum("ij,ij->i", points, points)
    within = sq[:, None] + sq[None, :] - 2.0 * points @ points.T <= eps * eps
    core = within.sum(axis=1) >= min_pts
    label = np.full(len(points), -1)
    clusters = 0
    for seed in np.flatnonzero(core):
        if label[seed] >= 0:
            continue
        frontier = [seed]
        label[seed] = clusters
        while frontier:
            i = frontier.pop()
            if not core[i]:
                continue
            for j in np.flatnonzero(within[i] & (label < 0)):
                label[j] = clusters
                frontier.append(j)
        clusters += 1
    return clusters, float(np.mean(label < 0))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--papers", type=int, default=3000)
    parser.add_argument("--authors", type=int, default=72)
    parser.add_argument("--keywords", type=int, default=44)
    parser.add_argument("--refs", type=int, nargs=2, default=(2, 8))
    parser.add_argument("--dim", type=int, default=5)
    parser.add_argument("--clusters", type=int, default=3)
    parser.add_argument("--densification", type=float, default=1.2)
    args = parser.parse_args()
    shape = Shape(papers=args.papers, authors=args.authors, keywords=args.keywords,
                  refs=tuple(args.refs), dim=args.dim, clusters=args.clusters,
                  densification=args.densification)
    expected = generate(shape, args.seed, args.out)
    print(json.dumps({"shape": asdict(shape), "expected": asdict(expected)}))


if __name__ == "__main__":
    main()
