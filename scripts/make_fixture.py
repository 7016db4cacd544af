#!/usr/bin/env python3
"""Generate the bundled synthetic 200-record corpus plus the query and
config files the CLI runs against.

The corpus is seeded and fully deterministic: three embedding blobs with a
few planted outliers, ten keyword themes tied to the blobs, preferential
in-corpus citations, a growing author pool with a handful of deliberately
isolated groups, and a small set of records that trip each exclusion rule.
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

SEED = 20240311
YEARS = list(range(2008, 2024))

FIRST_NAMES = [
    "Mei", "Rahul", "Elena", "Tomas", "Aiko", "Lucas", "Priya", "Jonas",
    "Sofia", "Wei", "Hana", "Diego", "Ingrid", "Omar", "Yuki", "Carlos",
    "Nadia", "Petr", "Lin", "Anya",
]
LAST_NAMES = [
    "Chen", "Gupta", "Novak", "Silva", "Tanaka", "Weber", "Iyer", "Berg",
    "Rossi", "Zhang", "Kim", "Moreno", "Larsen", "Haddad", "Sato", "Diaz",
    "Kovacs", "Dvorak", "Wang", "Petrov",
]

AFFILIATIONS = [
    "Tsinghua University, Beijing, 100084, China",
    "School of Automation, Northwestern Polytechnical University, Xian, China",
    "University of Exeter, North Park Road, Exeter EX4 4QF, UK",
    "Department of Informatics, University of Birmingham, Birmingham, England",
    "Massachusetts Institute of Technology, Cambridge, MA 02139, USA",
    "College of Engineering, Michigan State University, East Lansing, Michigan",
    "Indian Institute of Technology, Kanpur, 208016, India",
    "Graduate School of Engineering, Osaka Metropolitan University, Osaka, Japan",
    "Departamento de Computacion, CINVESTAV-IPN, Mexico City, Mexico",
    "School of Computer Science, University of Adelaide, Adelaide, Australia",
    "Institute of Systems Science, Universidade Nova de Lisboa, Lisbon, Portugal",
    "Deep Crevasse Research Station, Atlantis",
]

VENUES = [
    ("IEEE Transactions on Evolutionary Computation", "journal"),
    ("Applied Soft Computing", "journal"),
    ("Swarm and Evolutionary Computation", "journal"),
    ("Information Sciences", "journal"),
    ("IEEE Congress on Evolutionary Computation", "conference"),
    ("Genetic and Evolutionary Computation Conference", "conference"),
]

CATEGORIES = [
    "Computer Science, Artificial Intelligence",
    "Computer Science, Theory & Methods",
    "Engineering, Electrical & Electronic",
    "Operations Research & Management Science",
    "Automation & Control Systems",
    "Energy & Fuels",
    "Telecommunications",
    "Mathematics, Applied",
]

# theme name -> (blob, keyword phrases); every phrase also appears verbatim in text
THEMES = {
    "decomposition core": (0, ["weight vectors", "scalarizing functions",
                               "neighborhood selection", "reference points"]),
    "constrained optimization": (0, ["constraint handling", "feasibility rules",
                                     "penalty functions", "constrained problems"]),
    "preference based": (0, ["preference articulation", "interactive optimization",
                             "decision maker", "reference direction"]),
    "dynamic problems": (0, ["dynamic optimization", "change detection",
                             "prediction strategies"]),
    "surrogate assisted": (0, ["surrogate model", "kriging", "expensive evaluations",
                               "model management"]),
    "production scheduling": (1, ["flow shop", "job scheduling", "makespan",
                                  "production planning"]),
    "routing applications": (1, ["vehicle routing", "path planning",
                                 "unmanned aerial vehicles", "route optimization"]),
    "energy systems": (1, ["power dispatch", "renewable energy", "smart grid",
                           "energy storage"]),
    "communication networks": (1, ["wireless sensor networks", "spectrum allocation",
                                   "network topology", "edge computing"]),
    "learning applications": (2, ["feature selection", "neural architecture",
                                  "hyperparameter tuning", "reinforcement learning"]),
}

GLOBAL_KEYWORDS = ["multi-objective optimization", "evolutionary algorithm",
                   "pareto front", "diversity maintenance", "convergence"]

BLOB_CENTERS = {
    0: [0.0, 0.0, 0.0, 0.0, 0.0],
    1: [10.0, 0.0, 4.0, 0.0, 0.0],
    2: [0.0, 10.0, 0.0, 4.0, 0.0],
}
BLOB_SIGMA = 0.45
OUTLIER_SHIFT = 25.0

INTENTS = (["method"] * 4 + ["background"] * 3 + ["extension"] * 2 + ["comparison"])

QUERIES = [
    ("constrained", '"constraint handling" OR "feasibility rules" OR "penalty functions"'),
    ("preference", '"preference articulation" OR "decision maker" OR "interactive optimization"'),
    ("scheduling", '"flow shop" OR makespan OR "job scheduling"'),
    ("learning", '"feature selection" OR "neural architecture" OR "reinforcement learning"'),
    ("surrogate only", '"surrogate model" AND NOT "neural architecture"'),
    ("decomposition methods",
     '("weight vectors" OR "scalarizing functions") AND "multi-objective optimization"'),
]

CONFIG_TEMPLATE = """\
# Run configuration for the bundled synthetic corpus.

[run]
seed = 42

[input]
records = "records.jsonl"
queries = "queries.txt"

[output]
dir = "out"

[exclusions]
min_pages = 4
allowed_languages = ["English"]
excluded_doc_types = ["book", "keynote", "workshop paper", "unpublished"]

[topics]
eps = 1.4
min_pts = 4
top_terms = 10
trend_since = 2018
emerging_k = 5

[linkage]
epsilon = 0.15

[linkage.themes]
{themes}

[citenet]
decay = 0.2
damping = 0.85
tol = 1e-10
max_iter = 500
cd_window = 0
backbone_k = 25
degree_xmin = 1

[collabnet]
damping = 0.85
tol = 1e-10
max_iter = 500
top_k = 25
exclude_unknown = true

[predict]
n_trees = 30
max_depth = 3
learning_rate = 0.2
min_leaf = 5
neg_ratio = 5
top_n = 50
"""


def year_allocation(total: int) -> dict[int, int]:
    """Linearly growing yearly counts (quadratic-ish cumulative) summing to total."""
    raw = [3 + 1.25 * i for i in range(len(YEARS))]
    scale = total / sum(raw)
    counts = [int(round(r * scale)) for r in raw]
    counts[-1] += total - sum(counts)
    return dict(zip(YEARS, counts))


def make_authors(rng: random.Random) -> list[dict]:
    pairs = [(f, l) for l in LAST_NAMES for f in FIRST_NAMES]
    rng.shuffle(pairs)
    authors = []
    for i, (first, last) in enumerate(pairs[:72]):
        authors.append({
            "name": f"{first} {last}",
            "affiliation": AFFILIATIONS[i % len(AFFILIATIONS)],
        })
    return authors


def gauss_point(rng: random.Random, center: list[float], sigma: float) -> list[float]:
    return [round(rng.gauss(c, sigma), 6) for c in center]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=str(Path(__file__).resolve().parents[1] / "fixtures"))
    parser.add_argument("--n", type=int, default=200)
    args = parser.parse_args()
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    rng = random.Random(SEED)
    authors = make_authors(rng)
    # four closed research groups that never collaborate outside
    isolated_groups = [list(range(60 + 3 * g, 63 + 3 * g)) for g in range(4)]
    open_pool_size = 60

    theme_names = list(THEMES)
    counts = year_allocation(args.n)
    records = []
    in_degree: dict[str, int] = {}
    paper_meta: list[tuple[str, int]] = []  # (id, year)

    # spread the exclusion-violating records across the corpus
    special = {
        5: ("language", "German"),
        57: ("language", "Chinese"),
        23: ("pages", 3),
        101: ("pages", 2),
        34: ("doc_type", "workshop paper"),
        88: ("doc_type", "book"),
        141: ("doc_type", "keynote"),
    }

    idx = 0
    for year in YEARS:
        for _ in range(counts[year]):
            pid = f"p{idx:04d}"
            blob = rng.choices([0, 1, 2], weights=[5, 4, 3])[0]
            is_outlier = idx % 37 == 11
            if is_outlier:
                embedding = gauss_point(
                    rng, [OUTLIER_SHIFT + 10 * (idx % 5), -OUTLIER_SHIFT, 0.0,
                          OUTLIER_SHIFT, 5.0 * (idx % 3)], 0.2)
            else:
                embedding = gauss_point(rng, BLOB_CENTERS[blob], BLOB_SIGMA)

            # keywords: theme phrases plus global vocabulary, all woven into text
            blob_themes = [t for t in theme_names if THEMES[t][0] == blob]
            theme = rng.choice(blob_themes)
            phrases = THEMES[theme][1]
            n_kw = rng.randint(2, min(4, len(phrases)))
            kws = rng.sample(phrases, n_kw) + rng.sample(GLOBAL_KEYWORDS, 2)
            if rng.random() < 0.25:  # cross-theme bridge for linkage signal
                other = rng.choice([t for t in theme_names if t != theme])
                kws.append(rng.choice(THEMES[other][1]))

            title = (f"A {rng.choice(['novel', 'two-stage', 'adaptive', 'hybrid'])} "
                     f"{kws[0]} strategy for {kws[-1]}")
            abstract = (
                f"This paper studies {kws[0]} within {kws[-2]} for "
                f"{rng.choice(['benchmark suites', 'real-world instances', 'industrial cases'])}. "
                f"We combine {' and '.join(kws[1:-2]) if len(kws) > 3 else kws[0]} with "
                f"{kws[-1]} and report consistent gains. "
                f"Results against {rng.randint(3, 9)} competitors confirm the benefit of "
                f"{kws[0]} across {rng.randint(10, 40)} instances."
            )

            # authors: closed groups keep to themselves, the open pool grows yearly
            if idx % 23 == 7:
                group = isolated_groups[(idx // 23) % len(isolated_groups)]
                team = rng.sample(group, rng.randint(2, 3))
            else:
                avail = min(open_pool_size, 12 + 4 * (year - YEARS[0]))
                weights = [1.0 / (i + 3) for i in range(avail)]
                team_size = rng.choices([1, 2, 3, 4], weights=[1, 4, 4, 2])[0]
                team = []
                while len(team) < team_size:
                    pick = rng.choices(range(avail), weights=weights)[0]
                    if pick not in team:
                        team.append(pick)

            # citations: preferential over earlier papers, plus external refs
            earlier = [p for p, y in paper_meta if y < year]
            refs = []
            if earlier:
                want = min(len(earlier), rng.randint(2, 8))
                pool_weights = [in_degree.get(p, 0) + 1.0 for p in earlier]
                while len(refs) < want:
                    pick = rng.choices(earlier, weights=pool_weights)[0]
                    if pick not in refs:
                        refs.append(pick)
            same_year = [p for p, y in paper_meta if y == year]
            if same_year and rng.random() < 0.05:
                refs.append(rng.choice(same_year))
            for _ in range(rng.randint(1, 3)):
                refs.append(f"ext-{rng.randint(1000, 9999)}")

            statements = []
            if rng.random() < 0.55:
                for _ in range(rng.randint(1, 2)):
                    intent = rng.choice(INTENTS)
                    statements.append({
                        "text": f"Prior work on {kws[0]} is adopted as the {intent} baseline.",
                        "intent": intent,
                    })

            venue, pub_type = rng.choices(VENUES, weights=[5, 4, 3, 2, 3, 2])[0]
            language = "English"
            page_count = rng.randint(6, 14)
            doc_type = "article" if pub_type == "journal" else "proceedings paper"
            kind = special.get(idx)
            if kind:
                if kind[0] == "language":
                    language = kind[1]
                elif kind[0] == "pages":
                    page_count = kind[1]
                elif kind[0] == "doc_type":
                    doc_type = kind[1]

            records.append({
                "id": pid,
                "title": title,
                "abstract": abstract,
                "authors": [authors[i] for i in team],
                "year": year,
                "venue": venue,
                "pub_type": pub_type,
                "author_keywords": sorted(rng.sample(kws, min(2, len(kws)))),
                "subject_categories": sorted(rng.sample(CATEGORIES, rng.randint(1, 2))),
                "publisher": "Synthetic Press",
                "citation_count": 0,
                "page_count": page_count,
                "references": refs,
                "language": language,
                "doc_type": doc_type,
                "citation_statements": statements,
                "extracted_keywords": sorted(set(kws)),
                "embedding": embedding,
            })
            for r in refs:
                if r.startswith("p"):
                    in_degree[r] = in_degree.get(r, 0) + 1
            paper_meta.append((pid, year))
            idx += 1

    # one in-press anomaly: an early paper citing a later one
    records[10]["references"].append(records[150]["id"])

    with open(outdir / "records.jsonl", "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":"),
                                ensure_ascii=False) + "\n")

    with open(outdir / "queries.txt", "w", encoding="utf-8") as fh:
        fh.write("# topic_name: boolean expression over title+abstract tokens\n")
        for name, expr in QUERIES:
            fh.write(f"{name}: {expr}\n")

    theme_lines = "\n".join(
        f'"{name}" = {json.dumps(phrases)}'
        for name, (_blob, phrases) in THEMES.items()
    )
    (outdir / "config.toml").write_text(
        CONFIG_TEMPLATE.format(themes=theme_lines), encoding="utf-8")

    print(f"wrote {len(records)} records to {outdir}")


if __name__ == "__main__":
    main()
