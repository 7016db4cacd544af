#!/usr/bin/env python3
"""Check that the working tree's litla writes the same reports as a revision.

    python3 scripts/same_as.py REV

Exports ``src/`` of the git revision ``REV`` into a temporary directory
with ``git archive`` (no worktree, nothing written under ``.git``) and
generates the seed-7 ``citations``, ``entities`` and ``embeddings``
corpora with ``benchmark/corpus.py`` at the shapes of
``benchmark/run.py``'s workloads. Then runs ``litla all --seed 7`` from
both trees on the bundled fixture and on each corpus, prints
``same_reports.differences`` (and any difference in exit code) for each
input, and exits 1 on any difference.

Each input is also run from the working tree with a one-CPU affinity, on
platforms that have ``os.sched_setaffinity``. There ``run_stages`` runs
every stage in process, and its reports must be the same as those of the
working tree's forked run. Needs Python 3.11 or later, as the benchmark
does.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmark"))

import corpus  # noqa: E402  (benchmark/corpus.py)
from run import WORKLOADS  # noqa: E402  (benchmark/run.py)
from same_reports import differences  # noqa: E402

SEED = 7
CORPORA = ("citations", "entities", "embeddings")


def export_src(rev: str, dest: Path) -> Path:
    """``src/`` of ``rev``, unpacked under ``dest``."""
    dest.mkdir()
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                         check=True, stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)
    return dest / "src"


def one_cpu() -> None:
    """Restrict the calling process to one of the CPUs it may use."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def litla_all(src: Path, config: Path, out: Path, in_process: bool = False) -> int:
    """Exit code of ``litla all`` run from the sources under ``src``; with
    ``in_process``, on one CPU, so that it forks no worker."""
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-m", "litla", "all", "--config", str(config),
            "--output", str(out), "--seed", str(SEED)]
    pin = one_cpu if in_process and hasattr(os, "sched_setaffinity") else None
    return subprocess.run(argv, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, preexec_fn=pin).returncode


def report(label: str, same: str, diffs: list[str]) -> bool:
    """Print ``label``'s result; whether there was any difference."""
    print(f"{label}: " + (same if not diffs else f"{len(diffs)} differences"))
    for line in diffs:
        print(f"  {line}")
    return bool(diffs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare the working tree against")
    args = parser.parse_args(argv)
    found = False
    with tempfile.TemporaryDirectory(prefix="same_as-") as tmp:
        tmp = Path(tmp)
        rev_src = export_src(args.rev, tmp / "rev")
        inputs = {"fixture": ROOT / "fixtures" / "config.toml"}
        for name in CORPORA:
            corpus.generate(WORKLOADS[name].shape, SEED, tmp / name)
            inputs[name] = tmp / name / "config.toml"
        for name, config in inputs.items():
            out_rev, out_tree = tmp / f"{name}-rev", tmp / f"{name}-tree"
            out_one = tmp / f"{name}-in-process"
            code_rev = litla_all(rev_src, config, out_rev)
            code_tree = litla_all(ROOT / "src", config, out_tree)
            code_one = litla_all(ROOT / "src", config, out_one, in_process=True)
            diffs = differences(out_rev, out_tree)
            if code_rev != code_tree:
                diffs.insert(0, f"exit code {code_rev} at {args.rev}, "
                                f"{code_tree} in the working tree")
            found = report(name, "same reports", diffs) or found
            diffs = differences(out_tree, out_one)
            if code_tree != code_one:
                diffs.insert(0, f"exit code {code_tree} with workers, {code_one} in process")
            found = report(name, "workers same as in process", diffs) or found
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
