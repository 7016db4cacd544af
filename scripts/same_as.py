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
input, and exits 1 on any difference. Needs Python 3.11 or later, as the
benchmark does.
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


def litla_all(src: Path, config: Path, out: Path) -> int:
    """Exit code of ``litla all`` run from the sources under ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-m", "litla", "all", "--config", str(config),
            "--output", str(out), "--seed", str(SEED)]
    return subprocess.run(argv, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


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
            code_rev = litla_all(rev_src, config, out_rev)
            code_tree = litla_all(ROOT / "src", config, out_tree)
            diffs = differences(out_rev, out_tree)
            if code_rev != code_tree:
                diffs.insert(0, f"exit code {code_rev} at {args.rev}, "
                                f"{code_tree} in the working tree")
            print(f"{name}: " + ("same reports" if not diffs else f"{len(diffs)} differences"))
            for line in diffs:
                print(f"  {line}")
            found = found or bool(diffs)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
