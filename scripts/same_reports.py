#!/usr/bin/env python3
"""Check that two litla output directories hold the same reports.

    python scripts/same_reports.py A B

Exits 0 when both directories hold the same file names, every file other
than ``run_manifest.json`` is byte-identical, and the two manifests are
equal once each stage's ``duration_s`` is dropped. Otherwise prints each
difference and exits 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

MANIFEST = "run_manifest.json"


def _without_durations(path: Path) -> dict:
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest["stages"] = [{k: v for k, v in entry.items() if k != "duration_s"}
                          for entry in manifest.get("stages", [])]
    return manifest


def differences(a: Path, b: Path) -> list[str]:
    """One line per difference between output directories ``a`` and ``b``."""
    names_a = {p.name for p in a.iterdir()}
    names_b = {p.name for p in b.iterdir()}
    diffs = [f"only in {a}: {name}" for name in sorted(names_a - names_b)]
    diffs += [f"only in {b}: {name}" for name in sorted(names_b - names_a)]
    for name in sorted(names_a & names_b):
        if name == MANIFEST:
            same = _without_durations(a / name) == _without_durations(b / name)
        else:
            same = (a / name).read_bytes() == (b / name).read_bytes()
        if not same:
            diffs.append(f"differs: {name}")
    return diffs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="first output directory")
    parser.add_argument("b", type=Path, help="second output directory")
    args = parser.parse_args(argv)
    diffs = differences(args.a, args.b)
    for line in diffs:
        print(line)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
