import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "same_reports.py"


def manifest(duration: float) -> str:
    return json.dumps({"config_hash": "abc", "seed": 7, "stages": [
        {"stage": "ingest", "status": "ok", "error": None, "outputs": ["a.csv"],
         "warnings": [], "duration_s": duration}]})


def same_reports(a: Path, b: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPT), str(a), str(b)],
                          capture_output=True, text=True, timeout=60)


@pytest.fixture
def outputs(tmp_path):
    a = tmp_path / "a"
    a.mkdir()
    (a / "a.csv").write_bytes(b"label,count\nx,1\n")
    (a / "run_manifest.json").write_text(manifest(0.5))
    b = tmp_path / "b"
    shutil.copytree(a, b)
    return a, b


def test_equal_directories(outputs):
    result = same_reports(*outputs)
    assert (result.returncode, result.stdout) == (0, "")


def test_flipped_byte_differs(outputs):
    a, b = outputs
    (b / "a.csv").write_bytes(b"label,count\nx,2\n")
    result = same_reports(a, b)
    assert (result.returncode, result.stdout) == (1, "differs: a.csv\n")


def test_missing_file_differs(outputs):
    a, b = outputs
    (b / "a.csv").unlink()
    result = same_reports(a, b)
    assert (result.returncode, result.stdout) == (1, f"only in {a}: a.csv\n")


def test_durations_alone_do_not_differ(outputs):
    a, b = outputs
    (b / "run_manifest.json").write_text(manifest(9.25))
    assert same_reports(a, b).returncode == 0
    (b / "run_manifest.json").write_text(manifest(9.25).replace('"ok"', '"failed"'))
    result = same_reports(a, b)
    assert (result.returncode, result.stdout) == (1, "differs: run_manifest.json\n")
