"""Smoke test of the benchmark harness against the current sources.

The harness reaches into pournet by name (functions it times, wraps and
hooks), so a refactor that renames one of them breaks the benchmark without
breaking any other test. Each case runs one short gradcheck workload on a
copy of bench/ and src/ in a temporary directory, so no scratch or trace
files land in the checkout.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("trace", [0, 1])
def test_gradcheck_workload_runs_clean(tmp_path, trace):
    for name in ("bench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".bench_run"))
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "gradcheck", "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=tmp_path, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.strip().splitlines()[-1])
    assert report["correct"] is True, result.stdout
    assert report["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if trace else "end_to_end"
    missing = {m["name"] for m in declared[kind]} - set(report["metrics"])
    assert not missing
