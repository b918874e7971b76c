"""Smoke tests for the benchmark harness, on a few ops per workload.

Run from the repository root: ``python -m pytest bench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY_OPS = 4
SEED = 3


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.2", "--trace", str(trace), "--ops", str(TINY_OPS)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(workload: str, trace: int) -> tuple[dict, dict]:
    """The printed JSON line and the result file of one run."""
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    line = json.loads(lines[-1])
    path = next(s.split(": ", 1)[1] for s in lines if s.startswith("result file: "))
    return line, json.loads((ROOT / path).read_text())


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    workload = request.param
    return {"plain": _result(workload, 0), "traced": [_result(workload, 1) for _ in range(2)]}


def test_every_metric_is_printed_with_its_unit(runs):
    for (line, _), spec_key in ((runs["plain"], "end_to_end"), (runs["traced"][0], "per_layer")):
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= TINY_OPS
        expected = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        printed = {name: m["unit"] for name, m in line["metrics"].items()}
        assert printed == expected
        assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())


def test_layer_counts_repeat_exactly(runs):
    counted = [m["name"] for m in SPEC["per_layer"]
               if m["unit"] in ("count", "bits") or m["name"].endswith(("repeat_ratio", "hit_ratio"))]
    first, second = (line["metrics"] for line, _ in runs["traced"])
    assert {n: first[n]["value"] for n in counted} == {n: second[n]["value"] for n in counted}


def test_tracing_leaves_report_bytes_unchanged(runs):
    plain = [op["stdout_sha256"] for op in runs["plain"][1]["ops"]]
    for _line, record in runs["traced"]:
        # failed == 0 already says the traced pass matched the untraced one.
        assert [op["stdout_sha256"] for op in record["ops"]] == plain


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
