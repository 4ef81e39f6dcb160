"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, *extra: str) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_printed(workload, trace):
    result, report = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in named} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    assert "# fail_ratio 0 " in report


def test_corrupted_reference_value_counts_as_failure():
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    for entry in reference["requests"].values():
        if "value" in entry:
            entry["value"] += 1.0
    (HERE / "out").mkdir(exist_ok=True)
    corrupted = HERE / "out" / "reference-corrupted.json"
    corrupted.write_text(json.dumps(reference), encoding="utf-8")
    try:
        result, report = _run("seesaw-small-d", 0, "--reference", str(corrupted))
    finally:
        corrupted.unlink()
    assert not result["correct"]
    assert 1 <= result["failed"] < result["attempted"]
    assert "below reference" in report
    assert "# fail_ratio 0 " not in report
