"""Byte-identical CLI output: the tiny benchmark requests against their recorded digests.

Every request that a benchmark workload sends at its tiny size is replayed
through ``qchsh.cli.main`` and the sha256 of its stdout is compared with
``perfbench/reference.json``.  A refactor that changes any printed digit
fails here.  The benchmark files are only read.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from qchsh.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
checks = _load("checks")
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))["requests"]
TINY_KEYS = list(
    dict.fromkeys(
        key
        for workload in workloads.WORKLOADS
        for group in workloads.groups(workload, "tiny")
        for key in group
    )
)


@pytest.mark.parametrize("key", TINY_KEYS)
def test_tiny_request_matches_reference_digest(key, tmp_path):
    (request,) = workloads.build_requests([key], tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(request.argv))
    assert code == 0
    assert checks.digest(out.getvalue()) == REFERENCE[key]["sha256"]
