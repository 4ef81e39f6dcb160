"""Byte-identical CLI output: benchmark requests against their recorded digests.

Every request that a benchmark workload sends at its tiny size, every
full-size ``optimize`` and ``ghz-table`` request with d <= 8, every
full-size ``verify`` request, the eight
full-size ``correlation --dim 12`` requests (json and csv, four state seeds)
and ``basis --dim 16``, the largest JSON report, are replayed through
``qchsh.cli.main`` and the sha256 of its stdout is compared with
``perfbench/reference.json``.  A refactor that changes any printed digit
fails here.  Each replayed ``optimize`` report is also checked from its own
printed numbers against its state (``conftest.check_optimize_report``).
The benchmark files are only read.

The digests were recorded with one BLAS thread, and some drift in the last
digits when OpenBLAS runs several.  The see-saw requests at d = 10 and 12
drift so; they run in a child process with ``OPENBLAS_NUM_THREADS=1``, so
the recording holds whatever threads this process uses.  The bounds and
correlation requests at d >= 14 drift too and are left out.  The basis build
calls no BLAS, so its digest holds with any thread count.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import check_optimize_report
from qchsh.cli import _resolve_state, build_parser, main

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


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



def _max_dim(key: str) -> int:
    argv = key.split()
    if "--dim" in argv:
        return int(argv[argv.index("--dim") + 1])
    return int(argv[argv.index("--dims") + 1].split(":")[1])


FULL_KEYS = list(
    dict.fromkeys(
        key
        for workload in workloads.WORKLOADS
        for group in workloads.groups(workload, "full")
        for key in group
    )
)
SEESAW_KEYS = [
    key for key in FULL_KEYS
    if key.split()[0] in ("optimize", "ghz-table") and _max_dim(key) <= 8
]
ONE_THREAD_SEESAW_KEYS = [
    key for key in FULL_KEYS if key.split()[0] == "optimize" and _max_dim(key) in (10, 12)
]
CORRELATION_KEYS = [
    key for key in FULL_KEYS if key.split()[0] == "correlation" and _max_dim(key) == 12
]
BASIS_KEYS = [key for key in FULL_KEYS if key.split()[0] == "basis" and _max_dim(key) == 16]
VERIFY_KEYS = [key for key in FULL_KEYS if key.split()[0] == "verify"]
OPTIMIZE_KEYS = [
    key for key in dict.fromkeys(TINY_KEYS + SEESAW_KEYS + ONE_THREAD_SEESAW_KEYS)
    if key.split()[0] == "optimize"
]


def _assert_matches_reference(key, tmp_path):
    (request,) = workloads.build_requests([key], tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(request.argv))
    assert code == 0
    assert checks.digest(out.getvalue()) == REFERENCE[key]["sha256"]


@pytest.mark.parametrize("key", TINY_KEYS)
def test_tiny_request_matches_reference_digest(key, tmp_path):
    _assert_matches_reference(key, tmp_path)


@pytest.mark.parametrize("key", SEESAW_KEYS)
def test_full_seesaw_request_matches_reference_digest(key, tmp_path):
    _assert_matches_reference(key, tmp_path)


@pytest.mark.parametrize("key", ONE_THREAD_SEESAW_KEYS)
def test_full_seesaw_request_matches_reference_digest_with_one_blas_thread(key, tmp_path):
    (request,) = workloads.build_requests([key], tmp_path)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    script = "import sys; from qchsh.cli import main; sys.exit(main(sys.argv[1:]))"
    run = subprocess.run(
        [sys.executable, "-c", script, *request.argv],
        capture_output=True, encoding="utf-8", env=env, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert checks.digest(run.stdout) == REFERENCE[key]["sha256"]


@pytest.mark.parametrize("key", VERIFY_KEYS)
def test_full_verify_request_matches_reference_digest(key, tmp_path):
    _assert_matches_reference(key, tmp_path)


@pytest.mark.parametrize("key", CORRELATION_KEYS)
def test_full_correlation_request_matches_reference_digest(key, tmp_path):
    _assert_matches_reference(key, tmp_path)


@pytest.mark.parametrize("key", BASIS_KEYS)
def test_full_basis_request_matches_reference_digest(key, tmp_path):
    _assert_matches_reference(key, tmp_path)


def _report_and_rho(key, tmp_path):
    """The printed report of a replayed request, one BLAS thread where its digest needs
    one, and the density matrix of its state."""
    (request,) = workloads.build_requests([key], tmp_path)
    if key in ONE_THREAD_SEESAW_KEYS:
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        script = "import sys; from qchsh.cli import main; sys.exit(main(sys.argv[1:]))"
        run = subprocess.run(
            [sys.executable, "-c", script, *request.argv],
            capture_output=True, encoding="utf-8", env=env, timeout=300,
        )
        assert run.returncode == 0, run.stderr
        text = run.stdout
    else:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(list(request.argv)) == 0
        text = out.getvalue()
    return text, _resolve_state(build_parser().parse_args(request.argv)).rho


@pytest.mark.parametrize("key", OPTIMIZE_KEYS)
def test_replayed_optimize_report_passes_its_own_check(key, tmp_path):
    text, rho = _report_and_rho(key, tmp_path)
    check_optimize_report(text, rho)


def _nudge_coefficient(report, rho):
    report["a1"][0] += 1e-12
    return report, rho


def _scale_matrix(report, rho):
    report["settings"]["B2"] = (np.array(report["settings"]["B2"]) * (1 + 1e-12)).tolist()
    return report, rho


def _swap_parties(report, rho):
    d = report["d"]
    return report, rho.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(d * d, d * d)


@pytest.mark.parametrize(
    "fault, message",
    [
        (_nudge_coefficient, "a1 misses A1"),
        (_scale_matrix, "B2 has [|]eigenvalue[|]"),  # exact-mode settings have eigenvalues +-1
        (_swap_parties, "tr.rho B."),
    ],
)
def test_optimize_report_check_refuses_a_planted_fault(fault, message, tmp_path):
    text, rho = _report_and_rho(OPTIMIZE_KEYS[0], tmp_path)
    check_optimize_report(text, rho)
    report, rho = fault(json.loads(text), rho)
    with pytest.raises(AssertionError, match=message):
        check_optimize_report(json.dumps(report), rho)
