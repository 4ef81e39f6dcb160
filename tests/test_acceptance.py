"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines and timings.
"""

import time

import numpy as np

from qchsh import (
    SeesawConfig,
    TSIRELSON,
    TracelessObservable,
    build_gellmann_basis,
    chsh_bounds,
    chsh_expectation_direct,
    chsh_expectation_from_correlations,
    correlation_matrix,
    ghz_chsh_maximum,
    ghz_correlation_matrix,
    ghz_optimal_settings,
    ghz_state,
    horodecki_two_qubit,
    random_two_qudit_state,
    seesaw_maximize,
)
from qchsh.correlation import ChshSettings

from conftest import boundary, polytope_vertex_max, random_hermitian, traceless_linear_max

ROOT2 = np.sqrt(2.0)


def _report(number, name, started, detail=""):
    elapsed = time.time() - started
    print(f"[PASS] criterion {number} ({name}): {detail} [{elapsed:.1f}s]")
    return elapsed


def test_criterion_01_gellmann_orthogonality():
    started = time.time()
    worst = 0.0
    for d in range(2, 11):
        basis = build_gellmann_basis(d)
        gram = np.einsum("aij,bji->ab", basis.stack, basis.stack)
        worst = max(worst, float(np.max(np.abs(gram - 2.0 * np.eye(basis.size)))))
    assert worst < 1e-12
    elapsed = _report(1, "orthogonality", started, f"max residual {worst:.2e}")
    assert elapsed < 5.0


def test_criterion_02_norm_sandwich():
    started = time.time()
    rng = np.random.default_rng(101)
    for d in range(2, 7):
        basis = build_gellmann_basis(d)
        g = rng.standard_normal((10_000, basis.size))
        norms = np.linalg.norm(g, axis=1)
        assert np.all(norms > 0)
        mats = np.einsum("nj,jkl->nkl", g, basis.stack)
        eigs = np.linalg.eigvalsh(mats)
        ratio = np.maximum(np.abs(eigs[:, 0]), np.abs(eigs[:, -1])) / norms
        assert np.min(ratio) >= np.sqrt(2.0 / d) - 1e-10
        assert np.max(ratio) <= np.sqrt(2.0 * (d - 1) / d) + 1e-10
        if d == 2:
            assert np.max(np.abs(ratio - 1.0)) <= 1e-12
    elapsed = _report(2, "norm sandwich", started, "10^4 vectors per d in 2..6")
    assert elapsed < 30.0


def test_criterion_03_ghz_correlation_closed_form():
    started = time.time()
    worst_entry = worst_square = 0.0
    for d in range(2, 9):
        basis = build_gellmann_basis(d)
        computed = correlation_matrix(ghz_state(d)).matrix
        closed = ghz_correlation_matrix(d).matrix
        worst_entry = max(worst_entry, float(np.max(np.abs(computed - closed))))
        square = computed @ computed - (4.0 / d**2) * np.eye(basis.size)
        worst_square = max(worst_square, float(np.max(np.abs(square))))
    assert worst_entry < 1e-12
    assert worst_square < 1e-12
    elapsed = _report(
        3, "GHZ closed form", started,
        f"entry residual {worst_entry:.2e}, square residual {worst_square:.2e}",
    )
    assert elapsed < 30.0


def test_criterion_04_certificate_values():
    started = time.time()
    worst = 0.0
    values = []
    for d in range(2, 9):
        expected = 2.0 * ROOT2 if d % 2 == 0 else 2.0 * (d - 1) / d * ROOT2
        value = chsh_expectation_direct(ghz_state(d), ghz_optimal_settings(d))
        values.append(value)
        worst = max(worst, abs(value - expected))
        assert abs(value - ghz_chsh_maximum(d)) < 1e-12
    assert worst < 1e-12
    elapsed = _report(
        4, "certificate", started,
        "values " + ", ".join(f"{v:.6f}" for v in values) + f"; worst gap {worst:.2e}",
    )
    assert elapsed < 10.0


def test_criterion_05_seesaw_reaches_ghz_maximum():
    started = time.time()
    worst = 0.0
    for d in range(2, 7):
        config = SeesawConfig(mode="exact", restarts=32, seed=1)
        result = seesaw_maximize(correlation_matrix(ghz_state(d)), config)
        worst = max(worst, abs(result.value - ghz_chsh_maximum(d)))
    assert worst < 1e-6
    elapsed = _report(5, "see-saw on GHZ", started, f"32 restarts, worst gap {worst:.2e}")
    assert elapsed < 120.0


def test_criterion_06_two_qubit_exact_value():
    started = time.time()
    worst_bounds = worst_seesaw = 0.0
    for seed in range(200):
        state = random_two_qudit_state(2, seed)
        t = correlation_matrix(state)
        exact = horodecki_two_qubit(t)
        report = chsh_bounds(t)
        worst_bounds = max(
            worst_bounds, abs(report.lower - exact), abs(report.upper - exact)
        )
        config = SeesawConfig(mode="exact", restarts=8, seed=seed, tolerance=1e-12)
        result = seesaw_maximize(t, config)
        worst_seesaw = max(worst_seesaw, abs(result.value - exact))
    assert worst_bounds < 1e-12
    assert worst_seesaw < 1e-6
    elapsed = _report(
        6, "two-qubit exact value", started,
        f"200 states; bounds gap {worst_bounds:.2e}, see-saw gap {worst_seesaw:.2e}",
    )
    assert elapsed < 120.0


def test_criterion_07_bound_sandwich():
    started = time.time()
    worst_excess = -np.inf
    for d in (3, 4, 5):
        for seed in range(100):
            state = random_two_qudit_state(d, seed)
            report = chsh_bounds(correlation_matrix(state))
            assert report.lower <= report.upper + 1e-12
            config = SeesawConfig(mode="exact", restarts=6, seed=seed)
            result = seesaw_maximize(correlation_matrix(state), config)
            worst_excess = max(worst_excess, result.value - report.upper)
            assert result.value <= report.upper + 1e-8
            assert result.value <= TSIRELSON + 1e-9
    elapsed = _report(
        7, "bound sandwich", started,
        f"300 states; max(see-saw - upper) = {worst_excess:.2e}",
    )
    assert elapsed < 300.0


def test_criterion_08_form_equivalence():
    started = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for d in (2, 3, 4):
        basis = build_gellmann_basis(d)
        for trial in range(200):
            state = random_two_qudit_state(d, seed=trial)
            t = correlation_matrix(state)
            vectors = [
                rng.uniform(0.0, 1.0)
                * boundary(rng.standard_normal(basis.size), basis)
                for _ in range(4)
            ]
            settings = ChshSettings(
                *[TracelessObservable(v) for v in vectors]
            )
            direct = chsh_expectation_direct(state, settings)
            via = chsh_expectation_from_correlations(t, settings)
            worst = max(worst, abs(direct - via))
    assert worst < 1e-10
    elapsed = _report(8, "form equivalence", started, f"600 pairs; worst gap {worst:.2e}")
    assert elapsed < 60.0


def test_criterion_09_linear_program_oracle():
    started = time.time()
    rng = np.random.default_rng(7)
    worst = 0.0
    for d in (2, 3, 4):
        for _ in range(1000):
            c = random_hermitian(rng, d, traceless=True)
            _, value = traceless_linear_max(c)
            oracle = polytope_vertex_max(np.linalg.eigvalsh(c))
            worst = max(worst, abs(value - oracle))
    assert worst < 1e-12
    elapsed = _report(9, "LP oracle", started, f"3000 instances; worst gap {worst:.2e}")
    assert elapsed < 60.0


def test_criterion_10_odd_dimension_improves_ceiling():
    started = time.time()
    for d in (3, 5, 7):
        report = chsh_bounds(ghz_correlation_matrix(d))
        expected = 2.0 * (d - 1) / d * ROOT2
        assert abs(report.upper - expected) < 1e-12
        assert report.upper < TSIRELSON
        assert report.upper_improves_tsirelson
    elapsed = _report(10, "odd-d ceiling", started, "upper strictly below 2*sqrt(2), flagged")
    assert elapsed < 1.0
