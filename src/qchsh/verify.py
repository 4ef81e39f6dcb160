"""Self-verification suites exposed through the CLI ``verify`` subcommand.

Each suite checks one family of invariants at fixed tolerances and reports a
pass/fail outcome with the number of checks performed.  Suites build bases
through the module-level ``build_gellmann_basis`` name so tests can inject a
corrupted builder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import chsh_bounds, ghz_chsh_maximum, ghz_correlation_matrix, horodecki_two_qubit
from .correlation import correlation_matrix
from .errors import ValidationError
from .representation import build_gellmann_basis, check_count
from .states import ghz_state, random_two_qudit_state


@dataclass(frozen=True)
class SuiteResult:
    name: str
    checks: int
    passed: bool
    detail: str = ""


def suite_orthogonality(dims, trials, seed) -> SuiteResult:
    worst = 0.0
    checks = 0
    for d in dims:
        basis = build_gellmann_basis(d)
        gram = np.einsum("aij,bji->ab", basis.stack, basis.stack)
        residual = float(np.max(np.abs(gram - 2.0 * np.eye(basis.size))))
        worst = max(worst, residual)
        checks += basis.size * basis.size
    passed = worst < 1e-12
    return SuiteResult("orthogonality", checks, passed, f"max |tr - 2*delta| = {worst:.3e}")


def suite_lemma1(dims, trials, seed) -> SuiteResult:
    rng = np.random.default_rng([seed, 1])
    checks = 0
    for d in dims:
        basis = build_gellmann_basis(d)
        g = rng.standard_normal((trials, basis.size))
        norms = np.linalg.norm(g, axis=1)
        keep = norms > 0
        g, norms = g[keep], norms[keep]
        ratio = basis.vector_operator_norm(g) / norms
        low = np.sqrt(2.0 / d)
        high = np.sqrt(2.0 * (d - 1) / d)
        if np.min(ratio) < low - 1e-10 or np.max(ratio) > high + 1e-10:
            return SuiteResult(
                "lemma1",
                checks,
                False,
                f"d={d}: ratio range [{np.min(ratio):.12f}, {np.max(ratio):.12f}] "
                f"outside [{low:.12f}, {high:.12f}]",
            )
        if d == 2 and np.max(np.abs(ratio - 1.0)) > 1e-12:
            return SuiteResult(
                "lemma1", checks, False,
                f"d=2 ratio deviates from 1 by {np.max(np.abs(ratio - 1.0)):.3e}",
            )
        checks += int(g.shape[0])
    return SuiteResult("lemma1", checks, True, "norm sandwich holds")


def suite_roundtrip(dims, trials, seed) -> SuiteResult:
    rng = np.random.default_rng([seed, 2])
    checks = 0
    count = min(trials, 2000)
    for d in dims:
        basis = build_gellmann_basis(d)
        scale = np.sqrt(2.0 * d)
        g = rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))
        x = 0.5 * (g + np.conj(np.swapaxes(g, 1, 2)))
        traces = np.einsum("tkk->t", x) / d
        x -= traces[:, None, None] * np.eye(d)
        n = basis.to_vector(x) / scale
        back = np.sqrt(d / 2.0) * basis.to_matrix(n)
        matrix_err = float(np.max(np.abs(back - x)))
        if matrix_err > 1e-10:
            return SuiteResult(
                "roundtrip", checks, False, f"d={d}: reconstruction error {matrix_err:.3e}"
            )
        # tr[X^2] = d * ||n||^2 for the rescaled coefficients
        x_sq = np.real(np.einsum("tkl,tlk->t", x, x))
        norm_err = float(np.max(np.abs(x_sq - d * np.einsum("tj,tj->t", n, n))))
        if norm_err > 1e-10:
            return SuiteResult(
                "roundtrip", checks, False, f"d={d}: norm identity residual {norm_err:.3e}"
            )
        vec = rng.standard_normal((count, basis.size))
        mats = np.sqrt(d / 2.0) * basis.to_matrix(vec)
        vec_back = basis.to_vector(mats) / scale
        vector_err = float(np.max(np.abs(vec_back - vec)))
        if vector_err > 1e-10:
            return SuiteResult(
                "roundtrip", checks, False, f"d={d}: vector round-trip error {vector_err:.3e}"
            )
        checks += 3 * count
    return SuiteResult("roundtrip", checks, True, "bijection holds to 1e-10")


def suite_correlation_bound(dims, trials, seed) -> SuiteResult:
    rng = np.random.default_rng([seed, 3])
    checks = 0
    pairs = min(trials, 1000)
    for d in dims:
        basis = build_gellmann_basis(d)
        for k in range(3):
            state = random_two_qudit_state(d, seed=int(rng.integers(2**31)))
            t = correlation_matrix(state).matrix
            a = basis.random_admissible(rng, pairs)
            b = basis.random_admissible(rng, pairs)
            values = np.abs(np.einsum("nj,nj->n", a, b @ t.T))
            worst = float(np.max(values))
            if worst > 2.0 / d + 1e-9:
                return SuiteResult(
                    "correlation-bound", checks, False,
                    f"d={d}: |<a, T b>| = {worst:.12f} exceeds 2/d = {2.0 / d:.12f}",
                )
            checks += pairs
    return SuiteResult("correlation-bound", checks, True, "pairings within 2/d")


def suite_ghz_closed_form(dims, trials, seed) -> SuiteResult:
    checks = 0
    for d in dims:
        computed = correlation_matrix(ghz_state(d)).matrix
        closed = ghz_correlation_matrix(d).matrix
        entry_err = float(np.max(np.abs(computed - closed)))
        square_err = float(
            np.max(np.abs(computed @ computed - (4.0 / d**2) * np.eye(d * d - 1)))
        )
        if entry_err > 1e-12 or square_err > 1e-12:
            return SuiteResult(
                "ghz-closed-form", checks, False,
                f"d={d}: entry residual {entry_err:.3e}, square residual {square_err:.3e}",
            )
        checks += 2
    return SuiteResult("ghz-closed-form", checks, True, "block form and T^2 = (4/d^2) I")


def suite_bound_ordering(dims, trials, seed) -> SuiteResult:
    rng = np.random.default_rng([seed, 4])
    checks = 0
    states_per_dim = min(max(trials // 100, 5), 50)
    for d in dims:
        closed_upper = chsh_bounds(ghz_correlation_matrix(d)).upper
        if abs(closed_upper - ghz_chsh_maximum(d)) > 1e-12:
            return SuiteResult(
                "bound-ordering", checks, False,
                f"d={d}: GHZ upper bound {closed_upper!r} != closed form",
            )
        checks += 1
        for _ in range(states_per_dim):
            state = random_two_qudit_state(d, seed=int(rng.integers(2**31)))
            correlations = correlation_matrix(state)
            report = chsh_bounds(correlations)
            if report.lower > report.upper + 1e-12:
                return SuiteResult(
                    "bound-ordering", checks, False,
                    f"d={d}: lower {report.lower!r} above upper {report.upper!r}",
                )
            if d == 2:
                exact = horodecki_two_qubit(correlations)
                if abs(exact - report.lower) > 1e-12 or abs(exact - report.upper) > 1e-12:
                    return SuiteResult(
                        "bound-ordering", checks, False,
                        f"d=2: bounds fail to coincide with the exact value",
                    )
            checks += 1
    return SuiteResult("bound-ordering", checks, True, "lower <= upper everywhere")


SUITES = {
    "orthogonality": suite_orthogonality,
    "lemma1": suite_lemma1,
    "roundtrip": suite_roundtrip,
    "correlation-bound": suite_correlation_bound,
    "ghz-closed-form": suite_ghz_closed_form,
    "bound-ordering": suite_bound_ordering,
}


def run_suites(names: list[str] | None, dims, trials: int, seed: int) -> list[SuiteResult]:
    """Run the named suites, or all of them; ``qchsh verify`` holds the defaults."""
    check_count("trials", trials, 1)
    check_count("seed", seed, 0)
    selected = list(SUITES) if not names else names
    results = []
    for name in selected:
        if name not in SUITES:
            raise ValidationError(
                f"unknown suite {name!r}; available: {', '.join(SUITES)}"
            )
        results.append(SUITES[name](tuple(dims), trials, seed))
    return results
