"""Self-verification suites exposed through the CLI ``verify`` subcommand.

Each suite checks one family of invariants at fixed tolerances and returns
``(checks, passed, detail)``: the number of checks made, and on a failure
the count made before the first failing one.  ``run_suites`` names each
result from its ``SUITES`` key, so a new check is one
``return checks, False, detail`` in its suite.  Suites reach the basis
builder, ``correlation_matrix`` and ``chsh_bounds`` through module-level
names so tests can plant a fault in each.
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
    detail: str


def suite_orthogonality(dims, trials, seed) -> tuple[int, bool, str]:
    worst = 0.0
    checks = 0
    for d in dims:
        basis = build_gellmann_basis(d)
        gram = np.einsum("aij,bji->ab", basis.stack, basis.stack)
        residual = float(np.max(np.abs(gram - 2.0 * np.eye(basis.size))))
        worst = max(worst, residual)
        checks += basis.size * basis.size
    passed = worst < 1e-12
    return checks, passed, f"max |tr - 2*delta| = {worst:.3e}"


def suite_lemma1(dims, trials, seed) -> tuple[int, bool, str]:
    rng = np.random.default_rng([seed, 1])
    checks = 0
    for d in dims:
        basis = build_gellmann_basis(d)
        g = rng.standard_normal((trials, basis.size))
        norms = np.linalg.norm(g, axis=1)
        keep = norms > 0
        g, norms = g[keep], norms[keep]
        ratio = basis._operator_norms(g) / norms
        low = np.sqrt(2.0 / d)
        high = np.sqrt(2.0 * (d - 1) / d)
        if np.min(ratio) < low - 1e-10 or np.max(ratio) > high + 1e-10:
            return checks, False, (
                f"d={d}: ratio range [{np.min(ratio):.12f}, {np.max(ratio):.12f}] "
                f"outside [{low:.12f}, {high:.12f}]"
            )
        if d == 2 and np.max(np.abs(ratio - 1.0)) > 1e-12:
            return checks, False, f"d=2 ratio deviates from 1 by {np.max(np.abs(ratio - 1.0)):.3e}"
        checks += int(g.shape[0])
    return checks, True, "norm sandwich holds"


def suite_roundtrip(dims, trials, seed) -> tuple[int, bool, str]:
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
        # the sum of g and its swapped conjugate need not be C-contiguous
        n = basis._vectors(np.ascontiguousarray(x)) / scale
        back = np.sqrt(d / 2.0) * basis._matrices(n)
        matrix_err = float(np.max(np.abs(back - x)))
        if matrix_err > 1e-10:
            return checks, False, f"d={d}: reconstruction error {matrix_err:.3e}"
        # tr[X^2] = d * ||n||^2 for the rescaled coefficients
        x_sq = np.real(np.einsum("tkl,tlk->t", x, x))
        norm_err = float(np.max(np.abs(x_sq - d * np.vecdot(n, n))))
        if norm_err > 1e-10:
            return checks, False, f"d={d}: norm identity residual {norm_err:.3e}"
        vec = rng.standard_normal((count, basis.size))
        mats = np.sqrt(d / 2.0) * basis._matrices(vec)
        vec_back = basis._vectors(mats) / scale
        vector_err = float(np.max(np.abs(vec_back - vec)))
        if vector_err > 1e-10:
            return checks, False, f"d={d}: vector round-trip error {vector_err:.3e}"
        checks += 3 * count
    return checks, True, "bijection holds to 1e-10"


def suite_correlation_bound(dims, trials, seed) -> tuple[int, bool, str]:
    rng = np.random.default_rng([seed, 3])
    checks = 0
    pairs = min(trials, 1000)
    for d in dims:
        basis = build_gellmann_basis(d)
        # one admissible draw per d, which each of its three states meets
        a = basis._boundary(rng.standard_normal((pairs, basis.size)))
        b = basis._boundary(rng.standard_normal((pairs, basis.size)))
        # kron(X_a, X_b) of the first pairs, X = sqrt(d/2) n . L
        x_a, x_b = np.sqrt(d / 2.0) * basis._matrices(np.stack((a[:4], b[:4])))
        kron = (x_a[:, :, None, :, None] * x_b[:, None, :, None, :]).reshape(-1, d * d, d * d)
        for _ in range(3):
            state = random_two_qudit_state(d, seed=int(rng.integers(2**31)))
            t = correlation_matrix(state).matrix
            values = np.vecdot(a, b @ t.T)
            # tr[rho (X_a x X_b)] = (d/2) <a, T b>, on the dense rho
            direct = np.einsum("rc,pcr->p", state.rho, kron).real
            gap = float(np.max(np.abs(values[:4] - (2.0 / d) * direct)))
            if gap > 1e-10:
                return checks, False, f"d={d}: <a, T b> is {gap:.3e} off tr[rho (X_a x X_b)]"
            worst = float(np.max(np.abs(values)))
            if worst > 2.0 / d + 1e-9:
                return checks, False, (
                    f"d={d}: |<a, T b>| = {worst:.12f} exceeds 2/d = {2.0 / d:.12f}"
                )
            checks += pairs
    return checks, True, "pairings within 2/d"


def suite_ghz_closed_form(dims, trials, seed) -> tuple[int, bool, str]:
    checks = 0
    for d in dims:
        computed = correlation_matrix(ghz_state(d)).matrix
        closed = ghz_correlation_matrix(d).matrix
        entry_err = float(np.max(np.abs(computed - closed)))
        square_err = float(
            np.max(np.abs(computed @ computed - (4.0 / d**2) * np.eye(d * d - 1)))
        )
        if entry_err > 1e-12 or square_err > 1e-12:
            return checks, False, (
                f"d={d}: entry residual {entry_err:.3e}, square residual {square_err:.3e}"
            )
        checks += 2
    return checks, True, "block form and T^2 = (4/d^2) I"


def suite_bound_ordering(dims, trials, seed) -> tuple[int, bool, str]:
    rng = np.random.default_rng([seed, 4])
    checks = 0
    states_per_dim = min(max(trials // 100, 5), 50)
    for d in dims:
        closed_upper = chsh_bounds(ghz_correlation_matrix(d)).upper
        if abs(closed_upper - ghz_chsh_maximum(d)) > 1e-12:
            return checks, False, f"d={d}: GHZ upper bound {closed_upper!r} != closed form"
        checks += 1
        for _ in range(states_per_dim):
            state = random_two_qudit_state(d, seed=int(rng.integers(2**31)))
            correlations = correlation_matrix(state)
            report = chsh_bounds(correlations)
            if report.lower > report.upper + 1e-12:
                return checks, False, f"d={d}: lower {report.lower!r} above upper {report.upper!r}"
            if d == 2:
                exact = horodecki_two_qubit(correlations)
                residual = max(abs(exact - report.lower), abs(exact - report.upper))
                if residual > 1e-12:
                    return checks, False, f"d=2: bounds miss the exact value by {residual:.3e}"
            checks += 1
    return checks, True, "lower <= upper everywhere"


SUITES = {
    "orthogonality": suite_orthogonality,
    "lemma1": suite_lemma1,
    "roundtrip": suite_roundtrip,
    "correlation-bound": suite_correlation_bound,
    "ghz-closed-form": suite_ghz_closed_form,
    "bound-ordering": suite_bound_ordering,
}


def run_suites(names: list[str] | None, dims, trials: int, seed: int) -> list[SuiteResult]:
    """Run the named suites, or all of them when names is None; the CLI holds the defaults."""
    check_count("trials", trials, 1)
    check_count("seed", seed, 0)
    selected = list(SUITES) if names is None else names
    for name in selected:
        if name not in SUITES:
            raise ValidationError(
                f"unknown suite {name!r}; available: {', '.join(SUITES)}"
            )
    return [SuiteResult(name, *SUITES[name](tuple(dims), trials, seed)) for name in selected]
