"""Maximization of |CHSH| over admissible traceless observables.

Two alternating-update modes are provided.  In "closed-form" mode each party
update rescales the partner-driven directions ``T(b1 +- b2)`` onto the
admissible boundary.  In "exact" mode each update solves the inner problem
``max tr[X C]`` over admissible X exactly: X shares the eigenbasis of C and
its eigenvalues solve the linear program

    max sum_i lam_i mu_i   s.t.   mu_i in [-1, 1],  sum_i mu_i = 0,

whose optimum is mu_i = sign(lam_i - t*) with t* a median of the lam_i
(ties adjusted to make the sum vanish exactly), with optimal value
``min_t sum_i |lam_i - t|``.  Exact updates make the value sequence
monotonically non-decreasing.

``ghz_optimal_settings`` realizes the attained GHZ maximum with a
block-embedded qubit strategy: computational basis states are paired into
floor(d/2) two-dimensional blocks carrying the standard optimal qubit
settings, plus one zero row/column when d is odd.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .correlation import (
    ChshSettings,
    CorrelationMatrix,
    chsh_expectation_from_correlations,
    correlation_matrix,
)
from .errors import ConvergenceFailure, InvalidConfig, NotTraceless
from .numerics import symmetrized_hermitian
from .representation import (
    GellMannBasis,
    TracelessObservable,
    build_gellmann_basis,
    expand_observable,
    observable_from_coefficients,
    project_to_admissible,
)
from .states import TwoQuditState, ghz_state

DEGENERATE_NORM_ATOL = 1e-14
LP_TIE_ATOL = 1e-12
GHZ_PROXIMITY_ATOL = 1e-8
MAX_DEGENERATE_EVENTS = 8


@dataclass(frozen=True)
class SeesawConfig:
    """Alternating-maximization parameters."""

    mode: str = "exact"
    restarts: int = 32
    max_iterations: int = 500
    tolerance: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("exact", "closed-form"):
            raise InvalidConfig(f'mode must be "exact" or "closed-form", got {self.mode!r}')
        if self.restarts < 1:
            raise InvalidConfig(f"restarts must be >= 1, got {self.restarts}")
        if self.max_iterations < 1:
            raise InvalidConfig(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not self.tolerance > 0:
            raise InvalidConfig(f"tolerance must be positive, got {self.tolerance}")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class SeesawResult:
    """Best |CHSH| value found plus the certifying settings and vectors."""

    value: float
    settings: ChshSettings
    a1: np.ndarray
    a2: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    correlations: CorrelationMatrix
    iterations_per_restart: list[int] = field(default_factory=list)
    converged: list[bool] = field(default_factory=list)
    monotone: bool = True
    mode: str = "exact"

    @property
    def converged_count(self) -> int:
        return sum(self.converged)


def _lp_spectrum(lam_descending: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve max sum(lam * mu) over mu in [-1, 1]^d with sum(mu) = 0.

    The optimum is mu_i = sign(lam_i - t*) for a median t*; eigenvalues tied
    with t* share the correction that makes the sum vanish exactly.  A median
    t* guarantees the correction stays in [-1, 1].
    """
    lam = lam_descending
    d = lam.size
    if d % 2 == 1:
        t_star = lam[(d - 1) // 2]
    else:
        t_star = 0.5 * (lam[d // 2 - 1] + lam[d // 2])
    deviation = lam - t_star
    ties = np.abs(deviation) < LP_TIE_ATOL
    mu = np.where(deviation > 0, 1.0, -1.0)
    mu[ties] = 0.0
    if ties.any():
        mu[ties] = -float(np.sum(mu)) / int(ties.sum())
    return mu, float(lam @ mu)


def _linear_max(c: np.ndarray) -> tuple[np.ndarray, float]:
    """Maximizer X and value of max tr[X C] over admissible traceless X.

    C is Hermitian; X shares its eigenbasis, with the LP optimum mu as spectrum.
    """
    try:
        values, vectors = np.linalg.eigh(c)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver did not converge: {exc}") from exc
    # eigh returns ascending order; _lp_spectrum expects descending.
    mu, value = _lp_spectrum(values[::-1])
    vectors = vectors[:, ::-1]
    return (vectors * mu) @ vectors.conj().T, value


def traceless_linear_max(
    target: np.ndarray, basis: GellMannBasis
) -> tuple[TracelessObservable, float]:
    """Maximize tr[X C] over admissible traceless X for Hermitian traceless C.

    Returns the maximizer (sharing C's eigenbasis, spectrum in [-1, 1] with
    zero sum) and the attained value.
    """
    c = symmetrized_hermitian(target, "target")
    trace_residual = abs(complex(np.trace(c)))
    if trace_residual > 1e-10:
        raise NotTraceless(f"target has |trace| = {trace_residual:.3e}")
    x, value = _linear_max(c)
    x = 0.5 * (x + x.conj().T)
    coefficients = expand_observable(x, basis)
    observable = observable_from_coefficients(coefficients, basis)
    return observable, value


def _vector_linear_max(direction: np.ndarray, basis: GellMannBasis) -> np.ndarray:
    """Admissible coefficient vector n maximizing <n, w>.

    The see-saw inner update: w . L is Hermitian traceless by construction,
    so it goes straight to the LP core without input checks.
    """
    w = np.asarray(direction, dtype=np.float64)
    if float(np.linalg.norm(w)) <= DEGENERATE_NORM_ATOL:
        return np.zeros(basis.size)
    x, _ = _linear_max(basis.to_matrix(w))
    return basis.to_vector(x) / math.sqrt(2.0 * basis.dim)


def _closed_pair(
    t: np.ndarray,
    basis: GellMannBasis,
    u: np.ndarray,
    v: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """One party's closed-form update from its partner's vectors (u, v).

    The new pair rescales ``t(u + v)`` and ``t(u - v)`` onto the admissible
    boundary; pass T for Alice and T^T for Bob (the Bell operator regrouped
    as (A1+A2) x B1 + (A1-A2) x B2).  A vanishing direction is replaced by a
    random admissible vector and its slot is named in the returned tuple.
    """
    outputs = []
    degenerate = []
    for slot, direction in (("plus", t @ (u + v)), ("minus", t @ (u - v))):
        if float(np.linalg.norm(direction)) <= DEGENERATE_NORM_ATOL:
            degenerate.append(slot)
            outputs.append(basis.random_admissible(rng, 1)[0])
        else:
            outputs.append(project_to_admissible(direction, basis))
    return outputs[0], outputs[1], tuple(degenerate)


def ghz_optimal_settings(d: int, basis: GellMannBasis | None = None) -> ChshSettings:
    """Settings attaining the exact GHZ maximum 2 * m_d**2 * sqrt(2).

    Computational basis states are paired into floor(d/2) qubit blocks; each
    block carries A1 = sigma_z, A2 = sigma_x, B1/B2 = (sigma_z +- sigma_x)/sqrt(2).
    Odd d leaves one zero row/column (a zero eigenvalue of multiplicity 1).
    """
    if basis is None:
        basis = build_gellmann_basis(d)
    elif basis.dim != d:
        raise InvalidConfig(f"basis has d={basis.dim}, requested d={d}")
    d = basis.dim
    a1 = np.zeros((d, d), dtype=np.complex128)
    a2 = np.zeros((d, d), dtype=np.complex128)
    for block in range(d // 2):
        i, j = 2 * block, 2 * block + 1
        a1[i, i] = 1.0
        a1[j, j] = -1.0
        a2[i, j] = 1.0
        a2[j, i] = 1.0
    b1 = (a1 + a2) / math.sqrt(2.0)
    b2 = (a1 - a2) / math.sqrt(2.0)

    def _wrap(matrix: np.ndarray) -> TracelessObservable:
        return observable_from_coefficients(expand_observable(matrix, basis), basis)

    return ChshSettings(a1=_wrap(a1), a2=_wrap(a2), b1=_wrap(b1), b2=_wrap(b2))


def _deterministic_init(
    state: TwoQuditState,
    basis: GellMannBasis,
    correlations: CorrelationMatrix,
) -> tuple[np.ndarray, np.ndarray]:
    """Seed restart 0 from structure instead of noise.

    Near the GHZ state the known optimal Bob vectors are used; otherwise the
    top-two right singular directions of T, mixed as v1 +- v2 so that one
    exact sweep lands on the dominant singular pair.
    """
    ghz = ghz_state(state.dim)
    if float(np.max(np.abs(state.rho - ghz.rho))) < GHZ_PROXIMITY_ATOL:
        settings = ghz_optimal_settings(state.dim, basis)
        return settings.b1.coefficients.copy(), settings.b2.coefficients.copy()
    gram = correlations.matrix.T @ correlations.matrix
    _, vectors = np.linalg.eigh(gram)
    v1 = vectors[:, -1]
    v2 = vectors[:, -2]
    return (
        project_to_admissible(v1 + v2, basis),
        project_to_admissible(v1 - v2, basis),
    )


def _run_restart(
    correlations: CorrelationMatrix,
    basis: GellMannBasis,
    config: SeesawConfig,
    init: tuple[np.ndarray, np.ndarray],
    rng: np.random.Generator,
) -> dict:
    t = correlations.matrix
    b1, b2 = init
    a1 = np.zeros(basis.size)
    a2 = np.zeros(basis.size)
    half = 0.5 * basis.dim

    def evaluate() -> float:
        return half * float(a1 @ (t @ (b1 + b2)) + a2 @ (t @ (b1 - b2)))

    previous = None
    value = 0.0
    monotone = True
    converged = False
    degenerate_events = 0
    iterations = 0
    for iterations in range(1, config.max_iterations + 1):
        if config.mode == "exact":
            a1 = _vector_linear_max(t @ (b1 + b2), basis)
            a2 = _vector_linear_max(t @ (b1 - b2), basis)
            after_alice = evaluate()
            b1 = _vector_linear_max(t.T @ (a1 + a2), basis)
            b2 = _vector_linear_max(t.T @ (a1 - a2), basis)
        else:
            a1, a2, bad = _closed_pair(t, basis, b1, b2, rng)
            degenerate_events += len(bad)
            after_alice = evaluate()
            b1, b2, bad = _closed_pair(t.T, basis, a1, a2, rng)
            degenerate_events += len(bad)
        value = evaluate()
        if previous is not None:
            if after_alice < previous - 1e-12 or value < after_alice - 1e-12:
                monotone = False
            if abs(value - previous) < config.tolerance:
                converged = True
                break
        previous = value
        if degenerate_events > MAX_DEGENERATE_EVENTS:
            break
    return {
        "value": abs(value),
        "vectors": (a1, a2, b1, b2),
        "iterations": iterations,
        "converged": converged and degenerate_events <= MAX_DEGENERATE_EVENTS,
        "monotone": monotone,
    }


def seesaw_maximize(
    state: TwoQuditState,
    basis: GellMannBasis,
    config: SeesawConfig | None = None,
) -> SeesawResult:
    """Alternating maximization of |CHSH| over admissible observables.

    Restart 0 is deterministic (structure-seeded); the remaining restarts
    draw Gaussian directions projected onto the admissible boundary, each
    from its own (seed, restart-index) substream, so a restart's result does
    not depend on how many restarts run.  The best restart wins, ties broken
    by index.
    """
    if config is None:
        config = SeesawConfig()
    correlations = correlation_matrix(state, basis)

    def run(index: int) -> dict:
        rng = np.random.default_rng([config.seed, index])
        if index == 0:
            init = _deterministic_init(state, basis, correlations)
        else:
            init = tuple(basis.random_admissible(rng, 2))
        return _run_restart(correlations, basis, config, init, rng)

    outcomes = [run(i) for i in range(config.restarts)]
    best = outcomes[0]
    for outcome in outcomes[1:]:
        if outcome["value"] > best["value"]:
            best = outcome
    a1, a2, b1, b2 = best["vectors"]
    value = chsh_expectation_from_correlations(correlations, a1, a2, b1, b2)
    if value < 0:
        a1, a2 = -a1, -a2
        value = -value
    settings = ChshSettings(
        a1=observable_from_coefficients(a1, basis),
        a2=observable_from_coefficients(a2, basis),
        b1=observable_from_coefficients(b1, basis),
        b2=observable_from_coefficients(b2, basis),
    )
    return SeesawResult(
        value=float(value),
        settings=settings,
        a1=a1,
        a2=a2,
        b1=b1,
        b2=b2,
        correlations=correlations,
        iterations_per_restart=[o["iterations"] for o in outcomes],
        converged=[o["converged"] for o in outcomes],
        monotone=all(o["monotone"] for o in outcomes),
        mode=config.mode,
    )


def random_search_max(
    state: TwoQuditState,
    basis: GellMannBasis,
    samples: int,
    seed: int,
) -> float:
    """Best |CHSH| over random admissible 4-tuples; a feasible-point oracle.

    Never exceeds the true maximum; deterministic per seed.
    """
    if samples < 1:
        raise InvalidConfig(f"samples must be >= 1, got {samples}")
    t = correlation_matrix(state, basis).matrix
    rng = np.random.default_rng(seed)
    best = 0.0
    remaining = samples
    chunk_size = 4096
    while remaining > 0:
        count = min(chunk_size, remaining)
        remaining -= count
        vecs = basis.random_admissible(rng, 4 * count).reshape(count, 4, basis.size)
        a1, a2, b1, b2 = (vecs[:, i, :] for i in range(4))
        values = 0.5 * basis.dim * (
            np.einsum("cj,cj->c", a1, (b1 + b2) @ t.T)
            + np.einsum("cj,cj->c", a2, (b1 - b2) @ t.T)
        )
        best = max(best, float(np.max(np.abs(values))))
    return best
