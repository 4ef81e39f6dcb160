"""Maximization of |CHSH| over admissible traceless observables.

Two alternating-update modes are provided; the mode selects only the party
update.  In "closed-form" mode each update rescales the partner-driven
directions ``T(b1 +- b2)`` onto the admissible boundary.  In "exact" mode
each update solves the inner problem ``max tr[X C]`` over admissible X
exactly: X shares the eigenbasis of C and its eigenvalues solve the linear
program

    max sum_i lam_i mu_i   s.t.   mu_i in [-1, 1],  sum_i mu_i = 0,

whose optimum is mu_i = sign(lam_i - t*) with t* a median of the lam_i
(ties adjusted to make the sum vanish exactly), with optimal value
``min_t sum_i |lam_i - t|``.  In both modes a direction of norm at most
``DEGENERATE_NORM_ATOL`` gives the zero vector, which maximizes the zero
objective it stands for.  Exact updates make the value sequence
monotonically non-decreasing, so an exact run raises NumericalError at the
first sweep in which a restart's value falls; closed-form updates can lower
it, and closed-form runs track nothing.

All restarts of one ``seesaw_maximize`` call advance in lockstep on
(restarts, 2, d**2-1) arrays.  ``_sweep`` is one sweep and holds nothing
else: Alice's update, then Bob's, and the value after each.  An update
stacks the ``+-`` directions of every live restart and makes one map to
matrices, one batched eigensolver call, one LP, one rebuild
``V diag(mu) V^H`` and one map back (exact mode), or one batched operator
norm (closed-form mode).  The LP optimum of a spectrum with no tie beside
its median is one fixed sign pattern; only the other rows go through the
tie-share formula.  Matrix-vector products and dot products stay one BLAS
call per row, so each restart gives bit for bit what it gives when run
alone.  The LP's sign pattern, one read-only array per batch shape, and
the slice its tie test reads are built once per shape (``_lp_pattern``); a
batch with no tie beside a median gets that array itself.  The sums
``u +- v`` of a pair are one matmul with a +-1 stencil (``_pair_products``),
and a direction vanishes when its squared norm is at most the largest
double whose square root is at most ``DEGENERATE_NORM_ATOL``, with no
square root taken.  The party updates hand the arrays they build straight
to the basis's check-free map cores.

The driver ``_run_restarts`` holds the rest: the starts, the fall check,
the stop rules and the live batch.  Before the first sweep it takes T's
transpose, the value at which the batch certifies, and the random starts,
each drawn from its own generator and all rescaled by one ``_boundary``
call.  ``seesaw_maximize`` takes the correlation matrix T, not the state,
and looks up the shared basis of T's d once; the driver hands it down.

Certified stop: the paper proves ``max |CHSH| <= upper`` (``chsh_bounds``),
and the bound is attained for GHZ at every d and by every state at d = 2.
After each sweep, once any live restart has ``|value| >= upper - tolerance``
it is within the tolerance of the global maximum, as a converged restart is
of its fixed point, so every live restart leaves the batch at that sweep.
The margin is the convergence tolerance ``SeesawConfig.tolerance``.  A
restart's result does not depend on how many restarts run beside it, unless
the batch certifies.

``ghz_optimal_settings`` realizes the attained GHZ maximum with a
block-embedded qubit strategy: computational basis states are paired into
floor(d/2) two-dimensional blocks carrying the standard optimal qubit
settings, plus one zero row/column when d is odd.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .bounds import BoundsReport, chsh_bounds, ghz_correlation_matrix
from .correlation import ChshSettings, CorrelationMatrix, chsh_expectation_from_correlations
from .errors import ConvergenceFailure, InvalidConfig, NumericalError
from .representation import (
    GellMannBasis,
    TracelessObservable,
    build_gellmann_basis,
    check_count,
    check_dim,
    expand_observable,
)

DEGENERATE_NORM_ATOL = 1e-14
LP_TIE_ATOL = 1e-12
# A distance on T, not on rho: restart 0 takes the GHZ start within it of the
# GHZ correlation matrix, which T equals exactly when rho is the GHZ state,
# as <GHZ|rho|GHZ> = 1/d**2 + (1/4) sum_ab T_ab T^GHZ_ab.
GHZ_PROXIMITY_ATOL = 1e-8
# A result above the proven upper bound by more than this is a numerical fault.
UPPER_BOUND_ATOL = 1e-9
# Why a restart left the batch, indexed by the codes of ``_run_restarts``.
STOP_REASONS = ("max_iterations", "converged", "certified")
MAX_ITERATIONS, CONVERGED, CERTIFIED = range(len(STOP_REASONS))
# The update rules ``SeesawConfig.mode`` and the CLI's ``--mode`` accept.
MODES = ("exact", "closed-form")


def _largest_square_within(bound: float) -> float:
    """The largest double x with ``sqrt(x) <= bound``, for a positive finite bound.

    sqrt is correctly rounded, so it never falls as x rises: for x >= 0 and
    for NaN, ``x <= _largest_square_within(bound)`` is ``sqrt(x) <= bound``.
    """
    x = bound * bound
    while math.sqrt(x) > bound:
        x = math.nextafter(x, 0.0)
    while math.sqrt(math.nextafter(x, math.inf)) <= bound:
        x = math.nextafter(x, math.inf)
    return x


# A direction w vanishes when sqrt(w . w) <= DEGENERATE_NORM_ATOL, tested as
# w . w <= _VANISHING_SQUARE with no sqrt.
_VANISHING_SQUARE = _largest_square_within(DEGENERATE_NORM_ATOL)


@dataclass(frozen=True)
class SeesawConfig:
    """Alternating-maximization parameters."""

    mode: str = "exact"
    restarts: int = 32
    max_iterations: int = 500
    tolerance: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            choices = " or ".join(f'"{mode}"' for mode in MODES)
            raise InvalidConfig(f"mode must be {choices}, got {self.mode!r}")
        check_count("restarts", self.restarts, 1)
        check_count("max_iterations", self.max_iterations, 1)
        check_count("seed", self.seed, 0)
        if isinstance(self.tolerance, bool) or not isinstance(self.tolerance, numbers.Real):
            raise InvalidConfig(f"tolerance must be a real number, got {self.tolerance!r}")
        if not (self.tolerance > 0 and math.isfinite(self.tolerance)):
            raise InvalidConfig(f"tolerance must be positive and finite, got {self.tolerance}")


@dataclass(frozen=True)
class SeesawResult:
    """Best |CHSH| value found plus the certifying settings.

    The coefficient vectors of the winning restart are ``settings.*.coefficients``.
    ``bounds`` are the paper's bounds on T; ``stop_reasons`` holds one of
    ``STOP_REASONS`` per restart.
    """

    value: float
    settings: ChshSettings
    bounds: BoundsReport
    iterations_per_restart: list[int] = field(default_factory=list)
    stop_reasons: list[str] = field(default_factory=list)

    @property
    def converged(self) -> list[bool]:
        return [reason == "converged" for reason in self.stop_reasons]

    @property
    def converged_count(self) -> int:
        return sum(self.converged)


# bounded, so that a run whose batch passes through many sizes keeps few
@functools.lru_cache(maxsize=64)
def _lp_pattern(shape: tuple[int, ...]) -> tuple[np.ndarray, slice]:
    """The LP optimum of every row of a (..., d) spectrum with no tie beside its
    median, and the slice of the entries beside it; read-only, built once per
    shape.

    The slice takes entries d//2 - 1 and d - d//2: the median's neighbours
    at odd d, the two middle entries at even d.
    """
    d = shape[-1]
    half = d // 2
    signs = np.empty(shape)
    signs[...] = np.array([1.0, -0.0, -1.0]).repeat((half, d % 2, half))
    signs.setflags(write=False)
    return signs, slice(half - 1, d - half + 1, d - 2 * half + 1)


def _lp_spectrum(lam_descending: np.ndarray) -> np.ndarray:
    """Solve max sum(lam * mu) over mu in [-1, 1]^d with sum(mu) = 0, per row of lam[..., d].

    The optimum is mu_i = sign(lam_i - t*) for a median t*; eigenvalues tied
    with t* share the correction that makes the sum vanish exactly.  A median
    t* guarantees the correction stays in [-1, 1].  The deviations lam_i - t*
    fall with i, so a row whose two entries beside t* are not tied with it
    has no tie but the odd-d median entry, and its optimum is the pattern
    (+1, ..., +1, -0.0, -1, ..., -1): the median's share of a zero sum is
    -0.0 / 1.  When no row has a tie beside t*, the result is the shared
    read-only pattern of lam's shape itself, the very bits the share formula
    gives each such row; otherwise it is a new, writable copy of the pattern
    in which only the rows with a tie go through the share formula.  Before
    the correction mu holds only +-1 and 0, so their row sums are exact.
    """
    lam = lam_descending
    d = lam.shape[-1]
    half = d // 2
    # t* keeps a length-1 last axis, to broadcast against the rows
    if d % 2 == 1:
        t_star = lam[..., half : half + 1]
    else:
        t_star = 0.5 * (lam[..., half - 1 : half] + lam[..., half : half + 1])
    signs, beside = _lp_pattern(lam.shape)
    ties_beside = np.abs(lam[..., beside] - t_star) < LP_TIE_ATOL
    if not np.count_nonzero(ties_beside):
        return signs
    mu = signs.copy()
    rows = ties_beside.any(axis=-1)
    lam, t_star = lam[rows], t_star[rows]
    deviation = lam - t_star
    ties = np.abs(deviation) < LP_TIE_ATOL
    tied = np.where(deviation > 0, 1.0, -1.0)
    tied[ties] = 0.0
    share = -tied.sum(axis=-1, keepdims=True) / np.maximum(ties.sum(axis=-1, keepdims=True), 1)
    mu[rows] = np.where(ties, share, tied)
    return mu


def _linear_max(c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximizer X of tr[X C] over admissible traceless X, per C in c[..., d, d].

    C is Hermitian; X shares its eigenbasis, with the LP optimum mu as
    spectrum.  Returns X, the eigenvalues lam of C in descending order and
    mu; the attained value is ``_row_dots(lam, mu)``, which the see-saw does
    not need.
    """
    try:
        values, vectors = np.linalg.eigh(c)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver did not converge: {exc}") from exc
    # eigh returns ascending order; _lp_spectrum expects descending.
    lam = values[..., ::-1]
    mu = _lp_spectrum(lam)
    vectors = vectors[..., ::-1]
    return (vectors * mu[..., None, :]) @ vectors.conj().swapaxes(-1, -2), lam, mu


# u + v and u - v of a pair (u, v), as one exact matmul
_PLUS_MINUS = np.array([[1.0, 1.0], [1.0, -1.0]])
_PLUS_MINUS.setflags(write=False)


def _pair_products(t: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """``t(u + v)`` and ``t(u - v)`` for each pair (u, v) in pairs[R, 2, d**2-1].

    The sums u + v and u - v are one matmul with the stencil ``_PLUS_MINUS``.
    Each of its outputs has two terms, +-1 times u and v: the products are
    exact and the sum is rounded once, so a finite result is the double that
    ``u + v`` or ``u - v`` gives, except perhaps for the sign of a zero sum.
    Each row is its own matrix-vector product, so its bits do not depend on R.
    """
    return np.matmul(t, (_PLUS_MINUS @ pairs)[..., None])[..., 0]


def _row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot product of each pair of rows along the last axis, one BLAS dot per row."""
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def _party_update(directions: np.ndarray, basis: GellMannBasis, mode: str) -> np.ndarray:
    """One party's new (plus, minus) vectors for every restart.

    ``directions[r]`` holds the partner's ``T(u + v)`` and ``T(u - v)`` for
    restart r; pass T for Alice and T^T for Bob (the Bell operator regrouped
    as (A1+A2) x B1 + (A1-A2) x B2).  "exact" maximizes <n, w> over
    admissible n: all directions share one basis map, one eigensolver call
    and one LP, each row on its own.  "closed-form" rescales w onto the
    admissible boundary.  In either mode a vanishing w (norm at most
    ``DEGENERATE_NORM_ATOL``) gives the zero vector: exact mode maps its row
    with the others and then zeroes it, closed-form mode rescales only the
    other rows, so no 0/0 is formed.
    """
    w = directions.reshape(-1, basis.size)
    vanishing = _row_dots(w, w) <= _VANISHING_SQUARE
    if mode == "exact":
        x, _, _ = _linear_max(basis._matrices(w))
        out = basis._vectors(x)
        out /= math.sqrt(2.0 * basis.dim)
        if np.count_nonzero(vanishing):
            out[vanishing] = 0.0
    elif np.count_nonzero(vanishing):
        out = np.zeros_like(w)
        out[~vanishing] = basis._boundary(w[~vanishing])
    else:
        # each row is rescaled on its own, so the live rows need no copy
        out = basis._boundary(w)
    return out.reshape(directions.shape)


def _ghz_blocks(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The matrices A1, A2, B1, B2 of the block strategy at qudit dimension d.

    Computational basis states are paired into floor(d/2) qubit blocks; each
    block carries A1 = sigma_z, A2 = sigma_x, B1/B2 = (sigma_z +- sigma_x)/sqrt(2).
    Odd d leaves one zero row/column (a zero eigenvalue of multiplicity 1).
    """
    a1 = np.zeros((d, d), dtype=np.complex128)
    a2 = np.zeros((d, d), dtype=np.complex128)
    i = np.arange(0, d - 1, 2)  # the first state of each block
    a1[i, i], a1[i + 1, i + 1] = 1.0, -1.0
    a2[i, i + 1] = a2[i + 1, i] = 1.0
    return a1, a2, (a1 + a2) / math.sqrt(2.0), (a1 - a2) / math.sqrt(2.0)


def ghz_optimal_settings(d: int) -> ChshSettings:
    """The ``_ghz_blocks`` settings, attaining the GHZ maximum 2 * m_d**2 * sqrt(2)."""
    return ChshSettings(*(
        TracelessObservable(expand_observable(m)) for m in _ghz_blocks(check_dim(d))
    ))


def _deterministic_init(
    basis: GellMannBasis, correlations: CorrelationMatrix
) -> tuple[np.ndarray, np.ndarray]:
    """Seed restart 0 from structure instead of noise.

    When T is within ``GHZ_PROXIMITY_ATOL`` of the GHZ correlation matrix, the
    Bob vectors of the block strategy (``_ghz_blocks``) are used; otherwise
    the top-two right singular directions of T, mixed as v1 +- v2 so that one
    exact sweep lands on the dominant singular pair.
    """
    t = correlations.matrix
    if float(np.max(np.abs(t - ghz_correlation_matrix(basis.dim).matrix))) < GHZ_PROXIMITY_ATOL:
        _, _, b1, b2 = _ghz_blocks(basis.dim)
        return expand_observable(b1), expand_observable(b2)
    gram = t.T @ t
    _, vectors = np.linalg.eigh(gram)
    v1, v2 = vectors[:, -1], vectors[:, -2]
    # each row is rescaled on its own, as two single calls would rescale it
    return tuple(basis._boundary(np.stack((v1 + v2, v1 - v2))))


def _sweep(
    t: np.ndarray, t_transposed: np.ndarray, alice_in: np.ndarray, basis: GellMannBasis, mode: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One sweep of every live restart: Alice's update, then Bob's.

    Takes each restart's T(b1 +- b2); returns the new pairs a and b, the
    next T(b1 +- b2), and the values after Alice's update and after Bob's.
    Writes into none of its arguments.
    """
    half = 0.5 * basis.dim
    a = _party_update(alice_in, basis, mode)
    dots = _row_dots(a, alice_in)
    after_alice = half * (dots[:, 0] + dots[:, 1])
    b = _party_update(_pair_products(t_transposed, a), basis, mode)
    alice_next = _pair_products(t, b)
    dots = _row_dots(a, alice_next)
    return a, b, alice_next, after_alice, half * (dots[:, 0] + dots[:, 1])


def _run_restarts(
    basis: GellMannBasis, config: SeesawConfig, correlations: CorrelationMatrix, upper: float
) -> dict:
    """Run every restart in lockstep through ``_sweep``, on (restarts, 2, d**2-1) arrays.

    A restart leaves the batch when it converges, and every live restart
    leaves it at the first sweep in which any of them reaches
    ``|value| >= upper - config.tolerance`` or at the last sweep.  Only the
    live batch is carried from sweep to sweep; a restart's sweeps, value,
    vectors and stop reason are written once, when it leaves.
    ``stop_reason`` indexes STOP_REASONS: a restart stopped by both rules in
    the same sweep reads converged, and one that runs out of sweeps reads
    max_iterations.  In exact mode a live restart whose value falls by more
    than 1e-12 after Alice's update or after Bob's raises NumericalError at
    that sweep, naming the first such restart.  Every row is computed on
    its own, so a restart's result does not depend on how many restarts run
    beside it, up to the sweep at which the batch certifies.
    """
    count = config.restarts
    b = np.empty((count, 2, basis.size))
    b[0] = _deterministic_init(basis, correlations)
    if count > 1:
        # each start is drawn from its own rng and rescaled on its own row
        starts = np.array([
            np.random.default_rng([config.seed, i]).standard_normal((2, basis.size))
            for i in range(1, count)
        ])
        b[1:] = basis._boundary(starts)
    t = correlations.matrix
    t_transposed = t.T
    certified_at = upper - config.tolerance
    vectors = np.empty((count, 4, basis.size))
    values = np.empty(count)
    iterations = np.empty(count, dtype=int)
    stop_reason = np.empty(count, dtype=int)
    active = np.arange(count)
    alice_in = _pair_products(t, b)
    # before sweep 1 every comparison with the previous value is False, and fmax skips it
    previous = np.full(count, np.nan)
    for iteration in range(1, config.max_iterations + 1):
        a, b, alice_in, after_alice, value = _sweep(t, t_transposed, alice_in, basis, config.mode)
        if config.mode == "exact":
            fall = np.fmax(previous - after_alice, after_alice - value)
            if np.count_nonzero(fall > 1e-12):
                row = int(np.argmax(fall > 1e-12))
                raise NumericalError(
                    f"exact see-saw restart {active[row]} is not monotone: its value fell "
                    f"by {fall[row]:.3e} within one sweep (allowed 1e-12)"
                )
        done = np.abs(value - previous) < config.tolerance
        # np.count_nonzero tests a small mask in a fraction of the time of .any()
        certified = np.count_nonzero(np.abs(value) >= certified_at) > 0
        stop = done | (certified or iteration == config.max_iterations)
        previous = value
        if np.count_nonzero(stop):
            leaving = active[stop]
            iterations[leaving] = iteration
            values[leaving] = value[stop]
            vectors[leaving] = np.concatenate((a[stop], b[stop]), axis=1)
            reason = CERTIFIED if certified else MAX_ITERATIONS
            stop_reason[leaving] = np.where(done[stop], CONVERGED, reason)
            keep = ~stop
            active, alice_in, previous = active[keep], alice_in[keep], previous[keep]
            if active.size == 0:
                break
    return {
        "values": np.abs(values),
        "vectors": vectors,
        "iterations": iterations,
        "stop_reason": stop_reason,
    }


def seesaw_maximize(
    correlations: CorrelationMatrix, config: SeesawConfig | None = None
) -> SeesawResult:
    """Alternating maximization of |CHSH| over admissible observables, given T.

    Restart 0 is deterministic (structure-seeded); the remaining restarts
    draw Gaussian directions projected onto the admissible boundary, each
    from its own (seed, restart-index) substream.  All restarts run in
    lockstep, one batched eigensolver call per party update, and stop
    together once one reaches the paper's upper bound (``chsh_bounds`` of
    T, returned as ``bounds``) to within ``config.tolerance``.  The best
    restart wins, ties broken by index.  A value above the upper bound by
    more than UPPER_BOUND_ATOL raises NumericalError, and so does an exact
    run whose value falls within a sweep of some restart, at that sweep:
    exact party updates cannot lower it.  Closed-form updates can, and
    closed-form runs do not check.
    """
    if config is None:
        config = SeesawConfig()
    bounds = chsh_bounds(correlations)
    basis = build_gellmann_basis(correlations.dim)
    runs = _run_restarts(basis, config, correlations, bounds.upper)
    a1, a2, b1, b2 = runs["vectors"][int(np.argmax(runs["values"]))]
    value = chsh_expectation_from_correlations(correlations, a1, a2, b1, b2)
    if value < 0:
        a1, a2 = -a1, -a2
        value = -value
    if value > bounds.upper + UPPER_BOUND_ATOL:
        raise NumericalError(
            f"see-saw value {value:.17g} exceeds the proven upper bound {bounds.upper:.17g} "
            f"by {value - bounds.upper:.3e} (allowed {UPPER_BOUND_ATOL:.0e})"
        )
    settings = ChshSettings(*map(TracelessObservable, (a1, a2, b1, b2)))
    return SeesawResult(
        value=float(value),
        settings=settings,
        bounds=bounds,
        iterations_per_restart=runs["iterations"].tolist(),
        stop_reasons=[STOP_REASONS[code] for code in runs["stop_reason"].tolist()],
    )
