"""Two-qudit density matrices: GHZ family, random ensembles, file ingestion.

The state file format is JSON::

    {"d": int, "rho": [[[re, im], ...], ...]}

with ``rho`` the row-major d**2 x d**2 matrix and index ``j*d + k`` naming
the product basis vector |j> x |k| (0-based).

Every state reads d from the side of its matrix.  ``validate_state`` checks
Hermiticity with ``representation.symmetrized_hermitian``, then trace and
positivity; the ``TwoQuditState`` constructor is its one scan for NaN and
infinite entries.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import DimensionMismatch, NotHermitian, NotPositive, TraceNotOne, ValidationError
from .representation import check_count, check_dim, dim_from_side, symmetrized_hermitian

TRACE_ATOL = 1e-10
POSITIVITY_ATOL = 1e-10


@dataclass(frozen=True)
class TwoQuditState:
    """A d**2 x d**2 density matrix for a pair of qudits; d is read from its side.

    Stored as a complex128 ndarray (a complex128 ndarray as it is, not
    copied); NaN, infinite and non-numeric entries are refused.
    ``validate_state`` checks the density-matrix invariants.
    """

    rho: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.rho)
        dim_from_side(rho, 0, "state")
        if rho.dtype.kind not in "biufc" or not np.isfinite(rho).all():
            raise NotHermitian("state entries must be finite numbers")
        object.__setattr__(self, "rho", np.asarray(rho, dtype=np.complex128))

    @property
    def dim(self) -> int:
        return math.isqrt(len(self.rho))


def ghz_state(d: int) -> TwoQuditState:
    """Projector onto the maximally correlated state (1/sqrt(d)) sum_j |jj>."""
    d = check_dim(d)
    rho = np.zeros((d * d, d * d), dtype=np.complex128)
    # the rows and columns of |jj>, j = 0..d-1
    jj = np.arange(d) * (d + 1)
    rho[np.ix_(jj, jj)] = 1.0 / d
    rho.setflags(write=False)
    return TwoQuditState(rho)


def random_two_qudit_state(d: int, seed: int) -> TwoQuditState:
    """Ginibre-induced random full-rank state, deterministic per (d, seed)."""
    d = check_dim(d)
    check_count("seed", seed, 0)
    # no local keeps the raw matrix, so validation frees it before it factorizes
    return validate_state(_ginibre_density(d, seed))


def _ginibre_density(d: int, seed: int) -> np.ndarray:
    """g @ g^H / tr for a complex Ginibre g of side d**2 drawn from seed."""
    rng = np.random.default_rng(seed)
    # Filling the parts in place gives the bits of a + 1j * b and the same
    # memory peak, which g @ g^H sets, but a + 1j * b builds g 0.2-4.5 ms
    # slower at d = 16-24 (timeit, one BLAS thread).
    g = np.empty((d * d, d * d), dtype=np.complex128)
    g.real = rng.standard_normal((d * d, d * d))
    g.imag = rng.standard_normal((d * d, d * d))
    rho = g @ g.conj().T
    del g  # g, g^H and rho are three d**2 x d**2 matrices, as at each step of validation
    rho /= np.trace(rho).real
    return rho


def validate_state(rho: np.ndarray) -> TwoQuditState:
    """Check all density-matrix invariants and return the typed state.

    d is read from rho, whose side must be d**2 for some d >= 2.  Raises
    DimensionMismatch / NotHermitian / TraceNotOne / NotPositive with the
    measured residual in the message.  The stored matrix is the
    symmetrized (rho + rho^dag)/2, which leaves valid inputs unchanged up to
    the Hermiticity tolerance.

    Positivity (minimum eigenvalue >= -POSITIVITY_ATOL) is checked with a
    Cholesky factorization of rho + POSITIVITY_ATOL * I first: if it exists,
    the state is accepted.  Only when it fails does ``eigvalsh`` give the
    verdict and the minimum eigenvalue for the message.  The two agree except
    within rounding (about n * eps * ||rho||, n = d**2) of the threshold.

    No reference to rho is kept: a caller that passes a temporary frees the
    raw matrix once it is symmetrized, before the factorization.
    """
    m = np.asarray(rho, dtype=np.complex128)
    del rho
    d = dim_from_side(m, 0, "state")
    m = symmetrized_hermitian(m, "state")
    trace_residual = abs(np.trace(m).real - 1.0)
    if trace_residual > TRACE_ATOL:
        raise TraceNotOne(f"state trace deviates from 1 by {trace_residual:.3e}")
    # Shift the diagonal in place and restore it bit for bit: a shifted copy
    # would be one more d**2 x d**2 matrix at the state build's memory peak.
    diagonal = m.diagonal().copy()
    m.flat[:: d * d + 1] += POSITIVITY_ATOL
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        factorized = False
    else:
        factorized = True
    m.flat[:: d * d + 1] = diagonal
    if not factorized:
        min_eig = float(np.linalg.eigvalsh(m)[0])
        if min_eig < -POSITIVITY_ATOL:
            raise NotPositive(f"state has minimum eigenvalue {min_eig:.3e}")
    m.setflags(write=False)
    return TwoQuditState(m)


def load_state_file(path: str, d: int | None = None) -> TwoQuditState:
    """Read and validate a state file; d is inferred from the file if omitted."""
    if d is not None:
        d = check_dim(d)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read state file {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, UTF-8, depth or int size
        raise ValidationError(f"state file {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "d" not in payload or "rho" not in payload:
        raise ValidationError(f'state file {path} must contain keys "d" and "rho"')
    file_d = check_dim(payload["d"])
    if d is not None and d != file_d:
        raise DimensionMismatch(
            f"requested d={d} but state file declares d={file_d}"
        )
    # each [re, im] pair read as one complex number, so a -0.0 part stays -0.0
    rho = _parse_pairs(payload["rho"], path).view(np.complex128)[..., 0]
    # the declared d first, so a mismatch is named before any other fault of rho
    side = file_d * file_d
    if rho.shape != (side, side):
        raise DimensionMismatch(
            f"state for d={file_d} must be {side}x{side}, got shape {rho.shape}"
        )
    return validate_state(rho)


def _parse_pairs(rho, path: str) -> np.ndarray:
    """The (n, m, 2) float array of an n-list of equally long lists of [re, im] pairs.

    The shape is checked on the lists before any number is converted.  A
    cell converts as ``np.asarray(..., dtype=np.float64)`` would convert it
    (``true`` is 1.0, ``null`` is NaN, numeric strings are parsed).
    """
    if (
        not isinstance(rho, list)
        or set(map(type, rho)) != {list}
        or len(set(map(len, rho))) != 1
    ):
        raise ValidationError(
            f'state file {path}: "rho" must be a non-empty list of equally long rows'
        )
    cells = list(chain.from_iterable(rho))
    if set(map(type, cells)) != {list} or set(map(len, cells)) != {2}:
        raise ValidationError(f'state file {path}: every "rho" entry must be an [re, im] pair')
    try:
        flat = np.fromiter(chain.from_iterable(cells), dtype=np.float64, count=2 * len(cells))
    except (ValueError, TypeError, OverflowError) as exc:
        raise ValidationError(f'state file {path} has malformed "rho": {exc}') from exc
    return flat.reshape(len(rho), -1, 2)
