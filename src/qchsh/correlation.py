"""Correlation matrix and the CHSH expectation in both of its forms.

The correlation matrix of a state rho is the real (d**2-1) x (d**2-1) array

    T[i, j] = tr[rho (L_i x L_j)]

with row index i on Alice's side and column index j on Bob's side, so that
``tr[rho (A x B)] = (d/2) <a, T b>`` for observables with coefficient
vectors a, b.  The CHSH operator for settings A1, A2, B1, B2 is
``A1 x (B1 + B2) + A2 x (B1 - B2)``.  Both forms of its expectation take
the settings as one ``ChshSettings``, with the state or with T.

T is contracted with the sparse structure of the basis in O(d**4) work
(``GellMannBasis._pair_leading``, once per party, on the diagonal table that
the basis's other map cores read).  It equals bit for bit the dense
two-einsum contraction over the basis stack, which costs O(d**6).  The
basis is the shared one of the state's d (``build_gellmann_basis``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ImaginaryResidual, NotHermitian, NotInLd
from .representation import TracelessObservable, build_gellmann_basis, dim_from_side
from .states import TwoQuditState

IMAGINARY_ATOL = 1e-10


@dataclass(frozen=True)
class CorrelationMatrix:
    """Real (d**2-1)-square matrix of joint basis-operator expectations; d is read from its side.

    Stored as a float64 ndarray (a float64 ndarray as it is, not copied);
    NaN, infinite and non-real entries are refused.
    """

    matrix: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.matrix)
        dim_from_side(t, 1, "correlation matrix")
        real = t.dtype.kind in "biuf" or t.dtype.kind == "c" and not np.any(t.imag)
        if not real or not np.all(np.isfinite(t)):
            raise NotHermitian("correlation matrix entries must be finite and real")
        object.__setattr__(self, "matrix", np.asarray(t.real, dtype=np.float64))

    @property
    def dim(self) -> int:
        return math.isqrt(len(self.matrix) + 1)


@dataclass(frozen=True)
class ChshSettings:
    """Four admissible traceless observables, two per party."""

    a1: TracelessObservable
    a2: TracelessObservable
    b1: TracelessObservable
    b2: TracelessObservable

    def __post_init__(self):
        dims = {obs.dim for obs in self.all}
        if len(dims) != 1:
            raise DimensionMismatch(f"settings mix qudit dimensions {sorted(dims)}")
        for name, obs in zip(("A1", "A2", "B1", "B2"), self.all):
            if not obs.is_admissible():
                raise NotInLd(f"setting {name} has spectrum outside [-1, 1]")

    @property
    def all(self) -> tuple[TracelessObservable, ...]:
        return (self.a1, self.a2, self.b1, self.b2)

    @property
    def dim(self) -> int:
        return self.a1.dim


def correlation_matrix(state: TwoQuditState) -> CorrelationMatrix:
    """Joint expectations tr[rho (L_i x L_j)] as a real matrix.

    The basis pairing runs first over Alice's indices of rho, giving a
    (d**2-1, d, d) array of partial traces, then over Bob's.  The result is
    read-only and equal bit for bit to the dense einsums
    ``"ikjl,aji->akl"`` and ``"akl,blk->ab"`` over the basis stack.

    Raises ImaginaryResidual when any entry has |Im| >= 1e-10, which signals
    an invalid state rather than roundoff.
    """
    entries = _complex_entries(state)
    imag_max = float(np.max(np.abs(entries.imag)))
    if imag_max >= IMAGINARY_ATOL:
        raise ImaginaryResidual(
            f"correlation entries have max |Im| = {imag_max:.3e}, "
            f"the state is not a valid density matrix"
        )
    matrix = np.ascontiguousarray(entries.real)
    matrix.setflags(write=False)
    return CorrelationMatrix(matrix)


def _complex_entries(state: TwoQuditState) -> np.ndarray:
    """tr[rho (L_a x L_b)] as computed, imaginary parts included."""
    d = state.dim
    basis = build_gellmann_basis(d)
    # tr[rho (A x B)] = sum_{ikjl} rho[(i,k),(j,l)] A[j,i] B[l,k]
    r4 = state.rho.reshape(d, d, d, d)
    partial = basis._pair_leading(r4.transpose(0, 2, 1, 3))  # [a, k, l]
    return basis._pair_leading(partial.transpose(1, 2, 0)).T  # [a, b]


def chsh_operator(settings: ChshSettings) -> np.ndarray:
    """Bell operator A1 x (B1 + B2) + A2 x (B1 - B2)."""
    a1, a2, b1, b2 = (obs.matrix for obs in settings.all)
    return np.kron(a1, b1 + b2) + np.kron(a2, b1 - b2)


def chsh_expectation_direct(state: TwoQuditState, settings: ChshSettings) -> float:
    """Signed CHSH expectation tr[rho B_chsh]; callers take the absolute value."""
    if settings.dim != state.dim:
        raise DimensionMismatch(f"settings have d={settings.dim} but state has d={state.dim}")
    value = np.einsum("rc,cr->", state.rho, chsh_operator(settings))
    return float(value.real)


def chsh_expectation_from_correlations(
    correlations: CorrelationMatrix, settings: ChshSettings
) -> float:
    """Signed CHSH expectation (d/2) {<a1, T(b1+b2)> + <a2, T(b1-b2)>}."""
    d = correlations.dim
    if settings.dim != d:
        raise DimensionMismatch(f"settings have d={settings.dim} but T has d={d}")
    a1, a2, b1, b2 = (obs.coefficients for obs in settings.all)
    t = correlations.matrix
    return float(0.5 * d * (a1 @ (t @ (b1 + b2)) + a2 @ (t @ (b1 - b2))))
