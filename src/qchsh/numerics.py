"""Dense complex-matrix primitives shared by every other module.

Matrices are plain ``numpy.ndarray`` objects of dtype complex128.  All
operations here are pure functions of their (immutable) inputs and are safe
to call concurrently.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotHermitian

# Absolute entrywise tolerance for accepting a matrix as Hermitian.  Inputs
# within tolerance are symmetrized as (M + M†)/2 before any spectral work.
HERMITIAN_ATOL = 1e-10


def _require_square(matrix: np.ndarray, name: str = "matrix") -> np.ndarray:
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(np.float64))):
        raise NotHermitian(f"{name} contains non-finite entries")
    return m


def symmetrized_hermitian(matrix: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Check Hermiticity within ``HERMITIAN_ATOL`` and return (M + M†)/2."""
    m = _require_square(matrix, name)
    out = m - m.conj().T
    residual = float(np.max(np.abs(out))) if m.size else 0.0
    if residual > HERMITIAN_ATOL:
        raise NotHermitian(
            f"{name} is not Hermitian: max |M - M^dag| = {residual:.3e} "
            f"exceeds {HERMITIAN_ATOL:.0e}"
        )
    # The difference's buffer takes M^dag, then M + M^dag, then the halving:
    # the operations of 0.5 * (M + M^dag) in their order, bit for bit.  The
    # one temporary copy of M^dag is freed before the abs above is taken.
    np.conjugate(m.T, out=out)
    np.add(m, out, out=out)
    # 0.5 goes first, as in 0.5 * (M + M^dag): with the array first numpy
    # takes another complex loop, which can give +0 where that form gives -0.
    np.multiply(0.5, out, out=out)
    return out


def operator_norm(matrix: np.ndarray) -> float:
    """Largest absolute eigenvalue of a Hermitian matrix."""
    m = symmetrized_hermitian(matrix)
    values = np.linalg.eigvalsh(m)
    return float(max(abs(values[0]), abs(values[-1])))

