"""Generalized Gell-Mann basis and the observable/vector correspondence.

For qudit dimension ``d`` the basis consists of the d**2 - 1 traceless
Hermitian generators of SU(d) ordered as: the d(d-1)/2 symmetric pair
operators ``|m><k| + |k><m|`` for 1 <= m < k <= d in lexicographic pair
order, then the antisymmetric pair operators ``-i|m><k| + i|k><m|`` in the
same pair order, then the d - 1 diagonal operators

    sqrt(2 / (l*(l+1))) * (|1><1| + ... + |l><l| - l*|l+1><l+1|),  l = 1..d-1.

They satisfy tr[L_i L_j] = 2 delta_ij.  Basis labels use 1-based
computational-basis indices ("s_1_2", "as_1_2", "diag_1"); storage is
0-based.

A traceless Hermitian observable X with coefficient vector n (components
``n_j = tr[X L_j] / sqrt(2 d)``) satisfies ``X = sqrt(d/2) * (n . L)``.  We
call X *admissible* when its spectrum lies in [-1, 1], and call n admissible
when the operator norm of ``n . L`` is at most sqrt(2/d); the map between
the two sets is one-to-one, and ``GellMannBasis._boundary`` rescales
nonzero rows n onto the boundary of the admissible set.  The largest
Euclidean norm among admissible vectors is 1 for even d and sqrt((d-1)/d)
for odd d.

Each way of the map has one public, checked path: ``TracelessObservable``
takes n to X, ``expand_observable`` X to n.  The basis holds the check-free
cores behind them, and alone applies the scales sqrt(d/2) and 1/sqrt(2 d).

d alone fixes the basis, so no function takes one: each looks up the one
``GellMannBasis`` that ``build_gellmann_basis`` shares per d.

The input checks every layer shares live here too: ``check_dim`` for qudit
dimensions, ``dim_from_side`` for the d that fixes the side of a square
array, ``check_count`` for integer counts and seeds,
``symmetrized_hermitian`` for Hermitian matrices, density matrices
included, and ``symmetrized_traceless`` for traceless Hermitian operators.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidConfig,
    InvalidDimension,
    NotHermitian,
    NotTraceless,
)

# Absolute entrywise tolerance for accepting a matrix as Hermitian.  Inputs
# within tolerance are symmetrized as (M + M^dag)/2 before any spectral work.
HERMITIAN_ATOL = 1e-10
# Operator-norm slack for admissibility checks, one order above the
# eigensolver's own error.
MEMBERSHIP_ATOL = 1e-10
TRACELESS_ATOL = 1e-10


def check_dim(d) -> int:
    """Return d as an int, or raise InvalidDimension unless it is an integer >= 2."""
    if not isinstance(d, (int, np.integer)) or d < 2:
        raise InvalidDimension(f"qudit dimension must be an integer >= 2, got {d!r}")
    return int(d)


def dim_from_side(array, removed: int, name: str) -> int:
    """The qudit dimension d of a square array of side d**2 - removed, d >= 2.

    Raises DimensionMismatch for any other shape.
    """
    shape = np.shape(array)
    side = shape[0] if len(shape) == 2 else -1
    d = math.isqrt(max(side + removed, 0))
    if d < 2 or shape != (d * d - removed,) * 2:
        formula = f"d**2 - {removed}" if removed else "d**2"
        raise DimensionMismatch(
            f"{name} must be square with side {formula} for some d >= 2, got shape {shape}"
        )
    return d


def check_count(name: str, value, minimum: int) -> None:
    """Raise InvalidConfig unless value is an integer (not a bool) >= minimum."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidConfig(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise InvalidConfig(f"{name} must be >= {minimum}, got {value}")


# The pair components from the four parts ``_vectors`` gathers for each pair:
# Re X[m, k] + Re X[k, m] and Im X[k, m] - Im X[m, k], as one exact matmul.
_PAIR_SUMS = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]])
_PAIR_SUMS.setflags(write=False)


class GellMannBasis:
    """The d**2 - 1 generalized Gell-Mann operators, in label order.

    Immutable after construction: every table, and ``stack``, is read-only.
    One pair list, the pairs m < k in row-major order, orders the labels,
    the index tables and ``stack``, the operators as one (d**2-1, d, d)
    array, which is built on first read.

    No map here contracts the dense stack, whose entries are almost all
    zero; each walks its sparse structure in O(d**2) work per matrix, and
    gives the dense einsum over the stack bit for bit.  ``_matrices`` (n to
    n . L) and ``_vectors`` (X to Re tr[X L_j]) are gathers through index
    tables built once here, over the interleaved real and imaginary parts of
    a flat d x d matrix: a pair entry is one component (negated for the upper
    imaginary part), a pair component a two-term sum, which ``_vectors``
    forms as one matmul with the +-1/0 stencil ``_PAIR_SUMS`` and
    ``_pair_leading`` from slices.  The diagonal entries and ``diag_l``
    components of all three maps are products with one (d-1, d) table of
    diagonal coefficients, summed in ascending index as the einsum sums
    them.  The einsum starts its sums at +0, so a sum of -0 terms reads +0
    there; each map adds +0 at the end to make that so, which leaves every
    other value as it is.

    The maps, their scaled forms ``_observables`` (n to X) and
    ``_coefficients`` (X to n, the package's one reader of ``_vectors``),
    ``_operator_norms`` and ``_boundary`` (the one rescale onto the
    admissible boundary) check nothing: the see-saw and ``verify`` call them
    on finite arrays they build.  The checked paths refuse a NaN or an
    infinity: the einsum spreads one through its zero products to every
    entry, while the cores keep it in the entries it reaches and, in
    ``_vectors``, put a NaN in its stencil partner.
    """

    def __init__(self, dim: int):
        d = check_dim(dim)
        # the pairs (m, k), m < k, in label order
        rows, cols = np.nonzero(np.arange(d)[:, None] < np.arange(d))
        npairs = rows.size
        self.dim = d
        self.size = d * d - 1
        self._pairs = rows, cols
        self._npairs = npairs
        suffixes = [f"{m + 1}_{k + 1}" for m, k in zip(rows.tolist(), cols.tolist())]
        self.labels = tuple([f"s_{p}" for p in suffixes] + [f"as_{p}" for p in suffixes]
                            + [f"diag_{l}" for l in range(1, d)])
        # c[l - 1, k] = L_{diag_l}[k, k]: sqrt(2 / (l (l + 1))) for k < l,
        # -l times that for k = l, and 0 beyond.
        levels = np.arange(1, d)
        scale = np.sqrt(2.0 / (levels * (levels + 1)))
        self._diagonal = np.where(np.arange(d) < levels[:, None], scale[:, None], 0.0)
        self._diagonal[levels - 1, levels] = -levels * scale
        # Offsets of Re X[m, k], Re X[k, m] and Re X[k, k] in the float64 view
        # of a flat d x d complex matrix; the imaginary part follows each.
        upper = 2 * (rows * d + cols)
        lower = 2 * (cols * d + rows)
        diagonal = 2 * (d + 1) * np.arange(d)
        # _matrices gathers each float of X from [n, -n_as, diagonal of X, 0]:
        # X[m, k] = n_s - i n_as and X[k, m] = n_s + i n_as for pair (m, k).
        index = np.full(2 * d * d, self.size + npairs + d)
        index[upper] = index[lower] = np.arange(npairs)
        index[lower + 1] = npairs + np.arange(npairs)
        index[upper + 1] = self.size + np.arange(npairs)
        index[diagonal] = self.size + npairs + np.arange(d)
        self._matrix_index = index
        # _vectors gathers Re X[m, k], Re X[k, m], Im X[k, m], Im X[m, k]
        # for every pair, then Re X[k, k] for every k.
        self._vector_index = np.concatenate((upper, lower, lower + 1, upper + 1, diagonal))
        for table in (rows, cols, self._diagonal, index, self._vector_index):
            table.setflags(write=False)

    @functools.cached_property
    def stack(self) -> np.ndarray:
        """The operators as one read-only (d**2-1, d, d) array, built on first use."""
        d, npairs = self.dim, self._npairs
        rows, cols = self._pairs
        pair = np.arange(npairs)
        stack = np.zeros((self.size, d, d), dtype=np.complex128)
        stack[pair, rows, cols] = stack[pair, cols, rows] = 1.0
        # -1.0j has real part -0.0, which the basis command prints.
        stack[npairs + pair, rows, cols] = -1.0j
        stack[npairs + pair, cols, rows] = 1.0j
        stack[2 * npairs :, np.arange(d), np.arange(d)] = self._diagonal
        stack.setflags(write=False)
        return stack

    def _matrices(self, n: np.ndarray) -> np.ndarray:
        """Contraction n . L over the last axis of a float64 ``n[..., d**2-1]``."""
        d, npairs = self.dim, self._npairs
        lead = n.shape[:-1]
        terms = n[..., 2 * npairs :, None] * self._diagonal
        np.add.accumulate(terms, axis=-2, out=terms)
        source = np.concatenate(
            (n, -n[..., npairs : 2 * npairs], terms[..., -1, :], np.zeros(lead + (1,))), axis=-1
        )
        source += 0.0
        flat = source.take(self._matrix_index, axis=-1)
        return flat.view(np.complex128).reshape(lead + (d, d))

    def _vectors(self, x: np.ndarray) -> np.ndarray:
        """Pairings Re tr[X L_j] of each X in a C-contiguous complex128 ``x[..., d, d]``.

        The pair components are one matmul of the stencil ``_PAIR_SUMS`` with
        the four gathered parts of each pair.  Each output has two nonzero
        terms, +-1 times a part, and two zero terms.  The products are exact,
        the sum of the two nonzero terms is rounded once and a +-0 term leaves
        a nonzero sum as it is, in any order of summation.  So each finite
        component is the double of the two-term sum ``Re X[m, k] + Re X[k, m]``
        or ``Im X[k, m] - Im X[m, k]``, but perhaps for the sign of a zero,
        which the final ``+= 0.0`` makes +0 either way.
        """
        d, npairs = self.dim, self._npairs
        lead = x.shape[:-2]
        flat = x.view(np.float64).reshape(lead + (2 * d * d,))
        parts = flat.take(self._vector_index, axis=-1)
        pairs = _PAIR_SUMS @ parts[..., : 4 * npairs].reshape(lead + (4, npairs))
        terms = parts[..., None, 4 * npairs :] * self._diagonal
        np.add.accumulate(terms, axis=-1, out=terms)
        out = np.concatenate((pairs.reshape(lead + (2 * npairs,)), terms[..., -1]), axis=-1)
        out += 0.0
        return out

    def _observables(self, n: np.ndarray) -> np.ndarray:
        """The observables ``X = sqrt(d/2) * (n . L)`` of a float64 ``n[..., d**2-1]``."""
        return np.sqrt(self.dim / 2.0) * self._matrices(n)

    def _coefficients(self, x: np.ndarray) -> np.ndarray:
        """The coefficients ``n_j = tr[X L_j] / sqrt(2 d)`` of a C-contiguous ``x[..., d, d]``."""
        out = self._vectors(x)
        out /= math.sqrt(2.0 * self.dim)
        return out

    def _pair_leading(self, x: np.ndarray) -> np.ndarray:
        """Pairings ``out[a, ...] = sum_{i,j} x[i, j, ...] L_a[j, i]`` of ``x[d, d, ...]``.

        Equal bit for bit to the dense einsum ``"ij...,aji->a..."`` over the
        stack, in O(d**2) work per trailing element and O(d) numpy calls.
        The pair components ``x[k, m] + x[m, k]`` and ``i (x[m, k] - x[k, m])``
        are two-term sums, the same in either order; the ``diag_l`` terms are
        added in ascending index, as the einsum adds them.  The products with
        the zero entries of L_a, which the einsum adds, change no nonzero sum.
        """
        d, npairs = self.dim, self._npairs
        out = np.empty((self.size,) + x.shape[2:], dtype=np.complex128)
        symmetric, antisymmetric = out[:npairs], out[npairs : 2 * npairs]
        start = 0
        for m in range(d - 1):
            # pairs (m, k), k > m, in label order
            stop = start + d - 1 - m
            np.add(x[m + 1 :, m], x[m, m + 1 :], out=symmetric[start:stop])
            block = antisymmetric[start:stop]
            np.subtract(x[m, m + 1 :], x[m + 1 :, m], out=block)
            block *= 1j
            start = stop
        # Row l - 1 of diagonal adds x[k, k] * c[l - 1, k] for k = 0..l in turn.
        # Every product is formed in this one buffer: a fresh temporary per
        # term left the heap fragmented, and peak memory higher.
        diagonal = out[2 * npairs :]
        scratch = np.empty_like(diagonal)
        column = (slice(None),) + (None,) * (x.ndim - 2)
        np.multiply(self._diagonal[:, 0][column], x[0, 0], out=diagonal)
        for k in range(1, d):
            term = scratch[k - 1 :]
            np.multiply(self._diagonal[k - 1 :, k][column], x[k, k], out=term)
            diagonal[k - 1 :] += term
        # The einsum accumulates from +0, so a sum of -0 terms reads +0 there;
        # adding +0 makes that so here and leaves every other value as it is.
        out += 0.0
        return out

    def _operator_norms(self, n: np.ndarray) -> np.ndarray:
        """Operator norm of n . L for each row n of a float64 ``n[..., d**2-1]``."""
        eigs = np.linalg.eigvalsh(self._matrices(n))
        return np.maximum(np.abs(eigs[..., 0]), np.abs(eigs[..., -1]))

    def _boundary(self, n: np.ndarray) -> np.ndarray:
        """``sqrt(2/d) * n / ||n . L||_op`` for each row n of a float64 ``n[..., d**2-1]``.

        Each result's contraction has operator norm sqrt(2/d), the boundary
        of the admissible set.  Rows must be finite and nonzero.
        """
        return np.sqrt(2.0 / self.dim) * n / self._operator_norms(n)[..., None]


_shared_basis = functools.cache(GellMannBasis)


def build_gellmann_basis(d: int) -> GellMannBasis:
    """The generalized Gell-Mann basis for qudit dimension d, one shared instance per d.

    d is checked first, so ``2.0`` or ``True`` cannot find the entry for 2.
    """
    return _shared_basis(check_dim(d))


@dataclass(frozen=True)
class TracelessObservable:
    """A traceless Hermitian observable, held as a read-only float64 copy of
    its coefficient vector n: one finite vector of length d**2 - 1, d >= 2."""

    coefficients: np.ndarray

    def __post_init__(self):
        n = np.array(self.coefficients, dtype=np.float64)
        d = math.isqrt(n.size + 1)
        if n.ndim != 1 or d < 2 or n.size != d * d - 1:
            raise DimensionMismatch(
                f"coefficient vector must have length d**2 - 1 for some d >= 2, "
                f"got shape {n.shape}"
            )
        if not np.all(np.isfinite(n)):
            raise NotHermitian("coefficient vector contains non-finite entries")
        n.setflags(write=False)
        object.__setattr__(self, "coefficients", n)

    @property
    def dim(self) -> int:
        return math.isqrt(self.coefficients.size + 1)

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """The read-only matrix ``sqrt(d/2) * (n . L)``, built on first read."""
        matrix = build_gellmann_basis(self.dim)._observables(self.coefficients)
        matrix.setflags(write=False)
        return matrix

    def is_admissible(self) -> bool:
        """True when the spectrum lies in [-1 - MEMBERSHIP_ATOL, 1 + MEMBERSHIP_ATOL].

        The spectrum's largest magnitude is ``sqrt(d/2) * ||n . L||_op``, the
        basis's one operator norm taken on the coefficients.
        """
        basis = build_gellmann_basis(self.dim)
        norm = np.sqrt(basis.dim / 2.0) * basis._operator_norms(self.coefficients)
        return bool(norm <= 1.0 + MEMBERSHIP_ATOL)


def symmetrized_hermitian(matrix: np.ndarray, name: str) -> np.ndarray:
    """Check that matrix is square and Hermitian within ``HERMITIAN_ATOL``; return (M + M†)/2.

    Raises DimensionMismatch for a non-square matrix and NotHermitian
    otherwise.  A NaN or an infinity leaves a non-finite residual, so the
    entries are scanned for one only when the check fails, to name it.
    """
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {m.shape}")
    # inf - inf is NaN, refused below; it needs no warning on the way
    with np.errstate(invalid="ignore"):
        out = m - m.conj().T
    residual = float(np.max(np.abs(out))) if m.size else 0.0
    if not residual <= HERMITIAN_ATOL:
        if not np.isfinite(m).all():
            raise NotHermitian(f"{name} contains non-finite entries")
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


def symmetrized_traceless(matrix: np.ndarray, name: str) -> np.ndarray:
    """Check that matrix is a traceless Hermitian square operator and return (M + M†)/2.

    Hermiticity is checked by ``symmetrized_hermitian``; the trace of the
    symmetrized matrix must stay within ``TRACELESS_ATOL``.
    """
    x = symmetrized_hermitian(matrix, name)
    trace_residual = abs(complex(np.trace(x)))
    if trace_residual > TRACELESS_ATOL:
        raise NotTraceless(
            f"{name} has |trace| = {trace_residual:.3e}, exceeds {TRACELESS_ATOL:.0e}"
        )
    return x


def expand_observable(matrix: np.ndarray) -> np.ndarray:
    """Coefficient vector of a traceless Hermitian d x d matrix, d >= 2.

    Components are ``n_j = tr[X L_j] / sqrt(2 d)``, so that
    ``sqrt(d/2) * (n . L)`` reproduces X.
    """
    x = symmetrized_traceless(matrix, "observable")
    return build_gellmann_basis(len(x))._coefficients(x)


def max_admissible_norm(d: int) -> float:
    """Largest Euclidean norm of an admissible vector: 1 (even d) or sqrt((d-1)/d)."""
    d = check_dim(d)
    if d % 2 == 0:
        return 1.0
    return float(np.sqrt((d - 1) / d))

