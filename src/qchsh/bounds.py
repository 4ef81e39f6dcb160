"""Spectral bounds on the maximal CHSH expectation of a two-qudit state.

With lam1 >= lam2 >= 0 the two largest eigenvalues of T^T T (counted with
multiplicity) and m_d the maximal admissible vector norm, the maximum of
|CHSH| over admissible observables satisfies

    (d/(d-1)) * sqrt(lam1 + lam2)  <=  max |CHSH|  <=  m_d**2 * d * sqrt(lam1 + lam2).

At d = 2 both factors equal 2 and the bounds coincide with the exact
two-qubit value 2*sqrt(lam1 + lam2) of Horodecki.  For the GHZ state the
correlation matrix is diagonal with entries +-2/d, both eigenvalues equal
4/d**2, and the upper bound 2*m_d**2*sqrt(2) is attained.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlation import CorrelationMatrix
from .errors import WrongDimension
from .representation import check_dim, max_admissible_norm

TSIRELSON = 2.0 * np.sqrt(2.0)


@dataclass(frozen=True)
class BoundsReport:
    """Lower/upper CHSH bounds from the top-two correlation Gram eigenvalues."""

    dim: int
    lambda1: float
    lambda2: float

    def __post_init__(self):
        check_dim(self.dim)

    @property
    def lower(self) -> float:
        """(d/(d-1)) * sqrt(lam1 + lam2)."""
        return float(self.dim / (self.dim - 1) * np.sqrt(self.lambda1 + self.lambda2))

    @property
    def upper(self) -> float:
        """m_d**2 * d * sqrt(lam1 + lam2)."""
        m_d = max_admissible_norm(self.dim)
        return float(m_d**2 * self.dim * np.sqrt(self.lambda1 + self.lambda2))

    @property
    def upper_improves_tsirelson(self) -> bool:
        # a margin of 1e-12 keeps one-ulp noise (e.g. the even-d GHZ upper,
        # which equals the ceiling exactly) from being reported as a strict
        # improvement
        return self.upper < TSIRELSON - 1e-12


def top_two_gram_eigenvalues(correlations: CorrelationMatrix) -> tuple[float, float]:
    """Two largest eigenvalues of T^T T, descending, clamped at zero.

    Counting with multiplicity automatically yields eigenvalues on two
    linearly independent eigenvectors.
    """
    t = correlations.matrix
    gram = t.T @ t
    values = np.linalg.eigvalsh(gram)
    lam1 = float(max(values[-1], 0.0))
    lam2 = float(max(values[-2], 0.0))
    return lam1, lam2


def chsh_bounds(correlations: CorrelationMatrix) -> BoundsReport:
    """Lower and upper bounds on max |CHSH| for the state behind T."""
    return BoundsReport(correlations.dim, *top_two_gram_eigenvalues(correlations))


def horodecki_two_qubit(correlations: CorrelationMatrix) -> float:
    """Exact two-qubit maximum 2*sqrt(s1**2 + s2**2) from T's top two singular values; d = 2.

    The SVD is a route apart from the Gram eigenvalues behind ``chsh_bounds``.
    """
    if correlations.dim != 2:
        raise WrongDimension(f"the exact two-qubit value needs d=2, got d={correlations.dim}")
    s = np.linalg.svd(correlations.matrix, compute_uv=False)
    return float(2.0 * np.sqrt(s[0] ** 2 + s[1] ** 2))


def ghz_correlation_matrix(d: int) -> CorrelationMatrix:
    """Closed-form GHZ correlation matrix.

    Diagonal with +2/d on the symmetric block, -2/d on the antisymmetric
    block, +2/d on the diagonal block (basis order: symmetric,
    antisymmetric, diagonal).
    """
    d = check_dim(d)
    npairs = d * (d - 1) // 2
    diag = np.concatenate(
        [
            np.full(npairs, 2.0 / d),
            np.full(npairs, -2.0 / d),
            np.full(d - 1, 2.0 / d),
        ]
    )
    matrix = np.diag(diag)
    matrix.setflags(write=False)
    return CorrelationMatrix(matrix)


def ghz_chsh_maximum(d: int) -> float:
    """Exact CHSH maximum for the GHZ state: 2*sqrt(2) for even d, else 2(d-1)sqrt(2)/d."""
    return float(2.0 * max_admissible_norm(check_dim(d)) ** 2 * np.sqrt(2.0))
