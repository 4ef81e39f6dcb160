import numpy as np
import pytest

from qchsh import build_gellmann_basis

_CACHE = {}


@pytest.fixture
def basis():
    """Memoized basis factory: basis(d) -> GellMannBasis."""

    def factory(d):
        if d not in _CACHE:
            _CACHE[d] = build_gellmann_basis(d)
        return _CACHE[d]

    return factory


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def random_hermitian(rng, d, traceless=False):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = 0.5 * (g + g.conj().T)
    if traceless:
        h -= np.trace(h) / d * np.eye(d)
    return h


def dense_to_matrix(n, stack):
    """Reference for GellMannBasis.to_matrix: n . L one row at a time."""
    n = np.asarray(n, dtype=np.float64)
    rows = n.reshape(-1, n.shape[-1])
    out = np.array([np.einsum("j,jkl->kl", row, stack) for row in rows])
    return out.reshape(n.shape[:-1] + stack.shape[1:])


def dense_to_vector(x, stack):
    """Reference for GellMannBasis.to_vector: Re tr[X L_j] one matrix at a time."""
    x = np.asarray(x)
    mats = x.reshape((-1,) + x.shape[-2:])
    out = np.array(
        [[np.trace(m @ op).real for op in stack] for m in mats], dtype=np.float64
    )
    return out.reshape(x.shape[:-2] + (stack.shape[0],))


def polytope_vertex_max(lam):
    """Brute-force oracle: maximize lam . mu over mu in [-1,1]^d, sum mu = 0.

    A vertex has all but one component at +-1 and the remaining one
    completing the zero sum; enumerate every choice and keep feasible ones.
    """
    from itertools import product

    d = len(lam)
    best = -np.inf
    for free in range(d):
        for signs in product((-1.0, 1.0), repeat=d - 1):
            mu = list(signs)
            mu.insert(free, 0.0)
            mu[free] = -sum(mu)
            if abs(mu[free]) <= 1.0 + 1e-12:
                best = max(best, float(np.dot(lam, mu)))
    return best
