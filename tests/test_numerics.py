import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qchsh.errors import NotHermitian
from qchsh.representation import symmetrized_hermitian
from qchsh.optimizer import _linear_max

from conftest import (
    SIGMA_X,
    random_hermitian,
    symmetrized_hermitian_oracle,
    traceless_linear_max,
)


# The eigendecomposition behind the linear-max core: its maximizer shares the
# input's eigenvectors and carries the LP optimum as eigenvalues.  The core
# takes a stack c[..., d, d]; these cases pass one-matrix stacks.


def linear_max_value(c):
    """The core's maximizers and their values lam . mu, as traceless_linear_max forms them."""
    x, lam, mu = _linear_max(c)
    return x, np.vecdot(lam, mu)


def test_eigendecomposition_identity():
    # all eigenvalues tie with the median, so the traceless optimum is zero
    (x,), (value,) = linear_max_value(np.eye(3, dtype=complex)[None])
    np.testing.assert_allclose(x, np.zeros((3, 3)), atol=1e-14)
    assert value == 0.0


def test_eigendecomposition_pauli_x():
    (x,), (value,) = linear_max_value(SIGMA_X[None])
    np.testing.assert_allclose(x, SIGMA_X, atol=1e-14)
    assert value == pytest.approx(2.0, abs=1e-14)


def test_eigendecomposition_second_diagonal_generator():
    # (1/sqrt(3)) diag(1, 1, -2): the two tied top eigenvalues share mu = 1/2.
    m = np.diag([1.0, 1.0, -2.0]).astype(complex) / np.sqrt(3.0)
    (x,), (value,) = linear_max_value(m[None])
    np.testing.assert_allclose(x, np.diag([0.5, 0.5, -1.0]), atol=1e-14)
    assert value == pytest.approx(np.sqrt(3.0), abs=1e-14)


def test_eigendecomposition_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        traceless_linear_max(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_eigendecomposition_reconstruction_and_orthonormality(rng):
    for _ in range(1000):
        d = int(rng.integers(2, 11))
        m = random_hermitian(rng, d)
        (x,), (value,) = linear_max_value(m[None])
        scale = max(float(np.max(np.abs(m))), 1e-30)
        # shared eigenbasis: X commutes with M and is Hermitian
        assert np.max(np.abs(x @ m - m @ x)) < 1e-9 * scale
        np.testing.assert_allclose(x, x.conj().T, atol=1e-12)
        mu = np.linalg.eigvalsh(x)
        assert np.all(np.abs(mu) <= 1.0 + 1e-12)
        assert abs(float(np.sum(mu))) < 1e-12
        assert np.trace(x @ m).real == pytest.approx(value, abs=1e-9 * scale * d)
        # LP duality: the optimum is min_t sum_i |lam_i - t|, attained at a median
        lam = np.linalg.eigvalsh(m)
        assert value == pytest.approx(np.sum(np.abs(lam - np.median(lam))), abs=1e-9 * scale * d)


def test_trace_inner_product_basis_orthogonality(basis):
    b = basis(4)
    for i, left in enumerate(b.stack):
        for j, right in enumerate(b.stack):
            expected = 2.0 if i == j else 0.0
            assert abs(np.trace(left @ right) - expected) < 1e-12


# Entries of every sign of zero, tiny values near the Hermiticity tolerance
# and ordinary magnitudes.
_HERMITIAN_ENTRIES = st.one_of(
    st.floats(-2.0, 2.0),
    st.sampled_from([-0.0, 0.0, 1e-11, -1e-11, 2e-10, 5e-324, -5e-324]),
)
_NON_FINITE = (np.nan, np.inf, -np.inf)


def _assert_matches_retired_form(m):
    """symmetrized_hermitian gives the oracle's bits or its exception and
    message, with no warning on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            expected = symmetrized_hermitian_oracle(m, "state")
        except NotHermitian as exc:
            with pytest.raises(NotHermitian) as info:
                symmetrized_hermitian(m, "state")
            assert str(info.value) == str(exc)
        else:
            got = symmetrized_hermitian(m, "state")
            assert got.dtype == expected.dtype and got.shape == expected.shape
            np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(0, 4),
    kind=st.sampled_from(["exact", "near", "raw"]),
    planted=st.none() | st.tuples(st.sampled_from(_NON_FINITE), st.booleans()),
    data=st.data(),
)
def test_symmetrized_hermitian_matches_retired_form(n, kind, planted, data):
    parts = hnp.arrays(np.float64, (n, n), elements=_HERMITIAN_ENTRIES)
    m = np.empty((n, n), dtype=complex)
    m.real, m.imag = data.draw(parts), data.draw(parts)
    if planted is not None and n:
        # a NaN or an infinity in the real or the imaginary part of one entry,
        # which the mirror below copies when it lies above the diagonal
        value, imaginary = planted
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        (m.imag if imaginary else m.real)[i, j] = value
    if kind != "raw":
        # mirror the upper triangle; "near" then adds a drawn perturbation
        lower = np.tril_indices(n, -1)
        m[lower] = m.T.conj()[lower]
        if kind == "near":
            m.real += 1e-10 * data.draw(parts)
    _assert_matches_retired_form(m)


@pytest.mark.parametrize("mirrored", [False, True])
@pytest.mark.parametrize("position", [(1, 1), (0, 2), (2, 0)], ids=["diagonal", "upper", "lower"])
@pytest.mark.parametrize("imaginary", [False, True], ids=["real", "imag"])
@pytest.mark.parametrize("value", _NON_FINITE, ids=["nan", "inf", "-inf"])
def test_symmetrized_hermitian_names_non_finite_entries(value, imaginary, position, mirrored):
    m = np.eye(3, dtype=complex) / 3.0
    (m.imag if imaginary else m.real)[position] = value
    if mirrored:
        # the conjugate entry too, so that M - M^dag forms inf - inf
        (m.imag if imaginary else m.real)[position[::-1]] = -value if imaginary else value
    _assert_matches_retired_form(m)
    with pytest.raises(NotHermitian, match="contains non-finite entries"):
        symmetrized_hermitian(m, "state")


@settings(max_examples=200, deadline=None)
@given(
    size=st.integers(3, 575),
    lead=st.sampled_from([(8,), (4, 2), (1,)]),
    scales=st.tuples(st.floats(-3.0, 5.0), st.floats(-3.0, 5.0)),
    zero=st.sampled_from([0.0, -0.0]),
    zero_fraction=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_vecdot_is_one_dot_per_row(size, lead, scales, zero, zero_fraction, seed):
    # The see-saw's values and vanishing test and verify's pairings are
    # np.vecdot rows, and the digests rest on each row being the dot product
    # np.dot gives it alone: a numpy or BLAS build that sums otherwise fails here.
    rng = np.random.default_rng(seed)
    x, y = (10.0**scale * rng.standard_normal(lead + (size,)) for scale in scales)
    x[rng.random(x.shape) < zero_fraction] = zero
    y[rng.random(y.shape) < zero_fraction / 2] = zero
    for left, right in ((x, y), (x, x)):
        expected = np.array(
            [float(np.dot(u, v)) for u, v in zip(left.reshape(-1, size), right.reshape(-1, size))]
        ).reshape(lead)
        got = np.vecdot(left, right)
        assert got.shape == lead
        np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))
