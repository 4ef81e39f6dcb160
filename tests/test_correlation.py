import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchsh import (
    ChshSettings,
    CorrelationMatrix,
    TracelessObservable,
    TwoQuditState,
    chsh_bounds,
    chsh_expectation_direct,
    chsh_expectation_from_correlations,
    chsh_operator,
    correlation_matrix,
    expand_observable,
    ghz_state,
    random_two_qudit_state,
    validate_state,
)
from qchsh.correlation import _complex_entries
from qchsh.errors import DimensionMismatch, ImaginaryResidual, NotHermitian, NotInLd

from conftest import SIGMA_X, SIGMA_Z, boundary, dense_correlation, property_state

ROOT2 = np.sqrt(2.0)


def _settings_from_matrices(mats):
    return ChshSettings(*[TracelessObservable(expand_observable(m)) for m in mats])


def bell_optimal_settings():
    return _settings_from_matrices(
        [SIGMA_Z, SIGMA_X, (SIGMA_Z + SIGMA_X) / ROOT2, (SIGMA_Z - SIGMA_X) / ROOT2]
    )


def random_settings(rng, basis):
    """Four admissible observables with uniformly scaled boundary vectors."""
    vectors = (
        rng.uniform(0.0, 1.0) * boundary(rng.standard_normal(basis.size), basis) for _ in range(4)
    )
    return ChshSettings(*map(TracelessObservable, vectors))


def test_maximally_mixed_has_zero_correlations():
    state = validate_state(np.eye(9, dtype=complex) / 9.0)
    t = correlation_matrix(state)
    assert np.max(np.abs(t.matrix)) < 1e-14


def test_ghz_qubit_correlations():
    t = correlation_matrix(ghz_state(2))
    np.testing.assert_allclose(t.matrix, np.diag([1.0, -1.0, 1.0]), atol=1e-14)


def test_ghz_qutrit_correlations():
    t = correlation_matrix(ghz_state(3))
    expected = np.diag([2 / 3] * 3 + [-2 / 3] * 3 + [2 / 3] * 2)
    np.testing.assert_allclose(t.matrix, expected, atol=1e-13)


def test_correlation_matrix_symmetric_for_ghz():
    t = correlation_matrix(ghz_state(4))
    assert np.max(np.abs(t.matrix - t.matrix.T)) < 1e-10


def test_correlation_matrix_reads_d_from_its_side():
    assert CorrelationMatrix(np.zeros((3, 3))).dim == 2
    assert CorrelationMatrix(np.zeros((80, 80))).dim == 9
    assert correlation_matrix(ghz_state(4)).dim == 4


@pytest.mark.parametrize("shape", [(3, 8), (5, 5), (9, 9), (0, 0), (8,), (2, 3, 3)])
def test_correlation_matrix_side_must_be_d_squared_minus_one(shape):
    with pytest.raises(DimensionMismatch, match=r"side d\*\*2 - 1"):
        CorrelationMatrix(np.zeros(shape))


def test_correlation_matrix_stores_a_float64_array():
    # a nested list becomes an array that the bounds can read
    t = CorrelationMatrix([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1]])
    assert type(t.matrix) is np.ndarray and t.matrix.dtype == np.float64
    assert chsh_bounds(t).upper == pytest.approx(2.0 * ROOT2, abs=1e-14)
    # a complex array with zero imaginary parts gives its real part
    np.testing.assert_array_equal(CorrelationMatrix(np.eye(3, dtype=complex)).matrix, np.eye(3))
    # the read-only T of correlation_matrix passes through as it is
    computed = correlation_matrix(random_two_qudit_state(3, 8)).matrix
    assert CorrelationMatrix(computed).matrix is computed


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, 1j, 1.0 + 1e-300j, "1.0"])
def test_correlation_matrix_refuses_non_finite_or_non_real_entries(entry):
    t = np.diag([entry, 1.0, 1.0])
    with pytest.raises(NotHermitian, match="correlation matrix"):
        CorrelationMatrix(t)


def test_correlation_raises_on_imaginary_residual():
    rho = ghz_state(2).rho.copy()
    rho[0, 3] += 0.2j
    rho[3, 0] += 0.2j  # keeps the matrix non-Hermitian on purpose
    broken = TwoQuditState(rho)
    with pytest.raises(ImaginaryResidual):
        correlation_matrix(broken)


def _assert_same_as_dense(state):
    expected = dense_correlation(state)
    t = correlation_matrix(state).matrix
    np.testing.assert_array_equal(t, expected.real)
    np.testing.assert_array_equal(np.signbit(t), np.signbit(expected.real))
    imag = _complex_entries(state).imag
    assert np.max(np.abs(imag)) == np.max(np.abs(expected.imag))


@settings(max_examples=80, deadline=None)
@given(
    d=st.integers(2, 8),
    kind=st.sampled_from(["random", "ghz", "maximally-mixed", "product", "diagonal"]),
    seed=st.integers(0, 2**16),
)
def test_correlation_matches_dense_einsum_bit_for_bit(d, kind, seed):
    _assert_same_as_dense(property_state(kind, d, seed))


@pytest.mark.parametrize("d", range(9, 17))
def test_correlation_matches_dense_einsum_at_larger_d(d):
    _assert_same_as_dense(random_two_qudit_state(d, 100 + d))


@pytest.mark.parametrize("trailing", [(), (3,), (2, 3)])
def test_pair_leading_against_per_slice_trace(trailing, basis, rng):
    for d in (2, 3, 5):
        b = basis(d)
        shape = (d, d) + trailing
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        out = b._pair_leading(x)
        assert out.shape == (b.size,) + trailing
        slices = np.moveaxis(x, (0, 1), (-2, -1))
        for a, op in enumerate(b.stack):
            expected = np.trace(slices @ op, axis1=-2, axis2=-1)
            np.testing.assert_allclose(out[a], expected, rtol=0, atol=1e-13)


def test_chsh_operator_collinear_settings():
    settings = _settings_from_matrices([SIGMA_Z, SIGMA_Z, SIGMA_Z, SIGMA_Z])
    np.testing.assert_allclose(chsh_operator(settings), 2.0 * np.kron(SIGMA_Z, SIGMA_Z), atol=1e-14)


def test_chsh_operator_bell_settings():
    settings = bell_optimal_settings()
    expected = ROOT2 * (np.kron(SIGMA_Z, SIGMA_Z) + np.kron(SIGMA_X, SIGMA_X))
    np.testing.assert_allclose(chsh_operator(settings), expected, atol=1e-14)


def test_chsh_operator_puts_alice_on_the_left_factor():
    # sigma_z x sigma_x: entry (i*2 + k, j*2 + l) is A[i, j] * B[k, l]
    zero = np.zeros((2, 2), dtype=complex)
    settings = _settings_from_matrices([SIGMA_Z, zero, SIGMA_X, zero])
    expected = np.zeros((4, 4), dtype=complex)
    expected[:2, :2] = SIGMA_X
    expected[2:, 2:] = -SIGMA_X
    np.testing.assert_allclose(chsh_operator(settings), expected, rtol=0, atol=1e-15)


def test_chsh_operator_entries_match_index_formula(basis, rng):
    # entry (i*d + k, j*d + l) is A1[i, j] (B1 + B2)[k, l] + A2[i, j] (B1 - B2)[k, l]
    d = 3
    settings = random_settings(rng, basis(d))
    a1, a2, b1, b2 = (obs.matrix for obs in settings.all)
    expected = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for l in range(d):
                    expected[i * d + k, j * d + l] = (
                        a1[i, j] * (b1 + b2)[k, l] + a2[i, j] * (b1 - b2)[k, l]
                    )
    np.testing.assert_allclose(chsh_operator(settings), expected, rtol=0, atol=1e-15)


def test_chsh_operator_square_follows_mixed_product_rule(basis, rng):
    # (A x B)(C x D) = AC x BD expands the square of the Bell operator
    for d in (2, 3):
        for _ in range(20):
            settings = random_settings(rng, basis(d))
            a1, a2, b1, b2 = (obs.matrix for obs in settings.all)
            plus, minus = b1 + b2, b1 - b2
            expected = (
                np.kron(a1 @ a1, plus @ plus)
                + np.kron(a1 @ a2, plus @ minus)
                + np.kron(a2 @ a1, minus @ plus)
                + np.kron(a2 @ a2, minus @ minus)
            )
            op = chsh_operator(settings)
            assert np.max(np.abs(op @ op - expected)) < 1e-12


def test_chsh_operator_ghz_pairing(basis):
    # the first basis operator paired with itself against the d=3 GHZ state:
    # n = sqrt(2/3) e_0 gives the observable sqrt(3/2) (n . L) = L0 itself
    b = basis(3)
    n = np.zeros(b.size)
    n[0] = np.sqrt(2.0 / 3.0)
    zero = TracelessObservable(np.zeros(b.size))
    first = TracelessObservable(n)
    np.testing.assert_allclose(first.matrix, b.stack[0], rtol=0, atol=1e-15)
    value = chsh_expectation_direct(ghz_state(3), ChshSettings(first, zero, first, zero))
    assert value == pytest.approx(2.0 / 3.0, abs=1e-14)
    assert correlation_matrix(ghz_state(3)).matrix[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-14)


def test_chsh_operator_zero_settings():
    zero = TracelessObservable(np.zeros(3))
    settings = ChshSettings(zero, zero, zero, zero)
    np.testing.assert_allclose(chsh_operator(settings), np.zeros((4, 4)), atol=0)
    assert chsh_expectation_direct(ghz_state(2), settings) == 0.0


def test_settings_reject_inadmissible_observable():
    fine = TracelessObservable(np.array([0.0, 0.0, 1.0]))
    too_big = TracelessObservable(np.array([0.0, 0.0, 2.0]))
    with pytest.raises(NotInLd):
        ChshSettings(fine, fine, fine, too_big)


def test_settings_reject_mixed_dimensions():
    # chsh_operator's np.kron relies on this check for equal factor sizes
    qubit = TracelessObservable(np.array([0.0, 0.0, 1.0]))
    qutrit = TracelessObservable(np.zeros(8))
    with pytest.raises(DimensionMismatch):
        ChshSettings(qubit, qubit, qubit, qutrit)


def test_bell_state_reaches_tsirelson():
    value = chsh_expectation_direct(ghz_state(2), bell_optimal_settings())
    assert value == pytest.approx(2.0 * ROOT2, abs=1e-12)


def test_product_state_expectation():
    # rho = |00><00|, A1 = A2 = sigma_z, B1 = sigma_z, B2 = -sigma_z gives 2.
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    state = validate_state(rho)
    settings = _settings_from_matrices([SIGMA_Z, SIGMA_Z, SIGMA_Z, -SIGMA_Z])
    assert chsh_expectation_direct(state, settings) == pytest.approx(2.0, abs=1e-13)


def test_expectation_from_correlations_frozen_example():
    # <a1, T(b1+b2)> = <a2, T(b1-b2)> = sqrt(2) for the Bell-optimal vectors.
    t = CorrelationMatrix(np.diag([1.0, -1.0, 1.0]))
    a1 = np.array([1.0, 0.0, 1.0]) / ROOT2
    a2 = np.array([1.0, 0.0, -1.0]) / ROOT2
    b1 = np.array([1.0, 0.0, 0.0])
    b2 = np.array([0.0, 0.0, 1.0])
    settings = ChshSettings(*map(TracelessObservable, (a1, a2, b1, b2)))
    value = chsh_expectation_from_correlations(t, settings)
    assert value == pytest.approx(2.0 * ROOT2, abs=1e-14)

    zero = CorrelationMatrix(np.zeros((3, 3)))
    assert chsh_expectation_from_correlations(zero, settings) == 0.0


def test_expectation_from_correlations_checks_dimension():
    # qubit settings against a qutrit T, as chsh_expectation_direct refuses them
    t = CorrelationMatrix(np.eye(8))
    with pytest.raises(DimensionMismatch, match="settings have d=2 but T has d=3"):
        chsh_expectation_from_correlations(t, bell_optimal_settings())


def test_form_equivalence_random(basis, rng):
    for d in (2, 3, 4):
        b = basis(d)
        for seed in range(30):
            state = random_two_qudit_state(d, seed)
            t = correlation_matrix(state)
            settings = random_settings(rng, b)
            direct = chsh_expectation_direct(state, settings)
            via = chsh_expectation_from_correlations(t, settings)
            assert abs(direct - via) < 1e-10
            assert abs(direct) <= 2.0 * ROOT2 + 1e-9


def test_correlation_pairing_bound(basis, rng):
    for d in (2, 3, 4):
        b = basis(d)
        state = random_two_qudit_state(d, seed=d)
        t = correlation_matrix(state)
        for _ in range(200):
            a = boundary(rng.standard_normal(b.size), b)
            v = boundary(rng.standard_normal(b.size), b)
            assert abs(a @ (t.matrix @ v)) <= 2.0 / d + 1e-9
