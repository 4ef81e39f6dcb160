import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchsh import (
    ChshSettings,
    CorrelationMatrix,
    TwoQuditState,
    build_gellmann_basis,
    chsh_expectation_direct,
    chsh_expectation_from_correlations,
    chsh_operator,
    correlation_matrix,
    expand_observable,
    ghz_state,
    observable_from_coefficients,
    random_two_qudit_state,
    validate_state,
)
from qchsh.correlation import _complex_entries
from qchsh.errors import DimensionMismatch, ImaginaryResidual, NotInLd

from conftest import SIGMA_X, SIGMA_Z, boundary, dense_correlation, property_state

ROOT2 = np.sqrt(2.0)


def _settings_from_matrices(mats, basis):
    observables = [observable_from_coefficients(expand_observable(m, basis), basis) for m in mats]
    return ChshSettings(*observables)


def bell_optimal_settings(basis):
    return _settings_from_matrices(
        [SIGMA_Z, SIGMA_X, (SIGMA_Z + SIGMA_X) / ROOT2, (SIGMA_Z - SIGMA_X) / ROOT2],
        basis,
    )


def random_settings(rng, basis):
    """Four admissible observables with uniformly scaled boundary vectors."""
    vectors = [
        rng.uniform(0.0, 1.0) * boundary(rng.standard_normal(basis.size), basis)
        for _ in range(4)
    ]
    return (
        ChshSettings(*[observable_from_coefficients(v, basis) for v in vectors]),
        vectors,
    )


def test_maximally_mixed_has_zero_correlations(basis):
    state = validate_state(np.eye(9, dtype=complex) / 9.0, 3)
    t = correlation_matrix(state, basis(3))
    assert np.max(np.abs(t.matrix)) < 1e-14


def test_ghz_qubit_correlations(basis):
    t = correlation_matrix(ghz_state(2), basis(2))
    np.testing.assert_allclose(t.matrix, np.diag([1.0, -1.0, 1.0]), atol=1e-14)


def test_ghz_qutrit_correlations(basis):
    t = correlation_matrix(ghz_state(3), basis(3))
    expected = np.diag([2 / 3] * 3 + [-2 / 3] * 3 + [2 / 3] * 2)
    np.testing.assert_allclose(t.matrix, expected, atol=1e-13)


def test_correlation_matrix_symmetric_for_ghz(basis):
    t = correlation_matrix(ghz_state(4), basis(4))
    assert np.max(np.abs(t.matrix - t.matrix.T)) < 1e-10


def test_correlation_rejects_dimension_mismatch(basis):
    with pytest.raises(DimensionMismatch):
        correlation_matrix(ghz_state(3), basis(2))


def test_correlation_matrix_reads_d_from_its_side():
    assert CorrelationMatrix(np.zeros((3, 3))).dim == 2
    assert CorrelationMatrix(np.zeros((80, 80))).dim == 9
    assert correlation_matrix(ghz_state(4), build_gellmann_basis(4)).dim == 4


@pytest.mark.parametrize("shape", [(3, 8), (5, 5), (9, 9), (0, 0), (8,), (2, 3, 3)])
def test_correlation_matrix_side_must_be_d_squared_minus_one(shape):
    with pytest.raises(DimensionMismatch, match=r"side d\*\*2 - 1"):
        CorrelationMatrix(np.zeros(shape))


def test_correlation_raises_on_imaginary_residual(basis):
    rho = ghz_state(2).rho.copy()
    rho[0, 3] += 0.2j
    rho[3, 0] += 0.2j  # keeps the matrix non-Hermitian on purpose
    broken = TwoQuditState(rho)
    with pytest.raises(ImaginaryResidual):
        correlation_matrix(broken, basis(2))


def _assert_same_as_dense(state, basis):
    expected = dense_correlation(state, basis)
    t = correlation_matrix(state, basis).matrix
    np.testing.assert_array_equal(t, expected.real)
    np.testing.assert_array_equal(np.signbit(t), np.signbit(expected.real))
    imag = _complex_entries(state, basis).imag
    assert np.max(np.abs(imag)) == np.max(np.abs(expected.imag))


@settings(max_examples=80, deadline=None)
@given(
    d=st.integers(2, 8),
    kind=st.sampled_from(["random", "ghz", "maximally-mixed", "product", "diagonal"]),
    seed=st.integers(0, 2**16),
)
def test_correlation_matches_dense_einsum_bit_for_bit(d, kind, seed):
    _assert_same_as_dense(property_state(kind, d, seed), build_gellmann_basis(d))


@pytest.mark.parametrize("d", range(9, 17))
def test_correlation_matches_dense_einsum_at_larger_d(d, basis):
    _assert_same_as_dense(random_two_qudit_state(d, 100 + d), basis(d))


@pytest.mark.parametrize("trailing", [(), (3,), (2, 3)])
def test_pair_leading_against_per_slice_trace(trailing, basis, rng):
    for d in (2, 3, 5):
        b = basis(d)
        shape = (d, d) + trailing
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        out = b.pair_leading(x)
        assert out.shape == (b.size,) + trailing
        slices = np.moveaxis(x, (0, 1), (-2, -1))
        for a, op in enumerate(b.stack):
            expected = np.trace(slices @ op, axis1=-2, axis2=-1)
            np.testing.assert_allclose(out[a], expected, rtol=0, atol=1e-13)
    with pytest.raises(DimensionMismatch):
        basis(3).pair_leading(np.zeros((3, 2, 4)))
    with pytest.raises(DimensionMismatch):
        basis(3).pair_leading(np.zeros(3))


def test_chsh_operator_collinear_settings(basis):
    settings = _settings_from_matrices([SIGMA_Z, SIGMA_Z, SIGMA_Z, SIGMA_Z], basis(2))
    np.testing.assert_allclose(chsh_operator(settings), 2.0 * np.kron(SIGMA_Z, SIGMA_Z), atol=1e-14)


def test_chsh_operator_bell_settings(basis):
    settings = bell_optimal_settings(basis(2))
    expected = ROOT2 * (np.kron(SIGMA_Z, SIGMA_Z) + np.kron(SIGMA_X, SIGMA_X))
    np.testing.assert_allclose(chsh_operator(settings), expected, atol=1e-14)


def test_chsh_operator_puts_alice_on_the_left_factor(basis):
    # sigma_z x sigma_x: entry (i*2 + k, j*2 + l) is A[i, j] * B[k, l]
    zero = np.zeros((2, 2), dtype=complex)
    settings = _settings_from_matrices([SIGMA_Z, zero, SIGMA_X, zero], basis(2))
    expected = np.zeros((4, 4), dtype=complex)
    expected[:2, :2] = SIGMA_X
    expected[2:, 2:] = -SIGMA_X
    np.testing.assert_allclose(chsh_operator(settings), expected, rtol=0, atol=1e-15)


def test_chsh_operator_entries_match_index_formula(basis, rng):
    # entry (i*d + k, j*d + l) is A1[i, j] (B1 + B2)[k, l] + A2[i, j] (B1 - B2)[k, l]
    d = 3
    settings, _ = random_settings(rng, basis(d))
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
            settings, _ = random_settings(rng, basis(d))
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
    zero = observable_from_coefficients(np.zeros(b.size), b)
    first = observable_from_coefficients(n, b)
    np.testing.assert_allclose(first.matrix, b.stack[0], rtol=0, atol=1e-15)
    value = chsh_expectation_direct(ghz_state(3), ChshSettings(first, zero, first, zero))
    assert value == pytest.approx(2.0 / 3.0, abs=1e-14)
    assert correlation_matrix(ghz_state(3), b).matrix[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-14)


def test_chsh_operator_zero_settings(basis):
    b = basis(2)
    zero = observable_from_coefficients(np.zeros(3), b)
    settings = ChshSettings(zero, zero, zero, zero)
    np.testing.assert_allclose(chsh_operator(settings), np.zeros((4, 4)), atol=0)
    assert chsh_expectation_direct(ghz_state(2), settings) == 0.0


def test_settings_reject_inadmissible_observable(basis):
    b = basis(2)
    fine = observable_from_coefficients(np.array([0.0, 0.0, 1.0]), b)
    too_big = observable_from_coefficients(np.array([0.0, 0.0, 2.0]), b)
    with pytest.raises(NotInLd):
        ChshSettings(fine, fine, fine, too_big)


def test_settings_reject_mixed_dimensions(basis):
    # chsh_operator's np.kron relies on this check for equal factor sizes
    qubit = observable_from_coefficients(np.array([0.0, 0.0, 1.0]), basis(2))
    qutrit = observable_from_coefficients(np.zeros(8), basis(3))
    with pytest.raises(DimensionMismatch):
        ChshSettings(qubit, qubit, qubit, qutrit)


def test_bell_state_reaches_tsirelson(basis):
    value = chsh_expectation_direct(ghz_state(2), bell_optimal_settings(basis(2)))
    assert value == pytest.approx(2.0 * ROOT2, abs=1e-12)


def test_product_state_expectation(basis):
    # rho = |00><00|, A1 = A2 = sigma_z, B1 = sigma_z, B2 = -sigma_z gives 2.
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    state = validate_state(rho, 2)
    settings = _settings_from_matrices([SIGMA_Z, SIGMA_Z, SIGMA_Z, -SIGMA_Z], basis(2))
    assert chsh_expectation_direct(state, settings) == pytest.approx(2.0, abs=1e-13)


def test_expectation_from_correlations_frozen_example():
    # <a1, T(b1+b2)> = <a2, T(b1-b2)> = sqrt(2) for the Bell-optimal vectors.
    t = CorrelationMatrix(np.diag([1.0, -1.0, 1.0]))
    a1 = np.array([1.0, 0.0, 1.0]) / ROOT2
    a2 = np.array([1.0, 0.0, -1.0]) / ROOT2
    b1 = np.array([1.0, 0.0, 0.0])
    b2 = np.array([0.0, 0.0, 1.0])
    value = chsh_expectation_from_correlations(t, a1, a2, b1, b2)
    assert value == pytest.approx(2.0 * ROOT2, abs=1e-14)

    zero = CorrelationMatrix(np.zeros((3, 3)))
    assert chsh_expectation_from_correlations(zero, a1, a2, b1, b2) == 0.0


def test_expectation_from_correlations_checks_lengths():
    t = CorrelationMatrix(np.diag([1.0, -1.0, 1.0]))
    with pytest.raises(DimensionMismatch):
        chsh_expectation_from_correlations(t, np.zeros(4), np.zeros(3), np.zeros(3), np.zeros(3))


def test_form_equivalence_random(basis, rng):
    for d in (2, 3, 4):
        b = basis(d)
        for seed in range(30):
            state = random_two_qudit_state(d, seed)
            t = correlation_matrix(state, b)
            settings, vectors = random_settings(rng, b)
            direct = chsh_expectation_direct(state, settings)
            via = chsh_expectation_from_correlations(t, *vectors)
            assert abs(direct - via) < 1e-10
            assert abs(direct) <= 2.0 * ROOT2 + 1e-9


def test_correlation_pairing_bound(basis, rng):
    for d in (2, 3, 4):
        b = basis(d)
        state = random_two_qudit_state(d, seed=d)
        t = correlation_matrix(state, b)
        for _ in range(200):
            a = boundary(rng.standard_normal(b.size), b)
            v = boundary(rng.standard_normal(b.size), b)
            assert abs(a @ (t.matrix @ v)) <= 2.0 / d + 1e-9
