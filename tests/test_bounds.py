import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchsh import (
    TSIRELSON,
    BoundsReport,
    CorrelationMatrix,
    SeesawConfig,
    chsh_bounds,
    correlation_matrix,
    ghz_chsh_maximum,
    ghz_correlation_matrix,
    ghz_state,
    horodecki_two_qubit,
    max_admissible_norm,
    random_two_qudit_state,
    seesaw_maximize,
    top_two_gram_eigenvalues,
    validate_state,
)
import qchsh.bounds
import qchsh.verify
from qchsh.errors import InvalidDimension, WrongDimension
from qchsh.verify import suite_bound_ordering

from conftest import random_unitary

ROOT2 = np.sqrt(2.0)


def test_top_two_gram_eigenvalues_examples():
    assert top_two_gram_eigenvalues(CorrelationMatrix(np.diag([1.0, -1.0, 1.0]))) == (1.0, 1.0)
    assert top_two_gram_eigenvalues(CorrelationMatrix(np.zeros((3, 3)))) == (0.0, 0.0)
    for d in range(2, 9):
        lam1, lam2 = top_two_gram_eigenvalues(ghz_correlation_matrix(d))
        assert lam1 == pytest.approx(4.0 / d**2, abs=1e-14)
        assert lam2 == pytest.approx(4.0 / d**2, abs=1e-14)


def test_chsh_bounds_ghz_qutrit():
    report = chsh_bounds(ghz_correlation_matrix(3))
    # (3/2) sqrt(8/9) = sqrt(2) and (2/3)*3*sqrt(8/9) = (4/3) sqrt(2)
    assert report.lower == pytest.approx(ROOT2, abs=1e-14)
    assert report.upper == pytest.approx(4.0 * ROOT2 / 3.0, abs=1e-14)
    assert report.upper_improves_tsirelson


def test_chsh_bounds_ghz_qubit():
    # the Bell state's T, built directly too: its side fixes d = 2
    for t in (ghz_correlation_matrix(2), CorrelationMatrix(np.diag([1.0, -1.0, 1.0]))):
        report = chsh_bounds(t)
        assert report.dim == 2
        assert report.lower == pytest.approx(2.0 * ROOT2, abs=1e-14)
        assert report.upper == pytest.approx(2.0 * ROOT2, abs=1e-14)
        assert not report.upper_improves_tsirelson


def test_chsh_bounds_zero_matrix():
    report = chsh_bounds(CorrelationMatrix(np.zeros((8, 8))))
    assert report.lower == 0.0
    assert report.upper == 0.0


def test_bounds_report_derives_its_bounds_from_d_and_the_eigenvalues():
    # the GHZ qutrit's eigenvalues, 4/9 each: lower = (3/2) sqrt(8/9), upper = 2 m_3**2 sqrt(2)
    report = BoundsReport(3, 4.0 / 9.0, 4.0 / 9.0)
    assert [field.name for field in dataclasses.fields(BoundsReport)] == [
        "dim", "lambda1", "lambda2"
    ]
    assert report.lower == pytest.approx(ROOT2, abs=1e-15)
    assert report.upper == pytest.approx(ghz_chsh_maximum(3), abs=1e-15)
    for d in (0, 1, 2.0, True):
        with pytest.raises(InvalidDimension):
            BoundsReport(d, 0.0, 0.0)


def test_bounds_ordering_random_states():
    for d in (2, 3, 4):
        for seed in range(25):
            report = chsh_bounds(correlation_matrix(random_two_qudit_state(d, seed)))
            assert report.lower <= report.upper + 1e-12
            if d == 2:
                assert report.lower == pytest.approx(report.upper, abs=1e-12)


def test_horodecki_examples():
    assert horodecki_two_qubit(CorrelationMatrix(np.diag([1.0, -1.0, 1.0]))) == pytest.approx(
        2.0 * ROOT2, abs=1e-14
    )
    assert horodecki_two_qubit(CorrelationMatrix(np.zeros((3, 3)))) == 0.0
    with pytest.raises(WrongDimension):
        horodecki_two_qubit(ghz_correlation_matrix(3))
    # coincides with both spectral bounds at d = 2
    t = correlation_matrix(random_two_qudit_state(2, seed=11))
    report = chsh_bounds(t)
    exact = horodecki_two_qubit(t)
    assert report.lower == pytest.approx(exact, abs=1e-12)
    assert report.upper == pytest.approx(exact, abs=1e-12)


def test_bound_ordering_catches_a_wrong_gram_spectrum(monkeypatch):
    # the exact d = 2 value comes from T's singular values, apart from the Gram
    # eigenvalues behind the bounds, so a fault in those fails the suite; the
    # planted routine is right on a diagonal T, so the GHZ row still passes
    right = qchsh.bounds.top_two_gram_eigenvalues

    def planted(correlations):
        lam1, lam2 = right(correlations)
        t = correlations.matrix
        return (lam1, lam2) if np.array_equal(t, np.diag(np.diag(t))) else (1.01 * lam1, lam2)

    monkeypatch.setattr(qchsh.bounds, "top_two_gram_eigenvalues", planted)
    result = suite_bound_ordering((2,), 500, 0)
    assert not result.passed
    assert result.checks == 1
    assert result.detail.startswith("d=2:")


def test_bound_ordering_checks_the_lower_bound_at_d2(monkeypatch):
    # at d = 2 lower and upper are the same float by construction, so only a
    # comparison of lower with the exact value catches a lower bound moved
    # off it; the GHZ row reads only the upper bound and still passes
    class LoweredLower(BoundsReport):
        @property
        def lower(self):
            return super().lower - 1e-9

    def planted(correlations):
        return LoweredLower(*dataclasses.astuple(chsh_bounds(correlations)))

    monkeypatch.setattr(qchsh.verify, "chsh_bounds", planted)
    result = suite_bound_ordering((2,), 500, 0)
    assert not result.passed
    assert result.checks == 1
    assert result.detail == "d=2: bounds miss the exact value by 1.000e-09"


def test_ghz_correlation_closed_form_matches_computed():
    np.testing.assert_allclose(
        ghz_correlation_matrix(2).matrix, np.diag([1.0, -1.0, 1.0]), atol=0
    )
    expected3 = np.diag([2 / 3] * 3 + [-2 / 3] * 3 + [2 / 3] * 2)
    np.testing.assert_allclose(ghz_correlation_matrix(3).matrix, expected3, atol=1e-15)
    for d in range(2, 9):
        computed = correlation_matrix(ghz_state(d)).matrix
        assert np.max(np.abs(computed - ghz_correlation_matrix(d).matrix)) < 1e-12


def test_ghz_chsh_maximum_values():
    assert ghz_chsh_maximum(2) == pytest.approx(2.828427124746190, abs=1e-12)
    assert ghz_chsh_maximum(3) == pytest.approx(4.0 * ROOT2 / 3.0, abs=1e-14)
    assert ghz_chsh_maximum(5) == pytest.approx(8.0 * ROOT2 / 5.0, abs=1e-14)
    with pytest.raises(InvalidDimension):
        ghz_chsh_maximum(0)


def test_ghz_maximum_equals_upper_bound():
    for d in range(2, 9):
        report = chsh_bounds(ghz_correlation_matrix(d))
        assert abs(ghz_chsh_maximum(d) - report.upper) < 1e-12
        if d % 2 == 1:
            assert report.upper < TSIRELSON - 0.1


@pytest.mark.parametrize(
    "d, upper, improves",
    [
        (3, 8.0 / 3.0, True),
        (4, 6.0, False),
        (5, 6.4, False),
        (6, 10.0, False),
        (7, 72.0 / 7.0, False),
        (8, 14.0, False),
    ],
)
def test_product_state_upper_bound_need_not_improve_tsirelson(d, upper, improves):
    # |00>: T = r r^T with |r|^2 = 2(1 - 1/d), so lower = 2 and upper = 2(d - 1) m_d^2,
    # which passes 2*sqrt(2) from d = 4 on; the paper's upper bound does not
    # improve on Tsirelson for every state
    rho = np.zeros((d * d, d * d), dtype=complex)
    rho[0, 0] = 1.0
    t = correlation_matrix(validate_state(rho))
    report = chsh_bounds(t)
    assert report.lower == pytest.approx(2.0, abs=1e-12)
    assert report.upper == pytest.approx(upper, abs=1e-12)
    assert report.upper_improves_tsirelson == improves
    assert seesaw_maximize(t).value == pytest.approx(2.0, abs=1e-9)
    # T has rank one, so closed-form updates meet vanishing directions; their
    # zero vectors still reach the maximum
    closed = seesaw_maximize(t, SeesawConfig(mode="closed-form"))
    assert closed.value == pytest.approx(2.0, abs=1e-9)
    assert max(closed.iterations_per_restart) <= 2


@settings(max_examples=40, deadline=None)
@given(data=st.data(), d=st.integers(2, 7))
def test_product_basis_states_are_an_exact_family(data, d):
    # every |jk> has lower = max = 2 and upper = 2(d - 1) m_d^2
    j = data.draw(st.integers(0, d - 1), label="j")
    k = data.draw(st.integers(0, d - 1), label="k")
    rho = np.zeros((d * d, d * d), dtype=complex)
    rho[j * d + k, j * d + k] = 1.0
    t = correlation_matrix(validate_state(rho))
    report = chsh_bounds(t)
    assert abs(report.lower - 2.0) <= 1e-9
    assert abs(report.upper - 2.0 * (d - 1) * max_admissible_norm(d) ** 2) <= 1e-9
    assert abs(seesaw_maximize(t).value - 2.0) <= 1e-9


# The paper leaves open whether its upper bound improves on Tsirelson's 2*sqrt(2)
# for every state.  At d = 2 it is Horodecki's exact value; at d >= 4 |00>
# passes 2*sqrt(2) (test_product_state_upper_bound_need_not_improve_tsirelson).
# At d = 3 the tests below are numerical evidence that it never does: the
# largest lambda1 + lambda2 is 2, where upper = 2*sqrt(2), reached by an
# embedded Bell pair.


def test_embedded_bell_pair_meets_tsirelson_at_d3():
    d = 3
    psi = np.zeros(d * d, dtype=complex)
    psi[0] = psi[d + 1] = 1.0 / ROOT2
    t = correlation_matrix(validate_state(np.outer(psi, psi.conj())))
    report = chsh_bounds(t)
    assert abs(report.lambda1 + report.lambda2 - 2.0) <= 1e-12
    assert abs(report.upper - TSIRELSON) <= 1e-12
    assert not report.upper_improves_tsirelson
    result = seesaw_maximize(t)
    assert "certified" in result.stop_reasons
    assert abs(result.value - TSIRELSON) <= 1e-9


def test_pure_two_qutrit_states_keep_lambda_sum_at_most_two():
    # mixtures are covered by convexity: lambda1 + lambda2 is a convex
    # function of T, and T is linear in rho
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(300):
        psi = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        psi /= np.linalg.norm(psi)
        report = chsh_bounds(correlation_matrix(validate_state(np.outer(psi, psi.conj()))))
        worst = max(worst, report.lambda1 + report.lambda2)
    assert worst <= 2.0 + 1e-12


def test_gradient_ascent_keeps_two_qutrit_lambda_sum_at_most_two(basis):
    # Projected gradient ascent of f = lambda1 + lambda2 over pure states psi,
    # with T_ab = <psi|L_a x L_b|psi>.  With V the top two eigenvectors of
    # T^T T, f = ||T V||_F^2 has gradient G = 2 (T V) V^T in T, so its
    # gradient in psi is 2 sum_ab G_ab (L_a x L_b) psi.  Each step moves
    # along that gradient's tangent part and renormalizes; a step that
    # lowers f is refused and the step length halved.
    b = basis(3)
    products = np.einsum("aij,bkl->abikjl", b.stack, b.stack).reshape(64, 9, 9)

    def value_and_gradient(psi):
        terms = products @ psi
        t = (terms @ psi.conj()).real.reshape(8, 8)
        eigenvalues, eigenvectors = np.linalg.eigh(t.T @ t)
        top = eigenvectors[:, -2:]
        g = 2.0 * (t @ top) @ top.T
        return eigenvalues[-1] + eigenvalues[-2], 2.0 * (g.reshape(64) @ terms)

    finals = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        psi = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        psi /= np.linalg.norm(psi)
        value, gradient = value_and_gradient(psi)
        step = 0.2
        for _ in range(400):
            tangent = gradient - np.vdot(psi, gradient) * psi
            trial = psi + step * tangent
            trial /= np.linalg.norm(trial)
            trial_value, trial_gradient = value_and_gradient(trial)
            if trial_value < value:
                step /= 2.0
                continue
            psi, value, gradient = trial, trial_value, trial_gradient
        report = chsh_bounds(correlation_matrix(validate_state(np.outer(psi, psi.conj()))))
        assert abs(report.lambda1 + report.lambda2 - value) <= 1e-12
        finals.append(value)
    assert max(finals) <= 2.0 + 1e-12
    # the ascent climbs to the supremum, so the bound above is tested where it is tight
    assert max(finals) >= 2.0 - 1e-6


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 8), seed=st.integers(0, 2**16))
def test_bounds_are_local_unitary_invariant(d, seed):
    rng = np.random.default_rng(seed)
    state = random_two_qudit_state(d, seed)
    local = np.kron(random_unitary(rng, d), random_unitary(rng, d))
    rotated = validate_state(local @ state.rho @ local.conj().T)
    before = chsh_bounds(correlation_matrix(state))
    after = chsh_bounds(correlation_matrix(rotated))
    for name in ("lambda1", "lambda2", "lower", "upper"):
        assert abs(getattr(before, name) - getattr(after, name)) <= 1e-12
