import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qchsh import (
    ChshSettings,
    SeesawConfig,
    TracelessObservable,
    build_gellmann_basis,
    chsh_bounds,
    chsh_expectation_direct,
    chsh_expectation_from_correlations,
    correlation_matrix,
    ghz_chsh_maximum,
    ghz_optimal_settings,
    ghz_state,
    horodecki_two_qubit,
    max_admissible_norm,
    random_two_qudit_state,
    seesaw_maximize,
    validate_state,
)
from qchsh.errors import (
    ConvergenceFailure,
    InvalidConfig,
    InvalidDimension,
    NotTraceless,
    NumericalError,
)
import qchsh.optimizer
from qchsh.optimizer import (
    DEGENERATE_NORM_ATOL,
    LP_TIE_ATOL,
    MODES,
    STOP_REASONS,
    UPPER_BOUND_ATOL,
    _PLUS_MINUS,
    _deterministic_init,
    _lp_pattern,
    _lp_spectrum,
    _pair_products,
    _party_update,
    _run_restarts,
    _sweep,
)

from conftest import (
    halve_bob_in_sweep,
    is_admissible,
    lp_spectrum_oracle,
    patch_ghz_blocks,
    polytope_vertex_max,
    property_state,
    random_admissible,
    random_hermitian,
    random_search_max,
    random_unitary,
    serial_restarts,
    serial_update,
    stencil_operands,
    traceless_linear_max,
    werner_state,
)

ROOT2 = np.sqrt(2.0)


def test_linear_max_antisymmetric_spectrum():
    c = np.diag([0.7, -0.7]).astype(complex)
    obs, value = traceless_linear_max(c)
    assert value == pytest.approx(1.4, abs=1e-14)
    np.testing.assert_allclose(np.linalg.eigvalsh(obs.matrix), [-1.0, 1.0], atol=1e-12)


def test_linear_max_qutrit_example():
    # median 0.3: mu = (1, 0, -1) and value 0.2 + 1.1 = 1.3
    obs, value = traceless_linear_max(np.diag([0.5, 0.3, -0.8]).astype(complex))
    assert value == pytest.approx(1.3, abs=1e-14)
    np.testing.assert_allclose(sorted(np.linalg.eigvalsh(obs.matrix)), [-1.0, 0.0, 1.0], atol=1e-12)


def test_linear_max_even_dimension_example():
    obs, value = traceless_linear_max(np.diag([3.0, 1.0, -1.0, -3.0]).astype(complex))
    assert value == pytest.approx(8.0, abs=1e-13)
    assert obs.is_admissible()


def test_linear_max_rejects_traceful_input():
    with pytest.raises(NotTraceless):
        traceless_linear_max(np.eye(2, dtype=complex))


def test_linear_max_eigensolver_failure_is_convergence_failure(monkeypatch):
    def failing_eigh(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    with pytest.raises(ConvergenceFailure):
        traceless_linear_max(np.diag([1.0, -1.0]).astype(complex))
    t = correlation_matrix(ghz_state(2))
    with pytest.raises(ConvergenceFailure):
        seesaw_maximize(t, SeesawConfig(restarts=1))


def test_linear_max_matches_vertex_enumeration(rng):
    for d in (2, 3, 4):
        for _ in range(100):
            c = random_hermitian(rng, d, traceless=True)
            obs, value = traceless_linear_max(c)
            lam = np.linalg.eigvalsh(c)
            assert abs(value - polytope_vertex_max(lam)) < 1e-12
            # the certificate reproduces the value and stays admissible
            assert np.trace(obs.matrix @ c).real == pytest.approx(value, abs=1e-10)
            assert obs.is_admissible()


# Offsets, in units of LP_TIE_ATOL, of the values planted around a row's median.
TIE_OFFSETS = (0.0, 0.5, -0.5, 1.0, -1.0, 1.5, -1.5)


@st.composite
def planted_spectra(draw):
    """Descending spectra, 1-8 rows at d = 2..12, some with values planted near the median.

    A "cluster" row holds 2..d values within a few LP_TIE_ATOL of one center,
    sorted into positions that cover the median, sit beside it or lie off it,
    so that ties fall exactly at the median, next to it and at
    +-0.5 LP_TIE_ATOL; an "equal" row has every value tied.
    """
    d = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["spread", "cluster", "equal"]))
        center = float(rng.standard_normal())
        if kind == "equal":
            row = np.full(d, center)
        elif kind == "spread":
            row = rng.standard_normal(d)
        else:
            size = draw(st.integers(2, d))
            above = draw(st.integers(0, d - size))
            offsets = draw(st.lists(st.sampled_from(TIE_OFFSETS), min_size=size, max_size=size))
            row = np.concatenate((
                center + 1.0 + np.abs(rng.standard_normal(above)),
                center + LP_TIE_ATOL * np.array(offsets),
                center - 1.0 - np.abs(rng.standard_normal(d - size - above)),
            ))
        rows.append(np.sort(row)[::-1])
    return np.array(rows)


def _has_tie_beside_median(lam):
    """Whether any row of lam has an entry beside its median tied with t*."""
    d = lam.shape[-1]
    half = d // 2
    t_star = lam[:, half] if d % 2 else 0.5 * (lam[:, half - 1] + lam[:, half])
    beside = lam[:, [half - 1, d - half]]
    return bool(np.any(np.abs(beside - t_star[:, None]) < LP_TIE_ATOL))


@settings(max_examples=300, deadline=None)
@given(lam=planted_spectra())
def test_lp_spectrum_matches_full_row_oracle(lam):
    # the sign pattern, the -0.0 at an odd-d median and every tie share equal
    # the retired form that sends each row through the share formula, bit for bit
    expected = lp_spectrum_oracle(lam).view(np.int64)
    mu = _lp_spectrum(lam)
    assert mu.shape == lam.shape
    np.testing.assert_array_equal(mu.view(np.int64), expected)
    # one row alone, as traceless_linear_max passes it, and a reversed view, as
    # _linear_max passes eigh's ascending output
    np.testing.assert_array_equal(_lp_spectrum(lam[0]).view(np.int64), expected[0])
    ascending = np.ascontiguousarray(lam[:, ::-1])
    np.testing.assert_array_equal(_lp_spectrum(ascending[:, ::-1]).view(np.int64), expected)
    # with no tie beside a median the result is the shared read-only pattern
    # of lam's shape; with one it is a new writable array, and writing to it
    # leaves the shared pattern as it was
    pattern, _ = _lp_pattern(lam.shape)
    assert not pattern.flags.writeable
    if _has_tie_beside_median(lam):
        assert mu is not pattern and mu.flags.writeable
        mu[...] = np.nan
    else:
        assert mu is pattern
    untied = np.tile(np.linspace(1.0, -1.0, lam.shape[-1]), (lam.shape[0], 1))
    np.testing.assert_array_equal(
        _lp_spectrum(untied).view(np.int64), lp_spectrum_oracle(untied).view(np.int64)
    )


@settings(max_examples=300, deadline=None)
@given(pairs=stencil_operands(2))
def test_plus_minus_stencil_equals_add_and_subtract(pairs):
    # two +-1 terms per output: exact products, one rounding, the same double
    # as u + v and u - v, overflow and exact cancellation included
    u, v = pairs[:, 0], pairs[:, 1]
    with np.errstate(over="ignore"):
        expected = np.stack((u + v, u - v), axis=1)
        got = _PLUS_MINUS @ pairs
    assert got.shape == expected.shape
    np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("mode", ["closed-form"])
def test_vanishing_threshold_is_the_norm_itself(basis, mode):
    # a direction whose norm is exactly DEGENERATE_NORM_ATOL vanishes; one
    # whose norm is the next double above does not.  Only closed-form mode
    # tests the norm: exact mode leaves both to the LP's tie rule (below).
    b = basis(3)
    above = math.nextafter(DEGENERATE_NORM_ATOL, math.inf)
    directions = np.zeros((1, 2, b.size))
    directions[0, 0, 2] = DEGENERATE_NORM_ATOL
    directions[0, 1, 5] = above
    norms = [math.sqrt(float(np.dot(w, w))) for w in directions[0]]
    assert norms == [DEGENERATE_NORM_ATOL, above]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ((at, past),) = _party_update(directions, b, mode)
    np.testing.assert_array_equal(at, np.zeros(b.size))
    assert is_admissible(past, b) and np.count_nonzero(past)


def test_vanishing_norm_is_inside_the_lp_tie_tolerance():
    """The exact update needs no norm test of its own.

    By Lemma 1, ||w . L||_op <= sqrt(2(d-1)/d) ||w|| < sqrt(2) ||w||, so every
    eigenvalue of w . L lies within 2 sqrt(2) ||w|| of its median.  While
    2 sqrt(2) DEGENERATE_NORM_ATOL < LP_TIE_ATOL, a w of norm at most
    DEGENERATE_NORM_ATOL has its whole spectrum tied with the median, the
    LP gives mu = 0 and X = 0, and the update the zero vector.
    """
    assert 2.0 * math.sqrt(2.0) * DEGENERATE_NORM_ATOL < LP_TIE_ATOL


@settings(max_examples=150, deadline=None)
@given(
    d=st.integers(2, 12),
    seed=st.integers(0, 2**32 - 1),
    scales=st.lists(st.sampled_from([1.0, 3e-12, 1e-12, 1e-13, 1e-14, 0.0]), min_size=1,
                    max_size=6),
)
def test_exact_update_zeroes_vanishing_rows_through_the_lp(d, seed, scales):
    # at the program's own tolerances a zero row and a row of norm exactly
    # DEGENERATE_NORM_ATOL come back as +0.0 bits, with no norm test in the
    # exact update; every row, ordinary or small, has the bits of the
    # one-row reference update, which keeps the norm test
    b = build_gellmann_basis(d)
    rng = np.random.default_rng(seed)
    directions = rng.standard_normal((len(scales) + 1, 2, b.size))
    directions /= np.linalg.norm(directions, axis=-1, keepdims=True)
    directions[:-1] *= np.array(scales)[:, None, None]
    # the last pair: a zero row, and a row along one axis of norm exactly the threshold
    directions[-1] = 0.0
    directions[-1, 1, rng.integers(b.size)] = DEGENERATE_NORM_ATOL
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = _party_update(directions, b, "exact")
    expected = np.array([[serial_update(w, b, "exact") for w in pair] for pair in directions])
    np.testing.assert_array_equal(out.view(np.int64), expected.view(np.int64))
    assert not np.any(out[-1].view(np.int64))


def test_linear_max_invariant_under_rotation(rng):
    lam = np.array([0.5, 0.3, -0.8])
    for _ in range(10):
        u = random_unitary(rng, 3)
        c = u @ np.diag(lam).astype(complex) @ u.conj().T
        _, value = traceless_linear_max(c)
        assert value == pytest.approx(1.3, abs=1e-12)


def test_closed_form_update_bell_example(basis):
    b = basis(2)
    t = correlation_matrix(ghz_state(2))
    b1 = np.array([1.0, 0.0, 0.0])
    b2 = np.array([0.0, 0.0, 1.0])
    directions = _pair_products(t.matrix, np.array([[b1, b2]]))
    ((a1, a2),) = _party_update(directions, b, "closed-form")
    np.testing.assert_allclose(a1, np.array([1.0, 0.0, 1.0]) / ROOT2, atol=1e-12)
    np.testing.assert_allclose(a2, np.array([1.0, 0.0, -1.0]) / ROOT2, atol=1e-12)
    assert is_admissible(a1, b) and is_admissible(a2, b)
    # one update already lands on the fixed point with value 2*sqrt(2)
    settings = ChshSettings(*map(TracelessObservable, (a1, a2, b1, b2)))
    value = chsh_expectation_from_correlations(t, settings)
    assert value == pytest.approx(2.0 * ROOT2, abs=1e-14)


def test_closed_form_update_degenerate_paths(basis):
    b = basis(2)
    u = np.array([1.0, 0.0, 0.0])
    v = np.array([0.0, 0.0, 1.0])
    # T = 0: every direction vanishes, and every row comes back zero, with no
    # 0/0 warning
    directions = _pair_products(np.zeros((3, 3)), np.array([[u, v], [v, u]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = _party_update(directions, b, "closed-form")
    np.testing.assert_array_equal(out, np.zeros((2, 2, 3)))

    # Bob's update uses T^T; u - u vanishes in the minus slot only
    t = correlation_matrix(ghz_state(2))
    directions = _pair_products(t.matrix.T, np.array([[u, u]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ((plus, minus),) = _party_update(directions, b, "closed-form")
    np.testing.assert_allclose(plus, u, atol=1e-12)
    np.testing.assert_array_equal(minus, np.zeros(3))


def test_ghz_optimal_settings_values():
    for d, expected in ((2, 2.0 * ROOT2), (3, 4.0 * ROOT2 / 3.0), (6, 2.0 * ROOT2)):
        settings = ghz_optimal_settings(d)
        value = chsh_expectation_direct(ghz_state(d), settings)
        assert value == pytest.approx(expected, abs=1e-12)
        for obs in settings.all:
            assert obs.is_admissible()
            assert np.max(np.abs(obs.matrix.imag)) == 0.0
            assert np.max(np.abs(obs.matrix - obs.matrix.T)) == 0.0


def test_ghz_optimal_settings_odd_padding():
    settings = ghz_optimal_settings(5)
    for obs in settings.all:
        assert np.max(np.abs(obs.matrix[4, :])) == 0.0
        assert np.max(np.abs(obs.matrix[:, 4])) == 0.0
        assert np.max(np.abs(np.linalg.eigvalsh(obs.matrix))) == pytest.approx(1.0, abs=1e-12)


def test_ghz_optimal_settings_are_shared_and_read_only():
    # one instance per d, found by an int and by a numpy int alike; d is
    # checked before the lookup, so 2.0 and True (both == 2) cannot find it
    settings = ghz_optimal_settings(2)
    assert ghz_optimal_settings(2) is settings
    assert ghz_optimal_settings(np.int64(2)) is settings
    for bad in (2.0, True):
        with pytest.raises(InvalidDimension):
            ghz_optimal_settings(bad)
    for obs in ghz_optimal_settings(5).all:
        for array in (obs.coefficients, obs.matrix):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0


@pytest.mark.parametrize("d", range(2, 9))
@pytest.mark.parametrize("epsilon", [0.0, 1e-12])
def test_deterministic_init_starts_ghz_from_the_block_strategy(d, epsilon):
    b = build_gellmann_basis(d)
    rho = (1.0 - epsilon) * ghz_state(d).rho + epsilon * np.eye(d * d) / d**2
    (b1, b2), on_blocks = _deterministic_init(b, correlation_matrix(validate_state(rho)))
    assert on_blocks
    settings = ghz_optimal_settings(d)
    np.testing.assert_array_equal(b1.view(np.int64), settings.b1.coefficients.view(np.int64))
    np.testing.assert_array_equal(b2.view(np.int64), settings.b2.coefficients.view(np.int64))


@pytest.mark.parametrize("d", [2, 3, 5, 8])
@pytest.mark.parametrize("kind", ["near-ghz", "random", "mixed", "product"])
def test_deterministic_init_takes_singular_directions_off_ghz(d, kind, monkeypatch):
    if kind == "near-ghz":
        rho = (1.0 - 1e-3) * ghz_state(d).rho + 1e-3 * np.eye(d * d) / d**2
        state = validate_state(rho)
    else:
        state = property_state(kind, d, seed=3)

    def refuse(d):
        raise AssertionError("GHZ start taken")

    patch_ghz_blocks(monkeypatch, refuse)
    b = build_gellmann_basis(d)
    (b1, b2), on_blocks = _deterministic_init(b, correlation_matrix(state))
    assert not on_blocks
    assert is_admissible(b1, b) and is_admissible(b2, b)


def test_seesaw_reaches_ghz_maximum():
    for d, tol in ((2, 1e-8), (3, 1e-6)):
        config = SeesawConfig(mode="exact", restarts=8, seed=1)
        result = seesaw_maximize(correlation_matrix(ghz_state(d)), config)
        assert result.value == pytest.approx(ghz_chsh_maximum(d), abs=tol)


def count_sweep_rows(monkeypatch):
    """Patch ``_sweep`` to record the number of rows of each call; returns the record."""
    rows = []
    sweep = qchsh.optimizer._sweep

    def counted(t, t_transposed, alice_in, basis, mode):
        rows.append(alice_in.shape[0])
        return sweep(t, t_transposed, alice_in, basis, mode)

    monkeypatch.setattr(qchsh.optimizer, "_sweep", counted)
    return rows


@pytest.mark.parametrize("d", range(2, 9))
def test_seesaw_certifies_ghz_in_one_sweep(d, monkeypatch):
    # restart 0 starts on the block strategy, which attains the upper bound:
    # its first sweep runs on a one-row batch and certifies, no random start
    # is drawn, and restart 0 has the bits it has when run alone
    t = correlation_matrix(ghz_state(d))
    alone = seesaw_maximize(t, SeesawConfig(restarts=1))
    generators = []
    default_rng = np.random.default_rng

    def counted_rng(*args, **kwargs):
        generators.append(args)
        return default_rng(*args, **kwargs)

    sweeps = count_sweep_rows(monkeypatch)
    monkeypatch.setattr(np.random, "default_rng", counted_rng)
    result = seesaw_maximize(t, SeesawConfig())
    assert sweeps == [1]
    assert generators == []
    assert result.iterations_per_restart == [1] + [0] * 31
    assert result.stop_reasons == ["certified"] * 32
    assert result.converged_count == 0
    assert abs(result.value - ghz_chsh_maximum(d)) <= 1e-9
    assert result.value == alone.value
    for obs, solo in zip(result.settings.all, alone.settings.all):
        assert obs.coefficients.tobytes() == solo.coefficients.tobytes()


@pytest.mark.parametrize("d", [4, 8])
def test_ghz_lone_sweep_that_does_not_certify_runs_the_batch(d, monkeypatch):
    # at a tolerance of 1e-300 restart 0's first value falls short of the
    # bound by rounding, so the whole batch runs from the same starts,
    # restart 0's first sweep again
    sweeps = count_sweep_rows(monkeypatch)
    config = SeesawConfig(restarts=4, tolerance=1e-300)
    result = seesaw_maximize(correlation_matrix(ghz_state(d)), config)
    assert sweeps[:2] == [1, 4]
    assert result.iterations_per_restart == [2] * 4


@pytest.mark.parametrize("d", [3, 5])
@pytest.mark.parametrize("p", [0.5, 0.9])
def test_seesaw_certifies_isotropic_states(d, p):
    # p GHZ + (1 - p) I/d**2 has T = p T_GHZ, and its upper bound p * GHZ maximum is attained
    rho = p * ghz_state(d).rho + (1.0 - p) * np.eye(d * d) / d**2
    config = SeesawConfig()
    result = seesaw_maximize(correlation_matrix(validate_state(rho)), config)
    assert "certified" in result.stop_reasons
    assert 0.0 <= result.bounds.upper - result.value <= config.tolerance
    assert result.bounds.upper == pytest.approx(p * ghz_chsh_maximum(d), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 7), p=st.floats(0.01, 1.0))
def test_seesaw_certifies_the_isotropic_family(d, p):
    # the whole family attains its upper bound; the value may pass it by a
    # rounding error (up to 1.3e-15 at even d), never by UPPER_BOUND_ATOL
    rho = p * ghz_state(d).rho + (1.0 - p) * np.eye(d * d) / d**2
    config = SeesawConfig()
    result = seesaw_maximize(correlation_matrix(validate_state(rho)), config)
    assert "certified" in result.stop_reasons
    assert -UPPER_BOUND_ATOL <= result.bounds.upper - result.value <= config.tolerance
    assert result.bounds.upper == pytest.approx(p * ghz_chsh_maximum(d), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(2, 8), p=st.floats(0.0, 1.0))
def test_werner_states_attain_the_closed_form(d, p):
    """A Werner state has T = c I, and the block settings attain its upper bound.

    rho_W(p) commutes with every U x U, so T commutes with the adjoint action,
    irreducible on traceless matrices, and Schur's lemma gives T = c I.  The
    completeness relation sum_a L_a x L_a = 2 (SWAP - I/d) gives
    tr T = 2 (<SWAP> - 1/d) = 2 (1 - 2p - 1/d), hence c.  Then
    lam1 = lam2 = c**2, upper = d sqrt(2) m_d**2 |c|, and the block settings,
    with Alice's pair negated when c < 0, reach it.
    """
    state = werner_state(d, p)
    c = 2.0 * (1.0 - 2.0 * p - 1.0 / d) / (d * d - 1)
    t = correlation_matrix(state)
    assert np.max(np.abs(t.matrix - c * np.eye(d * d - 1))) <= 1e-14
    attained = d * ROOT2 * max_admissible_norm(d) ** 2 * abs(c)
    assert abs(chsh_bounds(t).upper - attained) <= 1e-12
    blocks = ghz_optimal_settings(d)
    sign = -1.0 if c < 0 else 1.0
    alice = (TracelessObservable(sign * a.coefficients) for a in (blocks.a1, blocks.a2))
    settings = ChshSettings(*alice, blocks.b1, blocks.b2)
    assert abs(chsh_expectation_direct(state, settings) - attained) <= 1e-12


@pytest.mark.parametrize("d", range(2, 9))
def test_seesaw_certifies_werner_states(d):
    # the see-saw reaches the Werner closed form and certifies it; with one
    # restart 59 of these 77 points do not certify
    config = SeesawConfig(restarts=4)
    for p in [k / 10 for k in range(11)]:
        result = seesaw_maximize(correlation_matrix(werner_state(d, p)), config)
        assert "certified" in result.stop_reasons, p
        assert -UPPER_BOUND_ATOL <= result.bounds.upper - result.value <= config.tolerance, p


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_seesaw_certifies_two_qubit_states(seed):
    # at d = 2 lower = upper = the exact Horodecki value
    t = correlation_matrix(random_two_qudit_state(2, seed))
    result = seesaw_maximize(t, SeesawConfig(seed=seed))
    assert "certified" in result.stop_reasons
    assert abs(result.value - horodecki_two_qubit(t)) <= 1e-9


def test_seesaw_returns_the_bounds_of_t():
    t = correlation_matrix(random_two_qudit_state(3, seed=4))
    result = seesaw_maximize(t, SeesawConfig(restarts=2))
    assert result.bounds == chsh_bounds(t)
    assert result.bounds.lower <= result.value <= result.bounds.upper


def test_seesaw_on_maximally_mixed_state():
    t = correlation_matrix(validate_state(np.eye(16, dtype=complex) / 16.0))
    result = seesaw_maximize(t, SeesawConfig(restarts=4, seed=0))
    assert abs(result.value) < 1e-9


def test_seesaw_certificate_consistency(basis):
    b = basis(3)
    state = random_two_qudit_state(3, seed=42)
    t = correlation_matrix(state)
    result = seesaw_maximize(t, SeesawConfig(mode="exact", restarts=6, seed=3))
    recomputed = chsh_expectation_direct(state, result.settings)
    assert abs(abs(recomputed) - result.value) < 1e-9
    for obs in result.settings.all:
        assert is_admissible(obs.coefficients, b)
        assert obs.is_admissible()


def test_closed_form_runs_may_fall(monkeypatch):
    # a falling sweep is a fault only in exact mode (see test_cli); closed-form
    # updates can lower the value, so the run returns
    halve_bob_in_sweep(monkeypatch, 2)
    t = correlation_matrix(random_two_qudit_state(3, 7))
    result = seesaw_maximize(t, SeesawConfig(mode="closed-form", restarts=2))
    assert result.bounds.lower <= result.value <= result.bounds.upper


def test_negative_winner_has_alices_pair_negated(monkeypatch):
    # no recorded request ends on a negative signed value, so plant one: the
    # winning restart with Alice's pair negated if its value is positive
    state = random_two_qudit_state(3, 7)
    real = qchsh.optimizer._run_restarts
    planted = []

    def negated_winner(basis, config, correlations, upper):
        runs = real(basis, config, correlations, upper)
        row = runs["vectors"][int(np.argmax(runs["values"]))]
        if chsh_expectation_from_correlations(
            correlations, ChshSettings(*map(TracelessObservable, row))
        ) > 0:
            row[:2] *= -1.0
        planted.append(row.copy())
        return runs

    monkeypatch.setattr(qchsh.optimizer, "_run_restarts", negated_winner)
    result = seesaw_maximize(correlation_matrix(state), SeesawConfig(restarts=4))
    (row,) = planted
    assert chsh_expectation_direct(state, ChshSettings(*map(TracelessObservable, row))) < 0
    assert result.value > 0
    assert np.array_equal(result.settings.a1.coefficients, -row[0])
    assert np.array_equal(result.settings.a2.coefficients, -row[1])
    assert np.array_equal(result.settings.b1.coefficients, row[2])
    assert np.array_equal(result.settings.b2.coefficients, row[3])
    assert result.value == pytest.approx(chsh_expectation_direct(state, result.settings), abs=1e-12)


@pytest.mark.parametrize("sweep", [1, 2])
def test_exact_run_raises_at_the_sweep_that_falls(monkeypatch, sweep):
    # Bob's halved update is the fall, and the run stops at its sweep: sweep 1
    # has no previous value, but Bob's value must still reach Alice's
    halve_bob_in_sweep(monkeypatch, sweep)
    calls = []
    pair_products = qchsh.optimizer._pair_products

    def counted(t, pairs):
        calls.append(pairs.shape)
        return pair_products(t, pairs)

    monkeypatch.setattr(qchsh.optimizer, "_pair_products", counted)
    t = correlation_matrix(random_two_qudit_state(3, 7))
    with pytest.raises(NumericalError, match="restart 0 is not monotone.*allowed 1e-12"):
        seesaw_maximize(t, SeesawConfig(restarts=2))
    # the starts, then two products per sweep up to the one that falls
    assert len(calls) == 1 + 2 * sweep


@pytest.mark.parametrize("mode", MODES)
def test_sweep_writes_into_none_of_its_arguments(mode):
    # read-only inputs make any write raise, and a second call on the same
    # inputs gives the same bits; restart 0 starts from zero vectors, so its
    # directions vanish
    b = build_gellmann_basis(3)
    t = correlation_matrix(random_two_qudit_state(3, 5)).matrix
    pairs = random_admissible(np.random.default_rng(0), 6, b).reshape(3, 2, b.size)
    pairs[0] = 0.0
    alice_in = _pair_products(t, pairs)
    t_transposed = t.T
    for array in (t, t_transposed, alice_in):
        array.setflags(write=False)
    first = _sweep(t, t_transposed, alice_in, b, mode)
    second = _sweep(t, t_transposed, alice_in, b, mode)
    for x, y in zip(first, second):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


def test_seesaw_closed_form_mode():
    result = seesaw_maximize(
        correlation_matrix(ghz_state(2)),
        SeesawConfig(mode="closed-form", restarts=8, seed=3),
    )
    assert result.value == pytest.approx(2.0 * ROOT2, abs=1e-8)


def test_seesaw_deterministic_and_restart_count_invariant():
    t = correlation_matrix(random_two_qudit_state(3, seed=9))
    first = seesaw_maximize(t, SeesawConfig(mode="exact", restarts=5, seed=7))
    second = seesaw_maximize(t, SeesawConfig(mode="exact", restarts=5, seed=7))
    assert first.value == second.value
    np.testing.assert_array_equal(first.settings.a1.coefficients, second.settings.a1.coefficients)
    np.testing.assert_array_equal(first.settings.b2.coefficients, second.settings.b2.coefficients)
    # restart i draws from its own (seed, i) substream, so the first three
    # restarts run the same whether three or five are requested
    fewer = seesaw_maximize(t, SeesawConfig(mode="exact", restarts=3, seed=7))
    assert fewer.iterations_per_restart == first.iterations_per_restart[:3]
    assert fewer.converged == first.converged[:3]
    assert fewer.value <= first.value
    # the same holds in closed-form mode on the maximally mixed state, where
    # every direction vanishes and every vector is zero; T = 0 gives
    # upper = 0, so both batches certify at sweep 1
    mixed = correlation_matrix(validate_state(np.eye(9, dtype=complex) / 9.0))
    many = seesaw_maximize(mixed, SeesawConfig(mode="closed-form", restarts=5, seed=7))
    few = seesaw_maximize(mixed, SeesawConfig(mode="closed-form", restarts=3, seed=7))
    assert few.iterations_per_restart == many.iterations_per_restart[:3]
    assert few.converged == many.converged[:3]
    # every value is 0, so restart 0 wins both runs with the same vectors
    np.testing.assert_array_equal(few.settings.a1.coefficients, many.settings.a1.coefficients)
    np.testing.assert_array_equal(few.settings.b2.coefficients, many.settings.b2.coefficients)


def test_seesaw_config_validation():
    with pytest.raises(InvalidConfig):
        SeesawConfig(restarts=0)
    with pytest.raises(InvalidConfig):
        SeesawConfig(max_iterations=0)
    with pytest.raises(InvalidConfig):
        SeesawConfig(tolerance=0.0)
    with pytest.raises(InvalidConfig):
        SeesawConfig(mode="gradient")
    # non-integer counts and seeds, a tolerance no sweep can miss, and one
    # that is no real number (True would certify the batch at upper - 1)
    for bad in (
        {"restarts": 2.5},
        {"restarts": True},
        {"max_iterations": 3.5},
        {"max_iterations": "10"},
        {"seed": 1.5},
        {"seed": False},
        {"tolerance": float("inf")},
        {"tolerance": float("nan")},
        {"tolerance": "1e-10"},
        {"tolerance": None},
        {"tolerance": 1j},
        {"tolerance": True},
        {"tolerance": np.bool_(True)},
    ):
        with pytest.raises(InvalidConfig):
            SeesawConfig(**bad)
    config = SeesawConfig(restarts=np.int64(2), max_iterations=np.int32(7), seed=np.uint8(3))
    assert config.restarts == 2
    for tolerance in (1, np.float32(1e-6), np.int64(2)):
        assert SeesawConfig(tolerance=tolerance).tolerance == tolerance


@settings(max_examples=100, deadline=None)
@given(
    d=st.integers(2, 5),
    mode=st.sampled_from(["exact", "closed-form"]),
    restarts=st.integers(1, 8),
    seed=st.integers(0, 2**16),
    kind=st.sampled_from(["random", "ghz", "maximally-mixed", "product"]),
    max_iterations=st.integers(1, 120),
    tolerance=st.sampled_from([1e-10, 1e-300]),
)
# GHZ's lone first sweep, certifying and not
@example(d=4, mode="exact", restarts=4, seed=1, kind="ghz", max_iterations=50, tolerance=1e-10)
@example(d=4, mode="exact", restarts=4, seed=1, kind="ghz", max_iterations=50, tolerance=1e-300)
def test_lockstep_restarts_match_serial_oracle(
    d, mode, restarts, seed, kind, max_iterations, tolerance
):
    # each restart of the lockstep batch reproduces, bit for bit, the same
    # restart run alone by the one-vector-at-a-time reference loop, cut at the
    # sweep where the batch certifies (GHZ, maximally mixed with T = 0 and
    # upper = 0, and d = 2 draws), or before its first sweep when GHZ's
    # restart 0 certifies alone; a tiny tolerance on product states makes
    # restarts leave the batch at different sweeps
    b = build_gellmann_basis(d)
    state = property_state(kind, d, seed)
    config = SeesawConfig(
        mode=mode, restarts=restarts, seed=seed, max_iterations=max_iterations,
        tolerance=tolerance,
    )
    correlations = correlation_matrix(state)
    runs = _run_restarts(b, config, correlations, chsh_bounds(correlations).upper)
    for i, (iterations, reason, vectors) in enumerate(serial_restarts(correlations, config)):
        assert runs["iterations"][i] == iterations
        assert STOP_REASONS[runs["stop_reason"][i]] == reason
        # bit for bit, the sign of every zero included
        np.testing.assert_array_equal(runs["vectors"][i].view(np.int64), vectors.view(np.int64))


def test_random_search_bell_state():
    value = random_search_max(ghz_state(2), samples=100_000, seed=0)
    assert 2.7 <= value <= 2.0 * ROOT2 + 1e-12


def test_random_search_maximally_mixed():
    state = validate_state(np.eye(4, dtype=complex) / 4.0)
    assert random_search_max(state, samples=1000, seed=1) < 1e-12


def test_random_search_never_beats_exact_seesaw():
    for seed in (0, 1):
        state = random_two_qudit_state(3, seed)
        sampled = random_search_max(state, samples=2000, seed=seed)
        optimized = seesaw_maximize(
            correlation_matrix(state), SeesawConfig(mode="exact", restarts=6, seed=seed)
        )
        assert sampled <= optimized.value + 1e-9
