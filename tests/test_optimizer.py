import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchsh import (
    SeesawConfig,
    build_gellmann_basis,
    chsh_bounds,
    chsh_expectation_direct,
    correlation_matrix,
    ghz_chsh_maximum,
    ghz_optimal_settings,
    ghz_state,
    horodecki_two_qubit,
    random_two_qudit_state,
    seesaw_maximize,
    validate_state,
)
from qchsh.errors import (
    ConvergenceFailure,
    InvalidConfig,
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
    _VANISHING_SQUARE,
    _deterministic_init,
    _largest_square_within,
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
    polytope_vertex_max,
    property_state,
    random_hermitian,
    random_search_max,
    random_unitary,
    serial_restarts,
    stencil_operands,
    traceless_linear_max,
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


def test_vanishing_square_is_the_norm_test_without_its_sqrt():
    # the largest double whose sqrt is at most DEGENERATE_NORM_ATOL, and its
    # neighbours on either side, are judged as the norm test judges them
    assert _VANISHING_SQUARE == 1.0000000000000001e-28
    below = math.nextafter(_VANISHING_SQUARE, 0.0)
    above = math.nextafter(_VANISHING_SQUARE, math.inf)
    for x in (0.0, below, _VANISHING_SQUARE, above, math.inf, math.nan):
        assert (x <= _VANISHING_SQUARE) == (math.sqrt(x) <= DEGENERATE_NORM_ATOL)
    assert math.sqrt(_VANISHING_SQUARE) <= DEGENERATE_NORM_ATOL < math.sqrt(above)


@settings(max_examples=300, deadline=None)
@given(bound=st.floats(min_value=1e-150, max_value=1e150))
def test_largest_square_within_is_the_largest(bound):
    x = _largest_square_within(bound)
    assert math.sqrt(x) <= bound < math.sqrt(math.nextafter(x, math.inf))


def test_linear_max_invariant_under_rotation(rng):
    lam = np.array([0.5, 0.3, -0.8])
    for _ in range(10):
        u = random_unitary(rng, 3)
        c = u @ np.diag(lam).astype(complex) @ u.conj().T
        _, value = traceless_linear_max(c)
        assert value == pytest.approx(1.3, abs=1e-12)


def test_closed_form_update_bell_example(basis):
    from qchsh import chsh_expectation_from_correlations

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
    value = chsh_expectation_from_correlations(t, a1, a2, b1, b2)
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


@pytest.mark.parametrize("d", range(2, 9))
@pytest.mark.parametrize("epsilon", [0.0, 1e-12])
def test_deterministic_init_starts_ghz_from_the_block_strategy(d, epsilon):
    b = build_gellmann_basis(d)
    rho = (1.0 - epsilon) * ghz_state(d).rho + epsilon * np.eye(d * d) / d**2
    b1, b2 = _deterministic_init(b, correlation_matrix(validate_state(rho)))
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

    monkeypatch.setattr(qchsh.optimizer, "_ghz_blocks", refuse)
    b = build_gellmann_basis(d)
    b1, b2 = _deterministic_init(b, correlation_matrix(state))
    assert is_admissible(b1, b) and is_admissible(b2, b)


def test_seesaw_reaches_ghz_maximum():
    for d, tol in ((2, 1e-8), (3, 1e-6)):
        config = SeesawConfig(mode="exact", restarts=8, seed=1)
        result = seesaw_maximize(correlation_matrix(ghz_state(d)), config)
        assert result.value == pytest.approx(ghz_chsh_maximum(d), abs=tol)


@pytest.mark.parametrize("d", range(2, 9))
def test_seesaw_certifies_ghz_within_two_sweeps(d):
    # restart 0 starts on the block strategy, which attains the upper bound,
    # so the whole batch stops at once
    result = seesaw_maximize(correlation_matrix(ghz_state(d)), SeesawConfig())
    assert max(result.iterations_per_restart) <= 2
    assert result.stop_reasons == ["certified"] * SeesawConfig().restarts
    assert result.converged_count == 0
    assert abs(result.value - ghz_chsh_maximum(d)) <= 1e-9


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
    pairs = b.random_admissible(np.random.default_rng(0), 6).reshape(3, 2, b.size)
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
def test_lockstep_restarts_match_serial_oracle(
    d, mode, restarts, seed, kind, max_iterations, tolerance
):
    # each restart of the lockstep batch reproduces, bit for bit, the same
    # restart run alone by the one-vector-at-a-time reference loop, cut at the
    # sweep where the batch certifies (GHZ, maximally mixed with T = 0 and
    # upper = 0, and d = 2 draws); a tiny tolerance on product states makes
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
