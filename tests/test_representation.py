import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchsh import (
    GellMannBasis,
    SeesawConfig,
    TracelessObservable,
    build_gellmann_basis,
    chsh_bounds,
    correlation_matrix,
    expand_observable,
    ghz_chsh_maximum,
    ghz_correlation_matrix,
    ghz_optimal_settings,
    ghz_state,
    max_admissible_norm,
    random_two_qudit_state,
    seesaw_maximize,
)
from qchsh.representation import MEMBERSHIP_ATOL, _PAIR_SUMS, _shared_basis
from qchsh.errors import (
    DimensionMismatch,
    InvalidDimension,
    NotHermitian,
    NotTraceless,
)

from conftest import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    boundary,
    boundary_row,
    dense_gellmann_stack,
    dense_pair_leading,
    dense_to_matrix,
    dense_to_vector,
    is_admissible,
    random_hermitian,
    slice_sum_vectors,
    stencil_operands,
)

# Every entry point that takes a qudit dimension, as a function of d alone.
DIMENSION_SITES = {
    "GellMannBasis": GellMannBasis,
    "build_gellmann_basis": build_gellmann_basis,
    "max_admissible_norm": max_admissible_norm,
    "ghz_state": ghz_state,
    "random_two_qudit_state": lambda d: random_two_qudit_state(d, seed=0),
    "ghz_correlation_matrix": ghz_correlation_matrix,
    "ghz_chsh_maximum": ghz_chsh_maximum,
    "ghz_optimal_settings": ghz_optimal_settings,
}


def test_qubit_basis_is_pauli(basis):
    b = basis(2)
    np.testing.assert_allclose(b.stack[0], SIGMA_X, atol=0)
    np.testing.assert_allclose(b.stack[1], SIGMA_Y, atol=0)
    np.testing.assert_allclose(b.stack[2], SIGMA_Z, atol=0)


def test_qutrit_diagonal_operators(basis):
    b = basis(3)
    assert b.size == 8
    np.testing.assert_allclose(b.stack[6], np.diag([1.0, -1.0, 0.0]), atol=0)
    np.testing.assert_allclose(
        b.stack[7], np.diag([1.0, 1.0, -2.0]) / np.sqrt(3.0), atol=1e-15
    )


def test_block_order_and_counts(basis):
    for d in (2, 3, 4, 5):
        b = basis(d)
        npairs = d * (d - 1) // 2
        assert b.size == d * d - 1
        assert all(label.startswith("s_") for label in b.labels[:npairs])
        assert all(label.startswith("as_") for label in b.labels[npairs : 2 * npairs])
        assert all(label.startswith("diag_") for label in b.labels[2 * npairs :])
        # pair order is lexicographic: (1,2), (1,3), ..., (d-1,d)
        pairs = [(m, k) for m in range(1, d + 1) for k in range(m + 1, d + 1)]
        assert list(b.labels[:npairs]) == [f"s_{m}_{k}" for m, k in pairs]


def test_operators_hermitian_traceless_orthogonal(basis):
    for d in range(2, 11):
        b = basis(d)
        for op in b.stack:
            assert np.max(np.abs(op - op.conj().T)) == 0.0
            assert abs(np.trace(op)) < 1e-12
        gram = np.einsum("aij,bji->ab", b.stack, b.stack)
        assert np.max(np.abs(gram - 2.0 * np.eye(b.size))) < 1e-12


def test_invalid_dimension():
    # with the d = 2 basis looked up as an int and as a numpy int, no bad d
    # may find it: 2.0 == True == 2
    build_gellmann_basis(2)
    build_gellmann_basis(np.int64(2))
    for site, call in DIMENSION_SITES.items():
        for bad in (0, 1, 2.0, True, "3", np.int64(1)):
            with pytest.raises(InvalidDimension) as info:
                call(bad)
            assert str(info.value) == f"qudit dimension must be an integer >= 2, got {bad!r}", site
        call(np.int64(3))


def test_one_shared_basis_per_dimension():
    assert build_gellmann_basis(3) is build_gellmann_basis(np.int64(3))
    assert build_gellmann_basis(3) is not GellMannBasis(3)


def test_shared_basis_tables_are_read_only():
    b = build_gellmann_basis(4)
    for table in (*b._pairs, b._diagonal, b._matrix_index, b._vector_index, b.stack):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(min_value=2, max_value=5),
    batch=st.lists(st.integers(min_value=0, max_value=3), max_size=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_batched_maps_match_dense_oracle(d, batch, seed):
    b = build_gellmann_basis(d)
    rng = np.random.default_rng(seed)
    shape = tuple(batch)
    n = rng.standard_normal(shape + (b.size,))
    x = rng.standard_normal(shape + (d, d)) + 1j * rng.standard_normal(shape + (d, d))
    matrices = b.to_matrix(n)
    assert matrices.shape == shape + (d, d)
    np.testing.assert_allclose(matrices, dense_to_matrix(n, b.stack), rtol=0, atol=1e-12)
    vectors = b.to_vector(x)
    assert vectors.shape == shape + (b.size,)
    np.testing.assert_allclose(vectors, dense_to_vector(x, b.stack), rtol=0, atol=1e-12)
    # tr[L_i L_j] = 2 delta_ij
    np.testing.assert_allclose(b.to_vector(matrices), 2.0 * n, rtol=0, atol=1e-12)


def _signed_mix(rng, shape):
    """Finite floats of magnitude up to 1e150, with +-0.0 and subnormals mixed in."""
    values = rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.integers(-300, 151, shape)
    kind = rng.integers(0, 6, shape)
    values[kind == 0] = 0.0
    values[kind == 1] = -0.0
    values[kind == 2] = rng.uniform(-1.0, 1.0, int(np.sum(kind == 2))) * 1e-310
    return values


def _same_bits(got, expected):
    return (
        got.dtype == expected.dtype
        and got.shape == expected.shape
        and np.array_equal(got.view(np.uint64), expected.view(np.uint64))
    )


@settings(max_examples=200, deadline=None)
@given(
    d=st.integers(min_value=2, max_value=16),
    layout=st.sampled_from(["single", "rows", "pairs"]),
    rows=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_maps_equal_retired_einsums_bit_for_bit(d, layout, rows, seed):
    # The products of the diagonal coefficients stay finite at these sizes,
    # so the einsum's zero products add only signed zeros, as the maps assume.
    b = build_gellmann_basis(d)
    rng = np.random.default_rng(seed)
    lead = {"single": (), "rows": (rows,), "pairs": (rows, 2)}[layout]
    n = _signed_mix(rng, lead + (b.size,))
    x = _signed_mix(rng, lead + (d, d)) + 1j * _signed_mix(rng, lead + (d, d))
    assert _same_bits(b.to_matrix(n), dense_to_matrix(n, b.stack))
    assert _same_bits(b.to_vector(x), dense_to_vector(x, b.stack))
    y = _signed_mix(rng, (d, d) + lead) + 1j * _signed_mix(rng, (d, d) + lead)
    assert _same_bits(b.pair_leading(y), dense_pair_leading(y, b.stack))


@settings(max_examples=300, deadline=None)
@given(parts=stencil_operands(4))
def test_pair_sum_stencil_equals_add_and_subtract(parts):
    # two +-1 terms and two zero terms per output: the same double as the
    # two-term sum, overflow and exact cancellation included
    p = parts.swapaxes(0, 1)
    with np.errstate(over="ignore"):
        expected = np.stack((p[0] + p[1], p[2] - p[3]), axis=1)
        got = _PAIR_SUMS @ parts
    assert got.shape == expected.shape
    np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))


@settings(max_examples=300, deadline=None)
@given(
    d=st.integers(min_value=2, max_value=6),
    lead=st.sampled_from([(), (1,), (3,), (2, 2)]),
    data=st.data(),
)
def test_vectors_equal_retired_slice_sums_bit_for_bit(d, lead, data):
    # any finite entries, entries whose sums overflow included, and +-0.0
    # drawn often, so that whole pairs and diagonals of signed zeros occur
    b = build_gellmann_basis(d)
    count = 2 * int(np.prod(lead, dtype=int)) * d * d
    entries = st.one_of(
        st.sampled_from([0.0, -0.0]), st.floats(allow_nan=False, allow_infinity=False)
    )
    values = data.draw(st.lists(entries, min_size=count, max_size=count))
    x = np.array(values).view(np.complex128).reshape(lead + (d, d))
    with np.errstate(all="ignore"):
        assert _same_bits(b._vectors(x), slice_sum_vectors(x, b))


@pytest.mark.parametrize("d", range(2, 17))
def test_map_tables_reproduce_the_stack(d):
    b = build_gellmann_basis(d)
    # The stack writes -1j with a -0.0 real part, which ``basis`` prints; the
    # maps, like the einsum, add from +0 and give +0 there.
    assert _same_bits(b.to_matrix(np.eye(b.size)), b.stack + 0.0)
    pairings = b.to_vector(b.stack)
    assert _same_bits(pairings, dense_to_vector(b.stack, b.stack))
    np.testing.assert_allclose(pairings, 2.0 * np.eye(b.size), rtol=0, atol=1e-15)


@pytest.mark.parametrize("d", range(2, 25))
def test_basis_matches_retired_loop_construction(d):
    # a fresh basis: the shared one's stack may have been read already
    b = GellMannBasis(d)
    assert "stack" not in vars(b)
    stack, labels = dense_gellmann_stack(d)
    assert b.labels == labels
    np.testing.assert_array_equal(b.stack.view(np.int64), stack.view(np.int64))
    assert not b.stack.flags.writeable
    assert b.stack is b.stack


def test_computations_leave_the_stack_unbuilt():
    # start from an empty cache: an earlier test may have read the shared stack
    _shared_basis.cache_clear()
    state = random_two_qudit_state(3, seed=5)
    t = correlation_matrix(state)
    chsh_bounds(t)
    seesaw_maximize(t, SeesawConfig(restarts=2, max_iterations=20))
    assert "stack" not in vars(build_gellmann_basis(3))


def test_batched_maps_reject_wrong_shapes(basis):
    b = basis(3)
    with pytest.raises(DimensionMismatch):
        b.to_matrix(np.zeros((2, 3)))
    with pytest.raises(DimensionMismatch):
        b.to_matrix(1.0)
    with pytest.raises(DimensionMismatch):
        b.to_vector(np.zeros((2, 2)))


def test_random_admissible_lands_on_boundary(basis):
    for d in (2, 3, 5):
        b = basis(d)
        vectors = b.random_admissible(np.random.default_rng(d), 200)
        assert vectors.shape == (200, b.size)
        np.testing.assert_allclose(
            b.vector_operator_norm(vectors), np.sqrt(2.0 / d), rtol=0, atol=1e-12
        )


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(min_value=2, max_value=8),
    batch=st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=2),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_boundary_matches_row_oracle(d, batch, seed):
    # rows with exact zeros and scales far from 1, but never the zero row
    b = build_gellmann_basis(d)
    rng = np.random.default_rng(seed)
    shape = tuple(batch)
    n = rng.standard_normal(shape + (b.size,)) * (rng.random(shape + (b.size,)) < 0.6)
    n[..., int(rng.integers(b.size))] += 1.0
    n *= 10.0 ** rng.uniform(-3.0, 3.0, shape + (1,))
    out = boundary(n, b)
    assert out.shape == n.shape
    for row, got in zip(n.reshape(-1, b.size), out.reshape(-1, b.size)):
        np.testing.assert_array_equal(got, boundary_row(row, b))
    np.testing.assert_allclose(b.vector_operator_norm(out), np.sqrt(2.0 / d), rtol=0, atol=1e-12)


def test_expand_sigma_z():
    np.testing.assert_allclose(expand_observable(SIGMA_Z), [0.0, 0.0, 1.0], atol=1e-15)


def test_expand_qutrit_example():
    # tr[X L_7] = 1 and tr[X L_8] = sqrt(3) for X = diag(1, 0, -1), so the
    # scaled components are 1/sqrt(6) and 1/sqrt(2); the squared norm is 2/3.
    n = expand_observable(np.diag([1.0, 0.0, -1.0]).astype(complex))
    expected = np.zeros(8)
    expected[6] = 1.0 / np.sqrt(6.0)
    expected[7] = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(n, expected, atol=1e-14)
    assert np.dot(n, n) == pytest.approx(2.0 / 3.0, abs=1e-14)


def test_expand_zero():
    np.testing.assert_allclose(
        expand_observable(np.zeros((4, 4), dtype=complex)), np.zeros(15), atol=0
    )


def test_expand_rejects_traceful():
    with pytest.raises(NotTraceless):
        expand_observable(np.eye(2, dtype=complex))


def test_expand_rejects_one_by_one():
    # [[0]] is traceless and Hermitian, but no basis has d = 1
    with pytest.raises(InvalidDimension):
        expand_observable(np.zeros((1, 1)))


def test_traceless_observable_examples():
    obs = TracelessObservable(np.array([0.0, 0.0, 1.0]))
    np.testing.assert_allclose(obs.matrix, SIGMA_Z, atol=1e-15)
    assert obs.is_admissible()

    n = np.zeros(8)
    n[6] = 1.0 / np.sqrt(6.0)
    n[7] = 1.0 / np.sqrt(2.0)
    obs3 = TracelessObservable(n)
    np.testing.assert_allclose(obs3.matrix, np.diag([1.0, 0.0, -1.0]), atol=1e-14)

    doubled = TracelessObservable(np.array([0.0, 0.0, 2.0]))
    np.testing.assert_allclose(doubled.matrix, 2.0 * SIGMA_Z, atol=1e-15)
    assert not doubled.is_admissible()


def test_roundtrip_both_directions(basis, rng):
    for d in (2, 3, 4, 5, 6):
        b = basis(d)
        for _ in range(50):
            x = random_hermitian(rng, d, traceless=True)
            n = expand_observable(x)
            back = TracelessObservable(n).matrix
            assert np.max(np.abs(back - x)) < 1e-10
            # norm identity tr[X^2] = d ||n||^2
            assert abs(np.trace(x @ x).real - d * float(n @ n)) < 1e-10

            v = rng.standard_normal(b.size)
            obs = TracelessObservable(v)
            np.testing.assert_allclose(expand_observable(obs.matrix), v, atol=1e-10)


def test_boundary_examples(basis):
    np.testing.assert_allclose(
        boundary(np.array([0.0, 0.0, 5.0]), basis(2)), [0.0, 0.0, 1.0], atol=1e-15
    )
    e7 = np.zeros(8)
    e7[6] = 1.0
    np.testing.assert_allclose(
        boundary(e7, basis(3))[6], np.sqrt(2.0 / 3.0), atol=1e-14
    )
    e8 = np.zeros(8)
    e8[7] = 1.0
    np.testing.assert_allclose(
        boundary(e8, basis(3))[7], 1.0 / np.sqrt(2.0), atol=1e-14
    )


def test_non_finite_vector_rejected():
    for bad in (np.array([np.nan, 0.0, 1.0]), np.array([0.0, np.inf, 1.0])):
        with pytest.raises(NotHermitian):
            TracelessObservable(bad)
    # the shape is checked before the entries: two vectors, one of them not
    # finite, are refused as two vectors
    with pytest.raises(DimensionMismatch, match=r"got shape \(2, 3\)"):
        TracelessObservable(np.array([[np.nan, 0.0, 1.0], [0.0, 0.0, 1.0]]))


@pytest.mark.parametrize("shape", [(), (0,), (1,), (2,), (4,), (9,), (1, 3)])
def test_observable_length_must_be_d_squared_minus_one(shape):
    with pytest.raises(DimensionMismatch, match=r"length d\*\*2 - 1 for some d >= 2"):
        TracelessObservable(np.zeros(shape))


def test_observable_holds_one_read_only_vector(rng):
    assert [field.name for field in dataclasses.fields(TracelessObservable)] == ["coefficients"]
    for d in (2, 3, 5):
        source = rng.standard_normal(d * d - 1)
        obs = TracelessObservable(source)
        assert obs.dim == d
        assert np.array_equal(obs.coefficients, source)
        source[0] += 1.0  # a copy is kept
        assert not np.array_equal(obs.coefficients, source)
        assert "matrix" not in vars(obs)
        # the matrix is built on first read, once, by the formula of the maps
        expected = np.sqrt(d / 2.0) * build_gellmann_basis(d).to_matrix(obs.coefficients)
        assert obs.matrix is obs.matrix
        assert np.array_equal(obs.matrix.view(np.float64), expected.view(np.float64))
        for array in (obs.coefficients, obs.matrix):
            assert not array.flags.writeable
    # an int list becomes float64
    assert TracelessObservable([0, 0, 1]).coefficients.dtype == np.float64


def test_boundary_lands_on_boundary(basis, rng):
    for d in (2, 3, 4):
        b = basis(d)
        for _ in range(50):
            n = boundary(rng.standard_normal(b.size), b)
            assert b.vector_operator_norm(n) == pytest.approx(np.sqrt(2.0 / d), abs=1e-10)
            assert is_admissible(n, b)


def test_is_admissible_examples(basis, rng):
    assert is_admissible(np.array([0.0, 0.0, 1.0]), basis(2))
    e8 = np.zeros(8)
    e8[7] = 1.0
    assert not is_admissible(e8, basis(3))
    # every direction with Euclidean norm 1/sqrt(d-1) is admissible
    b3 = basis(3)
    for _ in range(200):
        n = rng.standard_normal(8)
        n *= (1.0 / np.sqrt(2.0)) / np.linalg.norm(n)
        assert is_admissible(n, b3)


# Observables on the admissible boundary, scaled just inside and outside the
# membership tolerance and well beyond rounding on either side of it.
_EDGE_SCALES = (1.0 - 5e-10, 1.0 - 5e-11, 1.0, 1.0 + 5e-11, 1.0 + 5e-10)


def _assert_membership_reads_the_spectrum(vectors):
    for n in vectors:
        for scale in _EDGE_SCALES:
            obs = TracelessObservable(scale * n)
            spectrum = np.max(np.abs(np.linalg.eigvalsh(obs.matrix)))
            assert obs.is_admissible() == (spectrum <= 1.0 + MEMBERSHIP_ATOL)
            # a zero vector is admissible at any scale
            assert obs.is_admissible() == (scale < 1.0 + 1e-10 or not n.any())


@settings(max_examples=60, deadline=None)
@given(d=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
def test_membership_at_the_tolerance_edge_matches_the_spectrum(d, seed):
    b = build_gellmann_basis(d)
    rows = np.random.default_rng(seed).standard_normal((3, b.size))
    _assert_membership_reads_the_spectrum(boundary(rows, b))


@pytest.mark.parametrize("d", range(2, 7))
def test_membership_of_ghz_and_seesaw_settings_at_the_tolerance_edge(d):
    ghz = ghz_optimal_settings(d)
    found = seesaw_maximize(
        correlation_matrix(random_two_qudit_state(d, seed=d)), SeesawConfig(restarts=2, seed=d)
    ).settings
    _assert_membership_reads_the_spectrum([obs.coefficients for obs in ghz.all + found.all])


def test_max_admissible_norm():
    assert max_admissible_norm(2) == 1.0
    assert max_admissible_norm(3) == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-15)
    assert max_admissible_norm(4) == 1.0
    with pytest.raises(InvalidDimension):
        max_admissible_norm(1)


def test_admissible_norm_ceiling(basis, rng):
    for d in (2, 3, 4, 5):
        b = basis(d)
        g = rng.standard_normal((2000, b.size))
        mats = np.einsum("nj,jkl->nkl", g, b.stack)
        eigs = np.linalg.eigvalsh(mats)
        norms0 = np.maximum(np.abs(eigs[:, 0]), np.abs(eigs[:, -1]))
        projected = np.sqrt(2.0 / d) * g / norms0[:, None]
        assert np.max(np.linalg.norm(projected, axis=1)) <= max_admissible_norm(d) + 1e-9


def test_lemma1_sandwich(basis, rng):
    for d in (2, 3, 4, 5, 6):
        b = basis(d)
        g = rng.standard_normal((2000, b.size))
        mats = np.einsum("nj,jkl->nkl", g, b.stack)
        eigs = np.linalg.eigvalsh(mats)
        ratio = np.maximum(np.abs(eigs[:, 0]), np.abs(eigs[:, -1])) / np.linalg.norm(g, axis=1)
        assert np.min(ratio) >= np.sqrt(2.0 / d) - 1e-10
        assert np.max(ratio) <= np.sqrt(2.0 * (d - 1) / d) + 1e-10
        if d == 2:
            assert np.max(np.abs(ratio - 1.0)) < 1e-12


def test_pure_state_coefficients_have_unit_norm(basis, rng):
    # The rescaled expectation vector of any unit vector state has norm 1.
    for d in (2, 3, 5):
        b = basis(d)
        scale = np.sqrt(d / (2.0 * (d - 1)))
        for _ in range(1000):
            psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            psi /= np.linalg.norm(psi)
            r = scale * np.real(np.einsum("k,jkl,l->j", psi.conj(), b.stack, psi))
            assert np.linalg.norm(r) == pytest.approx(1.0, abs=1e-10)

