import json
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import ginibre_state_oracle, property_state, state_to_json_dict
from qchsh import (
    TwoQuditState,
    correlation_matrix,
    ghz_state,
    load_state_file,
    random_two_qudit_state,
    validate_state,
)
from qchsh.errors import (
    DimensionMismatch,
    InvalidDimension,
    NotHermitian,
    NotPositive,
    TraceNotOne,
    ValidationError,
)


def test_ghz_qubit_is_bell_state():
    rho = ghz_state(2).rho
    expected = np.zeros((4, 4), dtype=complex)
    for r in (0, 3):
        for c in (0, 3):
            expected[r, c] = 0.5
    np.testing.assert_allclose(rho, expected, atol=0)


def test_ghz_qutrit_entries():
    rho = ghz_state(3).rho
    diag_idx = [0, 4, 8]
    for r in range(9):
        for c in range(9):
            expected = 1.0 / 3.0 if (r in diag_idx and c in diag_idx) else 0.0
            assert rho[r, c] == expected


def test_ghz_is_pure_projector():
    for d in range(2, 7):
        rho = ghz_state(d).rho
        assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)


def test_ghz_swap_invariance():
    for d in (2, 3, 4):
        rho = ghz_state(d).rho.reshape(d, d, d, d)
        swapped = rho.transpose(1, 0, 3, 2)
        assert np.max(np.abs(rho - swapped)) == 0.0


def test_ghz_invalid_dimension():
    with pytest.raises(InvalidDimension):
        ghz_state(1)


def test_random_state_deterministic():
    a = random_two_qudit_state(2, seed=1)
    b = random_two_qudit_state(2, seed=1)
    np.testing.assert_array_equal(a.rho, b.rho)
    c = random_two_qudit_state(2, seed=2)
    assert np.max(np.abs(a.rho - c.rho)) > 1e-3


def test_random_state_is_valid_density_matrix():
    state = random_two_qudit_state(3, seed=7)
    eigs = np.linalg.eigvalsh(state.rho)
    assert eigs[0] >= -1e-12
    assert np.sum(eigs) == pytest.approx(1.0, abs=1e-10)


def test_validate_accepts_maximally_mixed():
    for d in (2, 3):
        state = validate_state(np.eye(d * d, dtype=complex) / (d * d))
        assert state.dim == d


def test_validate_accepts_ghz_matrix():
    validate_state(ghz_state(3).rho)


def test_validate_rejects_non_positive():
    with pytest.raises(NotPositive, match="-1"):
        validate_state(np.diag([2.0, -1.0, 0.0, 0.0]).astype(complex))


def test_validate_rejects_bad_trace():
    with pytest.raises(TraceNotOne):
        validate_state(np.eye(4, dtype=complex))


def test_validate_rejects_non_hermitian():
    rho = np.eye(4, dtype=complex) / 4.0
    rho[0, 1] = 0.5j
    with pytest.raises(NotHermitian):
        validate_state(rho)


def test_validate_rejects_wrong_shape():
    # d is read from rho, so a side that is no d**2 for d >= 2 is the fault
    for side in (5, 8, 1, 0):
        with pytest.raises(DimensionMismatch, match=r"side d\*\*2 for"):
            validate_state(np.eye(side, dtype=complex) / max(side, 1))
    with pytest.raises(DimensionMismatch):
        validate_state(np.ones((4, 9), dtype=complex) / 4.0)


def test_state_reads_d_from_rho():
    assert TwoQuditState(np.eye(9) / 9).dim == 3
    assert ghz_state(5).dim == 5
    assert random_two_qudit_state(4, seed=0).dim == 4


@pytest.mark.parametrize("shape", [(9, 8), (8, 8), (1, 1), (0, 0), (9,), (3, 3, 3)])
def test_state_side_must_be_d_squared(shape):
    with pytest.raises(DimensionMismatch, match=r"side d\*\*2 for"):
        TwoQuditState(np.zeros(shape))


def test_state_stores_a_complex128_array():
    # a nested list becomes an array that correlation_matrix can read
    rho = [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    state = TwoQuditState(rho)
    assert type(state.rho) is np.ndarray and state.rho.dtype == np.complex128
    expected = correlation_matrix(validate_state(np.array(rho))).matrix
    np.testing.assert_array_equal(correlation_matrix(state).matrix, expected)
    # a complex128 array passes through as it is, the read-only ρ of a built state included
    built = random_two_qudit_state(3, seed=8).rho
    assert TwoQuditState(built).rho is built


@pytest.mark.parametrize(
    "entry", [np.nan, np.inf, -np.inf, complex(0.25, np.nan), complex(0.25, -np.inf), "0.25"]
)
def test_state_refuses_non_finite_or_non_numeric_entries(entry):
    rho = np.diag([entry, 0.25, 0.25, 0.25])
    with pytest.raises(NotHermitian, match="state entries"):
        TwoQuditState(rho)


def test_state_file_roundtrip(tmp_path):
    state = random_two_qudit_state(3, seed=5)
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state_to_json_dict(state)))
    loaded = load_state_file(str(path))
    assert loaded.dim == 3
    np.testing.assert_allclose(loaded.rho, state.rho, atol=1e-15)


@pytest.mark.parametrize("seed", [0, 1, 17, 2024])
@pytest.mark.parametrize("d", range(2, 9))
def test_random_state_matches_retired_draw(d, seed):
    got = random_two_qudit_state(d, seed).rho
    expected = ginibre_state_oracle(d, seed).rho
    np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))


def _traced_state_build(monkeypatch):
    """Traced memory of ``random_two_qudit_state(12, 5)`` above its start, in d**2 x d**2 matrices.

    Returns (the current memory when ``np.linalg.cholesky`` is called, the
    peak).  LAPACK's working copy is not traced by tracemalloc.
    """
    random_two_qudit_state(12, 4)  # first-call allocations are not counted
    matrix_bytes = 144 * 144 * 16
    at_cholesky = []
    cholesky = np.linalg.cholesky

    def traced_cholesky(a):
        at_cholesky.append(tracemalloc.get_traced_memory()[0])
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", traced_cholesky)
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        random_two_qudit_state(12, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(at_cholesky) == 1
    return (at_cholesky[0] - baseline) / matrix_bytes, (peak - baseline) / matrix_bytes


@pytest.mark.skipif(
    sys.version_info < (3, 11), reason="before CPython 3.11 the caller keeps its argument"
)
def test_random_state_frees_its_raw_matrix_before_the_factorization(monkeypatch):
    # only the symmetrized matrix is live: the raw one is not a second copy
    at_cholesky, _ = _traced_state_build(monkeypatch)
    assert at_cholesky < 1.5


def test_random_state_build_peaks_at_three_matrices(monkeypatch):
    # g, its conjugate copy and their product, then the raw matrix, its conjugate
    # transpose and their difference in the Hermiticity check, whose ufunc buffer
    # (8192 cells) adds about 0.4 matrices at d = 12
    _, peak = _traced_state_build(monkeypatch)
    assert peak <= 3.5


@pytest.mark.parametrize("kind", ["random", "ghz", "product", "mixed", "diagonal"])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_state_file_roundtrip_is_bit_exact(tmp_path, kind, d):
    # "diagonal" writes its zero coherences with -0.0 real parts
    state = property_state(kind, d, seed=11)
    path = tmp_path / "state.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_to_json_dict(state), fh)
    loaded = load_state_file(str(path))
    assert loaded.dim == d
    np.testing.assert_array_equal(loaded.rho.view(np.int64), state.rho.view(np.int64))


def test_state_file_dim_mismatch(tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state_to_json_dict(ghz_state(2))))
    with pytest.raises(DimensionMismatch):
        load_state_file(str(path), d=3)


@pytest.mark.parametrize("d", [2.0, "2", 1, True, np.float64(2.0)])
def test_state_file_requested_dim_is_checked_before_the_file(tmp_path, d):
    # the file holds a valid d = 2 state, so only the requested d can be refused
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state_to_json_dict(ghz_state(2))))
    with pytest.raises(InvalidDimension, match="integer >= 2"):
        load_state_file(str(path), d=d)
    with pytest.raises(InvalidDimension):
        load_state_file(str(tmp_path / "missing.json"), d=d)


def test_state_file_requested_numpy_int_dim_is_accepted(tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state_to_json_dict(ghz_state(2))))
    assert load_state_file(str(path), d=np.int64(2)).dim == 2


def test_state_file_malformed(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError):
        load_state_file(str(path))
    path.write_text(json.dumps({"d": 2}))
    with pytest.raises(ValidationError):
        load_state_file(str(path))
    path.write_text(json.dumps({"d": 2, "rho": [[1, 2], [3, 4]]}))
    with pytest.raises(ValidationError):
        load_state_file(str(path))


def _planted_state(d, min_eig, seed):
    """d**2 x d**2 matrix U diag(lam) U^dag of unit trace whose smallest eigenvalue is min_eig."""
    n = d * d
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    rest = rng.uniform(0.5, 1.5, n - 1)
    lam = np.concatenate(([min_eig], rest * (1.0 - min_eig) / rest.sum()))
    return (q * lam) @ q.conj().T


@pytest.mark.parametrize("min_eig", [-2e-10, -1.1e-10])
@pytest.mark.parametrize("d", range(2, 17))
def test_validate_rejects_planted_negative_eigenvalue(d, min_eig):
    with pytest.raises(NotPositive, match="minimum eigenvalue") as info:
        validate_state(_planted_state(d, min_eig, seed=d))
    reported = float(str(info.value).rsplit(" ", 1)[1])
    assert reported == pytest.approx(min_eig, abs=1e-12)


@pytest.mark.parametrize("min_eig", [-0.9e-10, 0.0])
@pytest.mark.parametrize("d", range(2, 17))
def test_validate_accepts_planted_spectrum_near_boundary(d, min_eig):
    rho = _planted_state(d, min_eig, seed=d)
    state = validate_state(rho)
    np.testing.assert_array_equal(state.rho, (rho + rho.conj().T) / 2)


@pytest.mark.parametrize("d", [2, 3, 8])
def test_validate_accepts_rank_one_ghz(d):
    rho = ghz_state(d).rho
    np.testing.assert_array_equal(validate_state(rho).rho, rho)
