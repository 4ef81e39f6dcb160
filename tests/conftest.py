import functools
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import strategies as st

from qchsh import (
    build_gellmann_basis,
    chsh_bounds,
    correlation_matrix,
    ghz_state,
    random_two_qudit_state,
    validate_state,
)
from qchsh import optimizer
from qchsh.errors import DimensionMismatch, NotHermitian, ValidationError
from qchsh.representation import (
    HERMITIAN_ATOL,
    MEMBERSHIP_ATOL,
    TracelessObservable,
    check_dim,
    expand_observable,
    symmetrized_traceless,
)
from qchsh.optimizer import (
    DEGENERATE_NORM_ATOL,
    LP_TIE_ATOL,
    UPPER_BOUND_ATOL,
    _deterministic_init,
    _linear_max,
    _pair_products,
)

@pytest.fixture
def basis():
    """Basis factory: basis(d) -> the library's shared GellMannBasis for d."""
    return build_gellmann_basis


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


def random_unitary(rng, d):
    """A Haar-random d x d unitary: the QR factor of a Ginibre draw, phases fixed."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def dense_gellmann_stack(d):
    """Reference for GellMannBasis.stack and .labels: the retired loop construction.

    Returns the (d**2-1, d, d) stack and the labels, in label order.
    """
    pairs = [(m, k) for m in range(d) for k in range(m + 1, d)]
    stack = np.zeros((d * d - 1, d, d), dtype=np.complex128)
    labels = []
    idx = 0
    for m, k in pairs:
        stack[idx, m, k] = 1.0
        stack[idx, k, m] = 1.0
        labels.append(f"s_{m + 1}_{k + 1}")
        idx += 1
    for m, k in pairs:
        stack[idx, m, k] = -1.0j
        stack[idx, k, m] = 1.0j
        labels.append(f"as_{m + 1}_{k + 1}")
        idx += 1
    for l in range(1, d):
        scale = np.sqrt(2.0 / (l * (l + 1)))
        for j in range(l):
            stack[idx, j, j] = scale
        stack[idx, l, l] = -l * scale
        labels.append(f"diag_{l}")
        idx += 1
    return stack, tuple(labels)


def dense_to_matrix(n, stack):
    """Reference for GellMannBasis._matrices: the retired dense einsum over the stack."""
    return np.einsum("...j,jkl->...kl", np.asarray(n, dtype=np.float64), stack)


def dense_to_vector(x, stack):
    """Reference for GellMannBasis._vectors: the retired dense einsum over the stack."""
    return np.real(np.einsum("...kl,jlk->...j", np.asarray(x), stack))


# Finite doubles with no -0.0: any magnitude, subnormals included, with the
# range 1e-300..1e300 and the extremes drawn on purpose.
FINITE_NO_NEGATIVE_ZERO = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=1e-300, max_value=1e300),
    st.floats(min_value=-1e300, max_value=-1e-300),
    st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
                     1.7976931348623157e308, -1.7976931348623157e308]),
).map(lambda x: x + 0.0)  # -0.0 + 0.0 is +0.0; every other value stays


@st.composite
def stencil_terms(draw):
    """A pair (u, v) of finite doubles with no -0.0, v often +-u (an exact
    cancellation in u - v or u + v) or u's neighbour, and both often near the
    largest double (an overflow)."""
    u = draw(FINITE_NO_NEGATIVE_ZERO)
    partner = st.sampled_from([u, -u + 0.0, math.nextafter(u, 0.0),
                               math.copysign(1.7976931348623157e308, u)])
    return u, draw(st.one_of(FINITE_NO_NEGATIVE_ZERO, partner))


@st.composite
def stencil_operands(draw, terms):
    """An array of shape (rows, terms, size) of ``stencil_terms`` pairs: axis 1
    holds them in turn (terms 0 and 1 one pair, 2 and 3 the next)."""
    rows, size = draw(st.integers(1, 3)), draw(st.integers(1, 8))
    count = rows * size * terms // 2
    pairs = draw(st.lists(stencil_terms(), min_size=count, max_size=count))
    # each (row, column) takes terms // 2 pairs in turn; the terms then move to axis 1
    return np.array(pairs).reshape(rows, size, terms).swapaxes(1, 2).copy()


def slice_sum_vectors(x, basis):
    """Reference for GellMannBasis._vectors: the retired form, each pair
    component a sum or difference of two strided slices of the gathered parts."""
    d, npairs = basis.dim, basis._npairs
    x = np.ascontiguousarray(x, dtype=np.complex128)
    lead = x.shape[:-2]
    parts = x.view(np.float64).reshape(lead + (2 * d * d,)).take(basis._vector_index, axis=-1)
    terms = parts[..., None, 4 * npairs :] * basis._diagonal
    np.add.accumulate(terms, axis=-1, out=terms)
    out = np.concatenate(
        (
            parts[..., :npairs] + parts[..., npairs : 2 * npairs],
            parts[..., 2 * npairs : 3 * npairs] - parts[..., 3 * npairs : 4 * npairs],
            terms[..., -1],
        ),
        axis=-1,
    )
    out += 0.0
    return out


def dense_pair_leading(x, stack):
    """Reference for GellMannBasis._pair_leading: the dense einsum over the stack."""
    return np.einsum("ij...,aji->a...", np.asarray(x), stack)


def is_admissible(components, basis):
    """Whether ``||n . L||_op <= sqrt(2/d) + MEMBERSHIP_ATOL`` for one vector n."""
    n = np.asarray(components, dtype=np.float64)
    return bool(basis._operator_norms(n) <= np.sqrt(2.0 / basis.dim) + MEMBERSHIP_ATOL)


def boundary(components, basis):
    """``GellMannBasis._boundary`` of finite, nonzero rows given in any float form."""
    return basis._boundary(np.asarray(components, dtype=np.float64))


def boundary_row(n, basis):
    """Reference for GellMannBasis._boundary: one nonzero row rescaled on its own."""
    return np.sqrt(2.0 / basis.dim) * n / basis._operator_norms(n)


def random_admissible(rng, count, basis):
    """count Gaussian rows rescaled onto the admissible boundary, as the see-saw draws them."""
    return basis._boundary(rng.standard_normal((count, basis.size)))


def dense_correlation(state):
    """Reference for correlation_matrix: the dense einsums over the basis stack.

    Returns the complex entries tr[rho (L_a x L_b)], imaginary parts included.
    """
    d = state.dim
    stack = build_gellmann_basis(d).stack
    r4 = state.rho.reshape(d, d, d, d)
    partial = np.einsum("ikjl,aji->akl", r4, stack)
    return np.einsum("akl,blk->ab", partial, stack)


def random_search_max(state, samples, seed):
    """Feasible-point oracle: best |CHSH| over random admissible 4-tuples.

    Never exceeds the true maximum; deterministic per seed.
    """
    basis = build_gellmann_basis(state.dim)
    t = correlation_matrix(state).matrix
    rng = np.random.default_rng(seed)
    best = 0.0
    remaining = samples
    while remaining > 0:
        count = min(4096, remaining)
        remaining -= count
        vecs = random_admissible(rng, 4 * count, basis).reshape(count, 4, basis.size)
        dots = np.vecdot(vecs[:, :2], _pair_products(t, vecs[:, 2:]))
        values = 0.5 * basis.dim * (dots[:, 0] + dots[:, 1])
        best = max(best, float(np.max(np.abs(values))))
    return best


def state_to_json_dict(state):
    """A state as a dict in the state file format."""
    return {
        "d": state.dim,
        "rho": [[[float(z.real), float(z.imag)] for z in row] for row in state.rho],
    }


def property_state(kind, d, seed):
    """A two-qudit state of the given kind for property tests.

    "diagonal" has some exactly zero populations and writes its zero
    coherences as -0.0, as a state file may.
    """
    if kind == "random":
        return random_two_qudit_state(d, seed)
    if kind == "ghz":
        return ghz_state(d)
    rng = np.random.default_rng(seed)
    if kind == "product":
        # T has rank one, so closed-form updates keep meeting vanishing directions
        g = rng.standard_normal((2, d, d)) + 1j * rng.standard_normal((2, d, d))
        rho = g @ np.conj(g).swapaxes(1, 2)
        return validate_state(np.kron(rho[0] / np.trace(rho[0]), rho[1] / np.trace(rho[1])))
    if kind == "diagonal":
        p = rng.random(d * d) * (rng.random(d * d) < 0.7)
        p[rng.integers(d * d)] += 1.0
        rho = np.full((d * d, d * d), -0.0, dtype=complex)
        rho[np.diag_indices(d * d)] = p / p.sum()
        return validate_state(rho)
    return validate_state(np.eye(d * d, dtype=complex) / (d * d))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.15g}")
    return obj


def stdlib_json_text(obj):
    """Reference for the CLI's JSON writer: the stdlib encoder on converted values.

    Floats are rounded to 15 significant digits, numpy scalars and arrays
    become Python scalars and lists.  A 0-d array is not accepted (its
    ``tolist()`` is a scalar, which ``_jsonable`` then tries to iterate).
    """
    return json.dumps(_jsonable(obj), indent=2)


def plain_mask(values: np.ndarray) -> np.ndarray:
    """Mask of the float64 values whose JSON text is their ``%.15g`` text.

    For a normal double whose 15-digit rounding is not an integer (which
    every rounding of 1e14 and above is), the ``%.15g`` text already is the
    shortest repr of the rounded value.  The mask leaves out a superset of
    the other values: zeros, subnormals, non-finite values and values within
    1e-14 (relative) of an integer, twice the most that 15-digit rounding
    moves a value.
    """
    magnitude = np.abs(values)
    with np.errstate(invalid="ignore"):
        return (magnitude >= 1e-307) & (np.abs(values - np.rint(values)) > 1e-14 * magnitude)


# A printed optimize report's own numbers agree within this: each matrix with
# its conjugate transpose and its expansion, its trace with 0, its largest
# |eigenvalue| with 1 at most, and the dense tr[rho B] with its value.  The
# replayed reports reach 2.7e-15 (the eigenvalue, at d = 12).
REPORT_ATOL = 1e-14
# The see-saw's value may fall short of the spectral lower bound by this much.
LOWER_BOUND_SLACK = 1e-9


def check_optimize_report(text: str, rho) -> None:
    """Check a printed ``optimize`` report against the state rho, from its printed numbers only.

    Each setting's printed matrix is Hermitian and traceless, its spectrum
    lies in [-1, 1], and its printed coefficients expand to it through the
    dense Gell-Mann stack; the dense tr[rho B] of the printed matrices,
    B = A1 x (B1 + B2) + A2 x (B1 - B2), is the printed value, and the value
    lies between the printed bounds.  All within ``REPORT_ATOL``, the bounds
    within ``LOWER_BOUND_SLACK`` and ``UPPER_BOUND_ATOL``.  An
    AssertionError names the first check that fails.
    """
    report = json.loads(text)
    d = report["d"]
    stack, _ = dense_gellmann_stack(d)
    matrices = []
    for name in ("A1", "A2", "B1", "B2"):
        pairs = np.array(report["settings"][name], dtype=np.float64)
        m = (pairs[:, 0] + 1j * pairs[:, 1]).reshape(d, d)
        assert np.max(np.abs(m - m.conj().T)) <= REPORT_ATOL, f"{name} is not Hermitian"
        assert abs(np.trace(m)) <= REPORT_ATOL, f"{name} has trace {np.trace(m)}"
        spectrum = np.max(np.abs(np.linalg.eigvalsh(m)))
        assert spectrum <= 1.0 + REPORT_ATOL, f"{name} has |eigenvalue| {spectrum!r}"
        coefficients = np.array(report[name.lower()], dtype=np.float64)
        expanded = math.sqrt(d / 2.0) * np.einsum("j,jkl->kl", coefficients, stack)
        residual = np.max(np.abs(expanded - m))
        assert residual <= REPORT_ATOL, f"{name.lower()} misses {name} by {residual:.3e}"
        matrices.append(m)
    a1, a2, b1, b2 = matrices
    bell = np.kron(a1, b1 + b2) + np.kron(a2, b1 - b2)
    direct = np.einsum("rc,cr->", np.asarray(rho), bell).real
    value = report["value"]
    assert abs(direct - value) <= REPORT_ATOL, f"tr[rho B] = {direct!r} but value = {value!r}"
    assert report["lower_bound"] - LOWER_BOUND_SLACK <= value, "value below the lower bound"
    assert value <= report["upper_bound"] + UPPER_BOUND_ATOL, "value above the upper bound"


def correlation_csv_oracle(labels, matrix):
    """Reference for cli._correlation_csv: the retired per-row, per-cell ``f"{v:.15g}"``."""
    lines = ["," + ",".join(labels)]
    for label, row in zip(labels, matrix):
        lines.append(label + "," + ",".join(f"{v:.15g}" for v in row))
    return "\n".join(lines) + "\n"


def symmetrized_hermitian_oracle(matrix, name="matrix"):
    """Reference for representation.symmetrized_hermitian: the retired form,
    entries scanned for finiteness first and M^dag formed twice."""
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(np.float64))):
        raise NotHermitian(f"{name} contains non-finite entries")
    residual = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
    if residual > HERMITIAN_ATOL:
        raise NotHermitian(
            f"{name} is not Hermitian: max |M - M^dag| = {residual:.3e} "
            f"exceeds {HERMITIAN_ATOL:.0e}"
        )
    return 0.5 * (m + m.conj().T)


def ginibre_state_oracle(d, seed):
    """Reference for random_two_qudit_state: the retired ``a + 1j * b`` draw."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return validate_state(rho)


def load_state_file_oracle(path, d=None):
    """Reference for states.load_state_file: the retired ``np.asarray`` parse of "rho".

    It lets an int beyond the float range escape as OverflowError; the
    program reports that as malformed input.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read state file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"state file {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "d" not in payload or "rho" not in payload:
        raise ValidationError(f'state file {path} must contain keys "d" and "rho"')
    file_d = check_dim(payload["d"])
    if d is not None and d != file_d:
        raise DimensionMismatch(f"requested d={d} but state file declares d={file_d}")
    try:
        raw = np.asarray(payload["rho"], dtype=np.float64)
    except (ValueError, TypeError) as exc:
        raise ValidationError(f'state file {path} has malformed "rho": {exc}') from exc
    if raw.ndim != 3 or raw.shape[2] != 2:
        raise ValidationError(
            f'state file {path}: "rho" must be a matrix of [re, im] pairs, '
            f"got array shape {raw.shape}"
        )
    rho = raw.view(np.complex128)[..., 0]
    if rho.shape != (file_d * file_d,) * 2:
        raise DimensionMismatch(f"state for d={file_d} must be square, got shape {rho.shape}")
    return validate_state(rho)


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


def lp_spectrum_oracle(lam_descending):
    """Reference for optimizer._lp_spectrum: the retired form, every row through the share formula."""
    lam = lam_descending
    d = lam.shape[-1]
    if d % 2 == 1:
        t_star = lam[..., (d - 1) // 2]
    else:
        t_star = 0.5 * (lam[..., d // 2 - 1] + lam[..., d // 2])
    deviation = lam - t_star[..., None]
    ties = np.abs(deviation) < LP_TIE_ATOL
    mu = np.where(deviation > 0, 1.0, -1.0)
    mu[ties] = 0.0
    share = -mu.sum(axis=-1, keepdims=True) / np.maximum(ties.sum(axis=-1, keepdims=True), 1)
    return np.where(ties, share, mu)


def traceless_linear_max(target):
    """Maximize tr[X C] over admissible traceless X for Hermitian traceless C.

    Returns the maximizer, as a TracelessObservable sharing C's eigenbasis
    with spectrum in [-1, 1] and zero sum, and the attained value.  The
    see-saw's linear-max core, ``optimizer._linear_max``, on one checked matrix.
    """
    c = symmetrized_traceless(target, "target")
    x, lam, mu = _linear_max(c)
    return TracelessObservable(expand_observable(x)), float(np.vecdot(lam, mu))


def serial_linear_max(c):
    """Reference for optimizer._linear_max: the LP core on one matrix."""
    values, vectors = np.linalg.eigh(c)
    lam = values[::-1]
    d = lam.size
    t_star = lam[(d - 1) // 2] if d % 2 == 1 else 0.5 * (lam[d // 2 - 1] + lam[d // 2])
    deviation = lam - t_star
    ties = np.abs(deviation) < LP_TIE_ATOL
    mu = np.where(deviation > 0, 1.0, -1.0)
    mu[ties] = 0.0
    if ties.any():
        mu[ties] = -float(np.sum(mu)) / int(ties.sum())
    vectors = vectors[:, ::-1]
    return (vectors * mu) @ vectors.conj().T


def serial_update(w, basis, mode):
    """Reference for optimizer._party_update on one direction w.

    A direction of norm at most ``DEGENERATE_NORM_ATOL`` gives the zero
    vector in either mode, by a test on the norm itself; exact mode has no
    such test and leaves it to the LP's tie rule.  Other directions go
    through ``serial_linear_max`` and ``slice_sum_vectors`` (exact) or the
    boundary rescale (closed-form).
    """
    if float(np.linalg.norm(w)) <= DEGENERATE_NORM_ATOL:
        return np.zeros(basis.size)
    if mode == "closed-form":
        return boundary(w, basis)
    x = serial_linear_max(basis._matrices(w))
    return slice_sum_vectors(x, basis) / math.sqrt(2.0 * basis.dim)


def serial_restarts(correlations, config):
    """Reference for optimizer._run_restarts: each restart alone, one vector at a time.

    Its arithmetic is the retired one: ``u +- v`` by plain add and subtract,
    and each update by ``serial_update``, the vanishing test on the norm
    itself in both modes.
    Each restart runs to its own stop and records every sweep.  The batch's
    certification sweep is the first at which a restart still running has
    ``|value| >= upper - tolerance``; each restart is then cut at the
    earlier of its own stop and that sweep, with its vectors as of that
    sweep.  When restart 0 takes the GHZ block start and its first sweep
    certifies, no other restart is drawn: each has 0 sweeps, zero vectors
    and stop reason certified.  A vanishing direction gives the zero vector
    in either mode.  Returns one (iterations, stop reason, [a1, a2, b1, b2])
    per restart.
    """
    basis = build_gellmann_basis(correlations.dim)
    t = correlations.matrix
    half = 0.5 * basis.dim

    update = functools.partial(serial_update, basis=basis, mode=config.mode)

    def run(b1, b2):
        """One (value, converged, vectors) per sweep, to the own stop."""
        previous = None
        sweeps = []
        for _ in range(config.max_iterations):
            a1 = update(t @ (b1 + b2))
            a2 = update(t @ (b1 - b2))
            b1 = update(t.T @ (a1 + a2))
            b2 = update(t.T @ (a1 - a2))
            value = half * float(a1 @ (t @ (b1 + b2)) + a2 @ (t @ (b1 - b2)))
            converged = previous is not None and abs(value - previous) < config.tolerance
            previous = value
            sweeps.append((value, converged, np.array([a1, a2, b1, b2])))
            if converged:
                break
        return sweeps

    start, on_blocks = _deterministic_init(basis, correlations)
    first = run(*start)
    upper = chsh_bounds(correlations).upper
    if on_blocks and abs(first[0][0]) >= upper - config.tolerance:
        unrun = (0, "certified", np.zeros((4, basis.size)))
        return [(1, "certified", first[0][2])] + [unrun] * (config.restarts - 1)
    histories = [first] + [
        run(*random_admissible(np.random.default_rng([config.seed, i]), 2, basis))
        for i in range(1, config.restarts)
    ]
    certified = [
        k for k in range(1, config.max_iterations + 1)
        if any(len(h) >= k and abs(h[k - 1][0]) >= upper - config.tolerance for h in histories)
    ]
    cut = certified[0] if certified else config.max_iterations
    results = []
    for sweeps in histories:
        iterations = min(len(sweeps), cut)
        _, converged, vectors = sweeps[iterations - 1]
        if converged:
            reason = "converged"
        elif certified and iterations == cut:
            reason = "certified"
        else:
            reason = "max_iterations"
        results.append((iterations, reason, vectors))
    return results


def werner_state(d, p):
    """The Werner state p rho_anti + (1 - p) rho_sym, a checked state.

    rho_anti = (I - SWAP)/(d(d-1)) and rho_sym = (I + SWAP)/(d(d+1)) are the
    normalized projectors onto the antisymmetric and symmetric subspaces, so
    the state commutes with every U x U and has <SWAP> = 1 - 2p.
    """
    # SWAP |i j> = |j i>: the identity with its two row indices exchanged
    swap = np.eye(d * d).reshape(d, d, d * d).swapaxes(0, 1).reshape(d * d, d * d)
    identity = np.eye(d * d)
    rho = p * (identity - swap) / (d * (d - 1)) + (1.0 - p) * (identity + swap) / (d * (d + 1))
    return validate_state(rho.astype(complex))


def halve_bob_in_sweep(monkeypatch, sweep):
    """Patch the see-saw so that Bob's update in the given sweep returns half its vectors.

    The value is linear in Bob's vectors, so that sweep's value falls to half
    of the value after Alice's update.
    """
    update = optimizer._party_update
    calls = itertools.count(1)

    def halved(directions, basis, mode):
        out = update(directions, basis, mode)
        return 0.5 * out if next(calls) == 2 * sweep else out

    monkeypatch.setattr(optimizer, "_party_update", halved)


def patch_ghz_blocks(monkeypatch, blocks):
    """Patch ``optimizer._ghz_blocks`` behind a fresh, empty settings cache.

    The shared per-d settings cache is swapped for an empty one first, so the
    patched blocks are the ones expanded, and the patch's undo drops every
    setting built from them.
    """
    fresh = functools.cache(optimizer._ghz_settings.__wrapped__)
    monkeypatch.setattr(optimizer, "_ghz_settings", fresh)
    monkeypatch.setattr(optimizer, "_ghz_blocks", blocks)
