import dataclasses
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import qchsh.cli
import qchsh.optimizer
import qchsh.verify
from conftest import (
    correlation_csv_oracle,
    halve_update_in_sweep,
    load_state_file_oracle,
    patch_ghz_blocks,
    plain_mask,
    state_to_json_dict,
    stdlib_json_text,
)
from qchsh import (
    BoundsReport,
    build_gellmann_basis,
    chsh_bounds,
    correlation_matrix,
    ghz_state,
    load_state_file,
    random_two_qudit_state,
)
from qchsh.cli import _correlation_csv, _fill_g15, _json_text, main
from qchsh.errors import InvalidConfig, ValidationError
from qchsh.representation import GellMannBasis

ROOT2 = np.sqrt(2.0)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_bounds_ghz_qutrit(capsys):
    payload = run_json(capsys, "bounds", "--state", "ghz", "--dim", "3")
    assert payload["d"] == 3
    assert payload["lower"] == pytest.approx(1.414214, abs=1e-6)
    assert payload["upper"] == pytest.approx(1.885618, abs=1e-6)
    assert payload["upper_improves_tsirelson"] is True


def test_bounds_ghz_qubit_coincide(capsys):
    payload = run_json(capsys, "bounds", "--state", "ghz", "--dim", "2")
    assert payload["lower"] == pytest.approx(2.828427, abs=1e-6)
    assert payload["lower"] == payload["upper"]
    assert payload["upper_improves_tsirelson"] is False


def test_bounds_rejects_non_positive_file(capsys, tmp_path):
    bad = np.diag([2.0, -1.0, 0.0, 0.0]).astype(complex)
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps({"d": 2, "rho": [[[z.real, z.imag] for z in row] for row in bad]})
    )
    code, _, err = run_cli(capsys, "bounds", "--state", f"file:{path}")
    assert code == 1
    assert "NotPositive" in err


def test_bounds_from_state_file_infers_dimension(capsys, tmp_path):
    path = tmp_path / "ghz3.json"
    path.write_text(json.dumps(state_to_json_dict(ghz_state(3))))
    payload = run_json(capsys, "bounds", "--state", f"file:{path}")
    assert payload["d"] == 3


def test_bounds_malformed_file(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("not json at all")
    code, _, err = run_cli(capsys, "bounds", "--state", f"file:{path}")
    assert code == 1


def test_bounds_requires_dim_for_ghz(capsys):
    code, _, err = run_cli(capsys, "bounds", "--state", "ghz")
    assert code == 1
    assert "--dim" in err


def test_bounds_unknown_state_source(capsys):
    code, _, _ = run_cli(capsys, "bounds", "--state", "warp:3", "--dim", "2")
    assert code == 1


def test_optimize_ghz_even_dimension(capsys):
    payload = run_json(
        capsys, "optimize", "--state", "ghz", "--dim", "4",
        "--mode", "exact", "--restarts", "8", "--seed", "1",
    )
    assert payload["value"] == pytest.approx(2.828427, abs=1e-6)
    assert payload["mode"] == "exact"
    assert payload["restarts"] == 8
    assert len(payload["a1"]) == 15
    assert len(payload["settings"]["B2"]) == 16
    assert payload["value"] <= payload["upper_bound"] + 1e-8


def test_optimize_random_state_within_bounds(capsys):
    payload = run_json(
        capsys, "optimize", "--state", "random:7", "--dim", "3", "--restarts", "4",
    )
    assert payload["value"] <= payload["upper_bound"] + 1e-8
    assert payload["value"] <= 2.0 * ROOT2 + 1e-9
    # gap is measured from the 2*sqrt(2) ceiling to the per-state upper bound
    assert payload["tsirelson_gap"] == pytest.approx(
        2.0 * ROOT2 - payload["upper_bound"], abs=1e-9
    )


def test_optimize_above_the_upper_bound_exits_two(capsys, monkeypatch):
    # the upper bound is a theorem, so a value above it is a numerical fault
    class HalvedUpper(BoundsReport):
        @property
        def upper(self):
            return 0.5 * super().upper

    def too_small(correlations):
        return HalvedUpper(*dataclasses.astuple(chsh_bounds(correlations)))

    monkeypatch.setattr(qchsh.optimizer, "chsh_bounds", too_small)
    code, out, err = run_cli(capsys, "optimize", "--state", "random:7", "--dim", "3",
                             "--restarts", "2")
    assert code == 2
    assert out == ""
    assert "NumericalError" in err and "exceeds the proven upper bound" in err


def test_optimize_with_a_falling_exact_sweep_exits_two(capsys, monkeypatch):
    # exact party updates cannot lower the value, so a fall is a numerical fault
    halve_update_in_sweep(monkeypatch, "bob", 2)
    code, out, err = run_cli(capsys, "optimize", "--state", "random:7", "--dim", "3",
                             "--restarts", "2")
    assert code == 2
    assert out == ""
    assert "NumericalError" in err and "restart 0 is not monotone" in err


def test_optimize_rejects_zero_restarts(capsys):
    code, _, err = run_cli(capsys, "optimize", "--state", "ghz", "--dim", "3", "--restarts", "0")
    assert code == 1
    assert "InvalidConfig" in err


def test_optimize_byte_identical_reruns(capsys):
    argv = ("optimize", "--state", "random:3", "--dim", "2", "--restarts", "3", "--seed", "5")
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_ghz_table(capsys):
    payload = run_json(capsys, "ghz-table", "--dims", "2:6", "--restarts", "4")
    rows = payload["rows"]
    closed = [row["closed_form"] for row in rows]
    assert closed == pytest.approx(
        [2.828427, 1.885618, 2.828427, 2.262742, 2.828427], abs=1e-6
    )
    for row in rows:
        assert row["certificate"] == pytest.approx(row["closed_form"], abs=1e-12)
        assert row["seesaw"] == pytest.approx(row["closed_form"], abs=1e-6)
        # only odd dimensions improve the ceiling; one-ulp noise at even d
        # must not flip the flag
        assert row["upper_improves_tsirelson"] == (row["d"] % 2 == 1)


def test_ghz_table_builds_ghz_references_once_per_dimension(capsys, monkeypatch):
    calls = {"ghz_state": 0, "ghz_optimal_settings": 0}
    for name in calls:
        original = getattr(qchsh.cli, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(qchsh.cli, name, counted)
    code, _, _ = run_cli(capsys, "ghz-table", "--dims", "2:8")
    assert code == 0
    assert calls == {"ghz_state": 7, "ghz_optimal_settings": 7}


def test_ghz_table_rows_do_not_depend_on_restarts_or_seed(capsys):
    # every row certifies on restart 0's first sweep, before a restart is drawn
    code, reference, _ = run_cli(capsys, "ghz-table", "--dims", "2:8")
    assert code == 0
    for flags in (("--restarts", "1"), ("--restarts", "2"), ("--restarts", "32"),
                  ("--seed", "0"), ("--seed", "7")):
        code, out, _ = run_cli(capsys, "ghz-table", "--dims", "2:8", *flags)
        assert code == 0
        assert out == reference, flags


def test_ghz_table_with_a_perturbed_block_strategy_exits_two(capsys, monkeypatch):
    # a certificate off its closed form is a numerical fault, named by d
    blocks = qchsh.optimizer._ghz_blocks

    def perturbed(d):
        a1, a2, b1, b2 = blocks(d)
        return a1, a2, b1, 0.99 * b2

    patch_ghz_blocks(monkeypatch, perturbed)
    code, out, err = run_cli(capsys, "ghz-table", "--dims", "2:4")
    assert code == 2
    assert out == ""
    assert "NumericalError" in err
    assert "d=2: the block strategy's value misses the closed form by" in err


def test_ghz_table_csv(capsys):
    code, out, _ = run_cli(capsys, "ghz-table", "--dims", "2:3", "--restarts", "2", "--output", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("d,closed_form,certificate,seesaw")
    assert len(lines) == 3
    assert lines[2].endswith("true")  # odd d improves on the ceiling


GHZ_TABLE_CSV = (
    "d,closed_form,certificate,seesaw,upper_bound,tsirelson_gap,upper_improves_tsirelson\n"
    "2,2.82842712474619,2.82842712474619,2.82842712474619,2.82842712474619,0,false\n"
    "3,1.88561808316413,1.88561808316413,1.88561808316413,1.88561808316413,"
    "0.942809041582064,true\n"
)


@pytest.mark.parametrize("mode", ["exact", "closed-form"])
def test_ghz_table_csv_bytes(capsys, mode):
    # the flag column holds np.bool_ values and must print as true/false
    code, out, _ = run_cli(
        capsys, "ghz-table", "--dims", "2:3", "--restarts", "2", "--output", "csv", "--mode", mode
    )
    assert code == 0
    assert out == GHZ_TABLE_CSV


@pytest.mark.parametrize("mode", ["exact", "closed-form"])
def test_ghz_table_csv_agrees_with_json_cell_for_cell(capsys, mode):
    # GHZ_TABLE_CSV pins d = 2..3 only; this covers every row of the default range
    argv = ("ghz-table", "--dims", "2:8", "--restarts", "2", "--mode", mode)
    rows = run_json(capsys, *argv)["rows"]
    code, out, _ = run_cli(capsys, *argv, "--output", "csv")
    assert code == 0
    header, *lines = out.splitlines()
    assert header.split(",") == list(rows[0])
    assert len(lines) == len(rows) == 7
    for line, row in zip(lines, rows):
        d, *floats, flag = line.split(",")
        assert int(d) == row["d"]
        assert floats == ["%.15g" % v for v in list(row.values())[1:-1]]
        assert flag == ("true" if row["upper_improves_tsirelson"] else "false")
    assert out.endswith("\n")


def test_ghz_table_bad_range(capsys):
    code, _, _ = run_cli(capsys, "ghz-table", "--dims", "5")
    assert code == 1
    code, _, _ = run_cli(capsys, "ghz-table", "--dims", "4:2")
    assert code == 1


def test_basis_export(capsys):
    payload = run_json(capsys, "basis", "--dim", "2")
    assert payload["d"] == 2
    assert len(payload["operators"]) == 3
    # sigma_x, flattened row-major into [re, im] pairs
    assert payload["operators"][0] == [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]
    assert payload["operators"][1][1] == [0.0, -1.0]


@pytest.mark.parametrize("spec", ["1:3", "4:2"])
@pytest.mark.parametrize("command", ["ghz-table", "verify"])
def test_dims_range_out_of_policy_exits_one(capsys, command, spec):
    code, out, err = run_cli(capsys, command, "--dims", spec)
    assert code == 1
    assert out == ""
    assert err.startswith("error: InvalidDimension")
    assert "Traceback" not in err


def test_basis_out_file(capsys, tmp_path):
    out = tmp_path / "basis.json"
    code, _, _ = run_cli(capsys, "basis", "--dim", "3", "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["operators"]) == 8


def test_correlation_json(capsys):
    payload = run_json(capsys, "correlation", "--state", "ghz", "--dim", "2")
    assert payload["T"] == [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]]


def test_correlation_csv_headers(capsys):
    code, out, _ = run_cli(
        capsys, "correlation", "--state", "ghz", "--dim", "2", "--output", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",s_1_2,as_1_2,diag_1"
    assert lines[1] == "s_1_2,1,0,0"
    assert lines[2] == "as_1_2,0,-1,0"


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--dims", "2:3", "--trials", "300")
    assert code == 0
    for name in ("orthogonality", "lemma1", "roundtrip", "correlation-bound",
                 "ghz-closed-form", "bound-ordering"):
        assert f"{name}: PASS" in out


def test_verify_single_suite(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "lemma1", "--dims", "2:4", "--trials", "2000"
    )
    assert code == 0
    assert out.count("PASS") == 1


def test_verify_unknown_suite(capsys):
    code, _, _ = run_cli(capsys, "verify", "--suite", "nonsense")
    assert code == 1


def test_verify_empty_suite_name_is_unknown(capsys):
    # an empty name is a name, not the absence of --suite
    code, out, err = run_cli(capsys, "verify", "--suite", "", "--dims", "2:2", "--trials", "10")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ValidationError: unknown suite ''; available: ")


def test_verify_detects_corrupted_basis(capsys, monkeypatch):
    def corrupted(d):
        fake = GellMannBasis(d)
        stack = fake.stack.copy()
        stack[0] *= 1.01
        stack.setflags(write=False)
        fake.stack = stack
        return fake

    monkeypatch.setattr(qchsh.verify, "build_gellmann_basis", corrupted)
    code, out, err = run_cli(capsys, "verify", "--dims", "2:3", "--trials", "100")
    assert code == 2
    assert "orthogonality: FAIL" in out
    assert "first failing suite: orthogonality" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--trials", "0"),
        ("verify", "--trials", "-5"),
        ("verify", "--seed", "-1"),
        ("bounds", "--state", "random:-1", "--dim", "2"),
        ("optimize", "--state", "ghz", "--dim", "2", "--tol", "inf"),
    ],
)
def test_invalid_counts_and_seeds_exit_one(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "call, kwargs",
    [
        (qchsh.verify.run_suites, {"trials": 2.5}),
        (qchsh.verify.run_suites, {"trials": True}),
        (qchsh.verify.run_suites, {"trials": 0}),
        (qchsh.verify.run_suites, {"seed": 1.5}),
        (qchsh.verify.run_suites, {"seed": -1}),
        (random_two_qudit_state, {"seed": True}),
        (random_two_qudit_state, {"seed": 1.5}),
        (random_two_qudit_state, {"seed": -1}),
    ],
    ids=lambda v: getattr(v, "__name__", None) or repr(v),
)
def test_invalid_counts_and_seeds_raise_invalid_config(call, kwargs):
    # the library calls behind the CLI counts, with values argparse cannot produce
    defaults = (
        {"names": ["lemma1"], "dims": (2,), "trials": 5, "seed": 0}
        if call is qchsh.verify.run_suites else {"d": 2, "seed": 0}
    )
    with pytest.raises(InvalidConfig):
        call(**{**defaults, **kwargs})


def test_numpy_integer_counts_and_seeds_accepted():
    (result,) = qchsh.verify.run_suites(["lemma1"], dims=(2,), trials=np.int64(5), seed=np.int64(1))
    assert result.passed
    np.testing.assert_array_equal(
        random_two_qudit_state(2, np.uint8(3)).rho, random_two_qudit_state(2, 3).rho
    )


@pytest.mark.parametrize("bad_d", [True, 1, "3", 3.0])
def test_state_file_bad_dimension_exits_one(capsys, tmp_path, bad_d):
    payload = state_to_json_dict(ghz_state(3))
    payload["d"] = bad_d
    path = tmp_path / "state.json"
    path.write_text(json.dumps(payload))
    code, _, err = run_cli(capsys, "bounds", "--state", f"file:{path}")
    assert code == 1
    assert err.startswith("error: InvalidDimension")
    assert "Traceback" not in err


@pytest.mark.parametrize("spec", ["ghz", "random:1", "file"])
def test_dim_one_is_an_invalid_dimension_for_every_state_source(capsys, tmp_path, spec):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state_to_json_dict(ghz_state(2))))
    spec = f"file:{path}" if spec == "file" else spec
    code, _, err = run_cli(capsys, "bounds", "--state", spec, "--dim", "1")
    assert code == 1
    assert err.startswith("error: InvalidDimension")


@pytest.mark.parametrize("declared", [3, 4])
def test_state_file_side_mismatch_is_named_before_positivity(capsys, tmp_path, declared):
    # a 4x4 rho, the side of d = 2, that is also not positive
    bad = np.diag([2.0, -1.0, 0.0, 0.0]).astype(complex)
    path = tmp_path / "state.json"
    path.write_text(
        json.dumps({"d": declared, "rho": [[[z.real, z.imag] for z in row] for row in bad]})
    )
    code, _, err = run_cli(capsys, "bounds", "--state", f"file:{path}")
    assert code == 1
    assert err.startswith(f"error: DimensionMismatch: state for d={declared} must be ")
    assert "Traceback" not in err


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as info:
        main(["bounds", "--no-such-flag"])
    assert info.value.code == 1


# Floats where the %.15g text and the JSON text of the rounded value part:
# integer-valued results, [1e15, 1e16), the normal/subnormal edge, subnormals
# and non-finite values, next to ordinary floats of every magnitude.
_MIN = sys.float_info.min
_EDGE_FLOATS = st.sampled_from(
    [-0.0, 0.0, 1.0, -3.0, 0.9999999999999999, 99.99999999999999, 9.999999999999995e14,
     1e15, 1234567890123456.0, 1e16, 1.7976931348623157e308, _MIN, -_MIN,
     float(np.nextafter(_MIN, 0.0)), float(np.nextafter(_MIN, 1.0)), 2.2250738585072e-308,
     5e-324, float("nan"), float("inf"), float("-inf")]
)
_FLOATS = st.one_of(
    st.floats(),
    st.floats(width=32),
    _EDGE_FLOATS,
    st.integers(-(2**60), 2**60).map(float),
    st.floats(min_value=1e15, max_value=1e16, exclude_max=True),
    st.floats(min_value=-_MIN, max_value=_MIN),
    st.integers(-(2**63), 2**63 - 1).map(lambda bits: float(np.int64(bits).view(np.float64))),
)
_FLOAT_ARRAYS = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4), elements=_FLOATS
)
_NUMPY_SCALARS = st.one_of(
    _FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(-(2**31), 2**31 - 1).map(np.int32),
    st.booleans().map(np.bool_),
)
_LEAVES = st.one_of(
    _FLOATS, _FLOAT_ARRAYS, _NUMPY_SCALARS, st.integers(), st.booleans(), st.none(), st.text(max_size=4),
    hnp.arrays(np.int64, hnp.array_shapes(max_dims=2, min_side=0, max_side=3)),
    hnp.arrays(np.bool_, hnp.array_shapes(max_dims=2, min_side=0, max_side=3)),
)
_PAYLOADS = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(payload=_PAYLOADS)
def test_json_writer_matches_stdlib_encoder(payload):
    assert _json_text(payload) == stdlib_json_text(payload)


_PERCENT_TEXT = st.text(alphabet="%ds.a", max_size=4)


# A key or string is part of a ``%`` format in the writer, its ``%`` doubled;
# the text after the last float is such a format too.
@settings(max_examples=100, deadline=None)
@given(
    payload=st.dictionaries(
        _PERCENT_TEXT, st.one_of(_PERCENT_TEXT, _FLOATS, _FLOAT_ARRAYS, st.lists(_PERCENT_TEXT)),
        max_size=4,
    )
)
@example(payload={"%d": "100%", "a%%s": [0.5, 0.0]})
@example(payload={"%s": np.array([1.5, -0.0]), "%%": 2.0, "after": "100%", "%d": ["%.15g"]})
def test_json_writer_prints_percent_signs_in_keys_and_strings(payload):
    assert _json_text(payload) == stdlib_json_text(payload)


@pytest.mark.parametrize(
    "payload",
    [
        {"d": 3, "note": "100%", "flags": [True, False, None], "empty": np.zeros((0, 3)), "n": np.int64(7)},
        [[], {}, "%d%%", np.arange(6).reshape(2, 3), np.array([True])],
        "%s",
        12,
        {},
    ],
)
def test_json_writer_prints_a_document_without_floats(payload):
    assert _json_text(payload) == stdlib_json_text(payload)


def _from_bits(bits):
    return float(np.uint64(bits).view(np.float64))


@settings(max_examples=100, deadline=None)
@given(x=_FLOATS)
# signaling NaNs: casting one to bool sets the invalid-operation flag
@example(x=_from_bits(0x7FF0000000000001))
@example(x=_from_bits(0xFFF0000000000001))
@example(x=_from_bits(0x7FF4000000000000))
def test_json_writer_zero_dim_array_is_its_scalar(x):
    # the retired converter could not take a 0-d array; the writer prints its scalar
    assert _json_text(np.array(x)) == stdlib_json_text(np.float64(x))
    assert _json_text({"x": np.array(x)}) == stdlib_json_text({"x": np.float64(x)})
    assert _json_text(np.array([x, 1.0])) == stdlib_json_text(np.array([x, 1.0]))


@settings(max_examples=200, deadline=None)
@given(matrix=hnp.arrays(np.float64, st.integers(0, 5).map(lambda n: (n, n)), elements=_FLOATS))
def test_correlation_csv_matches_per_cell_writer(matrix):
    labels = [f"l{i}" for i in range(len(matrix))]
    assert _correlation_csv(labels, matrix) == correlation_csv_oracle(labels, matrix)


def _scaled_normals(seed, size, exponents):
    """Standard normals times 10**k, k uniform over the inclusive range ``exponents``."""
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore", under="ignore"):
        return rng.standard_normal(size) * 10.0 ** rng.integers(*exponents, size, endpoint=True)


# Arrays too large for element-wise drawing: 1-3 dims, sides up to 30, every
# cell plain (its JSON text is its %.15g text).  The exponents reach past both
# ends of the plain range, so the filter has cells to drop.
@settings(max_examples=60, deadline=None)
@given(
    shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=30),
    seed=st.integers(0, 2**32 - 1),
    odd=st.sampled_from([0.0, -0.0, 1.0, 5e-324, float("inf"), float("nan")]),
    where=st.floats(0.0, 1.0, exclude_max=True),
)
def test_json_writer_matches_stdlib_encoder_on_large_plain_arrays(shape, seed, odd, where):
    size = int(np.prod(shape))
    pool = _scaled_normals(seed, 2 * size + 64, (-310, 16))
    pool = pool[plain_mask(pool)]
    assume(pool.size >= size)
    a = pool[:size].reshape(shape)
    assert _json_text(a) == stdlib_json_text(a)
    a.flat[int(where * size)] = odd  # one cell that is not plain, printed from the table or its own text
    assert _json_text(a) == stdlib_json_text(a)
    assert _json_text({"a": [a]}) == stdlib_json_text({"a": [a]})


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
    edits=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True), _EDGE_FLOATS), max_size=8),
)
def test_correlation_csv_matches_per_cell_writer_at_large_sides(n, seed, edits):
    matrix = _scaled_normals(seed, (n, n), (-330, 310))
    for where, value in edits if n else ():
        matrix.flat[int(where * n * n)] = value
    labels = [f"l{i}" for i in range(n)]
    assert _correlation_csv(labels, matrix) == correlation_csv_oracle(labels, matrix)


def _hard_cells():
    """Cells where a 15-digit mantissa is easy to get wrong, both signs of each.

    Exact dyadic ties at the 16th digit, each power of ten from 1e-31 to 1e15
    and its neighbours one ulp either side, values that round up to the next
    power, the notation switches at 1e-5/1e-4 and 1e14/1e15, near-integers,
    zeros, subnormals and non-finite values.
    """
    rng = np.random.default_rng(19)
    cells = [123456789012.3125, 0.0099999999999999996, 1250.0, 2.9999999999999996,
             3.0000000000000004, 1e10 + 1e-6, 0.5, 1.5e-7, 5e-324, 2.5e-310,
             float("inf"), float("nan"), 0.0]
    for q in range(1, 21):  # K / 2**q = 5**q K / 10**q: 16 digits ending in 5
        for k in rng.integers(10**15 // 5**q + 1, 10**16 // 5**q, 4).tolist():
            cells.append((k | 1) / 2.0**q)
    for k in range(-31, 16):
        power = float(f"1e{k}")
        cells += [power, float(np.nextafter(power, 0.0)), float(np.nextafter(power, np.inf)),
                  power * (1 - 4e-16), power * (1 - 6e-16)]
    for k in (-5, -4, 14, 15):
        for mantissa in (9.99999999999999, 9.999999999999995, 9.999999999999996):
            cells.append(mantissa * 10.0 ** (k - 1))
    cells = np.array(cells)
    return np.concatenate([cells, -cells])


_HARD = _hard_cells()


@pytest.mark.parametrize(
    "size",
    [319, 320, qchsh.cli._G15_CHUNK - 1,
     qchsh.cli._G15_CHUNK, qchsh.cli._G15_CHUNK + 1, 9000],
)
def test_writers_print_hard_cells_as_the_oracles_do(size):
    rng = np.random.default_rng(size)
    side = int(np.ceil(np.sqrt(size)))
    matrix = rng.permutation(np.resize(_HARD, side * side)).reshape(side, side)
    labels = [f"l{i}" for i in range(side)]
    assert _correlation_csv(labels, matrix) == correlation_csv_oracle(labels, matrix)
    plain = rng.permutation(np.resize(_HARD[plain_mask(_HARD)], size))
    assert _json_text(plain) == stdlib_json_text(plain)
    assert _json_text({"T": plain.reshape(-1, 1)}) == stdlib_json_text({"T": plain.reshape(-1, 1)})
    template = "|%.15g" * size
    cells = matrix.ravel()[:size]
    assert _fill_g15(template.split("%.15g"), cells) == template % tuple(cells.tolist())


def test_json_writer_prints_arrays_across_chunk_boundaries():
    # two 3000-cell arrays with scalars between them: the first chunk holds the
    # first array, two scalars and the head of the second array, the next chunk
    # the rest of it and the last scalar
    rng = np.random.default_rng(28)
    first = rng.permutation(np.resize(_HARD, 3000))
    second = rng.permutation(np.resize(_HARD, 3000)).reshape(50, 30, 2)
    payload = {
        "first": first, "x": 1.5, "n": 3, "%": "%s", "zero": -0.0, "second": second, "last": 0.1,
    }
    assert 3000 + 2 < qchsh.cli._G15_CHUNK < 3000 + 2 + 3000
    assert _json_text(payload) == stdlib_json_text(payload)
    assert _json_text([second, first]) == stdlib_json_text([second, first])


def test_integer_path_prints_extreme_cells_without_warnings():
    cells = np.array([1e308, -1.7976931348623157e308, 1e200, 5e-324, -2.5e-310, 1e-320,
                      float("inf"), float("-inf"), float("nan"), 0.3])
    matrix = np.resize(cells, (40, 40))
    labels = [f"l{i}" for i in range(40)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _correlation_csv(labels, matrix) == correlation_csv_oracle(labels, matrix)
        template = ",%.15g" * matrix.size
        assert _fill_g15(template.split("%.15g"), matrix) == template % tuple(matrix.ravel().tolist())


def test_writers_peak_memory_stays_within_four_times_the_text():
    # the d = 16 T: 65 025 cells, about 1.4 MB of CSV and 1.8 MB of JSON; the d = 16
    # basis payload: 130 560 cells of few distinct values, about 2.7 MB of JSON
    t = correlation_matrix(random_two_qudit_state(16, 3000)).matrix
    basis = build_gellmann_basis(16)
    operators = qchsh.cli._matrix_pairs(basis.stack)
    qchsh.cli._g15_tables()  # built once per process, not part of any writer's peak
    for write in (
        lambda: _correlation_csv(basis.labels, t),
        lambda: _json_text(t),
        lambda: _json_text({"d": 16, "operators": operators}),
    ):
        tracemalloc.start()
        try:
            text = write()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * len(text)


# State-file payloads: a valid state's file with up to three faults.  Cells
# may turn into NaN/inf, strings, bools or None; pairs into lists of another
# length; rows may lose or gain an entry (ragged) or the matrix a column or a
# row (rectangular); "rho" may stop being a list of rows; "d" may not match
# the size or be huge.
_ODD_CELLS = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf"), True, False, None]),
    st.sampled_from(["0.5", " 1e-3 ", "nan", "abc", ""]),
    st.text(max_size=3),
    st.floats(),
)
_ODD_RHO = st.one_of(
    st.integers(-5, 5), st.floats(), st.text(max_size=3), st.none(), st.booleans(),
    st.just({"re": 1}), st.just([]), st.just([[]]), st.just([[[]]]), st.just([1.0, 0.0]),
    st.just([[1.0, 0.0]]), st.just([[[1.0, 0.0]]]), st.just([[[[1.0, 0.0]]]]),
)


@st.composite
def _state_payloads(draw):
    d = draw(st.integers(2, 3))
    state = ghz_state(d) if draw(st.booleans()) else random_two_qudit_state(d, draw(st.integers(0, 3)))
    payload = state_to_json_dict(state)
    rho = payload["rho"]

    def index(seq):
        return draw(st.integers(0, len(seq) - 1))

    for kind in draw(st.lists(st.sampled_from(["cell", "pair", "ragged", "rectangular", "rho", "d"]),
                              max_size=3)):
        if kind == "rho":
            payload["rho"] = draw(_ODD_RHO)
        elif kind == "d":
            payload["d"] = draw(st.sampled_from([2, 3, 4, 10**6, 2**62]))
        elif not rho or not all(isinstance(row, list) and row for row in rho):
            continue
        elif kind == "cell":
            row = rho[index(rho)]
            pair = row[index(row)]
            if isinstance(pair, list) and pair:
                pair[index(pair)] = draw(_ODD_CELLS)
        elif kind == "pair":
            row = rho[index(rho)]
            row[index(row)] = draw(st.lists(st.floats(-1.0, 1.0), max_size=3).filter(lambda p: len(p) != 2))
        elif kind == "ragged":
            row = rho[index(rho)]
            if draw(st.booleans()):
                del row[index(row)]
            else:
                row.append([0.0, 0.0])
        elif draw(st.booleans()):
            for row in rho:
                del row[-1]
        else:
            del rho[index(rho)]
    return payload


def _outcome(load, path):
    try:
        return load(path)
    except ValidationError as exc:
        return exc


def _ghz2_payload_with(cell):
    payload = state_to_json_dict(ghz_state(2))
    payload["rho"][0][1] = cell
    return payload


@settings(max_examples=150, deadline=None)
@given(payload=_state_payloads())
@example(payload=_ghz2_payload_with([0.0, float("inf")]))
@example(payload=_ghz2_payload_with([float("nan"), 0.0]))
def test_state_file_parse_matches_asarray_oracle(payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        expected = _outcome(load_state_file_oracle, path)
        got = _outcome(load_state_file, path)
        stdout, stderr = StringIO(), StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr), warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would print before the error line
            code = main(["bounds", "--state", f"file:{path}"])
    assert type(got) is type(expected)
    if isinstance(expected, ValidationError):
        assert code == 1
        assert stderr.getvalue().startswith(f"error: {type(expected).__name__}: ")
    else:
        assert code == 0
        np.testing.assert_array_equal(got.rho.view(np.int64), expected.rho.view(np.int64))
    assert "Traceback" not in stderr.getvalue()


@pytest.mark.parametrize("cell", ["1" + "0" * 400, "-1" + "0" * 400])
def test_state_file_int_beyond_float_range_exits_one(capsys, tmp_path, cell):
    # json.load keeps such a literal as an int, which no float64 holds
    text = json.dumps(state_to_json_dict(ghz_state(2)))
    path = tmp_path / "state.json"
    path.write_text(text.replace("[0.5, 0.0]", f"[{cell}, 0.0]", 1))
    code, _, err = run_cli(capsys, "bounds", "--state", f"file:{path}")
    assert code == 1
    assert err.startswith("error: ValidationError: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe\x00garbage", b"[" * 100000, b"9" * 5000],
    ids=["not-utf8", "deeply-nested", "int-of-5000-digits"],
)
def test_state_file_that_json_cannot_read_exits_one(capsys, tmp_path, content):
    # json.load raises UnicodeDecodeError, RecursionError and ValueError for these
    path = tmp_path / "state.json"
    path.write_bytes(content)
    code, _, err = run_cli(capsys, "bounds", "--state", f"file:{path}")
    assert code == 1
    assert err.startswith("error: ValidationError: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("basis", "--dim", "3"),
        ("correlation", "--state", "random:5", "--dim", "3"),
        ("bounds", "--state", "ghz", "--dim", "4"),
        ("optimize", "--state", "random:2", "--dim", "3", "--restarts", "2"),
        ("ghz-table", "--dims", "2:3", "--restarts", "2"),
    ],
)
def test_out_file_matches_stdout(capsys, tmp_path, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    path = tmp_path / "report.json"
    code, file_out, _ = run_cli(capsys, *argv, "--out", str(path))
    assert code == 0
    assert file_out == ""
    assert out.endswith("}\n")
    assert path.read_bytes() == out[:-1].encode("utf-8")


@pytest.mark.parametrize(
    "argv, name",
    [
        (("bounds", "--state", "ghz", "--dim", "2"), "report.json"),
        (("basis", "--dim", "2"), "report.json"),
        (("ghz-table", "--dims", "2:2", "--restarts", "1", "--output", "csv"), "table.csv"),
    ],
)
def test_out_file_in_a_missing_directory_exits_one(capsys, tmp_path, argv, name):
    path = tmp_path / "missing" / name
    code, out, err = run_cli(capsys, *argv, "--out", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: ValidationError: cannot write report to {path}: ")
    assert "Traceback" not in err
    assert not path.parent.exists()


def test_empty_out_path_exits_one(capsys):
    # an empty path names no file; the report does not go to stdout instead
    code, out, err = run_cli(capsys, "bounds", "--state", "ghz", "--dim", "2", "--out", "")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ValidationError: cannot write report to : ")


# One process reuses the parser that main builds on its first call.
_BACK_TO_BACK = (
    ("bounds", "--no-such-flag"),
    ("--help",),
    ("optimize", "--state", "random:7", "--dim", "3", "--restarts", "2", "--seed", "1"),
    ("ghz-table", "--dims", "2:3", "--restarts", "2", "--output", "csv"),
    ("verify", "--suite", "lemma1", "--dims", "2:3", "--trials", "20"),
    # JSON again: the CSV request above must leave no default behind
    ("ghz-table", "--dims", "2:2", "--restarts", "1"),
    # one shared d = 3 basis: this request builds its stack, the next reads
    # its labels, and each prints what a fresh process prints
    ("basis", "--dim", "3"),
    ("correlation", "--state", "ghz", "--dim", "3", "--output", "csv"),
)


def _in_process(argv):
    stdout, stderr = StringIO(), StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


def test_back_to_back_calls_print_what_fresh_processes_print(monkeypatch):
    # help text wraps at the terminal width, which COLUMNS fixes for both sides
    monkeypatch.setenv("COLUMNS", "100")
    src = os.path.dirname(os.path.dirname(os.path.abspath(qchsh.cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = "import sys; from qchsh.cli import main; sys.exit(main(sys.argv[1:]))"
    fresh = [
        subprocess.run(
            [sys.executable, "-c", script, *argv],
            capture_output=True, encoding="utf-8", env=env, timeout=300,
        )
        for argv in _BACK_TO_BACK
    ]
    expected = [(run.returncode, run.stdout, run.stderr) for run in fresh]
    assert [code for code, _, _ in expected] == [1, 0, 0, 0, 0, 0, 0, 0]
    # twice over, so that the second round runs on a parser that has parsed each call
    for _ in range(2):
        assert [_in_process(argv) for argv in _BACK_TO_BACK] == expected


def test_closed_stdout_exits_one_without_a_traceback():
    # the basis at d = 12 is about 1 MB of JSON, far more than a pipe holds,
    # so the write meets the closed pipe whatever the timing
    src = os.path.dirname(os.path.dirname(os.path.abspath(qchsh.cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "qchsh.cli", "basis", "--dim", "12"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read().decode("utf-8")
    proc.stderr.close()
    assert proc.wait(timeout=300) == 1
    assert head == b'{\n  "d": 1'
    assert "Traceback" not in err
    assert err == ""
