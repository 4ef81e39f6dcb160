"""Command-line front end.

Exit codes: 0 success, 1 invalid input or a stdout closed by its reader,
2 numerical or convergence failure.
Floating-point output is serialized with 15 significant digits, and
identical requests (including seeds) produce byte-identical output.
``main`` builds the argparse parser on its first call and reuses it on
every later call in the process; importing the module builds nothing.

JSON reports are written by ``_json_text`` straight from dicts, lists,
numpy scalars and ndarrays, in the layout of ``json.dumps(..., indent=2)``:
2-space indent, one scalar per line, ``","`` at line end and ``": "`` after
keys.  The correlation CSV and each JSON float array of ``_plain`` values
fill one template of ``%.15g`` cells in one ``%`` call; any other float
array fills a ``%s`` template with the text of each distinct value.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import verify as verify_module
from .bounds import TSIRELSON, chsh_bounds, ghz_chsh_maximum, ghz_correlation_matrix
from .correlation import chsh_expectation_direct, correlation_matrix
from .errors import InvalidDimension, NumericalError, ValidationError
from .optimizer import MODES, SeesawConfig, ghz_optimal_settings, seesaw_maximize
from .representation import build_gellmann_basis, check_dim
from .states import ghz_state, load_state_file, random_two_qudit_state


def _scalar_text(obj) -> str:
    if isinstance(obj, (bool, np.bool_)):
        obj = bool(obj)
    elif isinstance(obj, (int, np.integer)):
        obj = int(obj)
    elif isinstance(obj, (float, np.floating)):
        obj = float(f"{float(obj):.15g}")
    return json.dumps(obj)


def _array_template(shape: tuple, nl: str, leaf: str) -> str:
    """Layout of a nested JSON list of this shape, with ``leaf`` for each element."""
    if not shape:
        return leaf
    if shape[0] == 0:
        return "[]"
    inner = nl + "  "
    item = _array_template(shape[1:], inner, leaf)
    return "[" + inner + ("," + inner).join([item] * shape[0]) + nl + "]"


def _plain(values: np.ndarray) -> np.ndarray:
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


def _distinct_floats(flat: np.ndarray) -> tuple[np.ndarray, list[str], np.ndarray]:
    """Distinct values of a flat float64 array, their ``%.15g`` texts and the inverse index.

    Values are told apart by bit pattern, which keeps -0.0 apart from 0.0.
    All texts come from one C-level ``%`` call; ``%.15g`` never prints a
    space, so splitting on spaces recovers them.
    """
    bits, inverse = np.unique(flat.view(np.int64), return_inverse=True)
    values = bits.view(np.float64)
    texts = ("%.15g " * values.size % tuple(values.tolist())).split()
    return values, texts, inverse


def _float_array_text(a: np.ndarray, nl: str) -> str:
    """JSON text of a float array, each element printed as ``_scalar_text`` would.

    All ``_plain`` values fill a template of ``%.15g`` leaves.  Otherwise each
    distinct value is formatted once (``_distinct_floats``, which pays off
    when values repeat), and those not plain go through ``_scalar_text``.
    """
    flat = np.asarray(a, dtype=np.float64).ravel()
    if flat.all() and _plain(flat).all():  # a zero, the usual odd cell, ends it early
        return _array_template(a.shape, nl, "%.15g") % tuple(flat.tolist())
    values, texts, inverse = _distinct_floats(flat)
    for i in np.flatnonzero(~_plain(values)).tolist():
        texts[i] = _scalar_text(values[i])
    cells = np.array(texts, dtype=object)[inverse].tolist()
    return _array_template(a.shape, nl, "%s") % tuple(cells)


def _json_text(obj, nl: str = "\n") -> str:
    """The ``json.dumps(obj, indent=2)`` text of obj, placed at indent ``nl``.

    Floats are rounded to 15 significant digits; numpy scalars and arrays
    are written as Python scalars and (nested) lists.
    """
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f":
            return _float_array_text(obj, nl)
        return _json_text(obj.tolist(), nl)
    inner = nl + "  "
    if isinstance(obj, dict):
        brackets = "{}"
        items = [encode_basestring_ascii(k) + ": " + _json_text(v, inner) for k, v in obj.items()]
    elif isinstance(obj, (list, tuple)):
        brackets = "[]"
        items = [_json_text(v, inner) for v in obj]
    else:
        return _scalar_text(obj)
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + nl + brackets[1]


def _matrix_pairs(matrices: np.ndarray) -> np.ndarray:
    """Row-major [re, im] pairs of each complex matrix in ``matrices[..., n, n]``.

    The JSON writer rounds them.
    """
    z = np.asarray(matrices)
    z = z.reshape(z.shape[:-2] + (-1,))
    return np.stack((z.real, z.imag), axis=-1)


def _correlation_csv(labels, matrix: np.ndarray) -> str:
    """CSV text of a square matrix: a header row of labels, then one labelled row each.

    Every cell is a ``%.15g`` directive of one template, which the matrix
    fills in one ``%`` call, with no JSON round trip.
    """
    row = ",%.15g" * len(labels) + "\n"
    template = "," + ",".join(labels) + "\n" + "".join([label + row for label in labels])
    return template % tuple(matrix.ravel().tolist())


def _csv_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    return f"{value:.15g}"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValidationError(f"cannot write report to {out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _parse_dims(spec: str) -> list[int]:
    try:
        lo_text, hi_text = spec.split(":")
        lo, hi = int(lo_text), int(hi_text)
    except ValueError as exc:
        raise ValidationError(
            f"--dims expects an inclusive range like 2:6, got {spec!r}"
        ) from exc
    lo = check_dim(lo)
    if hi < lo:
        raise InvalidDimension(f"--dims range {spec!r} must satisfy a <= b")
    return list(range(lo, hi + 1))


def _resolve_state(args):
    spec = args.state
    if spec == "ghz":
        if args.dim is None:
            raise ValidationError("--dim is required with --state ghz")
        return ghz_state(args.dim)
    if spec.startswith("random:"):
        if args.dim is None:
            raise ValidationError("--dim is required with --state random:<seed>")
        try:
            seed = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ValidationError(f"bad random state seed in {spec!r}") from exc
        return random_two_qudit_state(args.dim, seed)
    if spec.startswith("file:"):
        return load_state_file(spec.split(":", 1)[1], d=args.dim)
    raise ValidationError(
        f'--state must be "ghz", "random:<seed>" or "file:<path>", got {spec!r}'
    )


def _seesaw_config(args) -> SeesawConfig:
    return SeesawConfig(mode=args.mode, restarts=args.restarts, tolerance=args.tol, seed=args.seed)


def cmd_basis(args) -> int:
    if args.dim is None:
        raise ValidationError("--dim is required for the basis command")
    basis = build_gellmann_basis(args.dim)
    payload = {
        "d": basis.dim,
        "operators": _matrix_pairs(basis.stack),
    }
    _emit(_json_text(payload), args.out)
    return 0


def cmd_correlation(args) -> int:
    t = correlation_matrix(_resolve_state(args))
    if args.output == "csv":
        _emit(_correlation_csv(build_gellmann_basis(t.dim).labels, t.matrix), args.out)
    else:
        _emit(_json_text({"d": t.dim, "T": t.matrix}), args.out)
    return 0


def cmd_bounds(args) -> int:
    report = chsh_bounds(correlation_matrix(_resolve_state(args)))
    payload = {
        "d": report.dim,
        "lambda1": report.lambda1,
        "lambda2": report.lambda2,
        "lower": report.lower,
        "upper": report.upper,
        "tsirelson": TSIRELSON,
        "upper_improves_tsirelson": report.upper_improves_tsirelson,
    }
    _emit(_json_text(payload), args.out)
    return 0


def cmd_optimize(args) -> int:
    t = correlation_matrix(_resolve_state(args))
    config = _seesaw_config(args)
    result = seesaw_maximize(t, config)
    report = result.bounds
    payload = {
        "d": t.dim,
        "value": result.value,
        "mode": config.mode,
        "restarts": config.restarts,
        "converged_count": result.converged_count,
        "a1": result.settings.a1.coefficients,
        "a2": result.settings.a2.coefficients,
        "b1": result.settings.b1.coefficients,
        "b2": result.settings.b2.coefficients,
        "settings": {
            "A1": _matrix_pairs(result.settings.a1.matrix),
            "A2": _matrix_pairs(result.settings.a2.matrix),
            "B1": _matrix_pairs(result.settings.b1.matrix),
            "B2": _matrix_pairs(result.settings.b2.matrix),
        },
        "upper_bound": report.upper,
        "lower_bound": report.lower,
        "tsirelson_gap": TSIRELSON - report.upper,
    }
    _emit(_json_text(payload), args.out)
    return 0


def cmd_ghz_table(args) -> int:
    dims = _parse_dims(args.dims)
    config = _seesaw_config(args)
    rows = []
    for d in dims:
        state = ghz_state(d)
        closed = ghz_chsh_maximum(d)
        settings = ghz_optimal_settings(d)
        certificate = abs(chsh_expectation_direct(state, settings))
        # T from the state, not the closed form: the see-saw's digits follow T's bits
        seesaw = seesaw_maximize(correlation_matrix(state), config).value
        report = chsh_bounds(ghz_correlation_matrix(d))
        rows.append(
            {
                "d": d,
                "closed_form": closed,
                "certificate": certificate,
                "seesaw": seesaw,
                "upper_bound": report.upper,
                "tsirelson_gap": TSIRELSON - report.upper,
                "upper_improves_tsirelson": report.upper_improves_tsirelson,
            }
        )
    if args.output == "csv":
        lines = [",".join(rows[0])]
        lines += [",".join(_csv_cell(v) for v in row.values()) for row in rows]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(_json_text({"rows": rows}), args.out)
    return 0


def cmd_verify(args) -> int:
    dims = _parse_dims(args.dims)
    names = [args.suite] if args.suite else None
    results = verify_module.run_suites(names, dims, args.trials, args.seed)
    failed = [r for r in results if not r.passed]
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{result.name}: {status} ({result.checks} checks) {result.detail}")
    print(f"suites passed: {len(results) - len(failed)}/{len(results)}")
    if failed:
        print(f"first failing suite: {failed[0].name}", file=sys.stderr)
        return 2
    return 0


class _Parser(argparse.ArgumentParser):
    # Usage errors are invalid input, not numerical failures.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later one.

    Parsing fills a fresh namespace and leaves the parser as it was.
    """
    parser = _Parser(
        prog="qchsh",
        description="CHSH expectation bounds and maximization for two-qudit states",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, state=True):
        if state:
            p.add_argument("--state", default="ghz",
                           help='state source: "ghz", "random:<seed>" or "file:<path>"')
        p.add_argument("--dim", type=int, default=None, help="qudit dimension d")
        p.add_argument("--out", default=None, help="write the report to this path")

    def add_seesaw(p):
        defaults = SeesawConfig()
        p.add_argument("--mode", choices=MODES, default=defaults.mode)
        p.add_argument("--restarts", type=int, default=defaults.restarts)
        p.add_argument("--seed", type=int, default=defaults.seed)
        p.add_argument("--tol", type=float, default=defaults.tolerance)

    p_basis = sub.add_parser("basis", help="export the operator basis as JSON")
    add_common(p_basis, state=False)
    p_basis.set_defaults(func=cmd_basis)

    p_corr = sub.add_parser("correlation", help="correlation matrix of a state")
    add_common(p_corr)
    p_corr.add_argument("--output", choices=("json", "csv"), default="json")
    p_corr.set_defaults(func=cmd_correlation)

    p_bounds = sub.add_parser("bounds", help="spectral lower/upper CHSH bounds")
    add_common(p_bounds)
    p_bounds.set_defaults(func=cmd_bounds)

    p_opt = sub.add_parser("optimize", help="see-saw maximization of |CHSH|")
    add_common(p_opt)
    add_seesaw(p_opt)
    p_opt.set_defaults(func=cmd_optimize)

    p_table = sub.add_parser("ghz-table", help="GHZ closed forms vs optimization per d")
    p_table.add_argument("--dims", default="2:8", help="inclusive range a:b")
    add_seesaw(p_table)
    p_table.add_argument("--output", choices=("json", "csv"), default="json")
    p_table.add_argument("--out", default=None)
    p_table.set_defaults(func=cmd_ghz_table)

    p_verify = sub.add_parser("verify", help="run the invariant suites")
    p_verify.add_argument("--suite", default=None,
                          help=f"one of: {', '.join(verify_module.SUITES)}")
    p_verify.add_argument("--trials", type=int, default=10_000)
    p_verify.add_argument("--dims", default="2:6")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (``qchsh basis --dim 12 | head``).  Point
        # stdout at devnull, so that the flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except ValidationError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
