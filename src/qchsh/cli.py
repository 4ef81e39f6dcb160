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
keys.  A report, like the correlation and ghz-table CSVs, is laid out once
as one array of float cells and the list of separators around them:
brackets, indents, keys, ints, bools, ``null`` and strings.  One ``_fill_g15``
call prints it, each cell from its exact 15-digit integer mantissa with
``%d`` (as JSON, or as ``%.15g`` in a CSV) and each zero from a table.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
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

# A ghz-table row's certificate farther than this from its closed form is a numerical fault.
CERTIFICATE_ATOL = 1e-9


def _scalar_text(obj) -> str:
    if isinstance(obj, (bool, np.bool_)):
        obj = bool(obj)
    elif isinstance(obj, (int, np.integer)):
        obj = int(obj)
    elif isinstance(obj, (float, np.floating)):
        obj = float(f"{float(obj):.15g}")
    return json.dumps(obj)


def _separators(shape: tuple, nl: str) -> list[str]:
    """The n + 1 texts around the n > 0 cells of a JSON list of this shape, equal ones shared."""
    if not shape:
        return ["", ""]
    inner = nl + "  "
    sub = _separators(shape[1:], inner)
    # an item's separators after each of its cells; its last runs into the next item's first
    separators = (sub[1:-1] + [sub[-1] + "," + inner + sub[0]]) * shape[0]
    separators[-1] = sub[-1] + nl + "]"
    separators.insert(0, "[" + inner + sub[0])
    return separators


# Cells per chunk of ``_fill_g15``, which bounds its working memory.
_G15_CHUNK = 4096
# Exponents of the tables: floor(log10|x|) is -31..13 for 1e-31 <= |x| < 1e14,
# np.log10's guess of it may be one off, and the exact check reads one above.
_G15_EXPONENTS = range(-32, 16)
_VELTKAMP = 134217729.0  # 2**27 + 1 splits a double into two 26-bit halves


def _veltkamp_split(x):
    c = _VELTKAMP * x
    hi = c - (c - x)
    return hi, x - hi


@functools.cache
def _g15_tables() -> tuple[np.ndarray, ...]:
    """Per exponent e of ``_G15_EXPONENTS``, the constants of ``_g15_cells``.

    From exact ratios of ints: 10**e rounded up to a double (so |x| >= 10**e
    exactly when |x| is at least it), and 10**(14 - e) = hi + lo with hi its
    nearest double, split into two 26-bit halves, and lo the double nearest
    the rest.  The digit group after the integer part has ``width`` digits
    (15 for 0.0001 <= |x| < 1, whose integer part is the literal ``0.``).
    The snippet of a cell is indexed by (sign, e, leading zeros of that
    group, whether the group is printed); two more snippets print zeros.
    Row 0 holds the ``%.15g`` snippets and row 1 the JSON ones, which print
    ``.0`` after a zero and after an integer part with no digit group.
    """
    def power(k):  # 10**k as num / den, and its nearest double as p / q
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        return (num, den, *(num / den).as_integer_ratio())  # int / int rounds to nearest

    exponents = list(_G15_EXPONENTS)
    floors, hi, lo = [], [], []
    for e in exponents:
        num, den, p, q = power(e)
        floors.append(p / q if p * den >= num * q else math.nextafter(p / q, math.inf))
        num, den, p, q = power(14 - e)
        hi.append(p / q)
        lo.append((num * q - p * den) / (den * q))
    widths = [14 if e < -4 else 15 if e < 0 else max(14 - e, 0) for e in exponents]
    snippets = []
    for point in ("", ".0"):
        row = []
        for sign in ("", "-"):
            for e in exponents:
                for zeros in range(16):
                    group = "." + "0" * zeros + "%d"
                    if e < -4:
                        row += [f"{sign}%de-{-e:02d}", f"{sign}%d{group}e-{-e:02d}"]
                    elif e < 0:
                        row += [f"{sign}0.{'0' * (-e - 1)}%d"] * 2
                    else:
                        row += [f"{sign}%d{point}", f"{sign}%d{group}"]
        snippets.append(row + ["0" + point, "-0" + point])
    halves = np.array([_veltkamp_split(h) for h in hi])
    tables = (
        np.array(floors), halves[:, 0].copy(), halves[:, 1].copy(), np.array(lo),
        np.array(widths), 10.0 ** np.array(widths), np.array(snippets, dtype=object),
    )
    for table in tables:  # shared by every call in the process
        table.setflags(write=False)
    return tables


_POWERS_OF_TEN = 10.0 ** np.arange(15)
_POWERS_OF_TEN.setflags(write=False)


def _g15_cells(x: np.ndarray, as_json: bool) -> tuple[list[str], list[int]]:
    """Snippets of ``%d`` directives, and the ints they take, that print each cell.

    A cell prints as its ``%.15g`` text, or with ``as_json`` as its
    ``_scalar_text``.  Zeros take their snippets straight from the table;
    the arithmetic runs on the other cells.  e = floor(log10|x|) is guessed
    by ``np.log10`` and then set exactly against the table's powers of ten.
    y = |x| * 10**(14 - e) is formed as a double-double (a Dekker
    two-product against the table's hi, plus |x| * lo) within about 1e-16 of
    its exact value, so N = round(y), the 15-digit mantissa with
    10**14 <= N <= 10**15, is exact unless the fraction of y is within 1e-9
    of a half.  N = 10**15 carries into the next power of ten.  The integer
    part and the digit group (its trailing zeros stripped) come from N.  A
    cell that this does not cover gets its whole text as its snippet and no
    ints: the near-halves, and the non-zero cells outside
    1e-31 <= |x| < 1e14 (subnormal and non-finite ones among them).
    """
    floors, split_hi, split_lo, low, widths, scales, snippets = _g15_tables()
    snippets = snippets[int(as_json)]
    sign = np.signbit(x)
    codes = sign + (len(snippets) - 2)  # the zeros' snippets
    # all cells as a view when none is zero: a gather would cost more than it saves
    nonzero = x != 0
    nonzero = np.s_[:] if nonzero.all() else np.flatnonzero(nonzero)
    x = x[nonzero]
    a = np.abs(x)
    ok = (a >= 1e-31) & (a < 1e14)
    a[~ok] = 1.0
    e = np.log10(a)
    np.floor(e, out=e)
    e = e.astype(np.intp)
    e -= _G15_EXPONENTS.start
    e += a >= floors.take(e + 1)  # log10 rounds either way near a power of ten
    e -= a < floors.take(e)
    bh = split_hi.take(e)
    bl = split_lo.take(e)
    p = a * (bh + bl)
    ah, al = _veltkamp_split(a)
    err = ah * bh - p  # a * hi - p, exactly
    err += ah * bl
    err += al * bh
    err += al * bl
    err += a * low.take(e)
    n = np.floor(p)
    err += p - n  # y - floor(p), in (-0.25, 1.25)
    ok &= np.abs(err - 0.5) > 1e-9
    n += err > 0.5
    carry = n == 1e15
    n[carry] = 1e14
    e += carry
    scale = scales.take(e)
    whole = np.floor(n / scale)
    n -= whole * scale  # the digit group, exactly
    shown = ok & (n > 0)
    code = e * 32
    code += shown
    has_int = ok & (scale < 1e15)  # all but 0.0001 <= |x| < 1
    grouped = np.flatnonzero(shown & has_int)
    digits = np.searchsorted(_POWERS_OF_TEN, n[grouped], "right")
    code[grouped] += 2 * (widths.take(e[grouped]) - digits)  # the group's leading zeros
    tenth = n / 10.0
    cut = np.flatnonzero(shown & (tenth == np.floor(tenth)))
    tenth = tenth[cut]
    while cut.size:  # strip trailing zeros, a few cells per pass
        n[cut] = tenth
        tenth /= 10.0
        keep = tenth == np.floor(tenth)
        cut, tenth = cut[keep], tenth[keep]
    code += sign[nonzero] * (32 * len(_G15_EXPONENTS))
    codes[nonzero] = code
    texts = snippets.take(codes).tolist()
    for i, value in zip(np.arange(codes.size)[nonzero][~ok].tolist(), x[~ok].tolist()):
        texts[i] = _scalar_text(value) if as_json else "%.15g" % value
    ints = np.empty((x.size, 2), dtype=np.int64)
    ints[:, 0] = whole
    ints[:, 1] = n
    used = np.empty((x.size, 2), dtype=bool)
    used[:, 0] = has_int
    used[:, 1] = shown
    return texts, ints[used].tolist()


def _fill_g15(separators: list[str], values, as_json: bool = False) -> str:
    """``"%s".join(separators) % texts``, the text of one value between each two separators.

    A value's text is its ``%.15g`` text, or with ``as_json`` its
    ``_scalar_text``.  Each separator is a ``%`` format without directives,
    its literal ``%`` written ``%%``.  Each chunk of ``_G15_CHUNK`` cells
    interleaves its separators with its ``_g15_cells`` snippets, which one
    ``%`` call fills with the exact 15-digit mantissas as Python ints: ``%d``
    of an int costs a fraction of ``%.15g`` of a float.
    """
    flat = np.asarray(values, dtype=np.float64).ravel()
    parts = []
    for start in range(0, flat.size, _G15_CHUNK):
        texts, ints = _g15_cells(flat[start : start + _G15_CHUNK], as_json)
        pieces = [""] * (2 * len(texts))
        pieces[::2] = separators[start : start + len(texts)]
        pieces[1::2] = texts
        parts.append("".join(pieces) % tuple(ints))
    parts.append(separators[-1] % ())
    return "".join(parts)


def _lay_out(obj, nl: str, text: list[str], separators: list[str], cells: list) -> None:
    """Add the JSON text of obj, placed at indent ``nl``, to a document being laid out.

    Its floats go onto ``cells``: a float array's cells between the
    ``_separators`` of its shape, a float scalar as one cell.  ``text``
    holds the pieces since the last cell, and a cell closes them into one
    of ``separators``.  Each piece is a ``%`` format, so a ``%`` of a key
    or string is doubled.
    """
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and obj.size:
            around = _separators(obj.shape, nl)
            text.append(around[0])
            start = len(separators)
            separators += around
            separators[start] = "".join(text)
            text[:] = [separators.pop()]
            cells.append(obj.ravel())
            return
        obj = obj.tolist()
    if isinstance(obj, (float, np.floating)):
        separators.append("".join(text))
        text.clear()
        cells.append((obj,))
        return
    if isinstance(obj, dict):
        brackets = "{}"
        items = [(encode_basestring_ascii(k).replace("%", "%%") + ": ", v) for k, v in obj.items()]
    elif isinstance(obj, (list, tuple)):
        brackets = "[]"
        items = [("", v) for v in obj]
    else:
        text.append(_scalar_text(obj).replace("%", "%%"))
        return
    if not items:
        text.append(brackets)
        return
    inner = nl + "  "
    opener = brackets[0] + inner
    for key, value in items:
        text.append(opener + key)
        _lay_out(value, inner, text, separators, cells)
        opener = "," + inner
    text.append(nl + brackets[1])


def _json_text(obj) -> str:
    """The ``json.dumps(obj, indent=2)`` text of obj, floats rounded to 15 significant digits.

    numpy scalars and arrays are written as Python scalars and (nested)
    lists.  The document is laid out once, as its float cells and the texts
    between them, and one ``_fill_g15`` call prints it.
    """
    text, separators, cells = [], [], []
    _lay_out(obj, "\n", text, separators, cells)
    separators.append("".join(text))
    return _fill_g15(separators, np.concatenate(cells) if cells else (), as_json=True)


def _matrix_pairs(matrices: np.ndarray) -> np.ndarray:
    """Row-major [re, im] pairs of each complex matrix in ``matrices[..., n, n]``.

    The JSON writer rounds them.
    """
    z = np.asarray(matrices)
    z = z.reshape(z.shape[:-2] + (-1,))
    return np.stack((z.real, z.imag), axis=-1)


def _correlation_csv(labels, matrix: np.ndarray) -> str:
    """CSV text of a square matrix: a header row of labels, then one labelled row each."""
    n = len(labels)
    separators = [","] * (n * n) + ["\n"]
    for i, label in enumerate(labels):
        separators[i * n] = "\n" + label + ","
    separators[0] = "," + ",".join(labels) + separators[0]  # the header row
    return _fill_g15(separators, matrix)


def _emit(text: str, out_path: str | None) -> None:
    if out_path is not None:
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
        residual = abs(certificate - closed)
        # "not <=", so that a NaN residual fails too
        if not residual <= CERTIFICATE_ATOL:
            raise NumericalError(
                f"ghz-table d={d}: the block strategy's value misses the closed form by "
                f"{residual:.3e} (allowed {CERTIFICATE_ATOL:.0e})"
            )
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
        # no header, d or flag text holds a "%", which _fill_g15 would read as a directive
        separators, cells = [",".join(rows[0]) + "\n"], []
        for d, *floats, flag in (row.values() for row in rows):
            separators[-1] += f"{d},"
            separators += [","] * 4 + [f",{_scalar_text(flag)}\n"]
            cells += floats
        _emit(_fill_g15(separators, cells), args.out)
    else:
        _emit(_json_text({"rows": rows}), args.out)
    return 0


def cmd_verify(args) -> int:
    dims = _parse_dims(args.dims)
    names = None if args.suite is None else [args.suite]
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
