"""Output checks and digests for CLI requests.

``problems`` returns what is wrong with one request's result, as a list of
messages; an empty list means the request passed.  A request fails on a
non-zero exit code, on output that does not parse, and on any broken
invariant below.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re

# Absolute slack for the bound sandwich and the GHZ-table agreement.
EPS = 1e-9

_SUITE_LINE = re.compile(r"^(\S+): (PASS|FAIL) \((\d+) checks\)")
_SUMMARY = re.compile(r"^suites passed: (\d+)/(\d+)$")


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()


def _option(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _dim(payload) -> int:
    d = payload["d"]
    if not isinstance(d, int) or d < 2:
        raise ValueError(f"bad d {d!r}")
    return d


def _check_basis(out, argv):
    payload = json.loads(out)
    d = _dim(payload)
    operators = payload["operators"]
    if len(operators) != d * d - 1 or any(len(op) != d * d for op in operators):
        return [f"basis for d={d} has the wrong shape"]
    return []


def _check_correlation(out, argv):
    size = int(_option(argv, "--dim")) ** 2 - 1
    if _option(argv, "--output", "json") == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        table = [[float(v) for v in row[1:]] for row in rows[1:]]
        shape_ok = len(rows[0]) == size + 1
    else:
        table = json.loads(out)["T"]
        shape_ok = True
    if not shape_ok or len(table) != size or any(len(row) != size for row in table):
        return [f"correlation matrix is not {size}x{size}"]
    return []


def _check_bounds(out, argv):
    payload = json.loads(out)
    if not payload["lower"] <= payload["upper"]:
        return [f"bounds lower {payload['lower']!r} > upper {payload['upper']!r}"]
    return []


def _check_optimize(out, argv, ref):
    payload = json.loads(out)
    value, lower, upper = payload["value"], payload["lower_bound"], payload["upper_bound"]
    found = []
    if not lower - EPS <= value <= upper + EPS:
        found.append(f"optimize value {value!r} outside [{lower!r}, {upper!r}]")
    if value < ref["value"] - EPS:
        found.append(f"optimize value {value!r} below reference {ref['value']!r}")
    return found


def _check_ghz_table(out, argv):
    if _option(argv, "--output", "json") == "csv":
        rows = [{k: float(v) for k, v in row.items() if k != "upper_improves_tsirelson"}
                for row in csv.DictReader(io.StringIO(out))]
    else:
        rows = json.loads(out)["rows"]
    found = []
    for row in rows:
        for column in ("seesaw", "certificate"):
            if abs(row[column] - row["closed_form"]) > EPS:
                found.append(
                    f"ghz-table d={row['d']}: {column} {row[column]!r} "
                    f"!= closed form {row['closed_form']!r}"
                )
    return found or ([] if rows else ["ghz-table printed no rows"])


def _check_verify(out, argv):
    lines = out.splitlines()
    suites = [_SUITE_LINE.match(line) for line in lines[:-1]]
    summary = _SUMMARY.match(lines[-1]) if lines else None
    if not suites or None in suites or summary is None:
        return ["verify output does not parse"]
    found = [f"verify suite {m.group(1)} failed" for m in suites if m.group(2) != "PASS"]
    if summary.group(1) != summary.group(2) or int(summary.group(2)) != len(suites):
        found.append(f"verify summary reads {lines[-1]!r}")
    return found


def problems(argv, code: int, out: str, ref: dict) -> list[str]:
    """What is wrong with a request's exit code and stdout."""
    if code != 0:
        return [f"exit code {code}"]
    command = argv[0]
    try:
        if command == "optimize":
            return _check_optimize(out, argv, ref)
        checker = {
            "basis": _check_basis,
            "correlation": _check_correlation,
            "bounds": _check_bounds,
            "ghz-table": _check_ghz_table,
            "verify": _check_verify,
        }[command]
        return checker(out, argv)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{command} output does not parse: {type(exc).__name__}: {exc}"]
