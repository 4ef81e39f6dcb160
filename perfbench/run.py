"""Benchmark of the qchsh command line.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one client, closed loop: each request is a call of
``qchsh.cli.main(argv)`` in this process with stdout captured, and the next
request is sent when the previous one has returned.  The seed draws the
workload's request list (workloads.py).  The list is sent once to warm up
and then repeatedly, as whole passes, for ``--seconds`` seconds and at
least MIN_PASSES times.  Every output is checked (checks.py) and its digest
compared with the one recorded in reference.json.

BLAS runs one thread unless the caller sets OPENBLAS_NUM_THREADS or
OMP_NUM_THREADS.

End-to-end metrics (``--trace 0``) are in calibrated seconds.  The speed of
a machine of a few shared cores drifts by up to 2x within a minute, and a
run's fastest repeats are as slow as the rest when the drift lasts the whole
run.  So a fixed kernel that does no qchsh work (``calibration``) runs before
every request and after the last one of a pass.  Each request time is
divided by the mean of the calibration times just before and after it and
multiplied by CAL_SECONDS, the kernel's median time on the machine the
benchmark was written on: a latency is the time the request would take
there, at its typical speed.

- setup_s: median time of ``import qchsh`` in a fresh interpreter, timed
  once before the warm-up and once before each pass (at least
  SETUP_REPEATS times).  It is calibrated in the same way by a pure-Python
  spin loop run in that interpreter just before and after the import.
- wall_s: the time of one pass of the list.  A request's latency is its
  median time over the measured passes, and wall_s their sum.
- requests_per_s: requests in the list divided by wall_s.
- latency_p50_s: median of the requests' latencies.
- latency_tail_s: a percentile of the requests' latencies: the highest of
  TAIL_LADDER with at least ten requests beyond it when the list is sent
  MIN_PASSES times.  A run always measures at least MIN_PASSES passes, and
  the percentile depends only on the list's size, so that it is the same in
  every run of a workload; the report line names it.
- cpu_s: like wall_s, from process user+sys CPU time, calibrated by the
  kernel's CPU time; above wall_s when BLAS runs threads.
- peak_rss_mb: peak resident memory of this process.  Not calibrated.

The failed share of requests, ``failed / attempted`` in the result line, is
reported as fail_ratio on the report lines.

Per-layer metrics (``--trace 1``).  Passes alternate between untraced and
traced.  Spans are recorded around the public functions of each layer
(tracing.py); times are medians over the traced passes, counts are those of
one traced pass and repeat exactly; span times are not calibrated.
trace.overhead_s is the traced wall_s minus the untraced wall_s.
cli.output_bytes and cli.output_drift (requests whose stdout digest differs
from reference.json) are counted per pass.

Earlier lines of stdout are a readable report; the last line is the JSON
result.  The full record of the run, with the machine, the seed and every
latency, is written to ``perfbench/out/``, and a traced run also writes its
spans there.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

# One BLAS thread unless the caller sets these: on a machine of a few shared
# cores, extra BLAS threads time the scheduler rather than the program.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import workloads
from tracing import CLI_SPAN, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 7
# Median wall time of calibration() on the machine the benchmark was written
# on (2 vCPUs of a shared Intel Xeon host, Python 3.11, numpy 2.4, one BLAS
# thread): request times are reported in seconds of that machine.
CAL_SECONDS = 0.0043
# Median time of the import probe's spin loop on that machine.
SPIN_SECONDS = 0.0097
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_PASSES = 6
ENV_KEYS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "QCHSH_THREADS")

# Times ``import qchsh`` in a fresh interpreter, between two runs of a
# pure-Python spin loop (numpy is not loaded before the import).
_IMPORT_PROBE = """
import sys, time
def spin():
    t = time.perf_counter()
    acc = 0
    for i in range(100000):
        acc += i * i % 7
    return time.perf_counter() - t
sys.path.insert(0, sys.argv[1])
before = spin()
t = time.perf_counter()
import qchsh
took = time.perf_counter() - t
print(took, before, spin())
"""


_CAL_RNG = np.random.default_rng(0)
_CAL_MATRIX = _CAL_RNG.standard_normal((9, 9)) + 1j * _CAL_RNG.standard_normal((9, 9))
_CAL_ARRAY = np.arange(1 << 18, dtype=float)


def calibration() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed kernel that does no qchsh work.

    Interpreter work, small-array numpy and LAPACK calls and one 2 MB sweep,
    the kinds of work the requests do; run next to each request, it tells
    how fast the machine is at that moment.
    """
    wall0, cpu0 = time.perf_counter(), time.process_time()
    a = _CAL_MATRIX
    for _ in range(100):
        a = np.einsum("ij,kj->ik", a, a.conj())
        a = a / np.linalg.norm(a)
        np.linalg.eigvalsh(a + a.conj().T)
    acc = 0
    for i in range(12000):
        acc += i * i % 7
    float((_CAL_ARRAY * 1.5).sum())
    return time.perf_counter() - wall0, time.process_time() - cpu0


@dataclass
class Sample:
    key: str
    wall: float
    cpu: float
    cal: tuple[float, float]
    out_bytes: int
    digest: str
    problems: list[str]


@dataclass
class Pass:
    traced: bool
    samples: list[Sample] = field(default_factory=list)
    cal_after: tuple[float, float] = (math.nan, math.nan)
    spans: tuple[int, int] = (0, 0)


def import_time() -> float:
    """Calibrated seconds to import qchsh in a fresh interpreter.

    The import time is divided by the mean time of the spin loops run just
    before and after it and multiplied by SPIN_SECONDS.
    """
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    took, before, after = map(float, proc.stdout.split())
    return SPIN_SECONDS * took / ((before + after) / 2)


def machine_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "env": {key: os.environ.get(key) for key in ENV_KEYS},
    }


def call(main, argv) -> tuple[int, str, float, float, str | None]:
    """Send one request; return exit code, stdout, wall and CPU seconds, and any crash."""
    out = io.StringIO()
    crash = None
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed request; the run goes on
            code, crash = -1, traceback.format_exc(limit=-3).strip()
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return code, out.getvalue(), wall, cpu, crash


def run_pass(requests, main, reference, tracer: Tracer | None, pass_id: int) -> Pass:
    result = Pass(traced=tracer is not None)
    first_span = len(tracer.spans) if tracer else 0
    for index, request in enumerate(requests):
        ref = reference[request.key]
        cal = calibration()
        if tracer:
            tracer.request = f"{pass_id}.{index}"
            span = tracer.begin(CLI_SPAN)
        code, out, wall, cpu, crash = call(main, request.argv)
        if tracer:
            tracer.end(span)
        found = [crash] if crash else checks.problems(request.argv, code, out, ref)
        result.samples.append(
            Sample(request.key, wall, cpu, cal, len(out.encode("utf-8")), checks.digest(out), found)
        )
    result.cal_after = calibration()
    if tracer:
        result.spans = (first_span, len(tracer.spans))
    return result


def tail_percentile(list_size: int) -> float:
    """Highest percentile of TAIL_LADDER with at least 10 of the requests
    sent in MIN_PASSES passes of the list beyond it.

    It depends on the list alone, so every run of a workload reports the same
    percentile however many passes the machine's speed allowed.
    """
    sent = list_size * MIN_PASSES
    for p in TAIL_LADDER:
        if sent - math.ceil(p / 100 * sent) >= 10:
            return p
    return 0.0


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(p / 100 * len(ordered)) - 1, 0)]


def calibrated(passes: list[Pass], kind: str = "wall") -> dict[str, list[float]]:
    """Each request's wall or CPU times, one per pass, in calibrated seconds.

    A time is divided by the mean of the calibration runs just before and
    just after the request, which cancels the speed the shared machine had
    at that moment, and multiplied by CAL_SECONDS.
    """
    i = 0 if kind == "wall" else 1
    times: dict[str, list[float]] = {}
    for p in passes:
        cals = [s.cal[i] for s in p.samples] + [p.cal_after[i]]
        for s, before, after in zip(p.samples, cals, cals[1:]):
            times.setdefault(s.key, []).append(
                CAL_SECONDS * getattr(s, kind) / ((before + after) / 2))
    return times


def pass_time(passes: list[Pass], kind: str = "wall") -> float:
    """Time of one pass of the list: the sum of the requests' median calibrated times."""
    return sum(statistics.median(t) for t in calibrated(passes, kind).values())


def end_to_end(passes: list[Pass], setup_s: float) -> tuple[dict, dict]:
    latencies = [statistics.median(t) for t in calibrated(passes).values()]
    tail_p = tail_percentile(len(latencies))
    wall = sum(latencies)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "requests_per_s": (len(latencies) / wall, "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (percentile(latencies, tail_p), "s"),
        "cpu_s": (pass_time(passes, "cpu"), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, {"tail_percentile": tail_p, "requests": len(latencies)}


def per_layer(traced: list[Pass], untraced: list[Pass], tracer: Tracer, suites,
              reference: dict) -> tuple[dict, dict]:
    rows = []
    for p in traced:
        row = layer_metrics(tracer.spans, *p.spans, tracer.sweeps, suites)
        row["cli.output_bytes"] = sum(s.out_bytes for s in p.samples)
        row["cli.output_drift"] = sum(s.digest != reference[s.key]["sha256"] for s in p.samples)
        rows.append(row)
    metrics = {}
    unsteady = []
    for name, value in rows[0].items():
        values = [row[name] for row in rows]
        if isinstance(value, int) and len(set(values)) > 1:
            unsteady.append(name)
        if isinstance(value, int):
            metrics[name] = (value, "count")
        else:
            unit = "us" if name.endswith("_us") else "ratio" if name.endswith("_ratio") else "s"
            metrics[name] = (statistics.median(values), unit)
    overhead = pass_time(traced) - pass_time(untraced)
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics, {"counts_that_varied": unsteady}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="tiny runs each workload at small dimensions, for the smoke test")
    parser.add_argument("--reference", type=Path, default=HERE / "reference.json")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qchsh" / "cli.py").is_file():
        print(f"perfbench: no qchsh sources at {SRC}", file=sys.stderr)
        return 2
    setup_times = [import_time()]
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("qchsh.cli")
    if Path(cli.__file__).resolve().parent != (SRC / "qchsh").resolve():
        print(f"perfbench: imported qchsh from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    suites = list(importlib.import_module("qchsh.verify").SUITES)
    reference = json.loads(args.reference.read_text(encoding="utf-8"))["requests"]
    keys = workloads.draw_keys(args.workload, args.size, args.seed)

    OUT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    tracer = Tracer() if args.trace else None
    try:
        requests = workloads.build_requests(keys, work_dir)
        passes = [run_pass(requests, cli.main, reference, None, 0)]  # warm-up
        deadline = time.perf_counter() + args.seconds
        while True:
            # Set-up is timed between passes, so that it samples the same
            # stretch of machine load as the requests do.
            setup_times.append(import_time())
            traced = bool(args.trace) and len(passes) % 2 == 0
            started = time.perf_counter()
            if traced:
                tracer.install()
            try:
                passes.append(run_pass(requests, cli.main, reference,
                                       tracer if traced else None, len(passes)))
            finally:
                if traced:
                    tracer.uninstall()
            took = time.perf_counter() - started
            enough = len(passes) - 1 >= (2 if args.trace else MIN_PASSES)
            if enough and time.perf_counter() + took > deadline:
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(import_time())

    measured = passes[1:]
    untraced = [p for p in measured if not p.traced]
    samples = [s for p in passes for s in p.samples]
    failures = [(s.key, msg) for s in samples for msg in s.problems]
    failed = sum(bool(s.problems) for s in samples)
    if args.trace:
        metrics, notes = per_layer([p for p in measured if p.traced], untraced, tracer, suites,
                                   reference)
        tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics, notes = end_to_end(untraced, statistics.median(setup_times))

    record = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace, "machine": machine_info(),
        "passes": len(measured), "requests_per_pass": len(requests),
        "fail_ratio": failed / len(samples), "failures": failures[:20],
        "metrics": {name: value for name, (value, _) in metrics.items()}, **notes,
        "setup_times": setup_times,
        "digests": {s.key: s.digest for s in measured[0].samples},
        "timing_columns": ["key", "wall_s", "cpu_s", "cal_wall_s", "cal_cpu_s"],
        "timings": [{"traced": p.traced, "cal_after": p.cal_after,
                     "requests": [[s.key, s.wall, s.cpu, *s.cal] for s in p.samples]}
                    for p in measured],
    }
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    print(f"# {args.workload} seed {args.seed} size {args.size}: {len(measured)} passes "
          f"of {len(requests)} requests; machine {json.dumps(record['machine'])}")
    print(f"# fail_ratio {record['fail_ratio']:.6g} ({failed} of {len(samples)})")
    for key, msg in failures[:5]:
        print(f"# FAIL {key}: {msg}")
    for name, (value, unit) in metrics.items():
        note = f" (p{notes['tail_percentile']:g} of {notes['requests']} requests)" \
            if name == "latency_tail_s" else ""
        print(f"# {name} = {value!r} {unit}{note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
