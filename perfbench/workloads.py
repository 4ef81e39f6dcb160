"""Request lists of the benchmark workloads.

A request is an argv list for ``qchsh.cli.main``.  A workload is a list of
groups of alternative requests; the seed picks one alternative from each
group and the order in which the picks are sent.  Every alternative has an
entry in ``reference.json`` (digest, and the value of an ``optimize``),
recorded at the commit that added the benchmark, so any seed yields
requests with known answers.

The see-saw requests are fixed; the seed only orders them.  See-saw cost
follows the sweep count, which differs by up to 20x between states (one
state here runs every restart to the 500 cap) and by up to 4x between
optimizer seeds of one state.  When the seed picked each request's optimizer
seed, the time of a seesaw-small-d list spread by 8% over ten seeds
(quartile distance over median) and its p95 latency by 20%, mostly from the
draw rather than from the program.  Where cost does not depend on the input
(bounds, correlation, verify), the seed picks it.

State files are written by the benchmark itself from numpy, so the program
under test receives only their paths.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("seesaw-small-d", "dense-large-d", "mixed-cli")
SIZES = ("full", "tiny")

# Small ghz-table and verify requests so that every layer, including the
# direct CHSH form, GHZ settings and each verify suite, is called in every
# workload and each per-layer time is a measurement rather than an empty sum.
PROBES_FULL = ("ghz-table --dims 2:3 --restarts 2", "verify --dims 2:3 --trials 50")
PROBES_TINY = ("ghz-table --dims 2:2 --restarts 1", "verify --dims 2:2 --trials 10")


@dataclass(frozen=True)
class Request:
    """One CLI call; ``key`` names it in reference.json."""

    key: str
    argv: tuple[str, ...]


def _optimize(d: int, k: int, restarts: int, mode: str = "exact") -> tuple[str]:
    """State ``random:1000+k`` with optimizer seed k, as a group of one."""
    return (f"optimize --state random:{1000 + k} --dim {d} --mode {mode} "
            f"--restarts {restarts} --seed {k}",)


def _states(template) -> tuple[str, ...]:
    """Four alternatives that differ only in a seed."""
    return tuple(template(k) for k in range(4))


def groups(workload: str, size: str) -> list[tuple[str, ...]]:
    """The groups of alternatives a workload's request list is drawn from."""
    tiny = size == "tiny"
    probes = [(key,) for key in (PROBES_TINY if tiny else PROBES_FULL)]
    if workload == "seesaw-small-d":
        if tiny:
            return [_optimize(3, k, 2) for k in range(2)] + probes
        return [_optimize(d, k, 4) for d in (3, 4, 5) for k in range(8, 16)] + probes
    if workload == "dense-large-d":
        bounds_dims, file_dim, corr_dims, basis_dim = (
            ((4, 5), 4, (3,), 3) if tiny else ((16, 20, 24), 16, (12, 14, 16), 16)
        )
        return (
            [_states(lambda k, d=d: f"bounds --state random:{2000 + k} --dim {d}")
             for d in bounds_dims]
            + [_states(lambda k: f"bounds --state file:ginibre-d{file_dim}-s{k}.json")]
            + [_states(lambda k, d=d, fmt=fmt:
                       f"correlation --state random:{3000 + k} --dim {d} --output {fmt}")
               for d in corr_dims for fmt in ("json", "csv")]
            + [(f"basis --dim {basis_dim}",)]
            + probes
        )
    if workload == "mixed-cli":
        if tiny:
            return [("ghz-table --dims 2:3 --restarts 2",), ("verify --dims 2:3 --trials 20",),
                    _optimize(3, 0, 1, "closed-form"), _optimize(4, 0, 1)]
        return (
            [("ghz-table --dims 2:8",), _states(lambda k: f"verify --trials 500 --seed {k}")]
            + [_optimize(4, k, 4, "closed-form") for k in range(2)]
            + [_optimize(d, 0, 2) for d in (8, 10, 12)]
        )
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def all_keys() -> list[str]:
    """Every alternative of every workload and size, without repeats."""
    keys = {}
    for workload in WORKLOADS:
        for size in SIZES:
            for group in groups(workload, size):
                keys.update(dict.fromkeys(group))
    return list(keys)


def draw_keys(workload: str, size: str, seed: int) -> list[str]:
    """The workload's request list for one seed, in the order it is sent."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    keys = [group[int(rng.integers(len(group)))] for group in groups(workload, size)]
    return [keys[i] for i in rng.permutation(len(keys))]


def _state_file_name(key: str) -> str | None:
    for token in key.split():
        if token.startswith("file:"):
            return token[len("file:"):]
    return None


def write_state_file(path: Path) -> None:
    """Write a Ginibre-induced random state named ``ginibre-d<d>-s<seed>.json``."""
    d_text, seed_text = path.stem.split("-")[1:]
    d, seed = int(d_text[1:]), int(seed_text[1:])
    rng = np.random.default_rng([seed, d])
    g = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
    rho = g @ g.conj().T
    rho = 0.5 * (rho + rho.conj().T) / np.trace(rho).real
    payload = {"d": d, "rho": [[[z.real, z.imag] for z in row] for row in rho.tolist()]}
    path.write_text(json.dumps(payload), encoding="utf-8")


def build_requests(keys: list[str], work_dir: Path) -> list[Request]:
    """Resolve state-file names into paths under ``work_dir``, writing each file once."""
    requests = []
    for key in keys:
        argv = key.split()
        name = _state_file_name(key)
        if name is not None:
            path = work_dir / name
            if not path.exists():
                write_state_file(path)
            argv = [f"file:{path}" if token == f"file:{name}" else token for token in argv]
        requests.append(Request(key, tuple(argv)))
    return requests
