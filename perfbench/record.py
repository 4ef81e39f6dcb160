"""Record reference.json: the answer to every request any workload can send.

Run from the repository root, at the commit whose outputs are the reference:

    python3 perfbench/record.py

Each alternative request is sent once.  Its entry holds the sha256 of its
stdout; an ``optimize`` entry also holds the value found, which later runs
must reach.  If any request fails its checks, nothing is written and the
script exits non-zero.
"""

from __future__ import annotations

import importlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

# run is imported before anything loads numpy, so that its BLAS thread
# setting holds here too: the digests depend on the BLAS thread count.
from run import HERE, OUT, SRC, call

import checks
import workloads


def main() -> int:
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("qchsh.cli")
    keys = workloads.all_keys()
    OUT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="record-", dir=OUT))
    entries, bad = {}, []
    try:
        for request in workloads.build_requests(keys, work_dir):
            code, out, _, _, crash = call(cli.main, request.argv)
            entry = {"sha256": checks.digest(out)}
            if request.argv[0] == "optimize" and code == 0:
                entry["value"] = json.loads(out)["value"]
            found = [crash] if crash else checks.problems(request.argv, code, out, entry)
            if found:
                bad.append((request.key, found))
            entries[request.key] = entry
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for key, found in bad:
        print(f"FAIL {key}: {found}", file=sys.stderr)
    if bad:
        return 1
    payload = {
        "note": "Outputs of the qchsh CLI at the commit that added this benchmark.",
        "requests": entries,
    }
    (HERE / "reference.json").write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                                         encoding="utf-8")
    print(f"recorded {len(entries)} requests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
