"""Check the benchmark's outputs against their pinned digests.

For each workload, runs one repetition of the benchmark worker in a fresh
process,

    python3 -I bench/worker.py WORKLOAD 1 0 0

and compares the digest of its rendered outputs with the table below.  The
outputs do not depend on the seed or on timing, so a changed digest means
the engine computed something else.  Only bench/ is read; nothing under it
is changed.

Usage, from anywhere, standard library only:

    python tools/bench_digests.py            # every workload
    python tools/bench_digests.py NAME ...   # only these

Exit codes: 0 every digest matches and no instance failed, 1 a digest
differs, an instance failed or the worker did not print its result, 2 an
unknown workload was named.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# workload -> sha256 of its rendered outputs, seed 1
DIGESTS = {
    "verify-tminus1": "b3e4f3ce268f75fdf74a36063edd839f6ef5263ee346b24cc061d235f6b8b3c4",
    "compute-classes": "8be233a03328c5583c2d7f931fd3dcdb11fcc70c8537f712c813cd5050999124",
    "oracles-schur": "a40f3315729d35fb5e394dd6f142900b2930513c0eb11a4efe92a8e40d94d61f",
    "classify-divisibility": "ed7cf65552aa4ed470d727fa4170e9f00b23aa8555a1ebed6e72b75736a3f01f",
}


def check(workload):
    """None when the workload's worker reproduces its digest with no failed
    instance, otherwise what went wrong."""
    cmd = [sys.executable, "-I", str(ROOT / "bench" / "worker.py"), workload, "1", "0", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        return f"the worker exited with {done.returncode}:\n{done.stderr}"
    result = json.loads(lines[-1])
    if result["failed"] or result["problems"]:
        return f"{result['failed']} of {result['attempted']} failed; {result['problems']}"
    if result["digest"] != DIGESTS[workload]:
        return f"digest {result['digest']}, pinned {DIGESTS[workload]}"
    return None


def main(argv):
    unknown = set(argv) - DIGESTS.keys()
    if unknown:
        print(f"unknown workloads: {', '.join(sorted(unknown))}")
        return 2
    bad = 0
    for workload in argv or DIGESTS:
        problem = check(workload)
        print(f"{workload:24} {'ok' if problem is None else 'FAILED: ' + problem}", flush=True)
        bad += problem is not None
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
