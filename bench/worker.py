"""One cold repetition of a workload, in a fresh process.

    python3 -I bench/worker.py WORKLOAD SEED TRACE SPAWNED [--setup-only]

SPAWNED is the parent's time.monotonic() just before it started this
process, so setup_s runs from process start until hlgysin is imported and
the inputs are made.  Every lru_cache starts empty, as it does for a user's
CLI call.  Prints one JSON line: setup_s, wall_s (the time spent in engine
calls, first call to last verdict less the reference tasks between them),
ref_s (the mean time of the reference tasks, see reference.py),
per-instance times, peak RSS, the checked verdicts, a digest of the
rendered outputs and, when TRACE is 1, the per-layer metrics.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def import_engine():
    """Import hlgysin from this checkout's src/ and refuse any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import hlgysin

    if not Path(hlgysin.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"hlgysin was imported from {hlgysin.__file__}, not from {src}")
    return hlgysin


def run_instances(engine, workload, instances, tracer=None):
    """Call the engine on every instance, with the reference task before
    each and after the last; return outputs, per-instance seconds and the
    reference task's seconds.  An instance that raises is recorded with
    output None."""
    outputs, times, refs = [], [], []
    if tracer is not None:
        tracer.install()
    try:
        for instance in instances:
            refs.append(reference.timed())
            began = time.perf_counter()
            try:
                output = workload.call(engine, instance)
            except Exception:
                traceback.print_exc()
                output = None
            times.append(time.perf_counter() - began)
            outputs.append(output)
        refs.append(reference.timed())
    finally:
        if tracer is not None:
            tracer.uninstall()
    return outputs, times, refs


def check_outputs(workload, instances, outputs):
    """(failed count, problems with the instance set, digest of outputs)."""
    failed = 0
    digest = hashlib.sha256()
    for instance, output in zip(instances, outputs):
        try:
            ok = output is not None and workload.check(instance, output)
            text = workload.render(output) if output is not None else "error"
        except Exception:
            traceback.print_exc()
            ok, text = False, "error"
        if not ok:
            failed += 1
            print(f"mismatch: {workload.name} {instance!r}", file=sys.stderr)
        digest.update(text.encode())
        digest.update(b"\0")
    problems = workload.check_all(instances) if workload.check_all else []
    return failed, problems, digest.hexdigest()


def main(argv):
    name, seed, trace, spawned = argv[:4]
    engine = import_engine()
    workload = WORKLOADS[name]
    instances = workload.make(random.Random(int(seed)))
    result = {"setup_s": time.monotonic() - float(spawned)}
    if "--setup-only" in argv:
        print(json.dumps(result))
        return
    tracer = Tracer(engine) if trace == "1" else None
    outputs, times, refs = run_instances(engine, workload, instances, tracer)
    result.update(
        wall_s=sum(times),
        ref_s=sum(refs) / len(refs),
        instance_s=times,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        result.update(layers=tracer.metrics(), unmeasured=tracer.unmeasured)
    failed, problems, digest = check_outputs(workload, instances, outputs)
    result.update(attempted=len(instances), failed=failed, problems=problems, digest=digest)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
