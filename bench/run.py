"""hlgysin benchmark: one workload, cold processes, every metric by name.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the engine is always imported from the src/ directory
next to this bench/ directory, and the run is refused if Python finds
another copy.  Each repetition is a fresh process (bench/worker.py) with
empty caches, because every CLI call of hlgysin pays for them.  Processes
run one at a time.

Engine times are reported in reference units (ref): each repetition's
times divided by the mean time of the reference task it ran between its
instances (bench/reference.py), so that the host's drifting speed cancels.

--trace 0 runs SETUP_PROBES set-up-only processes, then repetitions until
--seconds is used up (at least one), and reports the end-to-end metrics:
the median setup_s (seconds), wall_ref and peak_rss_mb over processes,
and the 50th and 90th percentiles of the times of every instance of every
repetition.
--trace 1 runs one repetition without and one with the tracer and reports
the per-layer metrics of the traced one, plus trace_overhead_ratio.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Lines before it, each starting with '#', give the run's
interpreter, machine, source digest and seed, every metric with its unit,
the same times in seconds and milliseconds, the instance count and
failed_ratio.  The exit code is 1 when an output
is wrong or two repetitions disagree, 2 when the engine cannot be found
or a repetition crashes.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracer import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("wall_ref", "ref"),
    ("instance_ref_p50", "ref"),
    ("instance_ref_p90", "ref"),
    ("peak_rss_mb", "MB"),
)
SETUP_PROBES = 5
HARD_LIMIT_S = 170  # every process of a run ends within this


class RepetitionFailed(Exception):
    pass


def repetition(workload, seed, trace, deadline, setup_only=False):
    """Run bench/worker.py in a fresh process and return its JSON result."""
    cmd = [
        sys.executable, "-I", str(BENCH / "worker.py"),
        workload, str(seed), str(trace), repr(time.monotonic()),
    ] + (["--setup-only"] if setup_only else [])
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise RepetitionFailed(f"repetition of {workload} ran past {HARD_LIMIT_S}s") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode:
        raise RepetitionFailed(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def git_sha():
    """HEAD of this checkout, read from .git without leaving it; None if absent."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hlgysin").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_metadata(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
        "machine": f"{platform.machine()} {platform.system()} {platform.release()}",
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
    }


def percentiles(times):
    """50th and 90th percentile of the times of every instance of every
    repetition."""
    times = sorted(times)
    return statistics.median(times), statistics.quantiles(times, n=10)[8]


def in_ref(rep):
    return [t / rep["ref_s"] for t in rep["instance_s"]]


def untraced_metrics(reps, setups):
    p50, p90 = percentiles(t for rep in reps for t in in_ref(rep))
    return {
        "setup_s": statistics.median(setups),
        "wall_ref": statistics.median(rep["wall_s"] / rep["ref_s"] for rep in reps),
        "instance_ref_p50": p50,
        "instance_ref_p90": p90,
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
    }


def seconds_lines(reps):
    """The engine times as measured, for reading: they carry the drift."""
    p50, p90 = percentiles(t for rep in reps for t in rep["instance_s"])
    median = lambda key: statistics.median(rep[key] for rep in reps)
    return [
        f"wall_s = {median('wall_s'):.6g} s",
        f"instance_ms_p50 = {1000 * p50:.6g} ms",
        f"instance_ms_p90 = {1000 * p90:.6g} ms",
        f"ref_ms = {1000 * median('ref_s'):.6g} ms (1 ref)",
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "hlgysin" / "__init__.py").is_file():
        print(f"no hlgysin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    began = time.monotonic()
    deadline = began + HARD_LIMIT_S
    run = functools.partial(repetition, args.workload, args.seed, deadline=deadline)
    try:
        if args.trace:
            reps = [run(trace=0), run(trace=1)]
        else:
            setups = [run(trace=0, setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]
            reps = []
            while True:
                started = time.monotonic()
                reps.append(run(trace=0))
                now = time.monotonic()
                if now - began + (now - started) > args.seconds:
                    break
    except RepetitionFailed as exc:
        print(exc, file=sys.stderr)
        return 2

    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    problems = sorted({p for rep in reps for p in rep["problems"]})
    digests = {rep["digest"] for rep in reps}
    if len(digests) > 1:
        problems.append("repetitions rendered different outputs")
    correct = failed == 0 and not problems

    if args.trace:
        plain, traced = (rep["wall_s"] / rep["ref_s"] for rep in reps)
        values = dict(reps[1]["layers"], trace_overhead_ratio=traced / plain)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        values = untraced_metrics(reps, setups + [rep["setup_s"] for rep in reps])
        units = dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    meta = run_metadata(args)
    meta["repetitions"] = len(reps)
    print("# run " + json.dumps(meta))
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        for line in seconds_lines(reps):
            print(f"# as measured: {line}")
    print(f"# instances = {reps[0]['attempted']} timed per repetition, {attempted} in all")
    print(f"# failed_ratio = {failed / attempted:.6g} ({failed} of {attempted})")
    if args.trace and reps[1]["unmeasured"]:
        print("# unmeasured = " + ", ".join(reps[1]["unmeasured"]))
    for problem in problems:
        print(f"# problem: {problem}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
