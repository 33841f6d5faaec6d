"""Mutation check: does tier-1 catch a wrong line in the engine's hot loops?

Each mutant is one literal source replacement (old -> new), applied to a
fresh temporary copy of src/.  The old text must occur exactly once in the
copy's .py files; a mutant whose text is missing, or occurs twice, fails
the script, so a rename cannot quietly retire a mutant.  Each mutant then
runs its named subset of the tier-1 tests, one mutant after another,
never in parallel, and is killed when that subset fails.

Usage, from anywhere, on Unix, standard library only (pytest and the test
dependencies must be importable):

    python tools/mutants.py            # every mutant
    python tools/mutants.py NAME ...   # only these

The unmutated copy runs every subset first, and a failure there aborts
the run.  A mutant's run that outlasts five times the unmutated one, plus
30 s, counts as killed.  Exit codes: 0 every mutant killed or listed in
EQUIVALENT, 1 a mutant that is not listed survived, 2 a mutant's text is
missing or not unique, or the unmutated subsets fail.
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# address space of one test run; a mutant that grows past it fails with a
# MemoryError instead of taking the machine's memory
MEMORY_LIMIT = 2 << 30

# named tier-1 subsets, fastest first so that -x stops a killed mutant early
SUBSETS = {
    "engine": [
        "tests/test_packed.py",
        "tests/test_gysin.py",
        "tests/test_antisym.py",
        "tests/test_identities.py",
        "tests/test_hallittlewood_properties.py",
        "tests/test_hallittlewood.py",
    ],
    # the coset form first: a broken Vandermonde quotient fails there at
    # once, where test_polyring's exponents near 2**64 would first walk
    # their failing division through every degree level
    "division": [
        "tests/test_hallittlewood.py",
        "tests/test_polyring.py",
        "tests/test_polyring_properties.py",
    ],
    "inputs": [
        "tests/test_input_checks.py",
        "tests/test_polyring.py",
        "tests/test_symgroup.py",
        "tests/test_gysin.py",
        "tests/test_identities.py",
    ],
}

# (name, subset, old, new)
MUTANTS = [
    # antisym._row_image
    (
        "row-image-sign",
        "engine",
        "sign = 1 if u > v else -1",
        "sign = 1 if u < v else -1",
    ),
    (
        "row-image-floor",
        "engine",
        "floor = -(-(u + sum(beta) - r) // (width + 1))",
        "floor = 1 - (-(u + sum(beta) - r) // (width + 1))",
    ),
    (
        "row-image-dominance",
        "engine",
        "if sub[j] <= e:",
        "if sub[j] < e:",
    ),
    # antisym._divided_difference_tower: a repeated u of the block adds once
    (
        "row-repeated-u",
        "engine",
        "            if u == prev:\n                continue\n",
        "",
    ),
    # gysin
    (
        "pieri-binomial",
        "engine",
        "coeff *= math.comb(r + left, r)",
        "coeff *= math.comb(r + left + 1, r)",
    ),
    # gysin._grassmann_input: the product of two packed polynomials in t
    (
        "add-t-product-exponent",
        "engine",
        "reps[key] = get(key, 0) + u * v",
        "reps[key] = get(key, 0) + u + v",
    ),
    (
        "elementary-suffix-memo-key",
        "engine",
        "products = pieri.get(ks[1:])",
        "products = pieri.get(ks[2:])",
    ),
    (
        "merge-runs-word-order",
        "engine",
        "for k in range(offset + q, offset, -1):",
        "for k in range(offset + 1, offset + q + 1):",
    ),
    # polyring.divide_by_vandermonde
    (
        "vandermonde-pair-order",
        "division",
        "    for i in range(1, n):\n        # x_i is field i - 1",
        "    for i in range(n - 1, 0, -1):\n        # x_i is field i - 1",
    ),
    (
        "vandermonde-carry",
        "division",
        "s = get(k, 0) + c",
        "s = get(k, 0) - c",
    ),
    # hallittlewood: the coset form's certificate
    (
        "certificate-point",
        "division",
        "base[:j] + base[:1] + base[j + 1 :]",
        "base[:j] + base[1:2] + base[j + 1 :]",
    ),
    (
        "certificate-t",
        "division",
        "v *= y[i - 1] - t * y[j - 1]",
        "v *= y[i - 1] + t * y[j - 1]",
    ),
    # hallittlewood._p_orbits: P is R's exact orbits each divided by v
    (
        "divided-orbits",
        "engine",
        "return {key: f.divide_exact(v) for key, f in orbits.items()}",
        "return orbits",
    ),
    # hallittlewood._class_norm: an orbit's norm counts each of its terms
    (
        "class-norm-orbit-size",
        "engine",
        "total += size * _norm(f)",
        "total += _norm(f)",
    ),
    # polyring: the packed t and its balanced digits
    (
        "packed-digit-borrow",
        "engine",
        "if d >= half:",
        "if d > half:",
    ),
    (
        "packed-digit-shift",
        "engine",
        "v = (v - d) >> bits",
        "v = (v - d) >> (bits - 1)",
    ),
    (
        "packed-field-edge",
        "engine",
        "while 1 << (bits - 1) <= bound:",
        "while 1 << (bits - 1) < bound:",
    ),
    (
        "packed-t-value",
        "engine",
        "return 1 << bits",
        "return (1 << bits) + 1",
    ),
    # polyring._inversions, behind every sign; operator.ge would be an
    # equivalent mutant, as every caller passes distinct entries
    (
        "inversions-flipped",
        "engine",
        "starmap(operator.gt,",
        "starmap(operator.lt,",
    ),
    # identities._witness: equal orbit keys do not make equal sides
    (
        "witness-compares-keys",
        "engine",
        "lhs == rhs",
        "lhs.keys() == rhs.keys()",
    ),
    # polyring._checked_int and _checked_ints
    (
        "checked-int-takes-bool",
        "inputs",
        "if type(value) is not int:",
        "if not isinstance(value, int):",
    ),
    (
        "checked-ints-take-bool",
        "inputs",
        "if type(v) is not int or",
        "if not isinstance(v, int) or",
    ),
    (
        "checked-int-bound-exclusive",
        "inputs",
        "if least is not None and value < least:",
        "if least is not None and value <= least:",
    ),
    (
        "checked-ints-bound-exclusive",
        "inputs",
        "least is not None and v < least",
        "least is not None and v <= least",
    ),
    (
        "checked-ints-take-non-iterable",
        "inputs",
        "    except TypeError:\n        pass\n",
        "    except TypeError:\n        return values\n",
    ),
]

# name -> why the mutant cannot change any result; such a survivor passes
EQUIVALENT = {}


def _copy_src(dest):
    shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return sorted((dest / "src").rglob("*.py"))


def _apply(files, old, new):
    """Replace old by new in the one file that holds it; the number of
    occurrences across all files, which must be 1 for the edit to be made."""
    hits = [(path, path.read_text()) for path in files]
    count = sum(text.count(old) for _, text in hits)
    if count == 1:
        path, text = next((p, t) for p, t in hits if old in t)
        path.write_text(text.replace(old, new))
    return count


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def _run_subset(src, subset, timeout=None):
    """"passed", "failed" or "timed out": the subset run against the
    package under src."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    try:
        done = subprocess.run(
            cmd + SUBSETS[subset],
            cwd=ROOT,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=timeout,
            preexec_fn=_limit_memory,
        )
    except subprocess.TimeoutExpired:
        return "timed out"
    return "passed" if done.returncode == 0 else "failed"


def main(argv):
    chosen = [m for m in MUTANTS if not argv or m[0] in argv]
    unknown = set(argv) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}")
        return 2
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tmp = Path(tmp)
        _copy_src(tmp / "clean")
        budget = {}  # subset -> seconds a mutant may take before it counts as killed
        for subset in sorted({m[1] for m in chosen}):
            started = time.perf_counter()
            if _run_subset(tmp / "clean" / "src", subset) != "passed":
                print(f"the unmutated subset {subset!r} fails; nothing to measure")
                return 2
            budget[subset] = 30 + 5 * (time.perf_counter() - started)
        missing, killed, survivors = [], [], []
        for name, subset, old, new in chosen:
            work = tmp / name
            count = _apply(_copy_src(work), old, new)
            if count != 1:
                missing.append(name)
                print(f"{name:32} MISSING: its text occurs {count} times in src/", flush=True)
                continue
            started = time.perf_counter()
            outcome = _run_subset(work / "src", subset, budget[subset])
            if outcome != "passed":
                killed.append(name)
                verdict = "killed" if outcome == "failed" else f"killed, {outcome}"
            elif name in EQUIVALENT:
                verdict = f"survived, equivalent: {EQUIVALENT[name]}"
            else:
                survivors.append(name)
                verdict = "SURVIVED"
            elapsed = time.perf_counter() - started
            print(f"{name:32} {verdict} ({subset}, {elapsed:.1f} s)", flush=True)
            shutil.rmtree(work)
    ran = len(chosen) - len(missing)
    print(f"{len(killed)} of {ran} mutants killed; survivors: {', '.join(survivors) or 'none'}")
    if missing:
        print(f"missing: {', '.join(missing)}")
        return 2
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
