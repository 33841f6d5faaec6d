"""The benchmark's workloads: inputs from a seed, engine calls, checks.

A workload is a list of instances made from ``random.Random(seed)``, a call
that turns one instance into engine output through the package's public
functions, an oracle from ``oracles`` that judges that output, and a
canonical rendering used to compare outputs byte for byte between runs.
Families are fixed, and the seed picks only the oracles' evaluation points,
which cost the engine nothing, so every seed asks for the same work.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable

import oracles


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable  # random.Random -> list of instances
    call: Callable  # (engine package, instance) -> output
    check: Callable  # (instance, output) -> bool
    render: Callable  # output -> str, canonical
    check_all: Callable = None  # instances -> list of problems with the set


def render_poly(poly):
    """Canonical text of a Polynomial's terms, read without engine code."""
    return repr(sorted(poly.terms.items()))


def partitions(length, bound):
    return [
        seq for seq in itertools.product(range(bound, -1, -1), repeat=length)
        if all(a >= b for a, b in zip(seq, seq[1:]))
    ]


def strict_partitions(max_length, bound):
    return [
        nu for k in range(max_length + 1)
        for nu in itertools.combinations(range(bound, 0, -1), k)
    ]


def stratified_sample(population, key, size, rng):
    """``size`` items without replacement.  Each stratum gets its
    proportional share (largest remainders, ties by stratum key), so the
    shares do not depend on the seed; the items within it are drawn at
    random."""
    strata = {}
    for item in population:
        strata.setdefault(key(item), []).append(item)
    total = len(population)
    quotas = {k: size * len(v) // total for k, v in strata.items()}
    by_remainder = sorted(strata, key=lambda k: (-(size * len(strata[k]) % total), k))
    for k in by_remainder[: size - sum(quotas.values())]:
        quotas[k] += 1
    return [item for k in sorted(strata) for item in rng.sample(strata[k], quotas[k])]


def interleaved(instances):
    """The instances in one fixed shuffled order, the same for every seed.
    Each size is spread over the whole run, so a percentile averages the
    machine's drifting speed, and which instance fills a shared cache does
    not depend on the seed."""
    instances = list(instances)
    random.Random(0).shuffle(instances)
    return instances


def point(rng, n):
    """Distinct nonzero integers, an evaluation point for an oracle."""
    return tuple(rng.sample([v for v in range(-9, 10) if v], n))


# ---------------------------------------------------------------------- #
# verify-tminus1: the t = -1 push-forward identity, acceptance family


def _tminus1_make(rng):
    """The acceptance family up to n = 5, and the pairs of weight at most 2
    at n = 6, where the push-forward's cost grows tenfold; the seed changes
    nothing."""
    return interleaved(
        (n, q, nu, sigma)
        for n in range(2, 7)
        for q in range(1, n)
        for nu in strict_partitions(q, 3)
        for sigma in strict_partitions(n - q, 3)
        if not set(nu) & set(sigma)  # shared parts are skipped, not timed
        and (n < 6 or sum(nu) + sum(sigma) <= 2)
    )


def _tminus1_d(instance):
    n, q, nu, sigma = instance
    return oracles.t_minus1_d(n, q, len(nu), len(sigma))


def _tminus1_check(instance, report):
    return report.passed and report.detail == f"d={_tminus1_d(instance)}"


def _tminus1_check_all(instances):
    ds = [_tminus1_d(instance) for instance in instances]
    problems = []
    if 0 not in ds:
        problems.append("no instance with d = 0")
    if not any(abs(d) >= 2 for d in ds):
        problems.append("no instance with |d| >= 2")
    return problems


# ---------------------------------------------------------------------- #
# compute-classes: R and P up to n = 7

# The one n = 7 sequence: it builds the 136,636-term t-twisted Vandermonde.
N7_SEQUENCE = (0,) * 6 + (1,)


def contiguous_sequences(n, bound):
    return [
        seq for seq in itertools.product(range(bound + 1), repeat=n)
        if oracles.has_contiguous_level_sets(seq)
    ]


def _classes_make(rng):
    """The contiguous sequences with entries <= 2 at n = 4 and 5, those
    with entries <= 1 and the partitions with parts <= 2 at n = 6, and one
    sequence at n = 7; the seed changes nothing."""
    n6 = sorted(set(contiguous_sequences(6, 1)) | set(partitions(6, 2)))
    return interleaved(
        [(4, seq) for seq in contiguous_sequences(4, 2)]
        + [(5, seq) for seq in contiguous_sequences(5, 2)]
        + [(6, seq) for seq in n6]
        + [(7, N7_SEQUENCE)]
    )


def _classes_call(engine, instance):
    n, seq = instance
    return engine.hall_littlewood_r(n, seq), engine.hall_littlewood_p(n, seq)


def _classes_check(instance, output):
    _, seq = instance
    r, p = output
    return oracles.r_at_t1_is_orbit(r.terms, seq) and oracles.r_is_p_times_v(
        r.terms, p.terms, seq
    )


# ---------------------------------------------------------------------- #
# oracles-schur: Jacobi-Trudi Schur S and the recursive Schur P

SCHUR_S_FAMILIES = ((3, 4), (4, 4), (5, 2))  # (n, largest part)
SCHUR_P_FAMILIES = ((4, 4), (5, 4), (6, 4))


def _schur_make(rng):
    return interleaved([
        ("s", lam, n, point(rng, n))
        for n, bound in SCHUR_S_FAMILIES
        for lam in partitions(n, bound)
    ] + [
        ("p", nu, n, point(rng, n))
        for n, bound in SCHUR_P_FAMILIES
        for nu in strict_partitions(n, bound)
    ])


def _schur_call(engine, instance):
    kind, shape, n, _ = instance
    if kind == "s":
        return engine.schur_s(shape, n)
    return engine.schur_p_recursive(shape, n)


def _schur_check(instance, poly):
    kind, shape, n, at = instance
    if kind == "s":
        return oracles.schur_s_ok(poly.terms, shape, n, at)
    return oracles.schur_p_ok(poly.terms, shape, n, at)


# ---------------------------------------------------------------------- #
# classify-divisibility: coset form and normalizer, findings included

N5_SAMPLE = 50


def _classify_make(rng):
    """Every sequence with entries <= 3 up to n = 4, and a fixed sample at
    n = 5 spread over the strata (content, contiguous or not); the seed
    changes nothing, because a seeded sample would change the cost."""
    instances = [
        (n, seq) for n in range(1, 5) for seq in itertools.product(range(4), repeat=n)
    ]
    n5 = itertools.product(range(4), repeat=5)
    stratum = lambda seq: (tuple(sorted(seq)), oracles.has_contiguous_level_sets(seq))
    sample = stratified_sample(list(n5), stratum, N5_SAMPLE, random.Random(0))
    return interleaved(instances + [(5, seq) for seq in sorted(sample)])


def _classify_call(engine, instance):
    """(coset form defined and equal to R, normalizer divides R)."""
    n, seq = instance
    try:
        coset_ok = engine.hall_littlewood_r_coset(n, seq) == engine.hall_littlewood_r(n, seq)
    except engine.NotDivisibleError:
        coset_ok = False
    try:
        engine.hall_littlewood_p(n, seq)
        v_divides = True
    except engine.NotDivisibleError:
        v_divides = False
    return coset_ok, v_divides


def _classify_check(instance, output):
    expected_coset, expected_divides = oracles.expected_classification(instance[1])
    coset_ok, v_divides = output
    return coset_ok == expected_coset and expected_divides in (None, v_divides)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-tminus1",
            _tminus1_make,
            lambda engine, inst: engine.verify_t_minus1(*inst),
            _tminus1_check,
            lambda report: report.line(include_elapsed=False),
            _tminus1_check_all,
        ),
        Workload(
            "compute-classes",
            _classes_make,
            _classes_call,
            _classes_check,
            lambda output: "\n".join(map(render_poly, output)),
        ),
        Workload("oracles-schur", _schur_make, _schur_call, _schur_check, render_poly),
        Workload(
            "classify-divisibility",
            _classify_make,
            _classify_call,
            _classify_check,
            repr,
        ),
    )
}
