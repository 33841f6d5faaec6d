"""Acceptance gate: one test per criterion, printing one PASS/FAIL line each.

Run `pytest tests/test_acceptance.py -v -s` to see the lines as they happen;
without -s pytest still shows one PASSED/FAILED entry per criterion.

One criterion needs a word of context.  The divisibility criterion, read
literally, quantifies over *all* nonnegative integer sequences.  The engine
falsifies that: whenever equal values of the sequence occupy non-contiguous
positions, the coset-sum formula (with the canonical increasing-on-class
transversal) is not well defined — its cleared numerator is not divisible by
the Vandermonde — and for some of those sequences the normalizer does not
even divide the symmetrized class.  The operation contracts require such
counterexamples to be surfaced as findings, never masked, so the criterion
test pins the exact boundary: both claims hold if and only if the sequence's
level sets are contiguous, and the counterexample lists are frozen below as
regression oracles.  test_criterion_divisibility prints the finding.
"""

import itertools
import random
import re
import time
from contextlib import contextmanager

from conftest import hall_littlewood_p_specialized
from hlgysin import (
    NotDivisibleError,
    Polynomial,
    gaussian_binomial,
    gaussian_binomial_at_minus_one,
    grassmann_pushforward,
    hall_littlewood_p,
    hall_littlewood_r,
    hall_littlewood_r_coset,
    is_partition,
    jacobi_symmetrizer,
    schur_p_coset,
    schur_s,
    straighten_schur_s,
    t_factorial,
)
from hlgysin.identities import InstanceFamily, run_suite
from hlgysin.oracles import schur_p_recursive, schur_s_jacobi_trudi

RANDOM_SEED = 20260814


@contextmanager
def criterion(name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {name}: FAIL ({time.perf_counter() - start:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE {name}: PASS ({elapsed:.1f}s)")
    assert elapsed < budget_seconds, f"{name} exceeded {budget_seconds}s budget"


def has_contiguous_level_sets(seq):
    seen = set()
    prev = object()
    for v in seq:
        if v != prev:
            if v in seen:
                return False
            seen.add(v)
            prev = v
    return True


def test_criterion_lemma_sum():
    with criterion("lemma-sum n=1..6", budget_seconds=30):
        for n in range(1, 7):
            assert hall_littlewood_r(n, (0,) * n) == t_factorial(n).embed(n)


# Sequences with entries <= 3, n = 4, for which the normalizer v_lambda does
# not divide R_lambda.  Frozen engine output; every one is value-interleaved.
V_DOES_NOT_DIVIDE_R = {
    (0, 0, 2, 0), (0, 0, 3, 0), (0, 2, 0, 0), (0, 2, 0, 2), (0, 3, 0, 0),
    (0, 3, 0, 3), (1, 1, 3, 1), (1, 3, 1, 1), (1, 3, 1, 3), (2, 0, 2, 0),
    (2, 0, 2, 2), (2, 2, 0, 2), (3, 0, 3, 0), (3, 0, 3, 3), (3, 1, 3, 1),
    (3, 1, 3, 3), (3, 3, 0, 3), (3, 3, 1, 3),
}


def classify(n, seq):
    """(coset formula defined and equal to the direct class, v divides R)."""
    try:
        coset_ok = hall_littlewood_r_coset(n, seq) == hall_littlewood_r(n, seq)
    except NotDivisibleError:
        coset_ok = False
    try:
        hall_littlewood_p(n, seq)
        v_divides = True
    except NotDivisibleError:
        v_divides = False
    return coset_ok, v_divides


def test_criterion_divisibility():
    with criterion("divisibility n<=4 exhaustive + 200 random n=5", budget_seconds=300):
        observed_v_failures = set()
        interleaved = 0
        total = 0
        for n in range(1, 5):
            for seq in itertools.product(range(4), repeat=n):
                total += 1
                contiguous = has_contiguous_level_sets(seq)
                coset_ok, v_divides = classify(n, seq)
                # the two claims hold exactly on contiguous level sets
                assert coset_ok == contiguous, seq
                if contiguous:
                    assert v_divides, seq
                else:
                    interleaved += 1
                    if not v_divides:
                        observed_v_failures.add(seq)
        assert total == 340
        assert observed_v_failures == V_DOES_NOT_DIVIDE_R

        rng = random.Random(RANDOM_SEED)
        for _ in range(200):
            seq = tuple(rng.randrange(4) for _ in range(5))
            contiguous = has_contiguous_level_sets(seq)
            coset_ok, v_divides = classify(5, seq)
            assert coset_ok == contiguous, seq
            if contiguous:
                assert v_divides, seq

        print(
            "\nREPORTED FINDING: the coset-sum formula (canonical transversal) "
            "agrees with the direct class exactly when equal values of the "
            f"sequence sit in consecutive positions; {interleaved} of {total} "
            "sequences with n<=4, entries<=3 are interleaved counterexamples "
            "(the cleared numerator is not divisible by the Vandermonde)."
        )
        print(
            "REPORTED FINDING: for "
            f"{len(V_DOES_NOT_DIVIDE_R)} of those the normalizer does not even "
            "divide the symmetrized class, e.g. (2,0,2,0) and (0,2,0,2); both "
            "claims hold without exception on partitions and on every "
            "contiguous sequence (540 instances checked, incl. 200 random at n=5)."
        )


def test_criterion_juxtaposition_and_main_theorem():
    with criterion("juxtaposition + main theorem", budget_seconds=600):
        exhaustive = InstanceFamily(n_range=(2, 4), entry_bound=2)
        juxta = run_suite("prop-juxtaposition", exhaustive)
        assert len(juxta) == 306
        assert all(r.passed for r in juxta)

        theorem = run_suite("theorem-main", exhaustive)
        assert len(theorem) == 306
        assert all(r.passed for r in theorem)
        for r in theorem:
            detail = r.detail or ""
            # the scalar v_{lam mu} / (v_lam v_mu) always divides exactly
            assert "coefficient-not-divisible" not in detail
            # fallback evaluation happens only when a class has no
            # normalized form, i.e. only on interleaved sequences
            if detail:
                lam, mu = r.instance["lambda"], r.instance["mu"]
                joined = tuple(lam) + tuple(mu)
                assert not (
                    has_contiguous_level_sets(lam)
                    and has_contiguous_level_sets(mu)
                    and has_contiguous_level_sets(joined)
                ), r.line()

        randomized = InstanceFamily(
            n_range=(5, 5), entry_bound=3, mode="randomized", count=50,
            seed=RANDOM_SEED,
        )
        for identity in ("prop-juxtaposition", "theorem-main"):
            reports = run_suite(identity, randomized)
            assert len(reports) == 50
            assert all(r.passed for r in reports), identity


def test_criterion_t0_schur_identity():
    with criterion("t=0 push-forward identity + straightening", budget_seconds=300):
        reports = run_suite("t0-jlp", InstanceFamily(n_range=(2, 5), entry_bound=3))
        assert len(reports) == 1036
        assert all(r.passed for r in reports)

        # straightening rule vs direct alternant on non-partition sequences
        checked = 0
        for n in range(1, 5):
            delta = tuple(range(n - 1, -1, -1))
            for seq in itertools.product(range(5), repeat=n):
                if is_partition(seq):
                    continue
                checked += 1
                staircase = tuple(s + d for s, d in zip(seq, delta))
                direct = jacobi_symmetrizer(Polynomial.monomial(n, staircase))
                result = straighten_schur_s(seq)
                if result is None:
                    assert direct.is_zero, seq
                else:
                    sign, shape = result
                    assert direct == sign * schur_s(shape, n), seq
        assert checked > 500


def test_criterion_t_minus1_d_coefficient():
    with criterion("t=-1 corollary incl. vanishing and |d|>=2", budget_seconds=300):
        reports = run_suite("t-minus1", InstanceFamily(n_range=(2, 6), entry_bound=3))
        non_skip = [r for r in reports if (r.detail or "") != "skipped-shared-part"]
        assert non_skip
        assert all(r.passed for r in reports)
        d_values = []
        for r in non_skip:
            match = re.search(r"d=(-?\d+)", r.detail or "")
            assert match, r.line()
            d_values.append(int(match.group(1)))
        assert any(d == 0 for d in d_values), "no vanishing instance exercised"
        assert any(abs(d) >= 2 for d in d_values), "no |d| >= 2 instance exercised"


def test_criterion_gaussian_at_minus_one():
    with criterion("Gaussian specialization a,b<=8", budget_seconds=60):
        for a in range(9):
            for b in range(9):
                closed = gaussian_binomial_at_minus_one(a, b)
                substituted = gaussian_binomial(a, b).substitute_t(-1).eval_at([], 0)
                assert closed == substituted
                assert (closed == 0) == (a * b % 2 == 1)


STRICT_IN_STAIRCASE = [
    (), (1,), (2,), (3,), (4,),
    (2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3),
    (3, 2, 1), (4, 2, 1), (4, 3, 1), (4, 3, 2),
    (4, 3, 2, 1),
]


def test_criterion_schur_p_triangle():
    with criterion("Schur P three-way agreement + Jacobi-Trudi", budget_seconds=300):
        assert len(STRICT_IN_STAIRCASE) == 16
        for nu in STRICT_IN_STAIRCASE:
            for n in range(max(len(nu), 1), 7):
                coset = schur_p_coset(nu, n)
                assert schur_p_recursive(nu, n) == coset
                padded = nu + (0,) * (n - len(nu))
                assert hall_littlewood_p_specialized(n, padded, -1) == coset

        for n in range(1, 6):
            for lam in itertools.product(range(5), repeat=n):
                if is_partition(lam):
                    assert schur_s(lam, n) == schur_s_jacobi_trudi(lam, n)


def test_criterion_hand_anchors():
    with criterion("hand-checked anchors", budget_seconds=30):
        y1, y2 = Polynomial.x(2, 1), Polynomial.x(2, 2)
        t = Polynomial.t(2)
        assert hall_littlewood_r(2, (1, 0)) == y1 + y2
        assert hall_littlewood_r(2, (2, 0)) == y1**2 + y1 * y2 + y2**2 - t * y1 * y2
        assert schur_p_coset((2,), 2) == (y1 + y2) ** 2
        assert grassmann_pushforward(y1 - t * y2, 1, 1) == Polynomial.one(2) + t
