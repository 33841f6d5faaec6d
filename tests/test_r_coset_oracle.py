"""R_lam for n = 6..10 checked at rational points against the coset formula.

For a sequence lam whose level sets are contiguous (Macdonald III (2.2),
(2.14)),

    R_lam = v_lam(t) * sum over w in S_n / S_n^lam of
            w( x^lam * prod_{i<j, lam_i != lam_j} (x_i - t x_j) / (x_i - x_j) ),

where S_n^lam permutes positions with equal entries and v_lam(t) is the
product of the t-factorials of the entries' multiplicities.  The sum is
evaluated with fractions.Fraction at seeded distinct nonzero integers and an
integer t, and compared with the engine's polynomial evaluated there.  The
cosets and the t-factorials are enumerated here with itertools; nothing of
hlgysin is used but the value under test.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from hlgysin import hall_littlewood_r

T_VALUES = (2, -3)


def t_factorial_value(m, t):
    return math.prod(sum(t**k for k in range(i)) for i in range(1, m + 1))


def cosets(x, sizes):
    """One ordering y of the values x per coset w S_n^lam: the values handed
    to each level set, in order, for level sets of the given sizes."""
    if not sizes:
        yield ()
        return
    for chosen in itertools.combinations(range(len(x)), sizes[0]):
        rest = [xk for k, xk in enumerate(x) if k not in chosen]
        for tail in cosets(rest, sizes[1:]):
            yield tuple(x[k] for k in chosen) + tail


def coset_formula_value(lam, x, t):
    """The coset sum times v_lam(t) at the point x, exactly."""
    sizes = [len(list(group)) for _, group in itertools.groupby(lam)]
    if len(sizes) != len(set(lam)):
        raise ValueError(f"the coset formula needs contiguous level sets: {lam!r}")
    v = math.prod(t_factorial_value(m, t) for m in sizes)
    pairs = [
        (i, j) for i, j in itertools.combinations(range(len(lam)), 2) if lam[i] != lam[j]
    ]
    total = Fraction(0)
    # the summand does not depend on the order inside a contiguous level set
    for y in cosets(x, sizes):
        num = math.prod(yi**e for yi, e in zip(y, lam))
        den = 1
        for i, j in pairs:
            num *= y[i] - t * y[j]
            den *= y[i] - y[j]
        total += Fraction(num, den)
    return v * total


def point(lam):
    rng = random.Random("".join(map(str, lam)))
    return rng.sample([k for k in range(-12, 13) if k], len(lam))


def partitions(n, top):
    return [
        tuple(sorted(parts, reverse=True))
        for parts in itertools.combinations_with_replacement(range(top + 1), n)
    ]


CASES = (
    partitions(6, 2)
    + partitions(7, 2)
    + [(0,) * 6 + (1,)]
    + [(2, 2, 1, 1) + (0,) * 4, (2, 1) + (0,) * 6, (1,) * 4 + (0,) * 4, (0,) * 7 + (1,)]
    # above the CLI's bound: 72, 90, 720 and 1,260 cosets
    + [(2, 1) + (0,) * 7, (2, 1) + (0,) * 8, (3, 2, 1) + (0,) * 7, (2, 2, 1, 1) + (0,) * 6]
)


@pytest.mark.parametrize("lam", CASES, ids=lambda lam: "".join(map(str, lam)))
def test_r_matches_the_coset_formula_at_rational_points(lam):
    r = hall_littlewood_r(len(lam), lam)
    x = point(lam)
    for t in T_VALUES:
        assert r.eval_at(x, t) == coset_formula_value(lam, x, t)
