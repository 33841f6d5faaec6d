"""R classes checked against sympy, sharing no code with the engine.

R_lam is built from its rational-function definition

    R_lam = sum over w in S_n of w( x^lam prod_{i<j} (x_i - t x_j) / (x_i - x_j) )

as a sympy expression, reduced with sympy.cancel, and compared with the
engine's polynomial term by term.
"""

import itertools
import math

import pytest

from hlgysin import hall_littlewood_r

sympy = pytest.importorskip("sympy")

T = sympy.Symbol("t")


def sympy_r(lam):
    n = len(lam)
    xs = sympy.symbols(f"x1:{n + 1}")
    total = 0
    for images in itertools.permutations(xs):
        monomial = math.prod(y**e for y, e in zip(images, lam))
        ratio = math.prod(
            (images[i] - T * images[j]) / (images[i] - images[j])
            for i, j in itertools.combinations(range(n), 2)
        )
        total += monomial * ratio
    return sympy.Poly(sympy.cancel(total), *xs, T)


CASES = [
    lam
    for n in (1, 2, 3)
    for lam in itertools.product(range(3), repeat=n)
] + [(1, 0, 1, 0), (2, 1, 0, 0)]


@pytest.mark.parametrize("lam", CASES, ids=lambda lam: "".join(map(str, lam)))
def test_r_matches_sympy_rational_definition(lam):
    assert dict(sympy_r(lam).terms()) == hall_littlewood_r(len(lam), lam).terms
