"""R classes and exact division checked against sympy, sharing no code
with the engine.

R_lam is built from its rational-function definition

    R_lam = sum over w in S_n of w( x^lam prod_{i<j} (x_i - t x_j) / (x_i - x_j) )

as a sympy expression, reduced with sympy.cancel, and compared with the
engine's polynomial term by term.  Exact division is judged the same way:
f / g reduced by sympy.cancel is a polynomial with integer coefficients
exactly when divide_exact returns it, and otherwise divide_exact raises.
"""

import itertools
import math
import random

import pytest

from hlgysin import NotDivisibleError, Polynomial, hall_littlewood_r

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


# --- exact division ---------------------------------------------------------


def random_polynomial(rng, n, size, x_max=2, t_max=2):
    terms = {}
    for _ in range(size):
        key = tuple(rng.randint(0, x_max) for _ in range(n)) + (rng.randint(0, t_max),)
        terms[key] = terms.get(key, 0) + rng.choice([-3, -2, -1, 1, 2, 3])
    return Polynomial(n, terms)


def random_divisor(rng, kind, n):
    """A nonzero divisor of the given kind in the arity-n ring."""
    while True:
        if kind == "difference":
            i, j = rng.sample(range(1, n + 1), 2)
            q = Polynomial.x(n, i) - Polynomial.x(n, j)
        elif kind == "t-only":
            q = random_polynomial(rng, n, rng.randint(1, 3), x_max=0, t_max=3)
        elif kind == "constant":
            q = Polynomial.constant(n, rng.choice([-6, -3, -2, -1, 2, 3, 4, 6]))
        else:
            q = random_polynomial(rng, n, rng.randint(2, 4))
        if not q.is_zero:
            return q


def to_sympy(poly, gens):
    return sum(c * math.prod(g**e for g, e in zip(gens, key)) for key, c in poly.terms.items())


def sympy_exact_quotient(f, g):
    """The terms of f / g if sympy's reduced quotient is a polynomial with
    integer coefficients, else None."""
    gens = sympy.symbols(f"x1:{f.arity + 1}") + (T,)
    quotient = sympy.cancel(to_sympy(f, gens) / to_sympy(g, gens))
    if not quotient.is_polynomial(*gens):
        return None
    terms = {k: c for k, c in sympy.Poly(quotient, *gens).terms() if c}
    if not all(c.is_integer for c in terms.values()):
        return None
    return {k: int(c) for k, c in terms.items()}


@pytest.mark.parametrize("kind", ["difference", "t-only", "constant", "general"])
def test_divide_exact_matches_sympy_cancel(kind):
    rng = random.Random(kind)
    verdicts = {"p*q": [], "p*q + r": []}
    for _ in range(12):
        n = rng.randint(2, 3)
        p, q = random_polynomial(rng, n, rng.randint(1, 4)), random_divisor(rng, kind, n)
        r = random_polynomial(rng, n, rng.randint(1, 2))
        for form, f in [("p*q", p * q), ("p*q + r", p * q + r)]:
            expected = sympy_exact_quotient(f, q)
            if expected is None:
                with pytest.raises(NotDivisibleError):
                    f.divide_exact(q)
            else:
                assert f.divide_exact(q).terms == expected
            verdicts[form].append(expected is not None)
    assert all(verdicts["p*q"])
    # the perturbed dividends must exercise the raising side, mostly
    assert verdicts["p*q + r"].count(False) > len(verdicts["p*q + r"]) // 2
