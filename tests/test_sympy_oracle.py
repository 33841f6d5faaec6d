"""R classes, exact division and partial-flag push-forwards checked against
sympy, sharing no code with the engine.

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
from hlgysin.gysin import RootSplit, partial_flag_pushforward

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


# --- partial-flag push-forward ----------------------------------------------

# (blocks in the order given to RootSplit); three blocks or more, some of
# them not runs of consecutive indices
SPLITS = [
    ((1,), (2,), (3,)),
    ((1, 2), (3,), (4,)),
    ((3,), (1, 4), (2,)),
    ((1, 2), (3, 4), (5,)),
    ((2, 5), (1,), (3, 4)),
    ((1,), (2,), (3,), (4, 5)),
]


def sympy_pushforward(f, blocks, xs):
    """(1 / |U|) sum over w in S_n of w(f / prod_{cross-block i<j} (x_i - x_j)),
    U the Young subgroup of the blocks, reduced by sympy.cancel.

    Each w(f / cross) is sign(w) w(f * within) / V, with V the Vandermonde
    and within the product over same-block pairs, so the sum is taken over
    that one denominator; summing the n! fractions as they stand takes
    sympy minutes at n = 4."""
    block_of = {i: k for k, block in enumerate(blocks) for i in block}
    pairs = list(itertools.combinations(range(len(xs)), 2))
    within = math.prod(xs[i] - xs[j] for i, j in pairs if block_of[i + 1] == block_of[j + 1])
    f_within = sympy.expand(f * within)
    numerator = 0
    for images in itertools.permutations(range(len(xs))):
        sign = (-1) ** sum(a > b for a, b in itertools.combinations(images, 2))
        numerator += sign * f_within.xreplace({x: xs[k] for x, k in zip(xs, images)})
    young_order = math.prod(math.factorial(len(block)) for block in blocks)
    vandermonde = math.prod(xs[i] - xs[j] for i, j in pairs)
    return sympy.cancel(sympy.expand(numerator) / (young_order * vandermonde))


@pytest.mark.parametrize("blocks", SPLITS, ids=str)
def test_partial_flag_pushforward_matches_sympy_rational_sum(blocks):
    n = sum(map(len, blocks))
    xs = sympy.symbols(f"x1:{n + 1}")
    rng = random.Random(repr(blocks))
    g = sum(
        rng.choice([-2, -1, 1, 2]) * T ** rng.randint(0, 2)
        * math.prod(x ** rng.randint(0, 4) for x in xs)
        for _ in range(3)
    )
    # f: g summed over the permutations within each block
    f = sympy.expand(sum(
        g.xreplace(dict(zip(
            (xs[i - 1] for block in blocks for i in block),
            (xs[i - 1] for images in perms for i in images),
        )))
        for perms in itertools.product(*map(itertools.permutations, blocks))
    ))
    expected = sympy.Poly(sympy_pushforward(f, blocks, xs), *xs, T)
    engine_f = Polynomial(n, {k: int(c) for k, c in sympy.Poly(f, *xs, T).terms()})
    pushed = partial_flag_pushforward(engine_f, RootSplit(n, blocks))
    assert not pushed.is_zero
    assert {k: c for k, c in expected.terms() if c} == pushed.terms
