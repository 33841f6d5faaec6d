import itertools
import random
from functools import lru_cache

import pytest

from hlgysin import BlockStructure, NotDivisibleError, Permutation, Polynomial, hall_littlewood_p
from hlgysin.polyring import _pack, _unpack

try:
    import hypothesis
except ImportError:  # the property tests skip themselves with importorskip
    hypothesis = None


def build(arity, *terms):
    """build(2, (3, (1, 0), 2)) -> 3 * x1 * t^2."""
    out = Polynomial.zero(arity)
    for coeff, x_exponents, t_exponent in terms:
        out = out + Polynomial.monomial(arity, x_exponents, t_exponent, coeff)
    return out


def x_degree(p):
    """Total degree in the x-variables (-1 for the zero polynomial)."""
    return max((sum(k[: p.arity]) for k in p.terms), default=-1)


def t_degree(p):
    """Degree in t (-1 for the zero polynomial)."""
    return max((k[p.arity] for k in p.terms), default=-1)


def is_homogeneous_in_x(p):
    return len({sum(k[: p.arity]) for k in p.terms}) <= 1


def vandermonde_quotient_by_factors(p):
    """p / prod_{i<j} (x_i - x_j) by one exact division per factor, pairs in
    lexicographic order, each factor built by the ring's own subtraction."""
    n = p.arity
    for i, j in itertools.combinations(range(1, n + 1), 2):
        p = p.divide_exact(Polynomial.x(n, i) - Polynomial.x(n, j))
    return p


def quotient_or_error(divide, *args):
    """The result of ``divide(*args)``, or the text of the
    NotDivisibleError it raises."""
    try:
        return divide(*args)
    except NotDivisibleError as exc:
        return f"NotDivisibleError: {exc}"


def hall_littlewood_p_specialized(n, seq, t_value):
    """The engine's P_seq with an integer substituted for t (0 gives
    Schur S, -1 Schur P)."""
    return hall_littlewood_p(n, seq).substitute_t(t_value)


@lru_cache(maxsize=None)
def complete_homogeneous(degree, n):
    """h_degree(x_1..x_n): sum of all monomials of the given total degree."""
    if degree < 0:
        return Polynomial.zero(n)
    if degree == 0:
        return Polynomial.one(n)
    terms = {}
    for combo in itertools.combinations_with_replacement(range(n), degree):
        key = [0] * (n + 1)
        for idx in combo:
            key[idx] += 1
        terms[tuple(key)] = 1
    return Polynomial._raw(n, terms)


# the packed t of the engine's small classes, 2**64 (polyring._packed_t)
T = 2**64


def dominant_orbits(f, start=1):
    """The terms of f whose x-exponents weakly decrease from position
    start + 1 on, grouped by orbit representative, each with its exact
    polynomial in t: x-exponents -> {t-exponent: coefficient}.  For f
    symmetric in x_2..x_n, start = 1 gives the (1 | n-1) representatives
    the R tower takes; for f symmetric, start = 0 gives its partition keys.
    The engine's packed orbits are compared with it after unpacked_orbits,
    and fed from it by packed_orbits."""
    n = f.arity
    reps = {}
    for key, c in f.terms.items():
        if all(a >= b for a, b in zip(key[start : n - 1], key[start + 1 : n])):
            reps.setdefault(key[:n], {})[key[n]] = c
    return reps


def block_orbits(f, sizes):
    """The terms of f whose x-exponents weakly decrease within each run of
    consecutive positions of the given sizes (a size may be 0), grouped as
    dominant_orbits groups them, with exact polynomials in t.  For f
    symmetric in those runs they are one term per orbit; passive positions
    are runs of size 1."""
    n = f.arity
    ends = set(itertools.accumulate(sizes))
    pairs = [i for i in range(1, n) if i not in ends]
    reps = {}
    for key, c in f.terms.items():
        if all(key[i - 1] >= key[i] for i in pairs):
            reps.setdefault(key[:n], {})[key[n]] = c
    return reps


def packed_orbits(orbits, c=T):
    """Exact orbits, each {t-exponent: coefficient}, as the engine carries
    them: packed at c, which is T or a constant 0 or -1 at which every
    polynomial is evaluated.  At T every coefficient must fit the field."""
    if c == T:
        assert all(abs(d) < T // 2 for tc in orbits.values() for d in tc.values())
    return {key: _pack({(e,): d for e, d in tc.items()}, c) for key, tc in orbits.items()}


def unpacked_orbits(orbits, c=T):
    """The engine's packed orbits read back as exact polynomials in t.
    unpacked_orbits(e) == r for exact orbits r whose coefficients fit the
    field holds exactly when e == packed_orbits(r), so a comparison
    through it is exact."""
    return {key: {e: d for (e,), d in _unpack(v, c).items()} for key, v in orbits.items()}


def at_c(f, c):
    """f as the engine computes it with the cross factor's constant c: f
    itself at c = T, and f at t = c for c = 0 or -1."""
    return f if c == T else f.substitute_t(c)


def young_symmetrized(f, sizes):
    """The sum of f over the permutations of each run of consecutive
    variables of the given sizes: a class symmetric in each run."""
    runs, lo = [], 1
    for size in sizes:
        runs.append(range(lo, lo + size))
        lo += size
    out = Polynomial.zero(f.arity)
    for images in itertools.product(*(itertools.permutations(run) for run in runs)):
        w = Permutation(tuple(itertools.chain.from_iterable(images)))
        out = out + f.permute_vars(w)
    return out


def blocks_from_classes(classes):
    """BlockStructure of explicit classes; the source sequence maps each
    position to the index of its class."""
    classes = tuple(tuple(sorted(block)) for block in classes)
    seen = [pos for block in classes for pos in block]
    n = len(seen)
    if sorted(seen) != list(range(1, n + 1)):
        raise ValueError(f"classes do not partition 1..{n}: {classes!r}")
    seq = [0] * n
    for idx, block in enumerate(classes):
        for pos in block:
            seq[pos - 1] = idx
    return BlockStructure(tuple(seq), classes, tuple(len(b) for b in classes))


def cross_pair_count(split):
    """Number of pairs i < j lying in different blocks of a RootSplit."""
    return split.n * (split.n - 1) // 2 - sum(
        len(b) * (len(b) - 1) // 2 for b in split.blocks
    )


@pytest.fixture
def poly():
    return build


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def random_poly(rng):
    def make(arity, n_terms=6, max_exp=3, max_t=2):
        out = Polynomial.zero(arity)
        for _ in range(n_terms):
            x_exponents = tuple(rng.randrange(max_exp + 1) for _ in range(arity))
            coeff = rng.randint(-5, 5) or 1
            out = out + Polynomial.monomial(
                arity, x_exponents, rng.randrange(max_t + 1), coeff
            )
        return out

    return make


if hypothesis is not None:
    st = hypothesis.strategies

    def settings(max_examples):
        """Fixed examples on every run, so the suite's verdict is reproducible."""
        return hypothesis.settings(
            max_examples=max_examples, deadline=None, derandomize=True, database=None
        )

    @st.composite
    def polynomials(draw, n, max_terms=5, exponents=None):
        """Sparse integer polynomials in x_1..x_n and t.

        Every exponent is drawn from the strategy ``exponents``; by default
        x-exponents lie in 0..4 and t-exponents in 0..2.
        """
        x_exponents = st.integers(0, 4) if exponents is None else exponents
        t_exponents = st.integers(0, 2) if exponents is None else exponents
        size = draw(st.integers(0, max_terms))
        terms = {}
        for _ in range(size):
            key = tuple(draw(x_exponents) for _ in range(n))
            key += (draw(t_exponents),)
            terms[key] = terms.get(key, 0) + draw(st.integers(-3, 3))
        return Polynomial(n, terms)
