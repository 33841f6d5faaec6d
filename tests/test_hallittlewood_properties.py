"""Hypothesis property tests of the Hall-Littlewood classes."""

import itertools

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given = hypothesis.given

from conftest import block_orbits, settings  # noqa: E402

from hlgysin import Polynomial, hall_littlewood_p  # noqa: E402
from hlgysin.gysin import _grassmann_input  # noqa: E402
from hlgysin.oracles import _orbit_product, schur_s_jacobi_trudi  # noqa: E402
from hlgysin.polyring import linear_factor_product  # noqa: E402


@st.composite
def partitions(draw):
    """(n, lam): a partition of length n <= 6 with parts <= 2."""
    n = draw(st.integers(1, 6))
    parts = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return n, tuple(sorted(parts, reverse=True))


@settings(40)
@given(partitions())
def test_p_at_t_zero_is_the_jacobi_trudi_schur_polynomial(case):
    n, lam = case
    assert hall_littlewood_p(n, lam).substitute_t(0) == schur_s_jacobi_trudi(lam, n)


@st.composite
def symmetric_orbits(draw, m):
    """A random class symmetric in m variables, as partition keys ->
    {t-exponent: nonzero coefficient}."""
    keys = st.lists(st.integers(0, 3), min_size=m, max_size=m).map(
        lambda parts: tuple(sorted(parts, reverse=True))
    )
    t_polys = st.dictionaries(
        st.integers(0, 3), st.integers(-3, 3).filter(bool), min_size=1, max_size=3
    )
    return draw(st.dictionaries(keys, t_polys, max_size=4))


@st.composite
def grassmann_factors(draw):
    """(n, q, a, b): random classes A symmetric in q <= 3 variables and B
    symmetric in the n - q others, as orbits."""
    n = draw(st.integers(2, 5))
    q = draw(st.integers(1, min(3, n - 1)))
    return n, q, draw(symmetric_orbits(q)), draw(symmetric_orbits(n - q))


def expanded_with_t(m, orbits):
    return Polynomial(m, {
        perm + (k,): coeff
        for key, tc in orbits.items()
        for perm in set(itertools.permutations(key))
        for k, coeff in tc.items()
    })


# c = t is R's row, c = -1 Schur P's and c = 0 the t = 0 shadow's
ROW_CONSTANTS = st.sampled_from([Polynomial.t(0), Polynomial.constant(0, -1), Polynomial.zero(0)])


@settings(100)
@given(grassmann_factors(), ROW_CONSTANTS)
def test_row_product_on_random_symmetric_tails(case, c):
    """The Grassmann input (q | n-q) built from orbits against the product
    prod_{i<=q<j} (x_i - c x_j) * A(x_1..x_q) * B(x_{q+1}..x_n), filtered to
    its block-dominant terms."""
    n, q, a, b = case
    cross = linear_factor_product(
        n, [(i, j) for i in range(1, q + 1) for j in range(q + 1, n + 1)], c.embed(n)
    )
    full = cross * expanded_with_t(q, a).embed(n) * expanded_with_t(n - q, b).embed(n, offset=q)
    assert _grassmann_input(n, q, c, a, b) == block_orbits(full, (q, n - q))


@st.composite
def homogeneous_symmetric(draw, n):
    """(degree, orbits): a random homogeneous symmetric polynomial in n
    variables, as its partition keys -> nonzero integer coefficient."""
    degree = draw(st.integers(0, 4))
    keys = sorted(
        key
        for key in itertools.combinations_with_replacement(range(degree, -1, -1), n)
        if sum(key) == degree
    )
    orbits = draw(st.dictionaries(
        st.sampled_from(keys), st.integers(-3, 3).filter(bool), max_size=4
    ))
    return degree, orbits


def expanded(n, orbits):
    return Polynomial(n, {
        perm + (0,): c
        for key, c in orbits.items()
        for perm in set(itertools.permutations(key))
    })


@settings(100)
@given(st.integers(1, 5).flatmap(
    lambda n: st.tuples(st.just(n), homogeneous_symmetric(n), homogeneous_symmetric(n))
))
def test_orbit_product_is_the_product_of_the_expansions(case):
    """The Schur P oracle's product on partition keys, expanded, is the
    ring's product of the expanded factors."""
    n, f, g = case
    degree, orbits = _orbit_product(f, g, n)
    assert degree == f[0] + g[0]
    assert all(orbits.values())
    assert expanded(n, orbits) == expanded(n, f[1]) * expanded(n, g[1])
