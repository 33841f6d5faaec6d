"""Hypothesis property tests of the Hall-Littlewood classes."""

import itertools

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given = hypothesis.given

from conftest import dominant_orbits, settings  # noqa: E402

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
def symmetric_tails(draw):
    """(head, n, orbits): a random class symmetric in n - 1 variables, as
    partition keys -> {t-exponent: nonzero coefficient}, and an exponent
    for x_1."""
    n = draw(st.integers(2, 5))
    keys = st.lists(st.integers(0, 3), min_size=n - 1, max_size=n - 1).map(
        lambda parts: tuple(sorted(parts, reverse=True))
    )
    t_polys = st.dictionaries(
        st.integers(0, 3), st.integers(-3, 3).filter(bool), min_size=1, max_size=3
    )
    return draw(st.integers(0, 3)), n, draw(st.dictionaries(keys, t_polys, max_size=4))


# c = t is R's row, c = -1 Schur P's and c = 0 the t = 0 shadow's
ROW_CONSTANTS = st.sampled_from([Polynomial.t(0), Polynomial.constant(0, -1), Polynomial.zero(0)])


@settings(100)
@given(symmetric_tails(), ROW_CONSTANTS)
def test_row_product_on_random_symmetric_tails(case, c):
    """The Grassmann input (1 | n-1) built from orbits against the product
    x_1^head prod_{j>1} (x_1 - c x_j) * tail, filtered to its dominant terms."""
    head, n, orbits = case
    tail = Polynomial(n - 1, {
        perm + (k,): coeff
        for key, tc in orbits.items()
        for perm in set(itertools.permutations(key))
        for k, coeff in tc.items()
    })
    row = Polynomial.x(n, 1) ** head * linear_factor_product(
        n, [(1, j) for j in range(2, n + 1)], c.embed(n)
    )
    full = row * tail.embed(n, offset=1)
    assert _grassmann_input(n, 1, c, {(head,): {0: 1}}, orbits) == dominant_orbits(full)


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
