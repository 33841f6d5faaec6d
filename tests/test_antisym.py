import itertools

import pytest

from hlgysin import (
    Permutation,
    Polynomial,
    divided_difference,
    hall_littlewood_r,
    jacobi_symmetrizer,
)
from hlgysin.antisym import _divided_difference_tower, _expand
from hlgysin.oracles import all_permutations, vandermonde

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given = hypothesis.given

from conftest import dominant_orbits, polynomials, settings  # noqa: E402


@st.composite
def arity_and_polynomials(draw, count, min_n=2):
    n = draw(st.integers(min_n, 4))
    return (n, *(draw(polynomials(n)) for _ in range(count)))


def swap(f, i, j):
    return f.permute_vars(Permutation.transposition(f.arity, i, j))


def d(f, i):
    return divided_difference(f, i, i + 1)


@settings(150)
@given(arity_and_polynomials(1), st.data())
def test_divided_difference_times_root_difference_is_the_antisymmetrization(case, data):
    n, f = case
    i = data.draw(st.integers(1, n))
    j = data.draw(st.integers(1, n).filter(lambda j: j != i))
    q = divided_difference(f, i, j)
    assert q * (Polynomial.x(n, i) - Polynomial.x(n, j)) == f - swap(f, i, j)


@settings(100)
@given(arity_and_polynomials(1), st.data())
def test_divided_difference_squares_to_zero(case, data):
    n, f = case
    i = data.draw(st.integers(1, n - 1))
    assert d(d(f, i), i).is_zero


@settings(100)
@given(arity_and_polynomials(1, min_n=3), st.data())
def test_braid_relation(case, data):
    n, f = case
    i = data.draw(st.integers(1, n - 2))
    assert d(d(d(f, i), i + 1), i) == d(d(d(f, i + 1), i), i + 1)


@settings(100)
@given(arity_and_polynomials(2), st.data())
def test_twisted_leibniz_rule(case, data):
    n, f, g = case
    i = data.draw(st.integers(1, n - 1))
    assert d(f * g, i) == d(f, i) * g + swap(f, i, i + 1) * d(g, i)


def test_divided_difference_pinned_values():
    x1, x2 = Polynomial.x(2, 1), Polynomial.x(2, 2)
    assert divided_difference(x1, 1, 2) == Polynomial.one(2)
    assert divided_difference(x2, 1, 2) == -Polynomial.one(2)
    assert divided_difference(x1**3, 1, 2) == x1**2 + x1 * x2 + x2**2
    assert divided_difference(x1 * x2, 1, 2).is_zero
    assert divided_difference(x1, 2, 1) == -Polynomial.one(2)


def test_divided_difference_rejects_bad_indices():
    f = Polynomial.x(3, 1)
    for i, j in [(1, 1), (0, 2), (1, 4), (4, 1)]:
        with pytest.raises(ValueError):
            divided_difference(f, i, j)


@settings(40)
@given(arity_and_polynomials(1, min_n=1))
def test_jacobi_symmetrizer_clears_the_signed_orbit_sum(case):
    n, f = case
    alternant = Polynomial.zero(n)
    for w in all_permutations(n):
        alternant = alternant + w.sign() * f.permute_vars(w)
    assert jacobi_symmetrizer(f) * vandermonde(n) == alternant


def chain(f):
    """d_{n-1} ... d_1 f, one plain divided difference per letter."""
    for a in range(1, f.arity):
        f = d(f, a)
    return f


def tower(f):
    """d_{n-1} ... d_1 f on the orbit representatives of f, expanded."""
    n = f.arity
    return _expand(n, _divided_difference_tower(n, dominant_orbits(f)))


@st.composite
def tail_symmetric_polynomials(draw):
    """(n, f), f a random polynomial summed over the permutations of x_2..x_n."""
    n = draw(st.integers(2, 5))
    f = draw(polynomials(n))
    g = Polynomial.zero(n)
    for images in itertools.permutations(range(2, n + 1)):
        g = g + f.permute_vars(Permutation((1, *images)))
    return n, g


@settings(60)
@given(tail_symmetric_polynomials())
def test_tower_on_orbit_representatives_is_the_divided_difference_chain(case):
    n, f = case
    r = tower(f)
    assert r == chain(f)
    for a in range(1, n):
        assert swap(r, a, a + 1) == r


def test_tower_on_orbit_representatives_on_every_r_tower_input():
    """The R_lam tower's input row * R_tail(x_2..x_n), row = x_1^lam_1
    prod_{j>1} (x_1 - t x_j), for every sequence with entries <= 2 at n <= 5."""
    for n in range(2, 6):
        x1, t = Polynomial.x(n, 1), Polynomial.t(n)
        for seq in itertools.product(range(3), repeat=n):
            row = x1 ** seq[0]
            for j in range(2, n + 1):
                row = row * (x1 - t * Polynomial.x(n, j))
            f = row * hall_littlewood_r(n - 1, seq[1:]).embed(n, offset=1)
            assert tower(f) == chain(f), seq
