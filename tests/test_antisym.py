import pytest

from hlgysin import (
    Permutation,
    Polynomial,
    divided_difference,
    jacobi_symmetrizer,
)
from hlgysin.oracles import all_permutations, vandermonde

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given = hypothesis.given

from conftest import polynomials, settings  # noqa: E402


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
