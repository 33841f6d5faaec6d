"""Hypothesis property tests of the polynomial ring."""

import itertools

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given = hypothesis.given

from conftest import (  # noqa: E402
    polynomials,
    quotient_or_error,
    settings,
    vandermonde_quotient_by_factors,
)
from hlgysin import NotDivisibleError, Polynomial, divide_by_vandermonde  # noqa: E402
from hlgysin.oracles import vandermonde  # noqa: E402
from hlgysin.polyring import linear_factor_product  # noqa: E402


# small exponents, and exponents near 2**32 and 2**40: division must cost
# the same for both, since it visits only the degree levels that hold terms
EXPONENTS = st.one_of(
    st.integers(0, 4),
    st.integers(2**32 - 2, 2**32 + 2),
    st.integers(2**40 - 2, 2**40 + 2),
)


@st.composite
def polynomial_pairs(draw):
    n = draw(st.integers(0, 3))
    return draw(polynomials(n, exponents=EXPONENTS)), draw(polynomials(n, exponents=EXPONENTS))


@settings(100)
@given(polynomial_pairs())
def test_product_divided_by_a_nonzero_factor_gives_the_other(pair):
    p, q = pair
    hypothesis.assume(not q.is_zero)
    assert (p * q).divide_exact(q) == p


@st.composite
def vandermonde_dividends(draw):
    """A random f, or f = p * V for the Vandermonde V, in up to 4 variables."""
    n = draw(st.integers(0, 4))
    f = draw(polynomials(n, max_terms=6, exponents=st.integers(0, 3)))
    return f * vandermonde(n) if draw(st.booleans()) else f


@settings(200)
@given(vandermonde_dividends())
def test_vandermonde_quotient_agrees_with_the_factor_by_factor_division(f):
    assert quotient_or_error(divide_by_vandermonde, f) == quotient_or_error(
        vandermonde_quotient_by_factors, f
    )


def first_index_off_a_hyperplane(f):
    """The smallest i with some j > i for which f at x_j := x_i is nonzero,
    or None: each key's exponent of x_j is moved onto x_i and the
    coefficients of equal keys are summed."""
    for i, j in itertools.combinations(range(f.arity), 2):
        restricted = {}
        for key, c in f.terms.items():
            key = list(key)
            key[i], key[j] = key[i] + key[j], 0
            restricted[tuple(key)] = restricted.get(tuple(key), 0) + c
        if any(restricted.values()):
            return i + 1
    return None


@settings(200)
@given(vandermonde_dividends())
def test_vandermonde_quotient_times_the_vandermonde_is_the_dividend_or_names_its_hyperplane(f):
    try:
        quotient = divide_by_vandermonde(f)
    except NotDivisibleError as exc:
        assert str(exc) == f"remainder of degree 0 in x{first_index_off_a_hyperplane(f)}"
    else:
        assert quotient * vandermonde(f.arity) == f


@st.composite
def field_edge_dividends(draw):
    """f = m * h * V' in 3 or 4 variables, with a total x-degree from one
    below 2**8 (or 2**16) to 12 above it.

    V' is the Vandermonde, or it without the factor x_1 - x_n, so that the
    division fails at the pair (1, n).  m is a monomial with x-exponents up
    to 1 and a t-exponent that is small or near 2**32 or 2**40.  h is
    x_1^a x_n^b - x_{n-1} x_n^c with a and b below 2**8 (2**16): when a + b
    - c is 2**8 (2**16), the remainder x_n^(a+b) - x_{n-1} x_n^c of h at
    x_1 := x_n is zero if the x_n field overflows into the x_{n-1} field,
    so a width taken from the largest single exponent, not from the total
    degree, shows as a pair that divides.
    """
    n = draw(st.integers(3, 4))
    edge = draw(st.sampled_from([2**8, 2**16]))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    if draw(st.booleans()):
        pairs.remove((1, n))
    x_exponents = draw(st.tuples(*[st.integers(0, 1)] * n))
    t_exponent = draw(st.sampled_from([0, 2, 2**32 - 1, 2**40 + 1]))
    m = Polynomial.monomial(n, x_exponents, t_exponent, draw(st.sampled_from([1, -2])))
    degree = draw(st.integers(edge - 1, edge + 12))
    top = degree - len(pairs) - sum(x_exponents)
    c = top - edge if top >= edge else draw(st.integers(0, 3))
    a = top // 2
    h = Polynomial.monomial(n, (a,) + (0,) * (n - 2) + (top - a,)) - Polynomial.monomial(
        n, (0,) * (n - 2) + (1, c)
    )
    return m * h * linear_factor_product(n, pairs, 1)


@settings(40)
@given(field_edge_dividends())
def test_vandermonde_quotient_at_field_width_edges_agrees_with_the_factor_by_factor_division(f):
    assert quotient_or_error(divide_by_vandermonde, f) == quotient_or_error(
        vandermonde_quotient_by_factors, f
    )
