"""Hypothesis property tests of the polynomial ring."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given = hypothesis.given

from conftest import polynomials, settings  # noqa: E402


@st.composite
def polynomial_pairs(draw):
    n = draw(st.integers(0, 3))
    return draw(polynomials(n)), draw(polynomials(n))


@settings(100)
@given(polynomial_pairs())
def test_product_divided_by_a_nonzero_factor_gives_the_other(pair):
    p, q = pair
    hypothesis.assume(not q.is_zero)
    assert (p * q).divide_exact(q) == p
