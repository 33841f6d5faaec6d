import random

import pytest

from hlgysin import Polynomial

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
