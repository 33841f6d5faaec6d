"""Hypothesis property tests of the Hall-Littlewood classes."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given = hypothesis.given

from conftest import settings  # noqa: E402

from hlgysin import hall_littlewood_p  # noqa: E402
from hlgysin.oracles import schur_s_jacobi_trudi  # noqa: E402


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
