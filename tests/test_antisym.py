import itertools
from functools import lru_cache

import pytest

from hlgysin import (
    Permutation,
    Polynomial,
    antisym,
    divided_difference,
    hall_littlewood_r,
    jacobi_symmetrizer,
)
from hlgysin.antisym import _divided_difference_tower, _expand, _row_image
from hlgysin.gysin import _grassmann_input
from hlgysin.hallittlewood import _rows
from hlgysin.identities import verify_t_minus1
from hlgysin.oracles import all_permutations, vandermonde
from hlgysin.polyring import _unpacked

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given = hypothesis.given

from conftest import (  # noqa: E402
    T,
    at_c,
    block_orbits,
    dominant_orbits,
    packed_orbits,
    polynomials,
    settings,
    unpacked_orbits,
    young_symmetrized,
)


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
    """d_{n-1} ... d_1 f on the orbit representatives of f packed at T,
    expanded."""
    n = f.arity
    reps = _divided_difference_tower(n, packed_orbits(dominant_orbits(f)), 0, 1, n)
    return _expand(n, _unpacked(reps, T))


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


def plain_row(f, k, r):
    """d_{k+r-1} ... d_k f, one plain divided difference per letter."""
    for a in range(k, k + r):
        f = d(f, a)
    return f


@st.composite
def merge_rows(draw):
    """(n, p, k, r, f): f the class that row k of the Grassmann merge of
    the blocks p+1..p+q | p+q+1..n takes, r = n - p - q.  A random
    polynomial with t-terms and signed coefficients is summed over the
    permutations of each block, positions 1..p left passive, and the rows
    before row k are run on it by plain divided differences."""
    p = draw(st.integers(0, 2))
    q = draw(st.integers(1, 3))
    r = draw(st.integers(1, 6 - p - q))
    n = p + q + r
    f = young_symmetrized(draw(polynomials(n)), (1,) * p + (q, r))
    k = draw(st.integers(1, q))
    for row in range(q, k, -1):
        f = plain_row(f, p + row, r)
    return n, p, p + k, r, f


# the packed t, and the constants at which a Schur P or S row evaluates
PACKINGS = st.sampled_from([T, -1, 0])


@settings(120)
@given(merge_rows(), PACKINGS)
def test_one_merge_row_on_orbit_representatives_is_the_plain_row(case, c):
    """The row on orbits packed at c, read back, against the plain row of
    the expanded class with exact polynomials in t, evaluated at t = c for
    c = 0 and c = -1."""
    n, p, k, r, f = case
    row = plain_row(f, k, r)
    for a in range(k, n):
        assert swap(row, a, a + 1) == row  # what the end-of-row filter relies on
    reps = packed_orbits(block_orbits(f, (1,) * p + (k - p, n - k)), c)
    got = _divided_difference_tower(n, reps, p, k, k + r)
    assert unpacked_orbits(got, c) == block_orbits(at_c(row, c), (1,) * p + (k - 1 - p, n - k + 1))


def image_terms(image, width):
    """A flat row image as a dict from key (``width`` exponents) to its
    coefficient."""
    return {
        image[j : j + width]: image[j + width] for j in range(0, len(image), width + 1)
    }


@st.composite
def image_arguments(draw):
    """(u, beta, r): beta weakly decreasing, at most 5 entries <= 4, and
    0 <= r <= len(beta), so the row acts on at most 6 variables."""
    beta = tuple(sorted(draw(st.lists(st.integers(0, 4), max_size=5)), reverse=True))
    return draw(st.integers(0, 4)), beta, draw(st.integers(0, len(beta)))


@settings(200)
@given(image_arguments())
@hypothesis.example((4, (2, 1, 1), 3))  # u above every v of beta
@hypothesis.example((0, (3, 2, 2), 2))  # u below every v
@hypothesis.example((2, (2, 2), 2))  # u equal to every v: the image is zero
@hypothesis.example((2, (4, 2, 1, 0), 3))  # u above, below and equal to some v
@hypothesis.example((3, (), 0))
def test_row_image_is_the_dominant_part_of_the_plain_row(args):
    u, beta, r = args
    n = len(beta) + 1
    f = Polynomial(n, {(u, *x, 0): 1 for x in set(itertools.permutations(beta))})
    got = {key: {0: c} for key, c in image_terms(_row_image(u, beta, r), n).items()}
    assert got == dominant_orbits(plain_row(f, 1, r), start=0)


def t_minus1_merge_input(n, q):
    """The reps of prod_{i<=q<j} (x_i + x_j) P_(3,1)(Q) P_(2)(S), the
    verify-tminus1 benchmark family's push-forward input."""
    a, b = _rows((3, 1), q, -1), _rows((2,), n - q, -1)
    return _grassmann_input(n, q, -1, a, b)


def merged(n, q, reps, before_each_row):
    """The q rows of the Grassmann merge (1..q | q+1..n), each run after
    ``before_each_row()``."""
    for k in range(q, 0, -1):
        before_each_row()
        reps = _divided_difference_tower(n, reps, 0, k, n - q + k)
    return reps


def test_merge_rows_do_not_depend_on_the_image_cache(monkeypatch):
    n, q = 8, 4
    reps = t_minus1_merge_input(n, q)
    merged(n, q, reps, lambda: None)
    warm = merged(n, q, reps, lambda: None)
    small = lru_cache(maxsize=64)(antisym._row_image.__wrapped__)
    monkeypatch.setattr(antisym, "_row_image", small)
    assert merged(n, q, reps, small.cache_clear) == warm
    info = small.cache_info()  # of the last row alone: cache_clear resets it
    assert info.currsize == 64 and info.misses > 64  # evicted within one row


def test_every_cached_image_is_one_flat_tuple_of_ints(monkeypatch):
    """Each image is one tuple of ints: a key's exponents, then its nonzero
    coefficient, key after key.  The layout is measured, not style.  Held
    as (key, coefficient) pairs the images leave many more GC-tracked
    tuples behind, and on the oracles-schur benchmark workload that has
    pulled the process's first generation-1 collection from its second
    instance into its first.  instance_ref_p90 there is the 18th-slowest
    instance of 174, the one that hosts that pass, and it read +25 to
    +40 % with pairs; do not tidy the images back into pairs."""
    seen = []
    compute = antisym._row_image.__wrapped__

    def recorded(u, beta, r):
        image = compute(u, beta, r)
        seen.append((beta, image))
        return image

    monkeypatch.setattr(antisym, "_row_image", lru_cache(maxsize=None)(recorded))
    assert verify_t_minus1(7, 4, (3, 1), (2,)).passed
    assert seen
    for beta, image in seen:
        width = len(beta) + 1
        assert type(image) is tuple and len(image) % (width + 1) == 0
        assert all(type(x) is int for x in image)
        for key, c in image_terms(image, width).items():
            assert all(a >= b for a, b in zip(key, key[1:])) and c != 0
