"""Orbit coefficients packed into one int: the balanced-digit codec, the
field chosen from a certified bound, and the bounds themselves."""

import itertools

import pytest

from hlgysin import (
    NotDivisibleError,
    Polynomial,
    grassmann_pushforward,
    hall_littlewood_p,
    hall_littlewood_r,
    t_factorial_product,
)
from hlgysin.hallittlewood import _p_bound, _r_bound
from hlgysin.identities import _theorem_bound, _witness
from hlgysin.polyring import _pack, _packed_t, _unpack, linear_factor_product


def norm(p):
    return sum(map(abs, p.terms.values()))


def round_trip(coefficients, c):
    """{t-exponent: coefficient} packed at c and read back."""
    terms = {(e,): d for e, d in coefficients.items()}
    return {e: d for (e,), d in _unpack(_pack(terms, c), c).items()}


@pytest.mark.parametrize("bits", [64, 128])
def test_balanced_digits_round_trip(bits):
    c, half = 1 << bits, 1 << (bits - 1)
    cases = [
        {},
        {0: 5},
        {3: 7},  # zero digits below the top one
        {0: 1, 4: -2},  # interior zero digits
        {0: 3, 2: -1},  # a negative top coefficient
        {1: -1},
        {0: half - 1, 1: -(half - 1), 2: half - 1},
        {0: -(half - 1), 5: -(half - 1)},
        {0: -half, 1: -half},  # the edge of the digit range, which no bound certifies
    ]
    for coefficients in cases:
        assert round_trip(coefficients, c) == coefficients


def test_constants_are_their_own_packing():
    for c in (0, -1):
        assert _unpack(0, c) == {}
        assert _unpack(-7, c) == {(0,): -7}
    assert _pack({(0,): 2, (1,): 3, (2,): 1}, -1) == 0
    assert _pack({(0,): 2, (1,): 3, (2,): 1}, 0) == 2


def test_the_field_is_the_least_multiple_of_64_bits_above_the_bound():
    assert _packed_t(0) == 1 << 64
    assert _packed_t((1 << 63) - 1) == 1 << 64
    assert _packed_t(1 << 63) == 1 << 128  # the bound reaches 2**(B-1): wider
    assert _packed_t((1 << 127) - 1) == 1 << 128
    assert _packed_t(1 << 127) == 1 << 192


def test_a_coefficient_of_half_the_field_widens_it_and_stays_exact():
    """push(x1) along (1 | 1) is 1, so c x1 pushes forward to c, and for
    |c| = 2**63 the certified bound is exactly 2**63 = 2**(64-1): the field
    widens to 128 bits and the answer is exact.  At 64 bits 2**63 would
    read back as -2**63 + t."""
    x1 = Polynomial.x(2, 1)
    half = 1 << 63
    t = Polynomial.t(2)
    for c in (half, -half, half - 1, half * t**3, half * (1 - t)):
        assert grassmann_pushforward(c * x1, 1, 1) == c * Polynomial.one(2)


def test_polynomials_that_agree_at_the_packed_t_are_not_confused():
    """2**64 and t take the same value at t = 2**64.  A bound that covers
    2**64 chooses 2**128, so (2**64 - t) x1 pushes forward to 2**64 - t,
    not to 0, and a comparison of the two is not equal."""
    f = ((1 << 64) - Polynomial.t(2)) * Polynomial.x(2, 1)
    assert grassmann_pushforward(f, 1, 1) == (1 << 64) - Polynomial.t(2)

    big, t = {(0,): 1 << 64}, {(1,): 1}
    assert _pack(big, 1 << 64) == _pack(t, 1 << 64)
    c = _packed_t(1 << 64)
    key = (0, 0)
    witness = _witness(2, {key: _pack(big, c)}, {key: _pack(t, c)}, c)
    assert not witness.is_zero
    assert witness == (1 << 64) - Polynomial.t(2)


def test_the_class_bounds_hold():
    """||R_seq|| and ||P_seq|| against _r_bound and _p_bound, for every
    sequence with entries <= 2 at n <= 4."""
    for n in range(1, 5):
        for seq in itertools.product(range(3), repeat=n):
            assert norm(hall_littlewood_r(n, seq)) <= _r_bound(seq)
            try:
                assert norm(hall_littlewood_p(n, seq)) <= _p_bound(seq)
            except NotDivisibleError:
                pass


def test_the_theorem_bound_covers_both_sides():
    """The theorem's bound against both sides built by expanding: the
    push-forward of the product with P or R inputs, and the right side's
    coefficient times P, or times v_lam v_mu R, for every split of a 0/1
    sequence at n <= 4."""
    for n in range(2, 5):
        for q in range(1, n):
            r = n - q
            pairs = [(i, j) for i in range(1, q + 1) for j in range(q + 1, n + 1)]
            cross = linear_factor_product(n, pairs, Polynomial.t(n))
            for lam in itertools.product(range(2), repeat=q):
                for mu in itertools.product(range(2), repeat=r):
                    v_split = t_factorial_product(lam) * t_factorial_product(mu)
                    coefficient = t_factorial_product(lam + mu).divide_exact(v_split)
                    bound = _theorem_bound(n, q, lam, mu)
                    joined_r = hall_littlewood_r(n, lam + mu)
                    sides = [(coefficient * v_split).embed(n) * joined_r]
                    try:
                        sides.append(coefficient.embed(n) * hall_littlewood_p(n, lam + mu))
                    except NotDivisibleError:
                        pass
                    for make in (hall_littlewood_p, hall_littlewood_r):
                        try:
                            a, b = make(q, lam), make(r, mu)
                        except NotDivisibleError:
                            continue
                        product = cross * a.embed(n) * b.embed(n, offset=q)
                        sides.append(grassmann_pushforward(product, q, r))
                    assert max(map(norm, sides)) <= bound, (lam, mu)
