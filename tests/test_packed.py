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
from hlgysin import identities
from hlgysin.hallittlewood import _class_norm, _p_orbits, _r_bound, _r_orbits, _rows
from hlgysin.identities import _row_bound, _witness, verify_prop_juxtaposition, verify_theorem_main
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
    """||R_seq|| against _r_bound, and the norms of R_seq and P_seq read off
    their exact orbits (_class_norm, each orbit's norm times its size)
    against the expanded classes, for every sequence with entries <= 2 at
    n <= 4."""
    for n in range(1, 5):
        for seq in itertools.product(range(3), repeat=n):
            r = hall_littlewood_r(n, seq)
            assert norm(r) <= _r_bound(seq)
            assert _class_norm(_r_orbits(seq)) == norm(r)
            try:
                orbits = _p_orbits(seq, t_factorial_product(seq), _r_orbits(seq))
            except NotDivisibleError:
                with pytest.raises(NotDivisibleError):
                    hall_littlewood_p(n, seq)
                continue
            assert _class_norm(orbits) == norm(hall_littlewood_p(n, seq))


def test_the_theorem_bound_covers_both_sides():
    """theorem-main's packed t against both sides built by expanding: the
    push-forward of the product with P or R inputs within _row_bound on the
    inputs' measured norms, and the right side's coefficient times P, or
    v_(lam mu) R, of the norm measured on its orbits, for every split of a
    0/1 sequence at n <= 4."""
    for n in range(2, 5):
        for q in range(1, n):
            r = n - q
            pairs = [(i, j) for i in range(1, q + 1) for j in range(q + 1, n + 1)]
            cross = linear_factor_product(n, pairs, Polynomial.t(n))
            for lam in itertools.product(range(2), repeat=q):
                for mu in itertools.product(range(2), repeat=r):
                    v_lam, v_mu, v_joined = map(t_factorial_product, (lam, mu, lam + mu))
                    coefficient = v_joined.divide_exact(v_lam * v_mu)
                    joined = lam + mu
                    sides = [(v_joined, _r_orbits(joined), hall_littlewood_r)]
                    try:
                        sides.append((coefficient, _p_orbits(joined, v_joined, _r_orbits(joined)), hall_littlewood_p))
                    except NotDivisibleError:
                        pass
                    for scale, orbits, make in sides:
                        scaled = {key: scale * f for key, f in orbits.items()}
                        expanded = scale.embed(n) * make(n, joined)
                        assert _class_norm(scaled) == norm(expanded), (lam, mu)
                    inputs = [(_r_orbits(lam), _r_orbits(mu), hall_littlewood_r)]
                    try:
                        p_inputs = _p_orbits(lam, v_lam, _r_orbits(lam)), _p_orbits(mu, v_mu, _r_orbits(mu))
                        inputs.append((*p_inputs, hall_littlewood_p))
                    except NotDivisibleError:
                        pass
                    for a, b, make in inputs:
                        bound = _row_bound(n, q, _class_norm(a), _class_norm(b), sum(joined))
                        product = cross * make(q, lam).embed(n) * make(r, mu).embed(n, offset=q)
                        assert norm(grassmann_pushforward(product, q, r)) <= bound, (lam, mu)


@pytest.mark.parametrize(
    "verify, n, mu",
    [(verify_theorem_main, 8, (1, 0, 0, 0)), (verify_prop_juxtaposition, 11, (1, 0, 0, 0, 0, 0, 0))],
    ids=["theorem-main", "prop-juxtaposition"],
)
def test_the_grassmann_checks_pack_at_the_width_their_sides_need(monkeypatch, verify, n, mu):
    """At q = 4, lam = (1, 0, 0, 0), mu = (1, 0^(n-5)) the measured norms of
    both sides stay below 2**63, so the check packs at t = 2**64.
    theorem-main at n = 8 chose 2**128 from a bound on the quotient P taken
    before dividing, and prop-juxtaposition at n = 11 from the a priori
    bound 2^(n(n-1)/2) q^|lam| r^|mu| n^|lam mu| on its inputs."""
    chosen = []

    def recorded(bound):
        chosen.append(_packed_t(bound))
        return chosen[-1]

    monkeypatch.setattr(identities, "_packed_t", recorded)
    report = verify(n, 4, (1, 0, 0, 0), mu)
    assert report.passed
    assert chosen == [1 << 64]


def test_prop_juxtaposition_reads_the_rows_that_r_caches():
    """Once hall_littlewood_r has built R_lam, R_mu and R_(lam mu), the
    check builds no row of its own: every class is read at R's packed t.
    A t chosen by the verifier, 2**128 here, built a second tower."""
    n, q, lam, mu = 7, 3, (2, 2, 2), (2, 2, 2, 1)
    for seq in (lam, mu, lam + mu):
        hall_littlewood_r(len(seq), seq)
    misses = _rows.cache_info().misses
    assert verify_prop_juxtaposition(n, q, lam, mu).passed
    assert _rows.cache_info().misses == misses
