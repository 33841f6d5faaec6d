"""Hall-Littlewood polynomials, Schur S and P specializations, straightening.

The central objects are symmetric polynomials attached to a sequence
lam = (lam_1, ..., lam_n) of nonnegative integers:

    R_lam(x; t) = sum over w in S_n of
                  w( x^lam * prod_{i<j} (x_i - t x_j) / (x_i - x_j) )

and the normalized class P_lam = R_lam / v_lam(t), where v_lam(t) is the
product of t-factorials of the value multiplicities of lam.  Every rational
sum is evaluated exactly, as a composite of divided differences (see
antisym): R_lam is the tower of projective-bundle push-forwards

    R_lam = d_{n-1} ... d_1 ( x_1^lam_1 prod_{j>1} (x_1 - t x_j)
                              * R_{lam_2..lam_n}(x_2..x_n) ),

the juxtaposition identity at q = 1: each level is the Grassmann row
(1 | n-1) with c = t of gysin._grassmann_orbits.  Its input is symmetric
in x_2..x_n, so the row runs on one exponent vector per orbit and maps
each, by its x_1-exponent and the key of x_2..x_n, to a memoized image of
d_{n-1} ... d_1 (antisym._divided_difference_tower).  Every level stays
in that form: R_{lam_2..lam_n} is held by its partition keys, and the row
x_1^lam_1 prod_{j>1} (x_1 - t x_j) = sum_k (-t)^k x_1^(lam_1+n-1-k)
e_k(x_2..x_n) acts on them by the Pieri rule for monomials, in the input
builder every Grassmann row shares, so no level builds the full product.
The tower is one cached recursion on orbits, _rows; each call expands its
answer and caches nothing expanded.  Each orbit's polynomial in t is one
int, its value at the packed t 2**B (polyring._packed_t), B chosen per
call from the bound _r_bound or _p_bound gives.  P_lam divides each orbit's
polynomial in t by v_lam(t): R's x-coefficients are exactly those
polynomials, so P is defined exactly when each division is exact, and P
reads the orbits R cached, at R's B, and packs its own at its own.

The one explicit sum over coset representatives left is the coset form
of R, whose dependence on the chosen representatives is itself under
study; its numerator must be an exact multiple of the Vandermonde, and a
failed division surfaces as NotDivisibleError instead of a silent
approximation.  The quotient is one exact division by each factor
x_i - x_j, the pairs in lexicographic order, and its first failing pair
(i, j) names x_i.  Most failures are found before the numerator is
built: its value at one integer point on each hyperplane x_1 = x_j comes
from the core's product form, one term per representative, and a nonzero
value means x_1 - x_j does not divide it, so the division would fail at
a pair (1, j') and name x1, the text the coset form raises.

At t = 0 the P-classes of partitions become Schur polynomials and at
t = -1 the P-classes of strict partitions become Schur P-polynomials.
Both are the same recursion, _rows: s_lam with c = 0, whose cross factor
x_1^(n-1) makes each row the Jozefiak-Lascoux-Pragacz formula at q = 1,
and P_nu with c = -1,

    P_nu(x_1..x_n) = d_{n-1} ... d_1 ( x_1^nu_1 prod_{j>1} (x_1 + x_j)
                                       * P_{nu_2..nu_k}(x_2..x_n) ).

This is exactly the coset formula's leading-flag push-forward of
x^nu prod_{i<=k, i<j} (x_i + x_j), regrouped.  The leading flag merges its
singleton runs last one first, and the factor x_1^nu_1 prod_{j>1}
(x_1 + x_j) is symmetric in x_2..x_n, so by the projection formula the
merges within x_2..x_n act on the rest of the core alone, which is the
core of nu_2..nu_k in x_2..x_n.  Only the input is built differently: each
row's comes from the Pieri rule, and the core is never expanded.  Once nu
runs out the rest is 1 in the remaining variables.

Sequences are read through as_int_sequence (polyring._checked_ints), so a
bare int, a bool or a float fails with a ValueError naming it.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import lru_cache

from .antisym import _expand
from .gysin import _grassmann_orbits
from .polyring import (
    NotDivisibleError,
    Polynomial,
    _checked_int,
    _checked_ints,
    _inversions,
    _key_permuter,
    _pack,
    _packed_t,
    _pushforward_bound,
    _unpack,
    divide_by_vandermonde,
    linear_factor_product,
)
from .symgroup import block_structure, coset_reps


def as_int_sequence(seq):
    """Normalize to a tuple, checking entries are nonnegative integers."""
    return _checked_ints(seq, "sequence entries")


def is_partition(seq):
    """Weakly decreasing sequence of nonnegative integers."""
    seq = as_int_sequence(seq)
    return all(a >= b for a, b in zip(seq, seq[1:]))


def is_strict_partition(seq):
    """Strictly decreasing sequence of positive integers (possibly empty)."""
    seq = as_int_sequence(seq)
    if any(e == 0 for e in seq):
        return False
    return all(a > b for a, b in zip(seq, seq[1:]))


# ---------------------------------------------------------------------- #
# t-factorials and Gaussian binomials (polynomials in t alone, arity 0)


@lru_cache(maxsize=None)
def t_factorial(m):
    """(1 + t)(1 + t + t^2) ... (1 + t + ... + t^(m-1)); equals m! at t = 1."""
    out = Polynomial.one(0)
    for i in range(2, _checked_int(m, "m", 0) + 1):
        out = out * Polynomial._raw(0, {(k,): 1 for k in range(i)})
    return out


def t_factorial_product(seq):
    """Product of t-factorials of the value multiplicities of a sequence."""
    out = Polynomial.one(0)
    for m in Counter(as_int_sequence(seq)).values():
        out = out * t_factorial(m)
    return out


def gaussian_binomial(a, b):
    """Gaussian polynomial [a+b choose a] as t_factorial(a+b)/(t_factorial(a)*t_factorial(b))."""
    _checked_int(a, "a", 0)
    _checked_int(b, "b", 0)
    return t_factorial(a + b).divide_exact(t_factorial(a) * t_factorial(b))


def gaussian_binomial_at_minus_one(a, b):
    """Value of the Gaussian polynomial at t = -1, from the closed form.

    Zero when a*b is odd, otherwise the ordinary binomial coefficient
    C(floor((a+b)/2), floor(a/2)).  Computed combinatorially, not by
    substitution, so it can serve as an independent oracle.
    """
    if (_checked_int(a, "a", 0) * _checked_int(b, "b", 0)) % 2:
        return 0
    return math.comb((a + b) // 2, a // 2)


# ---------------------------------------------------------------------- #
# Hall-Littlewood classes


def hall_littlewood_r(n, seq):
    """R_seq(x_1..x_n; t), the signed-symmetrization numerator class.

    Equal to the exact quotient of sum_w sign(w) w(x^seq * prod_{i<j}
    (x_i - t x_j)) by the Vandermonde determinant; computed as the tower
    d_{n-1} ... d_1 (row * R_{seq_2..seq_n}(x_2..x_n)) with
    row = x_1^seq_1 prod_{j>1} (x_1 - t x_j), on orbit representatives
    (_rows) expanded once at the end.
    """
    seq = as_int_sequence(seq)
    _check_length(n, seq)
    t = _packed_t(_r_bound(seq))
    return _expand(n, _rows(seq, n, t), t)


def _check_length(n, seq):
    if len(seq) != _checked_int(n, "n", 1):
        raise ValueError(f"sequence of length {len(seq)} does not match n = {n}")


@lru_cache(maxsize=256)
def _rows(seq, n, c):
    """The orbits of d_{n-1} ... d_1 ( x_1^seq_1 prod_{j>1} (x_1 - c x_j)
    * _rows(seq_2.., n - 1, c)(x_2..x_n) ), each partition x-key mapped to
    the orbit's coefficient packed at c, an int.  The class is set by c:
    the packed t gives R_seq (n = len(seq)), -1 gives Schur P_seq for a
    strict partition seq, and 0 gives Schur S_seq for a partition seq of
    length n.  Each level is the Grassmann row (1 | n-1) of
    gysin._grassmann_orbits; an empty seq gives 1, and a single variable
    x_1^seq_1.  Callers pass seq, n and c positionally, so that R and P
    share the cache's entries."""
    if not seq:
        return {(0,) * n: 1}
    if n == 1:
        return {seq: 1}
    return _grassmann_orbits(n, 1, c, {seq[:1]: 1}, _rows(seq[1:], n - 1, c))


def _r_bound(seq):
    """||R_seq|| <= 2^(n(n-1)/2) n^|seq|, n = len(seq): the sum of the
    absolute values of its coefficients (proved in polyring._packed_t)."""
    n = len(seq)
    pairs = n * (n - 1) // 2
    return _pushforward_bound(1 << pairs, n, sum(seq) + pairs, pairs)


def _quotient_bound(bound, degree, seq):
    """A bound on ||f / v_seq(t)|| for an f with ||f|| <= bound and t-degree
    at most ``degree`` that v_seq divides: one factor
    2 floor((degree + 1) / m) for each factor [m]_t of v_seq, the division
    bound proved in polyring._packed_t."""
    for count in Counter(seq).values():
        for m in range(2, count + 1):
            bound *= 2 * ((degree + 1) // m)
    return bound


def _p_bound(seq):
    """A bound on ||P_seq||: R_seq has t-degree at most n(n-1)/2."""
    n = len(seq)
    return _quotient_bound(_r_bound(seq), n * (n - 1) // 2, seq)


# The x-values of the hyperplane points (x_j set to x_1) and the value of
# t at which the coset form's numerator is evaluated before it is built.
_POINT = (2, 3, 5, 7, 11, 13, 17, 19)
_T_VALUE = 3


def _hyperplane_points(n):
    """One integer point on each hyperplane x_1 = x_j, j = 2..n, n <= 8."""
    base = _POINT[:n]
    return [base[:j] + base[:1] + base[j + 1 :] for j in range(1, n)]


def _numerator_value(seq, reps, signs, unequal, equal, point, t):
    """The coset form's numerator sum_w sign(w) w(core) at integer x-values
    point and t, never expanded: w(core)(point) is the core's product form
    x^seq prod_unequal (x_i - t x_j) prod_equal (x_i - x_j) at
    (point_{w(1)}, ..., point_{w(n)}), O(n^2) integer operations."""
    total = 0
    for w, sign in zip(reps, signs):
        y = [point[i - 1] for i in w.images]
        v = sign
        for base, e in zip(y, seq):
            v *= base**e
        for i, j in unequal:
            v *= y[i - 1] - t * y[j - 1]
        for i, j in equal:
            v *= y[i - 1] - y[j - 1]
        total += v
    return total


def hall_littlewood_r_coset(n, seq):
    """R_seq again, via the stabilizer-coset form of the symmetrization.

    v_seq(t) times the sum over the canonical transversal of S_n modulo the
    level-set stabilizer of

        w( x^seq * prod_{seq_i != seq_j} (x_i - t x_j) / (x_i - x_j) ),

    each term cleared against the full Vandermonde, so the signed sum N of
    the cleared terms is divided by the Vandermonde once.  N is summed in
    one dict: each representative w maps the cleared core's keys through
    its index map and adds the core's coefficients, negated in advance for
    odd w; zeros are dropped once at the end.  Must agree with
    hall_littlewood_r; disagreement (or a failed division) is a genuine
    finding about the sequence, not an artifact.

    Before the core is built, N is evaluated at one integer point on each
    hyperplane x_1 = x_j (_numerator_value, from the core's product form),
    and a nonzero value raises NotDivisibleError naming x1.  That is the
    division's own outcome: the remainder of N by x_1 - x_j, monic in x_1,
    is N(x_1 := x_j), which is then nonzero, and divide_by_vandermonde
    divides by the factors x_i - x_j in lexicographic order, so it takes
    every pair (1, j') before any other and its first failing pair names
    x1.  When every value is zero nothing is concluded, and N is built and
    divided.
    """
    seq = as_int_sequence(seq)
    _check_length(n, seq)
    # first, so that past the bound it raises before the core is built
    reps = coset_reps(block_structure(seq))
    signs = [w.sign() for w in reps]
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    unequal = [(i, j) for i, j in pairs if seq[i - 1] != seq[j - 1]]
    equal = [(i, j) for i, j in pairs if seq[i - 1] == seq[j - 1]]
    for point in _hyperplane_points(n):
        if _numerator_value(seq, reps, signs, unequal, equal, point, _T_VALUE):
            raise NotDivisibleError("remainder of degree 0 in x1")
    core = (
        Polynomial.monomial(n, seq)
        * linear_factor_product(n, unequal, Polynomial.t(n))
        * linear_factor_product(n, equal, 1)
    )
    signed = {1: list(core.terms.items())}
    signed[-1] = [(key, -c) for key, c in signed[1]]
    terms = {}
    get = terms.get
    for w, sign in zip(reps, signs):
        image_of = _key_permuter(w.images)
        for key, c in signed[sign]:
            key = image_of(key)
            terms[key] = get(key, 0) + c
    numerator = Polynomial._raw(n, {key: c for key, c in terms.items() if c})
    quotient = divide_by_vandermonde(numerator)
    return t_factorial_product(seq).embed(n) * quotient


def hall_littlewood_p(n, seq):
    """P_seq(x_1..x_n; t) = R_seq / v_seq(t), an exact division."""
    seq = as_int_sequence(seq)
    _check_length(n, seq)
    t = _packed_t(_p_bound(seq))
    return _expand(n, _p_reps(seq, t), t)


def _p_reps(seq, t):
    """P_seq as its symmetric orbits packed at t: R_seq's orbits at the
    packed t its own bound certifies, the ones hall_littlewood_r caches,
    each divided by v_seq(t)."""
    source = _packed_t(_r_bound(seq))
    try:
        return _divided_orbits(_rows(seq, len(seq), source), t_factorial_product(seq), source, t)
    except NotDivisibleError:
        raise NotDivisibleError(
            f"normalizer does not divide the symmetrized class for {seq}; "
            "the normalized class is undefined for this sequence"
        ) from None


def _divided_orbits(orbits, v, source, t):
    """Orbits packed at source over the arity-0 polynomial v, packed at t:
    each orbit's polynomial in t is read back, divided by v and packed
    again, so v divides the class exactly when it divides each orbit's
    polynomial, and NotDivisibleError is raised when one does not.  An
    integer dividing the packed value would not show that.  source must be
    certified for the orbits (polyring._packed_t)."""
    out = {}
    for key, value in orbits.items():
        out[key] = _pack(Polynomial._raw(0, _unpack(value, source)).divide_exact(v).terms, t)
    return out


# ---------------------------------------------------------------------- #
# Schur polynomials (the t = 0 shadow)


def _as_partition_of_length(seq, n):
    _checked_int(n, "n", 0)
    seq = as_int_sequence(seq)
    if not is_partition(seq):
        raise ValueError(f"not a partition: {seq!r}")
    if len(seq) > n:
        if any(seq[n:]):
            raise ValueError(
                f"partition {seq!r} has more than {n} nonzero parts"
            )
        seq = seq[:n]
    return seq + (0,) * (n - len(seq))


def schur_s(partition, n):
    """Schur polynomial s_lam(x_1..x_n): the rows with c = 0, each the
    Jozefiak-Lascoux-Pragacz formula at q = 1 (see the module docstring)."""
    return _expand(n, _rows(_as_partition_of_length(partition, n), n, 0), 0)


def straighten_schur_s(seq):
    """Normalize an exponent sequence for the Schur alternant.

    Repeatedly replaces an adjacent out-of-order pair (..., a, b, ...) with
    (..., b - 1, a + 1, ...), flipping the sign each time.  Returns None when
    a pattern (a, a + 1) appears (the alternant vanishes), otherwise
    (sign, partition).
    """
    seq = list(as_int_sequence(seq))
    sign = 1
    while True:
        for pos in range(len(seq) - 1):
            a, b = seq[pos], seq[pos + 1]
            if a < b:
                if b == a + 1:
                    return None
                seq[pos], seq[pos + 1] = b - 1, a + 1
                sign = -sign
                break
        else:
            return sign, tuple(seq)


# ---------------------------------------------------------------------- #
# Schur P polynomials (the t = -1 shadow)


def schur_p_coset(nu, n):
    """Schur P-polynomial of a strict partition, by the closed coset formula.

    P_nu(x_1..x_n) = sum over cosets of S_1^k x S_{n-k} of
    w( x^nu * prod_{i<=k, i<j<=n} (x_i + x_j) / (x_i - x_j) ), which is the
    leading-flag push-forward of x^nu * prod_{i<=k, i<j<=n} (x_i + x_j),
    computed as R's rows with c = -1 (_rows).
    """
    nu = as_int_sequence(nu)
    if not is_strict_partition(nu):
        raise ValueError(f"not a strict partition: {nu!r}")
    _checked_int(n, "n", 1)
    if len(nu) > n:
        raise ValueError(f"strict partition {nu!r} needs more than {n} variables")
    return _expand(n, _rows(nu, n, -1), -1)


def straighten_schur_p(seq):
    """Sort a sequence of distinct positive parts, tracking the sign.

    Returns None when two parts coincide (the P-class vanishes), otherwise
    ((-1)^inversions, sorted_decreasing).  Zero entries must be stripped by
    the caller.
    """
    seq = _checked_ints(seq, "parts", 1)
    if len(set(seq)) < len(seq):
        return None
    # the sort undoes the increasing pairs, the reversed sequence's inversions
    return (-1 if _inversions(seq[::-1]) & 1 else 1), tuple(sorted(seq, reverse=True))
