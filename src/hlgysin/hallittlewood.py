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

the juxtaposition identity at q = 1.  The one explicit sum over coset
representatives left is the coset form of R, whose dependence on the
chosen representatives is itself under study; its numerator must be an
exact multiple of the Vandermonde, and a failed division surfaces as
NotDivisibleError instead of a silent approximation.

At t = 0 the P-classes of partitions become Schur polynomials and at
t = -1 the P-classes of strict partitions become Schur P-polynomials.
Both rest on divided differences too: s_lam is the Demazure character
pi_w0(x^lam), and P_nu the leading-flag push-forward of its coset form.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .antisym import divided_difference, longest_word
from .gysin import leading_flag_pushforward
from .polyring import NotDivisibleError, Polynomial, divide_by_vandermonde
from .symgroup import block_structure, coset_reps, ensure_within_bound


def as_int_sequence(seq):
    """Normalize to a tuple, checking entries are nonnegative integers."""
    seq = tuple(seq)
    for e in seq:
        if not isinstance(e, int) or isinstance(e, bool) or e < 0:
            raise ValueError(f"sequence entries must be nonnegative integers: {seq!r}")
    return seq


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
    if m < 0:
        raise ValueError("m must be nonnegative")
    out = Polynomial.one(0)
    for i in range(2, m + 1):
        out = out * Polynomial._raw(0, {(k,): 1 for k in range(i)})
    return out


def t_factorial_product(seq):
    """Product of t-factorials of the value multiplicities of a sequence."""
    seq = as_int_sequence(seq)
    out = Polynomial.one(0)
    for m in block_structure(seq).multiplicities if seq else ():
        out = out * t_factorial(m)
    return out


def gaussian_binomial(a, b):
    """Gaussian polynomial [a+b choose a] as t_factorial(a+b)/(t_factorial(a)*t_factorial(b))."""
    if a < 0 or b < 0:
        raise ValueError("a and b must be nonnegative")
    return t_factorial(a + b).divide_exact(t_factorial(a) * t_factorial(b))


def gaussian_binomial_at_minus_one(a, b):
    """Value of the Gaussian polynomial at t = -1, from the closed form.

    Zero when a*b is odd, otherwise the ordinary binomial coefficient
    C(floor((a+b)/2), floor(a/2)).  Computed combinatorially, not by
    substitution, so it can serve as an independent oracle.
    """
    if a < 0 or b < 0:
        raise ValueError("a and b must be nonnegative")
    if (a * b) % 2:
        return 0
    return math.comb((a + b) // 2, a // 2)


# ---------------------------------------------------------------------- #
# Hall-Littlewood classes


def hall_littlewood_r(n, seq):
    """R_seq(x_1..x_n; t), the signed-symmetrization numerator class.

    Equal to the exact quotient of sum_w sign(w) w(x^seq * prod_{i<j}
    (x_i - t x_j)) by the Vandermonde determinant; computed as the tower
    d_{n-1} ... d_1 (row * R_{seq_2..seq_n}(x_2..x_n)) with
    row = x_1^seq_1 prod_{j>1} (x_1 - t x_j).
    """
    return _hall_littlewood_r(n, as_int_sequence(seq))


@lru_cache(maxsize=256)
def _hall_littlewood_r(n, seq):
    if n < 1 or len(seq) != n:
        raise ValueError(f"sequence of length {len(seq)} does not match n = {n}")
    ensure_within_bound(n)
    x1, t = Polynomial.x(n, 1), Polynomial.t(n)
    row = x1 ** seq[0]
    for j in range(2, n + 1):
        row = row * (x1 - t * Polynomial.x(n, j))
    if n == 1:
        return row
    f = row * _hall_littlewood_r(n - 1, seq[1:]).embed(n, offset=1)
    for a in range(1, n):
        f = divided_difference(f, a, a + 1)
    return f


def hall_littlewood_r_coset(n, seq):
    """R_seq again, via the stabilizer-coset form of the symmetrization.

    v_seq(t) times the sum over the canonical transversal of S_n modulo the
    level-set stabilizer of

        w( x^seq * prod_{seq_i != seq_j} (x_i - t x_j) / (x_i - x_j) ),

    each term cleared against the full Vandermonde, so the signed sum N of
    the cleared terms is divided by the Vandermonde once, one factor
    x_i - x_j at a time.  Must agree with hall_littlewood_r; disagreement (or a failed
    division) is a genuine finding about the sequence, not an artifact.
    """
    seq = as_int_sequence(seq)
    if n < 1 or len(seq) != n:
        raise ValueError(f"sequence of length {len(seq)} does not match n = {n}")
    ensure_within_bound(n)
    blocks = block_structure(seq)
    t = Polynomial.t(n)
    core = Polynomial.monomial(n, seq)
    for i, j in itertools.combinations(range(1, n + 1), 2):
        if seq[i - 1] != seq[j - 1]:
            core = core * (Polynomial.x(n, i) - t * Polynomial.x(n, j))
        else:
            core = core * (Polynomial.x(n, i) - Polynomial.x(n, j))
    terms = {}
    for w in coset_reps(blocks):
        sign = w.sign()
        for key, c in core.permute_vars(w).terms.items():
            s = terms.get(key, 0) + sign * c
            if s:
                terms[key] = s
            else:
                del terms[key]
    quotient = divide_by_vandermonde(Polynomial._raw(n, terms))
    return t_factorial_product(seq).embed(n) * quotient


def hall_littlewood_p(n, seq):
    """P_seq(x_1..x_n; t) = R_seq / v_seq(t), an exact division."""
    return _hall_littlewood_p(n, as_int_sequence(seq))


@lru_cache(maxsize=256)
def _hall_littlewood_p(n, seq):
    try:
        return _hall_littlewood_r(n, seq).divide_exact(
            t_factorial_product(seq).embed(n)
        )
    except NotDivisibleError:
        raise NotDivisibleError(
            f"normalizer does not divide the symmetrized class for {seq}; "
            "the normalized class is undefined for this sequence"
        ) from None


# ---------------------------------------------------------------------- #
# Schur polynomials (the t = 0 shadow)


def _as_partition_of_length(seq, n):
    seq = as_int_sequence(seq)
    if not all(a >= b for a, b in zip(seq, seq[1:])):
        raise ValueError(f"not a partition: {seq!r}")
    if len(seq) > n:
        if any(seq[n:]):
            raise ValueError(
                f"partition {seq!r} has more than {n} nonzero parts"
            )
        seq = seq[:n]
    return seq + (0,) * (n - len(seq))


def schur_s(partition, n):
    """Schur polynomial s_lam(x_1..x_n) = pi_w0(x^lam), pi_a f = d_a(x_a f).

    The Demazure character formula (Demazure 1974; Lascoux 2003, ch. 1),
    along the reduced word of antisym.longest_word.  Every intermediate
    pi_v(x^lam) is a key polynomial whose monomials are among those of
    s_lam, so no step holds more terms than the answer.
    """
    return _schur_s(_as_partition_of_length(partition, n), n)


@lru_cache(maxsize=None)
def _schur_s(lam, n):
    p = Polynomial.monomial(n, lam)
    for a in longest_word(n):
        p = divided_difference(Polynomial.x(n, a) * p, a, a + 1)
    return p


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
    leading-flag push-forward of x^nu * prod_{i<=k, i<j<=n} (x_i + x_j).
    """
    nu = as_int_sequence(nu)
    if not is_strict_partition(nu):
        raise ValueError(f"not a strict partition: {nu!r}")
    return _schur_p_coset(nu, n)


@lru_cache(maxsize=None)
def _schur_p_coset(nu, n):
    k = len(nu)
    if k > n:
        raise ValueError(f"strict partition {nu!r} needs more than {n} variables")
    ensure_within_bound(n)
    core = Polynomial.monomial(n, nu + (0,) * (n - k))
    for i in range(1, k + 1):
        for j in range(i + 1, n + 1):
            core = core * (Polynomial.x(n, i) + Polynomial.x(n, j))
    return leading_flag_pushforward(core, k, n)


def straighten_schur_p(seq):
    """Sort a sequence of distinct positive parts, tracking the sign.

    Returns None when two parts coincide (the P-class vanishes), otherwise
    ((-1)^inversions, sorted_decreasing).  Zero entries must be stripped by
    the caller.
    """
    seq = tuple(seq)
    for e in seq:
        if not isinstance(e, int) or isinstance(e, bool) or e <= 0:
            raise ValueError(f"parts must be positive integers: {seq!r}")
    if len(set(seq)) < len(seq):
        return None
    inversions = 0
    for a in range(len(seq)):
        for b in range(a + 1, len(seq)):
            if seq[a] < seq[b]:
                inversions += 1
    return (-1 if inversions & 1 else 1), tuple(sorted(seq, reverse=True))
