"""Independent constructions, kept apart from the engine as cross-checks.

Tests and the benchmark play these against the engine.  A check is only
as good as its independence, so no engine module imports this one (a
tier-1 test reads the import graph), and what lives here is never on the
path of a CLI command.

The Schur specializations are implemented independently of the
Hall-Littlewood engine: Schur S as the dual Jacobi-Trudi determinant
det(e_{lam'_i - i + j}) over the conjugate partition lam' (Macdonald,
Symmetric Functions and Hall Polynomials, I (3.5)), and Schur P by the
one-row closed form P_m = sum 2^(len(lam) - 1) m_lam and the two-row
recursion, every product taken on monomial orbits with its own partition
and rearrangement enumeration.  Neither calls a divided difference, so
they share no push-forward code with the engine's schur_s or
schur_p_coset (both rows of hallittlewood._rows), and the Schur P oracle
uses none of the engine's orbit machinery (_rows, _expand, gysin).
Schur S also has its Demazure form pi_w0(x^lam), a chain of plain
divided differences that builds no Grassmann row.

The plain divided difference acts on a whole polynomial, term by term,
where the engine's acts only on orbits (antisym).  Along a reduced word of
the longest element w0 of S_n it gives the Jacobi symmetrizer, the
bialternant

    d_w0 f = (sum over w in S_n of sign(w) w(f)) / prod_{i<j} (x_i - x_j),

without building the n!-term signed sum; gysin's full-flag push-forward
gets the same value from the tower.
Alongside them: the explicit group enumerations and products (all of S_n,
the stabilizer, the Vandermonde and the t-twisted Vandermonde) that the
naive S_n sums of the tests are built from, and the blockwise full-flag
symmetrizer whose composite with the partial-flag push-forward must
reproduce the full one.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache

from .hallittlewood import (
    _as_partition_of_length,
    as_int_sequence,
    hall_littlewood_p,
    is_strict_partition,
)
from .polyring import ArityMismatchError, Polynomial, _checked_int
from .symgroup import Permutation, ensure_within_bound

# ---------------------------------------------------------------------- #
# polynomials and group elements


def difference_product(arity, pairs):
    """prod (x_i - x_j) over the given 1-based index pairs."""
    out = Polynomial.one(arity)
    for i, j in pairs:
        out = out * (Polynomial.x(arity, i) - Polynomial.x(arity, j))
    return out


@lru_cache(maxsize=None)
def vandermonde(arity):
    """prod_{i<j} (x_i - x_j)."""
    return difference_product(
        arity, tuple(itertools.combinations(range(1, _checked_int(arity, "arity", 0) + 1), 2))
    )


@lru_cache(maxsize=None)
def t_twisted_vandermonde(n):
    """prod_{i<j} (x_i - t x_j)."""
    out = Polynomial.one(n)
    t = Polynomial.t(n)
    for i, j in itertools.combinations(range(1, n + 1), 2):
        out = out * (Polynomial.x(n, i) - t * Polynomial.x(n, j))
    return out


@lru_cache(maxsize=None)
def all_permutations(n):
    """All of S_n in lexicographic one-line order."""
    ensure_within_bound(_checked_int(n, "n", 0))
    return tuple(
        Permutation(images) for images in itertools.permutations(range(1, n + 1))
    )


def stabilizer_order(blocks):
    """Order of the Young subgroup fixing every class: prod m_i!."""
    out = 1
    for m in blocks.multiplicities:
        out *= math.factorial(m)
    return out


def stabilizer_elements(blocks):
    """All elements of the Young subgroup fixing every class."""
    n = blocks.degree
    ensure_within_bound(n)
    per_class = []
    for positions in blocks.classes:
        arrangements = []
        for perm in itertools.permutations(positions):
            arrangements.append(tuple(zip(positions, perm)))
        per_class.append(arrangements)
    out = []
    for combo in itertools.product(*per_class):
        images = [0] * n
        for pairs in combo:
            for pos, val in pairs:
                images[pos - 1] = val
        out.append(Permutation(images))
    return tuple(out)


# ---------------------------------------------------------------------- #
# divided differences of whole polynomials and the bialternant


def divided_difference(f, i, j):
    """(f - s_ij f) / (x_i - x_j) for 1-based variable indices i != j."""
    n = f.arity
    if _checked_int(i, "i") == _checked_int(j, "j") or not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"need two distinct indices in 1..{n}, got {i} and {j}")
    i, j = i - 1, j - 1
    out = {}
    for key, c in f.terms.items():
        a, b = key[i], key[j]
        if a == b:
            continue
        if a < b:
            a, b, c = b, a, -c
        k = list(key)
        for e in range(b, a):
            k[i] = e
            k[j] = a + b - 1 - e
            nk = tuple(k)
            s = out.get(nk, 0) + c
            if s:
                out[nk] = s
            else:
                del out[nk]
    return Polynomial._raw(n, out)


def longest_word(m):
    """A reduced word of the longest element of S_m, letters 1..m-1, to be
    applied first letter first: [m-1, m-2, m-1, ..., 1, 2, ..., m-1]."""
    return [j for k in range(_checked_int(m, "m") - 1, 0, -1) for j in range(k, m)]


def jacobi_symmetrizer(p):
    """Exact value of  (sum over w in S_n of sign(w) w(p)) / prod_{i<j}(x_i - x_j),
    computed as the divided difference along the longest element of S_n."""
    for a in longest_word(p.arity):
        p = divided_difference(p, a, a + 1)
    return p


# ---------------------------------------------------------------------- #
# push-forwards and classes


def blockwise_full_flag(f, split):
    """Apply the full-flag symmetrizer separately inside every block.

    Composing this with partial_flag_pushforward along the same split
    reproduces full_flag_pushforward; that factorization is a correctness
    check for the whole operator family.  Inside a block b the longest
    word's letters a act as d along the pair (b[a-1], b[a]).
    """
    if f.arity != split.n:
        raise ArityMismatchError(
            f"polynomial arity {f.arity} does not match split on {split.n} variables"
        )
    for b in split.blocks:
        for a in longest_word(len(b)):
            f = divided_difference(f, b[a - 1], b[a])
    return f


def hall_littlewood_p_specialized(n, seq, t_value):
    """P_seq with an integer substituted for t (0 gives Schur S, -1 Schur P)."""
    return hall_littlewood_p(n, seq).substitute_t(t_value)


# ---------------------------------------------------------------------- #
# Schur S by the dual Jacobi-Trudi determinant and the Demazure form


@lru_cache(maxsize=None, typed=True)
def elementary_symmetric(k, n):
    """e_k(x_1..x_n): sum of all squarefree monomials of degree k."""
    _checked_int(n, "n", 0)
    if _checked_int(k, "k") < 0 or k > n:
        return Polynomial.zero(n)
    terms = {}
    for combo in itertools.combinations(range(n), k):
        key = [0] * (n + 1)
        for idx in combo:
            key[idx] = 1
        terms[tuple(key)] = 1
    return Polynomial._raw(n, terms)


def schur_s_jacobi_trudi(partition, n):
    """Schur polynomial via the dual Jacobi-Trudi determinant.

    s_lam = det(e_{lam'_i - i + j}), 1 <= i, j <= lam_1, where lam' is the
    conjugate partition (Macdonald, Symmetric Functions and Hall
    Polynomials, I (3.5)).  Each e_k has at most C(n, k) terms, where the
    h_k of det(h_{lam_i - i + j}) has C(n + k - 1, k).
    """
    return _schur_s_jacobi_trudi(_as_partition_of_length(partition, n), n)


@lru_cache(maxsize=None)
def _schur_s_jacobi_trudi(lam, n):
    conj = tuple(sum(1 for a in lam if a > i) for i in range(lam[0] if lam else 0))
    size = len(conj)
    cache = {}

    def minor(rows):
        # Determinant of the submatrix on these rows and columns
        # size - len(rows) .. size - 1 (0-based), expanded along its first
        # column.
        if not rows:
            return Polynomial.one(n)
        got = cache.get(rows)
        if got is not None:
            return got
        col = size - len(rows)
        out = Polynomial.zero(n)
        sign = 1
        for pos, row in enumerate(rows):
            entry = elementary_symmetric(conj[row] - row + col, n)
            if not entry.is_zero:
                sub = minor(rows[:pos] + rows[pos + 1:])
                out = out + sign * (entry * sub)
            sign = -sign
        cache[rows] = out
        return out

    return minor(tuple(range(size)))


def schur_s_demazure(partition, n):
    """Schur polynomial s_lam(x_1..x_n) = pi_w0(x^lam), pi_a f = d_a(x_a f).

    The Demazure character formula (Demazure 1974; Lascoux 2003, ch. 1),
    along the reduced word of longest_word.  Every intermediate
    pi_v(x^lam) is a key polynomial whose monomials are among those of
    s_lam, so no step holds more terms than the answer.
    """
    p = Polynomial.monomial(n, _as_partition_of_length(partition, n))
    for a in longest_word(n):
        p = divided_difference(Polynomial.x(n, a) * p, a, a + 1)
    return p


# ---------------------------------------------------------------------- #
# Schur P by its one-row closed form and the two-row recursion, on orbits


def schur_p_recursive(nu, n):
    """Schur P-polynomial by the one-row closed form and the two-row
    recursion, on monomial orbits.

    One row: prod_i (1 + x_i z) / (1 - x_i z) = sum_r q_r z^r with
    P_(r) = q_r / 2 for r >= 1 (Macdonald, Symmetric Functions and Hall
    Polynomials, III section 8), so P_m = sum over the partitions lam of m
    with at most n parts of 2^(len(lam) - 1) m_lam.  Two rows: P_{i,j} =
    P_i P_j + 2 * sum_{d=1}^{j-1} (-1)^d P_{i+d} P_{j-d} + (-1)^j P_{i+j}.
    Longer strict partitions expand along the first row (odd length) or
    into two-row minors (even length).  Every intermediate is a homogeneous
    symmetric polynomial held as (degree, {partition key of length n:
    coefficient}), multiplied by _orbit_product; the answer is expanded
    once, at the end.
    """
    nu = as_int_sequence(nu)
    if not is_strict_partition(nu):
        raise ValueError(f"not a strict partition: {nu!r}")
    _checked_int(n, "n", 0)
    if len(nu) > n:
        raise ValueError(f"strict partition {nu!r} needs more than {n} variables")
    _, orbits = _schur_p_rec(nu, n)
    terms = {}
    for key, c in orbits.items():
        for x in _distinct_rearrangements(key):
            terms[x + (0,)] = c
    return Polynomial._raw(n, terms)


@lru_cache(maxsize=256)
def _partitions_of(m, n):
    """The partitions of m with at most n parts, each padded with zeros to
    a weakly decreasing tuple of length n."""

    def parts(m, k, top):
        if k == 0:
            if m == 0:
                yield ()
            return
        for first in range(min(m, top), -(-m // k) - 1, -1):
            for rest in parts(m - first, k - 1, first):
                yield (first,) + rest

    return tuple(parts(m, n, m))


@lru_cache(maxsize=256)
def _distinct_rearrangements(key):
    """Every distinct ordering of the entries of a weakly decreasing tuple."""
    if len(key) < 2:
        return (key,)
    return tuple(
        (v,) + rest
        for i, v in enumerate(key)
        if i == 0 or v != key[i - 1]
        for rest in _distinct_rearrangements(key[:i] + key[i + 1:])
    )


def _term_count(orbits):
    return sum(len(_distinct_rearrangements(key)) for key in orbits)


def _orbit_product(f, g, n):
    """The product of two homogeneous symmetric polynomials held as
    (degree, orbits): the coefficient of x^lam in fg is
    sum_b g_b f_{sort(lam - b)}, lam over the partitions of the degree with
    at most n parts, b over the terms of the factor with fewer terms."""
    (df, fo), (dg, go) = f, g
    if _term_count(fo) < _term_count(go):
        fo, go = go, fo
    terms = [(b, c) for key, c in go.items() for b in _distinct_rearrangements(key)]
    get = fo.get
    out = {}
    for lam in _partitions_of(df + dg, n):
        total = 0
        for b, c in terms:
            rest = tuple(map(operator.sub, lam, b))
            if min(rest) >= 0:
                a = get(tuple(sorted(rest, reverse=True)))
                if a:
                    total += a * c
        if total:
            out[lam] = total
    return df + dg, out


def _orbit_sum(degree, scaled):
    """sum of s * f over (s, f) in ``scaled``, each f of this degree."""
    out = {}
    get = out.get
    for s, (_, orbits) in scaled:
        for key, c in orbits.items():
            out[key] = get(key, 0) + s * c
    return degree, {key: c for key, c in out.items() if c}


@lru_cache(maxsize=256)
def _schur_p_one_row(m, n):
    if m == 0:
        return 0, {(0,) * n: 1}
    return m, {lam: 2 ** (n - lam.count(0) - 1) for lam in _partitions_of(m, n)}


@lru_cache(maxsize=256)
def _schur_p_two_rows(i, j, n):
    def row_product(a, b):
        return _orbit_product(_schur_p_one_row(a, n), _schur_p_one_row(b, n), n)

    scaled = [(1, row_product(i, j))]
    for d in range(1, j):
        scaled.append((2 if d % 2 == 0 else -2, row_product(i + d, j - d)))
    scaled.append((1 if j % 2 == 0 else -1, _schur_p_one_row(i + j, n)))
    return _orbit_sum(i + j, scaled)


@lru_cache(maxsize=256)
def _schur_p_rec(nu, n):
    k = len(nu)
    if k == 0:
        return _schur_p_one_row(0, n)
    if k == 1:
        return _schur_p_one_row(nu[0], n)
    if k == 2:
        return _schur_p_two_rows(nu[0], nu[1], n)
    scaled = []
    if k % 2:
        for a in range(k):
            rest = nu[:a] + nu[a + 1:]
            term = _orbit_product(_schur_p_one_row(nu[a], n), _schur_p_rec(rest, n), n)
            scaled.append((1 if a % 2 == 0 else -1, term))
    else:
        for b in range(1, k):
            rest = nu[1:b] + nu[b + 1:]
            minor = _schur_p_two_rows(nu[0], nu[b], n)
            term = _orbit_product(minor, _schur_p_rec(rest, n), n)
            scaled.append((1 if b % 2 else -1, term))
    return _orbit_sum(sum(nu), scaled)
