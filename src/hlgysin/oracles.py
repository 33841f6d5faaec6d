"""Independent constructions, kept apart from the engine as cross-checks.

Tests and the benchmark play these against the engine.  A check is only
as good as its independence, so no engine module imports this one (a
tier-1 test reads the import graph), and what lives here is never on the
path of a CLI command.

The Schur specializations are implemented independently of the
Hall-Littlewood engine: Schur S as the Jacobi-Trudi determinant
det(h_{lam_i - i + j}), and Schur P by hook sums and the two-row
recursion, whose hooks are Jacobi-Trudi determinants too.  Neither calls
a divided difference, so they share no push-forward code with the
engine's schur_s (the Demazure form) or schur_p_coset (a leading-flag
push-forward).  Alongside them: the explicit group enumerations and
products (all of S_n, the stabilizer, the Vandermonde and the t-twisted
Vandermonde) that the naive S_n sums of the tests are built from, and the
blockwise full-flag symmetrizer whose composite with the partial-flag
push-forward must reproduce the full one.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .antisym import divided_difference, longest_word
from .hallittlewood import (
    _as_partition_of_length,
    as_int_sequence,
    hall_littlewood_p,
    is_strict_partition,
)
from .polyring import ArityMismatchError, Polynomial
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
        arity, tuple(itertools.combinations(range(1, arity + 1), 2))
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
def all_permutations(n, bound=None):
    """All of S_n in lexicographic one-line order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    ensure_within_bound(n, bound)
    return tuple(
        Permutation(images) for images in itertools.permutations(range(1, n + 1))
    )


def stabilizer_order(blocks):
    """Order of the Young subgroup fixing every class: prod m_i!."""
    out = 1
    for m in blocks.multiplicities:
        out *= math.factorial(m)
    return out


def stabilizer_elements(blocks, bound=None):
    """All elements of the Young subgroup fixing every class."""
    n = blocks.degree
    ensure_within_bound(n, bound)
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
    ensure_within_bound(split.n)
    for b in split.blocks:
        for a in longest_word(len(b)):
            f = divided_difference(f, b[a - 1], b[a])
    return f


def hall_littlewood_p_specialized(n, seq, t_value):
    """P_seq with an integer substituted for t (0 gives Schur S, -1 Schur P)."""
    return hall_littlewood_p(n, seq).substitute_t(t_value)


# ---------------------------------------------------------------------- #
# Schur S by the Jacobi-Trudi determinant


@lru_cache(maxsize=None)
def complete_homogeneous(degree, n):
    """h_degree(x_1..x_n): sum of all monomials of the given total degree."""
    if degree < 0:
        return Polynomial.zero(n)
    if degree == 0:
        return Polynomial.one(n)
    terms = {}
    for combo in itertools.combinations_with_replacement(range(n), degree):
        key = [0] * (n + 1)
        for idx in combo:
            key[idx] += 1
        terms[tuple(key)] = 1
    return Polynomial._raw(n, terms)


def schur_s_jacobi_trudi(partition, n):
    """Schur polynomial via the Jacobi-Trudi determinant det(h_{lam_i - i + j})."""
    return _schur_s_jacobi_trudi(_as_partition_of_length(partition, n), n)


@lru_cache(maxsize=None)
def _schur_s_jacobi_trudi(lam, n):
    cache = {}

    def minor(rows):
        # Determinant of the submatrix on these rows and columns
        # n - len(rows) .. n - 1 (0-based), expanded along its first column.
        if not rows:
            return Polynomial.one(n)
        got = cache.get(rows)
        if got is not None:
            return got
        col = n - len(rows)
        out = Polynomial.zero(n)
        sign = 1
        for pos, row in enumerate(rows):
            entry = complete_homogeneous(lam[row] - row + col, n)
            if not entry.is_zero:
                sub = minor(rows[:pos] + rows[pos + 1:])
                out = out + sign * (entry * sub)
            sign = -sign
        cache[rows] = out
        return out

    return minor(tuple(range(n)))


# ---------------------------------------------------------------------- #
# Schur P by hook sums and the two-row recursion


def schur_p_recursive(nu, n):
    """Schur P-polynomial by hook sums and the two-row recursion.

    One-row: P_m = sum of Schur polynomials of the hooks (m - j, 1^j).
    Two-row: P_{i,j} = P_i P_j + 2 * sum_{d=1}^{j-1} (-1)^d P_{i+d} P_{j-d}
    + (-1)^j P_{i+j}.  Longer strict partitions expand along the first row
    (odd length) or into two-row minors (even length).
    """
    nu = as_int_sequence(nu)
    if not is_strict_partition(nu):
        raise ValueError(f"not a strict partition: {nu!r}")
    if len(nu) > n:
        raise ValueError(f"strict partition {nu!r} needs more than {n} variables")
    return _schur_p_rec(nu, n)


@lru_cache(maxsize=None)
def _schur_p_one_row(m, n):
    if m == 0:
        return Polynomial.one(n)
    out = Polynomial.zero(n)
    for j in range(m):
        if j + 1 > n:
            break  # hooks with more rows than variables vanish
        hook = (m - j,) + (1,) * j
        out = out + schur_s_jacobi_trudi(hook, n)
    return out


@lru_cache(maxsize=None)
def _schur_p_two_rows(i, j, n):
    out = _schur_p_one_row(i, n) * _schur_p_one_row(j, n)
    for d in range(1, j):
        term = _schur_p_one_row(i + d, n) * _schur_p_one_row(j - d, n)
        out = out + (2 if d % 2 == 0 else -2) * term
    out = out + (1 if j % 2 == 0 else -1) * _schur_p_one_row(i + j, n)
    return out


@lru_cache(maxsize=None)
def _schur_p_rec(nu, n):
    k = len(nu)
    if k == 0:
        return Polynomial.one(n)
    if k == 1:
        return _schur_p_one_row(nu[0], n)
    if k == 2:
        return _schur_p_two_rows(nu[0], nu[1], n)
    out = Polynomial.zero(n)
    if k % 2:
        for a in range(k):
            rest = nu[:a] + nu[a + 1:]
            term = _schur_p_one_row(nu[a], n) * _schur_p_rec(rest, n)
            out = out + (term if a % 2 == 0 else -term)
    else:
        for b in range(1, k):
            rest = nu[1:b] + nu[b + 1:]
            term = _schur_p_two_rows(nu[0], nu[b], n) * _schur_p_rec(rest, n)
            out = out + (term if b % 2 else -term)
    return out
