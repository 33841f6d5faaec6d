"""Correctness oracles that share no code path with the engine.

Every oracle reads the plain ``terms`` dict of an engine result (exponent
tuple ``(a_1, ..., a_n, k)`` -> int, the t-exponent last) and checks it with
its own integer or rational arithmetic.  Nothing here imports hlgysin, so a
bug in the engine stage a workload measures cannot hide in its own check.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

# Sequences with entries <= 3 and n = 4 whose normalizer v_lambda does not
# divide R_lambda.  Frozen regression oracle, identical to the list pinned by
# the divisibility acceptance criterion; for n <= 3 the normalizer always
# divides.
V_DOES_NOT_DIVIDE_R = frozenset({
    (0, 0, 2, 0), (0, 0, 3, 0), (0, 2, 0, 0), (0, 2, 0, 2), (0, 3, 0, 0),
    (0, 3, 0, 3), (1, 1, 3, 1), (1, 3, 1, 1), (1, 3, 1, 3), (2, 0, 2, 0),
    (2, 0, 2, 2), (2, 2, 0, 2), (3, 0, 3, 0), (3, 0, 3, 3), (3, 1, 3, 1),
    (3, 1, 3, 3), (3, 3, 0, 3), (3, 3, 1, 3),
})


def has_contiguous_level_sets(seq):
    """True when equal values of ``seq`` occupy consecutive positions."""
    runs = [value for value, _ in itertools.groupby(seq)]
    return len(runs) == len(set(runs))


def expected_classification(seq):
    """Expected ``(coset_ok, v_divides)``; ``v_divides`` is None when unknown.

    The coset form agrees with the direct class exactly on contiguous level
    sets, where the normalizer also divides.  For interleaved sequences the
    normalizer's divisibility is frozen only up to n = 4.
    """
    contiguous = has_contiguous_level_sets(seq)
    if contiguous:
        return True, True
    if len(seq) <= 4:
        return False, seq not in V_DOES_NOT_DIVIDE_R
    return False, None


# ---------------------------------------------------------------------- #
# polynomials in t alone, as coefficient lists


def _mul_coeffs(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def normalizer_coeffs(seq):
    """v_seq(t): product over value multiplicities m of prod_{i<=m} [i]_t."""
    out = [1]
    for m in Counter(seq).values():
        for i in range(2, m + 1):
            out = _mul_coeffs(out, [1] * i)
    return out


def gaussian_at_minus_one(a, b):
    """[a+b choose a]_t at t = -1, by the t-Pascal rule
    [m, k] = [m-1, k-1] + t^k [m-1, k]."""
    row = [1]  # row[k] = [m, k] at t = -1, starting from m = 0
    for m in range(1, a + b + 1):
        row = [
            (row[k - 1] if k >= 1 else 0)
            + (-1) ** k * (row[k] if k < m else 0)
            for k in range(m + 1)
        ]
    return row[a]


def t_minus1_d(n, q, k, h):
    """The integer d of the t = -1 push-forward identity for strict
    partitions of lengths k <= q and h <= n - q."""
    sign = -1 if ((q - k) * h) % 2 else 1
    return sign * gaussian_at_minus_one(q - k, n - q - h)


# ---------------------------------------------------------------------- #
# Hall-Littlewood classes


def r_at_t1_is_orbit(terms, seq):
    """R_seq at t = 1 equals |stabilizer| times the monomial orbit of x^seq."""
    n = len(seq)
    at_one = {}
    for key, c in terms.items():
        at_one[key[:n]] = at_one.get(key[:n], 0) + c
    at_one = {key: c for key, c in at_one.items() if c}
    stabilizer = math.prod(math.factorial(m) for m in Counter(seq).values())
    return at_one == dict.fromkeys(itertools.permutations(seq), stabilizer)


def r_is_p_times_v(r_terms, p_terms, seq):
    """R_seq = P_seq * v_seq(t), multiplied out term by term."""
    n = len(seq)
    product = {}
    for key, c in p_terms.items():
        for j, a in enumerate(normalizer_coeffs(seq)):
            if a:
                shifted = key[:n] + (key[n] + j,)
                product[shifted] = product.get(shifted, 0) + a * c
    return {key: c for key, c in product.items() if c} == r_terms


# ---------------------------------------------------------------------- #
# Schur S and Schur P polynomials


def hook_content(lam, n):
    """s_lam(1, ..., 1) with n ones: prod over boxes of (n + content) / hook."""
    lam = [part for part in lam if part]
    columns = [sum(1 for part in lam if part > j) for j in range(lam[0] if lam else 0)]
    num = den = 1
    for i, row in enumerate(lam):
        for j in range(row):
            num *= n + j - i
            den *= (row - j) + (columns[j] - i) - 1
    return Fraction(num, den)


def evaluate(terms, point):
    """Value at x = point of a polynomial with no t."""
    total = 0
    for key, c in terms.items():
        if key[-1]:
            raise ValueError("polynomial depends on t")
        total += c * math.prod(y ** e for y, e in zip(point, key))
    return total


def _det(rows):
    """Determinant of a square matrix of Fractions by Gaussian elimination."""
    rows = [list(map(Fraction, row)) for row in rows]
    size = len(rows)
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, size):
            f = rows[r][col] / rows[col][col]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return det


def schur_s_at(lam, point):
    """s_lam(point) by the bialternant a_{lam + delta} / a_delta."""
    n = len(point)
    lam = tuple(lam) + (0,) * (n - len(lam))
    top = _det([[y ** (lam[j] + n - 1 - j) for j in range(n)] for y in point])
    bottom = _det([[y ** (n - 1 - j) for j in range(n)] for y in point])
    return top / bottom


def schur_p_at(nu, point):
    """P_nu(point) by the coset formula over S_n / S_{n-k}:
    sum over injective w of prod_i y_{w(i)}^{nu_i} prod_{i<=k, j>i}
    (y_{w(i)} + y_{w(j)}) / (y_{w(i)} - y_{w(j)})."""
    n, k = len(point), len(nu)
    total = Fraction(0)
    for head in itertools.permutations(range(n), k):
        tail = [v for v in range(n) if v not in head]
        order = list(head) + tail
        value = Fraction(math.prod(point[v] ** e for v, e in zip(head, nu)))
        for i in range(k):
            yi = point[order[i]]
            for j in range(i + 1, n):
                yj = point[order[j]]
                value *= Fraction(yi + yj, yi - yj)
        total += value
    return total


def schur_s_ok(terms, lam, n, point):
    """Homogeneous of degree |lam| with no t, coefficient sum equal to the
    hook-content count, and the bialternant's value at ``point``."""
    degree = sum(lam)
    if any(key[n] or sum(key[:n]) != degree for key in terms):
        return False
    return (
        sum(terms.values()) == hook_content(lam, n)
        and evaluate(terms, point) == schur_s_at(lam, point)
    )


def schur_p_ok(terms, nu, n, point):
    """Homogeneous of degree |nu| with no t, and the coset formula's value
    at ``point``."""
    degree = sum(nu)
    if any(key[n] or sum(key[:n]) != degree for key in terms):
        return False
    return evaluate(terms, point) == schur_p_at(nu, point)
