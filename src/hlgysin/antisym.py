"""Divided differences: the one primitive behind every push-forward.

For 1-based indices i != j the divided difference is

    d_ij f = (f - s_ij f) / (x_i - x_j),

where s_ij swaps x_i and x_j.  It is computed term by term in closed form:
a term x_i^a x_j^b with a > b maps to sum_{k < a-b} x_i^(b+k) x_j^(a-1-k),
one with a < b to minus the same sum with a and b exchanged, and one with
a == b to zero.  No division is performed, so nothing can fail and nothing
is left to check.

Push-forwards in the Chern-root model are composites of the adjacent
d_a = d_{a,a+1} along reduced words (Bernstein-Gelfand-Gelfand 1973;
Demazure 1974).  Along a reduced word of the longest element w0 of S_n the
composite is the Jacobi symmetrizer

    d_w0 f = (sum over w in S_n of sign(w) w(f)) / prod_{i<j} (x_i - x_j),

which is how full-flag push-forwards and alternant quotients are formed
without ever building the n!-term signed sum.
"""

from __future__ import annotations

from .polyring import Polynomial
from .symgroup import ensure_within_bound


def divided_difference(f, i, j):
    """(f - s_ij f) / (x_i - x_j) for 1-based variable indices i != j."""
    n = f.arity
    if i == j or not (1 <= i <= n and 1 <= j <= n):
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
    return [j for k in range(m - 1, 0, -1) for j in range(k, m)]


def jacobi_symmetrizer(p):
    """Exact value of  (sum over w in S_n of sign(w) w(p)) / prod_{i<j}(x_i - x_j),
    computed as the divided difference along the longest element of S_n."""
    n = p.arity
    ensure_within_bound(n)
    for a in longest_word(n):
        p = divided_difference(p, a, a + 1)
    return p
