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

The composite d_{n-1} ... d_1 of a class symmetric in x_2..x_n, the tower
that builds R_lam, keeps a block symmetry at every step, so it is run on one
exponent vector per orbit (_divided_difference_tower): it takes and returns
representatives, never a full polynomial.  R_lam carries them from level to
level and is expanded to all its terms once (_expand), at the end.
"""

from __future__ import annotations

from functools import lru_cache

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


def _divided_difference_tower(n, reps):
    """d_{n-1} ... d_1 f, d_1 applied first, for f symmetric in x_2..x_n,
    on orbit representatives.

    The precondition is not checked.  It makes every intermediate
    f_a = d_a ... d_1 f symmetric in x_1..x_{a+1} and in x_{a+2}..x_n:
    f_a is the push-forward along the bundle of lines in a rank a+1 space,
    or directly, d_a maps a class symmetric in x_1..x_a and x_{a+1}..x_n to
    one symmetric in x_1..x_{a+1} and x_{a+2}..x_n.  So each f_a is carried
    as a plain dict holding, for each orbit, the x-exponents that weakly
    decrease within both blocks, with the orbit's coefficient as a dict
    from t-exponent to integer; the block bookkeeping is then done once per
    x-key, whatever the number of t-terms.  ``reps`` holds f this way for
    the blocks (1 | n-1), and the (n | 0) representatives of the symmetric
    answer, its partition keys, are returned; _expand makes the polynomial.

    From the (a | n-a) representatives the (a+1 | n-a-1) ones come without
    building the orbits: a block-dominant key of d_a f_{a-1} agrees outside
    positions a, a+1 with a term of f_{a-1} whose block 1 is a
    representative's first block less one copy of a value u, placed at
    position a, and whose block 2 is its second block less one copy of a
    value v, placed at a+1.  Of the closed-form terms x_a^e x_{a+1}^(u+v-1-e)
    of d_a(x_a^u x_{a+1}^v), only those with rest1[-1] >= e >= u+v-1-e keep
    the key dominant.
    """
    for a in range(1, n):
        out = {}
        for key, tc in reps.items():
            # (v, block 2 less one v) for each distinct v of block 2
            tails = []
            for i in range(a, n):
                if i == a or key[i] != key[i - 1]:
                    tails.append((key[i], key[a:i] + key[i + 1:]))
            block1 = key[:a]
            for i, u in enumerate(block1):
                if i and u == block1[i - 1]:
                    continue
                rest1 = block1[:i] + block1[i + 1:]
                # no bound from block 1 when u is its only entry
                cap = rest1[-1] if rest1 else u + key[a]
                for v, rest2 in tails:
                    # e runs over lo..top: lo keeps e >= s - e, top is the
                    # closed form's last exponent, cut to rest1[-1]
                    s = u + v - 1
                    lo = (s + 1) // 2
                    if u > v:
                        top, sign = (u - 1 if u <= cap else cap), 1
                    elif u < v:
                        top, sign = (v - 1 if v <= cap else cap), -1
                    else:
                        continue
                    for e in range(lo, top + 1):
                        nk = rest1 + (e, s - e) + rest2
                        g = out.get(nk)
                        if g is None:
                            out[nk] = {t: sign * c for t, c in tc.items()}
                        else:
                            for t, c in tc.items():
                                g[t] = g.get(t, 0) + sign * c
        reps = _nonzero_orbits(out)
    return reps


def _nonzero_orbits(orbits):
    """``orbits`` without its zero coefficients and the keys left empty."""
    out = {}
    for key, tc in orbits.items():
        tc = {t: c for t, c in tc.items() if c}
        if tc:
            out[key] = tc
    return out


def _expand(n, reps):
    """The polynomial in x_1..x_n and t whose symmetric orbits ``reps``
    holds: each partition key, a tuple of n exponents, maps to its orbit's
    coefficient as a dict from t-exponent to integer, which every distinct
    rearrangement of the key carries.  The cost is proportional to the
    answer."""
    terms = {}
    for key, tc in reps.items():
        for x in _rearrangements(key):
            for t, c in tc.items():
                terms[x + (t,)] = c
    return Polynomial._raw(n, terms)


@lru_cache(maxsize=256)
def _rearrangements(part):
    """The distinct rearrangements of a weakly decreasing tuple."""
    if len(part) < 2:
        return (part,)
    return tuple(
        (v,) + rest
        for i, v in enumerate(part)
        if i == 0 or v != part[i - 1]
        for rest in _rearrangements(part[:i] + part[i + 1:])
    )
