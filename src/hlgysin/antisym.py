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

which forms alternant quotients without ever building the n!-term signed
sum.  gysin's full-flag push-forward gets the same value from the tower.

One tower routine, _divided_difference_tower, runs both composites that
keep a block symmetry at every step on one exponent vector per orbit: it
takes and returns representatives, never a full polynomial.

* d_{n-1} ... d_1 of a class symmetric in x_2..x_n, the tower that builds
  R_lam.  R_lam carries the representatives from level to level and is
  expanded to all its terms once (_expand), at the end.
* One row d_{k+r-1} ... d_k of a Grassmann merge of the blocks
  ..q | q+1..q+r, on a class symmetric in ..k and k+1..n, the positions
  left of the merged blocks passive.  The rows q..k together are the
  Grassmann push-forward of the blocks k..q | q+1..n, so after row k the
  class is symmetric in all of k..n, not only in the blocks the row's
  last step leaves.  That is why the row keeps, at its end, only the keys
  that weakly decrease over k..n: the rest are other terms of the same
  orbits, and dropping them loses nothing.  R's tower is the row with
  k = 1 and no passive positions.
"""

from __future__ import annotations

from functools import lru_cache

from .polyring import Polynomial


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
    for a in longest_word(p.arity):
        p = divided_difference(p, a, a + 1)
    return p


def _divided_difference_tower(n, reps, start=0, k=1, stop=None):
    """d_{stop-1} ... d_k f, d_k applied first, on orbit representatives;
    stop defaults to n.

    f is symmetric in the coarse block start+1..k and in k+1..n, and the
    positions 1..start are passive: each representative carries them
    unchanged.  Each f_a = d_a ... d_k f is then symmetric in the blocks
    (start+1..k-1 | k..a+1 | a+2..n): d_a ... d_k is the push-forward along
    the bundle of lines in x_k..x_{a+1}, and f is symmetric in
    x_{k+1}..x_{a+1}.  So f_a is carried as a plain dict holding, for each
    orbit, the x-exponents that weakly decrease within each block, with
    the orbit's coefficient as a dict from t-exponent to integer; the
    block bookkeeping is then done once per x-key, whatever the number of
    t-terms.

    From the representatives of f_{a-1} those of d_a f_{a-1} come without
    building the orbits: a dominant key of d_a f_{a-1} agrees outside
    positions a, a+1 with a term of f_{a-1} whose block left of a (the
    coarse block at the first step, k..a after it) is a representative's
    less one copy of a value u, placed at a, and whose block a+1..n is a
    representative's less one copy of a value v, placed at a+1.  Of the
    closed-form terms x_a^e x_{a+1}^(u+v-1-e) of d_a(x_a^u x_{a+1}^v), only
    those with e >= u+v-1-e keep the key dominant, and after the first
    step only those with rest1[-1] >= e; at the first step u leaves the
    coarse block for a block of its own, so what is left of it sets no
    bound.

    The caller also guarantees that f_{stop-1} is symmetric in all of k..n.
    In a Grassmann merge of the blocks ..q | q+1..n it is: with r = n - q
    and stop = k + r, the rows d_{q+r-1} ... d_q, ..., d_{stop-1} ... d_k
    make up the Grassmann push-forward of the blocks k..q | q+1..n.  So
    the last step keeps only the keys that weakly decrease over k..n, those
    whose exponent at stop is at least the one at stop+1, and the
    representatives for the blocks (start+1..k-1 | k..n) are returned.
    Neither condition is checked.  The defaults start = 0, k = 1, stop = n
    give the tower d_{n-1} ... d_1 that builds R_lam: f is symmetric in
    x_2..x_n, the answer is symmetric, and its partition keys are returned;
    _expand makes the polynomial.
    """
    if stop is None:
        stop = n
    for a in range(k, stop):
        lo = start if a == k else k - 1  # where the block u leaves begins
        capped = a > k
        last = a == stop - 1 and stop < n
        out = {}
        get = out.get
        for key, tc in reps.items():
            negated = None
            # (v, block 2 less one v) for each distinct v of block 2
            block2 = key[a:]
            tails = []
            prev = None
            for i, v in enumerate(block2):
                if v != prev:
                    tails.append((v, block2[:i] + block2[i + 1:]))
                    prev = v
            passive, block1 = key[:lo], key[lo:a]
            prev = None
            for i, u in enumerate(block1):
                if u == prev:
                    continue
                prev = u
                rest1 = block1[:i] + block1[i + 1:]
                cap = rest1[-1] if capped else u + block2[0]
                rest1 = passive + rest1
                for v, rest2 in tails:
                    # e runs over lo_e..top: lo_e keeps e >= s - e, top is
                    # the closed form's last exponent, cut to rest1[-1] and,
                    # at the end of a row, to s - rest2[0]
                    s = u + v - 1
                    if u > v:
                        top = u - 1 if u <= cap else cap
                    elif u < v:
                        top = v - 1 if v <= cap else cap
                    else:
                        continue
                    if last and top > s - rest2[0]:
                        top = s - rest2[0]
                    lo_e = (s + 1) // 2
                    if lo_e > top:
                        continue
                    if u > v:
                        signed = tc
                    else:
                        if negated is None:
                            negated = {t: -c for t, c in tc.items()}
                        signed = negated
                    for e in range(lo_e, top + 1):
                        nk = rest1 + (e, s - e) + rest2
                        g = get(nk)
                        if g is None:
                            out[nk] = signed.copy()
                        else:
                            for t, c in signed.items():
                                g[t] = g.get(t, 0) + c
        reps = _nonzero_orbits(out)
    return reps


def _nonzero_orbits(orbits):
    """``orbits`` without its zero coefficients and the keys left empty."""
    out = {}
    for key, tc in orbits.items():
        if not all(tc.values()):
            tc = {t: c for t, c in tc.items() if c}
            if not tc:
                continue
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
