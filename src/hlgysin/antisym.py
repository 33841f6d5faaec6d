"""Divided differences on orbits: the one primitive behind every push-forward.

For 1-based indices i != j the divided difference is

    d_ij f = (f - s_ij f) / (x_i - x_j),

where s_ij swaps x_i and x_j.  On a term it has a closed form: x_i^a x_j^b
with a > b maps to sum_{k < a-b} x_i^(b+k) x_j^(a-1-k), one with a < b to
minus the same sum with a and b exchanged, and one with a == b to zero.
No division is performed, so nothing can fail and nothing is left to
check.

Push-forwards in the Chern-root model are composites of the adjacent
d_a = d_{a,a+1} along reduced words (Bernstein-Gelfand-Gelfand 1973;
Demazure 1974).  This module holds them only on orbits; the plain
divided difference of a whole polynomial, and the Jacobi symmetrizer
along the longest element of S_n, are oracles (hlgysin.oracles).

One routine, _divided_difference_tower, runs every composite that keeps a
block symmetry at every step, on one exponent vector per orbit: it takes
and returns representatives, never a full polynomial.

* d_{n-1} ... d_1 of a class symmetric in x_2..x_n, the tower that builds
  R_lam.  R_lam carries the representatives from level to level and is
  expanded to all its terms once (_expand), at the end.
* One row d_{k+r-1} ... d_k of a Grassmann merge of the blocks
  ..q | q+1..q+r, on a class symmetric in ..k and k+1..n, the positions
  left of the merged blocks passive.  The rows q..k together are the
  Grassmann push-forward of the blocks k..q | q+1..n, so after row k the
  class is symmetric in all of k..n.  R's tower is the row with k = 1 and
  no passive positions.

A row is a linear map on orbits.  Write an input orbit as x^passive times
m_block(x_..x_k) times m_beta(x_{k+1}..x_n), and split m_block by the value
u that stands at k: what is left of the block and the passive positions
commute with d_k .. d_{k+r-1}, so the row acts on x_k^u m_beta alone, and

    row = sum over orbits, sum over distinct u of the block, of
          tc * x^passive * m_(block less u)(x_..x_{k-1})
             * image(u, beta, r)(x_k..x_n),

tc the orbit's coefficient.  On representatives each key of the image
follows the passive positions and the block less u.

image(u, beta, r) is the dominant part (keys weakly decreasing) of
d_r ... d_1 (x_1^u m_beta(x_2..)): integers only, no t, and the same for
every orbit that shares u, beta and r.  _row_image memoizes it by a
recursion on d alone: d_1 (x_1^u x_2^v) in closed form for each distinct
v of beta, then the image of length r - 1 of each term's x_2-exponent and
beta less v, with x_1^e passive.  A key (e, nu) is dominant only if nu is,
so the shorter image's dominant part is all that is needed, and only the
keys with e >= nu_1 are kept.  At the top, keeping only the keys that
weakly decrease over k..n loses nothing because the row's total is
symmetric there: the same orbits' other terms are what is dropped.

Every orbit coefficient is one int, its polynomial in t packed at t = c,
c the cross factor's constant: at c = 0 and c = -1 the coefficient
itself, and at c = t its value at the packed t 2**B
(polyring._packed_t), so that a row's step is one integer product and
sum.  Only the edges read a polynomial back, once per orbit.
"""

from __future__ import annotations

from functools import lru_cache

from .polyring import Polynomial, _unpack


def _divided_difference_tower(n, reps, start, k, stop):
    """d_{stop-1} ... d_k f, d_k applied first, on orbit representatives.

    f is symmetric in the coarse block start+1..k and in k+1..n, and the
    positions 1..start are passive.  reps holds, for each orbit, the
    x-exponents that weakly decrease within each block, with the orbit's
    packed coefficient (see the module docstring).  The caller
    guarantees that the answer is symmetric in all of k..n; in a Grassmann
    merge of the blocks ..q | q+1..n it is, since with r = n - q and
    stop = k + r the rows d_{q+r-1} ... d_q, ..., d_{stop-1} ... d_k make up
    the Grassmann push-forward of the blocks k..q | q+1..n.  This is not
    checked.  The representatives for the blocks (start+1..k-1 | k..n) are
    returned.

    Each orbit and each distinct value u of its coarse block add the
    orbit's coefficient times _row_image(u, beta, stop - k), beta the keys'
    positions k+1..n, behind the passive positions and the block less u
    (see the module docstring).  Each key of an image costs one integer
    multiplication and one addition; no intermediate row is built.
    """
    r = stop - k
    width = n - k + 1  # of a key of the row's images
    out = {}
    get = out.get
    for key, v in reps.items():
        passive, block, beta = key[:start], key[start:k], key[k:]
        prev = None
        for i, u in enumerate(block):
            if u == prev:
                continue
            prev = u
            image = _row_image(u, beta, r)
            head = passive + block[:i] + block[i + 1:]
            for j in range(0, len(image), width + 1):
                nk = head + image[j : j + width]
                out[nk] = get(nk, 0) + image[j + width] * v
    return _nonzero_orbits(out)


@lru_cache(maxsize=2**15)
def _row_image(u, beta, r):
    """The dominant part of d_r ... d_1 (x_1^u m_beta(x_2..)), beta weakly
    decreasing, as one flat tuple: each key's len(beta) + 1 exponents
    followed by its nonzero integer coefficient, stride len(beta) + 2.

    r = 0 leaves the one key (u, *beta), if it is dominant.  Otherwise, for
    each distinct v != u of beta, d_1 (x_1^u x_2^v) is
    +-sum x_1^e x_2^(u+v-1-e) over e from min(u, v) to max(u, v) - 1, minus
    when u < v, and each term takes the image of length r - 1 of
    (u+v-1-e, beta less v) on x_2.., x_1^e passive; a key (e, nu) is kept
    only if e >= nu_1.  A dominant key of length len(beta) + 1 and degree
    D = u + |beta| - r has a first part of at least D / (len(beta) + 1),
    so smaller e are skipped unbuilt.

    The flat layout is measured, not style.  As (key, coefficient) pairs
    an image of m keys leaves 2m + 1 GC-tracked tuples behind, not one.
    Without the floor on e, that pulled the process's first generation-1
    collection (1-1.5 ms) into the benchmark's first oracles-schur
    instance in every worker checked, and that workload's
    instance_ref_p90, its 18th-slowest instance of 174 and the one that
    hosts that pass, read 0.90-0.92 against 0.66-0.70 with flat tuples.
    With the floor, pairs left the pass in place in the runs checked; the
    flat layout keeps the margin whatever the recursion computes.

    The cache is bounded like the package's others.  t-minus1 with q = 4,
    nu = (3, 1), sigma = (2) meets 30,688, 51,937 and 84,768 distinct
    images at n = 11, 12 and 13.  At 2**15 entries n = 13 recomputes under
    1 % of them (85,346 misses) and runs in about the time an unbounded
    cache takes; at 2**14 it makes 154,269 misses and runs 1.7 times
    slower.
    """
    if not r:
        return (u, *beta, 1) if not beta or u >= beta[0] else ()
    width = len(beta)  # of a key of the shorter images
    floor = -(-(u + sum(beta) - r) // (width + 1))
    out = {}
    get = out.get
    prev = None
    for i, v in enumerate(beta):
        if v == prev:
            continue
        prev = v
        if v == u:
            continue
        rest = beta[:i] + beta[i + 1:]
        s = u + v - 1
        sign = 1 if u > v else -1
        for e in range(max(min(u, v), floor), max(u, v)):
            sub = _row_image(s - e, rest, r - 1)
            head = (e,)
            for j in range(0, len(sub), width + 1):
                if sub[j] <= e:
                    key = head + sub[j : j + width]
                    out[key] = get(key, 0) + sign * sub[j + width]
    flat = []
    for key, m in out.items():
        if m:
            flat += key
            flat.append(m)
    return tuple(flat)


def _nonzero_orbits(orbits):
    """``orbits`` without the keys whose packed coefficient is 0."""
    return {key: v for key, v in orbits.items() if v}


def _expand(n, reps, c):
    """The polynomial in x_1..x_n and t whose symmetric orbits ``reps``
    holds: each partition key, a tuple of n exponents, maps to its orbit's
    coefficient packed at t = c, which is read back once per orbit and
    carried by every distinct rearrangement of the key.  The cost is
    proportional to the answer."""
    terms = {}
    for key, v in reps.items():
        tc = _unpack(v, c).items()
        for x in _rearrangements(key):
            for e, d in tc:
                terms[x + e] = d
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
