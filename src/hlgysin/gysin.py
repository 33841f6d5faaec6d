"""Push-forward (Gysin) operators in the Chern-root model.

Every operator here is a symmetrizing operator attached to a set partition
of the variable indices: for a polynomial f invariant under the Young
subgroup preserving each block,

    push(f) = sum over coset representatives w of
              w( f / prod (x_i - x_j) over cross-block pairs i < j ).

In Chern roots such a sum is a composite of divided differences
(Bernstein-Gelfand-Gelfand 1973; Demazure 1974), and that is how every
flavor (full flag, Grassmannian, partial flag, leading flag) is computed:
the blocks are relabelled into consecutive runs and merged from the last
one backwards, each merge being the Grassmann push-forward along the
reduced word of its longest minimal coset representative.  No n!-term sum
is formed and no division can fail.

Every push-forward runs on orbit representatives from its input to its
answer.  The input is relabelled, checked for block symmetry and cut to
the terms whose exponents weakly decrease within each run, one per orbit,
in one pass over its terms.  Each merge is a sequence of rows of
antisym._divided_difference_tower, a linear map on representatives: each
orbit, by the value it moves to the row's first position and the key after
it, picks a memoized image (antisym._row_image) that the row adds in, and
no step of a row is built.  The answer, symmetric, is expanded once from
its partition keys.
Callers that build a symmetric input themselves can hand its
representatives to _merge_runs directly.

Every Grassmann row whose input is cross * A(Q) * B(S), with
cross = prod over i <= q < j of (x_i - c x_j) and A, B symmetric, builds
that input's dominant orbits in one place, _grassmann_input, from the
orbits of A and B by the Pieri rule, and _grassmann_orbits pushes them
forward.  hallittlewood._rows, the one recursion behind R_lam (q = 1,
c = t), Schur P (q = 1, c = -1) and Schur S (q = 1, c = 0), and the five
Grassmann verifiers all run on it; none forms the product.

Every orbit's coefficient is one int, its polynomial in t packed at t = c
(polyring._packed_t): c is 0 or -1, or at c = t the packed t 2**B, and
the cross factor's constant is that same int, so a product of two
polynomials in t is one integer product.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache

from .antisym import (
    _divided_difference_tower,
    _expand,
    _nonzero_orbits,
    _rearrangements,
)
from .polyring import (
    ArityMismatchError,
    _checked_int,
    _checked_ints,
    _inversions,
    _norm,
    _packed_t,
    _pushforward_bound,
)


class NonInvariantInputError(ValueError):
    """Input polynomial is not symmetric within each block of the split."""


@dataclass(frozen=True)
class RootSplit:
    """An ordered partition of the variable indices 1..n into blocks.

    Blocks model groups of Chern roots: a two-block split (1..q | q+1..n)
    is the Grassmannian case, n singleton blocks the full flag case.
    """

    n: int
    blocks: tuple

    def __post_init__(self):
        _checked_int(self.n, "n", 1)
        try:
            blocks = tuple(
                tuple(sorted(_checked_ints(b, "block members", 1))) for b in self.blocks
            )
        except TypeError:
            raise ValueError(f"blocks must be a sequence of blocks, got {self.blocks!r}") from None
        object.__setattr__(self, "blocks", blocks)
        if any(not b for b in blocks):
            raise ValueError("blocks must be nonempty")
        flat = sorted(itertools.chain.from_iterable(blocks))
        if flat != list(range(1, self.n + 1)):
            raise ValueError(f"blocks {blocks!r} do not partition 1..{self.n}")

    @classmethod
    def grassmann(cls, q, r):
        """Two blocks 1..q and q+1..q+r."""
        n = _checked_int(q, "q", 1) + _checked_int(r, "r", 1)
        return cls(n, (tuple(range(1, q + 1)), tuple(range(q + 1, n + 1))))

    @classmethod
    def full_flag(cls, n):
        """n singleton blocks."""
        return cls(n, tuple((i,) for i in range(1, _checked_int(n, "n") + 1)))

    @classmethod
    def leading_flag(cls, k, n):
        """k singleton blocks then one block k+1..n (full flag when k >= n-1)."""
        if not 0 <= _checked_int(k, "k") <= _checked_int(n, "n"):
            raise ValueError(f"k must lie in 0..{n}")
        head = tuple((i,) for i in range(1, k + 1))
        if k == n:
            return cls(n, head)
        return cls(n, head + (tuple(range(k + 1, n + 1)),))


def partial_flag_pushforward(f, split):
    """Push f forward along the flag of quotients determined by the split.

    f must be invariant under permutations within each block (checked).
    One pass over its terms relabels the blocks, in their given order, into
    consecutive runs, checks that each term keeps its coefficient when two
    neighbours inside a run swap, and keeps the terms whose exponents weakly
    decrease within each run, one per orbit.  The relabelling keeps the
    order inside each block, so its sign is the parity of the cross-block
    pairs i < j it reverses, and the kept coefficients carry that sign.
    They are packed at the t that the push-forward's bound certifies,
    _merge_runs pushes them forward, and the symmetric answer is expanded
    once from its partition keys.
    """
    n = split.n
    if f.arity != n:
        raise ArityMismatchError(
            f"polynomial arity {f.arity} does not match split on {n} variables"
        )
    order = [i - 1 for b in split.blocks for i in b]
    relabel = operator.itemgetter(*order, n)
    terms = {relabel(key): c for key, c in f.terms.items()}
    sizes = [len(b) for b in split.blocks]
    ends = set(itertools.accumulate(sizes))
    pairs = [i for i in range(n - 1) if i + 1 not in ends]
    sign = -1 if _inversions(order) & 1 else 1
    crossings = n * (n - 1) // 2 - sum(q * (q - 1) // 2 for q in sizes)
    degree = max((sum(key[:n]) for key in terms), default=0)
    t = _packed_t(_pushforward_bound(_norm(f), n, degree, crossings))
    reps = {}
    for key, c in terms.items():
        dominant = True
        for i in pairs:
            a, b = key[i], key[i + 1]
            if a != b:
                if terms.get(key[:i] + (b, a) + key[i + 2 :]) != c:
                    raise NonInvariantInputError(
                        f"polynomial is not symmetric within block structure {split.blocks!r}"
                    )
                dominant = dominant and a > b
        if dominant:
            reps[key[:n]] = reps.get(key[:n], 0) + sign * c * t ** key[n]
    if len(split.blocks) == 1:
        return f
    return _expand(n, _merge_runs(n, sizes, reps), t)


def _merge_runs(n, sizes, reps):
    """The partition keys of the push-forward of a class symmetric in
    consecutive runs of the given sizes, from its representatives ``reps``.

    The runs are merged from the last one backwards.  Merging the run of q
    variables after offset into the r variables after it is the Grassmann
    push-forward, the word [offset + j for k = q..1 for j = k..k+r-1], first
    letter first: q rows of the tower, each d_{offset+k+r-1} ... d_{offset+k}
    with the earlier runs passive.  After row k the class is symmetric in
    offset+k..n, so the merged run is one block when the merge ends.
    """
    r = sizes[-1]
    offset = n - r
    for q in reversed(sizes[:-1]):
        offset -= q
        for k in range(offset + q, offset, -1):
            reps = _divided_difference_tower(n, reps, offset, k, k + r)
        r += q
    return reps


def full_flag_pushforward(f, n):
    """Push forward along the full flag: (sum over all w of sign(w) w(f))
    / Vandermonde, the partial-flag push-forward along n singleton blocks.
    No symmetry precondition; in no variables f is its own push-forward."""
    if f.arity != _checked_int(n, "n"):
        raise ArityMismatchError(f"polynomial arity {f.arity} does not match n = {n}")
    return partial_flag_pushforward(f, RootSplit.full_flag(n)) if n else f


def grassmann_pushforward(f, q, r):
    """Push forward along the Grassmannian split (1..q | q+1..q+r)."""
    return partial_flag_pushforward(f, RootSplit.grassmann(q, r))


def leading_flag_pushforward(f, k, n):
    """Push forward along the flag of quotient ranks k, k-1, ..., 1:
    singleton blocks {1}..{k} followed by the block {k+1..n}."""
    return partial_flag_pushforward(f, RootSplit.leading_flag(k, n))


# ---------------------------------------------------------------------- #
# Grassmann rows built from orbits


def _grassmann_orbits(n, q, c, a, b):
    """The partition keys of the Grassmann push-forward along
    (1..q | q+1..n) of cross * A(x_1..x_q) * B(x_{q+1}..x_n), with
    cross = prod over i <= q < j of (x_i - c x_j) and c an int: 0, -1, or
    at c = t the packed t.  A and B are symmetric and given by their
    orbits, partition keys mapped to coefficients packed at c.  The
    product is never formed, only its representatives; the callers pass
    1 <= q < n."""
    return _merge_runs(n, (q, n - q), _grassmann_input(n, q, c, a, b))


def _grassmann_input(n, q, c, a, b):
    """The (q | n-q)-dominant orbits of cross * A(x_1..x_q) * B(x_{q+1}..x_n),
    as _grassmann_orbits takes them.

    With r = n - q, each factor of cross is
    sum_k (-c)^k x_i^(r-k) e_k(x_{q+1}..x_n), so, grouping the choices of
    k by their multiset K in [0..r]^q,

        cross * A * B = sum_K (-c)^|K| (m_{r-K} * A)(Q) (e_K * B)(S),

    m the monomial symmetric polynomial, and the dominant part of each
    summand is the product of the dominant parts of its two factors.
    The Q-factors depend on q, r, c and A only (_cross_sides); e_K * B is
    the Pieri step applied |K| times, memoized on the suffix of K.  Each
    pair of a Q-orbit and an S-orbit adds the product of its packed
    coefficients into the result, and the zeros are dropped once, at the
    end.
    """
    pieri = {}  # suffix of K -> {k: orbits of e_k * e_suffix * B}
    reps = {}
    get = reps.get
    for ks, q_side in _cross_sides(q, n - q, c, tuple(a.items())):
        s_side = _elementary_suffix(ks, b, pieri).items()
        for gamma, u in q_side.items():
            for delta, v in s_side:
                key = gamma + delta
                reps[key] = get(key, 0) + u * v
    return _nonzero_orbits(reps)


@lru_cache(maxsize=256)
def _cross_sides(q, r, c, a_key):
    """(K, the partition keys of (-c)^|K| * m_{r-K} * A) for each multiset K
    in [0..r]^q, increasing, whose Q-factor is not zero, A given by its
    orbits as a tuple of (partition key, packed coefficient) pairs; a K of
    weight zero is skipped unbuilt.  The rows meet the same few
    (q, r, c, A) again and again; the dicts are shared by every caller,
    which reads them only."""
    a_terms = [(x, v) for key, v in a_key for x in _rearrangements(key)]
    sides = []
    for ks in itertools.combinations_with_replacement(range(r + 1), q):
        weight = (-c) ** sum(ks)
        if not weight:
            continue
        m_alpha_a = _monomial_product(tuple(r - k for k in ks), a_terms)
        side = _scaled_orbits(m_alpha_a, weight)
        if side:
            sides.append((ks, side))
    return tuple(sides)


def _elementary_suffix(ks, b, pieri):
    """The orbits of e_{ks[0]} * ... * e_{ks[-1]} * B, B given by its
    orbits b and ks increasing, so that its zeros (e_0 = 1) lead and are
    dropped; ``pieri`` maps each suffix met so far to the Pieri products
    of e_suffix * B."""
    ks = ks[ks.count(0):]
    if not ks:
        return b
    products = pieri.get(ks[1:])
    if products is None:
        products = _elementary_products(_elementary_suffix(ks[1:], b, pieri))
        pieri[ks[1:]] = products
    return products.get(ks[0], {})


def _elementary_products(orbits):
    """{k: the orbits of e_k * g} for the symmetric g whose partition keys
    ``orbits`` holds, each with its packed coefficient; k runs over the
    weights that occur."""
    out = {}
    for mu, v in orbits.items():
        for k, nu, coeff in _pieri_terms(mu):
            products = out.setdefault(k, {})
            products[nu] = products.get(nu, 0) + coeff * v
    return {k: _nonzero_orbits(products) for k, products in out.items()}


@lru_cache(maxsize=256)
def _pieri_terms(mu):
    """(k, nu, coefficient) for each partition key nu of e_k * m_mu.

    By the Pieri rule for monomials (Macdonald I.6) the dominant part of
    e_k * m_mu is sum over nu of prod_v C(m_{v+1}(nu), r_v) x^nu: nu raises,
    for each value v of mu, its r_v leftmost copies to v + 1, with
    k = sum_v r_v.  The leftmost copies keep nu weakly decreasing, and the
    binomial counts the 0/1 vectors of weight k that take a rearrangement
    of mu to nu.  The terms depend on mu alone.
    """
    runs = [(v, len(tuple(copies))) for v, copies in itertools.groupby(mu)]
    terms = []
    for raised in itertools.product(*(range(m + 1) for _, m in runs)):
        coeff = 1
        nu = ()
        above, left = -1, 0  # value and unraised copies of the run before
        for (v, m), r in zip(runs, raised):
            if above == v + 1:
                coeff *= math.comb(r + left, r)
            nu += (v + 1,) * r + (v,) * (m - r)
            above, left = v, m - r
        terms.append((sum(raised), nu, coeff))
    return tuple(terms)


def _monomial_product(alpha, a_terms):
    """The partition keys of m_alpha * A for a partition alpha, A given by
    all its terms as (x-exponents, packed coefficient) pairs."""
    out = {}
    for x in _rearrangements(alpha):
        for y, v in a_terms:
            key = tuple(map(operator.add, x, y))
            if all(map(operator.ge, key, key[1:])):
                out[key] = out.get(key, 0) + v
    return _nonzero_orbits(out)


def _scaled_orbits(orbits, u):
    """Each orbit's packed coefficient times the packed u; the integers have
    no zero divisors, so only u = 0 empties the orbits."""
    return {key: v * u for key, v in orbits.items()} if u else {}
