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

Except for the full flag, whose input has no symmetry, the push-forward
runs on orbit representatives from its input to its answer.  The input is
checked for block symmetry and then cut to the terms whose exponents weakly
decrease within each run, one per orbit.  Each merge is a sequence of rows
of antisym._divided_difference_tower, which carries representatives only,
and the answer, symmetric, is expanded once from its partition keys.
Callers that build a symmetric input themselves can hand its
representatives to _merge_runs directly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .antisym import _divided_difference_tower, _expand, jacobi_symmetrizer
from .polyring import ArityMismatchError
from .symgroup import Permutation, ensure_within_bound


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
        blocks = tuple(tuple(sorted(b)) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if self.n < 1:
            raise ValueError("n must be positive")
        if any(not b for b in blocks):
            raise ValueError("blocks must be nonempty")
        flat = sorted(itertools.chain.from_iterable(blocks))
        if flat != list(range(1, self.n + 1)):
            raise ValueError(f"blocks {blocks!r} do not partition 1..{self.n}")

    @classmethod
    def grassmann(cls, q, r):
        """Two blocks 1..q and q+1..q+r."""
        if q < 1 or r < 1:
            raise ValueError("both block sizes must be positive")
        n = q + r
        return cls(n, (tuple(range(1, q + 1)), tuple(range(q + 1, n + 1))))

    @classmethod
    def full_flag(cls, n):
        """n singleton blocks."""
        return cls(n, tuple((i,) for i in range(1, n + 1)))

    @classmethod
    def leading_flag(cls, k, n):
        """k singleton blocks then one block k+1..n (full flag when k >= n-1)."""
        if not 0 <= k <= n:
            raise ValueError(f"k must lie in 0..{n}")
        head = tuple((i,) for i in range(1, k + 1))
        if k == n:
            return cls(n, head)
        return cls(n, head + (tuple(range(k + 1, n + 1)),))

    def block_symmetry_generators(self):
        """Transpositions of consecutive members of each block; they generate
        the Young subgroup preserving the split."""
        for b in self.blocks:
            for a, c in zip(b, b[1:]):
                yield Permutation.transposition(self.n, a, c)


def _check_block_symmetric(f, split):
    for g in split.block_symmetry_generators():
        if f.permute_vars(g) != f:
            raise NonInvariantInputError(
                f"polynomial is not symmetric within block structure {split.blocks!r}"
            )


def partial_flag_pushforward(f, split):
    """Push f forward along the flag of quotients determined by the split.

    f must be invariant under permutations within each block (checked).
    One variable permutation w relabels the blocks, in their given order,
    into consecutive runs.  w keeps the order inside each block, so its
    sign is the parity of the cross-block pairs i < j it reverses, and the
    push-forward changes by that sign.  Only the relabelled terms whose
    exponents weakly decrease within each run are kept, one per orbit of
    the runs' symmetry; _merge_runs pushes them forward, and the symmetric
    answer is expanded once from its partition keys.
    """
    if f.arity != split.n:
        raise ArityMismatchError(
            f"polynomial arity {f.arity} does not match split on {split.n} variables"
        )
    ensure_within_bound(split.n)
    _check_block_symmetric(f, split)
    if len(split.blocks) == 1:
        return f
    w = Permutation(itertools.chain.from_iterable(split.blocks)).inverse()
    sizes = [len(b) for b in split.blocks]
    orbits = _merge_runs(split.n, sizes, _run_representatives(f.permute_vars(w), sizes))
    if w.sign() < 0:
        orbits = {key: {t: -c for t, c in tc.items()} for key, tc in orbits.items()}
    return _expand(split.n, orbits)


def _run_representatives(f, sizes):
    """The terms of f whose exponents weakly decrease within each run of
    consecutive variables of the given sizes, grouped as the tower carries
    them: x-exponents -> {t-exponent: coefficient}."""
    n = f.arity
    ends = set(itertools.accumulate(sizes))
    pairs = [i for i in range(1, n) if i not in ends]
    reps = {}
    for key, c in f.terms.items():
        if all(key[i - 1] >= key[i] for i in pairs):
            reps.setdefault(key[:n], {})[key[n]] = c
    return reps


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
    """Push forward along the full flag: the Jacobi symmetrizer
    (sum over all w of sign(w) w(f)) / Vandermonde.  No symmetry
    precondition (all blocks are singletons)."""
    if f.arity != n:
        raise ArityMismatchError(f"polynomial arity {f.arity} does not match n = {n}")
    ensure_within_bound(n)
    return jacobi_symmetrizer(f)


def grassmann_pushforward(f, q, r):
    """Push forward along the Grassmannian split (1..q | q+1..q+r)."""
    return partial_flag_pushforward(f, RootSplit.grassmann(q, r))


def leading_flag_pushforward(f, k, n):
    """Push forward along the flag of quotient ranks k, k-1, ..., 1:
    singleton blocks {1}..{k} followed by the block {k+1..n}."""
    return partial_flag_pushforward(f, RootSplit.leading_flag(k, n))
