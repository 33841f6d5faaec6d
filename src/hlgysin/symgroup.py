"""Permutations, level-set block structures, and coset transversals.

The coset form of R and the oracles' naive sums run over left cosets of a
Young subgroup S_n^B attached to a decomposition B of the index set
{1..n} into classes.  For a sequence of integers the classes are its level
sets grouped by value (positions carrying equal values), ordered by first
occurrence; they need not be contiguous.  The canonical transversal picks
from each coset the unique element whose restriction to every class is
increasing.

Everything here is exact and deterministic; enumeration order is fixed so
downstream reductions are reproducible.  A fixed bound, n <= 8
(DEFAULT_PERMUTATION_BOUND), guards the n! blowup of coset_reps and of the
oracles' enumerations; classes and push-forwards enumerate nothing.
Integer input goes through polyring's checks, the images included, though
coset_reps builds thousands of permutations: the check costs each one well
under a microsecond.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .polyring import _checked_int, _checked_ints, _inversions

DEFAULT_PERMUTATION_BOUND = 8


class BoundExceededError(ValueError):
    """Requested an enumeration beyond the permutation bound."""


def ensure_within_bound(n):
    if _checked_int(n, "n") > DEFAULT_PERMUTATION_BOUND:
        raise BoundExceededError(
            f"n = {n} exceeds permutation bound {DEFAULT_PERMUTATION_BOUND}"
        )


class Permutation:
    """A permutation of {1..n} in one-line notation: images[i-1] = w(i)."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = _checked_ints(images, "permutation images", None)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {images!r}")
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @classmethod
    def identity(cls, n):
        return cls(range(1, _checked_int(n, "n", 0) + 1))

    @classmethod
    def transposition(cls, n, a, b):
        _checked_int(n, "n", 0)
        if _checked_int(a, "a") == _checked_int(b, "b"):
            raise ValueError("transposition needs two distinct points")
        if not (1 <= a <= n and 1 <= b <= n):
            raise ValueError(f"transposition points {a}, {b} must lie in 1..{n}")
        images = list(range(1, n + 1))
        images[a - 1], images[b - 1] = b, a
        return cls(images)

    @property
    def degree(self):
        return len(self.images)

    def __call__(self, i):
        n = len(self.images)
        if not 1 <= _checked_int(i, "point") <= n:
            raise ValueError(f"point {i} must lie in 1..{n}")
        return self.images[i - 1]

    def __mul__(self, other):
        """Composition (self * other)(i) = self(other(i))."""
        if not isinstance(other, Permutation):
            return NotImplemented
        if self.degree != other.degree:
            raise ValueError("cannot compose permutations of different degree")
        return Permutation(self.images[j - 1] for j in other.images)

    def inverse(self):
        inv = [0] * self.degree
        for i, img in enumerate(self.images):
            inv[img - 1] = i + 1
        return Permutation(inv)

    def sign(self):
        return -1 if _inversions(self.images) & 1 else 1

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __str__(self):
        return "[" + ", ".join(str(i) for i in self.images) + "]"

    def __repr__(self):
        return f"Permutation({list(self.images)})"


@dataclass(frozen=True)
class BlockStructure:
    """Decomposition of {1..n} into classes, with the sequence that induced it.

    classes are tuples of 1-based positions, each sorted increasingly,
    ordered by first occurrence; multiplicities are the class sizes.
    """

    source_sequence: tuple
    classes: tuple
    multiplicities: tuple

    @property
    def degree(self):
        return sum(self.multiplicities)


def block_structure(sequence):
    """Level sets of a sequence grouped by value, ordered by first occurrence."""
    sequence = _checked_ints(sequence, "sequence entries")
    groups = {}
    for pos, value in enumerate(sequence, start=1):
        groups.setdefault(value, []).append(pos)
    classes = tuple(tuple(v) for v in groups.values())
    return BlockStructure(sequence, classes, tuple(len(c) for c in classes))


def coset_reps(blocks):
    """Canonical transversal of S_n / S_n^B.

    Each representative is increasing on every class; there are
    n!/(prod m_i!) of them, enumerated deterministically class by class in
    lexicographic order of the chosen value sets.
    """
    n = blocks.degree
    ensure_within_bound(n)
    classes = blocks.classes
    reps = []
    images = [0] * n

    def assign(idx, remaining):
        if idx == len(classes):
            reps.append(Permutation(images))
            return
        positions = classes[idx]
        for values in itertools.combinations(remaining, len(positions)):
            for pos, val in zip(positions, values):
                images[pos - 1] = val
            assign(idx + 1, tuple(v for v in remaining if v not in values))

    assign(0, tuple(range(1, n + 1)))
    return tuple(reps)
