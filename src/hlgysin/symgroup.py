"""Permutations, level-set block structures, and coset transversals.

The symmetrizing operators in this package all sum over left cosets of a
Young subgroup S_n^B attached to a decomposition B of the index set
{1..n} into classes.  For a sequence of integers the classes are its level
sets grouped by value (positions carrying equal values), ordered by first
occurrence; they need not be contiguous.  The canonical transversal picks
from each coset the unique element whose restriction to every class is
increasing.

Everything here is exact and deterministic; enumeration order is fixed so
downstream reductions are reproducible.  A configurable bound (default 8)
guards the n! blowup.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

DEFAULT_PERMUTATION_BOUND = 8


class BoundExceededError(ValueError):
    """Requested an enumeration beyond the configured permutation bound."""


def ensure_within_bound(n, bound=None):
    limit = DEFAULT_PERMUTATION_BOUND if bound is None else bound
    if n > limit:
        raise BoundExceededError(f"n = {n} exceeds permutation bound {limit}")


class Permutation:
    """A permutation of {1..n} in one-line notation: images[i-1] = w(i)."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {images!r}")
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @classmethod
    def identity(cls, n):
        return cls(range(1, n + 1))

    @classmethod
    def transposition(cls, n, a, b):
        if a == b:
            raise ValueError("transposition needs two distinct points")
        images = list(range(1, n + 1))
        images[a - 1], images[b - 1] = b, a
        return cls(images)

    @property
    def degree(self):
        return len(self.images)

    def __call__(self, i):
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
        imgs = self.images
        n = len(imgs)
        inv = 0
        for a in range(n):
            for b in range(a + 1, n):
                if imgs[a] > imgs[b]:
                    inv += 1
        return -1 if inv & 1 else 1

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

    @classmethod
    def from_classes(cls, classes):
        """Build from explicit classes; the source sequence maps positions to class index."""
        classes = tuple(tuple(sorted(block)) for block in classes)
        seen = [pos for block in classes for pos in block]
        n = len(seen)
        if sorted(seen) != list(range(1, n + 1)):
            raise ValueError(f"classes do not partition 1..{n}: {classes!r}")
        seq = [0] * n
        for idx, block in enumerate(classes):
            for pos in block:
                seq[pos - 1] = idx
        return cls(tuple(seq), classes, tuple(len(b) for b in classes))


def block_structure(sequence):
    """Level sets of a sequence grouped by value, ordered by first occurrence."""
    sequence = tuple(sequence)
    groups = {}
    for pos, value in enumerate(sequence, start=1):
        groups.setdefault(value, []).append(pos)
    classes = tuple(tuple(v) for v in groups.values())
    return BlockStructure(sequence, classes, tuple(len(c) for c in classes))


def coset_reps(blocks, bound=None):
    """Canonical transversal of S_n / S_n^B.

    Each representative is increasing on every class; there are
    n!/(prod m_i!) of them, enumerated deterministically class by class in
    lexicographic order of the chosen value sets.
    """
    n = blocks.degree
    ensure_within_bound(n, bound)
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
