import itertools
import math

import pytest

from hlgysin import (
    BlockStructure,
    BoundExceededError,
    Permutation,
    block_structure,
    coset_reps,
)
from hlgysin.oracles import (
    all_permutations,
    stabilizer_elements,
    stabilizer_order,
)


def test_permutation_basics():
    w = Permutation((2, 3, 1))
    assert w(1) == 2 and w(3) == 1
    assert w.degree == 3
    assert w.inverse() == Permutation((3, 1, 2))
    assert w * w.inverse() == Permutation.identity(3)
    assert str(w) == "[2, 3, 1]"


def test_composition_convention():
    # (w * u)(i) = w(u(i))
    u = Permutation.transposition(3, 1, 2)
    w = Permutation.transposition(3, 2, 3)
    assert (w * u)(1) == 3


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        Permutation((0, 1))
    with pytest.raises(ValueError):
        Permutation.transposition(3, 2, 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_all_permutations_count_and_order(n):
    perms = all_permutations(n)
    assert len(perms) == math.factorial(n)
    assert perms[0] == Permutation.identity(n)
    assert perms[-1].images == tuple(range(n, 0, -1))
    assert len(set(perms)) == len(perms)


def test_sign_is_a_homomorphism(rng):
    perms = all_permutations(4)
    assert Permutation.identity(4).sign() == 1
    assert Permutation.transposition(4, 2, 4).sign() == -1
    for _ in range(10):
        w, u = rng.choice(perms), rng.choice(perms)
        assert (w * u).sign() == w.sign() * u.sign()


def test_bound_enforced():
    with pytest.raises(BoundExceededError):
        all_permutations(9)
    assert len(all_permutations(9, bound=9)) == math.factorial(9)  # opt-in


def test_block_structure_by_value():
    blocks = block_structure((2, 1, 2))
    assert blocks.classes == ((1, 3), (2,))
    assert blocks.multiplicities == (2, 1)
    assert blocks.degree == 3
    # first-occurrence order of values, not sorted by value
    assert block_structure((5, 5, 0)).classes == ((1, 2), (3,))


def test_from_classes_validation():
    bs = BlockStructure.from_classes(((1, 3), (2,)))
    assert bs.multiplicities == (2, 1)
    with pytest.raises(ValueError):
        BlockStructure.from_classes(((1, 2), (2, 3)))
    with pytest.raises(ValueError):
        BlockStructure.from_classes(((1,), (3,)))


def test_stabilizer_order_and_elements():
    blocks = block_structure((1, 1, 0, 0))
    assert stabilizer_order(blocks) == 4
    elements = stabilizer_elements(blocks)
    assert len(elements) == 4
    for u in elements:
        # stabilizer members permute within classes only
        assert all(u(i) in (1, 2) for i in (1, 2))


def test_coset_reps_counts():
    assert len(coset_reps(block_structure((1, 1, 0, 0)))) == 6
    assert len(coset_reps(block_structure((0, 0, 0)))) == 1
    assert len(coset_reps(block_structure((3, 1, 2)))) == 6


@pytest.mark.parametrize("seq", [(1, 1, 0), (2, 1, 2), (1, 1, 0, 0), (0, 1, 0, 1)])
def test_coset_reps_are_canonical_and_complete(seq):
    """Each representative increases on every class; together with the
    stabilizer they factor the symmetric group uniquely."""
    blocks = block_structure(seq)
    n = blocks.degree
    reps = coset_reps(blocks)
    for w in reps:
        for cls in blocks.classes:
            images = [w(i) for i in cls]
            assert images == sorted(images)
    seen = {}
    for w in reps:
        for u in stabilizer_elements(blocks):
            product = w * u
            assert product not in seen
            seen[product] = (w, u)
    assert len(seen) == math.factorial(n)


def test_regrouping_identity(random_poly):
    """Summing any f over the whole group equals summing the stabilizer
    average over coset representatives; this is the regrouping step behind
    the coset formulas."""
    for seq in [(1, 0, 1), (2, 2, 0)]:
        blocks = block_structure(seq)
        f = random_poly(3)
        whole = sum(
            (f.permute_vars(w) for w in all_permutations(3)),
            start=f * 0,
        )
        inner = sum((f.permute_vars(u) for u in stabilizer_elements(blocks)), start=f * 0)
        regrouped = sum(
            (inner.permute_vars(w) for w in coset_reps(blocks)), start=f * 0
        )
        assert whole == regrouped
