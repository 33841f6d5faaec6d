import itertools
import random

import pytest

from hlgysin import (
    ArityMismatchError,
    BlockStructure,
    NonInvariantInputError,
    Polynomial,
    RootSplit,
    divide_by_vandermonde,
    full_flag_pushforward,
    grassmann_pushforward,
    hall_littlewood_p,
    hall_littlewood_r,
    leading_flag_pushforward,
    partial_flag_pushforward,
    schur_p_coset,
)
from hlgysin.oracles import (
    all_permutations,
    blockwise_full_flag,
    difference_product,
    stabilizer_elements,
    stabilizer_order,
    t_twisted_vandermonde,
)


def x(n, i):
    return Polynomial.x(n, i)


def t(n):
    return Polynomial.t(n)


def set_partitions(items):
    """All set partitions of a list, as tuples of tuples."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for sub in set_partitions(rest):
        yield ((first,),) + sub
        for i, block in enumerate(sub):
            yield sub[:i] + ((first,) + block,) + sub[i + 1 :]


def naive_alternant_quotient(g):
    """(sum over all w in S_n of sign(w) w(g)) / Vandermonde, the n!-term
    signed sum formed explicitly and divided by divide_by_vandermonde."""
    alternant = Polynomial.zero(g.arity)
    for w in all_permutations(g.arity):
        alternant = alternant + w.sign() * g.permute_vars(w)
    return divide_by_vandermonde(alternant)


def naive_pushforward(f, split):
    """Push-forward of a block-symmetric f as the signed sum over all of S_n
    of f times the same-block differences, over the Vandermonde and the
    order of the block stabilizer."""
    within = difference_product(
        split.n, [p for b in split.blocks for p in itertools.combinations(b, 2)]
    )
    stabilizer = BlockStructure.from_classes(split.blocks)
    return naive_alternant_quotient(f * within).divide_exact(
        stabilizer_order(stabilizer)
    )


# --- RootSplit --------------------------------------------------------------


def test_root_split_validation():
    RootSplit(3, ((1, 3), (2,)))  # out-of-order members are fine
    with pytest.raises(ValueError):
        RootSplit(3, ((1, 2),))  # misses 3
    with pytest.raises(ValueError):
        RootSplit(3, ((1, 2), (2, 3)))  # overlap
    with pytest.raises(ValueError):
        RootSplit(2, ((1, 2), ()))
    with pytest.raises(ValueError):
        RootSplit(0, ())


def test_root_split_factories():
    g = RootSplit.grassmann(2, 3)
    assert g.n == 5
    assert g.blocks == ((1, 2), (3, 4, 5))
    assert RootSplit.full_flag(3).blocks == ((1,), (2,), (3,))
    lead = RootSplit.leading_flag(2, 5)
    assert lead.blocks == ((1,), (2,), (3, 4, 5))
    assert RootSplit.leading_flag(5, 5).blocks == RootSplit.full_flag(5).blocks
    assert RootSplit.leading_flag(0, 3).blocks == ((1, 2, 3),)
    with pytest.raises(ValueError):
        RootSplit.grassmann(0, 2)
    with pytest.raises(ValueError):
        RootSplit.leading_flag(4, 3)


def test_cross_pair_count():
    assert RootSplit.full_flag(4).cross_pair_count == 6
    assert RootSplit.grassmann(2, 2).cross_pair_count == 4
    assert RootSplit(4, ((1, 2, 3, 4),)).cross_pair_count == 0
    assert RootSplit.leading_flag(1, 4).cross_pair_count == 3


# --- pinned operator values -------------------------------------------------


def test_partial_flag_two_singletons():
    split = RootSplit.full_flag(2)
    assert partial_flag_pushforward(x(2, 1), split) == Polynomial.one(2)
    assert partial_flag_pushforward(Polynomial.one(2), split) == Polynomial.zero(2)
    assert partial_flag_pushforward(x(2, 1) ** 2, split) == x(2, 1) + x(2, 2)


def test_grassmann_pinned_values():
    f = x(2, 1) - t(2) * x(2, 2)
    assert grassmann_pushforward(f, 1, 1) == Polynomial.one(2) + t(2)
    assert grassmann_pushforward(x(2, 1) * f, 1, 1) == x(2, 1) + x(2, 2)
    assert grassmann_pushforward(x(2, 1) + x(2, 2), 1, 1) == Polynomial.zero(2)


def test_full_flag_pinned_values():
    assert full_flag_pushforward(x(2, 1), 2) == Polynomial.one(2)
    assert full_flag_pushforward(x(3, 1) ** 2 * x(3, 2), 3) == Polynomial.one(3)
    # staircase monomial for the zero partition pushes to 1 at any small n
    for n in range(1, 5):
        stair = Polynomial.monomial(n, tuple(range(n - 1, -1, -1)))
        assert full_flag_pushforward(stair, n) == Polynomial.one(n)


def test_leading_flag_pinned_values():
    f = x(2, 1) ** 2 * (x(2, 1) + x(2, 2))
    assert leading_flag_pushforward(f, 1, 2) == (x(2, 1) + x(2, 2)) ** 2
    assert leading_flag_pushforward(f, 1, 2) == schur_p_coset((2,), 2)
    g = x(2, 1) * (x(2, 1) - t(2) * x(2, 2))
    assert leading_flag_pushforward(g, 1, 2) == x(2, 1) + x(2, 2)
    # k = n is the full flag
    assert leading_flag_pushforward(x(2, 1), 2, 2) == Polynomial.one(2)
    # k = 0 leaves a fully symmetric input alone
    sym = x(2, 1) * x(2, 2)
    assert leading_flag_pushforward(sym, 0, 2) == sym


def test_errors():
    with pytest.raises(NonInvariantInputError):
        grassmann_pushforward(x(3, 2), 1, 2)
    with pytest.raises(NonInvariantInputError):
        partial_flag_pushforward(x(2, 1) ** 2 * x(2, 2), RootSplit(2, ((1, 2),)))
    with pytest.raises(ArityMismatchError):
        grassmann_pushforward(x(3, 1), 1, 1)
    with pytest.raises(ArityMismatchError):
        full_flag_pushforward(x(3, 1), 2)
    with pytest.raises(ArityMismatchError):
        blockwise_full_flag(x(3, 1), RootSplit.full_flag(2))


# --- structural properties --------------------------------------------------


def symmetrize(f):
    from hlgysin.oracles import all_permutations

    out = Polynomial.zero(f.arity)
    for w in all_permutations(f.arity):
        out = out + f.permute_vars(w)
    return out


@pytest.mark.parametrize("exps", [(3, 0, 0), (2, 2, 1), (4, 1, 0), (5, 2, 2)])
def test_degree_contract(exps):
    n = 3
    f = Polynomial.monomial(n, exps) + 2 * Polynomial.monomial(n, tuple(reversed(exps)))
    for split in [RootSplit.full_flag(n), RootSplit.leading_flag(1, n)]:
        g = symmetrize(f) if len(split.blocks) < n else f
        result = partial_flag_pushforward(g, split)
        if sum(exps) < split.cross_pair_count:
            assert result.is_zero
        if not result.is_zero:
            assert result.is_homogeneous_in_x()
            assert result.x_degree() == sum(exps) - split.cross_pair_count


def test_module_linearity():
    rng = random.Random(1105)
    n = 3
    e1 = Polynomial.x(n, 1) + Polynomial.x(n, 2) + Polynomial.x(n, 3)
    e3 = Polynomial.x(n, 1) * Polynomial.x(n, 2) * Polynomial.x(n, 3)
    g = e1 ** 2 - Polynomial.t(n) * e3
    for _ in range(5):
        exps = tuple(rng.randrange(4) for _ in range(n))
        f = Polynomial.monomial(n, exps)
        for split in [RootSplit.full_flag(n), RootSplit.grassmann(1, 2)]:
            h = f if len(split.blocks) == n else symmetrize(f)
            lhs = partial_flag_pushforward(g * h, split)
            rhs = g * partial_flag_pushforward(h, split)
            assert lhs == rhs


def random_polynomial(rng, n, terms=5, max_exp=3, max_t=2):
    out = Polynomial.zero(n)
    for _ in range(terms):
        coeff = rng.choice([-2, -1, 1, 2, 3])
        exps = tuple(rng.randrange(max_exp + 1) for _ in range(n))
        out = out + coeff * Polynomial.monomial(n, exps) * Polynomial.t(n) ** rng.randrange(max_t + 1)
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_full_flag_factors_through_any_split(n):
    """Symmetrizing inside each block first and then pushing along the split
    agrees with the one-shot full-flag push-forward."""
    rng = random.Random(77 * n)
    for split_blocks in set_partitions(list(range(1, n + 1))):
        split = RootSplit(n, split_blocks)
        f = random_polynomial(rng, n)
        expected = full_flag_pushforward(f, n)
        inner = blockwise_full_flag(f, split)
        assert partial_flag_pushforward(inner, split) == expected


def test_r_class_is_full_flag_pushforward():
    for n in (1, 2, 3, 4):
        for lam in itertools.product(range(3), repeat=n):
            f = Polynomial.monomial(n, lam) * t_twisted_vandermonde(n)
            r = hall_littlewood_r(n, lam)
            assert full_flag_pushforward(f, n) == r
            assert naive_alternant_quotient(f) == r, lam


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_partial_flag_matches_naive_alternant(n):
    """Every set partition, blocks in the order set_partitions lists them,
    so non-contiguous blocks and blocks out of order are both covered."""
    rng = random.Random(31 * n)
    for split_blocks in set_partitions(list(range(1, n + 1))):
        split = RootSplit(n, split_blocks)
        group = stabilizer_elements(BlockStructure.from_classes(split.blocks))
        for _ in range(2):
            g = random_polynomial(rng, n)
            f = Polynomial.zero(n)
            for w in group:
                f = f + g.permute_vars(w)
            assert partial_flag_pushforward(f, split) == naive_pushforward(f, split), split


def test_p_class_is_leading_flag_pushforward():
    cases = [((2,), 1, 2), ((1,), 1, 3), ((2, 1), 2, 3), ((3, 1), 2, 4)]
    for nu, k, n in cases:
        f = Polynomial.monomial(n, nu + (0,) * (n - k))
        for i in range(1, k + 1):
            for j in range(i + 1, n + 1):
                f = f * (x(n, i) - t(n) * x(n, j))
        padded = nu + (0,) * (n - k)
        assert leading_flag_pushforward(f, k, n) == hall_littlewood_p(n, padded)
