import itertools
import random

import pytest

from conftest import (
    blocks_from_classes,
    cross_pair_count,
    is_homogeneous_in_x,
    x_degree,
    young_symmetrized,
)
from hlgysin import (
    ArityMismatchError,
    NonInvariantInputError,
    Permutation,
    Polynomial,
    RootSplit,
    divide_by_vandermonde,
    divided_difference,
    full_flag_pushforward,
    grassmann_pushforward,
    hall_littlewood_p,
    hall_littlewood_r,
    jacobi_symmetrizer,
    leading_flag_pushforward,
    partial_flag_pushforward,
    schur_p_coset,
)
from hlgysin.polyring import linear_factor_product
from hlgysin.oracles import (
    all_permutations,
    blockwise_full_flag,
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
    within = linear_factor_product(
        split.n, [p for b in split.blocks for p in itertools.combinations(b, 2)], 1
    )
    stabilizer = blocks_from_classes(split.blocks)
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
    for n, blocks, text in [
        (True, ((1,),), "n must be an integer, got True"),
        (2.0, ((1,), (2,)), "n must be an integer, got 2.0"),
        (2, ((1,), ("2",)), "block members must be positive integers: ('2',)"),
        (2, ((1.0, 2),), "block members must be positive integers: (1.0, 2)"),
    ]:
        with pytest.raises(ValueError) as exc:
            RootSplit(n, blocks)
        assert str(exc.value) == text


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
    f = Polynomial.one(3)
    for call, text in [
        (lambda: full_flag_pushforward(Polynomial.one(1), True), "n must be an integer, got True"),
        (lambda: RootSplit.full_flag(2.0), "n must be an integer, got 2.0"),
        (lambda: grassmann_pushforward(f, 1.5, 2), "q must be an integer, got 1.5"),
        (lambda: grassmann_pushforward(f, 1, True), "r must be an integer, got True"),
        (lambda: leading_flag_pushforward(f, 1.0, 3), "k must be an integer, got 1.0"),
        (lambda: leading_flag_pushforward(f, 1, 3.0), "n must be an integer, got 3.0"),
    ]:
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == text


def test_cross_pair_count():
    assert cross_pair_count(RootSplit.full_flag(4)) == 6
    assert cross_pair_count(RootSplit.grassmann(2, 2)) == 4
    assert cross_pair_count(RootSplit(4, ((1, 2, 3, 4),))) == 0
    assert cross_pair_count(RootSplit.leading_flag(1, 4)) == 3


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
    # in no variables there is nothing to push forward
    f = 3 * t(0) ** 2 - 1
    assert full_flag_pushforward(f, 0) == f


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


def test_every_public_pushforward_checks_block_symmetry():
    """x_3 has no term that weakly decreases in x_2, x_3: a push-forward
    that only filtered to representatives would return 0 for it."""
    with pytest.raises(NonInvariantInputError):
        grassmann_pushforward(x(3, 3), 1, 2)
    with pytest.raises(NonInvariantInputError):
        leading_flag_pushforward(x(4, 4), 2, 4)
    for f, blocks in [
        (x(3, 3), ((1,), (2, 3))),
        (x(4, 1) * x(4, 3) ** 2, ((2,), (1, 3), (4,))),
        (x(5, 1) + x(5, 4), ((1, 3), (2, 4), (5,))),
        # the swapped partner is there, with another coefficient
        (x(2, 1) ** 2 * x(2, 2) + 2 * x(2, 1) * x(2, 2) ** 2, ((1, 2),)),
        (x(3, 1) ** 2 * x(3, 3) + 2 * x(3, 1) * x(3, 3) ** 2, ((1, 3), (2,))),
    ]:
        with pytest.raises(NonInvariantInputError) as exc:
            partial_flag_pushforward(f, RootSplit(f.arity, blocks))
        assert str(exc.value) == (
            f"polynomial is not symmetric within block structure {blocks!r}"
        )


def plain_pushforward(f, split):
    """partial_flag_pushforward as one plain divided difference per letter:
    the blocks relabelled into consecutive runs, merged from the last one
    backwards, each merge along the Grassmann word."""
    w = Permutation(itertools.chain.from_iterable(split.blocks)).inverse()
    f = f.permute_vars(w)
    sizes = [len(b) for b in split.blocks]
    r = sizes[-1]
    offset = split.n - r
    for q in reversed(sizes[:-1]):
        offset -= q
        for k in range(q, 0, -1):
            for a in range(offset + k, offset + k + r):
                f = divided_difference(f, a, a + 1)
        r += q
    return -f if w.sign() < 0 else f


MERGE_SPLITS = [
    ((1, 2), (3,)),
    ((1, 3), (2, 4, 5)),
    ((2, 4, 6), (1, 3, 5)),
    ((5, 6), (1, 2, 3, 4)),
    ((1,), (2, 3), (4, 5, 6)),
    ((2, 5), (1,), (3, 4, 6)),
    ((3, 4, 5), (6,), (1, 2)),
    ((1, 4), (2, 6), (3, 5)),
    ((1,), (3,), (2, 4)),
    ((2,), (4,), (1, 3), (5, 6)),
    ((1, 2), (5,), (3,), (4, 6)),
]


@pytest.mark.parametrize("blocks", MERGE_SPLITS, ids=str)
def test_partial_flag_pushforward_is_the_plain_divided_difference_loop(
    blocks, random_poly
):
    split = RootSplit(sum(map(len, blocks)), blocks)
    relabel = Permutation(itertools.chain.from_iterable(blocks))
    sizes = [len(b) for b in blocks]
    for _ in range(3):
        g = young_symmetrized(random_poly(split.n, n_terms=4, max_exp=6), sizes)
        f = g.permute_vars(relabel)  # symmetric within each block of the split
        assert partial_flag_pushforward(f, split) == plain_pushforward(f, split)


@pytest.mark.parametrize("blocks", MERGE_SPLITS, ids=str)
def test_one_term_added_to_a_block_symmetric_input_is_refused(blocks):
    """Every term of f has distinct exponents, so adding one of them again
    leaves its swapped partners with the old coefficient."""
    split = RootSplit(sum(map(len, blocks)), blocks)
    relabel = Permutation(itertools.chain.from_iterable(blocks))
    sizes = [len(b) for b in blocks]
    staircase = Polynomial.monomial(split.n, tuple(range(split.n)))
    f = young_symmetrized(staircase, sizes).permute_vars(relabel)
    partial_flag_pushforward(f, split)
    key = min(f.terms)
    g = f + Polynomial.monomial(split.n, key[:-1], key[-1])
    with pytest.raises(NonInvariantInputError):
        partial_flag_pushforward(g, split)


def test_an_odd_relabelling_keeps_the_push_forward(random_poly):
    """The blocks (2, 4), (1, 3), (5,) run together as 2, 4, 1, 3, 5, an odd
    permutation: the relabelled push-forward is negated back."""
    blocks = ((2, 4), (1, 3), (5,))
    split = RootSplit(5, blocks)
    relabel = Permutation(itertools.chain.from_iterable(blocks))
    assert relabel.sign() == -1
    for _ in range(2):
        g = young_symmetrized(random_poly(5, n_terms=3, max_exp=5), [2, 2, 1])
        f = g.permute_vars(relabel)
        pushed = partial_flag_pushforward(f, split)
        assert not pushed.is_zero
        assert pushed == plain_pushforward(f, split) == naive_pushforward(f, split)


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
        if sum(exps) < cross_pair_count(split):
            assert result.is_zero
        if not result.is_zero:
            assert is_homogeneous_in_x(result)
            assert x_degree(result) == sum(exps) - cross_pair_count(split)


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
    agrees with the one-shot full-flag push-forward, which is the Jacobi
    symmetrizer."""
    rng = random.Random(77 * n)
    for split_blocks in set_partitions(list(range(1, n + 1))):
        split = RootSplit(n, split_blocks)
        f = random_polynomial(rng, n)
        expected = full_flag_pushforward(f, n)
        assert expected == jacobi_symmetrizer(f)
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
        group = stabilizer_elements(blocks_from_classes(split.blocks))
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


def test_schur_p_is_the_leading_flag_pushforward_of_its_coset_core():
    """The coset formula as the reference for the Schur P recursion: P_nu is
    the leading-flag push-forward of x^nu prod_{i <= k, i < j} (x_i + x_j),
    for every strict nu with parts <= 3 at n <= 6."""
    count = 0
    for n in range(1, 7):
        for k in range(min(n, 3) + 1):
            for nu in itertools.combinations(range(3, 0, -1), k):
                pairs = [(i, j) for i in range(1, k + 1) for j in range(i + 1, n + 1)]
                core = Polynomial.monomial(n, nu + (0,) * (n - k)) * linear_factor_product(
                    n, pairs, -1
                )
                assert schur_p_coset(nu, n) == leading_flag_pushforward(core, k, n), (nu, n)
                count += 1
    assert count == 43
