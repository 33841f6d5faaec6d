import itertools

import pytest

from hlgysin import (
    NotDivisibleError,
    Polynomial,
    gaussian_binomial,
    gaussian_binomial_at_minus_one,
    hall_littlewood_p,
    hall_littlewood_r,
    hall_littlewood_r_coset,
    is_partition,
    is_strict_partition,
    jacobi_symmetrizer,
    schur_p_coset,
    schur_s,
    straighten_schur_p,
    straighten_schur_s,
    t_factorial,
    t_factorial_product,
)
from hlgysin.oracles import (
    all_permutations,
    complete_homogeneous,
    hall_littlewood_p_specialized,
    schur_p_recursive,
    schur_s_jacobi_trudi,
)


def x(n, i):
    return Polynomial.x(n, i)


def t(n):
    return Polynomial.t(n)


# --- t-factorials and Gaussian binomials -----------------------------------


def test_t_factorial_values():
    assert t_factorial(0) == Polynomial.one(0)
    assert t_factorial(1) == Polynomial.one(0)
    assert t_factorial(2).to_text() == "1 + t"
    assert t_factorial(3).to_text() == "1 + 2*t + 2*t^2 + t^3"
    with pytest.raises(ValueError):
        t_factorial(-1)


def test_t_factorial_counts_permutations_at_one():
    # substituting t = 1 turns the t-factorial into an ordinary factorial
    import math

    for m in range(6):
        assert t_factorial(m).substitute_t(1).to_text() == str(math.factorial(m))


def test_t_factorial_product_groups_by_value():
    v2 = t_factorial(2)
    assert t_factorial_product((2, 1, 2)) == v2  # the two 2's form one class
    assert t_factorial_product((1, 1, 0, 0)) == v2 * v2
    assert t_factorial_product((3, 1, 2)) == Polynomial.one(0)
    assert t_factorial_product(()) == Polynomial.one(0)


def test_gaussian_binomial_examples():
    assert gaussian_binomial(1, 1).to_text() == "1 + t"
    assert gaussian_binomial(0, 5) == Polynomial.one(0)
    expected = t_factorial(4).divide_exact(t_factorial(2) * t_factorial(2))
    assert gaussian_binomial(2, 2) == expected
    assert gaussian_binomial(2, 2).to_text() == "1 + t + 2*t^2 + t^3 + t^4"


@pytest.mark.parametrize("a,b", list(itertools.product(range(5), repeat=2)))
def test_gaussian_binomial_properties(a, b):
    g = gaussian_binomial(a, b)
    assert g == gaussian_binomial(b, a)
    coeffs = [term["coeff"] for term in g.to_json_terms()]
    assert coeffs == coeffs[::-1]  # palindromic in t
    import math

    assert g.substitute_t(1).to_text() == str(math.comb(a + b, a))


def test_gaussian_at_minus_one_closed_form():
    assert gaussian_binomial_at_minus_one(2, 3) == 2
    assert gaussian_binomial_at_minus_one(1, 1) == 0
    assert gaussian_binomial_at_minus_one(0, 0) == 1
    for a in range(7):
        for b in range(7):
            closed = gaussian_binomial_at_minus_one(a, b)
            assert closed == gaussian_binomial(a, b).substitute_t(-1).eval_at([], 0)
            assert (closed == 0) == (a * b % 2 == 1)


# --- R classes --------------------------------------------------------------


def test_r_hand_anchors():
    y1, y2 = x(2, 1), x(2, 2)
    assert hall_littlewood_r(2, (1, 0)) == y1 + y2
    assert hall_littlewood_r(2, (0, 1)) == t(2) * (y1 + y2)
    assert hall_littlewood_r(2, (2, 0)) == y1**2 + y1 * y2 + y2**2 - t(2) * y1 * y2
    assert hall_littlewood_r(2, (1, 1)) == (1 + t(2)) * y1 * y2
    assert hall_littlewood_r(2, (0, 0)) == t_factorial(2).embed(2)


def test_r_is_symmetric_and_homogeneous():
    for seq in [(2, 0, 1), (1, 1, 3), (0, 2, 0)]:
        r = hall_littlewood_r(3, seq)
        assert r.is_homogeneous_in_x()
        assert r.x_degree() == sum(seq)
        for w in all_permutations(3):
            assert r.permute_vars(w) == r


def test_r_validation():
    with pytest.raises(ValueError):
        hall_littlewood_r(2, (1, 0, 0))
    with pytest.raises(ValueError):
        hall_littlewood_r(2, (1, -1))


def test_r_coset_matches_r_on_contiguous_level_sets():
    for n, seq in [
        (2, (1, 1)),
        (3, (1, 1, 0)),
        (3, (0, 1, 1)),
        (3, (2, 1, 0)),
        (4, (2, 2, 1, 1)),
        (4, (0, 0, 3, 3)),
    ]:
        assert hall_littlewood_r_coset(n, seq) == hall_littlewood_r(n, seq)


@pytest.mark.parametrize("seq", [(1, 0, 1), (2, 1, 2), (2, 0, 2), (1, 2, 1)])
def test_r_coset_fails_on_interleaved_level_sets(seq):
    """With interleaved equal values the coset summand is not invariant under
    the stabilizer, the sum depends on the transversal, and the cleared
    numerator is not divisible by the Vandermonde.  The error must surface."""
    with pytest.raises(NotDivisibleError):
        hall_littlewood_r_coset(3, seq)


def test_r_coset_single_coset_case():
    assert hall_littlewood_r_coset(2, (1, 1)) == (1 + t(2)) * x(2, 1) * x(2, 2)


# --- P classes --------------------------------------------------------------


def test_p_hand_anchors():
    y1, y2 = x(2, 1), x(2, 2)
    assert hall_littlewood_p(2, (1, 1)) == y1 * y2
    assert hall_littlewood_p(2, (2, 0)) == hall_littlewood_r(2, (2, 0))
    assert hall_littlewood_p(2, (0, 0)) == Polynomial.one(2)


def test_p_undefined_for_some_interleaved_sequences():
    # the normalizer does not divide R here; a genuine finding, not a bug
    with pytest.raises(NotDivisibleError):
        hall_littlewood_p(4, (0, 2, 0, 2))


def test_p_specialization_at_zero_is_schur():
    for n in range(1, 5):
        for lam in itertools.product(range(3), repeat=n):
            if not is_partition(lam):
                continue
            assert hall_littlewood_p_specialized(n, lam, 0) == schur_s(lam, n)


def test_p_specialization_at_minus_one_is_schur_p():
    for nu, n in [((2,), 2), ((2, 1), 2), ((3, 1), 3), ((3, 2, 1), 4)]:
        padded = nu + (0,) * (n - len(nu))
        assert hall_littlewood_p_specialized(n, padded, -1) == schur_p_coset(nu, n)


# --- Schur S ----------------------------------------------------------------


def test_complete_homogeneous():
    assert complete_homogeneous(-1, 3) == Polynomial.zero(3)
    assert complete_homogeneous(0, 3) == Polynomial.one(3)
    assert complete_homogeneous(1, 2) == x(2, 1) + x(2, 2)
    h2 = complete_homogeneous(2, 2)
    assert h2 == x(2, 1) ** 2 + x(2, 1) * x(2, 2) + x(2, 2) ** 2


def test_schur_s_examples():
    assert schur_s((1, 0), 2) == x(2, 1) + x(2, 2)
    assert schur_s((1, 1), 2) == x(2, 1) * x(2, 2)
    assert schur_s((2, 1), 2) == x(2, 1) ** 2 * x(2, 2) + x(2, 1) * x(2, 2) ** 2
    # padding and truncation
    assert schur_s((2,), 3) == schur_s((2, 0, 0), 3)
    assert schur_s((1, 1, 0, 0), 2) == schur_s((1, 1), 2)
    with pytest.raises(ValueError):
        schur_s((1, 2), 2)
    with pytest.raises(ValueError):
        schur_s((2, 1, 1), 2)


def test_schur_s_equals_jacobi_trudi_and_bialternant():
    """Three constructions of s_lam: the engine's Demazure form pi_w0(x^lam),
    the Jacobi-Trudi determinant and the bialternant d_w0(x^(lam + delta))."""
    for n in range(1, 5):
        delta = tuple(range(n - 1, -1, -1))
        for lam in itertools.product(range(4), repeat=n):
            if is_partition(lam):
                staircase = tuple(a + d for a, d in zip(lam, delta))
                bialternant = jacobi_symmetrizer(Polynomial.monomial(n, staircase))
                assert schur_s(lam, n) == schur_s_jacobi_trudi(lam, n) == bialternant
    # schur_s enumerates nothing, so no permutation bound applies to it
    for n in range(9, 13):
        for lam in [(1,), (1, 1), (2, 1)]:
            assert schur_s(lam, n) == schur_s_jacobi_trudi(lam, n)


def test_straighten_schur_s_examples():
    assert straighten_schur_s((0, 2)) == (-1, (1, 1))
    assert straighten_schur_s((1, 2)) is None
    assert straighten_schur_s((3, 1, 0)) == (1, (3, 1, 0))
    assert straighten_schur_s(()) == (1, ())
    # staircase (2,1,2) has a repeat, so this one dies
    assert straighten_schur_s((0, 0, 2)) is None
    # two exchanges, signs cancel
    assert straighten_schur_s((0, 0, 3)) == (1, (1, 1, 1))


def test_straighten_schur_s_matches_alternant():
    """The straightening rule reproduces what the alternant actually does on
    arbitrary exponent sequences."""
    n = 3
    delta = tuple(range(n - 1, -1, -1))
    for seq in itertools.product(range(4), repeat=n):
        staircase = tuple(s + d for s, d in zip(seq, delta))
        direct = jacobi_symmetrizer(Polynomial.monomial(n, staircase))
        result = straighten_schur_s(seq)
        if result is None:
            assert direct.is_zero
        else:
            sign, shape = result
            assert direct == sign * schur_s(shape, n)


# --- Schur P ----------------------------------------------------------------


def test_schur_p_hand_anchors():
    y1, y2 = x(2, 1), x(2, 2)
    assert schur_p_coset((2,), 2) == (y1 + y2) ** 2
    assert schur_p_coset((2, 1), 2) == y1 * y2 * (y1 + y2)
    assert schur_p_coset((), 3) == Polynomial.one(3)
    assert schur_p_coset((1,), 2) == y1 + y2


def test_schur_p_one_row_is_hook_sum():
    # P_3 = s_3 + s_21 + s_111
    n = 3
    expected = schur_s((3,), n) + schur_s((2, 1), n) + schur_s((1, 1, 1), n)
    assert schur_p_recursive((3,), n) == expected


def test_schur_p_recursive_equals_coset():
    for nu in [(1,), (2,), (3, 1), (2, 1), (4, 2, 1), (3, 2, 1)]:
        for n in range(len(nu), 5):
            assert schur_p_recursive(nu, n) == schur_p_coset(nu, n)


def test_schur_p_validation():
    with pytest.raises(ValueError):
        schur_p_coset((2, 2), 3)
    with pytest.raises(ValueError):
        schur_p_coset((0,), 2)
    with pytest.raises(ValueError):
        schur_p_coset((3, 2, 1), 2)
    with pytest.raises(ValueError):
        schur_p_recursive((1, 2), 3)


def test_straighten_schur_p():
    assert straighten_schur_p((1, 3, 2)) == (1, (3, 2, 1))
    assert straighten_schur_p((1, 2)) == (-1, (2, 1))
    assert straighten_schur_p((2, 2)) is None
    assert straighten_schur_p(()) == (1, ())
    with pytest.raises(ValueError):
        straighten_schur_p((1, 0))


def test_predicates():
    assert is_partition((3, 3, 1, 0))
    assert not is_partition((1, 2))
    assert is_strict_partition((3, 1))
    assert is_strict_partition(())
    assert not is_strict_partition((3, 3))
    assert not is_strict_partition((1, 0))
