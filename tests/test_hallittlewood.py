import functools
import itertools

import pytest

from conftest import (
    T,
    complete_homogeneous,
    dominant_orbits,
    hall_littlewood_p_specialized,
    is_homogeneous_in_x,
    packed_orbits,
    quotient_or_error,
    unpacked_orbits,
    vandermonde_quotient_by_factors,
    x_degree,
)
from hlgysin import (
    BoundExceededError,
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
from hlgysin.gysin import _grassmann_input
from hlgysin import hallittlewood
from hlgysin.hallittlewood import _rows
from hlgysin.identities import d_coefficient
from hlgysin.polyring import linear_factor_product
from hlgysin.symgroup import block_structure, coset_reps
from hlgysin.oracles import (
    all_permutations,
    elementary_symmetric,
    schur_p_recursive,
    schur_s_demazure,
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
        assert is_homogeneous_in_x(r)
        assert x_degree(r) == sum(seq)
        for w in all_permutations(3):
            assert r.permute_vars(w) == r


def test_r_validation():
    with pytest.raises(ValueError):
        hall_littlewood_r(2, (1, 0, 0))
    with pytest.raises(ValueError):
        hall_littlewood_r(2, (1, -1))
    for build in (hall_littlewood_r, hall_littlewood_p, hall_littlewood_r_coset):
        with pytest.raises(ValueError, match="^sequence of length 3 does not match n = 2$"):
            build(2, (1, 0, 0))
        for n in (0, -1):
            with pytest.raises(ValueError, match="^n must be positive$"):
                build(n, ())


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


@pytest.mark.parametrize("seq", [(0,) * 9, (1, 0) * 4 + (1,)])
def test_r_coset_refuses_n_9_before_it_builds_its_core(seq, monkeypatch):
    def core_factor(*args):
        raise AssertionError("the core was built")

    monkeypatch.setattr(hallittlewood, "linear_factor_product", core_factor)
    with pytest.raises(BoundExceededError, match="n = 9 exceeds"):
        hall_littlewood_r_coset(9, seq)


def level_pairs(seq):
    """The pairs i < j with seq_i != seq_j, and those with seq_i == seq_j."""
    pairs = list(itertools.combinations(range(1, len(seq) + 1), 2))
    unequal = [(i, j) for i, j in pairs if seq[i - 1] != seq[j - 1]]
    equal = [(i, j) for i, j in pairs if seq[i - 1] == seq[j - 1]]
    return unequal, equal


def permuted_cores_numerator(n, seq):
    """The coset form's numerator summed from one permuted core Polynomial
    per representative."""
    unequal, equal = level_pairs(seq)
    core = (
        Polynomial.monomial(n, seq)
        * linear_factor_product(n, unequal, t(n))
        * linear_factor_product(n, equal, 1)
    )
    terms = {}
    for w in coset_reps(block_structure(seq)):
        sign = w.sign()
        for key, c in core.permute_vars(w).terms.items():
            terms[key] = terms.get(key, 0) + sign * c
    return Polynomial(n, terms)


def r_coset_by_permuted_cores(n, seq):
    """The coset form from permuted_cores_numerator, its numerator divided
    one Vandermonde factor at a time."""
    numerator = permuted_cores_numerator(n, seq)
    return t_factorial_product(seq).embed(n) * vandermonde_quotient_by_factors(numerator)


@functools.lru_cache(maxsize=None)
def permuted_cores_outcome(seq):
    return quotient_or_error(r_coset_by_permuted_cores, len(seq), seq)


R_COSET_SEQUENCES = [
    seq for n in range(1, 6) for seq in itertools.product(range(3), repeat=n)
] + [(0, 1, 0, 1, 0, 1), (2, 2, 1, 1, 0, 0)]


def test_r_coset_equals_the_sum_of_permuted_cores_or_fails_with_its_text():
    """The certificate and the fused signed sum change neither the quotient
    nor the error: every sequence with entries <= 2 up to n = 5, one
    interleaved and one contiguous sequence at n = 6."""
    outcomes = {}
    for seq in R_COSET_SEQUENCES:
        expected = permuted_cores_outcome(seq)
        assert quotient_or_error(hall_littlewood_r_coset, len(seq), seq) == expected, seq
        outcomes[seq] = expected
    assert outcomes[(0, 1, 0, 1, 0, 1)] == "NotDivisibleError: remainder of degree 0 in x1"
    assert outcomes[(2, 2, 1, 1, 0, 0)] == hall_littlewood_r(6, (2, 2, 1, 1, 0, 0))
    failures = [seq for seq, o in outcomes.items() if isinstance(o, str)]
    assert failures and len(failures) < len(outcomes)


def test_r_coset_without_its_certificate_equals_the_sum_of_permuted_cores(monkeypatch):
    """With every hyperplane value read as 0, nothing is concluded before
    the numerator is built, and the built numerator and its division give
    the same quotient or error text on every sequence."""
    monkeypatch.setattr(hallittlewood, "_numerator_value", lambda *args: 0)
    for seq in R_COSET_SEQUENCES:
        expected = permuted_cores_outcome(seq)
        assert quotient_or_error(hall_littlewood_r_coset, len(seq), seq) == expected, seq


def test_r_coset_divides_its_numerator_without_divide_exact(monkeypatch):
    """The Vandermonde quotient runs on packed keys, never through
    Polynomial.divide_exact: with divide_exact raising and the certificate
    off, every numerator is built and divided, and the quotient or error
    text is the same on every sequence."""
    expected = {seq: permuted_cores_outcome(seq) for seq in R_COSET_SEQUENCES}

    def divide_exact(*args):
        raise AssertionError("divide_exact was called")

    monkeypatch.setattr(Polynomial, "divide_exact", divide_exact)
    monkeypatch.setattr(hallittlewood, "_numerator_value", lambda *args: 0)
    for seq, outcome in expected.items():
        assert quotient_or_error(hall_littlewood_r_coset, len(seq), seq) == outcome, seq


@pytest.mark.parametrize("n, seq", [(3, (0, 1, 0)), (4, (0, 0, 1, 0)), (5, (0, 2, 1, 3, 1))])
def test_r_coset_certificate_rejects_before_it_builds_its_core(n, seq, monkeypatch):
    def core_factor(*args):
        raise AssertionError("the core was built")

    monkeypatch.setattr(hallittlewood, "linear_factor_product", core_factor)
    with pytest.raises(NotDivisibleError) as excinfo:
        hall_littlewood_r_coset(n, seq)
    assert str(excinfo.value) == "remainder of degree 0 in x1"


def test_r_coset_certificate_is_the_numerator_at_each_hyperplane_point():
    """The value from the core's product form equals the expanded
    numerator's at every point and t, which pins the direction of each w,
    for every sequence with entries <= 2 at n <= 4; point j - 2 lies on
    x_1 = x_j and on no other hyperplane."""
    t_value = hallittlewood._T_VALUE
    for n in range(1, 5):
        points = hallittlewood._hyperplane_points(n)
        assert [sorted(k for k in range(n) if p[k] == p[0]) for p in points] == [
            [0, j] for j in range(1, n)
        ]
        assert all(len(set(p)) == n - 1 for p in points)
        for seq in itertools.product(range(3), repeat=n):
            reps = coset_reps(block_structure(seq))
            signs = [w.sign() for w in reps]
            numerator = permuted_cores_numerator(n, seq)
            for point in points:
                value = hallittlewood._numerator_value(
                    seq, reps, signs, *level_pairs(seq), point, t_value
                )
                assert value == numerator.eval_at(point, t_value), (seq, point)


# --- P classes --------------------------------------------------------------


def test_row_product_is_the_dominant_part_of_row_times_tail():
    """R's row, the Grassmann input (1 | n-1) at c = t built from the tail's
    orbits, against the full product row * R_tail(x_2..x_n), filtered to
    its (1 | n-1)-dominant terms, for every sequence with entries <= 2 at
    n <= 5."""
    for n in range(2, 6):
        factors = linear_factor_product(n, [(1, j) for j in range(2, n + 1)], t(n))
        for seq in itertools.product(range(3), repeat=n):
            tail = hall_littlewood_r(n - 1, seq[1:])
            full = x(n, 1) ** seq[0] * factors * tail.embed(n, offset=1)
            tail_orbits = packed_orbits(dominant_orbits(tail, 0))
            built = _grassmann_input(n, 1, T, {seq[:1]: 1}, tail_orbits)
            assert unpacked_orbits(built) == dominant_orbits(full), seq


def test_p_from_orbits_is_r_divided_by_v():
    """P divides each orbit of R by v(t); the whole R divided by v must give
    the same class, and fail on exactly the same sequences."""
    cases = [seq for n in range(1, 5) for seq in itertools.product(range(4), repeat=n)]
    cases += itertools.product(range(3), repeat=5)
    undefined = 0
    for seq in cases:
        n = len(seq)
        try:
            expected = hall_littlewood_r(n, seq).divide_exact(t_factorial_product(seq).embed(n))
        except NotDivisibleError:
            with pytest.raises(NotDivisibleError, match="normalizer does not divide"):
                hall_littlewood_p(n, seq)
            undefined += 1
        else:
            assert hall_littlewood_p(n, seq) == expected, seq
    assert 0 < undefined < len(cases)


def test_p_reads_the_orbits_r_cached(monkeypatch):
    def no_row(*args):
        raise AssertionError("P pushed a Grassmann row forward")

    seq = (2, 0, 1, 0)
    hall_littlewood_r(4, seq)
    misses = _rows.cache_info().misses
    monkeypatch.setattr(hallittlewood, "_grassmann_orbits", no_row)
    hall_littlewood_p(4, seq)
    assert _rows.cache_info().misses == misses


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


@pytest.mark.parametrize("n", [9, 10])
@pytest.mark.parametrize("lam", [(2, 1), (3, 1), (3, 2, 1)])
def test_p_above_the_cli_bound_specializes_to_the_oracles(lam, n):
    """P at n = 9, 10 runs in the library: at t = 0 it is the Jacobi-Trudi
    Schur S, at t = -1 the recursive Schur P."""
    p = hall_littlewood_p(n, lam + (0,) * (n - len(lam)))
    assert p.substitute_t(0) == schur_s_jacobi_trudi(lam, n)
    assert p.substitute_t(-1) == schur_p_recursive(lam, n)


# --- Schur S ----------------------------------------------------------------


def test_complete_homogeneous():
    assert complete_homogeneous(-1, 3) == Polynomial.zero(3)
    assert complete_homogeneous(0, 3) == Polynomial.one(3)
    assert complete_homogeneous(1, 2) == x(2, 1) + x(2, 2)
    h2 = complete_homogeneous(2, 2)
    assert h2 == x(2, 1) ** 2 + x(2, 1) * x(2, 2) + x(2, 2) ** 2


def test_elementary_symmetric():
    for n in range(4):
        assert elementary_symmetric(-1, n) == Polynomial.zero(n)
        assert elementary_symmetric(n + 1, n) == Polynomial.zero(n)
        assert elementary_symmetric(0, n) == Polynomial.one(n)
    e2 = elementary_symmetric(2, 3)
    assert e2 == x(3, 1) * x(3, 2) + x(3, 1) * x(3, 3) + x(3, 2) * x(3, 3)


def jacobi_trudi_h_form(lam, n):
    """det(h_{lam_i - i + j}), 1 <= i, j <= l(lam), by the Leibniz sum.

    The rows past l(lam) of the n x n matrix are unitriangular, so this
    leading minor is the whole determinant."""
    length = sum(1 for a in lam if a)
    out = Polynomial.zero(n)
    for w in itertools.permutations(range(length)):
        sign = (-1) ** sum(a > b for a, b in itertools.combinations(w, 2))
        term = Polynomial.one(n)
        for i, j in enumerate(w):
            term = term * complete_homogeneous(lam[i] - i + j, n)
        out = out + sign * term
    return out


def test_schur_s_jacobi_trudi_equals_the_h_form():
    """The oracle's dual form det(e_{lam'_i - i + j}) against the h-form
    det(h_{lam_i - i + j}) it replaced (Macdonald I (3.4), (3.5))."""
    cases = [
        (lam, n)
        for n in range(1, 5)
        for lam in itertools.product(range(4), repeat=n)
        if is_partition(lam)
    ]
    cases += [(lam, n) for n in range(9, 13) for lam in [(1,), (1, 1), (2, 1)]]
    for lam, n in cases:
        assert schur_s_jacobi_trudi(lam, n) == jacobi_trudi_h_form(lam, n), (lam, n)


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
    # a negative n is refused, not read as an arity or an index
    for lam, n in [((), -1), ((0, 0), -2)]:
        with pytest.raises(ValueError, match="n must be nonnegative"):
            schur_s(lam, n)


def test_schur_s_equals_jacobi_trudi_and_bialternant():
    """Four constructions of s_lam: the engine's rows with c = 0, the
    Jacobi-Trudi determinant, the Demazure form pi_w0(x^lam) and the
    bialternant d_w0(x^(lam + delta))."""
    for n in range(1, 5):
        delta = tuple(range(n - 1, -1, -1))
        for lam in itertools.product(range(4), repeat=n):
            if is_partition(lam):
                staircase = tuple(a + d for a, d in zip(lam, delta))
                bialternant = jacobi_symmetrizer(Polynomial.monomial(n, staircase))
                s = schur_s(lam, n)
                assert s == schur_s_jacobi_trudi(lam, n) == bialternant
                assert s == schur_s_demazure(lam, n)
    # schur_s enumerates nothing, so no permutation bound applies to it
    cases = [(lam, n) for n in range(9, 13) for lam in [(1,), (1, 1), (2, 1)]]
    for lam, n in cases + [((3, 2, 1), 9), ((3, 2, 1), 10)]:
        s = schur_s(lam, n)
        assert s == schur_s_jacobi_trudi(lam, n) == schur_s_demazure(lam, n)


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
    # the oracle's closed form against the Jacobi-Trudi hooks (m - j, 1^j);
    # hooks with more than n rows vanish
    for m in range(1, 7):
        for n in range(1, 7):
            hooks = [(m - j,) + (1,) * j for j in range(min(m, n))]
            expected = Polynomial.zero(n)
            for hook in hooks:
                expected = expected + schur_s_jacobi_trudi(hook, n)
            assert schur_p_recursive((m,), n) == expected, (m, n)


def test_schur_p_recursive_equals_coset():
    for nu in [(1,), (2,), (3, 1), (2, 1), (4, 2, 1), (3, 2, 1)]:
        for n in range(len(nu), 5):
            assert schur_p_recursive(nu, n) == schur_p_coset(nu, n)
    for nu in [(4, 2, 1), (5, 3, 1), (4, 3, 2, 1)]:
        for n in (7, 8):
            assert schur_p_recursive(nu, n) == schur_p_coset(nu, n), (nu, n)


def test_schur_p_validation():
    with pytest.raises(ValueError, match="not a strict partition"):
        schur_p_coset((2, 2), 3)
    with pytest.raises(ValueError, match="not a strict partition"):
        schur_p_coset((0,), 2)
    with pytest.raises(ValueError, match="needs more than 2 variables"):
        schur_p_coset((3, 2, 1), 2)
    with pytest.raises(ValueError, match="^n must be positive$"):
        schur_p_coset((), 0)
    with pytest.raises(ValueError, match="^n must be positive$"):
        schur_p_coset((), -1)
    with pytest.raises(ValueError, match="^n must be positive$"):
        schur_p_coset((1,), 0)
    with pytest.raises(ValueError):
        schur_p_recursive((1, 2), 3)
    with pytest.raises(ValueError, match="^n must be nonnegative$"):
        schur_p_recursive((), -1)
    with pytest.raises(ValueError, match="^n must be nonnegative$"):
        schur_p_recursive((1,), -1)
    with pytest.raises(ValueError, match="^n must be an integer, got '3'$"):
        schur_p_recursive((2,), "3")
    with pytest.raises(ValueError, match="^n must be an integer, got True$"):
        schur_p_recursive((1,), True)
    with pytest.raises(ValueError, match="needs more than 0 variables"):
        schur_p_recursive((1,), 0)
    assert schur_p_recursive((), 0) == Polynomial.one(0)


@pytest.mark.parametrize(
    "construct, args",
    [
        (hall_littlewood_r, (True, (1,))),
        (hall_littlewood_p, (True, (1,))),
        (hall_littlewood_r_coset, (True, (1,))),
        (hall_littlewood_r, (1.0, (1,))),
        (schur_s, ((), True)),
        (schur_s, ((2,), 2.0)),
        (schur_p_coset, ((1,), True)),
        (schur_p_coset, ((1,), 1.0)),
        (schur_p_recursive, ((1,), False)),
    ],
)
def test_n_must_be_an_int_not_a_bool(construct, args):
    """n is refused with ValueError unless it is an int, as an arity is."""
    with pytest.raises(ValueError, match="^n must be an integer, got "):
        construct(*args)


@pytest.mark.parametrize(
    "construct, args, name",
    [
        (t_factorial, (2.0,), "m"),
        (t_factorial, (True,), "m"),
        (gaussian_binomial, (1.0, 2), "a"),
        (gaussian_binomial, (True, 2), "a"),
        (gaussian_binomial, (2, False), "b"),
        (gaussian_binomial_at_minus_one, (1.5, 2), "a"),
        (gaussian_binomial_at_minus_one, (2, True), "b"),
        (d_coefficient, (3, 1, 0.0, 0), "k"),
        (d_coefficient, (3.0, 1, 0, 0), "n"),
        (d_coefficient, (3, True, 0, 0), "q"),
        (d_coefficient, (3, 1, 0, 0.0), "h"),
    ],
)
def test_t_polynomial_constructors_take_only_ints(construct, args, name):
    """Each argument is refused with a ValueError naming it unless it is an
    int, even where the cache already holds the equal int's answer."""
    t_factorial(1), t_factorial(2)
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        construct(*args)


# each case is named nu<index of its shape>-<n>, so adding a case renames none
ABOVE_THE_CLI_BOUND = [(1,), (2, 1), (4, 2, 1), (5, 3, 1), (4, 3, 2, 1)]
ABOVE_THE_CLI_BOUND_CASES = [(0, 9), (0, 10), (1, 9), (1, 10), (2, 9), (3, 9), (4, 9)]


@pytest.mark.parametrize(
    "nu, n",
    [(ABOVE_THE_CLI_BOUND[i], n) for i, n in ABOVE_THE_CLI_BOUND_CASES],
    ids=[f"nu{i}-{n}" for i, n in ABOVE_THE_CLI_BOUND_CASES],
)
def test_schur_p_coset_above_the_cli_bound(nu, n):
    assert schur_p_coset(nu, n) == schur_p_recursive(nu, n)


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
