import pytest

from conftest import is_homogeneous_in_x, t_degree, vandermonde_quotient_by_factors, x_degree
from hlgysin import (
    ArityMismatchError,
    ExponentOverflowError,
    NotDivisibleError,
    Polynomial,
    divide_by_vandermonde,
)
from hlgysin.oracles import all_permutations, difference_product, vandermonde
from hlgysin.symgroup import Permutation

# Exponents within 2 of 2**7, 2**8, 2**15, ...: alone or summed in a
# product they straddle 2**8, 2**16 and 2**32, where the packed keys of
# divide_by_vandermonde change their field width.
FIELD_EDGE_BASES = (0,) + tuple(2**k - 2 for k in (7, 8, 15, 16, 31, 32))


def tuple_loop_product(p, q):
    """Reference product: every term pair, exponents added as tuples."""
    out = {}
    for ka, ca in p.terms.items():
        for kb, cb in q.terms.items():
            key = tuple(ea + eb for ea, eb in zip(ka, kb))
            out[key] = out.get(key, 0) + ca * cb
    return Polynomial(p.arity, out)


def test_constructors_and_queries():
    zero = Polynomial.zero(2)
    assert zero.is_zero and not zero
    assert Polynomial.constant(2, 0) == zero
    one = Polynomial.one(2)
    assert x_degree(one) == 0 and t_degree(one) == 0
    x1 = Polynomial.x(2, 1)
    assert x_degree(x1) == 1
    assert t_degree(Polynomial.t(2)) == 1
    m = Polynomial.monomial(3, (1, 0, 2), 4, -7)
    assert x_degree(m) == 3 and t_degree(m) == 4
    assert x_degree(zero) == -1


def test_validation_errors():
    with pytest.raises(ValueError):
        Polynomial.monomial(2, (1, -1))
    with pytest.raises(ValueError):
        Polynomial.monomial(2, (1,))
    with pytest.raises(ValueError):
        Polynomial.x(2, 3)
    with pytest.raises(ValueError):
        Polynomial.x(2, 0)
    with pytest.raises(ArityMismatchError):
        Polynomial.x(2, 1) + Polynomial.x(3, 1)
    with pytest.raises(ArityMismatchError):
        Polynomial.x(2, 1) * Polynomial.x(3, 1)


def test_constant_and_x_validate_like_the_constructor():
    for value in (0.5, "3", True, False, 0.0, None):
        with pytest.raises(ValueError) as expected:
            Polynomial(1, {(0, 0): value})
        with pytest.raises(ValueError) as exc:
            Polynomial.constant(1, value)
        assert str(exc.value) == str(expected.value)
        assert str(exc.value) == f"coefficient must be an integer, got {value!r}"
    x1 = Polynomial.x(1, 1)
    for value in (True, False):
        for combine in (lambda: x1 * value, lambda: value * x1, lambda: x1 + value):
            with pytest.raises(ValueError) as exc:
                combine()
            assert str(exc.value) == f"coefficient must be an integer, got {value!r}"
    assert Polynomial.constant(1, -3) == Polynomial(1, {(0, 0): -3})
    for arity, index, text in [
        (2.0, 1, "arity must be an integer, got 2.0"),
        ("2", 1, "arity must be an integer, got '2'"),
        (-1, 1, "arity must be nonnegative"),
        (None, 1, "arity must be an integer, got None"),
        (2.0, 0, "arity must be an integer, got 2.0"),
        (True, 1, "arity must be an integer, got True"),
    ]:
        with pytest.raises(ValueError) as exc:
            Polynomial.x(arity, index)
        assert str(exc.value) == text
    for make, arity in [
        (lambda arity: Polynomial(arity, {}), True),
        (Polynomial.zero, True),
        (Polynomial.t, False),
    ]:
        with pytest.raises(ValueError) as exc:
            make(arity)
        assert str(exc.value) == f"arity must be an integer, got {arity!r}"
    for index in (1.0, True):
        with pytest.raises(ValueError) as exc:
            Polynomial.x(2, index)
        assert str(exc.value) == f"variable index must be an integer, got {index!r}"
    for index in (0, 3):
        with pytest.raises(ValueError) as exc:
            Polynomial.x(2, index)
        assert str(exc.value) == f"variable index {index} out of range 1..2"


def test_constructors_reject_a_negative_arity():
    for make in (
        Polynomial,
        Polynomial.zero,
        Polynomial.one,
        Polynomial.t,
        lambda arity: Polynomial.constant(arity, 5),
        lambda arity: Polynomial.monomial(arity, ()),
    ):
        with pytest.raises(ValueError, match="^arity must be nonnegative$"):
            make(-1)


def test_validation_rejects_non_integer_exponents_with_value_error():
    with pytest.raises(ValueError):
        Polynomial(1, {("a", 0): 1})
    with pytest.raises(ValueError):
        Polynomial(1, {(1.0, 0): 1})
    with pytest.raises(ValueError):
        Polynomial(1, {(None, 0): 1})


def test_validation_rejects_bool_exponents_and_coefficients():
    with pytest.raises(ValueError):
        Polynomial(1, {(True, 0): 1})
    with pytest.raises(ValueError):
        Polynomial(1, {(1, False): 1})
    with pytest.raises(ValueError):
        Polynomial.monomial(2, (1, True))
    with pytest.raises(ValueError):
        Polynomial(1, {(1, 0): True})
    with pytest.raises(ValueError):
        Polynomial.monomial(1, (1,), coeff=True)


def test_arithmetic_small_examples():
    x1, x2 = Polynomial.x(2, 1), Polynomial.x(2, 2)
    square = (x1 + x2) ** 2
    assert square == x1 * x1 + 2 * x1 * x2 + x2 * x2
    assert (x1 - x2) * (x1 + x2) == x1**2 - x2**2
    assert x1 - x1 == Polynomial.zero(2)
    assert 1 + x1 - 1 == x1
    assert (x1 + 1) * 0 == Polynomial.zero(2)
    assert -(-x1) == x1


def field_edge_polynomial(rng, n, bases, n_terms):
    """Random polynomial in x_1..x_n and t; each exponent is one of
    ``bases`` plus at most 3."""
    terms = {}
    for _ in range(n_terms):
        key = tuple(rng.choice(bases) + rng.randrange(4) for _ in range(n + 1))
        terms[key] = terms.get(key, 0) + rng.randint(-3, 3)
    return Polynomial(n, terms)


def field_edge_example(edge):
    """Exponent sums of edge - 1 and edge, beside fields that stay small."""
    p = Polynomial(2, {(edge - 1, 0, 1): 1, (1, edge - 2, 0): -2})
    q = Polynomial(2, {(1, 1, edge - 1): 3, (0, 1, 0): 1, (0, 0, 0): 5})
    return p, q, Polynomial.x(2, 2)


def test_ring_axioms_on_random_inputs(rng):
    triples = [field_edge_example(2**k) for k in (8, 16, 32)]
    for _ in range(150):
        n = rng.randrange(4)
        # the largest base bounds the triple's products' field width
        bases = FIELD_EDGE_BASES[: rng.randrange(1, len(FIELD_EDGE_BASES) + 1)]
        triples.append(
            tuple(field_edge_polynomial(rng, n, bases, rng.randrange(6)) for _ in "abc")
        )
    for a, b, c in triples:
        assert a * b == tuple_loop_product(a, b)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)


def test_exponent_sums_reaching_2_to_the_64_raise_a_typed_error():
    half = 2**63
    p = Polynomial.monomial(2, (half, 1), half - 1)
    below = Polynomial.monomial(2, (half - 1, 0), half)
    assert p * below == Polynomial.monomial(2, (2**64 - 1, 1), 2**64 - 1)
    # the bound is per field: a large x_1 beside a large t does not raise
    x1, t = Polynomial.monomial(2, (half, 0)), Polynomial.monomial(2, (0, 0), half)
    assert x1 * t == Polynomial.monomial(2, (half, 0), half)
    # products keep exponents of any size
    assert p * x1 == Polynomial.monomial(2, (2**64, 1), half - 1)
    assert p * Polynomial.monomial(2, (0, 0), half + 1) == Polynomial.monomial(
        2, (half, 1), 2**64
    )
    assert issubclass(ExponentOverflowError, ValueError)
    # a Vandermonde quotient's fields hold the dividend's total x-degree
    below = Polynomial.monomial(2, (half - 1, half - 1))
    assert divide_by_vandermonde(below * vandermonde(2)) == below
    for dividend in [
        Polynomial.monomial(2, (half, half)),
        Polynomial.monomial(2, (1, 0), 2**64),
    ]:
        with pytest.raises(
            ExponentOverflowError,
            match=f"^total x-degree or t-exponent {2**64} does not fit in 64 bits$",
        ):
            divide_by_vandermonde(dividend)


def test_pow():
    p = Polynomial.x(1, 1) + Polynomial.t(1)
    assert p**0 == Polynomial.one(1)
    assert p**3 == p * p * p
    for exponent, text in [
        (-1, "exponent must be nonnegative"),
        (True, "exponent must be an integer, got True"),
        (False, "exponent must be an integer, got False"),
        (1.0, "exponent must be an integer, got 1.0"),
    ]:
        with pytest.raises(ValueError) as exc:
            p**exponent
        assert str(exc.value) == text


def test_is_homogeneous_in_x(poly):
    assert is_homogeneous_in_x(poly(2, (1, (2, 0), 0), (3, (1, 1), 5)))
    assert not is_homogeneous_in_x(poly(2, (1, (2, 0), 0), (1, (1, 0), 0)))
    assert is_homogeneous_in_x(Polynomial.zero(2))


def test_permute_vars_is_group_action(rng, random_poly):
    perms = all_permutations(3)
    for _ in range(8):
        p = random_poly(3)
        w, u = rng.choice(perms), rng.choice(perms)
        assert p.permute_vars(u).permute_vars(w) == p.permute_vars(w * u)
    assert p.permute_vars(Permutation.identity(3)) == p


def test_permute_vars_examples():
    x1, x2, x3 = (Polynomial.x(3, i) for i in (1, 2, 3))
    w = Permutation((2, 3, 1))  # sends index 1 to 2, 2 to 3, 3 to 1
    assert x1.permute_vars(w) == x2
    assert (x1 * x3**2).permute_vars(w) == x2 * x1**2
    v = vandermonde(3)
    swap = Permutation.transposition(3, 1, 2)
    assert v.permute_vars(swap) == -v


def test_permute_vars_keeps_keys_at_low_arity():
    c = Polynomial.one(0) + 3 * Polynomial.t(0)
    assert c.permute_vars(Permutation(())) == c
    p = Polynomial.x(1, 1) ** 2 * Polynomial.t(1)
    q = p.permute_vars(Permutation.identity(1))
    assert q == p and all(isinstance(key, tuple) for key in q.terms)


def test_eval_is_ring_morphism(rng, random_poly):
    for _ in range(5):
        a, b = random_poly(2), random_poly(2)
        point = [rng.randint(-6, 6), rng.randint(-6, 6)]
        tv = rng.randint(-6, 6)
        assert (a + b).eval_at(point, tv) == a.eval_at(point, tv) + b.eval_at(point, tv)
        assert (a * b).eval_at(point, tv) == a.eval_at(point, tv) * b.eval_at(point, tv)


def test_substitute_t():
    p = Polynomial.x(2, 1) * Polynomial.t(2) ** 2 + Polynomial.x(2, 2)
    assert p.substitute_t(-1) == Polynomial.x(2, 1) + Polynomial.x(2, 2)
    assert p.substitute_t(0) == Polynomial.x(2, 2)
    assert p.substitute_t(2).eval_at([1, 0], 99) == 4


def test_substitute_t_takes_only_an_int():
    for value in (1.5, True, "2", None):
        with pytest.raises(ValueError) as exc:
            Polynomial.t(1).substitute_t(value)
        assert str(exc.value) == f"t must be an integer, got {value!r}"


def test_embed_offset():
    p = Polynomial.x(2, 1) * Polynomial.x(2, 2)
    lifted = p.embed(4, offset=1)
    assert lifted == Polynomial.x(4, 2) * Polynomial.x(4, 3)
    assert p.embed(2) == p
    for arity, offset in [(2, 1), (4, 3), (4, -1)]:
        with pytest.raises(ArityMismatchError):
            p.embed(arity, offset)
    for arity, text in [
        (3.0, "arity must be an integer, got 3.0"),
        (True, "arity must be an integer, got True"),
        (-1, "arity must be nonnegative"),
        (None, "arity must be an integer, got None"),
    ]:
        with pytest.raises(ValueError) as exc:
            p.embed(arity)
        assert str(exc.value) == text
    for offset in (True, 1.0, None):
        with pytest.raises(ValueError) as exc:
            p.embed(3, offset)
        assert str(exc.value) == f"offset must be an integer, got {offset!r}"


def test_eval_at_takes_only_int_values():
    p = Polynomial.x(2, 1) + Polynomial.t(2)
    assert p.eval_at((1, 2), 2) == 3
    for point, t_value, text in [
        ((1, 2), 2.5, "t must be an integer, got 2.5"),
        ((1, 2), True, "t must be an integer, got True"),
        ((1.5, 2), 2, "point must be integers: (1.5, 2)"),
        ((True, 2), 2, "point must be integers: (True, 2)"),
        ((1, "2"), 2, "point must be integers: (1, '2')"),
        (5, 2, "point must be integers: 5"),
    ]:
        with pytest.raises(ValueError) as exc:
            p.eval_at(point, t_value)
        assert str(exc.value) == text


# --- exact division ------------------------------------------------------


def test_divide_linear_difference_path():
    x1, x2 = Polynomial.x(2, 1), Polynomial.x(2, 2)
    quotient = (x1**3 - x2**3).divide_exact(x1 - x2)
    assert quotient == x1**2 + x1 * x2 + x2**2
    with pytest.raises(NotDivisibleError):
        (x1**2 + x2).divide_exact(x1 - x2)


def test_divide_t_only_path(poly):
    v2 = poly(1, (1, (0,), 0), (1, (0,), 1))  # 1 + t
    p = poly(1, (3, (2,), 1), (-1, (0,), 0))
    assert (p * v2).divide_exact(v2) == p
    one_plus_t2 = poly(1, (1, (0,), 0), (1, (0,), 2))
    with pytest.raises(NotDivisibleError):
        one_plus_t2.divide_exact(v2)


def test_divide_general_path(random_poly):
    x1, x2, x3 = (Polynomial.x(3, i) for i in (1, 2, 3))
    # e_2 has two terms of top degree in every variable; its leading term
    # is x1 x2
    e2 = x1 * x2 + x1 * x3 + x2 * x3
    for _ in range(6):
        p = random_poly(3)
        for q in (random_poly(3, n_terms=3) + Polynomial.one(3), e2):
            assert (p * q).divide_exact(q) == p
    y1, y2 = Polynomial.x(2, 1), Polynomial.x(2, 2)
    for f, q in [(y1 + 1, y1 * y2 + y2), (x1 * x2**2, e2)]:
        with pytest.raises(NotDivisibleError):
            f.divide_exact(q)
    with pytest.raises(ZeroDivisionError):
        Polynomial.one(2).divide_exact(Polynomial.zero(2))


def test_division_failure_texts_are_pinned():
    t = Polynomial.t(0)
    x1, x2, x3 = (Polynomial.x(3, i) for i in (1, 2, 3))
    e2 = x1 * x2 + x1 * x3 + x2 * x3
    y, s = Polynomial.x(1, 1), Polynomial.t(1)
    cases = [
        (1 + t**2, 1 + t, "remainder of degree 0 in t"),
        (t, 1 + t + t**2, "remainder of degree 1 in t"),
        (3 * t, 2, "leading coefficient does not divide"),
        (x1, x3 - x1, "remainder of degree 0 in x1"),
        (x2**2, x1 - x3, "remainder of degree 0 in x1"),
        (x1 * x2**2, e2, "remainder of degree 0 in x2"),
        (y * s + 1, 1 + s, "remainder of degree 0 in t"),
    ]
    for f, q, text in cases:
        with pytest.raises(NotDivisibleError) as exc:
            f.divide_exact(q)
        assert str(exc.value) == text


def test_a_leading_monomial_that_does_not_divide_names_the_variable():
    y1, y2 = Polynomial.x(2, 1), Polynomial.x(2, 2)
    with pytest.raises(NotDivisibleError) as exc:
        (y1 + 1).divide_exact(y1 * y2 + y2)
    assert str(exc.value) == "remainder of degree 0 in x2"


def test_linear_difference_division_of_zero_is_zero():
    for n, i, j in [(2, 1, 2), (3, 3, 1)]:
        zero = Polynomial.zero(n)
        assert zero.divide_exact(Polynomial.x(n, i) - Polynomial.x(n, j)) == zero
        assert divide_by_vandermonde(zero) == zero


def test_division_cost_follows_the_terms_not_the_exponents():
    # each quotient is one term; a loop over every degree level would run
    # 2**40 times
    big = 2**40
    x1, x2, t = Polynomial.x(2, 1), Polynomial.x(2, 2), Polynomial.t(2)
    x1_big = Polynomial.monomial(2, (big, 0))
    t_big = Polynomial.monomial(2, (0, 0), big)
    assert (x1_big * (x1 - x2)).divide_exact(x1 - x2) == x1_big
    assert (3 * t_big).divide_exact(3) == t_big
    assert (t_big * (1 + t)).divide_exact(1 + t) == t_big
    x1_big = Polynomial.monomial(3, (big, 0, 0))
    assert divide_by_vandermonde(x1_big * vandermonde(3)) == x1_big


def test_vandermonde_and_difference_product(random_poly):
    v3 = vandermonde(3)
    assert v3 == difference_product(3, [(1, 2), (1, 3), (2, 3)])
    p = random_poly(3)
    assert divide_by_vandermonde(p * v3) == p
    with pytest.raises(NotDivisibleError):
        divide_by_vandermonde(Polynomial.x(3, 1))


def test_vandermonde_quotient_names_the_first_pair_whose_hyperplane_fails():
    cases = [
        (Polynomial.x(3, 1), "x1"),
        (difference_product(3, [(1, 2), (1, 3)]) * Polynomial.x(3, 2), "x2"),
        # missing (2, 4) and (3, 4): the pairs go in lexicographic order
        (difference_product(4, [(1, 2), (1, 3), (1, 4), (2, 3)]), "x2"),
    ]
    for f, name in cases:
        for divide in (divide_by_vandermonde, vandermonde_quotient_by_factors):
            with pytest.raises(NotDivisibleError) as exc:
                divide(f)
            assert str(exc.value) == f"remainder of degree 0 in {name}"


# --- serialization ---------------------------------------------------------


def test_to_text_pinned_formats(poly):
    assert Polynomial.zero(2).to_text() == "0"
    assert Polynomial.constant(0, 5).to_text() == "5"
    assert poly(0, (1, (), 0), (1, (), 1)).to_text() == "1 + t"
    assert (
        poly(0, (1, (), 0), (2, (), 1), (2, (), 2), (1, (), 3)).to_text()
        == "1 + 2*t + 2*t^2 + t^3"
    )
    assert poly(2, (1, (1, 1), 0)).to_text() == "1 * x1^1 x2^1"
    assert poly(0, (-1, (), 2)).to_text() == "-t^2"
    assert poly(0, (3, (), 1)).to_text() == "3*t"
    assert (
        poly(2, (-2, (1, 0), 3)).to_text() == "-2 * x1^1 * t^3"
    )


def test_to_latex():
    p = Polynomial.x(2, 1) ** 2 - Polynomial.t(2) * Polynomial.x(2, 2)
    assert p.to_latex() == "x_{1}^{2} - x_{2} t"
    assert Polynomial.zero(1).to_latex() == "0"


def test_canonical_term_order(poly):
    p = poly(2, (1, (0, 0), 1), (2, (2, 0), 0), (3, (1, 1), 0), (4, (0, 1), 2))
    keys = [term["x_exponents"] for term in p.to_json_terms()]
    # total x-degree decreasing, then lexicographically decreasing exponents
    assert keys == [[2, 0], [1, 1], [0, 1], [0, 0]]


def test_json_terms_shape():
    p = 2 * Polynomial.x(2, 1) * Polynomial.t(2)
    assert p.to_json_terms() == [
        {"coeff": 2, "x_exponents": [1, 0], "t_exponent": 1}
    ]
