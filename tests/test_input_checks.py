"""Bad integer input fails with a ValueError that names the value or the field.

One table of public calls, each given a non-integer, a bool, a float or a
bare int where a sequence belongs.  Every integer and integer-sequence
check of the package goes through polyring._checked_int and
_checked_ints, so each call raises the text of one of those two helpers
(or a range test of its own after them), never a stray TypeError from
inside the engine, and never accepts the value.
"""

import pytest

from hlgysin import (
    ArityMismatchError,
    InstanceFamily,
    Permutation,
    Polynomial,
    RootSplit,
    block_structure,
    ensure_within_bound,
    hall_littlewood_p,
    hall_littlewood_r,
    hall_littlewood_r_coset,
    is_partition,
    schur_p_coset,
    schur_s,
    straighten_schur_p,
    straighten_schur_s,
    t_factorial_product,
    verify_prop_juxtaposition,
    verify_t_minus1,
)
from hlgysin import oracles
from hlgysin.polyring import _checked_int, _checked_ints

X1 = Polynomial.x(2, 1)
X3 = Polynomial.x(3, 1)
SEQUENCE_5 = "sequence entries must be nonnegative integers: 5"

# (callable, arguments, the exact text of the ValueError)
PROBES = [
    # a sequence given as the int 5
    (hall_littlewood_r, (2, 5), SEQUENCE_5),
    (hall_littlewood_p, (2, 5), SEQUENCE_5),
    (hall_littlewood_r_coset, (2, 5), SEQUENCE_5),
    (t_factorial_product, (5,), SEQUENCE_5),
    (is_partition, (5,), SEQUENCE_5),
    (straighten_schur_s, (5,), SEQUENCE_5),
    (straighten_schur_p, (5,), "parts must be positive integers: 5"),
    (schur_s, (5, 2), SEQUENCE_5),
    (schur_p_coset, (5, 2), SEQUENCE_5),
    (oracles.schur_p_recursive, (5, 2), SEQUENCE_5),
    (block_structure, (5,), SEQUENCE_5),
    (Permutation, (5,), "permutation images must be integers: 5"),
    (verify_prop_juxtaposition, (3, 1, 5, (1, 1)), SEQUENCE_5),
    (Polynomial, (1, {5: 1}), "exponents must be nonnegative integers: 5"),
    (Polynomial.monomial, (1, 5), "exponents must be nonnegative integers: 5"),
    (X1.eval_at, (5, 2), "point must be integers: 5"),
    # a bool or a float that was accepted
    (Permutation, ((1.0, 2),), "permutation images must be integers: (1.0, 2)"),
    (Permutation.transposition, (3, True, 2), "a must be an integer, got True"),
    (Permutation.identity, (True,), "n must be an integer, got True"),
    (oracles.divided_difference, (X1, True, 2), "i must be an integer, got True"),
    (oracles.longest_word, (True,), "m must be an integer, got True"),
    # a stray TypeError
    (Permutation.transposition, (3, 1.5, 2), "a must be an integer, got 1.5"),
    (Permutation.transposition, (3.0, 1, 2), "n must be an integer, got 3.0"),
    (Permutation.identity, (2.0,), "n must be an integer, got 2.0"),
    (oracles.divided_difference, (X1, 1.0, 2), "i must be an integer, got 1.0"),
    (oracles.longest_word, (1.0,), "m must be an integer, got 1.0"),
    (oracles.vandermonde, (2.0,), "arity must be an integer, got 2.0"),
    (ensure_within_bound, ("9",), "n must be an integer, got '9'"),
    (RootSplit, (2, ((1,), 2)), "block members must be positive integers: 2"),
    (RootSplit, (2, 5), "blocks must be a sequence of blocks, got 5"),
    (InstanceFamily, (5,), "n_range must be positive integers: 5"),
    # a pair of the wrong length, which failed to unpack
    (InstanceFamily, ((1, 2, 3),), "bad n_range (1, 2, 3)"),
    # values of the right type that the call still refuses
    (InstanceFamily, ((1, 3), None, 2, "randomized", 0), "randomized mode needs a positive count"),
    (verify_t_minus1, (4, 2, (3, 2, 1), ()), "strict partitions do not fit the block sizes"),
    (Polynomial, (2, {(1, 0): 1}), "exponent tuple (1, 0) does not match arity 2"),
]

# (callable, arguments, the exact text of the ArityMismatchError)
ARITY_PROBES = [
    (X3.permute_vars, (Permutation((2, 1)),), "permutation degree 2 vs arity 3"),
    (X3.eval_at, ((1, 2), 0), "2 values for arity 3"),
]


def probe_id(probe):
    call, args, _ = probe
    return f"{call.__qualname__}({', '.join('x1' if a is X1 else repr(a) for a in args)})"


@pytest.mark.parametrize("call, args, text", PROBES, ids=map(probe_id, PROBES))
def test_bad_integer_input_raises_a_value_error_naming_it(call, args, text):
    with pytest.raises(ValueError) as exc:
        call(*args)
    assert str(exc.value) == text


@pytest.mark.parametrize("call, args, text", ARITY_PROBES, ids=map(probe_id, ARITY_PROBES))
def test_a_size_that_does_not_match_the_arity_raises_an_arity_mismatch(call, args, text):
    with pytest.raises(ArityMismatchError) as exc:
        call(*args)
    assert str(exc.value) == text


@pytest.mark.parametrize("value", [True, False, 1.0, "1", None])
def test_the_helpers_refuse_every_non_int(value):
    with pytest.raises(ValueError) as exc:
        _checked_int(value, "v")
    assert str(exc.value) == f"v must be an integer, got {value!r}"
    with pytest.raises(ValueError) as exc:
        _checked_ints((1, value), "vs")
    assert str(exc.value) == f"vs must be nonnegative integers: {(1, value)!r}"


def test_the_helpers_take_their_bound_inclusively():
    assert _checked_int(0, "v", 0) == 0 and _checked_int(1, "v", 1) == 1
    assert _checked_int(-3, "v") == -3
    assert _checked_ints([0, 2], "vs") == (0, 2)
    assert _checked_ints(iter([1, 2]), "vs", 1) == (1, 2)
    assert _checked_ints((-1, 5), "vs", None) == (-1, 5)
    assert _checked_ints((), "vs", 1) == ()
    for value, least, text in [(-1, 0, "v must be nonnegative"), (0, 1, "v must be positive")]:
        with pytest.raises(ValueError) as exc:
            _checked_int(value, "v", least)
        assert str(exc.value) == text
    for values, least, text in [
        ((1, -1), 0, "vs must be nonnegative integers: (1, -1)"),
        ((2, 0), 1, "vs must be positive integers: (2, 0)"),
        (7, None, "vs must be integers: 7"),
    ]:
        with pytest.raises(ValueError) as exc:
            _checked_ints(values, "vs", least)
        assert str(exc.value) == text
