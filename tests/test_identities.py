import itertools
import re

import pytest

from conftest import T, at_c, block_orbits, unpacked_orbits
from hlgysin import (
    NotDivisibleError,
    Polynomial,
    gaussian_binomial,
    hall_littlewood_p,
    hall_littlewood_r,
    schur_p_coset,
    schur_s,
    t_factorial,
)
from hlgysin import hallittlewood, identities
from hlgysin.antisym import _expand
from hlgysin.gysin import _grassmann_input
from hlgysin.hallittlewood import _p_reps, _rows
from hlgysin.oracles import elementary_symmetric, schur_s_demazure, schur_s_jacobi_trudi
from hlgysin.identities import (
    IDENTITY_SUITES,
    InstanceFamily,
    VerificationReport,
    _witness,
    d_coefficient,
    run_suite,
    verify_cor_gaussian,
    verify_lemma_sum,
    verify_prop_juxtaposition,
    verify_t0_jlp,
    verify_t_minus1,
    verify_theorem_main,
)


@pytest.mark.parametrize(
    "construct, args, text",
    [
        (elementary_symmetric, (1, True), "n must be an integer, got True"),
        (elementary_symmetric, (True, 2), "k must be an integer, got True"),
        (elementary_symmetric, (1.0, 2), "k must be an integer, got 1.0"),
        (schur_s_jacobi_trudi, ((2,), 2.0), "n must be an integer, got 2.0"),
        (schur_s_jacobi_trudi, ((1,), -1), "n must be nonnegative"),
        (schur_s_demazure, ((1,), 2.0), "n must be an integer, got 2.0"),
        (verify_prop_juxtaposition, (3.0, 1, (1,), (0, 0)), "n must be an integer, got 3.0"),
        (verify_theorem_main, (3.0, 1, (1,), (0, 0)), "n must be an integer, got 3.0"),
        (verify_t0_jlp, (3.0, 1, (1,), (0, 0)), "n must be an integer, got 3.0"),
        (verify_t_minus1, (3.0, 1, (1,), ()), "n must be an integer, got 3.0"),
        (verify_cor_gaussian, (3.0, 1, (1,), ()), "n must be an integer, got 3.0"),
        (verify_prop_juxtaposition, (3, True, (1,), (0, 0)), "q must be an integer, got True"),
        (verify_t0_jlp, (3, 1.0, (1,), (0, 0)), "q must be an integer, got 1.0"),
        (verify_t_minus1, (3, True, (1,), ()), "q must be an integer, got True"),
        (verify_lemma_sum, (2.0,), "n must be an integer, got 2.0"),
    ],
)
def test_oracles_and_verifiers_take_only_an_int_n_and_q(construct, args, text):
    """n and q are refused with a ValueError naming them unless they are
    ints, even where the cache already holds the equal int's answer."""
    elementary_symmetric(1, 1)
    with pytest.raises(ValueError) as exc:
        construct(*args)
    assert str(exc.value) == text


def assert_pass(report):
    assert report.passed, report.line()
    assert report.witness is None or report.witness.is_zero


# --- the push-forward's input, built from orbits -------------------------


def cross_factor(n, q, c):
    """prod over i <= q < j of (x_i - c x_j), c a polynomial of arity n."""
    out = Polynomial.one(n)
    for i in range(1, q + 1):
        for j in range(q + 1, n + 1):
            out = out * (Polynomial.x(n, i) - c * Polynomial.x(n, j))
    return out


def assert_input_is_the_product_filtered(n, q, c, a, b, a_poly, b_poly):
    """The Pieri-built (q | r)-dominant orbits of cross * A * B, A and B
    packed at c, read back and compared with the exact dominant terms of
    the product itself, evaluated at t = c for c = 0 and c = -1."""
    c_poly = Polynomial.t(n) if c == T else Polynomial.constant(n, c)
    full = cross_factor(n, q, c_poly) * a_poly.embed(n) * b_poly.embed(n, offset=q)
    built = _grassmann_input(n, q, c, a, b)
    expected = block_orbits(at_c(full, c), (q, n - q))
    assert unpacked_orbits(built, c) == expected, (n, q, a_poly, b_poly)


def strict_within(length, bound):
    for k in range(length + 1):
        yield from itertools.combinations(range(bound, 0, -1), k)


def partitions_within(length, bound):
    return itertools.combinations_with_replacement(range(bound, -1, -1), length)


def test_grassmann_input_on_the_t_minus1_benchmark_family():
    """Every strict pair with parts <= 3 and no shared part at n <= 5, and
    those of weight <= 2 at n = 6."""
    count = 0
    for n in range(2, 7):
        for q in range(1, n):
            for nu in strict_within(q, 3):
                for sigma in strict_within(n - q, 3):
                    if set(nu) & set(sigma) or (n == 6 and sum(nu + sigma) > 2):
                        continue
                    assert_input_is_the_product_filtered(
                        n, q, -1,
                        _rows(nu, q, -1), _rows(sigma, n - q, -1),
                        schur_p_coset(nu, q), schur_p_coset(sigma, n - q),
                    )
                    count += 1
    assert count == 233


# (0, 2, 0, 2): v does not divide R, so theorem-main takes the cleared form
CLEARED_INSTANCES = [(5, 4, (0, 2, 0, 2), (1,)), (5, 1, (2,), (0, 2, 0, 2))]


def test_grassmann_input_on_theorem_main_with_entries_at_most_one():
    """P_lam(Q) and P_mu(S), or R_lam and R_mu when a P is undefined (the
    cleared form), at c = t."""
    instances = [
        (n, q, lam, mu)
        for n in range(2, 6)
        for q in range(1, n)
        for lam in itertools.product((0, 1), repeat=q)
        for mu in itertools.product((0, 1), repeat=n - q)
    ]
    for n, q, lam, mu in instances + CLEARED_INSTANCES:
        r = n - q
        try:
            a, b = _p_reps(lam, T), _p_reps(mu, T)
            a_poly, b_poly = hall_littlewood_p(q, lam), hall_littlewood_p(r, mu)
        except NotDivisibleError:
            a, b = _rows(lam, q, T), _rows(mu, r, T)
            a_poly, b_poly = hall_littlewood_r(q, lam), hall_littlewood_r(r, mu)
        assert_input_is_the_product_filtered(n, q, T, a, b, a_poly, b_poly)


def test_grassmann_input_where_summands_cancel():
    """R_lam(Q) and R_mu(S) at c = t, the prop-juxtaposition input.  With
    lam = (0, 2) or (2, 0) at n = 5, q = 2, summands of different K meet on
    keys whose coefficients cancel to zero, and the builder must drop them."""
    for lam in [(0, 2), (2, 0)]:
        for mu in itertools.product(range(3), repeat=3):
            assert_input_is_the_product_filtered(
                5, 2, T, _rows(lam, 2, T), _rows(mu, 3, T),
                hall_littlewood_r(2, lam), hall_littlewood_r(3, mu),
            )


def test_grassmann_input_at_c_zero_is_the_t0_product():
    """c = 0 leaves (x_1 ... x_q)^r of the cross factor: the t0-jlp input."""
    for n in range(2, 5):
        for q in range(1, n):
            for lam in partitions_within(q, 2):
                for mu in partitions_within(n - q, 2):
                    a, b = _rows(lam, q, 0), _rows(mu, n - q, 0)
                    assert_input_is_the_product_filtered(
                        n, q, 0, a, b, schur_s(lam, q), schur_s(mu, n - q)
                    )


def test_schur_s_is_the_c_zero_row_that_t0_jlp_reads(monkeypatch):
    """schur_s leaves the rows with c = 0 in _rows's cache, and t0-jlp takes
    its orbits from there without expanding a Schur polynomial."""
    lam, n = (2, 1, 1, 0), 4
    s = schur_s(lam, n)
    hits = _rows.cache_info().hits
    assert _expand(n, _rows(lam, n, 0), 0) == s
    assert _rows.cache_info().hits == hits + 1

    def refuse(*args):
        raise AssertionError("t0-jlp expanded a Schur polynomial")

    monkeypatch.setattr(hallittlewood, "schur_s", refuse)
    monkeypatch.setattr(identities, "schur_s", refuse, raising=False)
    for lam, mu in [((2, 1), (1, 0)), ((1, 1), (2, 2)), ((0, 0), (3, 1))]:
        assert_pass(verify_t0_jlp(4, 2, lam, mu))


def test_orbit_comparison_expands_only_a_failing_witness(monkeypatch):
    lam, mu = (2, 1, 0), (1, 1, 1)
    a, b = _rows(lam, 3, T), _rows(mu, 3, T)

    def refuse(*args):
        raise AssertionError("an equal pair of sides was expanded")

    with monkeypatch.context() as patch:
        patch.setattr(identities, "_expand", refuse)
        passing = _witness(3, a, dict(a), T)
    assert passing.is_zero and passing.arity == 3
    failing = _witness(3, a, b, T)
    assert not failing.is_zero
    assert failing == hall_littlewood_r(3, lam) - hall_littlewood_r(3, mu)


def test_grassmann_verifiers_pass_above_the_cli_bound():
    """The verifiers enumerate no permutations, so n = 9 runs in the library."""
    for verify, args in [
        (verify_prop_juxtaposition, ((0,) * 4, (0,) * 5)),
        (verify_theorem_main, ((1, 0, 0, 0), (1, 0, 0, 0, 0))),
        (verify_t0_jlp, ((1,), (1,))),
        (verify_t_minus1, ((1,), (2,))),
        (verify_cor_gaussian, ((1,), (2,))),
    ]:
        report = verify(9, 4, *args)
        assert report.passed, report.line(include_elapsed=False)


def test_t0_needs_two_nonempty_blocks():
    for n, q, lam, mu in [
        (2, 2, (1, 1), ()),
        (2, 0, (), (1, 1)),
        (3, 3, (1, 0, 0), ()),
        (3, 0, (), (1, 0, 0)),
    ]:
        with pytest.raises(ValueError) as exc:
            verify_t0_jlp(n, q, lam, mu)
        assert str(exc.value) == f"q must lie in 1..{n - 1}"


# --- individual verifiers, pinned instances ---------------------------------


@pytest.mark.parametrize("n", [1, 2, 4])
def test_lemma_sum(n):
    assert_pass(verify_lemma_sum(n))


def test_juxtaposition_pinned():
    assert_pass(verify_prop_juxtaposition(2, 1, (0,), (0,)))
    assert_pass(verify_prop_juxtaposition(2, 1, (1,), (0,)))
    assert_pass(verify_prop_juxtaposition(3, 2, (1, 0), (1,)))


def test_juxtaposition_parameter_validation():
    with pytest.raises(ValueError):
        verify_prop_juxtaposition(3, 2, (1,), (1,))  # len(lam) != q
    with pytest.raises(ValueError):
        verify_prop_juxtaposition(3, 3, (1, 0, 0), ())  # needs 1 <= q < n


def test_theorem_main_pinned():
    assert_pass(verify_theorem_main(2, 1, (0,), (0,)))
    assert_pass(verify_theorem_main(2, 1, (1,), (0,)))
    report = verify_theorem_main(4, 2, (2, 0), (2, 0))
    assert_pass(report)
    # the juxtaposed sequence (2,0,2,0) has no P normalization, so the
    # verifier falls back to the cleared form of the right-hand side
    assert "reduced-form" in report.detail


def test_theorem_main_cleared_input_side():
    # here the *input* class P_{(0,2,0,2)} is the undefined one
    report = verify_theorem_main(5, 4, (0, 2, 0, 2), (1,))
    assert_pass(report)
    assert "cleared-form" in report.detail


def test_t_minus1_at_the_frontier():
    """The bench family's hardest shape at n = 11: the first row of its
    Grassmann merge peaked at 217,568 keys when each step of the row was
    built, and took about 7.7 s; with the memoized row images it takes
    about 1.4 s (see --durations)."""
    assert_pass(verify_t_minus1(11, 4, (3, 1), (2,)))


def test_t0_pinned():
    assert_pass(verify_t0_jlp(2, 1, (1,), (0,)))
    assert_pass(verify_t0_jlp(2, 1, (0,), (1,)))  # (0,1) straightens to zero
    assert_pass(verify_t0_jlp(4, 2, (2, 1), (1, 1)))


def test_t_minus1_pinned():
    report = verify_t_minus1(2, 1, (1,), ())
    assert_pass(report)
    assert "d=1" in report.detail
    vanishing = verify_t_minus1(2, 1, (), ())
    assert_pass(vanishing)
    assert "d=0" in vanishing.detail
    assert_pass(verify_t_minus1(4, 2, (2,), (1,)))


def test_t_minus1_rejects_bad_input():
    with pytest.raises(ValueError):
        verify_t_minus1(4, 2, (2, 2), ())  # not strict
    with pytest.raises(ValueError):
        verify_t_minus1(4, 2, (2, 1, 1), ())  # too long for q=2 anyway
    with pytest.raises(ValueError):
        verify_t_minus1(4, 2, (2,), (2,))  # shared part


def test_cor_gaussian_pinned():
    assert_pass(verify_cor_gaussian(2, 1, (), ()))
    assert_pass(verify_cor_gaussian(3, 1, (1,), ()))
    assert_pass(verify_cor_gaussian(4, 2, (2,), (1,)))


def test_d_coefficient_values():
    # n=6, q=2, empty nu and sigma: binom(3, 1) = 3
    assert d_coefficient(6, 2, 0, 0) == 3
    # odd parity product vanishes
    assert d_coefficient(2, 1, 0, 0) == 0
    assert d_coefficient(4, 2, 1, 0) == 1
    assert d_coefficient(6, 4, 2, 0) == 2
    assert d_coefficient(6, 2, 1, 1) == 0  # (q-k)(r-h) = 3, odd
    assert d_coefficient(5, 2, 1, 1) == -1
    # the edges of the range: k = q = n, h = n - q, and n = 0
    assert d_coefficient(3, 3, 3, 0) == 1
    assert d_coefficient(3, 0, 0, 3) == 1
    assert d_coefficient(0, 0, 0, 0) == 1


@pytest.mark.parametrize(
    "args, text",
    [
        ((3, 1, -1, 0), "k must lie in 0..1, got -1"),
        ((3, 1, 2, 0), "k must lie in 0..1, got 2"),
        ((3, 1, 0, 3), "h must lie in 0..2, got 3"),
        ((3, 1, 0, -1), "h must lie in 0..2, got -1"),
        ((3, 4, 0, 0), "q must lie in 0..3, got 4"),
        ((3, -1, 0, 0), "q must lie in 0..3, got -1"),
    ],
)
def test_d_coefficient_refuses_arguments_out_of_range(args, text):
    """Outside 0 <= k <= q <= n and 0 <= h <= n - q the coefficient means
    nothing; the error names the caller's parameter and its range."""
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        d_coefficient(*args)


# --- report and family plumbing ---------------------------------------------


def test_report_line_formats():
    rep = VerificationReport(
        identity_name="demo",
        instance={"n": 2, "lambda": (1, 0)},
        passed=True,
        witness=None,
        elapsed=0.0123,
    )
    assert rep.line(include_elapsed=False) == "demo, n=2 lambda=(1,0), PASS"
    assert rep.line() == "demo, n=2 lambda=(1,0), PASS, 12ms"
    assert "ms" not in rep.line(include_elapsed=False)
    bad = VerificationReport(
        identity_name="demo",
        instance={"n": 2},
        passed=False,
        witness=Polynomial.one(2),
        elapsed=0.0,
        detail="broken",
    )
    assert bad.line(include_elapsed=False) == "demo, n=2, FAIL, broken"
    assert bad.instance_key() == "demo-n2"


def test_instance_family_validation():
    fam = InstanceFamily(n_range=(2, 4))
    assert list(fam.ns()) == [2, 3, 4]
    assert list(fam.qs(3)) == [1, 2]
    restricted = InstanceFamily(n_range=(2, 4), q_range=(2, 2))
    assert list(restricted.qs(4)) == [2]
    with pytest.raises(ValueError):
        InstanceFamily(n_range=(3, 2))
    with pytest.raises(ValueError):
        InstanceFamily(mode="surprise")
    with pytest.raises(ValueError):
        InstanceFamily(entry_bound=-1)


@pytest.mark.parametrize(
    "fields, text",
    [
        ({"n_range": (1.0, 2.0)}, "n_range must be positive integers: (1.0, 2.0)"),
        ({"q_range": (1, True)}, "q_range must be positive integers: (1, True)"),
        ({"entry_bound": True}, "entry_bound must be an integer, got True"),
        ({"mode": "randomized", "count": 2.0}, "count must be an integer, got 2.0"),
        ({"seed": "7"}, "seed must be an integer, got '7'"),
    ],
)
def test_instance_family_takes_only_ints(fields, text):
    with pytest.raises(ValueError) as exc:
        InstanceFamily(**fields)
    assert str(exc.value) == text


def test_run_suite_lemma():
    reports = run_suite("lemma-sum", InstanceFamily(n_range=(1, 5)))
    assert len(reports) == 5
    assert all(r.passed for r in reports)


def test_run_suite_unknown_identity():
    with pytest.raises(KeyError) as err:
        run_suite("nonsense", InstanceFamily())
    assert "lemma-sum" in str(err.value)


def test_run_suite_exhaustive_theorem_small():
    fam = InstanceFamily(n_range=(2, 3), entry_bound=2)
    reports = run_suite("theorem-main", fam)
    assert reports and all(r.passed for r in reports)
    # witness is None exactly on pass, per the report invariant
    for r in reports:
        assert (r.witness is None) == r.passed


def test_run_suite_randomized_is_reproducible():
    fam = InstanceFamily(n_range=(2, 4), entry_bound=2, mode="randomized", count=8, seed=99)
    first = [r.line(include_elapsed=False) for r in run_suite("prop-juxtaposition", fam)]
    second = [r.line(include_elapsed=False) for r in run_suite("prop-juxtaposition", fam)]
    assert first == second
    assert len(first) == 8
    other_seed = InstanceFamily(
        n_range=(2, 4), entry_bound=2, mode="randomized", count=8, seed=100
    )
    third = [r.line(include_elapsed=False) for r in run_suite("prop-juxtaposition", other_seed)]
    assert first != third


def test_run_suite_randomized_draws_q_from_its_range():
    fam = InstanceFamily(
        n_range=(4, 4), q_range=(3, 3), entry_bound=1, mode="randomized", count=5, seed=3
    )
    reports = run_suite("prop-juxtaposition", fam)
    assert len(reports) == 5
    assert all(r.instance["q"] == 3 for r in reports)
    beyond = InstanceFamily(
        n_range=(3, 3), q_range=(5, 5), mode="randomized", count=5, seed=3
    )
    assert run_suite("prop-juxtaposition", beyond) == []


def test_run_suite_randomized_draws_are_unchanged():
    """The draws of the suites that admit every sequence, as first recorded."""
    fam = InstanceFamily(n_range=(5, 5), entry_bound=2, mode="randomized", count=6, seed=2)
    expected = [
        (1, (0,), (0, 1, 0, 2)),
        (3, (1, 2, 0), (2, 0)),
        (2, (1, 2), (1, 2, 2)),
        (3, (2, 1, 2), (1, 0)),
        (1, (1,), (1, 1, 1, 1)),
        (2, (2, 0), (0, 0, 0)),
    ]
    for identity in ("prop-juxtaposition", "theorem-main"):
        drawn = [
            (r.instance["q"], r.instance["lambda"], r.instance["mu"])
            for r in run_suite(identity, fam)
        ]
        assert drawn == expected


def test_run_suite_randomized_t0_draws_partitions():
    fam = InstanceFamily(n_range=(4, 4), entry_bound=2, mode="randomized", count=20, seed=2)
    reports = run_suite("t0-jlp", fam)
    assert len(reports) == 20
    assert all(r.passed for r in reports)
    for r in reports:
        for seq in (r.instance["lambda"], r.instance["mu"]):
            assert list(seq) == sorted(seq, reverse=True)


@pytest.mark.parametrize("identity", ["lemma-sum", "t-minus1", "cor-gaussian"])
def test_run_suite_randomized_needs_a_sampler(identity):
    fam = InstanceFamily(n_range=(2, 3), mode="randomized", count=3)
    with pytest.raises(ValueError, match="no randomized mode"):
        run_suite(identity, fam)


def test_cor_gaussian_suite_skips_and_probes_shared_parts():
    fam = InstanceFamily(n_range=(4, 4), entry_bound=2)
    reports = run_suite("cor-gaussian", fam)
    skips = [r for r in reports if r.detail and "skipped-shared-part" in r.detail]
    probes = [r for r in reports if r.identity_name == "theorem-main"]
    checks = [r for r in reports if r.identity_name == "cor-gaussian" and not r.detail]
    assert skips, "expected shared-part instances to be logged as skips"
    assert probes, "expected shared-part instances to be probed via the main theorem"
    assert checks, "expected plain disjoint instances"
    assert all(r.passed for r in reports)


@pytest.mark.parametrize("identity", sorted(IDENTITY_SUITES))
def test_every_report_carries_its_suites_name(identity):
    """Each identity's name is written in its verifier alone.  The one
    other name a suite reports is theorem-main's, on the probe cor-gaussian
    runs right after a pair that shares a part."""
    reports = run_suite(identity, InstanceFamily(n_range=(1, 4), entry_bound=2))
    assert reports
    probes = 0
    for previous, report in zip([None] + reports, reports):
        probe = (
            identity == "cor-gaussian"
            and previous is not None
            and previous.detail == "skipped-shared-part"
        )
        probes += probe
        assert report.identity_name == ("theorem-main" if probe else identity), report.line()
        assert report.elapsed >= 0, report.line()
    assert (probes > 0) == (identity == "cor-gaussian")


def test_suites_registry():
    assert sorted(IDENTITY_SUITES) == [
        "cor-gaussian",
        "lemma-sum",
        "prop-juxtaposition",
        "t-minus1",
        "t0-jlp",
        "theorem-main",
    ]


def test_theorem_coefficient_is_gaussian_for_strict_padded():
    """For nu strict padded with zeros, the theorem's coefficient collapses to
    a single Gaussian polynomial; this is the bridge the corollary relies on."""
    nu = (2, 1)
    q, n = 3, 6
    lam = nu + (0,) * (q - len(nu))
    mu = (0,) * (n - q)
    v_ratio = t_factorial_product_ratio(lam, mu)
    assert v_ratio == gaussian_binomial(q - len(nu), n - q)


def t_factorial_product_ratio(lam, mu):
    from hlgysin import t_factorial_product

    joined = tuple(lam) + tuple(mu)
    return t_factorial_product(joined).divide_exact(
        t_factorial_product(lam) * t_factorial_product(mu)
    )


def test_theorem_coefficient_is_a_product_of_gaussian_polynomials():
    """v_(lam mu) / (v_lam v_mu) is the product over values x of
    [m_lam(x) + m_mu(x) choose m_lam(x)]_t, a polynomial, so theorem-main's
    coefficient division cannot fail; every split with n <= 6 and entries
    <= 2."""
    for n in range(2, 7):
        for q in range(1, n):
            for lam in itertools.product(range(3), repeat=q):
                for mu in itertools.product(range(3), repeat=n - q):
                    product = Polynomial.one(0)
                    for x in set(lam + mu):
                        product = product * gaussian_binomial(lam.count(x), mu.count(x))
                    assert t_factorial_product_ratio(lam, mu) == product, (lam, mu)
