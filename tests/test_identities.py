import pytest

from hlgysin import Polynomial, gaussian_binomial, t_factorial
from hlgysin.identities import (
    IDENTITY_SUITES,
    InstanceFamily,
    VerificationReport,
    d_coefficient,
    run_suite,
    verify_cor_gaussian,
    verify_lemma_sum,
    verify_prop_juxtaposition,
    verify_t0_jlp,
    verify_t_minus1,
    verify_theorem_main,
)


def assert_pass(report):
    assert report.passed, report.line()
    assert report.witness is None or report.witness.is_zero


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
