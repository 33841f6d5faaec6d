"""Executable verifiers for the push-forward identities.

Each verifier builds both sides of one identity with the exact engine and
returns a VerificationReport carrying the witness polynomial (LHS - RHS)
when the sides differ.  Suites enumerate instance families deterministically
(exhaustively or from a seed) and never stop at the first failure.

Two findings about sequences with interleaved equal values are handled
explicitly rather than masked:

* the normalized class of such a sequence may not exist (its t-factorial
  does not divide the symmetrized class); verifiers then check the identity
  in the equivalent cleared form, multiplied through by the offending
  t-factorials, and say so in the report's detail field;
* the Gaussian-coefficient reduction requires the two strict partitions to
  share no part; suites skip shared-part pairs with a logged report and
  probe the unreduced identity on them instead.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass

from .gysin import grassmann_pushforward
from .hallittlewood import (
    _as_partition_of_length,
    as_int_sequence,
    gaussian_binomial,
    gaussian_binomial_at_minus_one,
    hall_littlewood_p,
    hall_littlewood_r,
    is_strict_partition,
    schur_p_coset,
    schur_s,
    straighten_schur_p,
    straighten_schur_s,
    t_factorial,
    t_factorial_product,
)
from .polyring import NotDivisibleError, Polynomial, linear_factor_product


@dataclass
class VerificationReport:
    """Outcome of one identity check on one instance."""

    identity_name: str
    instance: dict
    passed: bool
    witness: Polynomial | None
    elapsed: float
    detail: str | None = None

    def line(self, include_elapsed=True):
        """`identity, params, PASS|FAIL, elapsed_ms` (detail appended)."""
        params = " ".join(
            f"{k}={_format_value(v)}" for k, v in self.instance.items()
        )
        parts = [self.identity_name, params, "PASS" if self.passed else "FAIL"]
        if include_elapsed:
            parts.append(f"{round(self.elapsed * 1000)}ms")
        if self.detail:
            parts.append(self.detail)
        return ", ".join(parts)

    def instance_key(self):
        """Filesystem-safe slug identifying the instance."""
        bits = [self.identity_name]
        for k, v in self.instance.items():
            bits.append(f"{k}{_format_value(v)}")
        return "-".join(bits).translate(str.maketrans("(),", "__."))


def _format_value(v):
    if isinstance(v, tuple):
        return "(" + ",".join(str(e) for e in v) + ")"
    return str(v)


@dataclass(frozen=True)
class InstanceFamily:
    """Deterministic description of a set of identity instances."""

    n_range: tuple = (1, 3)
    q_range: tuple | None = None
    entry_bound: int = 2
    mode: str = "exhaustive"
    count: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("exhaustive", "randomized"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "randomized" and self.count < 1:
            raise ValueError("randomized mode needs a positive count")
        lo, hi = self.n_range
        if not 1 <= lo <= hi:
            raise ValueError(f"bad n_range {self.n_range!r}")
        if self.q_range is not None:
            qlo, qhi = self.q_range
            if not 1 <= qlo <= qhi:
                raise ValueError(f"bad q_range {self.q_range!r}")
        if self.entry_bound < 0:
            raise ValueError("entry_bound must be nonnegative")

    def ns(self):
        return range(self.n_range[0], self.n_range[1] + 1)

    def qs(self, n):
        lo, hi = self.q_range if self.q_range else (1, n - 1)
        return range(max(lo, 1), min(hi, n - 1) + 1)


# ---------------------------------------------------------------------- #
# shared helpers


def _cross_factor(n, q, c):
    """prod over i <= q < j of (x_i - c x_j): c = t, or c = -1 at t = -1."""
    pairs = ((i, j) for i in range(1, q + 1) for j in range(q + 1, n + 1))
    return linear_factor_product(n, pairs, c)


def _report(name, instance, witness, started, detail=None):
    """The report of one check; it passes when the witness is zero."""
    passed = witness.is_zero
    return VerificationReport(
        identity_name=name,
        instance=instance,
        passed=passed,
        witness=None if passed else witness,
        elapsed=time.perf_counter() - started,
        detail=detail,
    )


def _split_params(n, q, lam, mu):
    lam, mu = as_int_sequence(lam), as_int_sequence(mu)
    r = n - q
    if not 1 <= q <= n - 1:
        raise ValueError(f"q must lie in 1..{n - 1}")
    if len(lam) != q or len(mu) != r:
        raise ValueError(
            f"sequence lengths ({len(lam)}, {len(mu)}) must equal block sizes ({q}, {r})"
        )
    return lam, mu, r


# ---------------------------------------------------------------------- #
# verifiers


def verify_lemma_sum(n):
    """Symmetrized t-twisted Vandermonde quotient with trivial exponents
    equals the t-factorial of n."""
    started = time.perf_counter()
    lhs = hall_littlewood_r(n, (0,) * n)
    rhs = t_factorial(n).embed(n)
    return _report("lemma-sum", {"n": n}, lhs - rhs, started)


def verify_prop_juxtaposition(n, q, lam, mu):
    """Grassmann push-forward of R_lam(Q) R_mu(S) times the twisted cross
    factor equals R of the concatenated sequence."""
    started = time.perf_counter()
    lam, mu, r = _split_params(n, q, lam, mu)
    f = (
        _cross_factor(n, q, Polynomial.t(n))
        * hall_littlewood_r(q, lam).embed(n)
        * hall_littlewood_r(r, mu).embed(n, offset=q)
    )
    lhs = grassmann_pushforward(f, q, r)
    rhs = hall_littlewood_r(n, lam + mu)
    instance = {"n": n, "q": q, "lambda": lam, "mu": mu}
    return _report("prop-juxtaposition", instance, lhs - rhs, started)


def _checked_theorem(name, instance, started, n, q, lam, mu, coefficient):
    """Shared body for the P-class push-forward identity.

    coefficient is the arity-0 polynomial scaling the right side.  When a
    normalized class does not exist (the interleaved-sequence divisibility
    finding) the same identity is checked multiplied through by the
    offending t-factorials — an exactly equivalent statement — and the
    detail field records the fallback.
    """
    r = n - q
    cross = _cross_factor(n, q, Polynomial.t(n))
    notes = []

    try:
        f = (
            cross
            * hall_littlewood_p(q, lam).embed(n)
            * hall_littlewood_p(r, mu).embed(n, offset=q)
        )
        scale = Polynomial.one(0)
    except NotDivisibleError:
        # clear the left side: multiply both sides by v_lam * v_mu
        notes.append("input-class-undefined(v-does-not-divide-R); cleared-form")
        f = (
            cross
            * hall_littlewood_r(q, lam).embed(n)
            * hall_littlewood_r(r, mu).embed(n, offset=q)
        )
        scale = t_factorial_product(lam) * t_factorial_product(mu)
    lhs = grassmann_pushforward(f, q, r)

    multiplier = coefficient * scale
    v_joined = t_factorial_product(lam + mu)
    try:
        witness = lhs - multiplier.embed(n) * hall_littlewood_p(n, lam + mu)
    except NotDivisibleError:
        # clear the right side: multiplier * P = (multiplier * R) / v_joined
        notes.append("juxtaposed-class-undefined(v-does-not-divide-R); reduced-form")
        joined_r = hall_littlewood_r(n, lam + mu)
        try:
            rhs = (multiplier.embed(n) * joined_r).divide_exact(v_joined.embed(n))
            witness = lhs - rhs
        except NotDivisibleError:
            notes.append("reduced-form-not-divisible")
            witness = lhs * v_joined.embed(n) - multiplier.embed(n) * joined_r
    return _report(name, instance, witness, started, "; ".join(notes) or None)


def verify_theorem_main(n, q, lam, mu):
    """Grassmann push-forward of P_lam(Q) P_mu(S) times the twisted cross
    factor equals (v_{lam mu} / (v_lam v_mu)) * P_{lam mu}; the coefficient
    division must itself be exact."""
    started = time.perf_counter()
    lam, mu, r = _split_params(n, q, lam, mu)
    instance = {"n": n, "q": q, "lambda": lam, "mu": mu}
    v_lam_mu = t_factorial_product(lam) * t_factorial_product(mu)
    try:
        coefficient = t_factorial_product(lam + mu).divide_exact(v_lam_mu)
    except NotDivisibleError:
        witness = t_factorial_product(lam + mu)
        return _report(
            "theorem-main", instance, witness, started, "coefficient-not-divisible"
        )
    return _checked_theorem(
        "theorem-main", instance, started, n, q, lam, mu, coefficient
    )


def verify_t0_jlp(n, q, lam, mu):
    """t = 0 shadow: pushing (x_1...x_q)^r s_lam(Q) s_mu(S) forward along the
    Grassmann split gives the straightened Schur polynomial of the
    concatenation."""
    started = time.perf_counter()
    r = n - q
    lam, mu = _as_partition_of_length(lam, q), _as_partition_of_length(mu, r)
    f = (
        Polynomial.monomial(n, (r,) * q + (0,) * r)
        * schur_s(lam, q).embed(n)
        * schur_s(mu, r).embed(n, offset=q)
    )
    lhs = grassmann_pushforward(f, q, r)
    straightened = straighten_schur_s(lam + mu)
    if straightened is None:
        rhs = Polynomial.zero(n)
    else:
        sign, shape = straightened
        rhs = sign * schur_s(shape, n)
    instance = {"n": n, "q": q, "lambda": lam, "mu": mu}
    return _report("t0-jlp", instance, lhs - rhs, started)


def d_coefficient(n, q, k, h):
    """Integer coefficient of the t = -1 push-forward identity.

    Zero when (q-k)(n-q-h) is odd, otherwise (-1)^((q-k)h) times the
    binomial C(floor((n-k-h)/2), floor((q-k)/2))."""
    sign = -1 if ((q - k) * h) % 2 else 1
    return sign * gaussian_binomial_at_minus_one(q - k, n - q - h)


def _strict_pair_params(n, q, nu, sigma):
    nu, sigma = as_int_sequence(nu), as_int_sequence(sigma)
    r = n - q
    if not 1 <= q <= n - 1:
        raise ValueError(f"q must lie in 1..{n - 1}")
    if not is_strict_partition(nu) or not is_strict_partition(sigma):
        raise ValueError("nu and sigma must be strict partitions")
    if len(nu) > q or len(sigma) > r:
        raise ValueError("strict partitions do not fit the block sizes")
    if set(nu) & set(sigma):
        raise ValueError("nu and sigma must share no part")
    return nu, sigma, r


def verify_t_minus1(n, q, nu, sigma):
    """t = -1 shadow: pushing prod_{i<=q<j}(x_i+x_j) P_nu(Q) P_sigma(S)
    forward gives d * (straightened Schur P of the concatenation)."""
    started = time.perf_counter()
    nu, sigma, r = _strict_pair_params(n, q, nu, sigma)
    k, h = len(nu), len(sigma)
    f = (
        _cross_factor(n, q, -1)
        * schur_p_coset(nu, q).embed(n)
        * schur_p_coset(sigma, r).embed(n, offset=q)
    )
    lhs = grassmann_pushforward(f, q, r)
    d = d_coefficient(n, q, k, h)
    if d == 0:
        rhs = Polynomial.zero(n)
    else:
        sign, shape = straighten_schur_p(nu + sigma)
        rhs = (d * sign) * schur_p_coset(shape, n)
    instance = {"n": n, "q": q, "nu": nu, "sigma": sigma}
    return _report("t-minus1", instance, lhs - rhs, started, f"d={d}")


def verify_cor_gaussian(n, q, nu, sigma):
    """Gaussian-coefficient form: with lam = nu padded to q and mu = sigma
    padded to r, the P-class push-forward coefficient reduces to the single
    Gaussian polynomial on (q-k, r-h)."""
    started = time.perf_counter()
    nu, sigma, r = _strict_pair_params(n, q, nu, sigma)
    k, h = len(nu), len(sigma)
    lam = nu + (0,) * (q - k)
    mu = sigma + (0,) * (r - h)
    claimed = gaussian_binomial(q - k, r - h)
    v_ratio = t_factorial_product(lam + mu).divide_exact(
        t_factorial_product(lam) * t_factorial_product(mu)
    )
    instance = {"n": n, "q": q, "nu": nu, "sigma": sigma}
    mismatch = claimed - v_ratio
    if mismatch:
        return _report(
            "cor-gaussian", instance, mismatch, started, "gaussian-coefficient-mismatch"
        )
    return _checked_theorem(
        "cor-gaussian", instance, started, n, q, lam, mu, claimed
    )


# ---------------------------------------------------------------------- #
# suites


def _sequences(length, bound):
    return itertools.product(range(bound + 1), repeat=length)


def _any_sequence(seq):
    return True


def _is_partition(seq):
    return all(a >= b for a, b in zip(seq, seq[1:]))


def _strict_partitions_within(max_len, bound):
    for k in range(0, max_len + 1):
        yield from itertools.combinations(range(bound, 0, -1), k)


def _suite_lemma(family):
    for n in family.ns():
        yield verify_lemma_sum(n)


def _split_instances(family, admits):
    """(n, q, lam, mu) over the family, lam and mu drawn from the sequences
    with entries <= entry_bound that ``admits`` accepts: every pair in
    exhaustive mode, ``count`` uniform draws in randomized mode.  A draw
    takes uniform entries and is redrawn until ``admits`` accepts it, so a
    suite that admits every sequence keeps the first draw."""
    bound = family.entry_bound
    if family.mode == "exhaustive":
        for n in family.ns():
            for q in family.qs(n):
                for lam in filter(admits, _sequences(q, bound)):
                    for mu in filter(admits, _sequences(n - q, bound)):
                        yield n, q, lam, mu
    else:
        rng = random.Random(family.seed)

        def draw(length):
            while True:
                seq = tuple(rng.randint(0, bound) for _ in range(length))
                if admits(seq):
                    return seq

        n = family.n_range[1]
        qs = family.qs(n)
        if not qs:
            return
        for _ in range(family.count):
            q = rng.randint(qs.start, qs.stop - 1)
            yield n, q, draw(q), draw(n - q)


def _suite_juxtaposition(family):
    for n, q, lam, mu in _split_instances(family, _any_sequence):
        yield verify_prop_juxtaposition(n, q, lam, mu)


def _suite_theorem(family):
    for n, q, lam, mu in _split_instances(family, _any_sequence):
        yield verify_theorem_main(n, q, lam, mu)


def _suite_t0(family):
    for n, q, lam, mu in _split_instances(family, _is_partition):
        yield verify_t0_jlp(n, q, lam, mu)


def _strict_pairs(family):
    for n in family.ns():
        for q in family.qs(n):
            r = n - q
            for nu in _strict_partitions_within(q, family.entry_bound):
                for sigma in _strict_partitions_within(r, family.entry_bound):
                    yield n, q, nu, sigma


def _skip_report(name, n, q, nu, sigma):
    return VerificationReport(
        identity_name=name,
        instance={"n": n, "q": q, "nu": nu, "sigma": sigma},
        passed=True,
        witness=None,
        elapsed=0.0,
        detail="skipped-shared-part",
    )


def _suite_t_minus1(family):
    for n, q, nu, sigma in _strict_pairs(family):
        if set(nu) & set(sigma):
            yield _skip_report("t-minus1", n, q, nu, sigma)
        else:
            yield verify_t_minus1(n, q, nu, sigma)


def _suite_cor_gaussian(family):
    for n, q, nu, sigma in _strict_pairs(family):
        if set(nu) & set(sigma):
            yield _skip_report("cor-gaussian", n, q, nu, sigma)
            # probe the unreduced identity, which needs no disjointness
            lam = nu + (0,) * (q - len(nu))
            mu = sigma + (0,) * (n - q - len(sigma))
            yield verify_theorem_main(n, q, lam, mu)
        else:
            yield verify_cor_gaussian(n, q, nu, sigma)


IDENTITY_SUITES = {
    "lemma-sum": _suite_lemma,
    "prop-juxtaposition": _suite_juxtaposition,
    "theorem-main": _suite_theorem,
    "t0-jlp": _suite_t0,
    "t-minus1": _suite_t_minus1,
    "cor-gaussian": _suite_cor_gaussian,
}

# the suites that draw their instances through _split_instances
_SAMPLED_IDENTITIES = frozenset({"prop-juxtaposition", "theorem-main", "t0-jlp"})


def run_suite(identity, family):
    """All reports for one identity over one instance family, in
    deterministic instance order; failures do not abort the run."""
    try:
        suite = IDENTITY_SUITES[identity]
    except KeyError:
        raise KeyError(
            f"unknown identity {identity!r}; choose from {sorted(IDENTITY_SUITES)}"
        ) from None
    if family.mode == "randomized" and identity not in _SAMPLED_IDENTITIES:
        raise ValueError(
            f"identity {identity!r} has no randomized mode; "
            f"randomized mode samples {', '.join(sorted(_SAMPLED_IDENTITIES))}"
        )
    return list(suite(family))
