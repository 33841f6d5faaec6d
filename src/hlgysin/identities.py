"""Executable verifiers for the push-forward identities.

Each verifier builds both sides of one identity with the exact engine and
returns a VerificationReport carrying the witness polynomial (LHS - RHS)
when the sides differ.  A suite is one row of the table IDENTITY_SUITES:
an identity's name, mapped to a callable that runs its verifier over an
instance family, enumerated deterministically (exhaustively or from a
seed), and never stops at the first failure.  Two builders make the rows
of the split identities and of the strict-pair ones.

The Grassmann verifiers (prop-juxtaposition, theorem-main, cor-gaussian,
t-minus1 and t0-jlp) push forward with the engine's own Grassmann row,
gysin._grassmann_orbits, on symmetric orbits from end to end; the product
cross * A(Q) * B(S) is never formed.  A, B and the right side are read as
orbits from hallittlewood._rows, whose c picks the class (R, Schur P or
Schur S), and no class is expanded to be cut back to its orbits.  At
q = 1, prop-juxtaposition and t0-jlp restate how _rows builds R and
Schur S.  Both sides are compared as orbit dicts, each orbit's
coefficient one int: at t = -1 and t = 0 the coefficient itself, and at
generic t its polynomial's value at the packed t 2**B.  There one step,
_certified_witness, takes A, B and the right side as exact orbits, R's
read back once (hallittlewood._r_orbits) or P's divided from them, and
packs all three at the B their measured norms need (polyring._packed_t),
so that packed equality is exact.  The witness is read back and expanded
only when the sides differ.  This module holds verifier code only.

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

from .antisym import _expand
from .gysin import _grassmann_orbits, _scaled_orbits
from .hallittlewood import (
    _as_partition_of_length,
    _class_norm,
    _p_orbits,
    _r_orbits,
    _rows,
    as_int_sequence,
    gaussian_binomial,
    gaussian_binomial_at_minus_one,
    hall_littlewood_r,
    is_partition,
    is_strict_partition,
    straighten_schur_p,
    straighten_schur_s,
    t_factorial,
    t_factorial_product,
)
from .polyring import (
    NotDivisibleError,
    Polynomial,
    _checked_int,
    _checked_ints,
    _packed,
    _packed_t,
    _pushforward_bound,
    _unpacked,
)


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
        _checked_int(self.entry_bound, "entry_bound", 0)
        _checked_int(self.count, "count", 0)
        _checked_int(self.seed, "seed")
        ranges = {"n_range": self.n_range}
        if self.q_range is not None:
            ranges["q_range"] = self.q_range
        for name, value in ranges.items():
            pair = _checked_ints(value, name, 1)
            if len(pair) != 2 or pair[0] > pair[1]:
                raise ValueError(f"bad {name} {value!r}")
        if self.mode not in ("exhaustive", "randomized"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "randomized" and self.count < 1:
            raise ValueError("randomized mode needs a positive count")

    def ns(self):
        return range(self.n_range[0], self.n_range[1] + 1)

    def qs(self, n):
        lo, hi = self.q_range if self.q_range else (1, n - 1)
        return range(max(lo, 1), min(hi, n - 1) + 1)


# ---------------------------------------------------------------------- #
# shared helpers


def _witness(n, lhs, rhs, c):
    """LHS - RHS for two classes given by their orbits packed at c: zero when
    the dicts are equal, else both sides read back and expanded, exact when
    c is 0, -1 or certified for both sides (polyring._packed_t)."""
    if lhs == rhs:
        return Polynomial.zero(n)
    return _expand(n, _unpacked(lhs, c)) - _expand(n, _unpacked(rhs, c))


def _certified_witness(n, q, a, b, rhs):
    """LHS - RHS of push(prod_{i<=q<j} (x_i - t x_j) A(Q) B(S)) = RHS along
    (1..q | q+1..n) for exact orbits A, B and RHS, all three packed and
    compared at the t that certifies _row_bound on the measured norms of A
    and B, and the measured norm of RHS (polyring._packed_t)."""
    degree = max(map(sum, a), default=0) + max(map(sum, b), default=0)
    t = _packed_t(max(_row_bound(n, q, _class_norm(a), _class_norm(b), degree), _class_norm(rhs)))
    lhs = _grassmann_orbits(n, q, t, _packed(a, t), _packed(b, t))
    return _witness(n, lhs, _packed(rhs, t), t)


def _row_bound(n, q, a_bound, b_bound, degree):
    """A bound on ||push(prod_{i<=q<j} (x_i - c x_j) A(Q) B(S))|| for A and B
    bounded by a_bound and b_bound, of total x-degree ``degree``."""
    crossings = q * (n - q)
    norm = (1 << crossings) * a_bound * b_bound
    return _pushforward_bound(norm, n, degree + crossings, crossings)


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


def _checked_split(n, q):
    """r = n - q, refused with a ValueError unless n and q are ints with
    1 <= q <= n - 1, so that both blocks of the split are nonempty."""
    r = _checked_int(n, "n") - _checked_int(q, "q")
    if not 1 <= q <= n - 1:
        raise ValueError(f"q must lie in 1..{n - 1}")
    return r


def _split_params(n, q, lam, mu):
    lam, mu = as_int_sequence(lam), as_int_sequence(mu)
    r = _checked_split(n, q)
    if len(lam) != q or len(mu) != r:
        raise ValueError(
            f"sequence lengths ({len(lam)}, {len(mu)}) must equal block sizes ({q}, {r})"
        )
    return lam, mu


# ---------------------------------------------------------------------- #
# verifiers


def verify_lemma_sum(n):
    """Symmetrized t-twisted Vandermonde quotient with trivial exponents
    equals the t-factorial of n."""
    started = time.perf_counter()
    _checked_int(n, "n")
    lhs = hall_littlewood_r(n, (0,) * n)
    rhs = t_factorial(n).embed(n)
    return _report("lemma-sum", {"n": n}, lhs - rhs, started)


def verify_prop_juxtaposition(n, q, lam, mu):
    """Grassmann push-forward of R_lam(Q) R_mu(S) times the twisted cross
    factor equals R of the concatenated sequence: theorem-main multiplied
    through by v_lam v_mu, checked by the same step (_certified_witness)
    on R's orbits, which hall_littlewood_r reads from the same cache."""
    started = time.perf_counter()
    lam, mu = _split_params(n, q, lam, mu)
    witness = _certified_witness(n, q, _r_orbits(lam), _r_orbits(mu), _r_orbits(lam + mu))
    instance = {"n": n, "q": q, "lambda": lam, "mu": mu}
    return _report("prop-juxtaposition", instance, witness, started)


def _checked_theorem(n, q, lam, mu, coefficient, v_lam, v_mu, v_joined):
    """Shared body for the P-class push-forward identity: the witness
    LHS - RHS and the detail for the report, None when no fallback ran.

    coefficient is the arity-0 polynomial scaling the right side, and
    coefficient * v_lam * v_mu = v_joined; the caller builds each t-factor
    once.  When a normalized class does not exist (the interleaved-sequence
    divisibility finding) the same identity is checked multiplied through
    by the offending t-factorials — an exactly equivalent statement — and
    the detail records the fallback.  R_lam, R_mu and R_(lam mu) are read
    back once each; _certified_witness packs and compares the sides.
    """
    notes = []
    r_lam, r_mu, r_joined = _r_orbits(lam), _r_orbits(mu), _r_orbits(lam + mu)
    try:
        a, b = _p_orbits(lam, v_lam, r_lam), _p_orbits(mu, v_mu, r_mu)
        multiplier = coefficient
    except NotDivisibleError:
        # clear the left side: multiply both sides by v_lam * v_mu
        notes.append("input-class-undefined(v-does-not-divide-R); cleared-form")
        a, b = r_lam, r_mu
        multiplier = v_joined
    try:
        rhs = {key: multiplier * f for key, f in _p_orbits(lam + mu, v_joined, r_joined).items()}
    except NotDivisibleError:
        # clear the right side: multiplier * P = (multiplier * R) / v_joined
        notes.append("juxtaposed-class-undefined(v-does-not-divide-R); reduced-form")
        scaled = {key: multiplier * f for key, f in r_joined.items()}
        try:
            rhs = _p_orbits(lam + mu, v_joined, scaled)
        except NotDivisibleError:
            # multiply both sides by v_joined, the left through its input A
            notes.append("reduced-form-not-divisible")
            rhs, a = scaled, {key: v_joined * f for key, f in a.items()}
    return _certified_witness(n, q, a, b, rhs), "; ".join(notes) or None


def verify_theorem_main(n, q, lam, mu):
    """Grassmann push-forward of P_lam(Q) P_mu(S) times the twisted cross
    factor equals (v_{lam mu} / (v_lam v_mu)) * P_{lam mu}.  The coefficient
    division is always exact: the coefficient is the product over values x
    of the Gaussian polynomials [m_lam(x) + m_mu(x) choose m_lam(x)]_t."""
    started = time.perf_counter()
    lam, mu = _split_params(n, q, lam, mu)
    instance = {"n": n, "q": q, "lambda": lam, "mu": mu}
    v_lam, v_mu, v_joined = map(t_factorial_product, (lam, mu, lam + mu))
    coefficient = v_joined.divide_exact(v_lam * v_mu)
    witness, detail = _checked_theorem(n, q, lam, mu, coefficient, v_lam, v_mu, v_joined)
    return _report("theorem-main", instance, witness, started, detail)


def verify_t0_jlp(n, q, lam, mu):
    """t = 0 shadow: pushing (x_1...x_q)^r s_lam(Q) s_mu(S) forward along the
    Grassmann split gives the straightened Schur polynomial of the
    concatenation."""
    started = time.perf_counter()
    r = _checked_split(n, q)
    lam, mu = _as_partition_of_length(lam, q), _as_partition_of_length(mu, r)
    lhs = _grassmann_orbits(n, q, 0, _rows(lam, q, 0), _rows(mu, r, 0))
    straightened = straighten_schur_s(lam + mu)
    if straightened is None:
        rhs = {}
    else:
        sign, shape = straightened
        rhs = _scaled_orbits(_rows(shape, n, 0), sign)
    instance = {"n": n, "q": q, "lambda": lam, "mu": mu}
    return _report("t0-jlp", instance, _witness(n, lhs, rhs, 0), started)


def d_coefficient(n, q, k, h):
    """Integer coefficient of the t = -1 push-forward identity.

    Zero when (q-k)(n-q-h) is odd, otherwise (-1)^((q-k)h) times the
    binomial C(floor((n-k-h)/2), floor((q-k)/2)).  Refused with a
    ValueError unless 0 <= k <= q <= n and 0 <= h <= n - q."""
    for value, name in ((n, "n"), (q, "q"), (k, "k"), (h, "h")):
        _checked_int(value, name)
    for value, name, top in ((q, "q", n), (k, "k", q), (h, "h", n - q)):
        if not 0 <= value <= top:
            raise ValueError(f"{name} must lie in 0..{top}, got {value}")
    sign = -1 if ((q - k) * h) % 2 else 1
    return sign * gaussian_binomial_at_minus_one(q - k, n - q - h)


def _strict_pair_params(n, q, nu, sigma):
    nu, sigma = as_int_sequence(nu), as_int_sequence(sigma)
    r = _checked_split(n, q)
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
    lhs = _grassmann_orbits(n, q, -1, _rows(nu, q, -1), _rows(sigma, r, -1))
    d = d_coefficient(n, q, k, h)
    if d == 0:
        rhs = {}
    else:
        sign, shape = straighten_schur_p(nu + sigma)
        rhs = _scaled_orbits(_rows(shape, n, -1), d * sign)
    instance = {"n": n, "q": q, "nu": nu, "sigma": sigma}
    return _report("t-minus1", instance, _witness(n, lhs, rhs, -1), started, f"d={d}")


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
    v_lam, v_mu, v_joined = map(t_factorial_product, (lam, mu, lam + mu))
    instance = {"n": n, "q": q, "nu": nu, "sigma": sigma}
    witness = claimed - v_joined.divide_exact(v_lam * v_mu)
    if witness:
        detail = "gaussian-coefficient-mismatch"
    else:
        witness, detail = _checked_theorem(n, q, lam, mu, claimed, v_lam, v_mu, v_joined)
    return _report("cor-gaussian", instance, witness, started, detail)


# ---------------------------------------------------------------------- #
# suites


def _strict_partitions_within(max_len, bound):
    for k in range(0, max_len + 1):
        yield from itertools.combinations(range(bound, 0, -1), k)


def _split_instances(family, admits):
    """(n, q, lam, mu) over the family, lam and mu drawn from the sequences
    with entries <= entry_bound that ``admits`` accepts: every pair in
    exhaustive mode, ``count`` uniform draws in randomized mode.  A draw
    takes uniform entries and is redrawn until ``admits`` accepts it, so a
    suite that admits every sequence keeps the first draw."""
    bound = family.entry_bound
    entries = range(bound + 1)
    if family.mode == "exhaustive":
        for n in family.ns():
            for q in family.qs(n):
                for lam in filter(admits, itertools.product(entries, repeat=q)):
                    for mu in filter(admits, itertools.product(entries, repeat=n - q)):
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


def _split_suite(verify, admits=lambda seq: True):
    """The suite that runs verify(n, q, lam, mu) on each split instance."""
    return lambda family: itertools.starmap(verify, _split_instances(family, admits))


def _strict_suite(name, verify, probe_shared=False):
    """The suite that runs verify(n, q, nu, sigma) on each pair of strict
    partitions with parts <= entry_bound that fit the blocks.  A pair that
    shares a part is logged as skipped and, with ``probe_shared``, the
    unreduced theorem-main, which needs no disjointness, runs on nu and
    sigma padded with zeros."""

    def suite(family):
        for n in family.ns():
            for q in family.qs(n):
                r = n - q
                for nu in _strict_partitions_within(q, family.entry_bound):
                    for sigma in _strict_partitions_within(r, family.entry_bound):
                        if not set(nu) & set(sigma):
                            yield verify(n, q, nu, sigma)
                            continue
                        instance = {"n": n, "q": q, "nu": nu, "sigma": sigma}
                        yield VerificationReport(
                            name, instance, True, None, 0.0, "skipped-shared-part"
                        )
                        if probe_shared:
                            lam = nu + (0,) * (q - len(nu))
                            mu = sigma + (0,) * (r - len(sigma))
                            yield verify_theorem_main(n, q, lam, mu)

    return suite


# identity name -> callable(InstanceFamily) -> that identity's reports
IDENTITY_SUITES = {
    "lemma-sum": lambda family: map(verify_lemma_sum, family.ns()),
    "prop-juxtaposition": _split_suite(verify_prop_juxtaposition),
    "theorem-main": _split_suite(verify_theorem_main),
    "t0-jlp": _split_suite(verify_t0_jlp, is_partition),
    "t-minus1": _strict_suite("t-minus1", verify_t_minus1),
    "cor-gaussian": _strict_suite("cor-gaussian", verify_cor_gaussian, probe_shared=True),
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
