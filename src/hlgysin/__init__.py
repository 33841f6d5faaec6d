"""Exact Hall-Littlewood classes and Gysin push-forwards in Chern roots.

The package computes, over the integers and exactly, the symmetric classes
R and P attached to integer sequences, their Schur (t=0) and Schur P (t=-1)
shadows, and the flag/Grassmannian push-forward operators acting on them —
and ships executable verifiers for the push-forward identities relating
all of these.
"""

from .polyring import (
    ArityMismatchError,
    ExponentOverflowError,
    NotDivisibleError,
    Polynomial,
    divide_by_vandermonde,
)
from .symgroup import (
    DEFAULT_PERMUTATION_BOUND,
    BlockStructure,
    BoundExceededError,
    Permutation,
    block_structure,
    coset_reps,
    ensure_within_bound,
)
from .antisym import divided_difference, jacobi_symmetrizer
from .hallittlewood import (
    gaussian_binomial,
    gaussian_binomial_at_minus_one,
    hall_littlewood_p,
    hall_littlewood_r,
    hall_littlewood_r_coset,
    is_partition,
    is_strict_partition,
    schur_p_coset,
    schur_s,
    straighten_schur_p,
    straighten_schur_s,
    t_factorial,
    t_factorial_product,
)
from .gysin import (
    NonInvariantInputError,
    RootSplit,
    full_flag_pushforward,
    grassmann_pushforward,
    leading_flag_pushforward,
    partial_flag_pushforward,
)
from .identities import (
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

# Not in __all__: the benchmark calls the Schur P oracle by this name.
from .oracles import schur_p_recursive  # noqa: F401

__version__ = "0.1.0"

__all__ = [
    "ArityMismatchError",
    "ExponentOverflowError",
    "NotDivisibleError",
    "Polynomial",
    "divide_by_vandermonde",
    "DEFAULT_PERMUTATION_BOUND",
    "BlockStructure",
    "BoundExceededError",
    "Permutation",
    "block_structure",
    "coset_reps",
    "ensure_within_bound",
    "divided_difference",
    "jacobi_symmetrizer",
    "gaussian_binomial",
    "gaussian_binomial_at_minus_one",
    "hall_littlewood_p",
    "hall_littlewood_r",
    "hall_littlewood_r_coset",
    "is_partition",
    "is_strict_partition",
    "schur_p_coset",
    "schur_s",
    "straighten_schur_p",
    "straighten_schur_s",
    "t_factorial",
    "t_factorial_product",
    "NonInvariantInputError",
    "RootSplit",
    "full_flag_pushforward",
    "grassmann_pushforward",
    "leading_flag_pushforward",
    "partial_flag_pushforward",
    "IDENTITY_SUITES",
    "InstanceFamily",
    "VerificationReport",
    "d_coefficient",
    "run_suite",
    "verify_cor_gaussian",
    "verify_lemma_sum",
    "verify_prop_juxtaposition",
    "verify_t0_jlp",
    "verify_t_minus1",
    "verify_theorem_main",
    "__version__",
]
