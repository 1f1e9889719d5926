"""divrec: order-two linear recurrences in nontrivial divisor sets.

Exact-arithmetic tools to decide whether the nontrivial small divisors
(1 < d < sqrt(n)) or large divisors (sqrt(n) < d < n) of an integer
satisfy an integral linear recurrence of order at most two, classify the
integer against the known closed-form characterizations, cross-validate
the characterizations against brute force over ranges, and search for
the rare prime configurations the characterizations leave conditional.
"""

from .arith import (
    CapacityError,
    ContractViolation,
    Factorization,
    FactorSieve,
    divisors_sorted,
    factorize,
    is_prime,
    isqrt_exact,
    primes_upto,
    tau,
)
from .check import ErrataEntry, ValidationRecord, check_single
from .classify import FormMatch, LARGE, SMALL, classify_large, classify_small, verify_prediction
from .fit import (
    FitKind,
    FitVerdict,
    brute_force_fit,
    solve_fit,
    solutions_in_box,
    verify_params,
)
from .oracle import RecurrenceVerdict
from .profiles import DivisorProfile, check_tau_identity, profile

__version__ = "0.1.0"

# Only range scans need ``divrec.harness`` and only the searches need
# ``divrec.search``; each is loaded on first access to one of its names.
_LAZY = {
    "ValidationSummary": "harness", "split_errata": "harness", "validate_range": "harness",
    "L5Pair": "search", "S7Triple": "search", "search_large5": "search", "search_s7": "search",
}

__all__ = [
    "CapacityError", "ContractViolation", "DivisorProfile", "ErrataEntry", "Factorization",
    "FactorSieve", "FitKind", "FitVerdict", "FormMatch", "LARGE", "RecurrenceVerdict", "SMALL",
    "ValidationRecord", "brute_force_fit", "check_single", "check_tau_identity",
    "classify_large", "classify_small", "divisors_sorted", "factorize", "is_prime",
    "isqrt_exact", "primes_upto", "profile", "solutions_in_box", "solve_fit", "tau",
    "verify_params", "verify_prediction", *_LAZY,
]


def __getattr__(name):
    if name in _LAZY:
        from importlib import import_module

        return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
