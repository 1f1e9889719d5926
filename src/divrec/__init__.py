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
    input_bound,
    is_prime,
    isqrt_exact,
    primes_upto,
    set_input_bound,
    tau,
)
from .classify import FormMatch, LARGE, SMALL, classify_large, classify_small, verify_prediction
from .fit import (
    FitKind,
    FitVerdict,
    brute_force_fit,
    solve_fit,
    solutions_in_box,
    verify_params,
)
from .harness import (
    AllowlistEntry,
    ErrataEntry,
    ValidationRecord,
    ValidationSummary,
    check_single,
    load_allowlist,
    split_errata,
    validate_range,
)
from .oracle import RecurrenceVerdict
from .profiles import DivisorProfile, check_tau_identity, profile

__version__ = "0.1.0"

# Only the searches need ``divrec.search``; it is loaded on first access.
_SEARCH_NAMES = frozenset({"L5Pair", "S7Triple", "search_large5", "search_s7"})


def __getattr__(name):
    if name in _SEARCH_NAMES:
        from . import search

        return getattr(search, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
