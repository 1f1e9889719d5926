"""Form classifiers for the two divisor-recurrence characterizations.

``classify_small`` matches n against the ten enumerated shapes whose
strict small-divisor set satisfies an order-two recurrence;
``classify_large`` matches the nine large-divisor shapes.  Each match
carries the displayed divisor set and recurrence parameters where the
characterization states them, so they can be cross-checked against the
computed profile (``verify_prediction``) and against the brute-force
oracle by the validation harness.

Each form is stated once, as a plain tuple in ``_small_forms`` or
``_large_forms``; the public classifiers wrap those in ``FormMatch``, and
the validation harness reads them directly.

The classifiers transcribe the characterizations as stated - including
side conditions that the harness may reveal to be wrong - and are never
patched to absorb an oracle disagreement.
"""

from __future__ import annotations

from math import isqrt
from typing import NamedTuple

from .arith import ContractViolation, Factorization, _factored
from .fit import _holds, verify_params
from .profiles import DivisorProfile

__all__ = [
    "FormMatch",
    "LARGE",
    "SMALL",
    "classify_large",
    "classify_small",
    "verify_prediction",
]

SMALL = "Small"
LARGE = "Large"


class FormMatch(NamedTuple):
    """One matched form: its parameters and stated predictions.

    ``predicted_set`` / ``predicted_u`` are None when the characterization
    does not display them for that form.  ``predicted_u`` = (u, v, a, b)
    asserts the set starts u, v and then follows x_{i+2} = a*x_{i+1} + b*x_i.
    """

    theorem: str
    form_id: int
    n: int
    params: dict[str, int]
    predicted_set: tuple[int, ...] | None
    predicted_u: tuple[int, int, int, int] | None


# A match as the classifier cores return it: a ``FormMatch`` without theorem and n.
Form = tuple[int, dict[str, int], tuple[int, ...] | None,
             tuple[int, int, int, int] | None]


def _divides(d: int, x: int) -> bool:
    # Sign-insensitive divisibility; every integer divides 0.
    if x == 0:
        return True
    if d == 0:
        return False
    return x % abs(d) == 0


def _geometric(first: int, ratio: int, count: int) -> tuple[int, ...]:
    out = []
    v = first
    for _ in range(count):
        out.append(v)
        v *= ratio
    return tuple(out)


def _pair_chain(u: int, v: int, step: int, count: int) -> tuple[int, ...]:
    # u, v, step*u, step*v, step^2*u, ... : the U(u, v, 0, step) orbit.
    out = []
    x, y = u, v
    for i in range(count):
        if i % 2 == 0:
            out.append(x)
            x *= step
        else:
            out.append(y)
            y *= step
    return tuple(out)


def _with_u(pset: tuple[int, ...], a: int, b: int):
    # A stated recurrence needs its two seed terms to exist in the set.
    if len(pset) < 2:
        return None
    return (pset[0], pset[1], a, b)


def classify_small(
    n: int, *, fac: Factorization | None = None
) -> list[FormMatch]:
    """All small-side forms that n satisfies, sorted by form id."""
    if n < 2:
        raise ContractViolation("classify_small requires n >= 2")
    return [FormMatch(SMALL, i, n, params, pset, u)
            for i, params, pset, u in _small_forms(_factored(n, fac).factors)]


def _small_forms(sig) -> list[Form]:
    """The small-side forms of the n with signature ``sig``, sorted by form id."""
    out: list[Form] = []

    if len(sig) == 1:
        p, k = sig[0]
        pset = _geometric(p, p, (k - 1) // 2)
        out.append((1, {"p": p, "k": k}, pset, _with_u(pset, p, 0)))

    elif len(sig) == 2:
        (p, a), (q, b) = sig
        if b == 1 and a <= 3:
            # p^3*q only qualifies with q below p^2 or above p^3
            if a != 3 or q < p * p or q > p**3:
                out.append((2, {"p": p, "q": q, "k": a}, None, None))
        elif a == 1 and b <= 3:
            out.append((2, {"p": p, "q": q, "k": b}, None, None))
        if b == 1 and a >= 4 and q > p**a:
            pset = _geometric(p, p, a)
            out.append((3, {"p": p, "q": q, "k": a}, pset,
                        _with_u(pset, p, 0)))
        if b == 1 and a >= 4 and q < p * p:
            pset = _pair_chain(p, q, p, a)
            out.append((4, {"p": p, "q": q, "k": a}, pset,
                        _with_u(pset, 0, p)))
        if a == 1 and b >= 4:
            pset = _pair_chain(p, q, q, b)
            out.append((5, {"p": p, "q": q, "k": b}, pset,
                        _with_u(pset, 0, q)))
        if a == 2 and b == 2 and q < p * p:
            out.append((7, {"p": p, "q": q}, (p, q, p * p), None))
        if a == 3 and b == 2 and q < p * p and q * q > p**3:
            pset = (p, q, p * p, p * q, p**3)
            out.append((9, {"p": p, "q": q}, pset, _with_u(pset, 0, p)))

    elif len(sig) == 3:
        (p, a), (q, b), (r, c) = sig
        if a == 1 and c == 1 and b >= 2 and r > p * q**b:
            pset = _pair_chain(p, q, q, 2 * b + 1)
            out.append((6, {"p": p, "q": q, "r": r, "k": b}, pset,
                        _with_u(pset, 0, q)))
        if a == b == c == 1:
            # r = a*q + b*p is always solvable: distinct primes have gcd(q, p) = 1
            out.append((8, {"p": p, "q": q, "r": r},
                        (p, q, r) if r < p * q else (p, q, p * q), None))
        if a == 2 and b == 1 and c == 1:
            m = _small_form_10(p, q, r)
            if m is not None:
                out.append(m)

    return out  # appended in form-id order, so already sorted


def _s7_solution(p: int, q: int) -> tuple[int, int, int] | None:
    """(r, a, b) with r = p*q - sqrt(den*(p^2 - q)), den = q^2 - p^3, or None.

    a = p*(p*q - r)/den and b = (r*q - p^4)/den must be integers; the caller
    checks that r > p^2 is prime.
    """
    p2 = p * p
    den = q * q - p * p2
    rad = den * (p2 - q)
    if den <= 0 or rad <= 0:  # needs p^3 < q^2 and q < p^2
        return None
    root = isqrt(rad)
    if root * root != rad:
        return None
    r = p * q - root
    if not (_divides(den, p * q - r) and _divides(den, r * q - p2 * p2)):
        return None
    return r, p * (p * q - r) // den, (r * q - p2 * p2) // den


def _small_form_10(p: int, q: int, r: int) -> Form | None:
    """p^2*q*r with p < q < p^2 < r < p*q plus the square-root equation."""
    p2 = p * p
    if not (q < p2 and p2 < r < p * q):
        return None
    sol = _s7_solution(p, q)
    if sol is None or sol[0] != r:
        return None
    _, a, b = sol
    return (10, {"p": p, "q": q, "r": r}, (p, q, p2, r, p * q), (p, q, a, b))


def classify_large(
    n: int, *, fac: Factorization | None = None
) -> list[FormMatch]:
    """All large-side forms that n satisfies, sorted by form id."""
    if n < 2:
        raise ContractViolation("classify_large requires n >= 2")
    return [FormMatch(LARGE, i, n, params, pset, u)
            for i, params, pset, u in _large_forms(_factored(n, fac).factors)]


def _large_forms(sig) -> list[Form]:
    """The large-side forms of the n with signature ``sig``, sorted by form id."""
    out: list[Form] = []

    if len(sig) == 1:
        p, k = sig[0]
        start = k // 2 + 1  # ceil((k-1)/2) + 1
        pset = tuple(p**i for i in range(start, k))
        out.append((1, {"p": p, "k": k}, pset, _with_u(pset, p, 0)))

    elif len(sig) == 2:
        (p, a), (q, b) = sig
        if b == 1:
            k = a
            if q > p**k:
                pset = _geometric(q, p, k)
                out.append((2, {"p": p, "q": q, "k": k}, pset,
                            _with_u(pset, p, 0)))
            if k >= 2 and p ** (k - 1) < q < p**k:
                pset = (p**k,) + tuple(p**i * q for i in range(1, k))
                out.append((3, {"p": p, "q": q, "k": k}, pset,
                            _with_u(pset, p, 0)))
            if k >= 3 and q < p * p:
                if k % 2 == 0:
                    pset = _pair_chain(p ** (k // 2 + 1), p ** (k // 2) * q,
                                       p, k)
                else:
                    pset = _pair_chain(p ** ((k - 1) // 2) * q,
                                       p ** ((k + 3) // 2), p, k)
                out.append((4, {"p": p, "q": q, "k": k}, pset,
                            _with_u(pset, 0, p)))
            if k == 4 and p * p < q < p**3 and _l5_condition(p, q):
                pset = (p * q, p**4, p * p * q, p**3 * q)
                out.append((5, {"p": p, "q": q}, pset, None))
        # q*q > p**3 keeps q^2 below the square root so the displayed
        # five-element set starts at q^2; without it (e.g. 675 = 3^3*5^2)
        # the set is wrong and no fit exists.
        if a == 3 and b == 2 and q < p * p and q * q > p**3:
            pset = (q * q, p * p * q, p * q * q, p**3 * q, p * p * q * q)
            out.append((6, {"p": p, "q": q}, pset, _with_u(pset, 0, p)))
        if a == 2 and b == 2 and q < p * p:
            out.append((7, {"p": p, "q": q}, (q * q, p * p * q, p * q * q),
                        None))
        if a == 1 and b >= 2:
            k = b
            if k % 2 == 0:
                pset = _pair_chain(p * q ** (k // 2), q ** (k // 2 + 1), q, k)
            else:
                h = (k + 1) // 2
                pset = _pair_chain(q**h, p * q**h, q, k)
            out.append((8, {"p": p, "q": q, "k": k}, pset,
                        _with_u(pset, 0, q)))

    elif len(sig) == 3:
        (p, a), (q, b), (r, c) = sig
        if a == 1 and c == 1 and r > p * q**b:
            pset = _pair_chain(r, p * r, q, 2 * b + 1)
            out.append((9, {"p": p, "q": q, "r": r, "k": b}, pset,
                        _with_u(pset, 0, q)))

    return out  # appended in form-id order, so already sorted


def _l5_condition(p: int, q: int) -> bool:
    """Large form 5's divisibility: p^5 - q^2 divides p^2 - q and p^3 - q."""
    d = p**5 - q * q
    return _divides(d, p * p - q) and _divides(d, p**3 - q)


def verify_prediction(m: FormMatch, prof: DivisorProfile) -> bool:
    """Do the match's stated set and parameters agree with the profile?"""
    if m.n != prof.n:
        raise ContractViolation(
            f"match is for n={m.n}, profile is for n={prof.n}"
        )
    computed = prof.small_strict if m.theorem == SMALL else prof.large_strict
    return _prediction_holds(m.predicted_set, m.predicted_u, computed, verify_params)


def _prediction_holds(pset, pu, computed: tuple[int, ...], holds=_holds) -> bool:
    """Do a stated set ``pset`` and recurrence ``pu`` (either None) agree
    with the computed divisor set?  ``holds`` tests the recurrence on the
    set: the unchecked core by default, for sets the caller built from a
    guarded n; ``verify_params`` to check the set first."""
    if pset is not None and pset != computed:
        return False
    if pu is not None:
        target = pset if pset is not None else computed
        u, v, a, b = pu
        if len(target) >= 1 and target[0] != u:
            return False
        if len(target) >= 2 and target[1] != v:
            return False
        if not holds(target, a, b):
            return False
    return True
