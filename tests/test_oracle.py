import pytest

from divrec import arith
from divrec.arith import CapacityError, ContractViolation, primes_upto
from divrec.fit import FitKind, FitVerdict, constraints_of, verify_params
from divrec.oracle import RecurrenceVerdict, canonical_witness, verdict_for_sequence
from divrec.profiles import profile
from references import large_verdict, profiles_in_range, small_verdict, solve_constraints_eager


def test_small_60():
    v = small_verdict(60)
    assert v.recurrent and not v.vacuous
    assert v.witness == (2, -1)


def test_small_100_not_recurrent():
    v = small_verdict(100)
    assert not v.recurrent and v.witness is None
    assert v.fit.kind is FitKind.EMPTY


def test_small_6_vacuous():
    v = small_verdict(6)
    assert v.recurrent and v.vacuous and v.witness is None


def test_large_48():
    v = large_verdict(48)
    assert v.recurrent and v.witness == (0, 2)
    seq = profile(48).large_strict
    assert seq == (8, 12, 16, 24)
    assert verify_params(list(seq), 0, 2)


def test_large_100():
    v = large_verdict(100)
    assert v.recurrent and v.witness == (2, 0)


def test_large_42():
    v = large_verdict(42)
    assert v.recurrent and v.witness == (0, 3)
    assert profile(42).large_strict == (7, 14, 21)


def test_rejects_unit():
    with pytest.raises(ContractViolation):
        small_verdict(1)
    with pytest.raises(ContractViolation):
        large_verdict(0)


def test_prime_powers_always_recurrent(monkeypatch):
    # needs the bound lifted: 97**20 is far beyond 2**62
    monkeypatch.setattr(arith, "INPUT_BOUND", 97**20)
    for p in primes_upto(98):
        for k in (1, 2, 3, 5, 9, 14, 20):
            n = p**k
            sv = small_verdict(n)
            lv = large_verdict(n)
            assert sv.recurrent and lv.recurrent, (p, k)
            if sv.witness is not None:
                assert verify_params(list(profile(n).small_strict), *sv.witness)
            if lv.witness is not None:
                assert verify_params(list(profile(n).large_strict), *lv.witness)


def test_witnesses_verify_over_range():
    for prof in profiles_in_range(2, 3000):
        for verdict, seq in (
            (small_verdict(prof.n, fac=None), prof.small_strict),
            (large_verdict(prof.n, fac=None), prof.large_strict),
        ):
            assert verdict.recurrent == (verdict.fit.kind is not FitKind.EMPTY)
            assert verdict.vacuous == (len(seq) <= 2)
            if verdict.witness is not None:
                assert verify_params(list(seq), *verdict.witness)
            else:
                assert verdict.vacuous or not verdict.recurrent


def test_determinism():
    assert small_verdict(4620) == small_verdict(4620)
    assert large_verdict(4620) == large_verdict(4620)


def test_canonical_witness_prefers_small_a_then_b():
    # line through (2,0) with direction (4,-5): candidates (2,0) and (-2,5)
    v = large_verdict(100)
    assert v.fit.kind is FitKind.LINE
    assert canonical_witness(v.fit) == (2, 0)


def verdict_by_constraints(seq):
    """Reference: the verdict as built from the constraint list by the
    extended-gcd solver, not from the fit core that ``solve_fit`` and
    ``verdict_for_sequence`` share; a list with no constraints, that of at
    most two terms, solves as vacuous."""
    fit = solve_constraints_eager(constraints_of(list(seq)))
    vacuous = fit.kind is FitKind.VACUOUS
    recurrent = fit.kind is not FitKind.EMPTY
    witness = canonical_witness(fit) if recurrent and not vacuous else None
    return RecurrenceVerdict(recurrent, vacuous, fit, witness)


def test_core_matches_public_verdict_over_range():
    # equality compares recurrent, vacuous, fit and witness
    for prof in profiles_in_range(2, 20_000):
        for seq in (prof.small_strict, prof.large_strict):
            assert verdict_for_sequence(seq) == verdict_by_constraints(seq), seq


def test_short_sequences_share_one_frozen_vacuous_verdict():
    v = verdict_for_sequence(())
    assert v == verdict_for_sequence((2,)) == verdict_for_sequence((2, 3))
    assert v == verdict_for_sequence([5, 7])
    assert v.fit is verdict_for_sequence((2,)).fit is verdict_for_sequence([5, 7]).fit
    assert v == verdict_by_constraints(())
    with pytest.raises(AttributeError):
        v.recurrent = False


@pytest.mark.parametrize("seq", [
    [3, 3], [2, 1], [1, 2, 2, 5], [2, 3, 5, 4],  # not strictly increasing
    [0], [-1, 2], [0, 1, 2, 3],  # not positive
])
def test_public_verdict_rejects_bad_sequences(seq):
    with pytest.raises(ContractViolation):
        verdict_for_sequence(seq)
    with pytest.raises(ContractViolation):
        verdict_for_sequence(tuple(seq))


@pytest.mark.parametrize("seq", [[2**62 + 1], [1, 2**62 + 1], [1, 2, 2**63]])
def test_public_verdict_rejects_over_bound_sequences(seq):
    # the input bound has its own error, as everywhere in the package
    with pytest.raises(CapacityError):
        verdict_for_sequence(seq)


def test_empty_verdicts_share_one_frozen_verdict():
    # (2, 4, 7) fails at its only constraint, 100's S' = (2, 4, 5) too, and
    # the long sequence only at its third
    v = verdict_for_sequence((2, 4, 7))
    assert v == verdict_for_sequence(profile(100).small_strict)
    assert v == verdict_for_sequence([2, 3, 5, 6, 7, 10, 11, 14, 15])
    assert v.fit is verdict_for_sequence(profile(100).small_strict).fit
    assert v == verdict_by_constraints((2, 4, 7))
    assert v == RecurrenceVerdict(False, False, FitVerdict(FitKind.EMPTY), None)
    with pytest.raises(AttributeError):
        v.recurrent = True
