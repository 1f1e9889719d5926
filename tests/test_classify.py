import pytest

from divrec import classify
from divrec.arith import ContractViolation, Factorization, factorize, primes_upto
from divrec.classify import (
    LARGE,
    SMALL,
    _l5_condition,
    _large_forms,
    _s7_solution,
    _small_form_10,
    _small_forms,
    classify_large,
    classify_small,
    verify_prediction,
)
from divrec.fit import verify_params
from divrec.harness import _factor_range
from divrec.profiles import profile
from references import large_verdict, s7_solution, small_verdict


def small_ids(n):
    return [m.form_id for m in classify_small(n)]


def large_ids(n):
    return [m.form_id for m in classify_large(n)]


def test_small_form_10_example():
    (m,) = classify_small(60)
    assert m.form_id == 10 and m.theorem == SMALL
    assert m.params == {"p": 2, "q": 3, "r": 5}
    assert m.predicted_set == (2, 3, 4, 5, 6)
    assert m.predicted_u == (2, 3, 2, -1)


def test_small_form_5_example():
    (m,) = classify_small(162)  # 2 * 3^4
    assert m.form_id == 5
    assert m.predicted_set == (2, 3, 6, 9)
    assert m.predicted_u == (2, 3, 0, 3)


def test_small_no_match_example():
    assert classify_small(200) == []  # 2^3 * 5^2 fails every shape


def test_small_form_1_example():
    (m,) = classify_small(512)
    assert m.form_id == 1
    assert m.predicted_set == (2, 4, 8, 16)
    assert m.predicted_u == (2, 4, 2, 0)


def test_small_form_8_branches():
    (m,) = classify_small(30)  # r=5 < pq=6
    assert m.form_id == 8 and m.predicted_set == (2, 3, 5)
    (m,) = classify_small(42)  # r=7 > pq=6
    assert m.form_id == 8 and m.predicted_set == (2, 3, 6)


def test_small_form_2_restriction():
    assert small_ids(24) == [2]  # p^3*q with q < p^2
    assert small_ids(88) == [2]  # p^3*q with q > p^3
    assert small_ids(40) == []  # p^3*q with p^2 < q < p^3 is excluded
    assert small_ids(6) == [2]
    assert small_ids(12) == [2]
    assert small_ids(75) == [2]  # 3 * 5^2
    assert small_ids(54) == [2]  # 2 * 3^3: form 5 starts at q^4


def test_large_form_4_example():
    (m,) = classify_large(48)
    assert m.form_id == 4 and m.params["k"] == 4
    assert m.predicted_set == (8, 12, 16, 24)
    assert m.predicted_u == (8, 12, 0, 2)
    assert large_ids(12) == [3]  # 2^2 * 3 with q < p^2: form 4 starts at p^3


def test_large_form_4_odd_k():
    (m,) = classify_large(96)  # 2^5 * 3
    assert m.form_id == 4
    assert m.predicted_set == (12, 16, 24, 32, 48)
    assert m.predicted_u == (12, 16, 0, 2)


def test_large_form_2_example():
    (m,) = classify_large(272)  # 2^4 * 17, q > p^k
    assert m.form_id == 2
    assert m.predicted_set == (17, 34, 68, 136)
    assert m.predicted_u == (17, 34, 2, 0)


def test_large_p2q2_window_unmatched():
    # q > p^2 is outside the printed window; the harness adjudicates it
    assert classify_large(100) == []
    assert large_verdict(100).recurrent


def test_large_form_6_example():
    (m,) = classify_large(72)  # 2^3 * 3^2
    assert m.form_id == 6
    assert m.predicted_set == (9, 12, 18, 24, 36)
    assert m.predicted_u == (9, 12, 0, 2)


def test_large_form_6_needs_q_squared_above_p_cubed():
    # 675 = 3^3 * 5^2: q^2 = 25 < 27 = p^3, so q^2 drops below the square
    # root, the five-element set never forms, and no fit exists
    assert classify_large(675) == []
    assert not large_verdict(675).recurrent
    assert profile(675).large_strict == (27, 45, 75, 135, 225)


def test_large_form_9_example():
    (m,) = classify_large(42)
    assert m.form_id == 9 and m.params == {"p": 2, "q": 3, "r": 7, "k": 1}
    assert m.predicted_set == (7, 14, 21)
    assert m.predicted_u == (7, 14, 0, 3)


def test_large_form_1_degenerate_small_k():
    (m,) = classify_large(4)
    assert m.form_id == 1 and m.predicted_set == () and m.predicted_u is None
    (m,) = classify_large(8)
    assert m.predicted_set == (4,) and m.predicted_u is None


def test_large_pkq_gap_window_unmatched():
    assert large_ids(80) == []  # 2^4*5: p^2 < q < p^3 without divisibility
    assert large_ids(160) == []  # 2^5*5: inside the uncovered window
    assert not large_verdict(80).recurrent
    assert not large_verdict(160).recurrent


def test_verify_prediction_examples():
    p60 = profile(60)
    (m,) = classify_small(60)
    assert verify_prediction(m, p60)
    (m48,) = classify_large(48)
    assert verify_prediction(m48, profile(48))
    corrupted = m._replace(predicted_set=(2, 3, 4))
    assert not verify_prediction(corrupted, p60)
    # S'(60) = (2, 3, 4, 5, 6) with a = 2, b = -1: a wrong first or second term
    for u in ((3, 3, 2, -1), (2, 4, 2, -1)):
        assert not verify_prediction(m._replace(predicted_set=None, predicted_u=u), p60)
    with pytest.raises(ContractViolation):
        verify_prediction(m, profile(61))
    # a hand-built profile's set is checked before anything is compared
    repeated = (2, 3, 3)
    with pytest.raises(ContractViolation):
        verify_prediction(m._replace(predicted_set=repeated),
                          p60._replace(small_strict=repeated))


def test_verify_prediction_checks_a_set_no_recurrence_is_stated_on():
    # small form 2 of 12 states neither a set nor a recurrence, so nothing
    # compared would touch the hand-built set
    (m,) = classify_small(12)
    assert m.form_id == 2 and m.predicted_set is None and m.predicted_u is None
    with pytest.raises(ContractViolation):
        verify_prediction(m, profile(12)._replace(small_strict=(3, 2)))


def test_form_10_parameter_identities():
    for m in classify_small(60):
        if m.form_id != 10:
            continue
        p, q, r = m.params["p"], m.params["q"], m.params["r"]
        den = q * q - p**3
        assert m.predicted_u is not None
        _, _, a, b = m.predicted_u
        assert a * den == p * (p * q - r)
        assert b * den == r * q - p**4
        assert verify_params(list(m.predicted_set), a, b)


def test_rejects_unit():
    with pytest.raises(ContractViolation):
        classify_small(1)
    with pytest.raises(ContractViolation):
        classify_large(1)


def test_a_factorization_of_another_n_is_refused():
    # trusted, a fac of 18 would give profile(12) L' = (6, 9) and
    # classify_small(12) form 2; ((4, 1), (3, 1)) profile(12) S' = (3,) and
    # tau 4; ((3, 1), (2, 2)) classify_large(12) form 8 with the set (6, 4);
    # ((12, 1),) classify_small(12) a prime power; ((2, 2), (3, 1), (5, 0))
    # no form on either side.  A fac must name n, list strictly increasing
    # primes with exponents >= 1, and multiply to n.
    for fac in (
        factorize(18),
        Factorization(12, ((2, 1), (3, 2))),
        Factorization(12, ((4, 1), (3, 1))),
        Factorization(12, ((3, 1), (2, 2))),
        Factorization(12, ((12, 1),)),
        Factorization(12, ((2, 1), (2, 1), (3, 1))),
        Factorization(12, ((2, 2), (3, 1), (5, 0))),
    ):
        for call in (profile, classify_small, classify_large):
            with pytest.raises(ContractViolation):
                call(12, fac=fac)
    fac = factorize(12)
    assert profile(12, fac=fac) == profile(12)
    assert classify_small(12, fac=fac) == classify_small(12)


def test_cores_list_form_ids_in_increasing_order():
    # the cores append in form-id order and never sort
    seen_small, seen_large = set(), set()
    for lo, hi_excl in ((2, 10**5), (10**9, 10**9 + 20_000), (10**12, 10**12 + 10_000)):
        for n, sig in _factor_range(lo, hi_excl):
            small = [m[0] for m in _small_forms(sig)]
            large = [m[0] for m in _large_forms(sig)]
            assert small == sorted(set(small)), (n, small)
            assert large == sorted(set(large)), (n, large)
            seen_small.update(small)
            seen_large.update(large)
    # every form but the conditional large form 5 fires in these ranges
    assert seen_small == set(range(1, 11))
    assert seen_large == set(range(1, 10)) - {5}


def _l5_window(p):
    """The primes q with p^2 < q < p^3."""
    return [q for q in primes_upto(p**3) if q > p * p]


def _record_l5_calls(monkeypatch, answer):
    calls = []
    monkeypatch.setattr(classify, "_l5_condition",
                        lambda p, q: calls.append((p, q)) or answer)
    return calls


def test_large_form_5_tests_its_condition_once_inside_its_window(monkeypatch):
    calls = _record_l5_calls(monkeypatch, False)
    for p in (2, 3, 5, 7, 11):
        for q in _l5_window(p):
            calls.clear()
            assert [m[0] for m in _large_forms(((p, 4), (q, 1)))] == [], (p, q)
            assert calls == [(p, q)]


def test_large_form_5_never_tests_its_condition_elsewhere(monkeypatch):
    # every prime q > p up to p^6, as p^k*q and p^k*q^2 for k != 4, and
    # p^4*q outside p^2 < q < p^3; then one- and three-prime signatures
    calls = _record_l5_calls(monkeypatch, True)
    for p in (2, 3, 5, 7):
        for q in primes_upto(p**6):
            if q <= p:
                continue
            for k in range(1, 9):
                for b in (1, 2):
                    if not (k == 4 and b == 1 and p * p < q < p**3):
                        _large_forms(((p, k), (q, b)))
        for k in range(1, 9):
            _large_forms(((p, k),))
            _large_forms(((p, k), (11, 1), (13, 1)))
    assert calls == []


def test_large_form_5_predicts_the_large_side_in_its_window(monkeypatch):
    # the set is pure divisor order, true whatever the condition decides
    _record_l5_calls(monkeypatch, True)
    for p in (2, 3, 5, 7):
        for q in _l5_window(p):
            n = p**4 * q
            (m,) = [m for m in classify_large(n) if m.form_id == 5]
            assert m.params == {"p": p, "q": q}
            assert m.predicted_set == (p * q, p**4, p * p * q, p**3 * q)
            assert m.predicted_set == profile(n).large_strict, (p, q)


def test_l5_condition_holds_on_these_integers_alone():
    # no prime pair is known to meet it, so the integer points where it
    # holds pin its arithmetic: 8^5 - 181^2 = 7 divides 8^2 + 181 and 8^3 + 181
    held = [(p, q) for p in range(-10, 11) for q in range(-200, 201) if _l5_condition(p, q)]
    assert held == [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1),
                    (1, -2), (1, 0), (1, 1), (8, -181)]


def test_s7_solution_matches_the_square_root_equation():
    # primes or not, and q on both sides of every guard: q^2 = p^3, q = p^2
    found = []
    for p in range(2, 61):
        for q in range(1, p * p + 6):
            sol = _s7_solution(p, q)
            assert sol == s7_solution(p, q), (p, q)
            if sol is not None:
                found.append((p, q, sol))
    assert found == [(2, 3, (5, 2, -1)), (21, 98, (1715, 21, -77))]


def test_small_form_10_needs_the_r_of_the_equation(monkeypatch):
    # (2, 3) is the only pair known to solve the equation, and its window
    # p^2 < r < p*q holds only r = 5, so patched solutions stand in for
    # pairs that would give another r
    assert _small_form_10(2, 3, 5)[0] == 10
    monkeypatch.setattr(classify, "_s7_solution", lambda p, q: (7, 2, -1))
    assert _small_form_10(2, 3, 5) is None
    assert [m[0] for m in _small_forms(((2, 2), (3, 1), (5, 1)))] == []
    # and r must lie above p^2 even when the equation gives it
    monkeypatch.setattr(classify, "_s7_solution", lambda p, q: (11, 5, -2))
    assert _small_form_10(5, 7, 11) is None


def test_soundness_and_predictions_over_range():
    allowed_large_gap = []
    for n, sig in _factor_range(2, 8001):
        f = Factorization(n, sig)
        prof = profile(n, fac=f)
        sm = classify_small(n, fac=f)
        lm = classify_large(n, fac=f)
        sv = small_verdict(n, fac=f)
        lv = large_verdict(n, fac=f)
        # soundness: a match implies the oracle agrees
        if sm:
            assert sv.recurrent, n
        if lm:
            assert lv.recurrent, n
        # completeness, small side: recurrent implies matched
        if sv.recurrent:
            assert sm, n
        # completeness, large side: the p^2*q^2 window is the only gap
        if lv.recurrent and not lm:
            (p, a), (q, b) = f.factors
            assert (a, b) == (2, 2) and q > p * p, n
            allowed_large_gap.append(n)
        for m in (*sm, *lm):
            assert verify_prediction(m, prof), (n, m.form_id)
    assert allowed_large_gap[:4] == [100, 196, 484, 676]
