import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divrec.arith import ContractViolation
from divrec.fit import (
    FitKind,
    brute_force_fit,
    constraints_of,
    solve_constraints,
    solve_fit,
    solutions_in_box,
    verify_params,
)


def test_point_example():
    v = solve_fit([2, 3, 4, 5, 6])
    assert v.kind is FitKind.POINT and v.point == (2, -1)


def test_parity_obstruction():
    assert solve_fit([2, 4, 7]).kind is FitKind.EMPTY


def test_geometric_line():
    v = solve_fit([2, 4, 8, 16])
    assert v.kind is FitKind.LINE
    assert v.line_base == (2, 0)
    assert v.line_dir == (1, -2)


def test_long_empty_example():
    # first constraint gives (1,1)+t(2,-3); the second pins t=-2; the third fails
    assert solve_fit([2, 3, 5, 6, 7, 10, 11, 14, 15]).kind is FitKind.EMPTY


def test_short_sequences_are_vacuous():
    assert solve_fit([7]).kind is FitKind.VACUOUS
    assert solve_fit([]).kind is FitKind.VACUOUS
    assert solve_fit([3, 9]).kind is FitKind.VACUOUS


def test_three_terms_gcd_criterion():
    v = solve_fit([20, 25, 50])
    assert v.kind is FitKind.LINE  # gcd(25,20)=5 divides 50
    assert verify_params([20, 25, 50], *v.line_base)
    assert solve_fit([2, 4, 7]).kind is FitKind.EMPTY  # gcd 2 does not divide 7


def test_contract_violations():
    with pytest.raises(ContractViolation):
        solve_fit([3, 3, 9])
    with pytest.raises(ContractViolation):
        solve_fit([5, 4])
    with pytest.raises(ContractViolation):
        solve_fit([0, 1, 2])
    with pytest.raises(ContractViolation):
        brute_force_fit([1, 2, 3], 0)


def test_verify_params_examples():
    assert verify_params([2, 3, 6, 9], 0, 3)
    assert verify_params([2, 3, 4, 5, 6], 2, -1)
    assert not verify_params([2, 3, 4, 5, 6], 1, 1)
    assert verify_params([7], 123, -456)  # too short to constrain


def test_brute_force_examples():
    assert brute_force_fit([2, 4, 7], 50) == []
    assert brute_force_fit([2, 3, 4, 5, 6], 10) == [(2, -1)]
    assert brute_force_fit([2, 4, 8], 3) == [(1, 2), (2, 0), (3, -2)]


def test_brute_force_no_constraints_returns_grid():
    grid = brute_force_fit([5], 2)
    assert len(grid) == 25
    assert grid[0] == (-2, -2) and grid[-1] == (2, 2)
    assert grid == sorted(grid)


def test_brute_force_huge_values_match_small():
    # scaling a sequence leaves its solution set unchanged; the scaled
    # values need more than 64 bits, so the scan must stay exact
    seq = [2, 3, 4, 5, 6]
    huge = [x << 59 for x in seq]
    assert brute_force_fit(seq, 5) == brute_force_fit(huge, 5) == [(2, -1)]


def test_exhaustive_agreement_small_family():
    bound = 8
    for m in (3, 4, 5):
        for seq in itertools.combinations(range(1, 13), m):
            expected = brute_force_fit(list(seq), bound)
            got = solutions_in_box(solve_fit(list(seq)), bound)
            assert got == expected, seq


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 10**6), min_size=3, max_size=8, unique=True))
def test_random_agreement_with_grid(vals):
    seq = sorted(vals)
    assert solutions_in_box(solve_fit(seq), 7) == brute_force_fit(seq, 7)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 30), st.integers(1, 50), st.integers(3, 8))
def test_geometric_closure(ratio, start, length):
    seq = [start * ratio**i for i in range(length)]
    v = solve_fit(seq)
    assert v.kind is FitKind.LINE
    a0, b0 = v.line_base
    du, dv = v.line_dir
    # the pure-ratio parameters lie on the line
    t = (ratio - a0) // du if du else 0
    assert (a0 + t * du, b0 + t * dv) == (ratio, 0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 5000), min_size=3, max_size=7, unique=True))
def test_membership_soundness(vals):
    seq = sorted(vals)
    for a, b in solutions_in_box(solve_fit(seq), 20):
        assert verify_params(seq, a, b)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 5000), min_size=3, max_size=7, unique=True))
def test_constraint_order_insensitivity(vals):
    seq = sorted(vals)
    cons = constraints_of(seq)
    assert solve_constraints(cons) == solve_constraints(list(reversed(cons)))


def test_line_direction_is_primitive_and_normalized():
    from math import gcd

    for seq in ([2, 4, 8], [3, 9, 27, 81], [20, 25, 50], [7, 14, 21]):
        v = solve_fit(seq)
        assert v.kind is FitKind.LINE
        du, dv = v.line_dir
        assert gcd(abs(du), abs(dv)) == 1
        assert du > 0 or (du == 0 and dv > 0)


def test_solutions_in_box_of_point_outside_box():
    v = solve_fit([1, 100, 10000, 1000000])  # point (100, 0)
    assert v.kind is FitKind.LINE or v.kind is FitKind.POINT
    assert solutions_in_box(v, 5) == []
