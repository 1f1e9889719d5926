import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divrec.arith import ContractViolation
from divrec.fit import (
    FitKind,
    FitVerdict,
    _as_verdict,
    _fit,
    _solution,
    _solve,
    brute_force_fit,
    constraints_of,
    solve_fit,
    solutions_in_box,
    verify_params,
)
from references import profiles_in_range


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


def brute_force_fit_columns(seq, bound):
    """Reference: the column scan over all 2*bound + 1 values of a, each
    checked with divmod for an integer b in the box."""
    (ca, cb, rhs), *rest = constraints_of(seq)
    hits = []
    for a in range(-bound, bound + 1):
        b, rem = divmod(rhs - ca * a, cb)
        if rem == 0 and -bound <= b <= bound and all(
            x * a + y * b == z for x, y, z in rest
        ):
            hits.append((a, b))
    return hits


def grid_filter(seq, bound):
    """Reference: every point of the box, kept if it obeys every triple."""
    vals = range(-bound, bound + 1)
    return [
        (a, b) for a, b in itertools.product(vals, vals)
        if all(seq[i + 2] == a * seq[i + 1] + b * seq[i] for i in range(len(seq) - 2))
    ]


def _assert_grid_scans_agree(seqs, bounds):
    """brute_force_fit equals both references; returns the number of hits."""
    hits = 0
    for seq in seqs:
        for bound in bounds:
            got = brute_force_fit(seq, bound)
            assert got == brute_force_fit_columns(seq, bound) == grid_filter(seq, bound), (
                seq, bound)
            hits += len(got)
    return hits


def test_grid_scan_matches_references_on_small_triples():
    triples = [list(t) for t in itertools.combinations(range(1, 16), 3)]
    assert _assert_grid_scans_agree(triples, range(1, 9)) > 1000


def test_grid_scan_when_first_term_exceeds_the_column_count():
    # e1 > 2*bound + 1: the window holds at most one column per residue
    # class mod e1; e3 = a*e2 + b*e1 (or one off it) for (a, b) in the box
    hits = 0
    for bound in (1, 2, 3, 5):
        seqs = set()
        for e1 in range(2 * bound + 2, 2 * bound + 6):
            for e2 in (e1 + 1, e1 + 2, 2 * e1, 3 * e1 - 1):
                for a in range(-bound, bound + 1):
                    for b in range(-bound, bound + 1):
                        seq = [e1, e2]
                        while len(seq) < 5 and a * seq[-1] + b * seq[-2] > seq[-1]:
                            seq.append(a * seq[-1] + b * seq[-2])
                        if len(seq) >= 3:
                            seqs.add(tuple(seq))
                            seqs.add((e1, e2, seq[2] + 1))
        hits += _assert_grid_scans_agree([list(t) for t in sorted(seqs)], [bound])
    assert hits > 100


def test_grid_scan_on_lines():
    # geometric sequences and three-term ones: the solution set is a line
    geometric = [
        [start * ratio**i for i in range(length)]
        for ratio in range(2, 10) for start in (1, 2, 3, 7) for length in (3, 4, 6)
    ]
    three_terms = [[e1, e2, e3] for e1 in (1, 2, 3) for e2 in (e1 + 1, 5) if e2 > e1
                   for e3 in range(e2 + 1, 41)]
    assert _assert_grid_scans_agree(geometric + three_terms, (1, 2, 5, 12)) > 1000
    assert brute_force_fit([1, 2, 3], 3) == [(0, 3), (1, 1), (2, -1), (3, -3)]


@st.composite
def _grid_cases(draw):
    bound = draw(st.integers(1, 60))
    if draw(st.booleans()):
        vals = draw(st.lists(st.integers(1, 10**12), min_size=3, max_size=7, unique=True))
        return sorted(vals), bound
    # built by a recurrence, so the scan has hits to find
    e1 = draw(st.integers(1, 10**6))
    seq = [e1, e1 + draw(st.integers(1, 10**6))]
    a, b = draw(st.integers(-60, 60)), draw(st.integers(-60, 60))
    length = draw(st.integers(3, 7))
    while len(seq) < length and seq[-1] < a * seq[-1] + b * seq[-2] <= 10**12:
        seq.append(a * seq[-1] + b * seq[-2])
    if len(seq) < 3:
        seq.append(seq[-1] + draw(st.integers(1, 10**6)))
    return seq, bound


@settings(max_examples=300, deadline=None)
@given(_grid_cases())
def test_grid_scan_matches_column_scan(case):
    seq, bound = case
    assert brute_force_fit(seq, bound) == brute_force_fit_columns(seq, bound)


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
    assert _as_verdict(_solve(cons)) == _as_verdict(_solve(list(reversed(cons))))


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


def _ext_gcd(a, b):
    """(g, x, y) with a*x + b*y = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _canonical_base(a0, b0, du, dv):
    # Slide along the direction until the coordinate with nonzero step is
    # reduced into [0, step).
    if dv != 0:
        step = abs(dv)
        t = ((b0 % step) - b0) // dv
    else:
        step = abs(du)
        t = ((a0 % step) - a0) // du
    return a0 + t * du, b0 + t * dv


def solve_constraints_eager(constraints):
    """Reference: the solver that first copies every row with a nonzero
    coefficient into a list, failing on any 0 = rhs != 0 row, then takes
    the first row's line from the extended gcd and pins its parameter with
    the next row that is not parallel to it.  It shares no code with the
    package's Cramer's-rule solver."""
    live = []
    for ca, cb, rhs in constraints:
        if ca == 0 and cb == 0:
            if rhs != 0:
                return FitVerdict(FitKind.EMPTY)
            continue
        live.append((ca, cb, rhs))
    if not live:
        return FitVerdict(FitKind.VACUOUS)
    ca, cb, rhs = live[0]
    g, x, y = _ext_gcd(ca, cb)
    if rhs % g:
        return FitVerdict(FitKind.EMPTY)
    a0, b0 = x * (rhs // g), y * (rhs // g)
    du, dv = cb // g, -(ca // g)
    if du < 0 or (du == 0 and dv < 0):
        du, dv = -du, -dv
    t_pin = None
    for ca, cb, rhs in live[1:]:
        if t_pin is None:
            coeff = ca * du + cb * dv
            rem = rhs - (ca * a0 + cb * b0)
            if coeff == 0:
                if rem != 0:
                    return FitVerdict(FitKind.EMPTY)
            elif rem % coeff:
                return FitVerdict(FitKind.EMPTY)
            else:
                t_pin = rem // coeff
        elif ca * (a0 + t_pin * du) + cb * (b0 + t_pin * dv) != rhs:
            return FitVerdict(FitKind.EMPTY)
    if t_pin is not None:
        return FitVerdict(FitKind.POINT, point=(a0 + t_pin * du, b0 + t_pin * dv))
    return FitVerdict(
        FitKind.LINE, line_base=_canonical_base(a0, b0, du, dv), line_dir=(du, dv)
    )


@settings(max_examples=500, deadline=None)
@given(
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
    st.lists(
        st.tuples(st.integers(-30, 30), st.integers(-30, 30), st.sampled_from([0, 0, 0, 1, -2])),
        max_size=6,
    ),
    st.lists(st.sampled_from([0, 0, 1]), max_size=3),
    st.lists(st.sampled_from([0, 0, -1]), max_size=3),
)
def test_lazy_solver_matches_eager_reference(ab, rows, zeros_before, zeros_after):
    # rows mostly consistent with (a, b), so points and lines occur too;
    # rows 0*a + 0*b = r go before and after the first row
    a, b = ab
    cons = [(ca, cb, ca * a + cb * b + err) for ca, cb, err in rows]
    cons = (
        [(0, 0, r) for r in zeros_before]
        + cons[:1]
        + [(0, 0, r) for r in zeros_after]
        + cons[1:]
    )
    expected = solve_constraints_eager(cons)
    assert _as_verdict(_solve(iter(cons))) == _as_verdict(_solve(cons)) == expected


@pytest.mark.parametrize("rows", [
    [(0, 0, 0), (0, 0, 1)],  # 0 = 1 before any line
    [(4, 2, 7)],  # parity: 4a + 2b is even
    [(3, 2, 5), (0, 0, 0), (0, 0, 2)],  # 0 = 2 on the line
    constraints_of([2, 3, 5, 6, 7, 10, 11, 14, 15])[:3],  # a line, a point, then a miss
    [(1, 0, 0), (1, 2, 1)],  # Cramer's rule gives b = 1/2
    [(1, 0, 1), (0, 1, 2), (1, 1, 4)],  # the point (1, 2) misses row three
    [(2, 4, 6), (1, 2, 4)],  # proportional coefficients, but 4 != 6 / 2
])
def test_solver_stops_at_first_contradiction(rows):
    def feed():
        yield from rows
        raise AssertionError("read past the first contradiction")

    assert _as_verdict(_solve(feed())).kind is FitKind.EMPTY


def _divisor_sets():
    for lo, hi in ((2, 3 * 10**4 - 1), (10**12, 10**12 + 1_999), (2**62 - 300, 2**62)):
        for prof in profiles_in_range(lo, hi):
            yield prof.small_strict
            yield prof.large_strict


def test_fit_matches_eager_reference_on_divisor_sets():
    # the oracle's unchecked fit, and the plain kind validate reads, against
    # the extended-gcd reference on every strict divisor set of three ranges
    kinds = set()
    for s in _divisor_sets():
        v = _fit(s)
        assert v == solve_constraints_eager(constraints_of(s)), s
        assert _solution(s)[0] is v.kind
        kinds.add(v.kind)
    assert kinds == set(FitKind)
