import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divrec import fit
from divrec.arith import ContractViolation
from divrec.fit import (
    _GRID_MAX,
    FitKind,
    FitVerdict,
    _fit,
    _grid,
    _solution,
    brute_force_fit,
    constraints_of,
    solve_fit,
    solutions_in_box,
    verify_params,
)
from divrec.oracle import canonical_witness
from references import (
    box_points,
    brute_force_fit_points,
    profiles_in_range,
    solutions_in_box_points,
    solve_constraints_eager,
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
    # at bounds 1 and 40 the ends of a line's t window land on the box edges
    for bound in (1, 8, 40):
        for m in (3, 4, 5):
            for seq in itertools.combinations(range(1, 13), m):
                expected = brute_force_fit(list(seq), bound)
                got = solutions_in_box(solve_fit(list(seq)), bound)
                assert got == expected, (seq, bound)


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
    assert solve_constraints_eager(constraints_of(seq)[::-1]) == solve_fit(seq)


def test_line_direction_is_primitive_and_normalized():
    from math import gcd

    for seq in ([2, 4, 8], [3, 9, 27, 81], [20, 25, 50], [7, 14, 21]):
        v = solve_fit(seq)
        assert v.kind is FitKind.LINE
        du, dv = v.line_dir
        assert gcd(du, dv) == 1
        assert du > 0 > dv  # the only direction solutions_in_box takes


@pytest.mark.parametrize("direction", [(0, 1), (0, -1), (1, 0), (-2, 3), (2, 1)])
def test_solutions_in_box_refuses_a_line_solve_fit_cannot_make(direction):
    v = FitVerdict(FitKind.LINE, line_base=(0, 0), line_dir=direction)
    with pytest.raises(ContractViolation):
        solutions_in_box(v, 5)
    with pytest.raises(ContractViolation):
        canonical_witness(v)


def test_solutions_in_box_of_point_outside_box():
    v = solve_fit([1, 100, 10000, 1000000])  # point (100, 0)
    assert v.kind is FitKind.LINE or v.kind is FitKind.POINT
    assert solutions_in_box(v, 5) == []


# bounds on both sides of _GRID_MAX, where the answers stop being grid slices
_DIFF_BOUNDS = (1, 2, 7, 40, 50, _GRID_MAX, _GRID_MAX + 1)


def _assert_matches_per_point_references(seqs, bound):
    for seq, v in seqs:
        got = brute_force_fit(seq, bound)
        assert got == brute_force_fit_points(seq, bound), (seq, bound)
        assert solutions_in_box(v, bound) == got == solutions_in_box_points(v, bound), (
            seq, bound)


def _seeded_slice(count=2_000):
    """Sequences shaped like the benchmark's random ones: lengths 3 to 9,
    distinct entries up to 10^5."""
    rng = random.Random(30)
    return [sorted(rng.sample(range(1, 100_001), rng.randint(3, 9))) for _ in range(count)]


# several passing residue classes, whose hits interleave
_MANY_CLASSES = {(2, 4, 6): 2, (6, 12, 18): 6, (4, 6, 10, 16): 2, (3, 6, 9, 12, 15): 3}
# points that pass the first two rows and fail a later one
_LATE_MISSES = ([3, 6, 9, 12, 16], [1, 2, 4, 8, 17], [1, 2, 3, 5, 8, 14])


def test_grid_answers_match_per_point_references():
    # bounds in the outer loop: _grid caches one bound at a time
    seqs = [(list(s), solve_fit(list(s)))
            for m in range(7) for s in itertools.combinations(range(1, 16), m)]
    vacuous = [(s, v) for s, v in seqs if len(s) <= 2]
    seqs += [(list(s), solve_fit(list(s)))
             for s in [*_seeded_slice(), *_MANY_CLASSES, *_LATE_MISSES]]
    for bound in _DIFF_BOUNDS:
        box = brute_force_fit([], bound)
        assert box == box_points(bound)
        for s, v in vacuous:  # == box compares the grid's own tuples by identity
            assert brute_force_fit(s, bound) == box == solutions_in_box(v, bound), (s, bound)
        _assert_matches_per_point_references(seqs[len(vacuous):], bound)


@settings(max_examples=300, deadline=None)
@given(_grid_cases(), st.sampled_from(_DIFF_BOUNDS))
def test_grid_answers_match_per_point_references_on_random_sequences(case, bound):
    _assert_matches_per_point_references([(case[0], solve_fit(case[0]))], bound)


def test_grid_oracle_cases_and_three_term_lines_above_the_grid_limit():
    for seq, classes in _MANY_CLASSES.items():
        e1, e2, e3 = seq[:3]
        assert sum((e3 - e2 * a) % e1 == 0 for a in range(e1)) == classes
    # six classes interleave into one column per a
    assert [a for a, _ in brute_force_fit([6, 12, 18], 50)] == list(range(-23, 27))
    for seq in _LATE_MISSES:
        assert any(verify_params(seq[:4], a, b) for a, b in box_points(5))
        assert brute_force_fit(seq, 5) == []
    # three-term lines, one class or several, as per-point answers
    for seq in itertools.combinations(range(1, 16), 3):
        assert brute_force_fit(list(seq), 300) == brute_force_fit_points(seq, 300), seq


def test_grid_oracle_reads_no_solver(monkeypatch):
    # the oracle decides each point from the raw rows: with the gcd and both
    # solver cores gone it still gives the per-point answers
    seeded = _seeded_slice()
    three_terms = [list(s) for s in itertools.combinations(range(1, 16), 3)]

    def refused(*args):
        raise AssertionError("the grid oracle called the solver")

    for name in ("gcd", "_solution", "_fit"):
        monkeypatch.setattr(fit, name, refused)
    for bound in _DIFF_BOUNDS:
        for seq in three_terms + seeded:
            assert brute_force_fit(seq, bound) == brute_force_fit_points(seq, bound), (
                seq, bound)
    with pytest.raises(AssertionError):
        solve_fit([1, 2, 3])


def test_line_above_the_grid_limit_builds_no_grid():
    before = _grid.cache_info()
    for seq in ([1, 2, 3], [1, 2, 4], [3, 5, 12]):
        v = solve_fit(seq)
        assert v.kind is FitKind.LINE
        got = solutions_in_box(v, 10**5)
        assert len(got) > 1000 and got == solutions_in_box_points(v, 10**5)
    assert _grid.cache_info() == before


@pytest.mark.parametrize("bound", [1, 50, _GRID_MAX])
def test_both_answers_hand_out_the_grids_own_tuples(bound):
    w = 2 * bound + 1
    seqs = [[1, 2, 3], [1, 2, 4], [2, 4, 8, 16], [2, 3, 4, 5, 6], [5], [3, 4, 5], [2, 4, 6]]
    seqs += [list(s) for s in itertools.combinations(range(1, 13), 3)]
    for seq in seqs:
        box = solutions_in_box(solve_fit(seq), bound)
        hits = brute_force_fit(seq, bound)
        grid = _grid(bound)  # after both calls, so a call that built its own grid fails
        assert len(box) == len(hits)
        for p, q in zip(box, hits):
            assert p is q is grid[(p[0] + bound) * w + p[1] + bound], (seq, bound)


@pytest.mark.parametrize("seq", [[7], [1, 2, 3], [2, 4, 8]])
@pytest.mark.parametrize("bound", [3, 50, _GRID_MAX + 1])
def test_changing_an_answer_leaves_later_answers_alone(seq, bound):
    # a vacuous box, a line slice, and the column slices of a three-term line
    expected = brute_force_fit_points(seq, bound)
    answers = (lambda: brute_force_fit(seq, bound),
               lambda: solutions_in_box(solve_fit(seq), bound))
    for answer in answers:
        for change in (lambda got: got.append((0, 0)),
                       lambda got: got.__setitem__(0, (bound + 1, 0)),
                       lambda got: got.sort(reverse=True)):
            got = answer()
            assert len(got) > 1
            change(got)
            assert [later() for later in answers] == [expected, expected]


@pytest.mark.parametrize("bound", [2.5, 2.0, "3", None, True, 0, -1])
@pytest.mark.parametrize("seq", [[1, 2, 3], [1, 2, 4], [2, 3, 4, 5, 6], [2, 4, 7], [5]])
def test_bound_must_be_a_positive_int(seq, bound):
    # a line, a geometric line, a point, an empty set and a vacuous box
    with pytest.raises(ContractViolation):
        brute_force_fit(seq, bound)
    with pytest.raises(ContractViolation):
        solutions_in_box(solve_fit(seq), bound)


@st.composite
def recurrence_sequences(draw):
    """A strictly increasing positive sequence from two seeds and a small
    (a, b), cut where it stops increasing, with at most one term moved
    within the gap its neighbours leave."""
    e1 = draw(st.integers(1, 40))
    seq = [e1, draw(st.integers(e1 + 1, 80))]
    a, b = draw(st.integers(-3, 6)), draw(st.integers(-6, 6))
    for _ in range(draw(st.integers(0, 5))):
        nxt = a * seq[-1] + b * seq[-2]
        if nxt <= seq[-1]:
            break
        seq.append(nxt)
    i = draw(st.integers(0, len(seq)))  # i == len(seq): no term moves
    if i < len(seq):
        lo = seq[i - 1] + 1 if i else 1
        hi = seq[i + 1] - 1 if i + 1 < len(seq) else seq[i] + 9
        seq[i] = draw(st.integers(lo, hi))
    return seq


def test_lazy_solver_matches_eager_reference():
    kinds = set()

    @settings(max_examples=500, deadline=None)
    @given(recurrence_sequences())
    def check(seq):
        v = _fit(seq)
        assert v == solve_constraints_eager(constraints_of(seq))
        assert _solution(seq)[0] is v.kind
        kinds.add(v.kind)

    check()
    assert kinds == set(FitKind)


class _ReadOnlyHead:
    """A sequence whose terms past ``head`` raise when read.  Its slices
    and its iterator are lazy maps, so a zip of them reads a term only
    when the row that holds it is read."""

    def __init__(self, head, more):
        self.head, self.len = head, len(head) + more

    def __len__(self):
        return self.len

    def __getitem__(self, cut):
        return map(self._term, range(self.len)[cut])

    def __iter__(self):
        return self[:]

    def _term(self, i):
        if i >= len(self.head):
            raise AssertionError("read past the first contradiction")
        return self.head[i]


@pytest.mark.parametrize("rows", [
    constraints_of([2, 4, 7]),  # parity: 4a + 2b is even
    constraints_of([3, 6, 10]),  # 6a + 3b is a multiple of 3
    constraints_of([2, 4, 8, 15]),  # proportional coefficients, but 4*15 != 8*8
    constraints_of([2, 3, 5, 6, 7]),  # a line, a point, then a miss
    constraints_of([2, 4, 6, 7]),  # Cramer's rule gives a = 10/4
    constraints_of([1, 2, 3, 5, 9]),  # the point (1, 1) misses row three
    constraints_of([1, 2, 4, 8, 17]),  # two proportional rows, then 17 != 2 * 8
])
def test_solver_stops_at_first_contradiction(rows):
    # the rows read up to the contradiction; the sequence goes on past them
    head = [rows[0][1], *(ca for ca, _, _ in rows), rows[-1][2]]
    assert solve_fit(head).kind is FitKind.EMPTY
    for more in (1, 3):
        seq = _ReadOnlyHead(head, more)
        assert _solution(seq) == (FitKind.EMPTY,)
        assert _fit(seq).kind is FitKind.EMPTY


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
