import ast
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import sccforge
from sccforge.errors import DomainError, SingularSystemError
from sccforge.linsolve import (
    KvlSystem,
    build_system,
    find_redundant,
    fraction_free_rref,
    kvl_row,
    redundancy_scores,
    solve_unique,
    sort_codes_by_zeros,
    step_up,
)
from sccforge.numrep import CodeSet, SignedDigitCode, TargetRatio, spawn_codes

from golden import (
    DEPENDENT_38_MATRIX,
    DEPENDENT_38_RHS,
    DEPENDENT_38_SCORES,
    DEPENDENT_ROW_ORDER_38,
    ZEROSORT_R2_N3,
)
from oracles import determinant, first_independent_rows, rational_rref

F = Fraction


def codes_of(pairs, radix=2):
    return [SignedDigitCode(a0, digits, radix) for a0, digits in pairs]


def fixture_system_38():
    return build_system(codes_of(DEPENDENT_ROW_ORDER_38))


# -- build_system ----------------------------------------------------------------


def test_kvl_row_examples():
    assert kvl_row(SignedDigitCode(1, (-1, -1, 1))) == ((-1, -1, 1, -1), -1)
    assert kvl_row(SignedDigitCode(0, (0, 1, 1))) == ((0, 1, 1, -1), 0)
    assert kvl_row(SignedDigitCode(1, (-2, 1), radix=3)) == ((-2, 1, -1), -1)


def test_build_system_pins_caller_order():
    system = fixture_system_38()
    assert system.matrix == tuple(tuple(map(F, row)) for row in DEPENDENT_38_MATRIX)
    assert system.rhs == tuple(map(F, DEPENDENT_38_RHS))
    assert system.labels == ("V1", "V2", "V3", "Vo")


def test_build_system_half_ratio_rows():
    system = build_system(spawn_codes(TargetRatio(1, 2, 1)))
    assert system.matrix == ((F(-1), F(-1)), (F(1), F(-1)))
    assert system.rhs == (F(-1), F(0))


def test_build_system_wider_radix_row():
    system = build_system(spawn_codes(TargetRatio(4, 3, 2)))
    assert system.matrix[2] == (F(-2), F(1), F(-1))
    assert system.rhs[2] == F(-1)


def test_build_system_rejects_mixed_codes():
    with pytest.raises(DomainError):
        build_system([SignedDigitCode(0, (1, 0)), SignedDigitCode(0, (1, 0, 0))])
    with pytest.raises(DomainError):
        build_system([SignedDigitCode(0, (1, 0)), SignedDigitCode(0, (1, 0), radix=3)])
    with pytest.raises(DomainError):
        build_system([])


@pytest.mark.parametrize("entry", [F(1, 2), 0.5, F(2)])
def test_system_entries_must_be_ints(entry):
    with pytest.raises(DomainError, match="ints"):
        KvlSystem(((1, entry),), (0,))
    with pytest.raises(DomainError, match="ints"):
        KvlSystem(((1, -1),), (entry,))


@pytest.mark.parametrize(
    "matrix, rhs, text",
    [
        ((), (), "at least one row"),
        (((1,),), (0,), "at least two unknowns"),
        (((1, -1), (1,)), (0, 0), "ragged matrix"),
        (((1, -1),), (0, 0), "right-hand side length"),
    ],
    ids=["no-rows", "one-unknown", "ragged", "rhs-length"],
)
def test_hand_built_system_shape_is_checked(matrix, rhs, text):
    with pytest.raises(DomainError, match=text):
        KvlSystem(matrix, rhs)


@pytest.mark.parametrize("ratio", [TargetRatio(3, 2, 3), TargetRatio(4, 3, 2)])
def test_derived_systems_carry_ints(ratio):
    system = build_system(spawn_codes(ratio))
    for derived in (system, step_up(system)):
        entries = [x for row in (*derived.matrix, derived.rhs) for x in row]
        assert all(type(x) is int for x in entries)


# -- solvability -----------------------------------------------------------------

SINGULAR = re.compile(
    r"system is not uniquely solvable: rank\(A\) = (\d+), rank\(\[A\|b\]\) = (\d+), unknowns = (\d+)"
)


def oracle_ranks(system):
    """(rank(A), rank([A|b]), unknowns) by the rational oracle."""
    augmented = [row + (b,) for row, b in zip(system.matrix, system.rhs)]
    return len(rational_rref(system.matrix)[1]), len(rational_rref(augmented)[1]), system.unknowns


def singular_ranks(system):
    """(rank(A), rank([A|b]), unknowns) as solve_unique's refusal names them."""
    with pytest.raises(SingularSystemError) as err:
        solve_unique(system)
    return tuple(map(int, SINGULAR.fullmatch(str(err.value)).groups()))


def assert_solve_matches_the_oracle(system):
    # unique to the oracle: solve_unique answers, and the answer satisfies A x = b;
    # otherwise it refuses and names the oracle's ranks
    ranks = oracle_ranks(system)
    if ranks == (system.unknowns,) * 3:
        x = solve_unique(system)
        assert [sum(a * v for a, v in zip(row, x)) for row in system.matrix] == list(system.rhs)
    else:
        assert singular_ranks(system) == ranks


def test_full_family_is_uniquely_solvable():
    system = fixture_system_38()
    assert oracle_ranks(system) == (4, 4, 4)
    assert len(solve_unique(system)) == system.unknowns


def test_duplicated_rows_change_nothing():
    codes = codes_of(DEPENDENT_ROW_ORDER_38)
    doubled = build_system(codes + codes[:2])
    assert oracle_ranks(doubled) == (4, 4, 4)
    assert solve_unique(doubled) == solve_unique(fixture_system_38())
    # a repeated row scores exactly 1, so only the family's dependent row is flagged
    assert find_redundant(doubled) == [3]


def test_wider_radix_rank_equals_unknowns():
    system = build_system(spawn_codes(TargetRatio(4, 3, 2)))
    assert oracle_ranks(system) == (3, 3, 3)
    assert len(solve_unique(system)) == system.unknowns


def test_solve_unique_examples():
    assert solve_unique(fixture_system_38()) == (F(1, 2), F(1, 4), F(1, 8), F(3, 8))
    assert solve_unique(build_system(spawn_codes(TargetRatio(4, 3, 2)))) == (
        F(1, 3),
        F(1, 9),
        F(4, 9),
    )
    assert solve_unique(build_system(spawn_codes(TargetRatio(1, 2, 1)))) == (
        F(1, 2),
        F(1, 2),
    )


def test_single_row_is_underdetermined():
    system = build_system(codes_of(DEPENDENT_ROW_ORDER_38)[:1])
    with pytest.raises(SingularSystemError) as err:
        solve_unique(system)
    assert str(err.value) == "system is not uniquely solvable: rank(A) = 1, rank([A|b]) = 1, unknowns = 4"


def test_reducible_ratio_full_width_structure():
    # a family whose value has trailing zero digits never engages the tail,
    # so the full-width system has zero columns and cannot pin them
    for m, n in ((2, 2), (4, 3), (2, 3), (6, 3), (3, 2)):
        radix = 2 if m != 3 else 3
        ratio = TargetRatio(m, radix, n)
        shift = ratio.resolution - ratio.effective_resolution
        if shift == 0:
            continue
        system = build_system(spawn_codes(ratio))
        for col in range(ratio.effective_resolution, ratio.resolution):
            assert all(row[col] == 0 for row in system.matrix)
        rank = ratio.effective_resolution + 1
        assert singular_ranks(system) == oracle_ranks(system) == (rank, rank, ratio.resolution + 1)
    with pytest.raises(SingularSystemError) as err:
        solve_unique(build_system(spawn_codes(TargetRatio(4, 2, 3))))
    assert str(err.value) == "system is not uniquely solvable: rank(A) = 2, rank([A|b]) = 2, unknowns = 4"


def test_reduced_families_solve_exactly():
    for radix, max_n in ((2, 5), (3, 3)):
        for n in range(1, max_n + 1):
            for m in range(1, radix**n):
                ratio = TargetRatio(m, radix, n).reduced()
                solution = solve_unique(build_system(spawn_codes(ratio)))
                expect = tuple(
                    F(1, radix**j) for j in range(1, ratio.resolution + 1)
                ) + (ratio.value,)
                assert solution == expect


@st.composite
def code_subsets(draw):
    radix = draw(st.integers(2, 3))
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, radix**n - 1))
    family = list(spawn_codes(TargetRatio(m, radix, n)))
    mask = draw(st.lists(st.booleans(), min_size=len(family), max_size=len(family)))
    subset = [c for c, keep in zip(family, mask) if keep]
    return subset or [family[0]]


@given(code_subsets())
def test_rank_routes_agree(subset):
    assert_solve_matches_the_oracle(build_system(subset))


# -- elimination kernel against the rational oracle --------------------------------

# small entries make rank deficiency common; 10**30 makes the packed field widths large
entries = st.one_of(st.integers(-6, 6), st.integers(-(10**30), 10**30))


@st.composite
def integer_matrices(draw, min_cols=1, tall=False):
    """Small matrices, often rank-deficient: zero, duplicate and combined rows.

    tall=True always draws more rows than columns, the shape the kernel packs
    by column; the extra rows are the zero, duplicate and combined ones.
    """
    ncols = draw(st.integers(min_cols, 6))
    row = st.lists(entries, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=1, max_size=ncols + 2 if tall else 4))
    extra = max(ncols + 1 - len(rows), 0) if tall else 0
    for kind in draw(st.lists(st.sampled_from(["zero", "copy", "mix"]), min_size=extra, max_size=extra + 4)):
        if kind == "zero":
            rows.append([0] * ncols)
        else:
            a = draw(st.sampled_from(rows))
            b = draw(st.sampled_from(rows))
            k = draw(st.integers(-2, 2)) if kind == "mix" else 0
            rows.append([x + k * y for x, y in zip(a, b)])
    return draw(st.permutations(rows))


def test_kernel_on_a_known_matrix():
    m, pivots, d = fraction_free_rref([[0, 2, 4], [1, 2, 0], [1, 4, 4]])
    assert pivots == [0, 1]
    assert [[F(x, d) for x in row] for row in m] == [[1, 0, -4], [0, 1, 2], [0, 0, 0]]


def sylvester_hadamard(order):
    h = [[1]]
    while len(h) < order:
        h = [row + row for row in h] + [row + [-x for x in row] for row in h]
    return h


@pytest.mark.parametrize("form", ["H", "[H | I]"])
def test_kernel_at_the_hadamard_bound(form):
    # det H_8 = 8**4 = 4096 is exactly Hadamard's bound r**(r/2) * max|a|**r,
    # the largest entry a packed field must hold, and d is that determinant;
    # m / d alone cannot tell +4096 from a field that wrapped to -4096
    rows = sylvester_hadamard(8)
    if form == "[H | I]":
        rows = [row + [int(i == j) for j in range(8)] for i, row in enumerate(rows)]
    m, pivots, d = fraction_free_rref(rows)
    reduced, oracle_pivots = rational_rref(rows)
    assert d == 4096
    assert pivots == oracle_pivots == list(range(8))
    assert [[F(x, d) for x in row] for row in m] == reduced


def names_in(path: Path):
    """Every imported, loaded or attribute name in a module's source."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_only_linsolve_names_the_kernel():
    # one exact elimination kernel, called from its own module only
    sources = sorted(Path(sccforge.__file__).parent.glob("*.py"))
    users = [path.stem for path in sources if "fraction_free_rref" in set(names_in(path))]
    assert users == ["linsolve"]


def test_only_req_multi_calls_coth():
    # one resistance model: every schedule, the two-phase follower too, is priced by req_multi
    callers = []
    for path in sorted(Path(sccforge.__file__).parent.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(func, ast.FunctionDef):
                continue
            callees = [node.func for node in ast.walk(func) if isinstance(node, ast.Call)]
            if any("_coth" in (getattr(f, "id", None), getattr(f, "attr", None)) for f in callees):
                callers.append(f"{path.stem}.{func.name}")
    assert callers == ["lossmodel.req_multi"]


def test_only_linsolve_decides_the_balance():
    # the no-balance verdict is written once, where the tableau is eliminated
    sources = sorted(Path(sccforge.__file__).parent.glob("*.py"))
    deciders = [path.stem for path in sources if "no current assignment balances" in path.read_text()]
    assert deciders == ["linsolve"]


@pytest.mark.parametrize(
    "rows, what",
    [
        ([], "empty"),
        ([[]], "empty"),
        ([[1], [3, 4]], "ragged"),
        ([[1, 2], [3]], "ragged"),
        ([[], [], []], "empty"),
        ([[1], [2], [3, 4]], "ragged"),
        ([[1, 2], [3], [4], [5]], "ragged"),
    ],
    ids=["[]", "[[]]", "[[1], [3, 4]]", "[[1, 2], [3]]", "[[], [], []]", "[[1], [2], [3, 4]]", "[[1, 2], [3], [4], [5]]"],
)
def test_kernel_rejects_empty_and_ragged_matrices(rows, what):
    with pytest.raises(DomainError, match=what):
        fraction_free_rref(rows)


@given(integer_matrices(), st.data())
def test_kernel_matches_the_rational_oracle(rows, data):
    # m holds the columns from first_column on, the only ones _basic reads
    first_column = data.draw(st.integers(0, len(rows[0]) - 1), label="first_column")
    m, pivots, d = fraction_free_rref(rows, first_column)
    reduced, oracle_pivots = rational_rref(rows)
    assert all(isinstance(x, int) for row in m for x in row)
    assert [[F(x, d) for x in row] for row in m] == [row[first_column:] for row in reduced]
    assert pivots == oracle_pivots


@given(integer_matrices(tall=True))
def test_kernel_matches_the_rational_oracle_on_tall_matrices(rows):
    assert len(rows) > len(rows[0])
    assert_kernel_matches_the_oracle(rows)


def assert_kernel_matches_the_oracle(rows):
    """fraction_free_rref against rational_rref, from the first, a middle and the last column."""
    reduced, oracle_pivots = rational_rref(rows)
    ncols = len(rows[0])
    for first_column in (0, ncols // 2, ncols - 1):
        m, pivots, d = fraction_free_rref(rows, first_column)
        assert pivots == oracle_pivots
        assert [[F(x, d) for x in row] for row in m] == [row[first_column:] for row in reduced]


# A single row needs fields of bits(max|a|) + 1 bits: max|a| = 2**(8j - 1) - 1
# fills j bytes and 2**(8j - 1) needs one bit more. So j = 1, 2, 4, 8 fill each
# machine-int width and step to the next, or past 8 bytes to int.to_bytes;
# j = 3 rounds up to 4 bytes from both sides.
@pytest.mark.parametrize("sign", [1, -1], ids=["+", "-"])
@pytest.mark.parametrize("big", [2 ** (8 * j - 1) + e for j in (1, 2, 3, 4, 8) for e in (-1, 0)])
def test_kernel_row_at_each_field_width(big, sign):
    a = sign * big
    assert_kernel_matches_the_oracle([[0, a, -a, a // 3, -1, 1, 0]])


# Two rows [[v, v, 1], [-v, v, -1]] have determinant 2 v**2, their Hadamard
# bound: v = 2**(4w - 1) - 1 fills fields of w bytes exactly and one more
# steps to the next width.
@pytest.mark.parametrize("big", [2 ** (4 * w - 1) + e for w in (1, 2, 4, 8) for e in (-1, 0)])
def test_kernel_matrix_at_each_field_width(big):
    assert_kernel_matches_the_oracle([[big, big, 1], [-big, big, -1]])


@pytest.mark.parametrize("rows", [[[0, 0, 0]], [[1, 2, 3], [0, 0, 0], [2, 4, 5]]], ids=["alone", "between"])
def test_kernel_keeps_an_all_zero_row(rows):
    assert_kernel_matches_the_oracle(rows)


# The full families' loop systems are tall (F codes, n + 2 columns): the
# kernel eliminates them column by column.
@pytest.mark.parametrize("form", ["loop", "step_up"])
@pytest.mark.parametrize("ratio", [TargetRatio(85, 2, 8), TargetRatio(341, 2, 10)], ids=str)
def test_kernel_on_full_family_systems(ratio, form):
    system = build_system(spawn_codes(ratio))
    if form == "step_up":
        system = step_up(system)
    rows = [[*row, b] for row, b in zip(system.matrix, system.rhs)]
    assert len(rows) > len(rows[0])
    assert_kernel_matches_the_oracle(rows)


def test_tall_kernel_swaps_rows_with_wide_fields():
    # a = 10**25 needs fields of 32 bytes, past the machine ints. The pivots of
    # columns 0 and 1 lie below the first free row, so both swap rows in every
    # column from theirs on; column 3 = 2 c0 - c1 + 3 c2 is the part of the
    # reduced form that a swap missed in any column would change.
    a = 10**25
    rows = [[x, y, z, 2 * x - y + 3 * z] for x, y, z in
            [(0, 0, 1), (0, 0, -a), (a, 3, 2), (-a, a, 0), (0, -1, a), (0, 0, 5)]]
    assert_kernel_matches_the_oracle(rows)
    m, pivots, d = fraction_free_rref(rows)
    assert pivots == [0, 1, 2]
    assert [row[3] for row in m[:3]] == [2 * d, -d, 3 * d]


def assert_tall_pivot_rows_are_the_first_independent_rows(rows):
    """The pivot rows G of a tall matrix are its first rows independent of the rows before them,
    and |d| is |det| of rows G at the pivot columns."""
    m, pivots, d = fraction_free_rref(rows)
    assert pivots == rational_rref(rows)[1]
    lead = first_independent_rows(rows)
    assert abs(d) == abs(determinant([[rows[i][j] for j in pivots] for i in lead]))


@given(integer_matrices(tall=True))
def test_tall_pivot_rows_are_the_first_independent_rows(rows):
    assert_tall_pivot_rows_are_the_first_independent_rows(rows)


def test_tall_pivot_rows_of_seeded_matrices_with_multiples():
    # zero-rich rows and multiples of earlier rows: a row that moved would
    # land after a multiple of itself and let the multiple pivot instead
    rng = random.Random(7)
    for _ in range(300):
        ncols = rng.randint(2, 4)
        rows = []
        for _ in range(rng.randint(ncols + 1, ncols + 3)):
            if rows and rng.random() < 0.4:
                rows.append([rng.choice((-2, -1, 2)) * x for x in rng.choice(rows)])
            else:
                rows.append([rng.choice((0, 0, -2, -1, 1, 2)) for _ in range(ncols)])
        assert_tall_pivot_rows_are_the_first_independent_rows(rows)


def test_tall_pivot_row_never_follows_a_row_it_depends_on():
    # row 1 is -2 x row 0; row 2 pivots column 0, and column 1 pivots on row 0:
    # |d| = |det [[0, -1], [1, 2]]| = 1
    rows = [[0, -1], [0, 2], [1, 2]]
    assert first_independent_rows(rows) == [0, 2]
    assert_tall_pivot_rows_are_the_first_independent_rows(rows)
    assert abs(fraction_free_rref(rows)[2]) == 1


@pytest.mark.parametrize("form", ["loop", "step_up"])
@pytest.mark.parametrize("ratio", [TargetRatio(85, 2, 8), TargetRatio(341, 2, 10)], ids=str)
def test_tall_pivot_rows_of_full_family_systems(ratio, form):
    system = build_system(spawn_codes(ratio))
    if form == "step_up":
        system = step_up(system)
    assert_tall_pivot_rows_are_the_first_independent_rows([[*row, b] for row, b in zip(system.matrix, system.rhs)])


@given(integer_matrices(min_cols=3))
def test_solvability_ranks_match_the_oracle(rows):
    assert_solve_matches_the_oracle(KvlSystem(tuple(r[:-1] for r in rows), tuple(r[-1] for r in rows)))


# -- redundancy -------------------------------------------------------------------


def test_scores_and_redundant_row_in_measurement_order():
    system = fixture_system_38()
    assert redundancy_scores(system) == DEPENDENT_38_SCORES
    assert find_redundant(system) == [3]


def test_redundant_row_in_canonical_and_sorted_order():
    family = spawn_codes(TargetRatio(3, 2, 3))
    assert find_redundant(build_system(family)) == [3]
    assert find_redundant(build_system(sort_codes_by_zeros(family))) == [4]


def test_square_full_rank_has_no_redundancy():
    system = build_system(spawn_codes(TargetRatio(1, 2, 3)))
    assert system.rows == 4
    assert find_redundant(system) == []


def sorted_families():
    return st.sampled_from(
        [(m, radix, n) for radix, top in ((2, 6), (3, 3)) for n in range(1, top + 1) for m in range(1, radix**n)]
    ).map(lambda key: sort_codes_by_zeros(spawn_codes(TargetRatio(*key))))


@given(st.one_of(code_subsets(), sorted_families()))
def test_redundant_rows_are_the_scores_above_one(codes):
    system = build_system(codes)
    scores = redundancy_scores(system)
    assert find_redundant(system) == [i for i, s in enumerate(scores) if s > 1]


def test_elimination_preserves_the_solution():
    for m in range(1, 8):
        ratio = TargetRatio(m, 2, 3).reduced()
        ordered = sort_codes_by_zeros(spawn_codes(ratio))
        system = build_system(ordered)
        before = solve_unique(system)
        drop = find_redundant(system)
        trimmed = build_system([c for i, c in enumerate(ordered) if i not in drop])
        assert solve_unique(trimmed) == before
        assert find_redundant(trimmed) == []


# -- ordering ---------------------------------------------------------------------


def test_zero_sort_matches_reference_orders():
    for m, rows in ZEROSORT_R2_N3.items():
        ordered = sort_codes_by_zeros(spawn_codes(TargetRatio(m, 2, 3)))
        assert tuple((c.a0, c.digits) for c in ordered) == rows


def test_zero_sort_is_stable():
    codes = codes_of(DEPENDENT_ROW_ORDER_38)
    ordered = sort_codes_by_zeros(codes)
    # ties (same zero count) must keep their input order
    zeros = [c.zero_count for c in ordered]
    assert zeros == sorted(zeros, reverse=True)
    singles = [c for c in ordered if c.zero_count == 1]
    infile = [c for c in codes if c.zero_count == 1]
    assert singles == infile


# -- step-up ----------------------------------------------------------------------


def test_step_up_solutions():
    assert solve_unique(step_up(fixture_system_38())) == (
        F(4, 3),
        F(2, 3),
        F(1, 3),
        F(8, 3),
    )
    assert solve_unique(step_up(build_system(spawn_codes(TargetRatio(4, 3, 2))))) == (
        F(3, 4),
        F(1, 4),
        F(9, 4),
    )


def test_step_up_row_shape():
    system = step_up(fixture_system_38())
    assert system.matrix[0] == (F(-1), F(-1), F(1), F(1))
    assert all(b == 1 for b in system.rhs)


@given(st.integers(1, 5), st.integers(1, 31))
def test_step_up_is_reciprocal(n, m_raw):
    m = m_raw % (2**n - 1) + 1 if 2**n - 1 > 0 else 1
    ratio = TargetRatio(m, 2, n).reduced()
    system = build_system(spawn_codes(ratio))
    down = solve_unique(system)
    up = solve_unique(step_up(system))
    assert up[-1] == 1 / down[-1]
    for j in range(len(down) - 1):
        assert up[j] == down[j] / down[-1]


def test_step_up_needs_loop_rows():
    assert step_up(KvlSystem(((1, -1),), (0,))) == KvlSystem(((1, 0),), (1,))
    with pytest.raises(DomainError, match="loop rows"):
        step_up(KvlSystem(((1, 1),), (0,)))


# -- exports ----------------------------------------------------------------------


def test_generated_objects_pass_their_constructors():
    # spawn_codes, build_system and step_up skip the constructors' checks; rebuilding
    # each result through the checked constructors must give it back unchanged
    for radix, max_n in ((2, 10), (3, 5)):
        for n in range(1, max_n + 1):
            for m in range(1, radix**n):
                family = spawn_codes(TargetRatio(m, radix, n))
                codes = tuple(SignedDigitCode(c.a0, c.digits, c.radix) for c in family)
                assert CodeSet(family.ratio, codes).codes == codes == family.codes
                assert all(type(x) is int for c in family for x in (c.a0, *c.digits))
                up = step_up(build_system(family))
                assert up.matrix == tuple((*c.digits, c.a0) for c in family)
                assert up.rhs == (1,) * len(family)
                for system in (build_system(family), up):
                    assert KvlSystem(system.matrix, system.rhs) == system
