import hashlib
import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sccforge.errors import DomainError, ResourceLimitError
from sccforge.numrep import (
    CodeSet,
    SignedDigitCode,
    TargetRatio,
    balanced_sequence,
    conventional_code,
    enumerate_codes,
    spawn_codes,
)

from golden import (
    BALANCED_DIGEST_N1_7,
    BALANCED_TABLE_N3,
    CODE_FAMILY_R2_N3,
    CODE_FAMILY_R3_N2,
)
from oracles import matched_cells_by_scan


def as_pairs(codes):
    return tuple((c.a0, c.digits) for c in codes)


@st.composite
def target_ratios(draw, max_radix=4, max_resolution=5):
    radix = draw(st.integers(2, max_radix))
    resolution = draw(st.integers(1, max_resolution))
    m = draw(st.integers(1, radix**resolution - 1))
    return TargetRatio(m, radix, resolution)


# -- TargetRatio ---------------------------------------------------------------


def test_ratio_value_and_str():
    r = TargetRatio(3, 2, 3)
    assert r.value == Fraction(3, 8)
    assert str(r) == "3/8"


@pytest.mark.parametrize(
    "m, radix, resolution",
    [(0, 2, 3), (8, 2, 3), (-1, 2, 3), (9, 3, 2), (1, 1, 3), (1, 2, 0)],
)
def test_ratio_rejects_out_of_range(m, radix, resolution):
    with pytest.raises(DomainError):
        TargetRatio(m, radix, resolution)


def test_effective_resolution_strips_trailing_zeros():
    assert TargetRatio(4, 2, 3).effective_resolution == 1
    assert TargetRatio(6, 2, 3).effective_resolution == 2
    assert TargetRatio(3, 2, 3).effective_resolution == 3
    assert TargetRatio(3, 3, 2).effective_resolution == 1
    assert TargetRatio(4, 2, 3).reduced() == TargetRatio(1, 2, 1)
    assert TargetRatio(4, 2, 3).reduced().value == TargetRatio(4, 2, 3).value


def test_from_fraction_keeps_literal_width():
    assert TargetRatio.from_fraction(4, 8) == TargetRatio(4, 2, 3)
    assert TargetRatio.from_fraction(4, 9, radix=3) == TargetRatio(4, 3, 2)
    with pytest.raises(DomainError):
        TargetRatio.from_fraction(3, 10)


@pytest.mark.parametrize("radix", [1, 0, -2])
def test_from_fraction_rejects_a_degenerate_radix(radix):
    with pytest.raises(DomainError, match="radix must be at least 2"):
        TargetRatio.from_fraction(3, 8, radix=radix)


# -- SignedDigitCode -------------------------------------------------------------


def test_code_value_examples():
    assert SignedDigitCode(1, (-1, 0, -1)).value == Fraction(3, 8)
    assert SignedDigitCode(0, (0, 0, 0)).value == 0
    assert SignedDigitCode(1, (-2, 1), radix=3).value == Fraction(4, 9)


def test_code_validation():
    with pytest.raises(DomainError):
        SignedDigitCode(2, (0, 1))
    with pytest.raises(DomainError):
        SignedDigitCode(0, (2, 0))  # radix 2 digit bound
    with pytest.raises(DomainError):
        SignedDigitCode(0, ())
    SignedDigitCode(0, (2, -2), radix=3)  # fine at radix 3


def test_code_text_and_json_round_trip():
    code = SignedDigitCode(1, (-1, 0, -1))
    assert code.to_text() == "1 -1 0 -1"
    assert SignedDigitCode.from_json_dict(code.to_json_dict()) == code
    assert code.zero_count == 1
    assert code.engaged_count == 2


# -- conventional_code -----------------------------------------------------------


def test_conventional_code_examples():
    assert as_pairs([conventional_code(3, 2, 3)]) == ((0, (0, 1, 1)),)
    assert as_pairs([conventional_code(4, 3, 2)]) == ((0, (1, 1)),)
    assert as_pairs([conventional_code(1, 2, 1)]) == ((0, (1,)),)


@given(target_ratios())
def test_conventional_code_value(ratio):
    code = conventional_code(ratio.m, ratio.radix, ratio.resolution)
    assert code.value == ratio.value
    assert all(d >= 0 for d in code.digits)


# -- generators ------------------------------------------------------------------


def test_spawn_worked_examples():
    got = spawn_codes(TargetRatio(3, 2, 3)).as_set()
    assert got == {
        (0, (0, 1, 1)),
        (0, (1, -1, 1)),
        (1, (-1, -1, 1)),
        (0, (1, 0, -1)),
        (1, (-1, 0, -1)),
    }
    got = spawn_codes(TargetRatio(4, 3, 2)).as_set()
    assert got == {(1, (-1, -2)), (0, (2, -2)), (1, (-2, 1)), (0, (1, 1))}
    got = spawn_codes(TargetRatio(4, 2, 3)).as_set()
    assert got == {(1, (-1, 0, 0)), (0, (1, 0, 0))}


def test_spawn_matches_reference_families_in_canonical_order():
    for m, rows in CODE_FAMILY_R2_N3.items():
        assert as_pairs(spawn_codes(TargetRatio(m, 2, 3))) == rows
    for m, rows in CODE_FAMILY_R3_N2.items():
        assert as_pairs(spawn_codes(TargetRatio(m, 3, 2))) == rows


def test_family_sizes_meet_reduced_width_bound():
    sizes = [len(spawn_codes(TargetRatio(m, 2, 3))) for m in range(1, 8)]
    assert sizes == [4, 3, 5, 2, 5, 3, 4]
    for m in range(1, 8):
        ratio = TargetRatio(m, 2, 3)
        assert len(spawn_codes(ratio)) >= ratio.effective_resolution + 1


def test_enumerate_example_and_equivalence():
    family = enumerate_codes(TargetRatio(1, 2, 3))
    assert len(family) == 4
    for radix, max_n in ((2, 6), (3, 4)):
        for n in range(1, max_n + 1):
            for m in range(1, radix**n):
                ratio = TargetRatio(m, radix, n)
                assert spawn_codes(ratio).as_set() == enumerate_codes(ratio).as_set()


def test_enumerate_guard():
    with pytest.raises(ResourceLimitError):
        enumerate_codes(TargetRatio(1, 2, 15))


@given(target_ratios(max_radix=5, max_resolution=4))
def test_generators_agree(ratio):
    assert spawn_codes(ratio).as_set() == enumerate_codes(ratio).as_set()


@given(target_ratios())
def test_spawned_codes_all_represent_the_ratio(ratio):
    family = spawn_codes(ratio)
    for code in family:
        assert code.value == ratio.value
    assert len(set(as_pairs(family))) == len(family)


@given(target_ratios(max_radix=2))
def test_complement_symmetry_binary(ratio):
    mirror = TargetRatio(2**ratio.resolution - ratio.m, 2, ratio.resolution)
    flipped = {
        (1 - a0, tuple(-d for d in digits))
        for a0, digits in spawn_codes(ratio).as_set()
    }
    assert flipped == spawn_codes(mirror).as_set()


def test_every_digit_column_is_two_sided_or_empty():
    for radix, max_n in ((2, 5), (3, 3)):
        for n in range(1, max_n + 1):
            for m in range(1, radix**n):
                ratio = TargetRatio(m, radix, n)
                family = spawn_codes(ratio)
                assert len(family) >= ratio.effective_resolution + 1
                for k in range(n):
                    column = [c.digits[k] for c in family]
                    assert (any(d > 0 for d in column)) == (any(d < 0 for d in column))


# -- CodeSet ---------------------------------------------------------------------


def test_code_set_rejects_duplicates_and_strays():
    ratio = TargetRatio(3, 2, 3)
    family = list(spawn_codes(ratio))
    with pytest.raises(DomainError):
        CodeSet(ratio, tuple(family) + (family[0],))
    with pytest.raises(DomainError, match="does not represent 3/8"):
        CodeSet(ratio, tuple(family[:-1]) + (SignedDigitCode(0, (1, 0, 0)),))


# -- balanced_sequence -----------------------------------------------------------


def check_balanced(seq, ratio):
    size = 2**ratio.resolution
    assert len(seq) == size
    family = spawn_codes(ratio)
    counts = Counter((c.a0, c.digits) for c in seq)
    assert set(counts) == set(as_pairs(family))
    for (_, digits), count in counts.items():
        engaged = sum(1 for d in digits if d)
        assert count == 2 ** (ratio.resolution - engaged)
    for k in range(ratio.resolution):
        events = [
            (i, 1 if c.digits[k] > 0 else -1)
            for i, c in enumerate(seq)
            if c.digits[k]
        ]
        q = len(events)
        if q == 0:
            continue
        low, high = size // q, -(-size // q)
        cyclic = events + [(events[0][0] + size, events[0][1])]
        for (i1, s1), (i2, s2) in zip(cyclic, cyclic[1:]):
            if q > 1:
                assert s1 != s2, f"column {k + 1} repeats sign"
            assert low <= i2 - i1 <= high, f"column {k + 1} spacing {i2 - i1}"


def test_matched_cells_match_the_scan():
    # the balanced schedule's rows: each code of the family 2**zero_count times
    for n in range(1, 9):
        scanned = matched_cells_by_scan(n)
        for m in range(1, 2**n):
            family = spawn_codes(TargetRatio(m, 2, n))
            copies = Counter({(c.a0, c.digits): 2**c.zero_count for c in family})
            assert copies == Counter(scanned[m]), f"{m}/{2**n}"


def test_balanced_alternates_for_half():
    seq = balanced_sequence(TargetRatio(4, 2, 3))
    assert as_pairs(seq) == BALANCED_TABLE_N3[4]


def test_balanced_matches_reference_multisets():
    for m, rows in BALANCED_TABLE_N3.items():
        seq = balanced_sequence(TargetRatio(m, 2, 3))
        assert Counter(as_pairs(seq)) == Counter(rows)


def test_balanced_invariants_up_to_n5():
    for n in range(1, 6):
        for m in range(1, 2**n):
            ratio = TargetRatio(m, 2, n)
            check_balanced(balanced_sequence(ratio), ratio)


def test_balanced_row_order_is_pinned_up_to_n7():
    digest = hashlib.sha256()
    for n in range(1, 8):
        for m in range(1, 2**n):
            for code in balanced_sequence(TargetRatio(m, 2, n)):
                digest.update(f"{m}/{2**n} {code.to_text()}\n".encode())
    assert digest.hexdigest() == BALANCED_DIGEST_N1_7


@st.composite
def high_resolution_ratios(draw):
    n = draw(st.integers(6, 10))
    return TargetRatio(draw(st.integers(1, 2**n - 1)), 2, n)


@settings(max_examples=10)
@given(high_resolution_ratios())
def test_balanced_invariants_up_to_the_resolution_limit(ratio):
    check_balanced(balanced_sequence(ratio), ratio)


def test_balanced_rejects_other_radices():
    with pytest.raises(DomainError):
        balanced_sequence(TargetRatio(4, 3, 2))


def test_balanced_resolution_guard():
    with pytest.raises(ResourceLimitError):
        balanced_sequence(TargetRatio(3, 2, 11))
