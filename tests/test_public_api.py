"""Every public name earns its place: something outside the unit tests uses it.

A name in sccforge.__all__ must appear as an identifier (an AST Name,
Attribute or import alias) in the package's own modules other than
__init__.py, in the benchmark harness (perfbench/*.py), in the acceptance
suite, oracles or golden data, or in the README's python blocks and inline
code spans. README prose and command transcripts are not code.

The public value types behave as values: compared, hashed and printed by
their fields, read-only, copied and pickled whole.
"""

import ast
import copy
import pickle
import re
from array import array
from fractions import Fraction as F
from pathlib import Path

import pytest

import sccforge
from sccforge import (
    BankState,
    CodeSet,
    DitherPlan,
    KvlSystem,
    ReqSpec,
    SignedDigitCode,
    SimTrace,
    TargetRatio,
    spawn_codes,
)

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(sccforge.__file__).resolve().parent
TESTS = ("test_acceptance.py", "oracles.py", "golden.py")
FENCE = re.compile(r"^\s*```(\w*)\s*$")
INLINE = re.compile(r"`([^`\n]+)`")
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def identifiers(source: str):
    """Loaded, attribute and imported names in Python source."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def readme_identifiers(text: str):
    """Identifiers of the README's python blocks and of its inline code spans outside any block."""
    block, lang = None, None
    for line in text.splitlines():
        fence = FENCE.match(line)
        if fence and block is None:
            block, lang = [], fence.group(1)
        elif fence:
            if lang == "python":
                yield from identifiers("\n".join(block))
            block = None
        elif block is not None:
            block.append(line)
        else:
            for span in INLINE.findall(line):
                yield from IDENTIFIER.findall(span)


def used_names():
    sources = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    sources += sorted((ROOT / "perfbench").glob("*.py"))
    sources += [ROOT / "tests" / name for name in TESTS]
    names = set(readme_identifiers((ROOT / "README.md").read_text()))
    for path in sources:
        names.update(identifiers(path.read_text()))
    return names


def test_readme_reader_keeps_code_and_skips_prose():
    text = "ratio 3/8, efficiency bound 0.9167 via `ldo_select_ratio`\n```\n$ run efficiency\n```\n"
    text += "```python\nfrom sccforge import solve_unique\nx.step_up(y)\n```\n"
    assert sorted(readme_identifiers(text)) == ["ldo_select_ratio", "solve_unique", "step_up", "x", "y"]


def test_every_public_name_is_used_outside_the_unit_tests():
    unused = sorted(set(sccforge.__all__) - used_names())
    assert not unused, f"public names that no module, benchmark, acceptance test or README uses: {unused}"


RATIO = TargetRatio(3, 2, 3)
BANK = dict(flying_caps=(1.0, 2.0), output_cap=10.0, flying_voltages=(0.5, 0.25), output_voltage=0.375)
# each value type, its fields by keyword, and one field changed
VALUES = [
    (TargetRatio, dict(m=3, radix=2, resolution=3), dict(m=5)),
    (SignedDigitCode, dict(a0=0, digits=(1,), radix=2), dict(a0=1, digits=(-1,))),
    (CodeSet, dict(ratio=RATIO, codes=spawn_codes(RATIO).codes), dict(codes=spawn_codes(RATIO).codes[:2])),
    (BankState, BANK, dict(output_voltage=0.5)),
    (
        SimTrace,
        dict(buffer=array("d", (0.5, 0.25, 0.375, 0.0)), periods=1, converged=False,
             adjustment_iterations=None, final_state=BankState(**BANK)),
        dict(converged=True),
    ),
    (KvlSystem, dict(matrix=((1, -1), (0, -1)), rhs=(0, -1)), dict(rhs=(1, -1))),
    (
        ReqSpec,
        dict(f_s=1e5, c=4.7e-6, r_on=1.2, switches_per_loop=4, t_over_ts=F(1, 2), slots=((F(1, 2), 1), (F(1, 2), 2))),
        dict(r_on=1.5),
    ),
    (DitherPlan, dict(ratios=(RATIO, TargetRatio(1, 2, 1)), weights=(1, 2)), dict(weights=(2, 1))),
]
VALUE_IDS = [cls.__name__ for cls, _, _ in VALUES]


@pytest.mark.parametrize("cls, fields, changed", VALUES, ids=VALUE_IDS)
def test_equal_fields_make_equal_values(cls, fields, changed):
    a, b = cls(**fields), cls(**fields)
    assert a == b and not a != b
    if cls is SimTrace:
        # its array buffer is unhashable, and so is the trace
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@pytest.mark.parametrize("cls, fields, changed", VALUES, ids=VALUE_IDS)
def test_another_field_class_or_a_tuple_is_unequal(cls, fields, changed):
    a = cls(**fields)
    assert a != cls(**{**fields, **changed})
    assert a != type("Other", (cls,), {})(**fields)
    assert a != tuple(fields.values())


@pytest.mark.parametrize("cls, fields, changed", VALUES, ids=VALUE_IDS)
def test_fields_are_read_only(cls, fields, changed):
    a = cls(**fields)
    for name, value in changed.items():
        with pytest.raises(AttributeError):
            setattr(a, name, value)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == cls(**fields)
    assert not hasattr(a, "__dict__")


@pytest.mark.parametrize("cls, fields, changed", VALUES, ids=VALUE_IDS)
def test_copies_and_pickles_are_equal(cls, fields, changed):
    a = cls(**fields)
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(twin) is cls and twin == a


def test_repr_names_the_fields():
    assert repr(TargetRatio(3, 2, 3)) == "TargetRatio(m=3, radix=2, resolution=3)"
    assert repr(SignedDigitCode(a0=0, digits=(1,), radix=2)) == "SignedDigitCode(a0=0, digits=(1,), radix=2)"
    assert repr(KvlSystem(((1, -1),), (0,))) == "KvlSystem(matrix=((1, -1),), rhs=(0,))"
