"""Every public name earns its place: something outside the unit tests uses it.

A name in sccforge.__all__ must appear as an identifier (an AST Name,
Attribute or import alias) in the package's own modules other than
__init__.py, in the benchmark harness (perfbench/*.py), in the acceptance
suite, oracles or golden data, or in the README's python blocks and inline
code spans. README prose and command transcripts are not code.
"""

import ast
import re
from pathlib import Path

import sccforge

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
