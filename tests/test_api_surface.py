"""The package holds no API that only tests call: every public top-level
function, class and method in ``src/spalmtl`` is named in a program (the
package or ``perfbench/``) besides its own definition, or is exported in
``spalmtl.__all__``."""

import ast
import re
from collections import Counter
from pathlib import Path

import spalmtl

ROOT = Path(__file__).resolve().parent.parent
PROGRAMS = ("src", "perfbench")


def _public_definitions(source: str):
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (n.name for n in node.body if isinstance(n, ast.FunctionDef))


def test_every_public_name_has_a_caller_outside_the_tests():
    definitions = Counter(
        name for path in sorted((ROOT / "src" / "spalmtl").glob("*.py"))
        for name in _public_definitions(path.read_text()) if not name.startswith("_"))
    programs = [path.read_text() for top in PROGRAMS
                for path in sorted((ROOT / top).rglob("*.py"))]
    uncalled = sorted(
        name for name, count in definitions.items() if name not in spalmtl.__all__
        and sum(len(re.findall(rf"\b{name}\b", text)) for text in programs) <= count)
    assert uncalled == []
