"""The package keeps the Python floor it declares (README, pyproject: 3.10+).

Every module under `src/` must parse with the 3.10 grammar, so syntax from a
later release (`except*`, PEP 695 type parameters, ...) fails here even when
the tests run on a newer interpreter.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: p.name)
def test_source_parses_with_the_python_3_10_grammar(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_the_floor_check_refuses_later_syntax():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
