"""The package keeps the Python floor it declares (README, pyproject: 3.10+).

Every module under `src/` must parse with the 3.10 grammar, so syntax from a
later release (`except*`, PEP 695 type parameters, ...) fails here even when
the tests run on a newer interpreter.  So must the source that the machine
generates at run time for its compiled windows: a program with every opcode,
and the flat and nested stock programs of the machine tests.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from dnrlab.machine import OP_HALT, OP_SIGNATURE, _shape, _source, program
from test_machine import COUNTDOWN, EVEN_HALT, LOOP3, NESTED_IDS, NESTED_STOCK, PAIR_OVERWRITTEN

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: p.name)
def test_source_parses_with_the_python_3_10_grammar(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_the_floor_check_refuses_later_syntax():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


# Every opcode once, halt last so that all of it is live; the jumps go to
# the next instruction.
_OPS = sorted(OP_SIGNATURE, key=lambda op: op == OP_HALT)
EVERY_OPCODE = program([(op, *(pc + 1 if kind == "n" else 1 for kind in OP_SIGNATURE[op]))
                        for pc, op in enumerate(_OPS)])


@pytest.mark.parametrize("prog", [EVERY_OPCODE, EVEN_HALT, COUNTDOWN, LOOP3, PAIR_OVERWRITTEN,
                                  *NESTED_STOCK],
                         ids=["every-opcode", "even-halt", "countdown", "loop3",
                              "pair-overwritten", *NESTED_IDS])
def test_generated_window_source_parses_with_the_python_3_10_grammar(prog):
    ast.parse(_source(_shape(prog.instructions), prog.live), feature_version=(3, 10))
