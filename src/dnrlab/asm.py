"""Text assembler for toy machine programs, plus a shelf of stock programs.

The source format is one instruction per line (see docs/formats.md):

    # comments run to end of line
    loop:                 # labels name the next instruction
        jz r2, done       # registers are r0..r15, constants are naturals
        sub r2, r2, r3
        jmp loop
    done:
        halt r0

Jump targets may be labels or raw instruction numbers.  A label may point
one past the last instruction; jumping there diverges, which is the idiom
for "reject" branches.
"""

from __future__ import annotations

import re
from functools import cache
from typing import Callable

from .machine import (
    OP_BY_NAME,
    OP_LOAD,
    OP_SIGNATURE,
    ProgramIndex,
    ToyProgram,
    _code_bits,
    _gamma_bits,
    _nat_of_bits,
    encode,
    program,
)


class AsmError(ValueError):
    """Malformed assembly source."""


_LABEL_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _tokenize_operands(text: str) -> list[str]:
    return [tok for tok in re.split(r"[,\s]+", text.strip()) if tok]


def _natural(digits: str, lineno: int) -> int:
    """The value of an ASCII digit string, or AsmError naming its line when it
    has more digits than Python converts (4300 by default)."""
    try:
        return int(digits)
    except ValueError:
        raise AsmError(f"line {lineno}: a number of {len(digits)} digits is too long to read") from None


def assemble(source: str) -> ToyProgram:
    """Assemble source text into a canonical program."""
    # first pass: strip comments, collect labels and raw instructions
    raw: list[tuple[int, str, list[str]]] = []  # (line no, opcode name, operand tokens)
    labels: dict[str, int] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        while ":" in line:
            name, _, rest = line.partition(":")
            name = name.strip()
            if not _LABEL_RE.match(name):
                raise AsmError(f"line {lineno}: bad label {name!r}")
            if name in labels:
                raise AsmError(f"line {lineno}: duplicate label {name!r}")
            labels[name] = len(raw)
            line = rest.strip()
        if not line:
            continue
        parts = line.split(None, 1)
        opname = parts[0].lower()
        if opname not in OP_BY_NAME:
            raise AsmError(f"line {lineno}: unknown opcode {opname!r}")
        raw.append((lineno, opname, _tokenize_operands(parts[1]) if len(parts) > 1 else []))

    # second pass: resolve operands
    instructions = []
    for lineno, opname, tokens in raw:
        op = OP_BY_NAME[opname]
        sig = OP_SIGNATURE[op]
        if len(tokens) != len(sig):
            raise AsmError(
                f"line {lineno}: {opname} takes {len(sig)} operand(s), got {len(tokens)}")
        operands = []
        for kind, tok in zip(sig, tokens):
            if kind == "r":
                if not re.fullmatch(r"[rR][0-9]+", tok):
                    raise AsmError(f"line {lineno}: expected register, got {tok!r}")
                n = _natural(tok[1:], lineno)
                if n >= 16:
                    raise AsmError(f"line {lineno}: register {tok!r} out of range")
                operands.append(n)
            else:
                if re.fullmatch(r"[0-9]+", tok):
                    operands.append(_natural(tok, lineno))
                elif tok in labels:
                    operands.append(labels[tok])
                else:
                    raise AsmError(f"line {lineno}: unknown label or constant {tok!r}")
        instructions.append((op, *operands))

    for name, target in labels.items():
        if target > len(instructions):
            raise AsmError(f"label {name!r} beyond one-past-end")
    return program(instructions)


def assemble_index(source: str) -> ProgramIndex:
    return encode(assemble(source))


def _template_index(source: str) -> Callable[..., ProgramIndex]:
    """constants -> assemble_index(source.format(**constants)), for a source
    whose every brace field is the constant of one `load`.  The source is
    assembled once, at the first call, with stand-ins; each call splices in
    the constants' code words between the fixed code bits."""
    @cache
    def layout() -> tuple[list[str], list[str]]:
        names = re.findall(r"{(\w+)}", source)
        marks = {(1 << 64) + i: name for i, name in enumerate(names)}  # no source uses these
        pieces, order = [""], []
        for ins in assemble(source.format(**{n: m for m, n in marks.items()})).instructions:
            if ins[0] == OP_LOAD and ins[2] in marks:
                pieces[-1] += _code_bits([ins[:2]])
                pieces.append("")
                order.append(marks[ins[2]])
            else:
                pieces[-1] += _code_bits([ins])
        if sorted(order) != sorted(set(names)):
            raise AsmError("each brace field must be the constant of exactly one load")
        return pieces, order

    def index(**constants: int) -> ProgramIndex:
        pieces, order = layout()
        if min(constants.values()) < 0:
            raise AsmError(f"constants are naturals, got {constants}")
        words = [pieces[0]]
        for name, piece in zip(order, pieces[1:]):
            words += (_gamma_bits(constants[name]), piece)
        return _nat_of_bits("".join(words))
    return index


# ---------------------------------------------------------------------------
# Stock programs.

DIVERGE_INDEX = 0  # the empty program: everywhere undefined

IDENTITY = assemble("halt r0")
IDENTITY_INDEX = encode(IDENTITY)  # == 23

ZERO = assemble("halt r1")  # r1 is never written, so the value is 0
ZERO_INDEX = encode(ZERO)

# Halts exactly on even inputs, the stock infinite r.e. set; the odd branch
# loops with no path to halt, which the interpreter classifies at once.
EVEN_HALT = assemble("""
    load r2, 2
    mod r1, r0, r2
    jz r1, ok
loop: jmp loop
ok: halt r0
""")
EVEN_HALT_INDEX = encode(EVEN_HALT)


def const_index(c: int) -> ProgramIndex:
    """Index of the total constant-c function."""
    if c == 0:
        return ZERO_INDEX
    return assemble_index(f"load r1, {c}\nhalt r1")
