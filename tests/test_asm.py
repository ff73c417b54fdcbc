"""Assembler and stock-program tests."""

from __future__ import annotations

import random
from itertools import product

import pytest

from dnrlab import forcing, reductions, stages
from dnrlab.asm import (
    AsmError,
    DIVERGE_INDEX,
    EVEN_HALT_INDEX,
    IDENTITY_INDEX,
    ZERO_INDEX,
    _template_index,
    assemble,
    assemble_index,
    const_index,
)
from dnrlab.machine import (
    Halted,
    RUNNING,
    encode,
    enumerate_re,
    eval_program,
    gamma_inverse,
    pair,
    program,
    self_reference,
)


def test_basic_assembly():
    p = assemble("halt r0")
    assert encode(p) == 23
    assert IDENTITY_INDEX == 23


def test_labels_and_comments():
    p = assemble("""
        # count down r0 to zero, answer 1
        loop:
            jz r0, done   # branch out when exhausted
            load r2, 1
            sub r0, r0, r2
            jmp loop
        done:
            load r1, 1
            halt r1
    """)
    e = encode(p)
    for x in (0, 1, 6):
        assert eval_program(e, x, 200) == Halted(1)


def test_label_one_past_end_diverges():
    p = assemble("jmp out\nout:")
    assert eval_program(encode(p), 0, 10**5) is RUNNING


def test_label_on_instruction_line():
    p = assemble("start: halt r0")
    assert encode(p) == 23


def test_numeric_jump_targets():
    p = assemble("jz r0, 2\njmp 3\nhalt r0")
    assert eval_program(encode(p), 0, 100) == Halted(0)
    assert eval_program(encode(p), 5, 10**4) is RUNNING


@pytest.mark.parametrize("bad", [
    "frob r1",
    "halt r16",
    "halt",
    "load r1",
    "jmp nowhere",
    "x: x: halt r0",
    "9bad: halt r0",
])
def test_malformed_source_rejected(bad):
    with pytest.raises(AsmError):
        assemble(bad)


# Unicode digits that str.isdigit() and int() read: Arabic-Indic five and
# three, and a superscript two that int() refuses.
@pytest.mark.parametrize("source", [
    "halt r0\nload r1, \u0665",
    "halt r0\nload r\u0663, 5",
    "halt r0\nload r1, \u00b2",
])
def test_only_ascii_digits_are_read(source):
    with pytest.raises(AsmError, match="^line 2: "):
        assemble(source)


@pytest.mark.parametrize("source", ["halt r0\nload r1, " + "1" * 5000,
                                    "halt r0\nload r" + "1" * 5000 + ", 5"],
                         ids=["constant", "register"])
def test_numbers_too_long_to_read_name_their_line(source):
    with pytest.raises(AsmError, match="^line 2: a number of 5000 digits is too long to read$"):
        assemble(source)


def test_label_exactly_one_past_end_allowed():
    p = assemble("jmp far\nhalt r0\nfar:")
    assert len(p) == 2
    assert eval_program(encode(p), 0, 10**5) is RUNNING


def test_stock_diverger():
    assert DIVERGE_INDEX == 0
    assert eval_program(DIVERGE_INDEX, 3, 5000) is RUNNING


def test_stock_projections():
    left = assemble_index("left r1, r0\nhalt r1")
    right = assemble_index("right r1, r0\nhalt r1")
    for a, b in ((0, 0), (2, 7), (31, 4)):
        z = pair(a, b)
        assert eval_program(left, z, 50) == Halted(a)
        assert eval_program(right, z, 50) == Halted(b)


def test_zero_and_const():
    assert eval_program(ZERO_INDEX, 77, 10) == Halted(0)
    assert const_index(0) == ZERO_INDEX
    for c in (1, 2, 13):
        e = const_index(c)
        for x in (0, 5):
            assert eval_program(e, x, 10) == Halted(c)
    # the small consts must stay within reach of modest index sweeps
    assert const_index(1) <= 20000


def test_even_halt_domain():
    assert enumerate_re(EVEN_HALT_INDEX, 6) == frozenset({0, 2, 4, 6})
    assert eval_program(EVEN_HALT_INDEX, 9, 10**6) is RUNNING


def residue_index(k: int, r: int) -> int:
    """A program whose domain is exactly the residue class r mod k."""
    return assemble_index(f"""
        load r1, {k}
        mod r2, r0, r1
        load r3, {r}
        sub r4, r2, r3
        sub r5, r3, r2
        add r4, r4, r5
        jz r4, ok
        jmp stuck
    ok: halt r0
    stuck:
    """)


def finite_set_index(members: frozenset[int]) -> int:
    """A bit-probe loop whose domain is exactly the given finite set."""
    return assemble_index(f"""
        load r1, {gamma_inverse(members)}
        load r2, 2
        mov r3, r0
    loop:
        jz r3, test
        div r1, r1, r2
        load r4, 1
        sub r3, r3, r4
        jmp loop
    test:
        mod r5, r1, r2
        jz r5, stuck
        halt r0
    stuck:
    """)


@pytest.mark.parametrize("k,r", [(1, 0), (2, 1), (3, 0), (5, 2)])
def test_residue_domains(k, r):
    e = residue_index(k, r)
    w = enumerate_re(e, 40)
    assert w == frozenset(x for x in range(41) if x % k == r)


@pytest.mark.parametrize("members", [frozenset(), frozenset({0}), frozenset({1, 4, 9}),
                                     frozenset({0, 1, 2, 3, 10})])
def test_finite_set_domains(members):
    e = finite_set_index(members)
    assert enumerate_re(e, 150) == members


# ---------------------------------------------------------------------------
# Spliced drivers: each self-referential driver is assembled once and its
# constants spliced in; assembling the formatted source text is the mirror.

_WIDE = random.Random(2400).getrandbits(2400) | 1 << 2399  # a 2400-bit constant
SPLICE_CONSTANTS = (0, 1 << 64, _WIDE, _WIDE ^ 0b1011)


def test_two_constant_drivers_match_the_assembled_text():
    for first, second in product(SPLICE_CONSTANTS, repeat=2):
        assert stages._interval_driver(e=first, base=second) == \
            assemble_index(stages._INTERVAL_DRIVER.format(e=first, base=second))
        assert reductions._first_slice_driver(f=first, source=second) == \
            assemble_index(reductions._FIRST_SLICE_DRIVER.format(f=first, source=second))


def test_master_driver_matches_the_assembled_text():
    for q, a0, a1, big_k, cap in product(SPLICE_CONSTANTS[:3], repeat=5):
        assert forcing._master_driver(q=q, a0=a0, a1=a1, big_k=big_k, cap=cap) == assemble_index(
            forcing._MASTER_DRIVER.format(q=q, a0=a0, a1=a1, big_k=big_k, cap=cap))


@pytest.mark.parametrize("e, base", [(0, 0), (const_index(2), 1 << 64), (ZERO_INDEX, 7)])
def test_slice_indices_match_the_assembled_text(e, base):
    assert stages.interval_slice_index(e, base) == \
        self_reference(assemble_index(stages._INTERVAL_DRIVER.format(e=e, base=base)))
    assert reductions.first_slice_index(base, e) == \
        self_reference(assemble_index(reductions._FIRST_SLICE_DRIVER.format(f=e, source=base)))


def test_template_fields_must_be_load_constants():
    with pytest.raises(AsmError, match="exactly one load"):
        _template_index("jmp {target}\nhalt r0")(target=1)
    with pytest.raises(AsmError, match="exactly one load"):
        _template_index("load r1, {c}\nload r2, {c}\nhalt r1")(c=1)
    splice = _template_index("load r1, {c}\nhalt r1")
    assert splice(c=5) == const_index(5)
    with pytest.raises(AsmError):
        assemble_index("load r1, -1\nhalt r1")
    with pytest.raises(AsmError, match="natural"):
        splice(c=-1)
