"""Register-machine substrate tests.

The interpreter under test carries these fast paths: dead-code liveness,
computed once per program and kept on it as `ToyProgram.live`; outcomes
built only at the API (`_run` returns a bare value or None, and the window
functions never wrap it); an exact loop check (a taken jump that lands on
a saved configuration of the same frame diverges); free left/right of the
value the last pair produced; and `pair` through a cached triangle number
T(a) = a(a+1)/2.  `naive_eval` below is a separate bare-bones interpreter
with none of them, written directly from the instruction semantics with
its own pairing formula; a sweep cross-checks the two on a few thousand
indices, random looping programs cross-check them at budgets long enough
for loops to repeat, and self-referential interval slices (huge s-m-n
parameters paired with every input) cross-check the domain windows.
`eval_steps` answers a program dead at pc 0 without running it; random
dead programs check that answer against `naive_eval` at budgets up to 60,
0 included.
`naive_live` mirrors the liveness table by a plain search per pc.

Nested runs are frames on `_run`'s one stack: self-nesting `univ` and
`budv` programs run to the budget, a 200-deep `budv` chain agrees with
`naive_eval` under a recursion limit it would overflow if each level took
a Python frame, and a looping caller whose callees make most of the jumps
is still caught by the loop check at once.

Oracle-free runs cache each nested call that halted, as (callee index,
argument) -> (value, steps).  The memo tests run nested programs (random
ones, callers that make the same call twice, interval and first slices,
the loopers and chains above) against `naive_eval` at every budget up to
past the halting step, once with the cache cleared before each run and
once after a warming run at a larger budget, and check every entry against
`naive_eval` too.  Explicit edges put a cached callee of s steps under
`budv` bounds s-1, s and s+1, under `univ` allowances s-1 and s, and
inside an outer `budv` timeout, and check that no frame was opened for it.
Oracle runs neither read nor fill the cache, and it never passes its cap.

Windows of many inputs run their program compiled: `_compile` turns it
into one generated Python function, shared by every program of its shape
(the instructions less their `load` constants), and `compiled_eval` below
runs it.  The mirror tests compare it with `eval_steps` (that is, `_run`)
and `naive_eval`, and `domain_window` over windows long enough to compile.
A compiled window's nested calls go through `_run` until their callee has
run there `_COMPILE_MIN_RUNS` times, then through the callee compiled: the
nested mirrors run windows long enough for both, on the stock nested
programs, the self-nesting ones and the 200-deep `budv` chain (under the
lowered recursion limit), at budgets around each halting step.  The window
tests straddle the compile threshold, and two hostile programs (a load
constant too long to print, thousands of blocks) check that the compiler
copes.

The program codec has fast paths too: `decode` scans its bit string with
`str.find`, resumes from the last parse where the code words share leading
bits, skips ToyProgram's validation and hands out one object per distinct
program, and `smn_fill` splices a cached body.  `naive_decode` (a
bit-at-a-time reader) and `naive_smn_fill` (decode, shift, re-encode)
mirror them; the resume path is checked in orders that resume from every
kind of earlier parse.
"""

from __future__ import annotations

import random
import re
import sys
import threading
import time
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnrlab import machine
from dnrlab.asm import EVEN_HALT, EVEN_HALT_INDEX, IDENTITY_INDEX, ZERO_INDEX, assemble, \
    const_index
from dnrlab.errors import WitnessBudgetExceeded
from dnrlab.machine import (
    EMPTY_PROGRAM,
    OP_ADD,
    OP_BUDV,
    OP_DIV,
    OP_HALT,
    OP_JMP,
    OP_JZ,
    OP_LEFT,
    OP_LOAD,
    OP_MOD,
    OP_MOV,
    OP_MUL,
    OP_ORACLE,
    OP_PAIR,
    OP_RIGHT,
    OP_SIGNATURE,
    OP_SMN,
    OP_SUB,
    OP_UNIV,
    RUNNING,
    SMN_STEP_OVERHEAD,
    UNIV2_INDEX,
    EnumerationScan,
    Halted,
    ToyProgram,
    _compile,
    _COMPILE_MIN_RUNS,
    _run,
    _window_runner,
    decode,
    diagonal_index,
    domain_window,
    encode,
    enumerate_re,
    eval_program,
    eval_steps,
    fixed_point,
    gamma,
    gamma_inverse,
    halted_value,
    pair,
    program,
    re_enumeration_order,
    self_reference,
    smn_fill,
    unpair,
)
from dnrlab.oracle import EVENS, PrefixOracle
from dnrlab.reductions import blocking_prefix, first_slice_index
from dnrlab.stages import interval_slice_index

IDENTITY = program([(OP_HALT, 0)])
CONST1 = program([(OP_LOAD, 1, 1), (OP_HALT, 1)])


# ---------------------------------------------------------------------------
# Reference interpreter: no caches, no fast paths, straight off the semantics.

def _naive_pair(a, b):
    return (a + b) * (a + b + 1) // 2 + b


def _naive_run(instructions, arg, allot, oracle):
    """Return (halted?, value, consumed); Running consumes the whole allotment."""
    regs = [0] * 16
    regs[0] = arg
    pc = 0
    consumed = 0
    n = len(instructions)
    while True:
        if pc >= n or consumed >= allot:
            return False, 0, allot
        ins = instructions[pc]
        op = ins[0]
        consumed += 1
        if op == OP_LOAD:
            regs[ins[1]] = ins[2]
        elif op == OP_HALT:
            return True, regs[ins[1]], consumed
        elif op == OP_JZ:
            pc = ins[2] if regs[ins[1]] == 0 else pc + 1
            continue
        elif op == OP_JMP:
            pc = ins[1]
            continue
        elif op == OP_ADD:
            regs[ins[1]] = regs[ins[2]] + regs[ins[3]]
        elif op == OP_SUB:
            regs[ins[1]] = max(regs[ins[2]] - regs[ins[3]], 0)
        elif op == OP_MOV:
            regs[ins[1]] = regs[ins[2]]
        elif op == OP_UNIV:
            h, v, c = _naive_run(
                decode(regs[ins[2]]).instructions, regs[ins[3]], allot - consumed, oracle)
            if not h:
                return False, 0, allot
            consumed += c
            regs[ins[1]] = v
        elif op == OP_SMN:
            regs[ins[1]] = smn_fill(regs[ins[2]], regs[ins[3]])
        elif op == OP_PAIR:
            regs[ins[1]] = _naive_pair(regs[ins[2]], regs[ins[3]])
        elif op == OP_LEFT:
            regs[ins[1]] = unpair(regs[ins[2]])[0]
        elif op == OP_RIGHT:
            regs[ins[1]] = unpair(regs[ins[2]])[1]
        elif op == OP_MUL:
            regs[ins[1]] = regs[ins[2]] * regs[ins[3]]
        elif op == OP_DIV:
            d = regs[ins[3]]
            regs[ins[1]] = regs[ins[2]] // d if d else 0
        elif op == OP_MOD:
            d = regs[ins[3]]
            regs[ins[1]] = regs[ins[2]] % d if d else 0
        elif op == OP_ORACLE:
            regs[ins[1]] = oracle.bit(regs[ins[2]]) if oracle is not None else 0
        elif op == OP_BUDV:
            bound = regs[ins[4]]
            avail = allot - consumed
            bounded = min(bound, avail)
            h, v, c = _naive_run(
                decode(regs[ins[2]]).instructions, regs[ins[3]], bounded, oracle)
            if h:
                consumed += c
                regs[ins[1]] = 1 + v
            elif bounded == bound:
                consumed += c
                regs[ins[1]] = 0
            else:
                return False, 0, allot
        else:
            raise AssertionError(op)
        pc += 1


class _BitReader:
    def __init__(self, bits: str) -> None:
        self.bits = bits
        self.pos = 0

    def read_nat(self):
        bits, pos, n = self.bits, self.pos, len(self.bits)
        ones = 0
        while pos < n and bits[pos] == "1":
            ones += 1
            pos += 1
        if pos >= n:
            return None  # unterminated unary prefix: padding
        pos += 1  # the 0 separator
        if pos + ones > n:
            return None  # truncated body: padding
        body = bits[pos:pos + ones]
        self.pos = pos + ones
        return int("1" + body, 2) - 1 if ones else 0


def naive_decode(e):
    """Instruction tuple coded by e, read one bit at a time."""
    reader = _BitReader(bin(e + 1)[3:])
    instructions = []
    while True:
        raw_op = reader.read_nat()
        if raw_op is None:
            break
        op = raw_op % 17
        sig = OP_SIGNATURE[op]
        operands = []
        ok = True
        for kind in sig:
            val = reader.read_nat()
            if val is None:
                ok = False
                break
            operands.append(val % 16 if kind == "r" else val)
        if not ok:
            break
        instructions.append((op, *operands))
    return tuple(instructions)


def naive_smn_fill(e, a):
    """smn_fill by re-encoding: the prefix, then e's body with jumps shifted."""
    body = []
    for ins in naive_decode(e):
        if ins[0] == OP_JMP:
            ins = (OP_JMP, ins[1] + SMN_STEP_OVERHEAD)
        elif ins[0] == OP_JZ:
            ins = (OP_JZ, ins[1], ins[2] + SMN_STEP_OVERHEAD)
        body.append(ins)
    return encode([(OP_LOAD, 1, a), (OP_PAIR, 0, 1, 0), (OP_LOAD, 1, 0), *body])


def naive_eval(e, x, budget, oracle=None):
    h, v, c = _naive_run(decode(e).instructions, x, budget, oracle)
    return (Halted(v) if h else RUNNING), (c if h else budget)


def is_flat(p):
    """Whether p makes no nested run (no univ or budv)."""
    return all(ins[0] not in (OP_UNIV, OP_BUDV) for ins in p.instructions)


def compiled_eval(e, x, budget, oracle=None):
    """eval_steps through the compiled function of decode(e)."""
    value, steps = _compile(decode(e))(x, budget, oracle)
    return (RUNNING if value is None else Halted(value)), steps


def assert_eval_matches_naive(e, x, budget, oracle=None):
    """eval_steps, and the compiled function, against naive_eval."""
    want = naive_eval(e, x, budget, oracle)
    assert eval_steps(e, x, budget, oracle) == want, (e, x, budget, oracle)
    assert compiled_eval(e, x, budget, oracle) == want, (e, x, budget, oracle)


def assert_window_matches_naive(e, budget, horizon=_COMPILE_MIN_RUNS):
    """domain_window over a window long enough to compile against naive_eval."""
    naive = frozenset(x for x in range(horizon) if naive_eval(e, x, budget)[0] is not RUNNING)
    assert domain_window(e, horizon, budget) == naive, (e, budget)


def naive_live(instructions):
    """For each pc, whether a search along both jz branches meets a halt."""
    n = len(instructions)

    def successors(pc):
        ins = instructions[pc]
        if ins[0] == OP_HALT:
            return []
        if ins[0] == OP_JMP:
            return [ins[1]]
        if ins[0] == OP_JZ:
            return [pc + 1, ins[2]]
        return [pc + 1]

    live = []
    for start in range(n):
        seen, todo, found = {start}, [start], False
        while todo and not found:
            pc = todo.pop()
            found = instructions[pc][0] == OP_HALT
            for nxt in successors(pc):
                if nxt < n and nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        live.append(found)
    return tuple(live)


# ---------------------------------------------------------------------------
# Coding layer.

def test_frozen_index_vectors():
    assert decode(0) == EMPTY_PROGRAM
    assert encode(IDENTITY) == 23
    assert encode(CONST1) == 10531


# docs/formats.md writes register operands as rd, rs, ... and naturals as c, t.
_DOC_OPERAND_KINDS = {"rd": "r", "rs": "r", "ra": "r", "rb": "r", "re": "r", "rx": "r",
                      "c": "n", "t": "n"}


def test_opcode_numbering_is_the_table_order():
    names = [name for name, _, _ in machine._OPCODES]
    constants = {name[3:].lower(): value for name, value in vars(machine).items()
                 if name.startswith("OP_") and type(value) is int}
    assert constants == {name: op for op, name in enumerate(names)}
    assert machine.N_OPCODES == len(names)
    for op, (name, kinds, _) in enumerate(machine._OPCODES):
        with pytest.raises(ValueError, match=f"bad arity for {name}:"):
            ToyProgram(((op,) + (0,) * (len(kinds) + 1),))


def test_documented_opcode_table_is_the_machine_table():
    # docs/formats.md numbers the opcodes "in the order of the table above"
    text = (Path(__file__).resolve().parent.parent / "docs" / "formats.md").read_text()
    start = text.index("| opcode ")
    rows = re.findall(r"^\| `(\w+)` +\| `([^`]*)` *\|", text[start:text.index("\n\n", start)],
                      re.MULTILINE)
    documented = [(name, "".join(_DOC_OPERAND_KINDS[operand.strip()]
                                 for operand in operands.split(",") if operand.strip()))
                  for name, operands in rows]
    assert documented == [(name, kinds) for name, kinds, _ in machine._OPCODES]
    n = machine.N_OPCODES
    assert (f"numbered 0..{n - 1} in the order of the table above and taken mod {n}."
            in " ".join(text.split()))


def test_decode_total_small_range():
    for e in range(2000):
        p = decode(e)
        assert isinstance(p, ToyProgram)
        # canonicalization never grows the index
        assert encode(p) <= e


instruction_st = st.sampled_from(sorted(OP_SIGNATURE)).flatmap(
    lambda op: st.tuples(
        st.just(op),
        *(st.integers(0, 15) if kind == "r" else st.integers(0, 60)
          for kind in OP_SIGNATURE[op]),
    )
)
program_st = st.lists(instruction_st, max_size=8).map(program)


@given(program_st)
def test_encode_decode_roundtrip(p):
    assert decode(encode(p)) == p


@given(st.integers(0, 10**9))
def test_decode_encode_contracts(e):
    assert encode(decode(e)) <= e


def test_decode_matches_naive_mirror_exhaustively():
    for e in range(1 << 16):
        prog = decode(e)
        assert prog.instructions == naive_decode(e), e
        # decode skips validation; validation must accept what it yields
        assert ToyProgram(prog.instructions) == prog, e


def _assert_decodes_in_order(indices):
    """decode, from an empty cache, matches the mirrors on `indices` in order.

    Each miss resumes from the parse of the index before it, so the order
    decides which shared prefixes the resume path sees.
    """
    decode.cache_clear()
    for e in indices:
        prog = decode(e)
        assert prog.instructions == naive_decode(e), e
        assert prog.live == naive_live(prog.instructions), e


def test_decode_resumes_correctly_in_descending_order():
    _assert_decodes_in_order(range((1 << 16) - 1, -1, -1))


def test_decode_resumes_correctly_in_shuffled_order():
    order = list(range(1 << 16))
    random.Random(21).shuffle(order)
    _assert_decodes_in_order(order)


def test_decode_resumes_correctly_on_interleaved_runs():
    _assert_decodes_in_order(e + shift for e in range(1 << 14) for shift in (0, 10**6))


def test_decode_resumes_correctly_across_powers_of_two():
    # the code word's bit length changes between 2^k - 2 and 2^k - 1
    _assert_decodes_in_order(e for k in range(65) for e in range(2**k - 3, 2**k + 4) if e >= 0)


def test_decode_resumes_correctly_between_long_and_short_codes():
    def order():
        for e in range(48):
            long = smn_fill(e, 1 << 20000)
            yield from (long, long + 1, e, long + 2)
    _assert_decodes_in_order(order())


def test_decode_from_threads_matches_naive_mirror():
    # every thread reads the other threads' parses as resume points; a parse
    # is published whole, so each read sees one code word's parse
    rng = random.Random(4)
    ranges = [list(range(k << 14, (k + 1) << 14)) for k in range(4)]
    for indices in ranges:
        rng.shuffle(indices)
    results = [None] * len(ranges)
    start = threading.Barrier(len(ranges))

    def work(k):
        start.wait(timeout=60)
        results[k] = [decode(e) for e in ranges[k]]

    decode.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(ranges))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert None not in results
    for indices, progs in zip(ranges, results):
        for e, prog in zip(indices, progs):
            assert prog.instructions == naive_decode(e), e
            assert prog.live == naive_live(prog.instructions), e


def test_equal_decoded_programs_are_one_object():
    assert decode(0) is decode(1)
    assert decode(0) == EMPTY_PROGRAM
    e = encode(CONST1)
    decode.cache_clear()
    # appending a 1 to the code bits adds only padding
    assert decode(2 * (e + 1)) is decode(e) == CONST1


@pytest.mark.parametrize("instructions, message", [
    (((99, 0),), "unknown opcode"),
    (((OP_HALT,),), "bad arity"),
    (((OP_LOAD, 1, -1),), "negative operand"),
    (((OP_HALT, 16),), "register out of range"),
])
def test_construction_rejects_malformed_instructions(instructions, message):
    with pytest.raises(ValueError, match=message):
        ToyProgram(instructions)


@given(st.integers(0, 1 << 400))
@settings(max_examples=300)
def test_decode_matches_naive_mirror_on_long_codes(e):
    # long random codes end in every kind of truncated tail
    prog = decode(e)
    assert prog.instructions == naive_decode(e)
    assert ToyProgram(prog.instructions) == prog


def test_liveness_matches_naive_mirror_exhaustively():
    for e in range(1 << 12):
        prog = decode(e)
        assert prog.live == naive_live(prog.instructions), e


_ASSEMBLED = assemble("""
    jz r0, out
loop:
    jmp loop
out:
    jz r1, never
    halt r0
never:
""")


@pytest.mark.parametrize("p", [
    EMPTY_PROGRAM, IDENTITY, CONST1, _ASSEMBLED,
    program([(OP_JMP, 99)]),
    program([(OP_JMP, 0), (OP_HALT, 0)]),
    program([(OP_JZ, 1, 2), (OP_HALT, 0), (OP_JMP, 0)]),
    program([(OP_LOAD, 0, 0), (OP_JZ, 0, 0), (OP_HALT, 0)]),
    program([(OP_JZ, 0, 3), (OP_JMP, 1), (OP_HALT, 0), (OP_JMP, 3)]),
    decode(ZERO_INDEX), decode(const_index(5)),
])
def test_liveness_of_crafted_programs(p):
    assert p.live == naive_live(p.instructions)
    assert ToyProgram(p.instructions).live == decode(encode(p)).live == p.live


@given(program_st)
def test_liveness_of_random_programs(p):
    assert p.live == naive_live(p.instructions) == decode(encode(p)).live


def test_liveness_is_not_part_of_the_value():
    assert decode(0) == decode(1) == EMPTY_PROGRAM
    p = decode(encode(CONST1))
    forged = object.__new__(ToyProgram)
    object.__setattr__(forged, "instructions", p.instructions)
    object.__setattr__(forged, "live", (False,) * len(p))
    assert p.live != forged.live
    assert forged == p == CONST1 and hash(forged) == hash(p) == hash(CONST1)
    assert repr(forged) == repr(p) == f"ToyProgram(instructions={p.instructions!r})"


@given(st.one_of(program_st.map(encode), st.integers(0, 1 << 200)),
       st.integers(0, 1 << 70))
@settings(max_examples=300)
def test_smn_fill_matches_reencoding(e, a):
    assert smn_fill(e, a) == naive_smn_fill(e, a)


def test_smn_fill_rejects_negative_arguments():
    with pytest.raises(ValueError, match="s-m-n parameters are naturals"):
        smn_fill(encode(IDENTITY), -1)
    with pytest.raises(ValueError, match="indices are naturals"):
        smn_fill(-5, 1)


@pytest.mark.parametrize("run", [eval_program, eval_steps])
def test_eval_rejects_negative_input(run):
    with pytest.raises(ValueError, match="inputs are naturals"):
        run(encode(IDENTITY), -3, 10)
    with pytest.raises(ValueError, match="budget is a natural"):
        run(encode(IDENTITY), 3, -1)


@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_pairing_bijection(a, b):
    assert unpair(pair(a, b)) == (a, b)


_huge = st.one_of(st.integers(0, 300), st.integers(0, 1 << 3000))


@given(_huge, st.lists(_huge, min_size=1, max_size=4))
@settings(max_examples=200)
def test_pairing_formula_on_huge_operands(a, bs):
    # one operand against several, as an s-m-n parameter meets its inputs
    for b in bs:
        for x, y in ((a, b), (b, a)):
            z = pair(x, y)
            assert z == _naive_pair(x, y)
            assert unpair(z) == (x, y)


@given(st.integers(0, 10**9))
def test_unpair_pair_identity(z):
    a, b = unpair(z)
    assert pair(a, b) == z


@given(st.frozensets(st.integers(0, 200), max_size=20))
def test_finite_set_coding(members):
    assert gamma(gamma_inverse(members)) == members


# ---------------------------------------------------------------------------
# Evaluation semantics.

def test_empty_program_diverges():
    assert eval_program(0, 0, 10**4) is RUNNING


def test_identity_and_const():
    for x in (0, 1, 5, 999):
        assert eval_program(23, x, 10) == Halted(x)
    assert eval_program(encode(CONST1), 7, 10) == Halted(1)


def test_jump_out_of_range_diverges():
    e = encode(program([(OP_JMP, 99)]))
    assert eval_program(e, 0, 10**5) is RUNNING


def test_pure_jump_cycle_diverges_fast():
    looper = program([(OP_JMP, 0), (OP_HALT, 0)])
    # would burn any budget; the cycle detector must still answer quickly
    assert eval_program(encode(looper), 0, 10**9) is RUNNING


def test_oracle_instruction():
    probe = program([(OP_ORACLE, 1, 0), (OP_HALT, 1)])
    e = encode(probe)
    assert eval_steps(e, 4, 10, EVENS)[0] == Halted(1)
    assert eval_steps(e, 5, 10, EVENS)[0] == Halted(0)
    assert eval_program(e, 5, 10) == Halted(0)  # default oracle is all zeros
    assert eval_steps(e, 2, 10, PrefixOracle((0, 0, 1)))[0] == Halted(1)


def test_halting_budget_is_tight():
    # steps reported on halt are exactly the minimal sufficient budget
    cases = [(23, 5), (encode(CONST1), 0)]
    for e, x in cases:
        out, used = eval_steps(e, x, 100)
        assert isinstance(out, Halted)
        assert eval_program(e, x, used) == out
        assert eval_program(e, x, used - 1) is RUNNING


def test_halted_value_agrees_with_eval_program():
    nested = (UNIV2_INDEX, pair(IDENTITY_INDEX, 6))
    for e, x in [(IDENTITY_INDEX, 5), (encode(CONST1), 0), (const_index(7), 3),
                 (EVEN_HALT_INDEX, 4), nested]:
        used = eval_steps(e, x, 10**4)[1]
        for budget in (used - 1, used, used + 1, 10**4):
            out = eval_program(e, x, budget)
            want = out.value if isinstance(out, Halted) else None
            assert halted_value(e, x, budget) == want
            assert (want is None) == (budget < used)
    dead = encode(program([(OP_JMP, 0), (OP_HALT, 0)]))
    assert not decode(dead).live[0]
    assert eval_program(dead, 0, 10**9) is RUNNING
    assert halted_value(dead, 0, 10**9) is None


@given(program_st, st.integers(0, 8), st.integers(0, 120))
@settings(max_examples=150, deadline=None)
def test_budget_monotone(p, x, budget):
    e = encode(p)
    out, used = eval_steps(e, x, budget)
    if isinstance(out, Halted):
        # absorbing: same value at the exact budget and at larger ones
        assert eval_program(e, x, used) == out
        assert eval_program(e, x, budget + 7) == out
        if used:
            assert eval_program(e, x, used - 1) is RUNNING
    else:
        assert used == budget


def test_matches_naive_interpreter_on_index_sweep():
    for e in range(4000):
        for x in (0, 1, 5):
            fast = eval_steps(e, x, 64)
            slow = naive_eval(e, x, 64)
            assert fast == slow, (e, x, fast, slow)


def test_matches_naive_interpreter_on_crafted_programs():
    add_loop = program([
        (OP_LOAD, 1, 3),
        (OP_ADD, 2, 2, 1),
        (OP_LOAD, 3, 1),
        (OP_SUB, 0, 0, 3),
        (OP_JZ, 0, 6),
        (OP_JMP, 1),
        (OP_HALT, 2),
    ])
    nested_univ = program([
        (OP_LOAD, 1, 23),
        (OP_UNIV, 2, 1, 0),
        (OP_UNIV, 3, 1, 2),
        (OP_HALT, 3),
    ])
    budv_probe = program([
        (OP_LOAD, 2, 23),
        (OP_MOV, 3, 0),
        (OP_LOAD, 4, 2),
        (OP_BUDV, 1, 2, 3, 4),
        (OP_HALT, 1),
    ])
    pairing = program([
        (OP_PAIR, 1, 0, 0),
        (OP_LEFT, 2, 1),
        (OP_RIGHT, 3, 1),
        (OP_ADD, 4, 2, 3),
        (OP_MUL, 4, 4, 4),
        (OP_HALT, 4),
    ])
    smn_call = program([
        (OP_LOAD, 1, encode(LEFT_PROG)),
        (OP_SMN, 2, 1, 0),
        (OP_UNIV, 3, 2, 0),
        (OP_ADD, 3, 3, 0),
        (OP_HALT, 3),
    ])
    # counts the even numbers below the input: oracle bit, then a loop
    oracle_count = program([
        (OP_LOAD, 1, 1),
        (OP_JZ, 0, 7),
        (OP_SUB, 0, 0, 1),
        (OP_ORACLE, 3, 0),
        (OP_ADD, 2, 2, 3),
        (OP_BUDV, 4, 2, 0, 1),
        (OP_JMP, 1),
        (OP_HALT, 2),
    ])
    for p in (add_loop, nested_univ, budv_probe, pairing, smn_call, oracle_count):
        e = encode(p)
        for budget in (0, 1, 3, 10, 50, 300):
            for x in range(6):
                for oracle in (None, EVENS):
                    assert_eval_matches_naive(e, x, budget, oracle)
            assert_window_matches_naive(e, budget)


@given(program_st, st.integers(0, 6))
@settings(max_examples=120, deadline=None)
def test_matches_naive_interpreter_random(p, x):
    e = encode(p)
    for budget in (0, 5, 48):
        assert_eval_matches_naive(e, x, budget)
        if not is_flat(p):
            assert_window_matches_naive(e, budget)
    assert_eval_matches_naive(e, x, 48, EVENS)


# Programs dead at pc 0: no halt anywhere, or a first jump to itself.
# eval_steps answers them without entering _run.
dead_program_st = st.one_of(
    st.lists(instruction_st.filter(lambda ins: ins[0] != OP_HALT), max_size=8),
    st.lists(instruction_st, max_size=7).map(lambda body: [(OP_JMP, 0), *body]),
).map(program)


@given(st.one_of(program_st, dead_program_st), st.integers(0, 6), st.integers(0, 60))
@settings(max_examples=200, deadline=None)
def test_eval_steps_matches_naive_interpreter_on_dead_programs(p, x, budget):
    e = encode(p)
    for b in (0, budget):
        assert eval_steps(e, x, b) == naive_eval(e, x, b), (p, x, b)
        assert eval_steps(e, x, b, EVENS) == naive_eval(e, x, b, EVENS), (p, x, b)


@given(dead_program_st, st.integers(0, 6), st.integers(0, 60))
@settings(max_examples=50, deadline=None)
def test_dead_programs_never_enter_the_interpreter(p, x, budget):
    assert naive_live(p.instructions)[:1] != (True,)

    def entered(*args):
        raise AssertionError("a program dead at pc 0 entered _run")
    saved, machine._run = machine._run, entered
    try:
        assert eval_steps(encode(p), x, budget) == (RUNNING, budget)
    finally:
        machine._run = saved


# Looping programs: few registers, small constants and in-range jump
# targets, so configurations repeat well inside the budget.  No mul, pair
# or smn (values would grow without bound) and no univ or budv (the naive
# mirror recurses once per nested call).
_LOOP_OPS = (OP_LOAD, OP_HALT, OP_JZ, OP_JMP, OP_ADD, OP_SUB, OP_MOV,
             OP_LEFT, OP_RIGHT, OP_DIV, OP_MOD, OP_ORACLE)


def _loop_instruction(length):
    return st.sampled_from(_LOOP_OPS).flatmap(
        lambda op: st.tuples(
            st.just(op),
            *(st.integers(0, 3) if kind == "r"
              else st.integers(0, length) if op in (OP_JZ, OP_JMP)
              else st.integers(0, 5)
              for kind in OP_SIGNATURE[op]),
        ))


looping_program_st = st.integers(1, 7).flatmap(
    lambda length: st.lists(_loop_instruction(length), min_size=length,
                            max_size=length)).map(program)


@given(looping_program_st, st.integers(0, 6), st.integers(0, 2000))
@settings(max_examples=200, deadline=None)
def test_matches_naive_interpreter_on_looping_programs(p, x, budget):
    e = encode(p)
    for oracle in (None, EVENS):
        want = naive_eval(e, x, budget, oracle)
        assert eval_steps(e, x, budget, oracle) == want
        assert compiled_eval(e, x, budget, oracle) == want


LOOP3 = program([(OP_LOAD, 0, 0), (OP_JZ, 0, 0), (OP_HALT, 0)])


@pytest.mark.parametrize("looper", [
    LOOP3,  # the load resets the register the jump tests
    program([(OP_LOAD, 1, encode(LOOP3)), (OP_UNIV, 2, 1, 0), (OP_HALT, 2)]),
    # budv answers the same each time round: a 50-step bound, covered
    program([(OP_LOAD, 2, encode(LOOP3)), (OP_LOAD, 4, 50),
             (OP_BUDV, 1, 2, 3, 4), (OP_JMP, 2)]),
    # a bound the ambient budget cannot cover: the inner run must still end
    program([(OP_LOAD, 2, encode(LOOP3)), (OP_LOAD, 4, 10**12),
             (OP_BUDV, 1, 2, 3, 4), (OP_JMP, 2)]),
    # pure jumps, two to a round, with a halt the liveness pass cannot rule out
    program([(OP_JZ, 1, 2), (OP_HALT, 0), (OP_JMP, 0)]),
    # the two budv loopers again, live: a taken jz on the zero r5 and a halt
    # behind it.  Most jumps are the callee's, so the loop check may first
    # save a configuration of a callee that then ends
    program([(OP_LOAD, 2, encode(LOOP3)), (OP_LOAD, 4, 50),
             (OP_BUDV, 1, 2, 3, 4), (OP_JZ, 5, 2), (OP_HALT, 1)]),
    program([(OP_LOAD, 2, encode(LOOP3)), (OP_LOAD, 4, 10**12),
             (OP_BUDV, 1, 2, 3, 4), (OP_JZ, 5, 2), (OP_HALT, 1)]),
    # a univ callee that counts 20 down through its own jumps, then halts
    program([(OP_LOAD, 2, encode(program([(OP_LOAD, 1, 1), (OP_JZ, 0, 4), (OP_SUB, 0, 0, 1),
                                           (OP_JMP, 1), (OP_HALT, 0)]))),
             (OP_LOAD, 3, 20), (OP_UNIV, 1, 2, 3), (OP_JZ, 5, 2), (OP_HALT, 1)]),
])
def test_configuration_loops_end_at_once(looper):
    e = encode(looper)
    for run in (eval_steps, compiled_eval):
        start = time.perf_counter()
        assert run(e, 3, 10**9) == (RUNNING, 10**9)
        assert time.perf_counter() - start < 0.5
    start = time.perf_counter()
    assert domain_window(e, _COMPILE_MIN_RUNS, 10**9) == frozenset()
    assert time.perf_counter() - start < 0.5


COUNTDOWN = program([
    (OP_LOAD, 1, 1),
    (OP_JZ, 0, 4),
    (OP_SUB, 0, 0, 1),
    (OP_JMP, 1),
    (OP_HALT, 0),
])
# the countdown with univ and budv in its body: frames come and go
COUNTDOWN_CALLS = program([
    (OP_LOAD, 1, 1),
    (OP_LOAD, 2, 23),
    (OP_LOAD, 3, 5),
    (OP_JZ, 0, 8),
    (OP_SUB, 0, 0, 1),
    (OP_UNIV, 4, 2, 0),
    (OP_BUDV, 5, 2, 4, 3),
    (OP_JMP, 3),
    (OP_HALT, 5),
])
# the callee's first jump lands on the caller's saved pc and register
# values, in another frame
SAME_LANDING = program([
    (OP_JMP, 1),
    (OP_LOAD, 1, encode(program([(OP_JMP, 1), (OP_HALT, 0)]))),
    (OP_UNIV, 2, 1, 0),
    (OP_HALT, 2),
])
# left/right of a register no longer holding the last pair
PAIR_OVERWRITTEN = program([
    (OP_PAIR, 1, 0, 0),
    (OP_MOV, 2, 1),
    (OP_LOAD, 3, 7),
    (OP_PAIR, 1, 0, 3),
    (OP_LOAD, 1, 9),
    (OP_LEFT, 4, 1),
    (OP_RIGHT, 5, 1),
    (OP_LEFT, 6, 2),
    (OP_RIGHT, 7, 2),
    (OP_PAIR, 8, 4, 5),
    (OP_PAIR, 9, 6, 7),
    (OP_PAIR, 10, 8, 9),
    (OP_HALT, 10),
])


@pytest.mark.parametrize("p, at_40", [
    (COUNTDOWN, 0),
    (COUNTDOWN_CALLS, 1),
    (SAME_LANDING, 40),
    (PAIR_OVERWRITTEN, pair(9, pair(40, 40))),  # pair(left(9), right(9)) = 9
])
def test_near_loops_match_naive_interpreter(p, at_40):
    e = encode(p)
    for budget in (0, 1, 5, 17, 64, 300, 2000):
        for x in (0, 1, 2, 7, 40, 10**30):
            assert_eval_matches_naive(e, x, budget)
        assert_window_matches_naive(e, budget)
    assert eval_program(e, 40, 10**6) == Halted(at_40)


# ---------------------------------------------------------------------------
# UNIV / BUDV.

def test_univ_shares_budget():
    # outer: run identity on the input, then halt; inner steps count
    outer = program([(OP_LOAD, 1, 23), (OP_UNIV, 2, 1, 0), (OP_HALT, 2)])
    e = encode(outer)
    out, used = eval_steps(e, 9, 100)
    assert out == Halted(9)
    assert used == 4  # load + univ + (inner halt) + halt
    assert eval_program(e, 9, 3) is RUNNING
    for b in range(6):
        assert_eval_matches_naive(e, 9, b)
        assert_window_matches_naive(e, b)


def test_univ_of_diverger_diverges():
    outer = program([(OP_LOAD, 1, 0), (OP_UNIV, 2, 1, 0), (OP_HALT, 2)])
    assert eval_program(encode(outer), 0, 10**4) is RUNNING
    assert_eval_matches_naive(encode(outer), 0, 10**4)
    assert_window_matches_naive(encode(outer), 10**4)


def test_budv_verdict_totality():
    # bound too small -> verdict 0; generous bound on diverger -> verdict 0
    probe = program([
        (OP_LOAD, 2, encode(CONST1)),
        (OP_LOAD, 4, 1),
        (OP_BUDV, 1, 2, 3, 4),
        (OP_HALT, 1),
    ])
    assert eval_program(encode(probe), 0, 100) == Halted(0)
    div_probe = program([
        (OP_LOAD, 4, 30),
        (OP_BUDV, 1, 2, 3, 4),  # r2 = 0: the empty program
        (OP_HALT, 1),
    ])
    out, used = eval_steps(encode(div_probe), 0, 100)
    assert out == Halted(0)
    assert used == 1 + 1 + 30 + 1  # load, budv itself, inner timeout, halt


def test_budv_budget_independent():
    # the verdict may be withheld (Running) at small ambient budgets but can
    # never change once the ambient budget covers the declared bound
    div_probe = program([
        (OP_LOAD, 4, 30),
        (OP_BUDV, 1, 2, 3, 4),
        (OP_HALT, 1),
    ])
    e = encode(div_probe)
    verdicts = [eval_program(e, 0, b) for b in range(0, 40)]
    for b in range(40):
        assert_eval_matches_naive(e, 0, b)
        assert_window_matches_naive(e, b)
    halted = [v for v in verdicts if isinstance(v, Halted)]
    assert all(v == Halted(0) for v in halted)
    # Running up to the resolution point, Halted(0) from there on
    first = next(i for i, v in enumerate(verdicts) if isinstance(v, Halted))
    assert all(v is RUNNING for v in verdicts[:first])
    assert all(isinstance(v, Halted) for v in verdicts[first:])


# phi_e(x) = phi_e(x) through univ or budv: every run nests without end
SELF_NESTING = {
    op: self_reference(encode(assemble(
        f"left r1, r0\nright r2, r0\nload r3, 1000000\n{call}\nhalt r4")))
    for op, call in (("univ", "univ r4, r1, r2"), ("budv", "budv r4, r1, r2, r3"))
}


@pytest.mark.parametrize("op", sorted(SELF_NESTING))
def test_self_nesting_runs_until_the_budget(op):
    assert eval_steps(SELF_NESTING[op], 0, 10**5) == (RUNNING, 10**5)


def _countdown_chain(bound):
    """phi_e(x) = 1 + phi_e(x - 1) through budv at the given bound (a
    source operand over r2, the input less one), and phi_e(0) = 0."""
    return self_reference(encode(assemble(f"""
        left r1, r0
        right r2, r0
        jz r2, 8
        load r5, 1
        sub r2, r2, r5
        {bound}
        budv r4, r1, r2, r3
        halt r4
        halt r2""")))


@pytest.mark.parametrize("bound", [
    "load r3, 1000000",  # covers every callee: x itself
    "load r3, 1000",  # only the outermost call can pay its bound: 0 after it
    "mul r3, r2, r2",  # the deepest timeouts end inside their callers' timeouts
])
def test_deep_budv_chain_needs_no_python_recursion(bound):
    e = _countdown_chain(bound)
    budgets = [0, 1, 50, 1026, 1027, 2000, 5217, 5218, 5422, 5423, 10**6, 10**7]
    want = [naive_eval(e, 200, b) for b in budgets]  # 200 levels deep at most
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)  # a recursive interpreter needs a frame per level
    try:
        got = [eval_steps(e, 200, b) for b in budgets]
    finally:
        sys.setrecursionlimit(limit)
    assert got == want
    assert want[-1] == {"load r3, 1000000": (Halted(200), 5423), "load r3, 1000": (Halted(0), 1027),
                        "mul r3, r2, r2": (Halted(186), 5218)}[bound]


# ---------------------------------------------------------------------------
# s-m-n and the recursion theorem.

LEFT_PROG = program([(OP_LEFT, 1, 0), (OP_HALT, 1)])


@given(st.integers(0, 400), st.integers(0, 400))
@settings(max_examples=80, deadline=None)
def test_smn_correctness(a, x):
    ea = smn_fill(encode(LEFT_PROG), a)
    assert eval_program(ea, x, 200) == Halted(a)


def test_smn_step_overhead_constant():
    e = encode(LEFT_PROG)
    for a in (0, 2, 50):
        for x in (0, 3, 11):
            _, s_plain = eval_steps(e, pair(a, x), 300)
            out, s_filled = eval_steps(smn_fill(e, a), x, 300)
            assert out == Halted(a)
            assert s_filled - s_plain == SMN_STEP_OVERHEAD


def test_smn_shifts_jump_targets():
    # phi_e(pair) with a branch; smn must preserve the branch structure
    branchy = program([
        (OP_RIGHT, 2, 0),
        (OP_JZ, 2, 4),
        (OP_LOAD, 3, 7),
        (OP_HALT, 3),
        (OP_LOAD, 3, 9),
        (OP_HALT, 3),
    ])
    e = encode(branchy)
    ea = smn_fill(e, 5)
    assert eval_program(ea, 0, 100) == Halted(9)
    assert eval_program(ea, 1, 100) == Halted(7)


def test_smn_on_diverger_still_diverges():
    assert eval_program(smn_fill(0, 3), 0, 10**4) is RUNNING


def test_recursion_theorem_quine():
    k = encode(LEFT_PROG)
    t = encode(program([(OP_LOAD, 1, k), (OP_SMN, 2, 1, 0), (OP_HALT, 2)]))
    e_star = fixed_point(t)
    for x in (0, 1, 9):
        assert eval_program(e_star, x, 10**4) == Halted(e_star)


def test_recursion_theorem_general_transform():
    # F(u) = index of the constant-(u+1) function, via smn over a driver
    # driver(pair(u, x)) = u + 1
    driver = program([
        (OP_LEFT, 1, 0),
        (OP_LOAD, 2, 1),
        (OP_ADD, 3, 1, 2),
        (OP_HALT, 3),
    ])
    t = encode(program([
        (OP_LOAD, 1, encode(driver)),
        (OP_SMN, 2, 1, 0),
        (OP_HALT, 2),
    ]))
    e_star = fixed_point(t)
    # phi_{e_star} must agree with phi_{F(e_star)}: constant e_star + 1
    for x in (0, 2, 17):
        assert eval_program(e_star, x, 10**4) == Halted(e_star + 1)


@pytest.mark.parametrize("driver", [
    LEFT_PROG,  # phi_e(x) = e: a quine
    program([(OP_LEFT, 1, 0), (OP_RIGHT, 2, 0), (OP_ADD, 3, 1, 2), (OP_HALT, 3)]),
])
def test_self_reference_reads_its_own_index(driver):
    d = encode(driver)
    e = self_reference(d)
    for x in (0, 1, 9):
        want = eval_program(d, pair(e, x), 10**4)
        assert isinstance(want, Halted)
        assert eval_program(e, x, 10**4) == want
        assert want.value == (e if driver == LEFT_PROG else e + x)


def test_fixed_point_budget_guard():
    # a transform that never halts cannot certify a fixed point
    with pytest.raises(WitnessBudgetExceeded):
        fixed_point(0, budget=500)


def test_diagonal_index_of_const_program():
    # phi_u(u) = 23 for a constant-23 u, so d(u) computes the identity
    u = encode(program([(OP_LOAD, 1, 23), (OP_HALT, 1)]))
    d = diagonal_index(u)
    assert eval_program(d, 11, 1000) == Halted(11)


# ---------------------------------------------------------------------------
# R.e. set enumeration.

def test_enumerate_re_even_halting():
    e = encode(EVEN_HALT)
    assert enumerate_re(e, 6) == frozenset({0, 2, 4, 6})
    assert enumerate_re(e, 3) == frozenset()  # four steps are needed to halt
    assert enumerate_re(e, 4) == frozenset({0, 2, 4})
    assert enumerate_re(0, 50) == frozenset()


@pytest.mark.parametrize("e", [0, IDENTITY_INDEX])
def test_windows_reject_negative_bounds(e):
    with pytest.raises(ValueError, match="budget is a natural"):
        domain_window(e, 5, -1)
    with pytest.raises(ValueError, match="horizon is a natural"):
        domain_window(e, -1, 5)
    for window in (enumerate_re, re_enumeration_order, EnumerationScan):
        with pytest.raises(ValueError, match="budget is a natural"):
            window(e, -2)
    assert domain_window(e, 0, 0) == frozenset()
    scan = EnumerationScan(e, 0)
    assert (scan.grows(), scan.first(1), scan.order()) == (False, (), ())


@given(st.integers(0, 2000), st.integers(0, 40))
@settings(max_examples=60, deadline=None)
def test_enumerate_re_monotone(e, budget):
    small = enumerate_re(e, budget)
    big = enumerate_re(e, budget + 13)
    assert small <= big
    assert all(x <= budget for x in small)


def test_enumeration_order_stable_under_budget_growth():
    for e in (encode(EVEN_HALT), 23, encode(CONST1)):
        prev = re_enumeration_order(e, 10)
        for budget in (20, 45, 80):
            cur = re_enumeration_order(e, budget)
            assert cur[:len(prev)] == prev
            prev = cur


def test_enumeration_order_breaks_ties_by_value():
    # identity halts on x in exactly 1 step; order key is (max(1, x), x)
    order = re_enumeration_order(23, 5)
    assert order == (0, 1, 2, 3, 4, 5)


def _order_by_eval_steps(e, budget):
    """Canonical order rebuilt from eval_steps, one evaluation per input."""
    entries = []
    for x in range(budget + 1):
        out, steps = eval_steps(e, x, budget)
        if isinstance(out, Halted):
            entries.append((max(steps, x), x))
    return tuple(x for _, x in sorted(entries))


def _naive_growth(e, budget):
    """The canonical order and |W_{e,budget//2}|, each input run by naive_eval."""
    order = tuple(x for _, x in sorted(
        (max(steps, x), x) for x in range(budget + 1)
        for out, steps in [naive_eval(e, x, budget)] if out is not RUNNING))
    at_half = sum(naive_eval(e, x, budget // 2)[0] is not RUNNING for x in range(budget // 2 + 1))
    return order, at_half


def _check_scan(e, budget, order, at_half, ks):
    """Every answer of a fresh scan per k, asked in both orders, against the mirror."""
    grows = len(order) > at_half
    for k in ks:
        scan = EnumerationScan(e, budget)
        if k % 2:
            assert scan.grows() == grows, (e, budget)
        assert scan.first(k) == order[:k], (e, budget, k)
        assert scan.grows() == grows, (e, budget)
        assert scan.order() == order, (e, budget)
        assert scan.members() == sorted(order), (e, budget)


@given(program_st, st.integers(0, 60))
@settings(max_examples=150, deadline=None)
def test_growth_checkpoint_matches_two_passes(p, budget):
    e = encode(p)
    order, at_half = _naive_growth(e, budget)
    assert order == re_enumeration_order(e, budget) == _order_by_eval_steps(e, budget)
    assert at_half == len(_order_by_eval_steps(e, budget // 2))
    _check_scan(e, budget, order, at_half, range(budget + 3))


ZERO_ONLY = program([(OP_JZ, 0, 2), (OP_JMP, 1), (OP_HALT, 0)])
# halts on 0 in six steps and on any other input in two, so 0 enters the
# canonical order after 5 and before 6
SLOW_ZERO = program([(OP_JZ, 0, 2), (OP_HALT, 0)] + [(OP_LOAD, 1, 0)] * 4 + [(OP_HALT, 0)])


def test_growth_checkpoint_on_stock_sets():
    # runs halting in exactly budget//2 steps sit on the checkpoint's edge;
    # at budgets 2 and 3 only a slow run below the checkpoint shows growth
    assert re_enumeration_order(encode(SLOW_ZERO), 11) == (1, 2, 3, 4, 5, 0, 6, 7, 8, 9, 10, 11)
    for prog in (IDENTITY, CONST1, EVEN_HALT, ZERO_ONLY, SLOW_ZERO):
        for budget in range(12):
            _check_scan(encode(prog), budget, *_naive_growth(encode(prog), budget),
                        range(budget + 3))
    # evens keep growing between the checkpoint and the budget; a finite
    # set has stopped by then
    scan = EnumerationScan(encode(EVEN_HALT), 40)
    assert scan.grows() and scan.first(3) == (0, 2, 4)
    assert len(scan.order()) > len(re_enumeration_order(encode(EVEN_HALT), 20))
    _check_scan(encode(ZERO_ONLY), 40, (0,), 1, range(4))


def _count_runs(monkeypatch):
    """Inputs run by every window built from here on, in order."""
    ran = []

    def counting(prog, runs):
        run = _window_runner(prog, runs)

        def counted(x, budget, oracle):
            ran.append(x)
            return run(x, budget, oracle)
        return counted
    monkeypatch.setattr(machine, "_window_runner", counting)
    return ran


def test_scan_runs_only_the_inputs_its_answer_needs(monkeypatch):
    ran = _count_runs(monkeypatch)
    sigma, cert = blocking_prefix((1,), encode(EVEN_HALT), const_index(2), 100_000)
    assert (sigma, cert["order_prefix"]) == ((1, 0, 1, 0, 1), [0, 2, 4])
    assert len(ran) < 20 and len(set(ran)) == len(ran), ran


def test_scan_runs_each_input_once_on_a_finite_set(monkeypatch):
    ran = _count_runs(monkeypatch)
    scan = EnumerationScan(encode(ZERO_ONLY), 200)
    assert scan.first(1) == (0,)
    assert not scan.grows()
    assert scan.order() == (0,) and scan.members() == [0]
    assert sorted(ran) == list(range(201))
    # a dead program halts nowhere, so nothing runs
    assert EnumerationScan(0, 200).order() == () and len(ran) == 201


# ---------------------------------------------------------------------------
# Self-referential slices: every run pairs one huge s-m-n parameter with
# its input, the case the cached triangle is for.

@pytest.mark.parametrize("f, base", [(ZERO_INDEX, 5), (const_index(2), 7), (const_index(1), 0)])
def test_interval_slice_windows_match_naive_interpreter(f, base):
    a = interval_slice_index(f, base)
    horizon = base + 6
    for budget in (0, 5, 20, 60, 10_000):
        naive = frozenset(x for x in range(horizon) if naive_eval(a, x, budget)[0] != RUNNING)
        assert domain_window(a, horizon, budget) == naive, budget
        for x in range(horizon):
            assert_eval_matches_naive(a, x, budget)
        assert_window_matches_naive(a, budget)
    assert domain_window(a, horizon, 10_000) == frozenset(range(base, base + 1 + eval_program(f, a, 100).value))


# ---------------------------------------------------------------------------
# Compiled windows: the generated function against both interpreters.

def test_compiled_matches_interpreters_on_every_small_index():
    # small budgets: mul loops square their operands
    for e in range(2**12):
        p = decode(e)
        run = _compile(p)
        for budget in (0, 1, 2, 3, 5, 8, 13, 21):
            for x in range(12):
                want = _run(p, x, budget, None)
                assert run(x, budget) == want, (e, x, budget)
                halted, value, steps = _naive_run(p.instructions, x, budget, None)
                assert want == ((value if halted else None), steps), (e, x, budget)
            if not is_flat(p):
                assert_window_matches_naive(e, budget)


@pytest.mark.parametrize("e", [
    encode(EVEN_HALT),
    # EVEN_HALT with r1 and r2 swapped: a renaming must not change the mirror
    encode(program([(OP_LOAD, 1, 2), (OP_MOD, 2, 0, 1), (OP_JZ, 2, 4), (OP_JMP, 3),
                    (OP_HALT, 0)])),
    interval_slice_index(const_index(2), 7),
    self_reference(encode(LEFT_PROG)),
    self_reference(encode(program([(OP_LEFT, 1, 0), (OP_RIGHT, 2, 0), (OP_ADD, 3, 1, 2),
                                   (OP_HALT, 3)]))),
])
def test_compiled_matches_interpreters_on_stock_indices(e):
    for budget in (0, 1, 3, 4, 5, 12, 13, 40, 10_000):
        for x in (0, 1, 2, 5, 8, 9, 10**20):
            assert_eval_matches_naive(e, x, budget)
        assert_window_matches_naive(e, budget)


@pytest.mark.parametrize("runs", [_COMPILE_MIN_RUNS - 1, _COMPILE_MIN_RUNS])
def test_windows_match_naive_loop_across_the_compile_threshold(runs):
    compiled = not isinstance(_window_runner(decode(encode(EVEN_HALT)), runs), partial)
    assert compiled == (runs >= _COMPILE_MIN_RUNS)
    for e in (encode(EVEN_HALT), IDENTITY_INDEX, encode(COUNTDOWN_CALLS),
              interval_slice_index(const_index(1), 30), self_reference(encode(LEFT_PROG))):
        for budget in (0, 3, 4, 13, 200):
            naive = frozenset(x for x in range(runs) if naive_eval(e, x, budget)[0] is not RUNNING)
            assert domain_window(e, runs, budget) == naive, (e, budget)
        _check_scan(e, runs - 1, *_naive_growth(e, runs - 1), (0, 1, 3, runs + 1))


NESTED_STOCK = [COUNTDOWN_CALLS, SAME_LANDING, decode(UNIV2_INDEX),
                decode(interval_slice_index(const_index(2), 7)),
                decode(self_reference(encode(LEFT_PROG))), *map(decode, SELF_NESTING.values())]


NESTED_IDS = ["countdown-calls", "same-landing", "univ2", "slice-2", "self-left", "self-budv",
              "self-univ"]
# Past the compile threshold: the windows below compile a callee that every
# input calls at input _COMPILE_MIN_RUNS - 1, and run it compiled after that.
NESTED_HORIZON = _COMPILE_MIN_RUNS + 8


@given(st.one_of(st.sampled_from(NESTED_STOCK), program_st.filter(lambda p: not is_flat(p))),
       st.integers(0, 40))
@settings(max_examples=100, deadline=None)
def test_nested_windows_compile_and_match_naive(p, budget):
    # budgets stay small: mul squares its operand every round
    assert _window_runner(p, _COMPILE_MIN_RUNS) is _compile(p)
    assert isinstance(_window_runner(p, _COMPILE_MIN_RUNS - 1), partial)
    assert_window_matches_naive(encode(p), budget)


def _budgets_around_halting(e, inputs):
    """Budgets 0 and s-1, s, s+1 for the halting step s of each run of e on `inputs`."""
    budgets = {0}
    for x in inputs:
        out, steps = naive_eval(e, x, 10**4)
        if out is not RUNNING:
            budgets.update((steps - 1, steps, steps + 1))
    return sorted(budgets)


@pytest.mark.parametrize("p", NESTED_STOCK, ids=NESTED_IDS)
def test_nested_windows_match_naive_around_each_halting_step(p):
    e = encode(p)
    budgets = _budgets_around_halting(e, (0, 1, 2, NESTED_HORIZON - 1))
    if budgets == [0]:  # never halts (the self-nesting programs)
        budgets = [0, 1, 50, 300]
    for budget in budgets:
        machine._halting.clear()  # every nested call that halts runs again
        assert_window_matches_naive(e, budget, NESTED_HORIZON)
        for x in (0, NESTED_HORIZON - 1):
            assert compiled_eval(e, x, budget) == naive_eval(e, x, budget), (x, budget)


@pytest.mark.parametrize("bound", ["load r3, 1000000", "load r3, 1000", "mul r3, r2, r2"])
def test_deep_budv_chain_windows_match_naive(bound):
    e = _countdown_chain(bound)
    window_budgets = _budgets_around_halting(e, (NESTED_HORIZON - 1,))[1:]
    windows = [frozenset(x for x in range(NESTED_HORIZON) if naive_eval(e, x, b)[0] is not RUNNING)
               for b in window_budgets]
    deep_budgets = _budgets_around_halting(e, (200,)) + [10**6]
    deep = [naive_eval(e, 200, b) for b in deep_budgets]  # 200 levels deep at most
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)  # a recursive interpreter needs a frame per level
    try:
        machine._halting.clear()
        # every input calls the callee phi_{phi_v(v)}, so the window compiles it
        got_windows = [domain_window(e, NESTED_HORIZON, b) for b in window_budgets]
        # the compiled callee calls e itself on every input past that: a
        # callee compiled in turn would nest generated frames level by level
        horizon = 2 * _COMPILE_MIN_RUNS + 8
        assert domain_window(e, horizon, 10**6) == frozenset(range(horizon))
        got_deep = []
        for b in deep_budgets:
            machine._halting.clear()  # the whole chain runs again
            got_deep.append(compiled_eval(e, 200, b))
    finally:
        sys.setrecursionlimit(limit)
    assert got_windows == windows
    assert got_deep == deep


def test_programs_of_one_shape_share_one_generated_function():
    five, seven = (assemble(f"load r1, {c}\nload r2, 3\nmul r1, r1, r2\nhalt r1") for c in (5, 7))
    assert _compile(five).__code__ is _compile(seven).__code__
    assert _compile(five)(0, 10) == (15, 4) and _compile(seven)(0, 10) == (21, 4)
    # the interval slices differ in their constants only: a slice index and
    # its callee each share one function over every target and base
    slices = [interval_slice_index(f, base) for f, base in ((const_index(2), 7), (ZERO_INDEX, 5))]
    assert _compile(decode(slices[0])).__code__ is _compile(decode(slices[1])).__code__
    callees = [halted_value(decode(a).instructions[0][2], decode(a).instructions[0][2], 1000)
               for a in slices]
    assert callees[0] != callees[1]
    assert _compile(decode(callees[0])).__code__ is _compile(decode(callees[1])).__code__


def test_window_compiles_no_callee_before_its_threshold(monkeypatch):
    # phi_x(x) on every input x: each callee index runs once a window
    e = encode(assemble("univ r1, r0, r0\nhalt r1"))
    monkeypatch.setattr(machine, "_callee_runs", {})
    monkeypatch.setattr(machine, "_hot_callees", {})
    compiled = []
    compile_ = machine._compile

    def recording(prog, hot=True):
        if not hot:
            compiled.append(prog)
        return compile_(prog, hot)
    monkeypatch.setattr(machine, "_compile", recording)
    assert len(domain_window(e, 20_000, 50)) > 0 and compiled == []
    horizon, budget = 200, 50
    want = frozenset(x for x in range(horizon) if naive_eval(e, x, budget)[0] is not RUNNING)
    monkeypatch.setattr(machine, "_callee_runs", {})
    for calls in range(1, _COMPILE_MIN_RUNS + 2):
        machine._halting.clear()  # so every callee runs again
        assert domain_window(e, horizon, budget) == want, calls
        assert len(compiled) == (horizon if calls >= _COMPILE_MIN_RUNS else 0), calls


def test_compiled_window_over_a_load_constant_too_long_to_print():
    a = 1 << 20000
    assert a.bit_length() * 0.30103 > sys.get_int_max_str_digits()
    e = smn_fill(encode(LEFT_PROG), a)
    budget = 2 + SMN_STEP_OVERHEAD
    assert domain_window(e, _COMPILE_MIN_RUNS, budget) == frozenset(range(_COMPILE_MIN_RUNS))
    assert domain_window(e, _COMPILE_MIN_RUNS, budget - 1) == frozenset()
    for x in (0, 7):
        assert compiled_eval(e, x, budget) == naive_eval(e, x, budget) == (Halted(a), budget)


def test_compiled_dispatch_over_thousands_of_blocks():
    # every jz on the zero register r1 is a taken jump to the next pc
    p = program([(OP_JZ, 1, pc + 1) for pc in range(3000)] + [(OP_HALT, 0)])
    e = encode(p)
    assert domain_window(e, _COMPILE_MIN_RUNS, 3001) == frozenset(range(_COMPILE_MIN_RUNS))
    assert domain_window(e, _COMPILE_MIN_RUNS, 3000) == frozenset()
    run = _compile(p)
    for budget in (0, 1500, 3000, 3001, 10**6):
        assert run(5, budget) == _run(p, 5, budget, None)


# ---------------------------------------------------------------------------
# The halting cache: nested calls that halted, replayed without a frame.

def _assert_entries_match_naive():
    """Every cached call is what naive_eval gives it at a budget past its steps."""
    for (index, arg), (value, steps) in machine._halting.items():
        assert naive_eval(index, arg, steps) == (Halted(value), steps), (index, arg)


def assert_memo_matches_naive(e, x, top=None):
    """eval_steps against naive_eval at every budget from 0 to `top` (default:
    a few past the halting step), with the cache cleared before each run,
    then again after one warming run at a larger budget."""
    if top is None:
        out, steps = naive_eval(e, x, 10**5)
        top = steps + 3 if isinstance(out, Halted) else 300
    want = [naive_eval(e, x, b) for b in range(top + 1)]
    cold = []
    for b in range(top + 1):
        machine._halting.clear()
        cold.append(eval_steps(e, x, b))
    assert cold == want, e
    machine._halting.clear()
    eval_steps(e, x, 2 * top + 50)
    _assert_entries_match_naive()
    assert [eval_steps(e, x, b) for b in range(top + 1)] == want, e
    _assert_entries_match_naive()


# A caller that runs a callee twice on the same argument (the second call
# can hit the entry the first one left), under univ or budv at a bound.
def _twice(callee, arg, call):
    return program([(OP_LOAD, 2, callee), (OP_LOAD, 3, arg), (OP_LOAD, 4, call[1]),
                    call[0], (OP_MOV, 6, 1), call[0], (OP_ADD, 1, 1, 6), (OP_HALT, 1)])


_CALLS = st.one_of(st.just(((OP_UNIV, 1, 2, 3), 0)),
                   st.integers(0, 40).map(lambda bound: ((OP_BUDV, 1, 2, 3, 4), bound)))


@given(st.one_of(
    program_st.filter(lambda p: not is_flat(p)),
    st.builds(_twice, st.one_of(program_st, looping_program_st).map(encode),
              st.integers(0, 6), _CALLS)),
    st.integers(0, 6))
@settings(max_examples=150, deadline=None)
def test_memo_matches_naive_on_random_nested_programs(p, x):
    # budgets stay small: mul squares its operand every round
    assert_memo_matches_naive(encode(p), x, top=min(naive_eval(encode(p), x, 40)[1] + 3, 40))


@pytest.mark.parametrize("e, x, top", [
    (interval_slice_index(const_index(2), 7), 8, None),
    (interval_slice_index(ZERO_INDEX, 5), 5, None),
    (interval_slice_index(const_index(1), 0), 3, None),
    (first_slice_index(encode(EVEN_HALT), const_index(2)), 4, None),
    (first_slice_index(encode(EVEN_HALT), const_index(2)), 3, None),
    (encode(COUNTDOWN_CALLS), 7, None),
    (encode(SAME_LANDING), 3, None),
    (_countdown_chain("load r3, 1000000"), 12, None),
    (_countdown_chain("load r3, 1000"), 12, None),
    (_countdown_chain("mul r3, r2, r2"), 12, None),
    # never halt: past 10^4 steps the recursive mirror would overflow Python's stack
    *((SELF_NESTING[op], 0, 300) for op in sorted(SELF_NESTING)),
], ids=["slice-2", "slice-0", "slice-1", "first-slice", "first-slice-short", "countdown-calls",
        "same-landing", "chain-covered", "chain-outer-bound", "chain-squared", "self-budv",
        "self-univ"])
def test_memo_matches_naive_on_stock_nested_programs(e, x, top):
    assert_memo_matches_naive(e, x, top)


@pytest.mark.parametrize("looper", [
    program([(OP_LOAD, 1, encode(LOOP3)), (OP_UNIV, 2, 1, 0), (OP_HALT, 2)]),
    program([(OP_LOAD, 2, encode(LOOP3)), (OP_LOAD, 4, 50), (OP_BUDV, 1, 2, 3, 4), (OP_JZ, 5, 2),
             (OP_HALT, 1)]),
    program([(OP_LOAD, 2, encode(program([(OP_LOAD, 1, 1), (OP_JZ, 0, 4), (OP_SUB, 0, 0, 1),
                                           (OP_JMP, 1), (OP_HALT, 0)]))),
             (OP_LOAD, 3, 20), (OP_UNIV, 1, 2, 3), (OP_JZ, 5, 2), (OP_HALT, 1)]),
])
def test_memo_matches_naive_on_looping_callers(looper):
    assert_memo_matches_naive(encode(looper), 3, top=300)


# CALLEE on 5 halts with 0 in CALLEE_STEPS steps; `_caller` calls it as its third step.
CALLEE_STEPS = 18
CALLEE = encode(COUNTDOWN)


def _caller(call, bound=0):
    return encode(program([(OP_LOAD, 2, CALLEE), (OP_LOAD, 4, bound), call, (OP_HALT, 1)]))


@pytest.fixture
def warm_countdown(monkeypatch):
    """The cache holding only CALLEE on 5, and the callees of the frames opened later."""
    machine._halting.clear()
    assert eval_steps(_caller((OP_UNIV, 1, 2, 0)), 5, 10**4) == (Halted(0), 3 + CALLEE_STEPS + 1)
    assert machine._halting == {(CALLEE, 5): (0, CALLEE_STEPS)}
    framed = []
    real = machine.decode
    monkeypatch.setattr(machine, "decode", lambda e: framed.append(e) or real(e))
    return framed


@pytest.mark.parametrize("bound, want", [
    (CALLEE_STEPS - 1, Halted(0)), (CALLEE_STEPS, Halted(1)), (CALLEE_STEPS + 1, Halted(1))])
def test_cached_callee_at_budv_bounds_around_its_steps(warm_countdown, bound, want):
    e = _caller((OP_BUDV, 1, 2, 0, 4), bound)
    for budget in range(3 + bound + 3):
        assert eval_steps(e, 5, budget) == naive_eval(e, 5, budget), budget
    assert eval_program(e, 5, 10**4) == want
    assert CALLEE not in warm_countdown


@pytest.mark.parametrize("left", [CALLEE_STEPS - 1, CALLEE_STEPS])
def test_cached_callee_with_univ_allowance_around_its_steps(warm_countdown, left):
    e = _caller((OP_UNIV, 1, 2, 0))
    budget = 3 + left  # the univ is the third step
    got = [eval_steps(e, 5, b) for b in (budget, budget + 1)]
    assert got == [naive_eval(e, 5, b) for b in (budget, budget + 1)]
    assert got == [(RUNNING, budget), (Halted(0) if left == CALLEE_STEPS else RUNNING, budget + 1)]
    assert CALLEE not in warm_countdown


@pytest.mark.parametrize("bound", [4 + CALLEE_STEPS - 1, 4 + CALLEE_STEPS, 4 + CALLEE_STEPS + 1,
                                   10**6])
def test_cached_callee_inside_an_outer_budv_timeout(warm_countdown, bound):
    # the outer budv runs, under its bound, a caller whose univ hits the cache
    inner = encode(program([(OP_LOAD, 2, CALLEE), (OP_LOAD, 3, 5), (OP_UNIV, 1, 2, 3),
                            (OP_HALT, 1)]))
    e = encode(program([(OP_LOAD, 2, inner), (OP_LOAD, 4, bound), (OP_BUDV, 1, 2, 0, 4),
                        (OP_HALT, 1)]))
    for budget in list(range(3 + 4 + CALLEE_STEPS + 3)) + [bound + 3, bound + 4, 10**7]:
        assert eval_steps(e, 0, budget) == naive_eval(e, 0, budget), budget
    assert eval_program(e, 0, 10**7) == Halted(1 if bound >= 4 + CALLEE_STEPS else 0)
    assert CALLEE not in warm_countdown


def test_oracle_runs_neither_read_nor_fill_the_cache():
    reader = encode(program([(OP_ORACLE, 1, 0), (OP_HALT, 1)]))
    e = encode(program([(OP_LOAD, 2, reader), (OP_UNIV, 1, 2, 0), (OP_HALT, 1)]))
    machine._halting.clear()
    assert eval_steps(e, 4, 100) == (Halted(0), 5)
    assert machine._halting == {(reader, 4): (0, 2)}
    assert eval_steps(e, 4, 100, EVENS) == naive_eval(e, 4, 100, EVENS) == (Halted(1), 5)
    machine._halting.clear()
    for x in range(6):
        assert eval_steps(e, x, 100, EVENS) == naive_eval(e, x, 100, EVENS)
    assert machine._halting == {}


class _CapWatch(dict):
    def __setitem__(self, key, value):
        assert len(self) < machine._HALTING_CAP
        super().__setitem__(key, value)


@pytest.mark.parametrize("cap", [1, 5])
def test_cache_never_passes_its_cap(monkeypatch, cap):
    # calls the identity on x, x-1, ..., 1: x distinct entries
    e = encode(program([(OP_LOAD, 2, IDENTITY_INDEX), (OP_LOAD, 5, 1), (OP_UNIV, 1, 2, 0),
                        (OP_SUB, 0, 0, 5), (OP_JZ, 0, 6), (OP_JMP, 2), (OP_HALT, 1)]))
    monkeypatch.setattr(machine, "_HALTING_CAP", cap)
    monkeypatch.setattr(machine, "_halting", _CapWatch())
    for x in (1, 3, 12, 3, 12):
        assert eval_steps(e, x, 10**4) == naive_eval(e, x, 10**4)
        assert len(machine._halting) <= cap
    _assert_entries_match_naive()
