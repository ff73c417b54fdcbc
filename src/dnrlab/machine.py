"""Toy computability substrate: a tiny register machine with an acceptable numbering.

Programs are finite sequences of instructions over 16 natural-valued
registers.  The bits of an index e, binary(e+1) without its leading 1, are
Elias-gamma naturals: opcodes (mod 17), then operands (registers mod 16);
an incomplete tail is padding (docs/formats.md).  So decode is total but not
injective (decode(0) == decode(1) is empty); encode(p) is the canonical
index, decode(encode(p)) == p and encode(decode(e)) <= e.  Evaluation on a
natural input is deterministic and budgeted: a run either halts with a value
within the step budget or reports Running.  Halting is absorbing in the
budget: once eval(e, x, s) halts, every larger budget halts with the same
value.

The instruction set is deliberately small: arithmetic on naturals (monus
subtraction, floor division), conditional and unconditional jumps, an oracle
query, halt-with-value, Cantor pairing/unpairing, and three numbering
primitives that make the standard constructions go through at desk scale:

* UNIV  r, s, t    -- r := phi_{R[s]}(R[t]), evaluated against the caller's
                      remaining step budget (divergence propagates),
* SMN   r, s, t    -- r := smn_fill(R[s], R[t]), the s-m-n transformation,
* BUDV  r, s, t, u -- r := 1 + phi_{R[s]}(R[t]) if that computation halts
                      within R[u] steps, else 0.  Total, and independent of
                      the caller's budget (see note below), which lets toy
                      programs dovetail.

Falling off the end of a program diverges, as does jumping past the end, so
`R0 := input; no instructions` is the canonical diverging program with
index 0.  The register file is 16 registers, all initially 0 except R0 which
holds the input; each executed instruction costs one step, oracle queries
included.

BUDV note: the inner run is evaluated at exactly the bound in R[u], never at
"whatever budget remains", so its verdict does not depend on the ambient
budget.  When the remaining ambient budget cannot cover the inner run the
outer evaluation reports Running; a larger budget yields the same verdict.
Nested runs are frames of one stack, so the nesting depth of `univ` and
`budv` calls is bounded only by the budget.

Program source text for hand-written programs is the one-instruction-per-line
format implemented in dnrlab.asm and documented in docs/formats.md.

Fast paths, each mirrored by a naive version in tests/test_machine.py:

* `_run` keeps each program's liveness table, ends a run on a dead pc or a
  repeated configuration, and reuses the halves of the last pair;
* runs without an oracle cache each nested call that halts, keyed by
  (callee index, argument), as its value and steps.  A cached `univ` or
  `budv` call opens no frame: it halts exactly when its allowance covers
  the steps (halting is absorbing in the budget), and otherwise ends as
  the callee would.  Runs that do not halt are never cached; at 4096
  entries the cache is cleared;
* a program that is dead at pc 0 (no halt reachable from its first
  instruction, the empty program included) is not run: `eval_steps`
  answers Running at the whole budget, and `domain_window` and
  `EnumerationScan` find no member, without entering `_run`;
* a program whose first `halt`, at pc h, comes before any `jz`, `jmp`,
  `univ` or `budv` is not run by `domain_window` either: every other
  opcode takes one step and always finishes, so each input halts after
  exactly h + 1 steps, and the window is every input when h + 1 <= budget
  and none otherwise.  The scan stops at the first `halt` or branch, so it
  needs no cache or ToyProgram field.  Steps charged by operand width
  (ROADMAP item 9) would make that count depend on x; the mirror test over
  every such index below 2^14 would then fail;
* `decode` scans its bit string with `str.find` and resumes from the last
  parse: a code word of the same bit length keeps every instruction that
  lies wholly inside the leading bits the two share, so consecutive
  indices re-read a token or two;
* equal decoded programs are one object: one cache keyed by the
  instruction tuple builds each ToyProgram and its liveness table once;
* `smn_fill` splices a cached body;
* `EnumerationScan` runs each input of W_{e,budget} at most once and stops
  as soon as its question is decided: the first k elements in canonical
  order stop once the inputs pass the k-th smallest key, and growth past
  the checkpoint W_{e,budget//2} stops at its first witness;
* windows of many inputs (`domain_window`, `EnumerationScan`) run their
  program compiled: one generated Python function with the registers in
  locals and one budget check per basic block.  It returns exactly what
  `_run` returns, because a run that does not halt always reports the whole
  budget (so any sound loop check gives the same result wherever it fires)
  and a run that cannot pay for a whole block cannot halt inside it.  The
  function is generated once per shape, the instructions with every `load`
  constant left out, and each program of that shape binds its own
  constants.  A compiled window sends each nested call through `_run` until
  that callee index has run there `_COMPILE_MIN_RUNS` times, and from then
  on through the callee's compiled function, whose own nested calls go
  through `_run`: so at most two generated frames sit over `_run`.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache, partial
from heapq import heappush, heapreplace
from math import isqrt
from typing import Callable, Iterable, Optional, Protocol, Sequence

from ._value import _set_field, _Value
from .errors import WitnessBudgetExceeded

ProgramIndex = int  # type alias: indices into the numbering are plain naturals

N_REGISTERS = 16

# Opcode numbers, the row indices of _OPCODES below.
OP_LOAD = 0
OP_HALT = 1
OP_JZ = 2
OP_JMP = 3
OP_ADD = 4
OP_SUB = 5
OP_MOV = 6
OP_UNIV = 7
OP_SMN = 8
OP_PAIR = 9
OP_LEFT = 10
OP_RIGHT = 11
OP_MUL = 12
OP_DIV = 13
OP_MOD = 14
OP_ORACLE = 15
OP_BUDV = 16

# The instruction set, one row per opcode in opcode order: its name, its
# operand kinds ('r' = register, canonical range 0..15; 'n' = natural,
# constants and jump targets, unbounded) and, for a straight-line opcode,
# its compiled-block statement over registers a, b, c (else None).  LOAD
# and HALT get the cheapest Elias-gamma codes on purpose: constant programs
# ("load r1, c; halt r1") must stay within reach of small exhaustive index
# sweeps.  LOAD has no statement: it reads its constant from the closure,
# never from a source literal.
_OPCODES = (
    ("load", "rn", None),
    ("halt", "r", None),
    ("jz", "rn", None),
    ("jmp", "n", None),
    ("add", "rrr", "{a} = {b} + {c}"),
    ("sub", "rrr", "{a} = {b} - {c} if {b} > {c} else 0"),
    ("mov", "rr", "{a} = {b}"),
    ("univ", "rrr", None),
    ("smn", "rrr", "{a} = smn_fill({b}, {c})"),
    ("pair", "rrr", "pl = {b}; pr = {c}; {a} = paired = pair(pl, pr)"),
    ("left", "rr", "{a} = pl if {b} is paired else unpair({b})[0]"),
    ("right", "rr", "{a} = pr if {b} is paired else unpair({b})[1]"),
    ("mul", "rrr", "{a} = {b} * {c}"),
    ("div", "rrr", "{a} = {b} // {c} if {c} else 0"),
    ("mod", "rrr", "{a} = {b} % {c} if {c} else 0"),
    ("oracle", "rr", "{a} = oracle.bit({b}) if oracle is not None else 0"),
    ("budv", "rrrr", None),
)
N_OPCODES = len(_OPCODES)
OP_BY_NAME = {name: op for op, (name, _, _) in enumerate(_OPCODES)}
OP_SIGNATURE = {op: kinds for op, (_, kinds, _) in enumerate(_OPCODES)}
# For each opcode, whether each operand is a register (taken mod 16).
_REGISTER_OPERANDS = tuple(tuple(kind == "r" for kind in kinds) for _, kinds, _ in _OPCODES)

# Additive step overhead of an smn_fill-produced program over the original:
# the length of the pairing prefix.  Recorded here as the implementation
# constant the s-m-n correctness property is stated against.
SMN_STEP_OVERHEAD = 3


class Halted(_Value):
    def __init__(self, value: int) -> None:
        _set_field(self, "value", value)


class Running:
    """Singleton outcome: no halt within the budget."""

    _instance: Optional["Running"] = None

    def __new__(cls) -> "Running":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "Running"


RUNNING = Running()

EvalOutcome = Halted | Running


class Oracle(Protocol):
    def bit(self, i: int) -> int: ...


# ---------------------------------------------------------------------------
# Static divergence analysis.

def _halt_reachable(instructions: tuple[tuple[int, ...], ...]) -> tuple[bool, ...]:
    """For each pc, whether some HALT instruction is control-flow reachable.

    Over-approximates reachability (both JZ branches taken), so False is a
    sound guarantee of divergence from that pc.
    """
    n = len(instructions)
    succs: list[list[int]] = []
    for pc, ins in enumerate(instructions):
        op = ins[0]
        if op == OP_HALT:
            succs.append([])
        elif op == OP_JMP:
            succs.append([ins[1]])
        elif op == OP_JZ:
            succs.append([pc + 1, ins[2]])
        else:
            succs.append([pc + 1])
    reach = [ins[0] == OP_HALT for ins in instructions]
    changed = True
    while changed:
        changed = False
        for pc in range(n):
            if reach[pc]:
                continue
            for s in succs[pc]:
                if 0 <= s < n and reach[s]:
                    reach[pc] = True
                    changed = True
                    break
    return tuple(reach)


class ToyProgram(_Value):
    """A canonical instruction sequence.

    Instructions are tuples (opcode, operand, ...) matching OP_SIGNATURE;
    register operands must already be in range 0..15.  Construct via
    `program(...)`, the assembler, or `decode`.  `live` is the program's
    `_halt_reachable` table, set once at construction; it is derived from
    the instructions, so equality, hashing and repr leave it out.
    """

    def __init__(self, instructions: tuple[tuple[int, ...], ...]) -> None:
        for ins in instructions:
            op = ins[0]
            if op not in OP_SIGNATURE:
                raise ValueError(f"unknown opcode {op}")
            name, sig, _ = _OPCODES[op]
            if len(ins) - 1 != len(sig):
                raise ValueError(f"bad arity for {name}: {ins}")
            for kind, val in zip(sig, ins[1:]):
                if val < 0:
                    raise ValueError(f"negative operand in {ins}")
                if kind == "r" and val >= N_REGISTERS:
                    raise ValueError(f"register out of range in {ins}")
        _set_field(self, "instructions", instructions)
        _set_field(self, "live", _halt_reachable(instructions))

    def __len__(self) -> int:
        return len(self.instructions)


def program(instructions: Iterable[Sequence[int]]) -> ToyProgram:
    return ToyProgram(tuple(tuple(ins) for ins in instructions))


EMPTY_PROGRAM = ToyProgram(())


# ---------------------------------------------------------------------------
# Cantor pairing and finite-set coding.

@lru_cache(maxsize=64)
def _triangle(a: int) -> int:
    return a * (a + 1) // 2


def pair(a: int, b: int) -> int:
    """Cantor pairing (a+b)(a+b+1)/2 + b; left/right project back onto a and b.

    Expanded as T(a) + a*b + T(b) + b with T cached: an s-m-n-filled index
    pairs one fixed, possibly huge, parameter with each input it runs on.
    """
    return _triangle(a) + a * b + _triangle(b) + b


def unpair(z: int) -> tuple[int, int]:
    w = (isqrt(8 * z + 1) - 1) // 2
    b = z - w * (w + 1) // 2
    return w - b, b


def gamma(code: int) -> frozenset[int]:
    """Finite set coded by the 1-bits of `code` (code = sum of 2^x)."""
    if code < 0:
        raise ValueError("codes are naturals")
    out = []
    x = 0
    while code:
        if code & 1:
            out.append(x)
        code >>= 1
        x += 1
    return frozenset(out)


def gamma_inverse(members: Iterable[int]) -> int:
    code = 0
    for x in members:
        if x < 0:
            raise ValueError("members are naturals")
        code |= 1 << x
    return code


# ---------------------------------------------------------------------------
# Program codes: Elias-gamma instruction streams packed into one natural.

def _nat_of_bits(bits: str) -> int:
    # bijection bit strings <-> naturals: the bits of n are binary(n+1)
    # minus the leading 1, so "" <-> 0, "0" <-> 1, "1" <-> 2, "00" <-> 3, ...
    return int("1" + bits, 2) - 1


def _gamma_bits(k: int) -> str:
    body = bin(k + 1)[3:]
    return "1" * len(body) + "0" + body


def _code_bits(instructions: Iterable[Sequence[int]]) -> str:
    return "".join(_gamma_bits(val) for ins in instructions for val in ins)


def encode(prog: ToyProgram | Sequence[Sequence[int]]) -> ProgramIndex:
    """Index of a canonical program.  Inverse of decode on canonical programs."""
    if not isinstance(prog, ToyProgram):
        prog = program(prog)
    return _nat_of_bits(_code_bits(prog.instructions))


@lru_cache(maxsize=8192)
def _program(code: tuple[tuple[int, ...], ...]) -> ToyProgram:
    """The one ToyProgram for a decoded instruction tuple, with its liveness."""
    prog = object.__new__(ToyProgram)
    _set_field(prog, "instructions", code)
    _set_field(prog, "live", _halt_reachable(code))
    return prog


# decode's last parse: the code word e+1, its instructions, and where each
# instruction starts (one more entry: where the unfinished tail starts).
# Replaced whole on every parse, never changed in place, so a thread that
# reads it sees one parse.
_last_parse: tuple[int, tuple[tuple[int, ...], ...], tuple[int, ...]] = (1, (), (0,))


@lru_cache(maxsize=8192)
def decode(e: ProgramIndex) -> ToyProgram:
    """Program coded by e.  Canonical by construction, so not re-validated.

    A token `1^k 0 b` (b: binary(v+1) after its leading 1) codes
    v = int("0" + b, 2) + 2^k - 1.  A parse reads nothing past the
    instruction it completes, so when the code word c = e+1 has the bit
    length of the last code word parsed, `last`, the two share their first
    len(bits) - (c ^ last).bit_length() bits, and every instruction that
    lies wholly inside them is kept: parsing resumes where the first other
    one starts.  Consecutive indices thus re-read a token or two; any
    other index parses from bit 0.  Equal instruction tuples give the same
    ToyProgram object, built with its liveness table once (`_program`).
    """
    global _last_parse
    if e < 0:
        raise ValueError("indices are naturals")
    c = e + 1
    bits = bin(c)[3:]
    n = len(bits)
    last, done, starts = _last_parse
    if last.bit_length() == n + 1:
        keep = bisect_right(starts, n - (c ^ last).bit_length()) - 1
        done = done[:keep]
        starts = starts[:keep + 1]
    else:
        done = ()
        starts = (0,)
    pos = starts[-1]
    instructions = []
    new_starts = []
    find = bits.find
    ins: list[int] = []
    while (zero := find("0", pos)) >= 0:
        if zero == pos:  # k = 0: the token "0" codes 0
            val = 0
            pos += 1
        else:
            end = 2 * zero + 1 - pos
            if end > n:
                break
            val = int(bits[zero:end], 2) + (1 << (zero - pos)) - 1
            pos = end
        if not ins:
            op = val % N_OPCODES
            registers = _REGISTER_OPERANDS[op]
            ins = [op]
        else:
            ins.append(val % N_REGISTERS if registers[len(ins) - 1] else val)
            if len(ins) > len(registers):
                instructions.append(tuple(ins))
                new_starts.append(pos)
                ins = []
    if instructions:
        done += tuple(instructions)
        starts += tuple(new_starts)
    _last_parse = (c, done, starts)
    return _program(done)


# ---------------------------------------------------------------------------
# The interpreter.

# Nested calls of oracle-free runs that halted: (callee index, argument) ->
# (value, steps).  Halting is absorbing in the budget, so an entry answers
# the same call under any allowance.  Cleared whole when full.
_HALTING_CAP = 4096
_halting: dict[tuple[int, int], tuple[int, int]] = {}


def _run(prog: ToyProgram, x: int, budget: int, oracle: Optional[Oracle]) -> tuple[Optional[int], int]:
    """Run phi_prog(x) for at most `budget` steps.

    Returns (value, steps-consumed), value None when the run does not halt
    within the budget; such a run always reports the whole budget consumed
    (a diverging run would use any allowance).  Only eval_steps turns this
    into a Halted/RUNNING outcome, so the window functions build none.

    Nested runs are frames on one stack, never Python recursion.  A `univ`
    or `budv` call saves its caller, pc left on the calling instruction,
    with its step limit and the step at which the callee starts.  A `univ`
    callee keeps that limit; a `budv` callee runs under
    used + min(bound, limit - used), and when the caller can pay the whole
    bound its frame keeps that sum, the step at which the timeout ends.  A
    halting callee's value (plus one for `budv`) goes to the first operand
    of the caller's instruction.  Without an oracle it is also cached, with
    its steps (`used` less its start), under (callee index, argument); a
    cached call opens no frame.  It halts when its allowance (the bound
    under a timeout, else limit - used) covers the steps, and otherwise
    ends as the callee would: 0 at the timeout, or `used = limit`.  A frame
    that cannot halt (dead pc, limit reached, repeated configuration)
    unwinds the stack to the nearest frame with a timeout, whose `budv`
    reads 0 at that step; with none, the run is Running.  Each taken jump
    checks for a loop (Brent's cycle finding): landing on the saved
    configuration, that is the same register list (so the same frame), pc
    and register values, repeats forever, because the frames below cannot
    change while this one runs and a `budv` that would answer differently
    the second time can only withhold.  The saved configuration is renewed
    at the first jump once `used` reaches a mark that doubles, or once its
    frame ends: short callees must not keep a looping caller's
    configuration from being saved.
    """
    code, live, pc = prog.instructions, prog.live, 0
    n = len(code)
    regs = [0] * N_REGISTERS
    regs[0] = x
    limit = budget
    callers: list[tuple] = []
    used = 0
    saved_regs: Optional[list[int]] = None
    saved_pc = 0
    saved_values: list[int] = []
    next_mark = 1
    paired: Optional[int] = None
    paired_left = paired_right = 0
    while True:
        if pc >= n or not live[pc] or used >= limit:
            timeout = None
            while timeout is None:
                if not callers:
                    return None, budget
                if regs is saved_regs:  # its configuration cannot recur: save anew
                    next_mark = used
                code, live, n, pc, regs, limit, timeout, start = callers.pop()
            used = timeout
            regs[code[pc][1]] = 0
            pc += 1
            continue
        ins = code[pc]
        op = ins[0]
        used += 1
        if op == OP_LOAD:
            regs[ins[1]] = ins[2]
        elif op == OP_HALT:
            value = regs[ins[1]]
            if not callers:
                return value, used
            if regs is saved_regs:  # as when unwinding
                next_mark = used
            code, live, n, pc, regs, limit, timeout, start = callers.pop()
            ins = code[pc]
            if oracle is None:
                if len(_halting) >= _HALTING_CAP:
                    _halting.clear()
                _halting[regs[ins[2]], regs[ins[3]]] = value, used - start
            regs[ins[1]] = value + 1 if ins[0] == OP_BUDV else value
        elif op == OP_JZ or op == OP_JMP:
            if op == OP_JMP:
                pc = ins[1]
            elif regs[ins[1]]:
                pc += 1
                continue
            else:
                pc = ins[2]
            if regs is saved_regs and pc == saved_pc and regs == saved_values:
                pc = n  # never halts: unwind as from past the end
            elif used >= next_mark:
                saved_regs, saved_pc, saved_values = regs, pc, regs[:]
                next_mark *= 2
            continue
        elif op == OP_ADD:
            regs[ins[1]] = regs[ins[2]] + regs[ins[3]]
        elif op == OP_SUB:
            d = regs[ins[2]] - regs[ins[3]]
            regs[ins[1]] = d if d > 0 else 0
        elif op == OP_MOV:
            regs[ins[1]] = regs[ins[2]]
        elif op == OP_UNIV or op == OP_BUDV:
            timeout = used + regs[ins[4]] if op == OP_BUDV and regs[ins[4]] <= limit - used else None
            index, arg = regs[ins[2]], regs[ins[3]]
            if oracle is None and (cached := _halting.get((index, arg))) is not None:
                value, steps = cached
                if used + steps <= (limit if timeout is None else timeout):
                    used += steps
                    regs[ins[1]] = value + 1 if op == OP_BUDV else value
                elif timeout is None:
                    used = limit  # the callee runs out: unwind from the top
                    continue
                else:
                    used = timeout
                    regs[ins[1]] = 0
                pc += 1
                continue
            callers.append((code, live, n, pc, regs, limit, timeout, used))
            if timeout is not None:
                limit = timeout
            callee = decode(index)
            code, live, pc = callee.instructions, callee.live, 0
            n = len(code)
            regs = [0] * N_REGISTERS
            regs[0] = arg
            continue
        elif op == OP_SMN:
            regs[ins[1]] = smn_fill(regs[ins[2]], regs[ins[3]])
        elif op == OP_PAIR:  # left/right of this value reuse its halves
            paired_left = regs[ins[2]]
            paired_right = regs[ins[3]]
            regs[ins[1]] = paired = pair(paired_left, paired_right)
        elif op == OP_LEFT:
            z = regs[ins[2]]
            regs[ins[1]] = paired_left if z is paired else unpair(z)[0]
        elif op == OP_RIGHT:
            z = regs[ins[2]]
            regs[ins[1]] = paired_right if z is paired else unpair(z)[1]
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
        else:  # pragma: no cover - opcodes are exhaustive
            raise AssertionError(op)
        pc += 1


# ---------------------------------------------------------------------------
# Compiled windows: one generated Python function per program shape.

# Windows of at least this many inputs run a compiled program, and a compiled
# window compiles a callee past this many runs.  Compiling a 5-8 instruction
# program takes 0.25-0.4 ms and saves 0.5-1 us of a 0.7-1.3 us interpreted
# run, so a program pays back over a few hundred runs, in one window or in
# the same program windowed again (CPython 3.11, 2-core VM).  Compiling every
# window made the immunity-audits replay slower: its many EBI-violation
# windows are short, distinct programs.  Thresholds from 16 to 1024 measured
# alike on that workload.
_COMPILE_MIN_RUNS = 64
# Longer programs are always interpreted: compile time and the cached code
# grow with the length, about 50 us an instruction (13 ms at 256), while
# the hot window programs are under a dozen instructions.
_COMPILE_MAX_LENGTH = 256

# Nested runs from compiled windows, by callee index: how many went through
# `_run`, and the compiled runner of each callee past _COMPILE_MIN_RUNS of
# them.  Cleared whole when full, as _halting is.
_callee_runs: dict[int, int] = {}
_hot_callees: dict[int, Callable[..., tuple[Optional[int], int]]] = {}


def _shape(code: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """The instructions with every `load` constant left out: what the generated source reads."""
    return tuple(ins[:2] if ins[0] == OP_LOAD else ins for ins in code)


def _source(shape: tuple[tuple[int, ...], ...], live: tuple[bool, ...]) -> str:
    """Source of `build(K, hot)`, which returns `run(x, budget, oracle=None)` for
    every program of this shape, K holding its `load` constants in order.
    `live` is the shape's liveness table, which its programs share.

    Basic blocks start at jump targets and after each jump or halt; the
    registers are locals, and the dispatch on pc is a bisection over the
    live block starts, so no program needs a long `elif` chain.  Each block
    pays its whole length at entry: a run that cannot pay for a block
    cannot halt inside it, and a run that does not halt reports the whole
    budget.  So a `univ` callee runs on the budget left after its whole
    block, and a `budv` callee on the least of its bound and that; when the
    bound is the larger and the callee does not halt, the run withholds
    (any larger budget would have to pay the rest of the block too).  A
    taken jump checks the registers the program writes against a
    configuration saved as in `_run` (Brent's cycle finding); the loop check
    is sound, so wherever it fires the result is the same.
    """
    n = len(shape)
    leaders = {0}
    registers = set()
    written = set()
    for pc, ins in enumerate(shape):
        op = ins[0]
        if op == OP_JMP or op == OP_JZ:
            leaders.update((ins[-1], pc + 1))
        elif op == OP_HALT:
            leaders.add(pc + 1)
        else:
            written.add(ins[1])
        registers.update(r for r, is_reg in zip(ins[1:], _REGISTER_OPERANDS[op]) if is_reg)
    bounds = sorted(pc for pc in leaders if pc < n) + [n]
    state = "(" + "".join(f"r{r}, " for r in sorted(written)) + ")"
    loads = {pc: k for k, pc in enumerate(pc for pc, ins in enumerate(shape) if ins[0] == OP_LOAD)}
    blocks: dict[int, list[str]] = {}

    def goto(pc: int, taken: bool) -> list[str]:
        if pc >= n or not live[pc]:
            return ["return None, budget"]
        if not taken:
            return [f"pc = {pc}", "continue"]
        return [f"if spc == {pc} and sv == {state}:", "    return None, budget",
                "if used >= mark:", f"    spc = {pc}; sv = {state}; mark *= 2",
                f"pc = {pc}", "continue"]

    for start, end in zip(bounds, bounds[1:]):
        if not live[start]:
            continue
        lines = [f"used += {end - start}", "if used > budget:", "    return None, budget"]
        for pc in range(start, end):
            ins = shape[pc]
            op = ins[0]
            regs = [f"r{r}" for r, is_reg in zip(ins[1:], _REGISTER_OPERANDS[op]) if is_reg]
            if op == OP_LOAD:
                lines.append(f"{regs[0]} = k{loads[pc]}")
            elif op == OP_HALT:
                lines.append(f"return {regs[0]}, used")
            elif op == OP_JMP:
                lines += goto(ins[1], True)
            elif op == OP_JZ:
                lines.append(f"if not {regs[0]}:")
                lines += ["    " + line for line in goto(ins[2], True)]
            elif op == OP_UNIV:
                lines += [f"value, steps = nested({regs[1]}, {regs[2]}, budget - used, oracle, hot)",
                          "if value is None:", "    return None, budget",
                          f"used += steps; {regs[0]} = value"]
            elif op == OP_BUDV:
                lines += [f"bounded = min({regs[3]}, budget - used)",
                          f"value, steps = nested({regs[1]}, {regs[2]}, bounded, oracle, hot)",
                          "if value is not None:", f"    used += steps; {regs[0]} = value + 1",
                          f"elif bounded == {regs[3]}:", f"    used += bounded; {regs[0]} = 0",
                          "else:", "    return None, budget"]
            else:
                lines.append(_OPCODES[op][2].format(a=regs[0], b=regs[1], c=regs[-1]))
        if shape[end - 1][0] != OP_HALT and shape[end - 1][0] != OP_JMP:
            lines += goto(end, False)
        blocks[start] = lines

    source = [
        "def build(K, hot):",
        "    (" + "".join(f"k{i}, " for i in range(len(loads))) + ") = K",
        "    def run(x, budget, oracle=None):",
        "        r0 = x",
        "        " + "".join(f"r{r} = " for r in sorted(registers - {0})) + "used = pc = 0",
        "        paired = None; pl = pr = 0",
        "        spc = -1; sv = None; mark = 1",
    ]

    def dispatch(group: list[int], indent: str) -> None:
        if len(group) == 1:
            source.extend(indent + line for line in blocks[group[0]])
            return
        mid = len(group) // 2
        source.append(f"{indent}if pc < {group[mid]}:")
        dispatch(group[:mid], indent + "    ")
        source.append(f"{indent}else:")
        dispatch(group[mid:], indent + "    ")

    if 0 in blocks:
        source.append("        while True:")
        dispatch(list(blocks), " " * 12)
    else:
        source.append("        return None, budget")
    source.append("    return run")
    return "\n".join(source)


@lru_cache(maxsize=256)
def _shape_build(shape: tuple[tuple[int, ...], ...],
                 live: tuple[bool, ...]) -> Callable[..., Callable[..., tuple[Optional[int], int]]]:
    """The generated `build` of one program shape (see `_source`)."""
    namespace = {"nested": _nested, "smn_fill": smn_fill, "pair": pair, "unpair": unpair}
    exec(_source(shape, live), namespace)
    return namespace["build"]


@lru_cache(maxsize=256)
def _compile(prog: ToyProgram, hot: bool = True) -> Callable[..., tuple[Optional[int], int]]:
    """`run(x, budget, oracle=None)` of a program, exactly what `_run` returns.

    The function is its shape's generated `build` (one per shape, so programs
    that differ only in `load` constants share it) applied to the program's
    constants.  Its nested calls go through `_nested`, hot or not.
    """
    code = prog.instructions
    return _shape_build(_shape(code), prog.live)(tuple(ins[2] for ins in code if ins[0] == OP_LOAD), hot)


def _nested(index: int, arg: int, allowance: int, oracle: Optional[Oracle],
            hot: bool) -> tuple[Optional[int], int]:
    """A compiled program's `univ`/`budv` run of phi_index(arg) within `allowance` steps.

    Without an oracle, `_halting` answers first and a run that halts is
    written to it, as `_run` does for its nested calls.  A call it does not
    answer runs through `_run`; from a hot (window) program, a callee index
    that has run there _COMPILE_MIN_RUNS times runs compiled from then on,
    but not hot: its own nested calls go through `_run`.  So at most two
    generated frames sit over `_run`, however deep the program nests.
    """
    if oracle is None:
        cached = _halting.get((index, arg))
        if cached is not None:
            return cached if cached[1] <= allowance else (None, allowance)
    run = _hot_callees.get(index) if hot else None
    if run is not None:
        value, steps = run(arg, allowance, oracle)
    else:
        prog = decode(index)
        if hot:
            if len(_callee_runs) >= _HALTING_CAP:
                _callee_runs.clear()
            runs = _callee_runs[index] = _callee_runs.get(index, 0) + 1
            if runs == _COMPILE_MIN_RUNS and len(prog) <= _COMPILE_MAX_LENGTH:
                if len(_hot_callees) >= _HALTING_CAP:
                    _hot_callees.clear()
                _hot_callees[index] = _compile(prog, False)
        value, steps = _run(prog, arg, allowance, oracle)
    if value is not None and oracle is None:
        if len(_halting) >= _HALTING_CAP:
            _halting.clear()
        _halting[index, arg] = value, steps
    return value, steps


def _straight_halt_steps(code: tuple[tuple[int, ...], ...]) -> Optional[int]:
    """h + 1 when the first `halt` is at pc h with no jz, jmp, univ or budv
    before it, else None.  Every other opcode takes one step and always
    finishes, so such a program halts on every input after exactly h + 1."""
    for pc, ins in enumerate(code):
        op = ins[0]
        if op == OP_HALT:
            return pc + 1
        if op == OP_JZ or op == OP_JMP or op == OP_UNIV or op == OP_BUDV:
            return None
    return None


def _window_runner(prog: ToyProgram, runs: int) -> Callable[..., tuple[Optional[int], int]]:
    """What a window of `runs` inputs calls as run(x, budget, None): compiled
    from _COMPILE_MIN_RUNS inputs, unless the program is too long."""
    if runs >= _COMPILE_MIN_RUNS and len(prog) <= _COMPILE_MAX_LENGTH:
        return _compile(prog)
    return partial(_run, prog)


def eval_program(e: ProgramIndex, x: int, budget: int) -> EvalOutcome:
    """phi_e(x) within `budget` steps, with no oracle; relativized runs use eval_steps."""
    return eval_steps(e, x, budget)[0]


def eval_steps(e: ProgramIndex, x: int, budget: int, oracle: Optional[Oracle] = None) -> tuple[EvalOutcome, int]:
    """Like eval_program, relative to `oracle` (default all-zeros), but also
    reports steps consumed (== budget when Running)."""
    if budget < 0:
        raise ValueError("budget is a natural")
    if x < 0:
        raise ValueError("inputs are naturals")
    prog = decode(e)
    if not prog.live or not prog.live[0]:  # dead at pc 0: _run would say the same
        return RUNNING, budget
    value, steps = _run(prog, x, budget, oracle)
    return (RUNNING if value is None else Halted(value)), steps


def halted_value(e: ProgramIndex, x: int, budget: int) -> Optional[int]:
    """phi_e(x) if it halts within `budget` steps with no oracle, else None."""
    out = eval_steps(e, x, budget)[0]
    return None if out is RUNNING else out.value


def enumerate_re(e: ProgramIndex, budget: int) -> frozenset[int]:
    """W_{e,budget} = {x <= budget : eval(e, x, budget) halts}."""
    return domain_window(e, budget + 1, budget)


def domain_window(e: ProgramIndex, horizon: int, budget: int) -> frozenset[int]:
    """{x < horizon : eval(e, x, budget) halts}: a bounded domain snapshot.

    A program dead at pc 0 halts nowhere, and one whose first `halt` comes
    before any branch or nested call halts on every input after the same
    number of steps (`_straight_halt_steps`): both are answered from their
    instructions, with nothing run or compiled.  Any other program runs on
    each input, compiled once the window is long enough (`_window_runner`).
    """
    if budget < 0:
        raise ValueError("budget is a natural")
    if horizon < 0:
        raise ValueError("horizon is a natural")
    prog = decode(e)
    if not prog.live or not prog.live[0]:
        return frozenset()
    steps = _straight_halt_steps(prog.instructions)
    if steps is not None:
        return frozenset(range(horizon)) if steps <= budget else frozenset()
    run = _window_runner(prog, horizon)
    return frozenset(x for x in range(horizon) if run(x, budget, None)[0] is not None)


class EnumerationScan:
    """W_{e,budget} = {x <= budget : eval(e, x, budget) halts}, read lazily.

    Canonical enumeration order is by (max(halting steps, x), x).  It is
    stable as the budget grows, so "the first k elements of W_e" does not
    depend on the budget that first exposed them.  Each input runs at most
    once, and each question runs only the inputs its answer needs.

    Unlike `domain_window`, it runs a program that halts before branching
    too: its callers' programs (EVEN_HALT and the blocking slices) all
    branch first, so that shortcut would only add a scan to every scan.
    """

    def __init__(self, e: ProgramIndex, budget: int) -> None:
        if budget < 0:
            raise ValueError("budget is a natural")
        prog = decode(e)
        live = bool(prog.live) and prog.live[0]
        self._budget = budget
        self._half = budget // 2
        self._run = _window_runner(prog, budget + 1) if live else None
        self._halted: dict[int, int] = {}  # steps of each input run that halted
        # The inputs run so far: x < _low, or _half < x < _high.  Each
        # question runs upward from 0 or from _half + 1, so two stretches
        # record them, and memory grows with the members found, not the
        # inputs run.  A dead program halts nowhere: all count as run.
        self._low = 0 if live else budget + 1
        self._high = self._half + 1

    def _steps(self, x: int) -> Optional[int]:
        """Steps the run on x takes to halt within the budget; None if it does not."""
        if x < self._low or self._half < x < self._high:
            return self._halted.get(x)
        value, steps = self._run(x, self._budget, None)
        if x == self._low:
            self._low += 1
        elif x == self._high:
            self._high += 1
        if value is None:
            return None
        self._halted[x] = steps
        return steps

    def grows(self) -> bool:
        """Whether W_{e,budget} is larger than the checkpoint W_{e,budget//2}.

        By budget monotonicity x lies in the checkpoint exactly when
        x <= budget//2 and its run halts within budget//2 steps, so any
        other member is a witness.  Inputs past budget//2 are tried first.
        """
        half = self._half
        if any(self._steps(x) is not None for x in range(half + 1, self._budget + 1)):
            return True
        return any((steps := self._steps(x)) is not None and steps > half
                   for x in range(half + 1))

    def first(self, k: int) -> tuple[int, ...]:
        """The first k elements of W_{e,budget} in canonical order (all, if fewer).

        Inputs run upward.  A key is at least (x, x), so once (x, x) passes
        the k-th smallest key found, no later input can enter.
        """
        if k <= 0:
            return ()
        heap: list[tuple[int, int]] = []  # the k smallest keys so far, negated
        for x in range(self._budget + 1):
            if len(heap) == k and (-x, -x) < heap[0]:
                break
            steps = self._steps(x)
            if steps is not None:
                key = (-max(steps, x), -x)
                if len(heap) < k:
                    heappush(heap, key)
                elif key > heap[0]:
                    heapreplace(heap, key)
        return tuple(-x for _, x in sorted(heap, reverse=True))

    def members(self) -> list[int]:
        """All of W_{e,budget} in increasing order."""
        return sorted(self.first(self._budget + 1))

    def order(self) -> tuple[int, ...]:
        """All of W_{e,budget} in canonical order."""
        return self.first(self._budget + 1)


def re_enumeration_order(e: ProgramIndex, budget: int) -> tuple[int, ...]:
    """W_{e,budget} in canonical enumeration order (see EnumerationScan)."""
    return EnumerationScan(e, budget).order()


# ---------------------------------------------------------------------------
# s-m-n and the recursion theorem.

# smn_fill's prefix `load r1, a; pair r0, r1, r0; load r1, 0`, coded around a.
_SMN_HEAD = _code_bits([(OP_LOAD, 1)])
_SMN_MIDDLE = _code_bits([(OP_PAIR, 0, 1, 0), (OP_LOAD, 1, 0)])


@lru_cache(maxsize=256)
def _shifted_body(e: ProgramIndex) -> str:
    """Code bits of decode(e) with its jump targets moved past smn_fill's prefix."""
    body = []
    for ins in decode(e).instructions:
        if ins[0] == OP_JMP:
            ins = (OP_JMP, ins[1] + SMN_STEP_OVERHEAD)
        elif ins[0] == OP_JZ:
            ins = (OP_JZ, ins[1], ins[2] + SMN_STEP_OVERHEAD)
        body.append(ins)
    return _code_bits(body)


@lru_cache(maxsize=8192)
def smn_fill(e: ProgramIndex, a: int) -> ProgramIndex:
    """Index e' with phi_{e'}(x) = phi_e(pair(a, x)).

    Purely syntactic (e is never run): a three-instruction prefix computes
    pair(a, x) into R0, restores the scratch register, and falls into the
    body of e with jump targets shifted.  Step cost of e' exceeds e's by
    exactly SMN_STEP_OVERHEAD.
    """
    if a < 0:
        raise ValueError("s-m-n parameters are naturals")
    return _nat_of_bits(_SMN_HEAD + _gamma_bits(a) + _SMN_MIDDLE + _shifted_body(e))


# phi_UNIV2(pair(u, x)) = phi_{phi_u(u)}(x): the engine of the recursion
# theorem's diagonal function d(u) = smn_fill(UNIV2_INDEX, u).
_UNIV2 = ToyProgram((
    (OP_LEFT, 1, 0),
    (OP_RIGHT, 2, 0),
    (OP_UNIV, 3, 1, 1),
    (OP_UNIV, 4, 3, 2),
    (OP_HALT, 4),
))
UNIV2_INDEX = encode(_UNIV2)


def diagonal_index(u: ProgramIndex) -> ProgramIndex:
    """d(u): an index with phi_{d(u)} = phi_{phi_u(u)} (empty if phi_u(u) diverges)."""
    return smn_fill(UNIV2_INDEX, u)


def fixed_point(transform: ProgramIndex, budget: int = 10_000) -> ProgramIndex:
    """Kleene fixed point: e* with phi_{e*} = phi_{F(e*)}, F computed by `transform`.

    The construction is the standard self-application through s-m-n, not a
    search: let v compute u |-> F(d(u)); then e* = d(v).  Building e* never
    runs the transform; the budget only backs the final audit that F(e*)
    converges, raising WitnessBudgetExceeded otherwise (in which case
    phi_{e*} is everywhere undefined and no fixed point is certified).
    """
    v = encode(ToyProgram((
        (OP_LOAD, 1, UNIV2_INDEX),
        (OP_SMN, 2, 1, 0),
        (OP_LOAD, 3, transform),
        (OP_UNIV, 4, 3, 2),
        (OP_HALT, 4),
    )))
    e_star = diagonal_index(v)
    if halted_value(transform, e_star, budget) is None:
        raise WitnessBudgetExceeded(
            f"transform {transform} did not halt on the diagonal index within {budget} steps")
    return e_star


def self_reference(driver: ProgramIndex, budget: int = 10_000) -> ProgramIndex:
    """An index e with phi_e(x) = phi_driver(pair(e, x)): a program that knows itself.

    The fixed point of u |-> smn_fill(driver, u), so `driver` reads the
    index it runs as from the left half of its input.  `budget` backs
    fixed_point's audit of the three-step transform.
    """
    transform = encode(ToyProgram((
        (OP_LOAD, 1, driver),
        (OP_SMN, 2, 1, 0),
        (OP_HALT, 2),
    )))
    return fixed_point(transform, budget)
