"""Toy computability substrate: a tiny register machine with an acceptable numbering.

Programs are finite sequences of instructions over 16 natural-valued
registers.  Every natural number decodes to a program (invalid or truncated
codes decode to the empty program, which diverges), and decode(encode(p)) == p
for every canonical program p.  Evaluation is deterministic and budgeted: a
run either halts with a value within the step budget or reports Running.
Halting is absorbing in the budget: once eval(e, x, s) halts, every larger
budget halts with the same value.

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

Program source text for hand-written programs is the one-instruction-per-line
format implemented in dnrlab.asm and documented in docs/formats.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from typing import Iterable, Optional, Protocol, Sequence

ProgramIndex = int  # type alias: indices into the numbering are plain naturals

N_REGISTERS = 16

# Opcode numbers.  LOAD and HALT get the cheapest Elias-gamma codes on
# purpose: constant programs ("load r1, c; halt r1") must stay within reach
# of small exhaustive index sweeps.
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

N_OPCODES = 17

OP_NAMES = {
    OP_LOAD: "load",
    OP_HALT: "halt",
    OP_JZ: "jz",
    OP_JMP: "jmp",
    OP_ADD: "add",
    OP_SUB: "sub",
    OP_MOV: "mov",
    OP_UNIV: "univ",
    OP_SMN: "smn",
    OP_PAIR: "pair",
    OP_LEFT: "left",
    OP_RIGHT: "right",
    OP_MUL: "mul",
    OP_DIV: "div",
    OP_MOD: "mod",
    OP_ORACLE: "oracle",
    OP_BUDV: "budv",
}
OP_BY_NAME = {v: k for k, v in OP_NAMES.items()}

# Operand signatures: 'r' = register (canonical range 0..15), 'n' = natural
# (constants and jump targets, unbounded).
OP_SIGNATURE = {
    OP_LOAD: "rn",
    OP_HALT: "r",
    OP_JZ: "rn",
    OP_JMP: "n",
    OP_ADD: "rrr",
    OP_SUB: "rrr",
    OP_MOV: "rr",
    OP_UNIV: "rrr",
    OP_SMN: "rrr",
    OP_PAIR: "rrr",
    OP_LEFT: "rr",
    OP_RIGHT: "rr",
    OP_MUL: "rrr",
    OP_DIV: "rrr",
    OP_MOD: "rrr",
    OP_ORACLE: "rr",
    OP_BUDV: "rrrr",
}

# Additive step overhead of an smn_fill-produced program over the original:
# the length of the pairing prefix.  Recorded here as the implementation
# constant the s-m-n correctness property is stated against.
SMN_STEP_OVERHEAD = 3


class MachineError(Exception):
    """Base class for substrate errors."""


class FixedPointBudgetExceeded(MachineError):
    """The transform did not halt on the diagonal index within the budget."""


@dataclass(frozen=True)
class Halted:
    value: int


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


@dataclass(frozen=True)
class ToyProgram:
    """A canonical instruction sequence.

    Instructions are tuples (opcode, operand, ...) matching OP_SIGNATURE;
    register operands must already be in range 0..15.  Construct via
    `program(...)`, the assembler, or `decode`.
    """

    instructions: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        for ins in self.instructions:
            op = ins[0]
            if op not in OP_SIGNATURE:
                raise ValueError(f"unknown opcode {op}")
            sig = OP_SIGNATURE[op]
            if len(ins) - 1 != len(sig):
                raise ValueError(f"bad arity for {OP_NAMES[op]}: {ins}")
            for kind, val in zip(sig, ins[1:]):
                if val < 0:
                    raise ValueError(f"negative operand in {ins}")
                if kind == "r" and val >= N_REGISTERS:
                    raise ValueError(f"register out of range in {ins}")

    def __len__(self) -> int:
        return len(self.instructions)


def program(instructions: Iterable[Sequence[int]]) -> ToyProgram:
    return ToyProgram(tuple(tuple(ins) for ins in instructions))


EMPTY_PROGRAM = ToyProgram(())


# ---------------------------------------------------------------------------
# Cantor pairing and finite-set coding.

def pair(a: int, b: int) -> int:
    """Cantor pairing; left/right project back onto a and b."""
    s = a + b
    return s * (s + 1) // 2 + b


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

def _bits_of_nat(n: int) -> str:
    # bijection naturals <-> bit strings: n maps to binary(n+1) minus the
    # leading 1, so 0 <-> "", 1 <-> "0", 2 <-> "1", 3 <-> "00", ...
    return bin(n + 1)[3:]


def _nat_of_bits(bits: str) -> int:
    return int("1" + bits, 2) - 1


def _gamma_bits(k: int) -> str:
    body = bin(k + 1)[3:]
    return "1" * len(body) + "0" + body


class _BitReader:
    def __init__(self, bits: str) -> None:
        self.bits = bits
        self.pos = 0

    def read_nat(self) -> Optional[int]:
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


def encode(prog: ToyProgram | Sequence[Sequence[int]]) -> ProgramIndex:
    """Index of a canonical program.  Inverse of decode on canonical programs."""
    if not isinstance(prog, ToyProgram):
        prog = program(prog)
    pieces = []
    for ins in prog.instructions:
        pieces.append(_gamma_bits(ins[0]))
        for val in ins[1:]:
            pieces.append(_gamma_bits(val))
    return _nat_of_bits("".join(pieces))


@lru_cache(maxsize=8192)
def decode(e: ProgramIndex) -> ToyProgram:
    """Program coded by e.  Total: truncated instructions become padding."""
    if e < 0:
        raise ValueError("indices are naturals")
    reader = _BitReader(_bits_of_nat(e))
    instructions = []
    while True:
        raw_op = reader.read_nat()
        if raw_op is None:
            break
        op = raw_op % N_OPCODES
        sig = OP_SIGNATURE[op]
        operands = []
        ok = True
        for kind in sig:
            val = reader.read_nat()
            if val is None:
                ok = False
                break
            operands.append(val % N_REGISTERS if kind == "r" else val)
        if not ok:
            break
        instructions.append((op, *operands))
    return ToyProgram(tuple(instructions))


# ---------------------------------------------------------------------------
# Static divergence analysis.

@lru_cache(maxsize=8192)
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


# ---------------------------------------------------------------------------
# The interpreter.

def _run(prog: ToyProgram, x: int, budget: int, oracle: Optional[Oracle]) -> tuple[EvalOutcome, int]:
    """Run phi_prog(x) for at most `budget` steps.

    Returns (outcome, steps-consumed); a Running outcome always reports the
    whole budget consumed (a diverging run would use any allowance).  Each
    taken jump checks for a loop (Brent's cycle finding): landing on the
    saved configuration, that is the same register list (so the same frame),
    pc and register values, repeats forever, because the frames below cannot
    change while this one runs and a `budv` that would answer differently
    the second time can only withhold.  The saved configuration is renewed
    at the first jump once `used` reaches a mark that doubles each time.
    """
    code = prog.instructions
    live = _halt_reachable(code)
    n = len(code)
    pc = 0
    regs = [0] * N_REGISTERS
    regs[0] = x
    dest = 0
    callers: list[tuple] = []
    used = 0
    saved_regs: Optional[list[int]] = None
    saved_pc = 0
    saved_values: list[int] = []
    next_mark = 1
    paired: Optional[int] = None
    paired_left = paired_right = 0
    while True:
        if pc >= n or not live[pc] or used >= budget:
            return RUNNING, budget
        ins = code[pc]
        op = ins[0]
        used += 1
        if op == OP_LOAD:
            regs[ins[1]] = ins[2]
        elif op == OP_HALT:
            value = regs[ins[1]]
            if not callers:
                return Halted(value), used
            into = dest
            code, live, n, pc, regs, dest = callers.pop()
            regs[into] = value
        elif op == OP_JZ or op == OP_JMP:
            if op == OP_JMP:
                pc = ins[1]
            elif regs[ins[1]]:
                pc += 1
                continue
            else:
                pc = ins[2]
            if regs is saved_regs and pc == saved_pc and regs == saved_values:
                return RUNNING, budget
            if used >= next_mark:
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
        elif op == OP_UNIV:
            callers.append((code, live, n, pc, regs, dest))
            code = decode(regs[ins[2]]).instructions
            arg = regs[ins[3]]
            live = _halt_reachable(code)
            n = len(code)
            pc = 0
            regs = [0] * N_REGISTERS
            regs[0] = arg
            dest = ins[1]
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
        elif op == OP_BUDV:
            inner_bound = regs[ins[4]]
            avail = budget - used
            bounded = min(inner_bound, avail)
            out, consumed = _run(decode(regs[ins[2]]), regs[ins[3]], bounded, oracle)
            if isinstance(out, Halted):
                used += consumed
                regs[ins[1]] = 1 + out.value
            elif bounded == inner_bound:
                used += consumed  # genuine timeout within the declared bound
                regs[ins[1]] = 0
            else:
                # ambient budget cannot cover the declared bound: withhold.
                return RUNNING, budget
        else:  # pragma: no cover - opcodes are exhaustive
            raise AssertionError(op)
        pc += 1


def eval_program(e: ProgramIndex, x: int, budget: int, oracle: Optional[Oracle] = None) -> EvalOutcome:
    """phi_e(x) within `budget` steps, relative to `oracle` (default all-zeros)."""
    if budget < 0:
        raise ValueError("budget is a natural")
    return _run(decode(e), x, budget, oracle)[0]


def eval_steps(e: ProgramIndex, x: int, budget: int, oracle: Optional[Oracle] = None) -> tuple[EvalOutcome, int]:
    """Like eval_program but also reports steps consumed (== budget when Running)."""
    if budget < 0:
        raise ValueError("budget is a natural")
    return _run(decode(e), x, budget, oracle)


def enumerate_re(e: ProgramIndex, budget: int, oracle: Optional[Oracle] = None) -> frozenset[int]:
    """W_{e,budget} = {x <= budget : eval(e, x, budget) halts}."""
    return domain_window(e, budget + 1, budget, oracle)


def domain_window(e: ProgramIndex, horizon: int, budget: int,
                  oracle: Optional[Oracle] = None) -> frozenset[int]:
    """{x < horizon : eval(e, x, budget) halts}: a bounded domain snapshot."""
    prog = decode(e)
    if not prog.instructions or not _halt_reachable(prog.instructions)[0]:
        return frozenset()
    return frozenset(
        x for x in range(horizon)
        if isinstance(_run(prog, x, budget, oracle)[0], Halted)
    )


def re_enumeration_order(e: ProgramIndex, budget: int, oracle: Optional[Oracle] = None) -> tuple[int, ...]:
    """W_{e,budget} in canonical enumeration order.

    Elements are ordered by (max(halting steps, value), value).  This order
    is stable as the budget grows, so "the first k elements of W_e" is well
    defined independent of the budget that first exposed them.
    """
    return re_enumeration_growth(e, budget, oracle)[0]


def re_enumeration_growth(e: ProgramIndex, budget: int,
                          oracle: Optional[Oracle] = None) -> tuple[tuple[int, ...], int]:
    """re_enumeration_order(e, budget) and |W_{e,budget//2}| from one pass.

    The second value is the growth checkpoint: W_e looks infinite at this
    budget when the first value is longer.  By budget monotonicity, x lies
    in W_{e,budget//2} exactly when x <= budget//2 and the run at this
    budget halts within budget//2 steps, so no second pass is needed.
    """
    prog = decode(e)
    if not prog.instructions or not _halt_reachable(prog.instructions)[0]:
        return (), 0
    half = budget // 2
    entries = []
    at_half = 0
    for x in range(budget + 1):
        out, steps = _run(prog, x, budget, oracle)
        if isinstance(out, Halted):
            entries.append((max(steps, x), x))
            if x <= half and steps <= half:
                at_half += 1
    entries.sort()
    return tuple(x for _, x in entries), at_half


# ---------------------------------------------------------------------------
# s-m-n and the recursion theorem.

def _shift_jumps(instructions: tuple[tuple[int, ...], ...], offset: int) -> list[tuple[int, ...]]:
    out = []
    for ins in instructions:
        if ins[0] == OP_JMP:
            out.append((OP_JMP, ins[1] + offset))
        elif ins[0] == OP_JZ:
            out.append((OP_JZ, ins[1], ins[2] + offset))
        else:
            out.append(ins)
    return out


@lru_cache(maxsize=8192)
def smn_fill(e: ProgramIndex, a: int) -> ProgramIndex:
    """Index e' with phi_{e'}(x) = phi_e(pair(a, x)).

    Purely syntactic (e is never run): a three-instruction prefix computes
    pair(a, x) into R0, restores the scratch register, and falls into the
    body of e with jump targets shifted.  Step cost of e' exceeds e's by
    exactly SMN_STEP_OVERHEAD.
    """
    body = decode(e).instructions
    prefix = [
        (OP_LOAD, 1, a),
        (OP_PAIR, 0, 1, 0),
        (OP_LOAD, 1, 0),
    ]
    return encode(ToyProgram(tuple(prefix + _shift_jumps(body, len(prefix)))))


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
    converges, raising FixedPointBudgetExceeded otherwise (in which case
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
    if not isinstance(eval_program(transform, e_star, budget), Halted):
        raise FixedPointBudgetExceeded(
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
