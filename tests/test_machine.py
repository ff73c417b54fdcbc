"""Register-machine substrate tests.

The interpreter under test carries three fast paths: dead-code liveness,
an exact loop check (a taken jump that lands on a saved configuration of
the same frame diverges) and free left/right of the value the last pair
produced.  `naive_eval` below is a separate bare-bones interpreter with
none of them, written directly from the instruction semantics; a sweep
cross-checks the two on a few thousand indices, and random looping
programs cross-check them at budgets long enough for loops to repeat.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    FixedPointBudgetExceeded,
    Halted,
    ToyProgram,
    decode,
    diagonal_index,
    encode,
    enumerate_re,
    eval_program,
    eval_steps,
    fixed_point,
    gamma,
    gamma_inverse,
    pair,
    program,
    re_enumeration_growth,
    re_enumeration_order,
    self_reference,
    smn_fill,
    unpair,
)
from dnrlab.oracle import EVENS, PrefixOracle

IDENTITY = program([(OP_HALT, 0)])
CONST1 = program([(OP_LOAD, 1, 1), (OP_HALT, 1)])


# ---------------------------------------------------------------------------
# Reference interpreter: no caches, no fast paths, straight off the semantics.

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
            regs[ins[1]] = pair(regs[ins[2]], regs[ins[3]])
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


def naive_eval(e, x, budget, oracle=None):
    h, v, c = _naive_run(decode(e).instructions, x, budget, oracle)
    return (Halted(v) if h else RUNNING), (c if h else budget)


# ---------------------------------------------------------------------------
# Coding layer.

def test_frozen_index_vectors():
    assert decode(0) == EMPTY_PROGRAM
    assert encode(IDENTITY) == 23
    assert encode(CONST1) == 10531


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


@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_pairing_bijection(a, b):
    assert unpair(pair(a, b)) == (a, b)


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
    assert eval_program(e, 4, 10, EVENS) == Halted(1)
    assert eval_program(e, 5, 10, EVENS) == Halted(0)
    assert eval_program(e, 5, 10) == Halted(0)  # default oracle is all zeros
    assert eval_program(e, 2, 10, PrefixOracle((0, 0, 1))) == Halted(1)


def test_halting_budget_is_tight():
    # steps reported on halt are exactly the minimal sufficient budget
    cases = [(23, 5), (encode(CONST1), 0)]
    for e, x in cases:
        out, used = eval_steps(e, x, 100)
        assert isinstance(out, Halted)
        assert eval_program(e, x, used) == out
        assert eval_program(e, x, used - 1) is RUNNING


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
    for p in (add_loop, nested_univ, budv_probe, pairing):
        e = encode(p)
        for x in range(6):
            for budget in (0, 1, 3, 10, 50, 300):
                assert eval_steps(e, x, budget) == naive_eval(e, x, budget), (p, x, budget)


@given(program_st, st.integers(0, 6))
@settings(max_examples=120, deadline=None)
def test_matches_naive_interpreter_random(p, x):
    e = encode(p)
    assert eval_steps(e, x, 48) == naive_eval(e, x, 48)


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
    assert eval_steps(e, x, budget) == naive_eval(e, x, budget)
    assert eval_steps(e, x, budget, EVENS) == naive_eval(e, x, budget, EVENS)


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
])
def test_configuration_loops_end_at_once(looper):
    start = time.perf_counter()
    assert eval_steps(encode(looper), 3, 10**9) == (RUNNING, 10**9)
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
    for x in (0, 1, 2, 7, 40, 10**30):
        for budget in (0, 1, 5, 17, 64, 300, 2000):
            assert eval_steps(e, x, budget) == naive_eval(e, x, budget), (x, budget)
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


def test_univ_of_diverger_diverges():
    outer = program([(OP_LOAD, 1, 0), (OP_UNIV, 2, 1, 0), (OP_HALT, 2)])
    assert eval_program(encode(outer), 0, 10**4) is RUNNING


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
    halted = [v for v in verdicts if isinstance(v, Halted)]
    assert all(v == Halted(0) for v in halted)
    # Running up to the resolution point, Halted(0) from there on
    first = next(i for i, v in enumerate(verdicts) if isinstance(v, Halted))
    assert all(v is RUNNING for v in verdicts[:first])
    assert all(isinstance(v, Halted) for v in verdicts[first:])


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
    with pytest.raises(FixedPointBudgetExceeded):
        fixed_point(0, budget=500)


def test_diagonal_index_of_const_program():
    # phi_u(u) = 23 for a constant-23 u, so d(u) computes the identity
    u = encode(program([(OP_LOAD, 1, 23), (OP_HALT, 1)]))
    d = diagonal_index(u)
    assert eval_program(d, 11, 1000) == Halted(11)


# ---------------------------------------------------------------------------
# R.e. set enumeration.

EVEN_HALT = program([
    (OP_LOAD, 1, 2),
    (OP_MOD, 2, 0, 1),
    (OP_JZ, 2, 4),
    (OP_JMP, 3),
    (OP_HALT, 0),
])


def test_enumerate_re_even_halting():
    e = encode(EVEN_HALT)
    assert enumerate_re(e, 6) == frozenset({0, 2, 4, 6})
    assert enumerate_re(e, 3) == frozenset()  # four steps are needed to halt
    assert enumerate_re(e, 4) == frozenset({0, 2, 4})
    assert enumerate_re(0, 50) == frozenset()


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


@given(program_st, st.integers(0, 60))
@settings(max_examples=150, deadline=None)
def test_growth_checkpoint_matches_two_passes(p, budget):
    e = encode(p)
    order, at_half = re_enumeration_growth(e, budget)
    assert order == re_enumeration_order(e, budget) == _order_by_eval_steps(e, budget)
    assert at_half == len(re_enumeration_order(e, budget // 2))
    assert at_half == len(_order_by_eval_steps(e, budget // 2))


def test_growth_checkpoint_on_stock_sets():
    # runs halting in exactly budget//2 steps sit on the checkpoint's edge
    for prog in (IDENTITY, CONST1, EVEN_HALT):
        for budget in range(12):
            at_half = re_enumeration_growth(encode(prog), budget)[1]
            assert at_half == len(re_enumeration_order(encode(prog), budget // 2))
    # evens keep growing between the checkpoint and the budget; a finite
    # set has stopped by then
    order, at_half = re_enumeration_growth(encode(EVEN_HALT), 40)
    assert len(order) > at_half == len(re_enumeration_order(encode(EVEN_HALT), 20))
    zero_only = program([(OP_JZ, 0, 2), (OP_JMP, 1), (OP_HALT, 0)])
    assert re_enumeration_growth(encode(zero_only), 40) == ((0,), 1)
