"""The package's value classes: what their constructors, `==`, `hash`, `repr`
and frozenness promise, and that importing the CLI generates no code.

Each of the 23 classes is listed with its constructor's parameters and
defaults and two unequal sample instances.  For every class: positional
and keyword construction agree; `==` holds only between instances of the
same class (not a subclass) over the fields in order; the hash is the hash
of the field tuple (or TypeError for both when a field is unhashable);
`repr` is `Name(field=value, ...)`; assignment and deletion raise
AttributeError, while `object.__setattr__` still reaches the instance's
`__dict__`.  `CommandResult` is the one mutable class: it is unhashable
and takes assignment, and each instance gets fresh lists.  The
constructors' checks and normalisations keep their messages and results.

A subprocess imports `dnrlab.cli` into a fresh interpreter and checks
that it loads none of `dataclasses`, `inspect`, `ast` or `dis`.
"""

from __future__ import annotations

import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dnrlab.bushy import (
    CounterexampleWitness,
    LemmaHolds,
    OrderFunction,
    PreconditionViolated,
    TreeWitness,
)
from dnrlab.cli import CommandResult, RunConfig
from dnrlab.dyadic import DyadicRational
from dnrlab.forcing import (
    BudgetExceeded,
    DiagonalExt,
    FiniteFunctional,
    ForcingCondition,
    NonTotalExt,
    SearchLimits,
)
from dnrlab.machine import Halted, ToyProgram, decode
from dnrlab.numbering import LownessVerdict, TableNumbering
from dnrlab.oracle import PatchedOracle, PeriodicOracle, PrefixOracle, SetOracle
from dnrlab.stages import StageTrace

SRC = Path(__file__).resolve().parent.parent / "src"

REQ = inspect.Parameter.empty  # a parameter with no default
FRESH = object()  # a default that is a fresh empty list per instance

G3 = OrderFunction((3,))
COND = ForcingCondition((), frozenset(), G3)
HALT = decode(23).instructions  # `halt r0`

# class: (its parameters with their defaults, two unequal samples' arguments)
CASES = {
    OrderFunction: ([("table", REQ), ("tail_base", 0), ("tail_period", 0)],
                    [((3,),), ((2, 3), 4, 2)]),
    TreeWitness: ([("stem", REQ), ("nodes", REQ)],
                  [((), frozenset({(), (0,)})), ((0,), frozenset({(0,)}))]),
    PreconditionViolated: ([("reason", REQ)], [("r",), ("s",)]),
    LemmaHolds: ([("detail", "")], [("d",), ("e",)]),
    CounterexampleWitness: ([("detail", REQ), ("witness", None)],
                            [("d", None), ("d", TreeWitness((), frozenset({()})))]),
    Halted: ([("value", REQ)], [(5,), (6,)]),
    ToyProgram: ([("instructions", REQ)], [(HALT,), ((),)]),
    SearchLimits: ([("eval_budget", 100_000), ("fixpoint_budget", 10_000)],
                   [(), (5, 6)]),
    FiniteFunctional: ([("depth", REQ), ("table", REQ)],
                       [(2, (((), (1,)),)), (2, ())]),
    ForcingCondition: ([("stem", REQ), ("badset", REQ), ("g", REQ)],
                       [((), frozenset(), G3), ((0,), frozenset(), G3)]),
    NonTotalExt: ([("condition", REQ), ("m", REQ), ("certificate", REQ), ("trace", ())],
                  [(COND, 3, {"kind": "x"}), (COND, 4, {"kind": "x"}, ("t",))]),
    DiagonalExt: ([("condition", REQ), ("certificate", REQ), ("trace", ())],
                  [(COND, {"k": 1}), (COND, {"k": 2})]),
    BudgetExceeded: ([("reason", REQ), ("trace", ())], [("why",), ("why", ("t",))]),
    PrefixOracle: ([("bits", REQ), ("tail", 0)], [((1, 0),), ((1,), 1)]),
    PeriodicOracle: ([("pattern", REQ)], [((1, 0),), ((0,),)]),
    SetOracle: ([("members", REQ)], [(frozenset({1, 2}),), (frozenset(),)]),
    PatchedOracle: ([("base", REQ), ("patches", REQ)],
                    [(PeriodicOracle((0,)), ((3, 1),)), (PeriodicOracle((0,)), ())]),
    TableNumbering: ([("sets", REQ)], [((frozenset({1}),),), ((),)]),
    LownessVerdict: ([("holds", REQ), ("partial_sum", REQ), ("first_violation", None),
                      ("violating_term", None)],
                     [(True, DyadicRational(1, 2)),
                      (False, DyadicRational(3, 2), 1, DyadicRational(1, 1))]),
    DyadicRational: ([("numerator", REQ), ("exponent", 0)], [(3, 2), (5,)]),
    StageTrace: ([("stages", REQ), ("budget", REQ), ("records", REQ)],
                 [(1, 10, ({"stage": 1},)), (0, 10, ())]),
    RunConfig: ([("command", REQ), ("seed", 0), ("g_spec", None), ("in_path", None),
                 ("out_path", None), ("budgets", ())],
                [("closure",), ("replay", 1, "3", "a", "b", (("eval", 1),))]),
    CommandResult: ([("exit_code", 0), ("summary", FRESH), ("certificates", FRESH),
                     ("error", None)],
                    [(), (3, ["s"], [{}], "e")]),
}
FROZEN = [cls for cls in CASES if cls is not CommandResult]


def _names(cls) -> list[str]:
    return [name for name, _ in CASES[cls][0]]


def _values(obj) -> tuple:
    return tuple(getattr(obj, name) for name in _names(type(obj)))


def _samples(cls):
    return [cls(*args) for args in CASES[cls][1]]


def _hash_or_error(value):
    try:
        return hash(value)
    except TypeError:
        return TypeError


def test_every_value_class_is_listed():
    assert len(CASES) == 23


@pytest.mark.parametrize("cls", CASES, ids=lambda c: c.__name__)
def test_constructor_keeps_its_parameters_and_defaults(cls):
    params = list(inspect.signature(cls).parameters.values())
    assert [p.name for p in params] == _names(cls)
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    for p, (_, default) in zip(params, CASES[cls][0]):
        if default is FRESH:
            assert p.default is not REQ
        else:
            assert p.default == default and type(p.default) is type(default)
    for args in CASES[cls][1]:
        assert cls(*args) == cls(**dict(zip(_names(cls), args)))


@pytest.mark.parametrize("cls", CASES, ids=lambda c: c.__name__)
def test_equality_is_over_the_fields_of_one_class(cls):
    a, b = _samples(cls)
    twin = cls(*CASES[cls][1][0])
    assert a == twin and not a != twin
    assert a != b and not a == b
    sub = type("Sub", (cls,), {})(*CASES[cls][1][0])
    assert tuple(getattr(sub, name) for name in _names(cls)) == _values(a)
    assert a != sub and sub != a
    assert a != _values(a)


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
def test_hash_is_the_hash_of_the_field_tuple(cls):
    for obj in _samples(cls):
        assert _hash_or_error(obj) == _hash_or_error(_values(obj))


@pytest.mark.parametrize("cls", CASES, ids=lambda c: c.__name__)
def test_repr_names_every_field(cls):
    for obj in _samples(cls):
        fields = ", ".join(f"{name}={getattr(obj, name)!r}" for name in _names(cls))
        assert repr(obj) == f"{cls.__qualname__}({fields})"


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
def test_frozen_instances_refuse_assignment_and_deletion(cls):
    obj = _samples(cls)[0]
    before = _values(obj)
    for name in _names(cls) + ["extra"]:
        with pytest.raises(AttributeError):
            setattr(obj, name, 0)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert _values(obj) == before
    # the way around the refusal stays open: fields live in __dict__
    name = _names(cls)[0]
    object.__setattr__(obj, name, before[0])
    assert obj.__dict__[name] is before[0]


def test_command_result_is_mutable_and_unhashable():
    first, second = CommandResult(), CommandResult()
    assert first.summary == first.certificates == []
    assert first.summary is not second.summary
    assert first.certificates is not second.certificates
    assert first.summary is not first.certificates
    first.exit_code = 3
    first.summary.append("x")
    assert (first.exit_code, second.summary) == (3, [])
    del first.error
    with pytest.raises(TypeError):
        hash(second)


def test_cached_attributes_take_no_part_in_the_value():
    g = OrderFunction((2, 3), 4, 2)
    assert g._hash == hash(((2, 3), 4, 2)) and "_hash" in g.__dict__
    tree = TreeWitness((), frozenset({(), (0,), (1,)}))
    assert tree.children_of(()) == [(0,), (1,)]
    assert tree == TreeWitness((), frozenset({(), (0,), (1,)}))
    program = ToyProgram(HALT)
    assert program.live == (True,)
    assert repr(program) == f"ToyProgram(instructions={HALT!r})"


@pytest.mark.parametrize("build, message", [
    (lambda: OrderFunction(()), "order function needs at least one table entry"),
    (lambda: OrderFunction((1,)), "branching widths must be >= 2"),
    (lambda: OrderFunction((3, 2)), "branching widths must be nondecreasing"),
    (lambda: OrderFunction((3,), -1), "tail parameters are naturals"),
    (lambda: ToyProgram(((99,),)), "unknown opcode 99"),
    (lambda: FiniteFunctional(-1, ()), "depth is a natural"),
    (lambda: ForcingCondition((5,), frozenset(), G3), r"stem \(5,\) is not a valid string"),
    (lambda: PrefixOracle((2,)), "oracle bits must be 0 or 1"),
    (lambda: PeriodicOracle(()), "pattern must be nonempty 0/1"),
    (lambda: PatchedOracle(PeriodicOracle((0,)), ((1, 2),)), "patch bits must be 0 or 1"),
    (lambda: DyadicRational(1, -1), "exponent is a natural"),
    (lambda: StageTrace(2, 1, ()), "one record per stage"),
])
def test_constructor_checks_keep_their_messages(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_constructors_normalise_their_fields():
    assert _values(DyadicRational(12, 3)) == (3, 1)
    cond = ForcingCondition([], [], G3)
    assert (cond.stem, cond.badset) == ((), frozenset())
    assert FiniteFunctional(1, [((0,), (1,)), ((), ())]).table == (((), ()), ((0,), (1,)))
    patched = PatchedOracle(PeriodicOracle((0,)), ((3, 1), (1, 0), (3, 0)))
    assert patched.patches == ((1, 0), (3, 0)) and patched.bit(3) == 0


def test_importing_the_cli_generates_no_code():
    probe = ("import sys; before = set(sys.modules); import dnrlab.cli; "
             "print(*sorted(set(sys.modules) - before))")
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    loaded = set(out.split())
    assert "dnrlab.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis"}
