"""Command-line front door: audits, constructions, sweeps, and replay.

Every command is a pure function of its RunConfig: a fixed seed drives all
randomness, traces carry no clock or environment data, and running the
same config twice produces byte-identical output.  Traces are JSON Lines:
a schema-version header, then one self-contained certificate per line.
The replay command re-verifies any such trace against the current build.

Exit codes: 0 success, 1 input error, 2 budget exhausted, 3 counterexample
or replay mismatch found.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from typing import Callable, NamedTuple

from ._value import _set_field, _Value
from .asm import EVEN_HALT_INDEX, IDENTITY_INDEX, ZERO_INDEX, const_index
from .bushy import (
    LemmaHolds,
    OrderFunction,
    TreeWitness,
    closure,
    intersection_bushiness_check,
    is_n_big,
    level_nodes,
    union_smallness_sweep,
    witness_tree,
)
from .certs import certificate, decode_field, replay_certificate
from .dyadic import DyadicRational
from .errors import (
    CombinatorialBlowup,
    InsufficientOracle,
    MalformedCertificate,
    PreconditionViolated,
    ReplayMismatch,
    WitnessBudgetExceeded,
)
from .forcing import (
    BudgetExceeded,
    FiniteFunctional,
    ForcingCondition,
    NonTotalExt,
    SearchLimits,
    density_search,
)
from .numbering import (
    TERM_LIMIT,
    TableNumbering,
    lowness_bound_check,
    snr_from_immune_oracle,
    tail_constraints,
    union_cylinder_measure,
)
from .oracle import PeriodicOracle
from .reductions import blocking_prefix, dnr_reduction_audit
from .stages import audit_effective_immunity, ei_not_coei

TRACE_SCHEMA = "dnrlab-trace-1"

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2
EXIT_COUNTEREXAMPLE = 3

# The widest integer, in decimal digits, that a trace or an --in file may
# hold while `main` runs.  Diagonal indices grow with the square of the
# fused list, past CPython's default of 4300.
INT_DIGIT_LIMIT = 1 << 16

class InputError(ValueError):
    """Configuration or input file problems: reported, exit code 1."""


class RunConfig(_Value):
    def __init__(self, command: str, seed: int = 0, g_spec: str | None = None,
                 in_path: str | None = None, out_path: str | None = None,
                 budgets: tuple[tuple[str, int], ...] = ()) -> None:
        _set_field(self, "command", command)
        _set_field(self, "seed", seed)
        _set_field(self, "g_spec", g_spec)
        _set_field(self, "in_path", in_path)
        _set_field(self, "out_path", out_path)
        _set_field(self, "budgets", budgets)

    def header(self) -> dict:
        return {
            "schema": TRACE_SCHEMA,
            "command": self.command,
            "seed": self.seed,
            "g": self.g_spec,
            "budgets": {k: v for k, v in self.budgets},
        }


class CommandResult(_Value):
    # the one mutable value class, so it is unhashable
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, exit_code: int = EXIT_OK, summary: list[str] | None = None,
                 certificates: list[dict] | None = None, error: str | None = None) -> None:
        self.exit_code = exit_code
        self.summary = [] if summary is None else summary
        self.certificates = [] if certificates is None else certificates
        self.error = error  # replaces the summary with one JSON line on stderr


def _load_input(config: RunConfig, fields: dict) -> dict:
    """Every field the command reads: from the --in object, decoded by the
    rule for its name, or else its default; any other field is an input error."""
    if config.in_path is None:
        return dict(fields)
    try:
        with open(config.in_path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read input file: {exc}")
    except (ValueError, RecursionError) as exc:  # past INT_DIGIT_LIMIT too
        raise InputError(f"input file is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise InputError("input file must hold a JSON object")
    unknown = sorted(data.keys() - fields.keys())
    if unknown:
        raise InputError(f"{config.command} reads no input field named {unknown[0]!r}; "
                         f"it reads {list(fields)}")
    return {**fields, **{key: decode_field("input file", key, value)
                         for key, value in data.items()}}


# ---------------------------------------------------------------------------
# Commands.  Each body takes the order function (None if the command reads
# none), the --in fields, the budgets and the seed, every one resolved by
# `resolve` from the flags or the defaults COMMANDS declares.

def _cmd_bushy_check(g, data, budgets, seed) -> CommandResult:
    depth, stem = data["depth"], data["stem"]
    B = data["set"] if data["set"] is not None else frozenset(level_nodes(g, depth))
    n = data["n"] if data["n"] is not None else g(0)
    big = is_n_big(B, n, g, stem, depth)
    witness = witness_tree(B, n, g, stem, depth, exactly=True) if big else None
    word = "big" if big else "small"
    return CommandResult(
        summary=[f"set of {len(B)} strings is {n}-{word} above {stem}"],
        certificates=[certificate("bushiness_verdict", g=g, stem=stem, depth=depth, n=n,
                                  set=B, big=big, witness=witness)])


def _cmd_closure(g, data, budgets, seed) -> CommandResult:
    depth, B, n = data["depth"], data["set"], data["n"]
    closed = closure(B, n, g, depth)
    return CommandResult(
        summary=[f"{n}-closure of {len(B)} strings has {len(closed)} nodes"],
        certificates=[certificate("closure_result", g=g, n=n, depth=depth, set=B,
                                  closure=closed)])


def _cmd_lemma_sweep(g, data, budgets, seed) -> CommandResult:
    depth, pairs, stems = data["depth"], data["pairs"], data["stems"]
    out = union_smallness_sweep(g, depth, pairs, stems)
    certs = list(out["counterexamples"])
    certs.append(certificate("sweep_summary", g=g, depth=depth, pairs=pairs, stems=stems,
                             instances=out["instances"],
                             counterexamples=len(out["counterexamples"])))
    code = EXIT_COUNTEREXAMPLE if out["counterexamples"] else EXIT_OK
    return CommandResult(
        exit_code=code,
        summary=[f"{out['instances']} big unions checked, "
                 f"{len(out['counterexamples'])} counterexamples"],
        certificates=certs)


def _random_subtree(rng: random.Random, ambient: TreeWitness, width: int) -> frozenset:
    """Nodes of a random width-branching subtree of the ambient tree."""
    keep = {ambient.stem}
    frontier = [ambient.stem]
    while frontier:
        node = frontier.pop()
        children = ambient.children_of(node)
        if not children:
            continue
        chosen = rng.sample(children, width)
        keep.update(chosen)
        frontier.extend(chosen)
    return frozenset(keep)


def _cmd_fusion_check(g, data, budgets, seed) -> CommandResult:
    instances, depth = budgets["instances"], budgets["depth"]
    rng = random.Random(seed)
    certs: list[dict] = []
    failures = 0
    for i in range(instances):
        k = rng.randint(1, 3)
        g = OrderFunction.constant(6 * k)
        ambient = witness_tree(frozenset(level_nodes(g, depth)), 6 * k, g, (), depth, exactly=True)
        F = _random_subtree(rng, ambient, 4 * k)
        C = _random_subtree(rng, ambient, 4 * k)
        verdict = intersection_bushiness_check(ambient, F, C, k, g)
        if not isinstance(verdict, LemmaHolds):
            failures += 1
            continue
        certs.append(certificate("fusion_intersection", g=g, k=k, ambient=ambient, first=F,
                                 second=C, intersection_size=len(F & C)))
    # one pigeonhole certificate: a 3-coloring of an exactly-6k tree's leaves
    # always leaves one class 2k-big
    k = 1
    g = OrderFunction.constant(6 * k)
    ambient = witness_tree(frozenset(level_nodes(g, depth)), 6 * k, g, (), depth, exactly=True)
    colors = {leaf: rng.randint(0, 2) for leaf in sorted(ambient.leaves())}
    classes = {c: frozenset(leaf for leaf, cc in colors.items() if cc == c)
               for c in (0, 1, 2)}
    chosen = next(c for c in (0, 1, 2)
                  if is_n_big(classes[c], 2 * k, g, (), depth))
    certs.append(certificate(
        "pigeonhole_witness", g=g, stem=(), depth=depth, k=k, colors=classes,
        chosen_color=chosen,
        witness=witness_tree(classes[chosen], 2 * k, g, (), depth, exactly=True)))
    code = EXIT_COUNTEREXAMPLE if failures else EXIT_OK
    return CommandResult(
        exit_code=code,
        summary=[f"{instances} fusion instances, {failures} failures",
                 f"pigeonhole color class {chosen} is {2 * k}-big"],
        certificates=certs)


def _builtin_functionals() -> list[tuple[str, FiniteFunctional]]:
    parity = {(c,): (c % 2,) for c in range(8)}
    return [
        ("empty", FiniteFunctional(3, ())),
        ("constant", FiniteFunctional.constant(3, (0, 0, 0))),
        ("parity", FiniteFunctional.from_entries(2, parity)),
    ]


def _cmd_density_search(g, data, budgets, seed) -> CommandResult:
    limits = SearchLimits(eval_budget=budgets["eval"], fixpoint_budget=budgets["fixpoint"])
    if data["functional"] is not None:
        battery = [("input", data["functional"])]
    else:
        battery = _builtin_functionals()
    cond = ForcingCondition((), frozenset(), g)
    certs, summary = [], []
    for name, table in battery:
        verdict = density_search(table, data["q"], cond, limits)
        if isinstance(verdict, BudgetExceeded):
            return CommandResult(exit_code=EXIT_BUDGET, certificates=certs,
                                 error=f"budget exhausted: {name}: {verdict.reason}")
        certs.append(verdict.certificate)
        label = "non-total" if isinstance(verdict, NonTotalExt) else "diagonal"
        summary.append(f"{name}: {label} extension, stem {list(verdict.condition.stem)}")
    return CommandResult(summary=summary, certificates=certs)


def _cmd_dnr_audit(g, data, budgets, seed) -> CommandResult:
    e_max, budget = budgets["audit"], budgets["eval"]
    certs = dnr_reduction_audit(data["oracle"], data["f"], e_max, budget)
    by_kind: dict[str, int] = {}
    for cert in certs:
        by_kind[cert["kind"]] = by_kind.get(cert["kind"], 0) + 1
    summary = [f"audited diagonals up to {e_max} at budget {budget}"]
    summary += [f"  {kind}: {count}" for kind, count in sorted(by_kind.items())]
    return CommandResult(summary=summary, certificates=certs)


def _cmd_ei_construct(g, data, budgets, seed) -> CommandResult:
    stages, budget = budgets["stages"], budgets["eval"]
    value_cap, probes = budgets["value_cap"], budgets["probes"]
    trace, g_map = ei_not_coei(stages, budget, value_cap=value_cap, probes=probes)
    violations = audit_effective_immunity(g_map, stages // 2, budget)
    certs = [certificate("interval_slice", **rec) for rec in trace.interval_records()]
    certs.append(certificate(
        "stage_summary", stages=stages, budget=budget, value_cap=value_cap, probes=probes,
        ones=sorted(x for x, b in g_map.items() if b == 1), record_count=len(trace.records),
        interval_count=len(trace.interval_records())))
    ones = sum(1 for b in g_map.values() if b == 1)
    summary = [
        f"{stages} stages, {ones} ones, {len(trace.interval_records())} intervals",
        f"immunity audit violations: {len(violations)}",
    ]
    code = EXIT_COUNTEREXAMPLE if violations else EXIT_OK
    return CommandResult(exit_code=code, summary=summary, certificates=certs)


def _cmd_schnorr_measure(g, data, budgets, seed) -> CommandResult:
    c, e_max = budgets["c"], budgets["e_max"]
    constraints = tail_constraints(TableNumbering(data["sets"]), c, e_max)
    measure = union_cylinder_measure(constraints)
    cert = certificate("cylinder_measure", sets=constraints, term_cap=TERM_LIMIT,
                       measure=measure, tail_exponent=c)
    if measure > DyadicRational.half_power(c):  # the measure proof is broken
        return CommandResult(exit_code=EXIT_COUNTEREXAMPLE,
                             summary=[f"tail bound violated: union measure {measure} > 2^-{c}"],
                             certificates=[cert])
    return CommandResult(
        summary=[f"{len(constraints)} constraint sets over ({c}, {e_max}]",
                 f"union measure {measure} <= 2^-{c}"],
        certificates=[cert])


def _cmd_lowness_check(g, data, budgets, seed) -> CommandResult:
    h, p, f = data["h"], data["p"], data["f"]
    c, e_max, budget = budgets["c"], budgets["e_max"], budgets["eval"]
    verdict = lowness_bound_check(h, p, f, c, e_max, budget)
    cert = certificate("lowness_bound", h=h, p=p, f=f, c=c, e_max=e_max, budget=budget,
                       verdict=verdict)
    if verdict.holds:
        summary = [f"termwise bound holds; partial sum {verdict.partial_sum} <= 2^-{c}"]
        code = EXIT_OK
    else:
        summary = [f"bound fails first at e = {verdict.first_violation}"]
        code = EXIT_COUNTEREXAMPLE
    return CommandResult(exit_code=code, summary=summary, certificates=[cert])


def _cmd_snr_demo(g, data, budgets, seed) -> CommandResult:
    oracle, h = data["oracle"], data["h"]
    e_max, budget = budgets["audit"], budgets["eval"]
    certs = [certificate("snr_slice", oracle=oracle, h=h, e=e, budget=budget,
                         value=snr_from_immune_oracle(oracle, h, e, budget))
             for e in range(e_max + 1)]
    summary = [f"slice codes for e <= {e_max}: {sorted({c['value'] for c in certs})}"]
    return CommandResult(summary=summary, certificates=certs)


def _cmd_blocking_prefix(g, data, budgets, seed) -> CommandResult:
    sigma, cert = blocking_prefix(data["prefix"], data["e"], data["f"], budgets["eval"])
    return CommandResult(
        summary=[f"{cert['kind']}: sigma = {list(sigma)}, "
                 f"members {cert['members']}"],
        certificates=[cert])


def _cmd_replay(g, path, budgets, seed) -> CommandResult:
    if path is None:
        raise InputError("replay requires --in pointing at a trace file")
    try:
        with open(path) as fh:
            # numbered as in the file, blank lines included
            lines = [(lineno, line) for lineno, line in
                     enumerate(fh.read().splitlines(), start=1) if line.strip()]
    except OSError as exc:
        raise InputError(f"cannot read trace file: {exc}")
    if not lines:
        raise InputError("trace file is empty")
    try:
        header = json.loads(lines[0][1])
    except (ValueError, RecursionError) as exc:
        raise InputError(f"trace header is not valid JSON: {exc}")
    if not isinstance(header, dict) or header.get("schema") != TRACE_SCHEMA:
        raise InputError(f"trace header lacks schema {TRACE_SCHEMA!r}")
    checked: dict[str, int] = {}
    mismatches: list[str] = []
    scan_once = json.JSONDecoder().scan_once
    for lineno, line in lines[1:]:
        # one pass for a bare value; json.loads accepts or names the rest
        try:
            cert, end = scan_once(line, 0)
        except (StopIteration, ValueError, RecursionError):
            end = -1
        if end != len(line):
            try:
                cert = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise InputError(f"line {lineno} is not valid JSON: {exc}")
        try:
            kind = replay_certificate(cert)
        except ReplayMismatch as exc:
            mismatches.append(f"line {lineno}: {exc}")
            continue
        except MalformedCertificate as exc:
            raise InputError(f"line {lineno}: {exc}")
        checked[kind] = checked.get(kind, 0) + 1
    total = sum(checked.values())
    summary = [f"{total} certificates verified, {len(mismatches)} mismatches"]
    summary += [f"  {kind}: {count}" for kind, count in sorted(checked.items())]
    summary += [f"  MISMATCH {m}" for m in mismatches]
    code = EXIT_COUNTEREXAMPLE if mismatches else EXIT_OK
    return CommandResult(exit_code=code, summary=summary, certificates=[])


class Command(NamedTuple):
    """Everything a command reads; a flag it does not read is an input error."""

    body: Callable[..., CommandResult]
    g: str | None = None  # the --g default, or None when it reads no order function
    budgets: dict[str, int] = {}  # each --budget.<name> and its default
    # each --in field and its default (None: derived by the body from the
    # other inputs), or None when --in is a path the body opens itself
    fields: dict[str, object] | None = {}


# The one declaration of every command's inputs.
COMMANDS = {
    "bushy-check": Command(_cmd_bushy_check, g="3",
                           fields={"set": None, "n": None, "stem": (), "depth": 2}),
    "closure": Command(_cmd_closure, g="3",
                       fields={"set": frozenset({(0,), (1, 0)}), "n": 2, "depth": 2}),
    "lemma-sweep": Command(_cmd_lemma_sweep, g="3", fields={
        "pairs": ((2, 2), (2, 3), (3, 2), (3, 3)), "stems": ((),), "depth": 2}),
    "fusion-check": Command(_cmd_fusion_check, budgets={"instances": 10, "depth": 2}),
    "density-search": Command(
        _cmd_density_search, g="8",
        budgets={"eval": SearchLimits().eval_budget,
                 "fixpoint": SearchLimits().fixpoint_budget},
        fields={"functional": None, "q": const_index(0)}),  # no functional: a stock battery
    "dnr-audit": Command(_cmd_dnr_audit, budgets={"audit": 700, "eval": 10_000},
                         fields={"oracle": PeriodicOracle((1, 0)), "f": ZERO_INDEX}),
    "ei-construct": Command(_cmd_ei_construct, budgets={
        "stages": 200, "eval": 100_000, "value_cap": 512, "probes": 3}),
    "schnorr-measure": Command(_cmd_schnorr_measure, budgets={"c": 2, "e_max": 32}, fields={
        "sets": tuple(map(frozenset, (
            (0,), (1,), (0, 1), (0, 1, 2, 3, 4, 5), (0, 2, 4, 6, 8, 10, 12, 14),
            (0, 1, 2, 3, 4, 5, 6, 7, 8, 9), (2, 3), (0, 2, 4), (1, 3, 5))))}),
    "lowness-check": Command(_cmd_lowness_check, budgets={"c": 0, "e_max": 20, "eval": 10_000},
                             fields={"h": const_index(1), "p": IDENTITY_INDEX,
                                     "f": IDENTITY_INDEX}),
    "snr-demo": Command(_cmd_snr_demo, budgets={"audit": 10, "eval": 10_000},
                        fields={"oracle": PeriodicOracle((1, 0)), "h": const_index(1)}),
    "blocking-prefix": Command(_cmd_blocking_prefix, budgets={"eval": 100_000}, fields={
        "prefix": (1,), "e": EVEN_HALT_INDEX, "f": const_index(2)}),
    "replay": Command(_cmd_replay, fields=None),  # --in is the trace
}


# ---------------------------------------------------------------------------
# Plumbing.

def _integer(what: str, text: str) -> int:
    """`text` as an integer in ASCII digits, else InputError: nothing is
    coerced, and int() alone would also read other digits, "1_0", "+5" and " 5"."""
    if re.fullmatch(r"-?[0-9]+", text):
        try:
            return int(text)
        except ValueError:  # wider than the integer-string limit
            pass
    raise InputError(f"{what} must be an integer, got {text!r}")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        # argparse would print its usage block before exiting 2
        raise InputError(f"bad command line: {message}")


def parse_args(argv: list[str]) -> RunConfig:
    budgets: list[tuple[str, int]] = []
    rest: list[str] = []
    for arg in argv:
        if arg.startswith("--budget."):
            body = arg[len("--budget."):]
            name, eq, value = body.partition("=")
            if not name or not eq or not value:
                raise InputError(f"budget flags look like --budget.name=N, got {arg!r}")
            parsed = _integer(f"budget {name!r}", value)
            if parsed < 0:
                raise InputError(f"budget {name!r} must be nonnegative")
            budgets.append((name, parsed))
        else:
            rest.append(arg)
    parser = _Parser(
        prog="dnrlab",
        description="Budgeted audits and constructions with replayable traces.")
    parser.add_argument("--command", required=True, choices=sorted(COMMANDS))
    parser.add_argument("--seed", default="0")
    parser.add_argument("--g", dest="g_spec", default=None,
                        metavar='"v0,v1,...[;tail=base,period]"')
    parser.add_argument("--in", dest="in_path", default=None, metavar="PATH")
    parser.add_argument("--out", dest="out_path", default=None, metavar="PATH")
    ns = parser.parse_args(rest)
    return RunConfig(
        command=ns.command,
        seed=_integer("seed", ns.seed),
        g_spec=ns.g_spec,
        in_path=ns.in_path,
        out_path=ns.out_path,
        budgets=tuple(sorted(budgets)),
    )


def resolve(config: RunConfig) -> tuple:
    """The arguments of the command's body: its order function, --in fields,
    budgets and seed, each as given or else as COMMANDS declares it."""
    command = COMMANDS[config.command]
    names = [name for name, _ in config.budgets]
    for name in names:
        if name not in command.budgets:
            raise InputError(f"{config.command} reads no budget named {name!r}; "
                             f"it reads {list(command.budgets)}")
        if names.count(name) > 1:
            raise InputError(f"budget {name!r} is given more than once")
    if config.command == "replay" and config.out_path is not None:
        raise InputError("replay writes no trace, so takes no --out")
    g = None
    if command.g is None:
        if config.g_spec is not None:
            raise InputError(f"{config.command} reads no order function, so takes no --g")
    else:
        spec = command.g if config.g_spec is None else config.g_spec
        try:
            g = OrderFunction.from_spec(spec)
        except ValueError as exc:
            raise InputError(f"bad order function spec {spec!r}: {exc}")
    data = config.in_path if command.fields is None else _load_input(config, command.fields)
    return g, data, {**command.budgets, **dict(config.budgets)}, config.seed


def _dump(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def run(config: RunConfig) -> int:
    try:
        result = COMMANDS[config.command].body(*resolve(config))
    except InputError:
        raise
    except (PreconditionViolated, InsufficientOracle, ValueError) as exc:
        raise InputError(str(exc))
    except (WitnessBudgetExceeded, CombinatorialBlowup) as exc:
        report = {"error": f"budget exhausted: {exc}"}
        if isinstance(exc, CombinatorialBlowup) and exc.upper_bound is not None:
            report["union_bound"] = exc.upper_bound.to_jsonable()
        print(_dump(report), file=sys.stderr)
        return EXIT_BUDGET

    if config.command == "replay":
        for line in result.summary:
            print(line)
        return result.exit_code

    try:
        trace_lines = [_dump(config.header())]
        trace_lines += [_dump(cert) for cert in result.certificates]
    except ValueError:  # an integer past INT_DIGIT_LIMIT
        print(_dump({"error": f"budget exhausted: a certificate holds an integer "
                              f"of more than {INT_DIGIT_LIMIT} digits"}), file=sys.stderr)
        return EXIT_BUDGET
    text = "\n".join(trace_lines) + "\n"
    if config.out_path is not None:
        try:
            with open(config.out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write trace: {exc}")
        channel = sys.stdout
    else:
        sys.stdout.write(text)
        channel = sys.stderr
    if result.error is not None:
        print(_dump({"error": result.error}), file=sys.stderr)
    else:
        for line in result.summary:
            print(line, file=channel)
    return result.exit_code


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # Python 3.10.0 to 3.10.6 convert integers of any width
    limited = hasattr(sys, "set_int_max_str_digits")
    if limited:
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(INT_DIGIT_LIMIT)
    try:
        config = parse_args(argv)
        return run(config)
    except InputError as exc:
        print(_dump({"error": str(exc)}), file=sys.stderr)
        return EXIT_INPUT
    finally:
        if limited:
            sys.set_int_max_str_digits(saved)


if __name__ == "__main__":
    sys.exit(main())
