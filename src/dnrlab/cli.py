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
import sys
from dataclasses import dataclass, field

from .asm import IDENTITY_INDEX, ZERO_INDEX, assemble_index, const_index
from .bushy import (
    LemmaHolds,
    OrderFunction,
    TreeWitness,
    closure,
    intersection_bushiness_check,
    is_n_big,
    level_nodes,
    region_size,
    union_smallness_sweep,
    witness_tree,
)
from .certs import replay_certificate, typed_field
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
from .machine import FixedPointBudgetExceeded
from .numbering import (
    TableNumbering,
    lowness_bound_check,
    snr_collision_audit,
    snr_from_immune_oracle,
    tail_constraints,
    union_cylinder_measure,
)
from .oracle import PeriodicOracle, oracle_from_spec, oracle_to_spec
from .reductions import blocking_prefix, dnr_reduction_audit
from .stages import audit_effective_immunity, ei_not_coei

TRACE_SCHEMA = "dnrlab-trace-1"

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2
EXIT_COUNTEREXAMPLE = 3

# Halts exactly on even input: the stock infinite r.e. set for demos.
_EVEN_HALT_SRC = """
    load r2, 2
    mod r1, r0, r2
    jz r1, ok
loop:
    jmp loop
ok:
    halt r0
"""


class InputError(ValueError):
    """Configuration or input file problems: reported, exit code 1."""


@dataclass(frozen=True)
class RunConfig:
    command: str
    seed: int = 0
    g_spec: str | None = None
    in_path: str | None = None
    out_path: str | None = None
    budgets: tuple[tuple[str, int], ...] = ()

    def budget(self, name: str, default: int) -> int:
        for key, value in self.budgets:
            if key == name:
                return value
        return default

    def g(self, default: str) -> OrderFunction:
        spec = self.g_spec if self.g_spec is not None else default
        try:
            return OrderFunction.from_spec(spec)
        except ValueError as exc:
            raise InputError(f"bad order function spec {spec!r}: {exc}")

    def header(self) -> dict:
        return {
            "schema": TRACE_SCHEMA,
            "command": self.command,
            "seed": self.seed,
            "g": self.g_spec,
            "budgets": {k: v for k, v in self.budgets},
        }


@dataclass
class CommandResult:
    exit_code: int = EXIT_OK
    summary: list[str] = field(default_factory=list)
    certificates: list[dict] = field(default_factory=list)
    error: str | None = None  # replaces the summary with one JSON line on stderr


def _load_input(config: RunConfig) -> dict:
    """The --in object, each field checked by the certificate field rules."""
    if config.in_path is None:
        return {}
    try:
        with open(config.in_path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read input file: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"input file is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise InputError("input file must hold a JSON object")
    for key, value in data.items():
        typed_field("input file", key, value)
    return data


# ---------------------------------------------------------------------------
# Commands.

def _full_level(g: OrderFunction, depth: int) -> frozenset:
    """Every node at the horizon; a region too large to mark is refused
    (CombinatorialBlowup) before it is listed."""
    region_size(g, depth)
    return frozenset(level_nodes(g, depth))


def _cmd_bushy_check(config: RunConfig) -> CommandResult:
    data = _load_input(config)
    g = config.g("3")
    depth = data.get("depth", 2)
    stem = tuple(data.get("stem", ()))
    B = frozenset(tuple(x) for x in data["set"]) if "set" in data \
        else _full_level(g, depth)
    n = data.get("n", g(0))
    big = is_n_big(B, n, g, stem, depth)
    cert = {
        "kind": "bushiness_verdict",
        "g": g.to_spec(),
        "stem": list(stem),
        "depth": depth,
        "n": n,
        "set": sorted(list(x) for x in B),
        "big": big,
    }
    if big:
        cert["witness"] = witness_tree(B, n, g, stem, depth, exactly=True).to_jsonable()
    word = "big" if big else "small"
    return CommandResult(
        summary=[f"set of {len(B)} strings is {n}-{word} above {stem}"],
        certificates=[cert])


def _cmd_closure(config: RunConfig) -> CommandResult:
    data = _load_input(config)
    g = config.g("3")
    depth = data.get("depth", 2)
    B = frozenset(tuple(x) for x in data["set"]) if "set" in data \
        else frozenset({(0,), (1, 0)})
    n = data.get("n", 2)
    closed = closure(B, n, g, depth)
    cert = {
        "kind": "closure_result",
        "g": g.to_spec(),
        "n": n,
        "depth": depth,
        "set": sorted(list(x) for x in B),
        "closure": sorted(list(x) for x in closed),
    }
    return CommandResult(
        summary=[f"{n}-closure of {len(B)} strings has {len(closed)} nodes"],
        certificates=[cert])


def _cmd_lemma_sweep(config: RunConfig) -> CommandResult:
    data = _load_input(config)
    g = config.g("3")
    depth = data.get("depth", 2)
    pairs = data.get("pairs", [[2, 2], [2, 3], [3, 2], [3, 3]])
    stems = data.get("stems", [[]])
    out = union_smallness_sweep(g, depth, pairs, stems)
    certs = list(out["counterexamples"])
    certs.append({
        "kind": "sweep_summary",
        "g": g.to_spec(),
        "depth": depth,
        "pairs": pairs,
        "stems": stems,
        "instances": out["instances"],
        "counterexamples": len(out["counterexamples"]),
    })
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


def _cmd_fusion_check(config: RunConfig) -> CommandResult:
    instances = config.budget("instances", 10)
    depth = config.budget("depth", 2)
    rng = random.Random(config.seed)
    certs: list[dict] = []
    failures = 0
    for i in range(instances):
        k = rng.randint(1, 3)
        g = OrderFunction.constant(6 * k)
        ambient = witness_tree(_full_level(g, depth), 6 * k, g, (), depth, exactly=True)
        F = _random_subtree(rng, ambient, 4 * k)
        C = _random_subtree(rng, ambient, 4 * k)
        verdict = intersection_bushiness_check(ambient, F, C, k, g)
        if not isinstance(verdict, LemmaHolds):
            failures += 1
            continue
        certs.append({
            "kind": "fusion_intersection",
            "g": g.to_spec(),
            "k": k,
            "ambient": ambient.to_jsonable(),
            "first": sorted(list(x) for x in F),
            "second": sorted(list(x) for x in C),
            "intersection_size": len(F & C),
        })
    # one pigeonhole certificate: a 3-coloring of an exactly-6k tree's leaves
    # always leaves one class 2k-big
    k = 1
    g = OrderFunction.constant(6 * k)
    ambient = witness_tree(_full_level(g, depth), 6 * k, g, (), depth, exactly=True)
    leaves = sorted(ambient.leaves())
    colors = [[list(leaf), rng.randint(0, 2)] for leaf in leaves]
    classes = {c: frozenset(tuple(n) for n, cc in colors if cc == c)
               for c in (0, 1, 2)}
    chosen = next(c for c in (0, 1, 2)
                  if is_n_big(classes[c], 2 * k, g, (), depth))
    certs.append({
        "kind": "pigeonhole_witness",
        "g": g.to_spec(),
        "stem": [],
        "depth": depth,
        "k": k,
        "colors": colors,
        "chosen_color": chosen,
        "witness": witness_tree(
            classes[chosen], 2 * k, g, (), depth, exactly=True).to_jsonable(),
    })
    code = EXIT_COUNTEREXAMPLE if failures else EXIT_OK
    return CommandResult(
        exit_code=code,
        summary=[f"{instances} fusion instances, {failures} failures",
                 f"pigeonhole color class {chosen} is {2 * k}-big"],
        certificates=certs)


def _builtin_functionals() -> list[tuple[str, FiniteFunctional, int]]:
    parity = {}
    frontier = [()]
    for _ in range(1):
        frontier = [node + (c,) for node in frontier for c in range(8)]
        for node in frontier:
            parity[node] = tuple(c % 2 for c in node)
    return [
        ("empty", FiniteFunctional(3, ()), const_index(0)),
        ("constant", FiniteFunctional.constant(3, (0, 0, 0)), const_index(0)),
        ("parity", FiniteFunctional.from_entries(2, parity), const_index(0)),
    ]


def _cmd_density_search(config: RunConfig) -> CommandResult:
    data = _load_input(config)
    g = config.g("8")
    limits = SearchLimits(
        eval_budget=config.budget("eval", SearchLimits().eval_budget),
        fixpoint_budget=config.budget("fixpoint", SearchLimits().fixpoint_budget),
        bad_string_len=config.budget("bad_len", SearchLimits().bad_string_len),
    )
    if "functional" in data:
        battery = [("input", FiniteFunctional.from_jsonable(data["functional"]),
                    data.get("q", const_index(0)))]
    else:
        battery = _builtin_functionals()
    cond = ForcingCondition((), frozenset(), g)
    certs, summary = [], []
    for name, table, q in battery:
        verdict = density_search(table, q, cond, limits)
        if isinstance(verdict, BudgetExceeded):
            return CommandResult(exit_code=EXIT_BUDGET, certificates=certs,
                                 error=f"budget exhausted: {name}: {verdict.reason}")
        certs.append(verdict.certificate)
        label = "non-total" if isinstance(verdict, NonTotalExt) else "diagonal"
        summary.append(f"{name}: {label} extension, stem {list(verdict.condition.stem)}")
    return CommandResult(summary=summary, certificates=certs)


def _cmd_dnr_audit(config: RunConfig) -> CommandResult:
    data = _load_input(config)
    oracle = oracle_from_spec(data["oracle"]) if "oracle" in data \
        else PeriodicOracle((1, 0))
    f = data.get("f", ZERO_INDEX)
    e_max = config.budget("audit", 700)
    budget = config.budget("eval", 10_000)
    certs = dnr_reduction_audit(oracle, f, e_max, budget)
    by_kind: dict[str, int] = {}
    for cert in certs:
        by_kind[cert["kind"]] = by_kind.get(cert["kind"], 0) + 1
    summary = [f"audited diagonals up to {e_max} at budget {budget}"]
    summary += [f"  {kind}: {count}" for kind, count in sorted(by_kind.items())]
    return CommandResult(summary=summary, certificates=certs)


def _cmd_ei_construct(config: RunConfig) -> CommandResult:
    stages = config.budget("stages", 200)
    budget = config.budget("eval", 100_000)
    value_cap = config.budget("value_cap", 512)
    probes = config.budget("probes", 3)
    trace, g_map = ei_not_coei(stages, budget, value_cap=value_cap, probes=probes)
    violations = audit_effective_immunity(g_map, stages // 2, budget)
    certs = [{"kind": "interval_slice", **rec} for rec in trace.interval_records()]
    certs.append({
        "kind": "stage_summary",
        "stages": stages,
        "budget": budget,
        "value_cap": value_cap,
        "probes": probes,
        "ones": sorted(x for x, b in g_map.items() if b == 1),
        "record_count": len(trace.records),
        "interval_count": len(trace.interval_records()),
    })
    ones = sum(1 for b in g_map.values() if b == 1)
    summary = [
        f"{stages} stages, {ones} ones, {len(trace.interval_records())} intervals",
        f"immunity audit violations: {len(violations)}",
    ]
    code = EXIT_COUNTEREXAMPLE if violations else EXIT_OK
    return CommandResult(exit_code=code, summary=summary, certificates=certs)


_DEMO_SETS = (
    (0,), (1,), (0, 1), (0, 1, 2, 3, 4, 5), (0, 2, 4, 6, 8, 10, 12, 14),
    (0, 1, 2, 3, 4, 5, 6, 7, 8, 9), (2, 3), (0, 2, 4), (1, 3, 5),
)


def _cmd_schnorr_measure(config: RunConfig) -> CommandResult:
    data = _load_input(config)
    c = config.budget("c", 2)
    e_max = config.budget("e_max", 32)
    term_cap = config.budget("terms", 1 << 20)
    if "sets" in data:
        numbering = TableNumbering(tuple(frozenset(s) for s in data["sets"]))
    else:
        numbering = TableNumbering(tuple(frozenset(s) for s in _DEMO_SETS))
    constraints = tail_constraints(numbering, c, e_max)
    measure = union_cylinder_measure(constraints, term_cap)
    bound = DyadicRational.half_power(c)
    if measure > bound:
        raise AssertionError("tail bound violated: the measure proof is broken")
    cert = {
        "kind": "cylinder_measure",
        "sets": sorted(sorted(s) for s in constraints),
        "term_cap": term_cap,
        "measure": measure.to_jsonable(),
        "tail_exponent": c,
    }
    return CommandResult(
        summary=[f"{len(constraints)} constraint sets over ({c}, {e_max}]",
                 f"union measure {measure} <= 2^-{c}"],
        certificates=[cert])


def _cmd_lowness_check(config: RunConfig) -> CommandResult:
    data = _load_input(config)
    h = data.get("h", const_index(1))
    p = data.get("p", IDENTITY_INDEX)
    f = data.get("f", IDENTITY_INDEX)
    c = config.budget("c", 0)
    e_max = config.budget("e_max", 20)
    budget = config.budget("eval", 10_000)
    verdict = lowness_bound_check(h, p, f, c, e_max, budget)
    cert = {
        "kind": "lowness_bound",
        "h": h, "p": p, "f": f, "c": c, "e_max": e_max, "budget": budget,
        "verdict": verdict.to_jsonable(),
    }
    if verdict.holds:
        summary = [f"termwise bound holds; partial sum {verdict.partial_sum} <= 2^-{c}"]
        code = EXIT_OK
    else:
        summary = [f"bound fails first at e = {verdict.first_violation}"]
        code = EXIT_COUNTEREXAMPLE
    return CommandResult(exit_code=code, summary=summary, certificates=[cert])


def _cmd_snr_demo(config: RunConfig) -> CommandResult:
    data = _load_input(config)
    oracle = oracle_from_spec(data["oracle"]) if "oracle" in data \
        else PeriodicOracle((1, 0))
    h = data.get("h", const_index(1))
    e_max = config.budget("audit", 10)
    budget = config.budget("eval", 10_000)
    certs = []
    for e in range(e_max + 1):
        value = snr_from_immune_oracle(oracle, h, e, budget)
        certs.append({
            "kind": "snr_slice",
            "oracle": oracle_to_spec(oracle),
            "h": h, "e": e, "budget": budget, "value": value,
        })
    collisions = snr_collision_audit(ZERO_INDEX, oracle, h, e_max, budget)
    summary = [f"slice codes for e <= {e_max}: "
               f"{sorted({c['value'] for c in certs})}",
               f"collisions against the zero program: {len(collisions)}"]
    code = EXIT_COUNTEREXAMPLE if collisions else EXIT_OK
    return CommandResult(exit_code=code, summary=summary, certificates=certs)


def _cmd_blocking_prefix(config: RunConfig) -> CommandResult:
    data = _load_input(config)
    e = data["e"] if "e" in data else assemble_index(_EVEN_HALT_SRC)
    f = data.get("f", const_index(2))
    prefix = data.get("prefix", [1])
    budget = config.budget("eval", 100_000)
    sigma, cert = blocking_prefix(prefix, e, f, budget)
    return CommandResult(
        summary=[f"{cert['kind']}: sigma = {list(sigma)}, "
                 f"members {cert['members']}"],
        certificates=[cert])


def _cmd_replay(config: RunConfig) -> CommandResult:
    if config.in_path is None:
        raise InputError("replay requires --in pointing at a trace file")
    try:
        with open(config.in_path) as fh:
            lines = [line for line in fh.read().splitlines() if line.strip()]
    except OSError as exc:
        raise InputError(f"cannot read trace file: {exc}")
    if not lines:
        raise InputError("trace file is empty")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise InputError(f"trace header is not valid JSON: {exc}")
    if not isinstance(header, dict) or header.get("schema") != TRACE_SCHEMA:
        raise InputError(f"trace header lacks schema {TRACE_SCHEMA!r}")
    checked: dict[str, int] = {}
    mismatches: list[str] = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            cert = json.loads(line)
        except json.JSONDecodeError as exc:
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


# Each command with the --budget.<name> knobs it reads; any other name is
# an input error.
COMMANDS = {
    "bushy-check": (_cmd_bushy_check, ()),
    "closure": (_cmd_closure, ()),
    "lemma-sweep": (_cmd_lemma_sweep, ()),
    "fusion-check": (_cmd_fusion_check, ("instances", "depth")),
    "density-search": (_cmd_density_search, ("eval", "fixpoint", "bad_len")),
    "dnr-audit": (_cmd_dnr_audit, ("audit", "eval")),
    "ei-construct": (_cmd_ei_construct, ("stages", "eval", "value_cap", "probes")),
    "schnorr-measure": (_cmd_schnorr_measure, ("c", "e_max", "terms")),
    "lowness-check": (_cmd_lowness_check, ("c", "e_max", "eval")),
    "snr-demo": (_cmd_snr_demo, ("audit", "eval")),
    "blocking-prefix": (_cmd_blocking_prefix, ("eval",)),
    "replay": (_cmd_replay, ()),
}


# ---------------------------------------------------------------------------
# Plumbing.

def parse_args(argv: list[str]) -> RunConfig:
    budgets: list[tuple[str, int]] = []
    rest: list[str] = []
    for arg in argv:
        if arg.startswith("--budget."):
            body = arg[len("--budget."):]
            name, eq, value = body.partition("=")
            if not name or not eq or not value:
                raise InputError(f"budget flags look like --budget.name=N, got {arg!r}")
            try:
                parsed = int(value)
            except ValueError:
                raise InputError(f"budget {name!r} must be an integer, got {value!r}")
            if parsed < 0:
                raise InputError(f"budget {name!r} must be nonnegative")
            budgets.append((name, parsed))
        else:
            rest.append(arg)
    parser = argparse.ArgumentParser(
        prog="dnrlab",
        description="Budgeted audits and constructions with replayable traces.")
    parser.add_argument("--command", required=True, choices=sorted(COMMANDS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--g", dest="g_spec", default=None,
                        metavar='"v0,v1,...[;tail=base,period]"')
    parser.add_argument("--in", dest="in_path", default=None, metavar="PATH")
    parser.add_argument("--out", dest="out_path", default=None, metavar="PATH")
    try:
        ns = parser.parse_args(rest)
    except SystemExit as exc:
        if exc.code == 0:
            raise
        raise InputError("bad command line (see --help)")
    return RunConfig(
        command=ns.command,
        seed=ns.seed,
        g_spec=ns.g_spec,
        in_path=ns.in_path,
        out_path=ns.out_path,
        budgets=tuple(sorted(set(budgets))),
    )


def _dump(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def run(config: RunConfig) -> int:
    command, budget_names = COMMANDS[config.command]
    unknown = sorted({name for name, _ in config.budgets} - set(budget_names))
    if unknown:
        raise InputError(f"{config.command} reads no budget named {unknown[0]!r}; "
                         f"it reads {list(budget_names)}")
    try:
        result = command(config)
    except InputError:
        raise
    except (PreconditionViolated, InsufficientOracle, ValueError) as exc:
        raise InputError(str(exc))
    except (WitnessBudgetExceeded, CombinatorialBlowup, FixedPointBudgetExceeded) as exc:
        report = {"error": f"budget exhausted: {exc}"}
        if isinstance(exc, CombinatorialBlowup) and exc.upper_bound is not None:
            report["union_bound"] = exc.upper_bound.to_jsonable()
        print(_dump(report), file=sys.stderr)
        return EXIT_BUDGET

    if config.command == "replay":
        for line in result.summary:
            print(line)
        return result.exit_code

    trace_lines = [_dump(config.header())]
    trace_lines += [_dump(cert) for cert in result.certificates]
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
    try:
        config = parse_args(argv)
        return run(config)
    except InputError as exc:
        print(_dump({"error": str(exc)}), file=sys.stderr)
        return EXIT_INPUT
    except KeyError as exc:
        print(_dump({"error": f"missing input field {exc}"}), file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
