"""Desk-scale acceptance battery.

One test per shipping criterion, in order.  Each test prints a single
PASS line once its assertions have all held, and deposits the
certificates it produced into a module-level list; the final test writes
that list as a trace file and verifies every line through the CLI
replayer, alongside a byte-identity sweep over all CLI commands.

Every certificate appended to the shared trace is replayed inline first,
so a schema drift fails the criterion that produced the certificate
rather than the determinism test at the end.
"""

from __future__ import annotations

import json
import random
import time

from dnrlab.asm import (
    IDENTITY_INDEX,
    ZERO_INDEX,
    const_index,
)
from dnrlab.bushy import (
    LemmaHolds,
    OrderFunction,
    TreeWitness,
    brute_force_is_n_big,
    closure,
    closure_check,
    intersection_bushiness_check,
    is_n_big,
    level_nodes,
    region_nodes,
    union_smallness_sweep,
    witness_tree,
)
from dnrlab.certs import replay_certificate
from dnrlab.cli import COMMANDS, EXIT_OK, TRACE_SCHEMA, _random_subtree, main
from dnrlab.dyadic import DyadicRational
from dnrlab.forcing import (
    BudgetExceeded,
    FiniteFunctional,
    ForcingCondition,
    SearchLimits,
    density_search,
)
from dnrlab.machine import Halted, domain_window, eval_program, gamma
from dnrlab.numbering import (
    TableNumbering,
    brute_force_union_measure,
    lowness_bound_check,
    schnorr_measure,
    union_cylinder_measure,
)
from dnrlab.oracle import PeriodicOracle, PrefixOracle, SetOracle
from dnrlab.reductions import (
    diagonal_set_index,
    dnr_candidate,
    dnr_candidate_bound,
    dnr_reduction_audit,
    patch_oracle_dnr_only,
)
from dnrlab.stages import audit_effective_immunity, ei_not_coei

G3 = OrderFunction.constant(3)
EVENS = PeriodicOracle((1, 0))

# Certificates collected by criteria 1-9; criterion 10 replays them all.
ACCUMULATED: list[dict] = []

_CACHE: dict[str, object] = {}


def _keep(cert: dict) -> None:
    replay_certificate(cert)
    ACCUMULATED.append(cert)


def _node_list(nodes) -> list:
    return sorted(list(n) for n in nodes)


def _evens_audit() -> list[dict]:
    if "evens_audit" not in _CACHE:
        _CACHE["evens_audit"] = dnr_reduction_audit(EVENS, ZERO_INDEX, 700, 10**6)
    return _CACHE["evens_audit"]


def test_criterion_01_union_smallness_exhaustive():
    started = time.monotonic()
    pairs = ((2, 2), (2, 3), (3, 2), (3, 3))
    stems = ((), (0,), (1,), (2,))
    out = union_smallness_sweep(G3, 2, pairs, stems)
    elapsed = time.monotonic() - started
    assert out["instances"] > 0
    assert out["counterexamples"] == []
    assert elapsed < 120
    _keep({
        "kind": "sweep_summary",
        "g": G3.to_spec(),
        "depth": 2,
        "pairs": [list(p) for p in pairs],
        "stems": [list(s) for s in stems],
        "instances": out["instances"],
        "counterexamples": 0,
    })
    print(f"[criterion 01] PASS: {out['instances']} big unions, "
          f"0 counterexamples in {elapsed:.1f}s")


def test_criterion_02_closure_properties():
    nodes = sorted(region_nodes(G3, 2))
    checked = 0
    for mask in range(1 << len(nodes)):
        B = frozenset(nodes[i] for i in range(len(nodes)) if mask >> i & 1)
        for n in (2, 3):
            star = closure(B, n, G3, 2)
            assert B <= star
            assert closure(star, n, G3, 2) == star
            assert isinstance(closure_check(B, n, G3, 2), LemmaHolds)
            # pruning preserves smallness: a small set stays small closed
            if not is_n_big(B, n, G3, (), 2):
                assert not is_n_big(star, n, G3, (), 2)
            checked += 1

    g4 = OrderFunction.constant(4)
    deep = sorted(region_nodes(g4, 3))
    rng = random.Random(402)
    for i in range(10_000):
        density = rng.random()
        B = frozenset(x for x in deep if rng.random() < density)
        star = closure(B, 4, g4, 3)
        assert B <= star
        assert closure(star, 4, g4, 3) == star
        assert isinstance(closure_check(B, 4, g4, 3), LemmaHolds)
        if not is_n_big(B, 4, g4, (), 3):
            assert not is_n_big(star, 4, g4, (), 3)
        if i % 2000 == 0:
            _keep({
                "kind": "closure_result",
                "g": g4.to_spec(),
                "n": 4,
                "depth": 3,
                "set": _node_list(B),
                "closure": _node_list(star),
            })
        checked += 1
    print(f"[criterion 02] PASS: closure lawful on {checked} instances "
          f"({1 << len(nodes)} exhaustive sets, 10000 random)")


def test_criterion_03_bigness_matches_brute_force():
    nodes = sorted(region_nodes(G3, 2))
    for mask in range(1 << len(nodes)):
        B = frozenset(nodes[i] for i in range(len(nodes)) if mask >> i & 1)
        for n in (2, 3):
            assert is_n_big(B, n, G3, (), 2) == brute_force_is_n_big(B, n, G3, (), 2)

    rng = random.Random(403)
    deep_checked = 0
    for i in range(1000):
        if i < 900:
            g, depth, n = G3, 3, rng.choice((2, 3))
        else:
            g, depth, n = OrderFunction.constant(4), 3, 4
        region = sorted(region_nodes(g, depth))
        B = frozenset(x for x in region if rng.random() < rng.random())
        big = is_n_big(B, n, g, (), depth)
        assert big == brute_force_is_n_big(B, n, g, (), depth)
        deep_checked += 1
        if i % 250 == 0:
            cert = {
                "kind": "bushiness_verdict",
                "g": g.to_spec(),
                "stem": [],
                "depth": depth,
                "n": n,
                "set": _node_list(B),
                "big": big,
            }
            if big:
                cert["witness"] = witness_tree(
                    B, n, g, (), depth, exactly=True).to_jsonable()
            _keep(cert)
    print(f"[criterion 03] PASS: marking agrees with the all-trees "
          f"enumerator on {2 << len(nodes)} exhaustive and {deep_checked} random instances")


def test_criterion_04_fusion_intersection():
    rng = random.Random(404)
    ambients: dict[tuple[int, int], TreeWitness] = {}

    def ambient_for(k: int, depth: int) -> TreeWitness:
        if (k, depth) not in ambients:
            g = OrderFunction.constant(6 * k)
            ambients[(k, depth)] = witness_tree(
                frozenset(level_nodes(g, depth)), 6 * k, g, (), depth,
                exactly=True)
        return ambients[(k, depth)]

    # heavier configurations drawn less often; the extreme corner is
    # pinned explicitly below so the 500 draws stay within budget
    draws = []
    for _ in range(497):
        depth = rng.choice((1, 2, 2, 2, 3))
        k = rng.choice((1, 1, 1, 2)) if depth == 3 else rng.randint(1, 3)
        draws.append((k, depth))
    draws += [(3, 3)] * 3

    for i, (k, depth) in enumerate(draws):
        g = OrderFunction.constant(6 * k)
        ambient = ambient_for(k, depth)
        F = _random_subtree(rng, ambient, 4 * k)
        C = _random_subtree(rng, ambient, 4 * k)
        verdict = intersection_bushiness_check(ambient, F, C, k, g)
        assert isinstance(verdict, LemmaHolds), (k, depth, verdict)
        if i % 100 == 0 or (k, depth) == (3, 3):
            _keep({
                "kind": "fusion_intersection",
                "g": g.to_spec(),
                "k": k,
                "ambient": ambient.to_jsonable(),
                "first": _node_list(F),
                "second": _node_list(C),
                "intersection_size": len(F & C),
            })
    print(f"[criterion 04] PASS: F and C intersect 2k-bushily on all "
          f"{len(draws)} instances")


def test_criterion_05_recursion_theorem_and_diagonal_sets():
    from dnrlab.machine import (
        OP_HALT, OP_LEFT, OP_LOAD, OP_SMN, encode, fixed_point, program)

    # quine: a fixed point of s-m-n currying the left projection returns
    # its own index on every input
    left = encode(program([(OP_LEFT, 1, 0), (OP_HALT, 1)]))
    transform = encode(program([
        (OP_LOAD, 1, left), (OP_SMN, 2, 1, 0), (OP_HALT, 2)]))
    e_star = fixed_point(transform)
    for x in range(11):
        assert eval_program(e_star, x, 10**4) == Halted(e_star)

    # twenty indices with halting diagonals: the derived set index must
    # enumerate exactly the bit positions of the diagonal value
    picks = [583, 599, 2439, 2455, 2471, 2487,
             ZERO_INDEX, IDENTITY_INDEX, left]
    picks += [const_index(v) for v in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12)]
    assert len(picks) == 20
    for n in picks:
        out = eval_program(n, n, 10**6)
        assert isinstance(out, Halted)
        want = gamma(out.value)
        horizon = (max(want) + 2) if want else 4
        assert domain_window(diagonal_set_index(n), horizon, 10**6) == want

    # the same equation holds inside every audit certificate; replay the
    # full sweep and spot-check the two landmarks it covers
    audit = _evens_audit()
    for cert in audit:
        _keep(cert)
    by_e = {cert["e"]: cert for cert in audit}
    assert by_e[583]["value"] == 1
    assert by_e[599]["value"] == 2
    print(f"[criterion 05] PASS: quine stable on 0..10, 20 diagonal set "
          f"indices exact, {len(audit)} audit certificates replayed")


def test_criterion_06_dnr_reduction_contract():
    started = time.monotonic()
    oracles = [
        EVENS,
        PeriodicOracle((0, 1)),
        PeriodicOracle((1,)),
        PrefixOracle((1, 1, 0, 1), 0),
        SetOracle(frozenset({0, 2, 3, 5, 8, 13, 21, 34})),
    ]
    for X in oracles:
        for n in range(51):
            assert (dnr_candidate(X, ZERO_INDEX, n, 10**6)
                    <= dnr_candidate_bound(ZERO_INDEX, n, 10**6))

    audit = _evens_audit()
    violations = [c for c in audit if c["kind"] == "ebi_violation"]
    assert violations, "a fully periodic oracle must trip the audit"
    for cert in violations:
        replay_certificate(cert)

    patched, patched_certs = patch_oracle_dnr_only(
        const_index(1), 2450, 10**6, PrefixOracle((1, 1), 0))
    kinds = {c["kind"] for c in patched_certs}
    assert kinds <= {"dnr_value", "diagonal_diverges"}, kinds
    assert "dnr_value" in kinds
    for cert in patched_certs:
        _keep(cert)
    elapsed = time.monotonic() - started
    assert elapsed < 60
    print(f"[criterion 06] PASS: candidate bound holds on 5 oracles x 51 "
          f"inputs, {len(violations)} audit violations replay, patched "
          f"oracle clean over {len(patched_certs)} indices in {elapsed:.1f}s")


def test_criterion_07_stage_construction():
    stages, budget, value_cap, probes = 200, 10**5, 512, 3
    trace, g_map = ei_not_coei(stages, budget, value_cap=value_cap,
                               probes=probes)
    assert len(trace.records) == stages
    for rec in trace.records:
        assert rec["ones"] <= 2 * rec["stage"]

    violations = audit_effective_immunity(g_map, stages // 2, budget)
    assert violations == []

    intervals = trace.interval_records()
    assert intervals
    for rec in intervals:
        assert rec["count"] == rec["claimed_bound"] + 1
        _keep({"kind": "interval_slice", **rec})
    _keep({
        "kind": "stage_summary",
        "stages": stages,
        "budget": budget,
        "value_cap": value_cap,
        "probes": probes,
        "ones": sorted(x for x, b in g_map.items() if b == 1),
        "record_count": len(trace.records),
        "interval_count": len(intervals),
    })
    print(f"[criterion 07] PASS: {stages} stages within the 2s bound, "
          f"clean immunity audit, {len(intervals)} interval records replay")


def test_criterion_08_measure_arithmetic():
    rng = random.Random(408)
    nonzero = 0
    for _ in range(100):
        c = rng.randint(1, 10)
        e_max = rng.randint(12, 64)
        sets = []
        for _e in range(e_max + 1):
            size = rng.choice((0, 1, 2, rng.randint(0, 16)))
            sets.append(frozenset(rng.sample(range(16), size)))
        num = TableNumbering(tuple(sets))
        measure = schnorr_measure(num, c, e_max)
        assert measure <= DyadicRational.half_power(c)
        constraints = [frozenset(num.finite_set(e))
                       for e in range(c + 1, e_max + 1)
                       if len(num.finite_set(e)) >= 2 * e]
        # a 16-point universe keeps every instance brute-forceable
        assert len(constraints) <= 12
        if constraints:
            nonzero += 1
            assert (union_cylinder_measure(constraints)
                    == brute_force_union_measure(constraints))
            _keep({
                "kind": "cylinder_measure",
                "sets": sorted(sorted(s) for s in constraints),
                "term_cap": 1 << 20,
                "measure": measure.to_jsonable(),
                "tail_exponent": c,
            })
    assert nonzero >= 10

    # termwise lowness: h constant 1, p and f identity, exact tail sum
    for c in range(21):
        verdict = lowness_bound_check(
            const_index(1), IDENTITY_INDEX, IDENTITY_INDEX, c, 24, 10**4)
        assert verdict.holds
        assert verdict.partial_sum == DyadicRational((1 << (24 - c)) - 1, 25)
    _keep({
        "kind": "lowness_bound",
        "h": const_index(1),
        "p": IDENTITY_INDEX,
        "f": IDENTITY_INDEX,
        "c": 5,
        "e_max": 24,
        "budget": 10**4,
        "verdict": lowness_bound_check(
            const_index(1), IDENTITY_INDEX, IDENTITY_INDEX, 5, 24,
            10**4).to_jsonable(),
    })
    print(f"[criterion 08] PASS: 100 numberings under the tail bound "
          f"({nonzero} nontrivial, all brute-force matched), lowness sum "
          f"exact for c <= 20")


def _hand_built_tables() -> list[tuple[str, FiniteFunctional]]:
    def componentwise(depth, fn):
        entries = {}
        frontier = [()]
        entries[()] = ()
        for _ in range(depth):
            frontier = [node + (c,) for node in frontier for c in range(8)]
            for node in frontier:
                entries[node] = fn(node)
        return FiniteFunctional.from_entries(depth, entries)

    return [
        ("empty", FiniteFunctional(3, ())),
        ("const000", FiniteFunctional.constant(3, (0, 0, 0))),
        ("const010", FiniteFunctional.constant(3, (0, 1, 0))),
        ("const1", FiniteFunctional.constant(1, (1,))),
        ("parity1", componentwise(1, lambda n: tuple(c % 2 for c in n))),
        ("parity2", componentwise(2, lambda n: tuple(c % 2 for c in n))),
        ("firstbit2", componentwise(2, lambda n: (n[0] & 1,) * len(n))),
        ("threshold1", componentwise(1, lambda n: tuple(int(c >= 4) for c in n))),
        ("cumsum2", componentwise(
            2, lambda n: tuple(sum(n[:i + 1]) % 2 for i in range(len(n))))),
        ("blocks2", componentwise(2, lambda n: tuple(c // 4 for c in n))),
    ]


def _random_table(rng: random.Random, depth: int) -> FiniteFunctional:
    entries = {}

    def fill(node, out):
        if rng.random() < 0.9:
            entries[node] = out
        if len(node) == depth:
            return
        for c in range(8):
            fill(node + (c,),
                 out + tuple(rng.randrange(2) for _ in range(rng.randrange(2))))

    fill((), ())
    return FiniteFunctional.from_entries(depth, entries)


def test_criterion_09_density_search_battery():
    g = OrderFunction.constant(8)
    cond = ForcingCondition((), frozenset(), g)
    limits = SearchLimits()
    q = const_index(0)
    rng = random.Random(409)

    battery = [(name, table, True) for name, table in _hand_built_tables()]
    battery += [(f"random{i}", _random_table(rng, rng.randint(1, 3)), False)
                for i in range(40)]
    assert len(battery) == 50

    outcomes = {"non_total": 0, "diagonal": 0, "budget": 0}
    for name, table, must_extend in battery:
        verdict = density_search(table, q, cond, limits)
        if isinstance(verdict, BudgetExceeded):
            assert not must_extend, f"{name} exhausted its budget"
            assert verdict.trace, f"{name} exhausted with an empty trace"
            outcomes["budget"] += 1
            continue
        kind = verdict.certificate["kind"]
        outcomes["non_total" if kind == "non_total_extension" else "diagonal"] += 1
        _keep(verdict.certificate)
    assert outcomes["non_total"] + outcomes["diagonal"] >= 10
    assert outcomes["diagonal"] >= 1
    print(f"[criterion 09] PASS: 50 tables searched, "
          f"{outcomes['non_total']} non-total, {outcomes['diagonal']} "
          f"diagonal, {outcomes['budget']} budget-capped with traces")


def test_criterion_10_cli_determinism_and_full_replay(tmp_path, capsys):
    fast = {
        "dnr-audit": ["--budget.audit=60", "--budget.eval=4000"],
        "ei-construct": ["--budget.stages=60", "--budget.eval=20000"],
        "snr-demo": ["--budget.audit=4"],
        "fusion-check": ["--budget.instances=4"],
    }
    traces = []
    for command in sorted(COMMANDS):
        if command == "replay":
            continue
        args = ["--command", command] + fast.get(command, [])
        first = tmp_path / f"{command}-a.jsonl"
        second = tmp_path / f"{command}-b.jsonl"
        assert main(args + ["--out", str(first)]) == EXIT_OK
        assert main(args + ["--out", str(second)]) == EXIT_OK
        assert first.read_bytes() == second.read_bytes(), command
        assert main(["--command", "replay", "--in", str(first)]) == EXIT_OK
        traces.append(first)

    # the replay command is itself deterministic
    capsys.readouterr()
    assert main(["--command", "replay", "--in", str(traces[0])]) == EXIT_OK
    once = capsys.readouterr().out
    assert main(["--command", "replay", "--in", str(traces[0])]) == EXIT_OK
    assert capsys.readouterr().out == once

    # everything the earlier criteria produced verifies in one pass
    assert len(ACCUMULATED) > 3000
    combined = tmp_path / "acceptance.jsonl"
    header = {"schema": TRACE_SCHEMA, "command": "acceptance-battery",
              "seed": 0, "g": None, "budgets": []}
    lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
    lines += [json.dumps(cert, sort_keys=True, separators=(",", ":"))
              for cert in ACCUMULATED]
    combined.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["--command", "replay", "--in", str(combined)]) == EXIT_OK
    summary = capsys.readouterr().out
    assert f"{len(ACCUMULATED)} certificates verified, 0 mismatches" in summary
    print(f"[criterion 10] PASS: {len(COMMANDS) - 1} commands byte-stable, "
          f"{len(ACCUMULATED)} accumulated certificates replay clean")
