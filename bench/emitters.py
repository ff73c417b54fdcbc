"""The emit phase of each library workload: library calls and known answers.

Every library function is reached through its home module's attribute
(`bushy.witness_tree`, not a copied name), so the tracer's replacements
see these calls too.  A workload appends certificates and checks to an
`Emit`; a check that fails, or a job that raises, is recorded as a failed
operation and the workload carries on.
"""

from __future__ import annotations

import random
import sys
import traceback

from dnrlab import asm, bushy, forcing, numbering, oracle, reductions, stages
from dnrlab.dyadic import DyadicRational

from inputs import known_code, region_of, size_problem


class Emit:
    """Certificates and known-answer checks of one emit phase."""

    def __init__(self) -> None:
        self.certs: list[dict] = []
        self.checks = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(what)

    def keep(self, name: str, certs: list[dict], expect: dict) -> None:
        """Add a job's certificates after checking they match the size asked for."""
        problem = size_problem(certs, expect)
        self.check(problem is None, f"{name}: {problem}")
        self.certs.extend(certs)

    def run(self, name: str, job, *args) -> None:
        try:
            job(self, *args)
        except Exception:  # one broken job must not hide the others' results
            traceback.print_exc(file=sys.stderr)
            self.check(False, f"{name} raised {sys.exc_info()[1]!r}")


def _nodes(nodes) -> list:
    return sorted(list(n) for n in nodes)


def _tree(tree) -> dict:
    return {"stem": list(tree.stem), "nodes": _nodes(tree.nodes)}


def _pick(region: list, bits: list[int]) -> frozenset:
    return frozenset(node for node, bit in zip(region, bits) if bit)


# ---------------------------------------------------------------------------
# bushy-lemmas

def _sweep(em: Emit, spec: dict) -> None:
    g = bushy.OrderFunction.constant(spec["g"])
    pairs = [tuple(p) for p in spec["pairs"]]
    stems = [tuple(s) for s in spec["stems"]]
    out = bushy.union_smallness_sweep(g, spec["depth"], pairs, stems)
    em.check(out["instances"] > 0 and out["counterexamples"] == [],
             f"sweep found {len(out['counterexamples'])} counterexamples")
    certs = list(out["counterexamples"])
    certs.append({"kind": "sweep_summary", "g": g.to_spec(), "depth": spec["depth"],
                  "pairs": [list(p) for p in pairs], "stems": [list(s) for s in stems],
                  "instances": out["instances"],
                  "counterexamples": len(out["counterexamples"])})
    em.keep("sweep", certs, {"kinds": {"sweep_summary": 1}})


def _closure_laws(B: frozenset, n: int, g, depth: int) -> tuple[bool, frozenset]:
    """B is inside its closure, the closure is idempotent and prunable, and
    a small set stays small once closed."""
    star = bushy.closure(B, n, g, depth)
    ok = B <= star and bushy.closure(star, n, g, depth) == star
    ok = ok and isinstance(bushy.closure_check(B, n, g, depth), bushy.LemmaHolds)
    if ok and not bushy.is_n_big(B, n, g, (), depth):
        ok = not bushy.is_n_big(star, n, g, (), depth)
    return ok, star


def _closures(em: Emit, exhaustive: dict, seeded: dict) -> None:
    g = bushy.OrderFunction.constant(exhaustive["g"])
    region = region_of(exhaustive["g"], exhaustive["depth"])
    failed = 0
    for mask in range(1 << len(region)):
        B = frozenset(region[i] for i in range(len(region)) if mask >> i & 1)
        for n in exhaustive["ns"]:
            failed += not _closure_laws(B, n, g, exhaustive["depth"])[0]
    em.check(failed == 0, f"closure laws fail on {failed} exhaustive instances")

    g = bushy.OrderFunction.constant(seeded["g"])
    depth, n = seeded["depth"], seeded["n"]
    region = region_of(seeded["g"], depth)
    certs = []
    for i, bits in enumerate(seeded["sets"]):
        B = _pick(region, bits)
        ok, star = _closure_laws(B, n, g, depth)
        em.check(ok, f"closure laws fail on seeded set {i}")
        if i % seeded["emit_every"] == 0:
            certs.append({"kind": "closure_result", "g": g.to_spec(), "n": n,
                          "depth": depth, "set": _nodes(B), "closure": _nodes(star)})
    em.keep("closures", certs, {"kinds": {"closure_result": len(certs)}})


def _marking(em: Emit, sample: list[dict], emit_every: int) -> None:
    certs = []
    for i, item in enumerate(sample):
        g = bushy.OrderFunction.constant(item["g"])
        depth, n = item["depth"], item["n"]
        B = _pick(region_of(item["g"], depth), item["bits"])
        big = bushy.is_n_big(B, n, g, (), depth)
        em.check(big == bushy.brute_force_is_n_big(B, n, g, (), depth),
                 f"marking disagrees with the brute-force mirror on sample {i}")
        if i % emit_every == 0:
            cert = {"kind": "bushiness_verdict", "g": g.to_spec(), "stem": [],
                    "depth": depth, "n": n, "set": _nodes(B), "big": big}
            if big:
                cert["witness"] = _tree(bushy.witness_tree(B, n, g, (), depth, exactly=True))
            certs.append(cert)
    em.keep("marking", certs, {"kinds": {"bushiness_verdict": len(certs)}})


def _random_subtree(rng: random.Random, ambient, width: int) -> frozenset:
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


def _ambient(cache: dict, k: int, depth: int):
    if (k, depth) not in cache:
        g = bushy.OrderFunction.constant(6 * k)
        cache[(k, depth)] = bushy.witness_tree(
            frozenset(bushy.level_nodes(g, depth)), 6 * k, g, (), depth, exactly=True)
    return cache[(k, depth)]


def _fusion(em: Emit, draws: list, colorings: list) -> None:
    ambients: dict = {}
    certs = []
    for k, depth, subseed in draws:
        g = bushy.OrderFunction.constant(6 * k)
        ambient = _ambient(ambients, k, depth)
        rng = random.Random(subseed)
        F = _random_subtree(rng, ambient, 4 * k)
        C = _random_subtree(rng, ambient, 4 * k)
        verdict = bushy.intersection_bushiness_check(ambient, F, C, k, g)
        em.check(isinstance(verdict, bushy.LemmaHolds),
                 f"fusion instance k={k} depth={depth} gave {verdict}")
        certs.append({"kind": "fusion_intersection", "g": g.to_spec(), "k": k,
                      "ambient": _tree(ambient), "first": _nodes(F),
                      "second": _nodes(C), "intersection_size": len(F & C)})
    # a 3-coloring of an exactly-6 tree's leaves leaves one class 2-big
    g = bushy.OrderFunction.constant(6)
    leaves = sorted(_ambient(ambients, 1, 2).leaves())
    for colors in colorings:
        classes = {c: frozenset(leaf for leaf, cc in zip(leaves, colors) if cc == c)
                   for c in (0, 1, 2)}
        big = [c for c in (0, 1, 2) if bushy.is_n_big(classes[c], 2, g, (), 2)]
        em.check(bool(big), "no 2-big color class")
        if big:
            certs.append({
                "kind": "pigeonhole_witness", "g": g.to_spec(), "stem": [], "depth": 2,
                "k": 1, "colors": [[list(leaf), c] for leaf, c in zip(leaves, colors)],
                "chosen_color": big[0],
                "witness": _tree(bushy.witness_tree(classes[big[0]], 2, g, (), 2))})
    em.keep("fusion", certs, {"kinds": {"fusion_intersection": len(draws),
                                        "pigeonhole_witness": len(colorings)}})


def emit_bushy(em: Emit, spec: dict) -> None:
    em.run("sweep", _sweep, spec["sweep"])
    em.run("closures", _closures, spec["closure_exhaustive"], spec["closure_random"])
    em.run("marking", _marking, spec["marking"], spec["marking_emit_every"])
    em.run("fusion", _fusion, spec["fusion"], spec["pigeonhole"])


# ---------------------------------------------------------------------------
# forcing-density

def _searches(em: Emit, width: int, tables: list) -> None:
    g = bushy.OrderFunction.constant(width)
    cond = forcing.ForcingCondition((), frozenset(), g)
    limits = forcing.SearchLimits()
    q = asm.const_index(0)
    certs, budget, diagonal = [], 0, 0
    for name, depth, entries, must_extend in tables:
        table = forcing.FiniteFunctional.from_entries(depth, entries)
        verdict = forcing.density_search(table, q, cond, limits)
        if isinstance(verdict, forcing.BudgetExceeded):
            budget += 1
            em.check(not must_extend and bool(verdict.trace),
                     f"{name} exhausted its budget")
            continue
        certs.append(verdict.certificate)
        diagonal += isinstance(verdict, forcing.DiagonalExt)
    em.check(diagonal >= 1, "no diagonal extension in the battery")
    em.keep("density", certs, {"kinds": {"non_total_extension": None,
                                         "diagonal_extension": None},
                               "total": len(tables) - budget})


def emit_forcing(em: Emit, spec: dict) -> None:
    em.run("density", _searches, spec["width"], spec["tables"])


# ---------------------------------------------------------------------------
# immunity-audits

def _audit(em: Emit, spec: dict) -> None:
    X = oracle.oracle_from_spec(spec["oracle"])
    certs = reductions.dnr_reduction_audit(X, asm.ZERO_INDEX, spec["e_max"], spec["budget"])
    em.check(any(c["kind"] == "ebi_violation" for c in certs),
             "a periodic oracle must trip the audit")
    kinds = ("diagonal_diverges", "dnr_value", "ebi_violation")
    em.keep("audit", certs, {"kinds": dict.fromkeys(kinds), "total": spec["e_max"] + 1,
                             "match": {k: {"budget": spec["budget"]} for k in kinds}})


def _candidates(em: Emit, spec: dict) -> None:
    for oracle_spec in spec["oracles"]:
        X = oracle.oracle_from_spec(oracle_spec)
        for n in spec["ns"]:
            em.check(reductions.dnr_candidate(X, asm.ZERO_INDEX, n, spec["budget"])
                     <= reductions.dnr_candidate_bound(asm.ZERO_INDEX, n, spec["budget"]),
                     f"candidate bound fails at n={n} on {oracle_spec}")


def _patch(em: Emit, spec: dict) -> None:
    _, certs = reductions.patch_oracle_dnr_only(
        asm.const_index(1), spec["e_max"], spec["budget"],
        oracle.oracle_from_spec(spec["start"]))
    em.check(any(c["kind"] == "dnr_value" for c in certs), "patched audit has no dnr_value")
    em.keep("patch", certs, {"kinds": {"dnr_value": None, "diagonal_diverges": None},
                             "total": spec["e_max"] + 1})


def _stages(em: Emit, spec: dict) -> None:
    count, budget = spec["stages"], spec["budget"]
    trace, g_map = stages.ei_not_coei(count, budget)
    em.check(len(trace.records) == count, "stage record count")
    em.check(all(rec["ones"] <= 2 * rec["stage"] for rec in trace.records),
             "a stage holds more than 2s ones")
    em.check(stages.audit_effective_immunity(g_map, count // 2, budget) == [],
             "immunity audit of the constructed set found violations")
    intervals = trace.interval_records()
    certs = []
    for rec in intervals:
        em.check(rec["count"] == rec["claimed_bound"] + 1, "interval size")
        certs.append({"kind": "interval_slice", **rec})
    certs.append({"kind": "stage_summary", "stages": count, "budget": budget,
                  "value_cap": 512, "probes": 3,
                  "ones": sorted(x for x, b in g_map.items() if b == 1),
                  "record_count": len(trace.records), "interval_count": len(intervals)})
    em.keep("stages", certs, {"kinds": {"interval_slice": len(intervals),
                                        "stage_summary": 1},
                              "match": {"stage_summary": {"record_count": count}}})


# Halts exactly on even input: the CLI's stock infinite r.e. set.
EVEN_HALT_SRC = """
    load r2, 2
    mod r1, r0, r2
    jz r1, ok
loop:
    jmp loop
ok:
    halt r0
"""


def _blocking(em: Emit, spec: dict) -> None:
    e = asm.assemble_index(EVEN_HALT_SRC)
    _, cert = reductions.blocking_prefix(tuple(spec["prefix"]), e, asm.const_index(2),
                                         spec["budget"])
    em.keep("blocking", [cert], {"kinds": {"blocking_infinite": 1},
                                 "match": {"blocking_infinite": {"budget": spec["budget"]}}})


def _lowness(em: Emit, spec: dict) -> None:
    one, ident = asm.const_index(1), asm.IDENTITY_INDEX
    e_max, budget = spec["e_max"], spec["budget"]
    certs = []
    for c in range(spec["c_max"] + 1):
        verdict = numbering.lowness_bound_check(one, ident, ident, c, e_max, budget)
        # sum of 2^-(e+1) over c < e <= e_max
        want = DyadicRational((1 << (e_max - c)) - 1, e_max + 1)
        em.check(verdict.holds and verdict.partial_sum == want,
                 f"lowness partial sum at c={c}")
        certs.append({"kind": "lowness_bound", "h": one, "p": ident, "f": ident, "c": c,
                      "e_max": e_max, "budget": budget, "verdict": verdict.to_jsonable()})
    em.keep("lowness", certs, {"kinds": {"lowness_bound": spec["c_max"] + 1}})


def _snr(em: Emit, spec: dict) -> None:
    X = oracle.oracle_from_spec(spec["oracle"])
    h = asm.const_index(1)
    certs = []
    for e in range(spec["e_max"] + 1):
        value = numbering.snr_from_immune_oracle(X, h, e, spec["budget"])
        # h is constant 1, so the slice is the oracle's first two members
        em.check(value == known_code(spec["oracle"]["pattern"], 2), f"snr slice at e={e}")
        certs.append({"kind": "snr_slice", "oracle": oracle.oracle_to_spec(X), "h": h,
                      "e": e, "budget": spec["budget"], "value": value})
    em.keep("snr", certs, {"kinds": {"snr_slice": spec["e_max"] + 1}})


def _measures(em: Emit, instances: list) -> None:
    certs = []
    for i, spec in enumerate(instances):
        table = numbering.TableNumbering(tuple(frozenset(s) for s in spec["sets"]))
        c, e_max = spec["c"], spec["e_max"]
        measure = numbering.schnorr_measure(table, c, e_max)
        em.check(measure <= DyadicRational.half_power(c), f"tail bound at instance {i}")
        constraints = [table.finite_set(e) for e in range(c + 1, e_max + 1)
                       if len(table.finite_set(e)) >= 2 * e]
        em.check(numbering.union_cylinder_measure(constraints)
                 == numbering.brute_force_union_measure(constraints),
                 f"measure disagrees with the brute-force mirror at instance {i}")
        certs.append({"kind": "cylinder_measure",
                      "sets": sorted(sorted(s) for s in constraints),
                      "term_cap": 1 << 20, "measure": measure.to_jsonable(),
                      "tail_exponent": c})
    em.keep("measures", certs, {"kinds": {"cylinder_measure": len(instances)}})


def emit_immunity(em: Emit, spec: dict) -> None:
    em.run("audit", _audit, spec["audit"])
    em.run("candidates", _candidates, spec["candidate"])
    em.run("patch", _patch, spec["patch"])
    em.run("stages", _stages, spec["stages"])
    em.run("blocking", _blocking, spec["blocking"])
    em.run("lowness", _lowness, spec["lowness"])
    em.run("snr", _snr, spec["snr"])
    em.run("measures", _measures, spec["measures"])


EMITTERS = {
    "bushy-lemmas": emit_bushy,
    "forcing-density": emit_forcing,
    "immunity-audits": emit_immunity,
}
