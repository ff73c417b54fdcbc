"""Seeded inputs of every workload, and the size checks that need no library.

Everything here is plain data made from the workload seed with
`random.Random(seed)`; the library only ever sees what these functions
return.  The seed changes which sets, tables, subtrees and numberings are
drawn, never how many: every workload draws a fixed mix of sizes, so runs
under different seeds do the same amount of work.  `size="tiny"` shrinks
every workload for the benchmark's own tests.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import product

WORKLOADS = ("bushy-lemmas", "immunity-audits", "forcing-density", "cli-commands")
SIZES = ("full", "tiny")

# The seed whose trace digests are recorded in digests.json.
DEFAULT_SEED = 0


def region_size(width: int, depth: int) -> int:
    """Nodes of length 0..depth under a constant order function."""
    return sum(width ** d for d in range(depth + 1))


def _random_bits(rng: random.Random, n: int) -> list[int]:
    density = rng.random()
    return [int(rng.random() < density) for _ in range(n)]


# ---------------------------------------------------------------------------
# bushy-lemmas: union smallness, closure laws, marking, fusion, pigeonhole.

def bushy_inputs(rng: random.Random, size: str) -> dict:
    full = size == "full"
    marking = []
    for g, depth, count in ((3, 2, 600), (3, 3, 150), (4, 3, 50)) if full else \
            ((3, 2, 30), (3, 3, 10), (4, 3, 5)):
        for _ in range(count):
            n = 4 if g == 4 else rng.choice((2, 3))
            marking.append({"g": g, "depth": depth, "n": n,
                            "bits": _random_bits(rng, region_size(g, depth))})
    mix = ((1, 1, 10), (1, 2, 20), (2, 2, 15), (3, 2, 10), (1, 3, 10), (2, 3, 1),
           (3, 3, 1)) if full else ((1, 1, 3), (1, 2, 3), (2, 2, 2))
    fusion = [[k, depth, rng.randrange(1 << 30)]
              for k, depth, count in mix for _ in range(count)]
    return {
        "sweep": {"g": 3 if full else 2, "depth": 2,
                  "pairs": [[2, 2], [2, 3], [3, 2], [3, 3]],
                  "stems": [[], [0], [1], [2]] if full else [[]]},
        "closure_exhaustive": {"g": 3 if full else 2, "depth": 2, "ns": [3] if full else [2, 3]},
        "closure_random": {"g": 4, "depth": 3, "n": 4, "emit_every": 10,
                           "sets": [_random_bits(rng, region_size(4, 3))
                                    for _ in range(400 if full else 20)]},
        "marking": marking,
        "marking_emit_every": 10,
        "fusion": fusion,
        # k = 1 at depth 2: an exactly-6 tree has 36 leaves to color
        "pigeonhole": [[rng.randrange(3) for _ in range(36)]
                       for _ in range(3 if full else 1)],
    }


# ---------------------------------------------------------------------------
# forcing-density: the c09 battery plus sparse depth-4 tables.

def _componentwise(depth: int, fn) -> dict:
    entries = {(): ()}
    frontier = [()]
    for _ in range(depth):
        frontier = [node + (c,) for node in frontier for c in range(8)]
        for node in frontier:
            entries[node] = fn(node)
    return entries


def hand_built_tables() -> list[tuple[str, int, dict]]:
    """The ten hand-built tables of acceptance criterion 9: (name, depth, entries)."""
    return [
        ("empty", 3, {}),
        ("const000", 3, {(): (0, 0, 0)}),
        ("const010", 3, {(): (0, 1, 0)}),
        ("const1", 1, {(): (1,)}),
        ("parity1", 1, _componentwise(1, lambda n: tuple(c % 2 for c in n))),
        ("parity2", 2, _componentwise(2, lambda n: tuple(c % 2 for c in n))),
        ("firstbit2", 2, _componentwise(2, lambda n: (n[0] & 1,) * len(n))),
        ("threshold1", 1, _componentwise(1, lambda n: tuple(int(c >= 4) for c in n))),
        ("cumsum2", 2, _componentwise(
            2, lambda n: tuple(sum(n[:i + 1]) % 2 for i in range(len(n))))),
        ("blocks2", 2, _componentwise(2, lambda n: tuple(c // 4 for c in n))),
    ]


def random_table(rng: random.Random, depth: int, fill: float = 0.9,
                 dense_above: int = 0) -> dict:
    """Monotone random entries: each node tabled with probability `fill`
    (always above depth `dense_above`), outputs growing by 0 or 1 bits."""
    entries = {}

    def grow(node, out):
        if len(node) < dense_above or rng.random() < fill:
            entries[node] = out
        if len(node) == depth:
            return
        for c in range(8):
            grow(node + (c,),
                 out + tuple(rng.randrange(2) for _ in range(rng.randrange(2))))

    grow((), ())
    return entries


def forcing_inputs(rng: random.Random, size: str) -> dict:
    full = size == "full"
    hand = hand_built_tables() if full else hand_built_tables()[:4]
    per_depth = ((1, 13), (2, 13), (3, 14)) if full else ((1, 2), (2, 2), (3, 1))
    tables = [[f"random-d{depth}-{i}", depth, random_table(rng, depth), False]
              for depth, count in per_depth for i in range(count)]
    # depth 4 with about 250 of its 4681 nodes tabled: the region scans grow
    # with the depth while the table stays small enough to search in ~0.3 s
    tables += [[f"sparse-d4-{i}", 4, random_table(rng, 4, 0.05, dense_above=2), False]
               for i in range(3 if full else 1)]
    return {"width": 8,
            "tables": [[name, depth, entries, True] for name, depth, entries in hand]
            + tables}


# ---------------------------------------------------------------------------
# immunity-audits: machine-bound audits, constructions and measures.

ORACLE_SPECS = (
    {"kind": "periodic", "pattern": [1, 0]},
    {"kind": "periodic", "pattern": [0, 1]},
    {"kind": "periodic", "pattern": [1]},
    {"kind": "prefix", "bits": [1, 1, 0, 1], "tail": 0},
    {"kind": "set", "members": [0, 2, 3, 5, 8, 13, 21, 34]},
)


def _measure_instance(rng: random.Random) -> dict | None:
    """One c08 numbering; None unless its constraints touch all 16 points."""
    c = rng.randint(1, 10)
    e_max = rng.randint(12, 64)
    sets = []
    for _ in range(e_max + 1):
        count = rng.choice((0, 1, 2, rng.randint(0, 16)))
        sets.append(sorted(rng.sample(range(16), count)))
    constraints = [s for e, s in enumerate(sets) if c < e and len(s) >= 2 * e]
    if not constraints or max(max(s) for s in constraints) != 15:
        return None
    return {"c": c, "e_max": e_max, "sets": sets}


def immunity_inputs(rng: random.Random, size: str) -> dict:
    full = size == "full"
    measures = []
    while len(measures) < (12 if full else 2):
        instance = _measure_instance(rng)
        if instance is not None:
            measures.append(instance)
    pattern = [rng.randrange(2) for _ in range(rng.randint(2, 5))]
    pattern[rng.randrange(len(pattern))] = 1
    return {
        "audit": {"oracle": {"kind": "periodic", "pattern": [1, 0]},
                  "e_max": 20_000 if full else 700, "budget": 10**5},
        "candidate": {"oracles": list(ORACLE_SPECS), "budget": 10**6,
                      "ns": sorted(rng.sample(range(500), 51 if full else 8))},
        "patch": {"start": {"kind": "prefix", "bits": [1, 1], "tail": 0},
                  "e_max": 2450 if full else 300, "budget": 10**6},
        "stages": {"stages": 1000 if full else 100, "budget": 10**5},
        "blocking": {"prefix": [1], "budget": 10**5},
        "lowness": {"c_max": 20 if full else 3, "e_max": 24, "budget": 10**4},
        "snr": {"oracle": {"kind": "periodic", "pattern": pattern},
                "e_max": 20 if full else 3, "budget": 10**4},
        "measures": measures,
    }


# ---------------------------------------------------------------------------
# cli-commands: every non-replay command at its default configuration.

# Size budgets passed explicitly, at the command's default value for the
# full size, so the certificate count each job must produce is known.
CLI_BUDGETS = {
    "full": {
        "fusion-check": {"instances": 10, "depth": 2},
        "dnr-audit": {"audit": 700, "eval": 10_000},
        "ei-construct": {"stages": 200, "eval": 100_000},
        "snr-demo": {"audit": 10},
        "blocking-prefix": {"eval": 100_000},
    },
    "tiny": {
        "fusion-check": {"instances": 4, "depth": 2},
        "dnr-audit": {"audit": 60, "eval": 4000},
        "ei-construct": {"stages": 60, "eval": 20_000},
        "snr-demo": {"audit": 4},
        "blocking-prefix": {"eval": 100_000},
    },
}

CLI_COMMANDS = ("blocking-prefix", "bushy-check", "closure", "density-search",
                "dnr-audit", "ei-construct", "fusion-check", "lemma-sweep",
                "lowness-check", "schnorr-measure", "snr-demo")


def cli_expectation(command: str, budgets: dict) -> dict:
    """Kinds (exact count, or None for any), total and field values a job must show."""
    if command == "dnr-audit":
        kinds = ("diagonal_diverges", "dnr_value", "ebi_violation", "f_unconverged")
        return {"kinds": dict.fromkeys(kinds), "total": budgets["audit"] + 1,
                "match": {k: {"budget": budgets["eval"]} for k in kinds}}
    if command == "ei-construct":
        stages = budgets["stages"]
        return {"kinds": {"interval_slice": None, "stage_summary": 1},
                "match": {"stage_summary": {"stages": stages, "record_count": stages,
                                            "budget": budgets["eval"]}}}
    if command == "fusion-check":
        return {"kinds": {"fusion_intersection": budgets["instances"],
                          "pigeonhole_witness": 1},
                "match": {"pigeonhole_witness": {"depth": budgets["depth"]}}}
    if command == "snr-demo":
        return {"kinds": {"snr_slice": budgets["audit"] + 1}}
    if command == "blocking-prefix":
        return {"kinds": {"blocking_infinite": 1},
                "match": {"blocking_infinite": {"budget": budgets["eval"]}}}
    if command == "density-search":
        return {"kinds": {"non_total_extension": None, "diagonal_extension": None},
                "total": 3}
    if command == "lemma-sweep":
        return {"kinds": {"sweep_summary": 1},
                "match": {"sweep_summary": {"counterexamples": 0}}}
    single = {"bushy-check": "bushiness_verdict", "closure": "closure_result",
              "schnorr-measure": "cylinder_measure", "lowness-check": "lowness_bound"}
    return {"kinds": {single[command]: 1}}


def cli_jobs(seed: int, size: str) -> list[dict]:
    jobs = []
    for command in CLI_COMMANDS:
        budgets = CLI_BUDGETS[size].get(command, {})
        argv = ["--command", command, "--seed", str(seed)]
        argv += [f"--budget.{name}={value}" for name, value in sorted(budgets.items())]
        jobs.append({"command": command, "argv": argv,
                     "expect": cli_expectation(command, budgets)})
    return jobs


# ---------------------------------------------------------------------------

def make_inputs(workload: str, seed: int, size: str):
    rng = random.Random(f"{workload}:{seed}")
    if workload == "bushy-lemmas":
        return bushy_inputs(rng, size)
    if workload == "forcing-density":
        return forcing_inputs(rng, size)
    if workload == "immunity-audits":
        return immunity_inputs(rng, size)
    if workload == "cli-commands":
        return cli_jobs(seed, size)
    raise ValueError(f"unknown workload {workload!r}")


def size_problem(certs: list[dict], expect: dict) -> str | None:
    """Why a job's certificates do not match the size it asked for, or None.

    `expect` holds `kinds` (kind -> exact count, or None for any count; no
    other kind may appear), an optional exact `total`, and an optional
    `match` (kind -> field values every certificate of that kind carries).
    """
    got = Counter(cert.get("kind") for cert in certs)
    kinds = expect["kinds"]
    stray = sorted(str(k) for k in got if k not in kinds)
    if stray:
        return f"unexpected kinds {stray}"
    for kind, count in kinds.items():
        if count is not None and got.get(kind, 0) != count:
            return f"{got.get(kind, 0)} {kind} certificates, asked for {count}"
    total = expect.get("total")
    if total is not None and len(certs) != total:
        return f"{len(certs)} certificates, asked for {total}"
    for kind, fields in expect.get("match", {}).items():
        for cert in certs:
            if cert.get("kind") != kind:
                continue
            wrong = {f: cert.get(f) for f, v in fields.items() if cert.get(f) != v}
            if wrong:
                return f"{kind} has {wrong}, asked for {fields}"
    return None


def known_code(pattern: list[int], k: int) -> int:
    """Bit code of the first k positions where a periodic pattern is 1."""
    code, found, i = 0, 0, 0
    while found < k:
        if pattern[i % len(pattern)] == 1:
            code |= 1 << i
            found += 1
        i += 1
    return code


def region_of(width: int, depth: int) -> list[tuple[int, ...]]:
    """Sorted nodes of length 0..depth under a constant order function."""
    return sorted(node for d in range(depth + 1)
                  for node in product(range(width), repeat=d))
