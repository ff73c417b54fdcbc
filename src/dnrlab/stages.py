"""Stagewise construction of an effectively immune set with a defective complement.

The partial characteristic function g grows over numbered stages.  Odd
stages 2e+1 feed the set: the least fresh element goes in, and the e-th
r.e. set is inspected through a budgeted window.  If it already exceeds
the immunity bound 2e+1, one of its fresh members is pinned to 0, which
keeps it from ever sitting inside the set.  If it also looks infinite at
the horizon (its window keeps growing), one of its fresh members goes in,
so the complement never swallows an infinite r.e. set whole.

Even stages 2e+2 attack the complement's claimed immunity bounds: when
phi_e behaves like a total function on probed inputs, a self-referential
index a is manufactured whose r.e. set is a fresh interval of exactly
phi_e(a) + 1 elements, all pinned to 0.  That set sits inside the
complement and overshoots the claimed bound phi_e at its own index, so no
probed total function can witness the complement's effective immunity.

All decisions are budgeted; anything skipped for budget or size reasons
is recorded in the trace rather than silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

from .asm import assemble_index
from .errors import CombinatorialBlowup
from .machine import (
    Halted,
    ProgramIndex,
    domain_window,
    eval_program,
    self_reference,
)

# phi(pair(u, x)): n = phi_e(u) + 1; halt iff base <= x < base + n.
# The braces carry the stage's target index and the fresh base.
_INTERVAL_DRIVER = """
    left r1, r0
    right r2, r0
    load r3, {e}
    univ r4, r3, r1
    load r5, 1
    add r4, r4, r5
    load r6, {base}
    sub r7, r6, r2
    jz r7, geq
    jmp stuck
geq:
    sub r8, r2, r6
    sub r9, r4, r8
    jz r9, stuck
    halt r2
stuck:
"""


def interval_slice_index(e: ProgramIndex, base: int) -> ProgramIndex:
    """An index a with W_a = [base, base + phi_e(a) + 1), by self-reference."""
    return self_reference(assemble_index(_INTERVAL_DRIVER.format(e=e, base=base)))


@dataclass(frozen=True)
class StageTrace:
    """One record per stage, plus the parameters that produced them."""

    stages: int
    budget: int
    records: tuple[dict, ...]

    def __post_init__(self) -> None:
        if len(self.records) != self.stages:
            raise ValueError("one record per stage")
        for s, rec in enumerate(self.records, start=1):
            if rec["stage"] != s:
                raise ValueError(f"record {rec} out of order at stage {s}")

    def ones_added(self) -> list[int]:
        return [x for rec in self.records for x, b in rec["added"] if b == 1]

    def interval_records(self) -> list[dict]:
        return [rec["interval"] for rec in self.records if rec.get("interval")]

    def to_jsonable(self) -> dict:
        return {
            "stages": self.stages,
            "budget": self.budget,
            "records": list(self.records),
        }


# Most stages a construction takes on.  Odd stage 2e+1 reads a window of
# 4e+8 inputs, so the work grows about quadratically: the benchmark's 1000
# stages take a fraction of a second, 4096 a few seconds.
STAGE_LIMIT = 1 << 12


def _window_horizon(e: int) -> int:
    # wide enough that exceeding the bound 2e+1 is visible with room to spare
    return 4 * e + 8


def ei_not_coei(stages: int, budget: int,
                value_cap: int = 512, probes: int = 3) -> tuple[StageTrace, dict[int, int]]:
    """Run the construction for the given number of stages.

    Returns the trace and the partial characteristic function.  The set
    built is A = {x : g(x) = 1}; everything pinned to 0 stays outside A
    forever, and undetermined positions count as outside.  More than
    STAGE_LIMIT stages are refused (CombinatorialBlowup) before any runs.
    """
    if stages < 0:
        raise ValueError("stages is a natural")
    if stages > STAGE_LIMIT:
        raise CombinatorialBlowup(f"{stages} stages exceed the limit {STAGE_LIMIT}")
    g: dict[int, int] = {}
    records: list[dict] = []

    def fresh() -> int:
        x = 0
        while x in g:
            x += 1
        return x

    for s in range(1, stages + 1):
        added: list[tuple[int, int]] = []
        events: list[dict] = []
        interval_record: dict | None = None
        if s % 2 == 1:
            e = (s - 1) // 2
            m = fresh()
            g[m] = 1
            added.append((m, 1))
            horizon = _window_horizon(e)
            window = sorted(domain_window(e, horizon, budget))
            if len(window) > 2 * e + 1:
                outside = [x for x in window if x not in g]
                if outside:
                    g[outside[0]] = 0
                    added.append((outside[0], 0))
                    events.append({"event": "bound_exceeded", "e": e,
                                   "count": len(window), "pinned_out": outside[0]})
                else:
                    events.append({"event": "bound_exceeded_no_fresh", "e": e,
                                   "count": len(window)})
            # W_e looks infinite when the window holds more than its lower half
            if window and window[-1] >= horizon // 2:
                inside = [x for x in window if x not in g]
                if inside:
                    g[inside[0]] = 1
                    added.append((inside[0], 1))
                    events.append({"event": "looks_infinite", "e": e,
                                   "pulled_in": inside[0]})
        else:
            e = (s - 2) // 2
            probe_ok = all(
                isinstance(eval_program(e, x, budget), Halted) for x in range(probes))
            if not probe_ok:
                events.append({"event": "skipped_not_total", "e": e})
            else:
                base = max(g, default=-1) + 1
                a = interval_slice_index(e, base)
                out = eval_program(e, a, budget)
                if not isinstance(out, Halted):
                    events.append({"event": "skipped_diagonal_budget", "e": e, "a": a})
                elif out.value + 1 > value_cap:
                    events.append({"event": "skipped_value_cap", "e": e, "a": a,
                                   "value": out.value})
                else:
                    n = out.value + 1
                    for x in range(base, base + n):
                        g[x] = 0
                        added.append((x, 0))
                    interval_record = {
                        "e": e, "a": a, "base": base, "count": n,
                        "claimed_bound": out.value, "budget": budget,
                    }
                    events.append({"event": "interval_pinned", "e": e, "count": n})
        ones = sum(1 for b in g.values() if b == 1)
        assert ones <= 2 * s, f"stage {s}: {ones} ones exceeds 2s"
        records.append({
            "stage": s,
            "parity": "odd" if s % 2 == 1 else "even",
            "added": [[x, b] for x, b in added],
            "events": events,
            "interval": interval_record,
            "ones": ones,
        })
    return StageTrace(stages, budget, tuple(records)), g


def audit_effective_immunity(g: dict[int, int], e_max: int, budget: int) -> list[dict]:
    """r.e. sets that exceed their bound yet sit wholly inside the built set.

    An empty result certifies the immunity invariant on the audited range:
    every budgeted W_e larger than 2e+1 has a member outside A.
    """
    ones = {x for x, b in g.items() if b == 1}
    violations = []
    for e in range(e_max + 1):
        window = domain_window(e, _window_horizon(e), budget)
        if len(window) > 2 * e + 1 and window <= ones:
            violations.append({"e": e, "count": len(window),
                               "members": sorted(window)})
    return violations
