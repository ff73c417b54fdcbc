"""Span tracer that wraps dnrlab's public functions from the outside.

Nothing in `src/` knows about it.  `Tracer.install()` replaces each traced
function in every `dnrlab` module namespace that bound it (modules copy
names at import time: `forcing` and `certs` both do
`from .bushy import bushiness_numbers`), patches the traced methods on
their classes, and wraps every replayer in `certs.REPLAYERS`.
`Tracer.remove()` puts every original back.

Each call of a traced function is one span: name, start, end, parent span
and the tracer's run id.  Spans stay in memory (parallel arrays, about 32
bytes a span) until `dump()` writes them.  Per span name the tracer also
keeps calls, busy time and self time (busy time minus the time covered by
child spans), and `counts` holds the work counters the hooks add.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

# (home module, attribute, span name, hook).  A hook receives the tracer,
# the call's arguments and its result, and adds to `tracer.counts`.
FUNCTIONS = [
    ("dnrlab.machine", "eval_steps", "machine.eval", "_count_halted_steps"),
    ("dnrlab.machine", "domain_window", "machine.window", None),
    ("dnrlab.machine", "enumerate_re", "machine.window", None),
    ("dnrlab.machine", "re_enumeration_order", "machine.window", None),
    ("dnrlab.bushy", "bushiness_numbers", "bushy.beta", "_count_beta_nodes"),
    ("dnrlab.bushy", "validate_string_set", "bushy.validate", None),
    ("dnrlab.bushy", "witness_tree", "bushy.witness", None),
    ("dnrlab.bushy", "verify_bushy", "bushy.verify", None),
    ("dnrlab.bushy", "closure", "bushy.closure", None),
    ("dnrlab.bushy", "union_smallness_sweep", "bushy.sweep", "_count_sweep"),
    ("dnrlab.bushy", "intersection_bushiness_check", "bushy.fusion", None),
    ("dnrlab.forcing", "density_search", "forcing.search", "_count_search"),
    ("dnrlab.forcing", "build_totality_tree", "forcing.totality", None),
    ("dnrlab.reductions", "dnr_reduction_audit", "reductions.audit", "_count_audit"),
    ("dnrlab.reductions", "blocking_prefix", "reductions.blocking", None),
    ("dnrlab.reductions", "patch_oracle_dnr_only", "reductions.patch", None),
    ("dnrlab.stages", "ei_not_coei", "stages.construct", "_count_stages"),
    ("dnrlab.stages", "audit_effective_immunity", "stages.audit", None),
    ("dnrlab.numbering", "union_cylinder_measure", "numbering.measure", None),
    ("dnrlab.numbering", "lowness_bound_check", "numbering.lowness", None),
    ("dnrlab.numbering", "snr_from_immune_oracle", "numbering.snr", None),
    ("dnrlab.certs", "replay_certificate", "certs.verdict", None),
]

# (home module, class, method, span name): patched on the class itself.
METHODS = [
    ("dnrlab.bushy", "TreeWitness", "children_of", "bushy.children_of"),
    ("dnrlab.forcing", "FiniteFunctional", "output", "forcing.output"),
]


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")  # -1 for a root span
        self.span_start = array("d")
        self.span_end = array("d")
        self.stats: dict[str, list] = {}  # name -> [calls, busy_s, self_s]
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []  # [span id, child time] per open span
        self._undo: list[tuple] = []

    # -- counting hooks ----------------------------------------------------

    def add(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _count_halted_steps(self, args, kwargs, result) -> None:
        from dnrlab.machine import Halted
        outcome, steps = result
        if isinstance(outcome, Halted):
            self.add("machine.halted_steps", steps)

    def _count_beta_nodes(self, args, kwargs, result) -> None:
        self.add("bushy.beta_nodes", len(result))

    def _count_sweep(self, args, kwargs, result) -> None:
        self.add("bushy.sweep_instances", result["instances"])

    def _count_search(self, args, kwargs, result) -> None:
        outcome = {"NonTotalExt": "non_total", "DiagonalExt": "diagonal",
                   "BudgetExceeded": "budget"}[type(result).__name__]
        self.add(f"forcing.outcome.{outcome}")
        self.add("forcing.trace_steps", len(result.trace))

    def _count_audit(self, args, kwargs, result) -> None:
        self.add("reductions.audit_certs", len(result))

    def _count_stages(self, args, kwargs, result) -> None:
        self.add("stages.stages", len(result[0].records))

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name: str, fn, hook=None):
        """A function that runs `fn` inside a span called `name`."""
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
            self.stats[name] = [0, 0.0, 0.0]
        index = self._name_index[name]
        stat = self.stats[name]
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end

        def traced(*args, **kwargs):
            span = len(starts)
            names.append(index)
            parents.append(stack[-1][0] if stack else -1)
            frame = [span, 0.0]
            stack.append(frame)
            start = perf_counter()
            starts.append(start)
            ends.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                ends[span] = end
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[1]
            if hook is not None:
                hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _replace_everywhere(self, attr: str, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "dnrlab" and not mod_name.startswith("dnrlab."):
                continue
            if module is not None and module.__dict__.get(attr) is original:
                setattr(module, attr, replacement)
                self._undo.append((module, attr, original))

    def install(self) -> None:
        """Wrap every traced function, method and replayer (imports dnrlab)."""
        import dnrlab.certs
        import dnrlab.cli  # noqa: F401  (binds its own copies of the names)
        from dnrlab import machine

        if self._undo:
            raise RuntimeError("tracer is already installed")
        for mod_name, attr, span, hook in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            hook_fn = getattr(self, hook) if hook else None
            self._replace_everywhere(attr, original, self.wrap(span, original, hook_fn))

        # eval_program gets the steps through eval_steps, which returns the
        # same outcome, so halted steps are counted without touching _run
        original_eval = machine.eval_program
        eval_steps = machine.eval_steps.__wrapped__

        def eval_program(e, x, budget, oracle=None):
            outcome, steps = eval_steps(e, x, budget, oracle)
            if isinstance(outcome, machine.Halted):
                self.add("machine.halted_steps", steps)
            return outcome

        self._replace_everywhere("eval_program", original_eval,
                                 self.wrap("machine.eval", eval_program))

        for mod_name, cls_name, method, span in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, self.wrap(span, original))
            self._undo.append((cls, method, original))

        replayers = dnrlab.certs.REPLAYERS
        for kind, original in list(replayers.items()):
            replayers[kind] = self.wrap(f"certs.{kind}", original)
            self._undo.append((replayers, kind, original))

    def remove(self) -> None:
        """Put back every original the install replaced."""
        while self._undo:
            target, attr, original = self._undo.pop()
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)

    # -- results -----------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        """Durations of every span called `name`, in call order."""
        if name not in self._name_index:
            return []
        index = self._name_index[name]
        return [self.span_end[i] - self.span_start[i]
                for i, n in enumerate(self.span_name) if n == index]

    def dump(self, path: str) -> None:
        """Write the spans as JSON Lines: a header, then one span a line."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"run_id": self.run_id, "spans": len(self.span_start),
                                 "fields": ["id", "parent", "name", "start", "end"]}) + "\n")
            names = self.names
            for i in range(len(self.span_start)):
                fh.write(json.dumps([i, self.span_parent[i], names[self.span_name[i]],
                                     self.span_start[i], self.span_end[i]]) + "\n")
