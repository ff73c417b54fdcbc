"""One benchmark child process; run.py starts it, one at a time.

    worker.py emit  --workload W --seed N --size S --out TRACE --report JSON [--spans PATH]
    worker.py setup --workload W --seed N --size S --report JSON
    worker.py cli   --report JSON [--spans PATH] -- <dnrlab command line>

`emit` imports dnrlab, makes the workload's seeded inputs, notes the
monotonic time at which they are ready (and a reference pass right after,
clock.py), then runs the emit phase and writes
the certificates as one trace in the CLI trace format.  `setup` does the
set-up alone (for cli-commands it also reports the job list).  `cli` runs
`dnrlab.cli.main` on the given arguments.  Each timed phase also reports
the reference time around it (clock.py).  With `--spans` the library is
traced: the report gains the per-span statistics and the spans are written
to PATH when the process ends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

import dnrlab.cli
from dnrlab import machine

import clock
import inputs
from tracer import Tracer


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _tracer_report(tracer: Tracer) -> dict:
    return {
        "stats": tracer.stats,
        "counts": tracer.counts,
        "verdict_ms": [d * 1000 for d in tracer.durations("certs.verdict")],
        "cache": {"decode": list(machine.decode.cache_info()[:2]),
                  "smn": list(machine.smn_fill.cache_info()[:2])},
        "spans": len(tracer.span_start),
    }


def _traced(spans: str | None, run_id: str, body) -> dict:
    """Run body() (under the tracer when spans is a path); merge its report."""
    if spans is None:
        return body()
    tracer = Tracer(run_id)
    tracer.install()
    try:
        report = body()
    finally:
        tracer.remove()
    tracer.dump(spans)
    report["trace"] = _tracer_report(tracer)
    return report


def emit(args) -> dict:
    from emitters import EMITTERS, Emit

    spec = inputs.make_inputs(args.workload, args.seed, args.size)
    ready = time.monotonic()
    ready_ref = clock.median_pass()

    def phase() -> tuple[Emit, str]:
        em = Emit()
        EMITTERS[args.workload](em, spec)
        header = {"schema": dnrlab.cli.TRACE_SCHEMA, "command": f"bench:{args.workload}",
                  "seed": args.seed, "g": None, "budgets": {}}
        text = "\n".join(_dump(x) for x in [header] + em.certs) + "\n"
        with open(args.out, "w") as fh:
            fh.write(text)
        return em, text

    def body() -> dict:
        (em, text), took, ref = clock.timed(phase)
        return {"emit_s": took, "ref_s": ref,
                "certs": len(em.certs), "checks": em.checks, "failures": em.failures,
                "sha256": hashlib.sha256(text.encode()).hexdigest()}

    report = _traced(args.spans, args.run_id, body)
    report.update(ready=ready, ready_ref_s=ready_ref)
    return report


def setup(args) -> dict:
    spec = inputs.make_inputs(args.workload, args.seed, args.size)
    report = {"ready": time.monotonic(), "ready_ref_s": clock.median_pass()}
    if args.workload == "cli-commands":
        report["jobs"] = spec
        report["missing"] = sorted(set(inputs.CLI_COMMANDS) - set(dnrlab.cli.COMMANDS))
    return report


def cli(args) -> dict:
    def body() -> dict:
        code, took, ref = clock.timed(lambda: dnrlab.cli.main(args.argv))
        return {"exit": code, "main_s": took, "ref_s": ref}

    return _traced(args.spans, args.run_id, body)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("emit", "setup", "cli"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--size", choices=inputs.SIZES, default="full")
    parser.add_argument("--out")
    parser.add_argument("--report", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--run-id", default="run")
    own = sys.argv[1:]
    cli_argv = []
    if "--" in own:
        cli_argv = own[own.index("--") + 1:]
        own = own[:own.index("--")]
    args = parser.parse_args(own)
    args.argv = cli_argv
    report = {"emit": emit, "setup": setup, "cli": cli}[args.mode](args)
    with open(args.report, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
