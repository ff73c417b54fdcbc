"""dnrlab emit/replay benchmark: one workload, a closed loop, one child at a time.

    python3 bench/run.py --workload bushy-lemmas --seed 1 --seconds 30 --trace 0

Each iteration starts fresh interpreters, so every one begins with empty
`decode`/`smn_fill` caches, as a user's `dnrlab` invocation does: an emit
process makes the seeded inputs and writes the workload's certificates as
one trace, then a second process runs `dnrlab --command replay` on it
through `dnrlab.cli.main`.  For cli-commands every command is its own
`python -m dnrlab.cli` process.  Iterations repeat until the next one
would end after `--seconds`; the metrics are medians over iterations, and
emit and replay times are gated as ratios to a reference workload timed
around them, and set-up time is scaled by the same reference (clock.py).  With `--trace 1` each iteration also emits and
replays under the tracer and the per-layer metrics are printed instead.
The last line of standard output is the result object; the line before it
holds informational fields (iterations, samples, raw wall times, error
rate and its base, `src/` line count, trace digest).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import clock
import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SCRATCH = WORK / "tmp"
SPANS = WORK / "spans"
PY = sys.executable
WORKER = str(BENCH / "worker.py")
CHILD_TIMEOUT_S = 150
# Set-up is short and noisy: each run also measures it this many extra times
# at the start, and once more before every iteration.
SETUP_REPEATS = 5
REPLAY_LINE = re.compile(r"(\d+) certificates verified, (\d+) mismatches")

# Certificate kinds the four workloads emit; certs.<kind>.* per-layer metrics.
KINDS = (
    "blocking_infinite", "bushiness_verdict", "closure_result", "cylinder_measure",
    "diagonal_diverges", "diagonal_extension", "dnr_value", "ebi_violation",
    "fusion_intersection", "interval_slice", "lowness_bound", "non_total_extension",
    "pigeonhole_witness", "snr_slice", "stage_summary", "sweep_summary",
)

END_TO_END = {"setup_s": "s", "emit_norm": "ref", "replay_norm": "ref", "peak_rss_mb": "MB"}
# Raw wall times behind the scaled metrics: printed, not gated (see clock.py).
WALL_TIMES = {"setup_wall_s": "s", "emit_s": "s", "replay_s": "s"}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


ENV = _child_env()


@dataclass
class Child:
    exit: int
    start: float  # monotonic time just before the spawn
    wall: float
    rss_mb: float
    out: str


def run_child(argv: list[str], tag: str) -> Child:
    """Run one child to completion; its peak RSS comes from wait4."""
    out_path, err_path = SCRATCH / f"{tag}.out", SCRATCH / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=ENV)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.stderr.write(f"[{tag}] exit {proc.returncode}\n{err_path.read_text()[-2000:]}")
    return Child(proc.returncode, start, wall, usage.ru_maxrss / 1024, out_path.read_text())


class Ops:
    """Attempted and failed operations: certificates emitted, replay
    verdicts, child invocations and known-answer checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, count: int, failed: int = 0, why: str = "") -> None:
        self.attempted += count
        if failed:
            self.failed += failed
            self.failures.append(why)

    def check(self, ok: bool, why: str) -> bool:
        self.add(1, 0 if ok else 1, why)
        return ok


def setup_seconds(child: Child, report: dict) -> tuple[float, float]:
    """(set-up seconds scaled to nominal host speed, raw set-up seconds)."""
    raw = report["ready"] - child.start
    return raw * clock.NOMINAL_S / report["ready_ref_s"], raw


def load_report(child: Child, path: Path, ops: Ops, what: str) -> dict | None:
    """The child's JSON report; a crashed child is one failed invocation."""
    ok = child.exit == 0 and path.exists()
    if not ops.check(ok, f"{what} exited {child.exit}"):
        return None
    return json.loads(path.read_text())


def replay_verdicts(child: Child, expected: int, ops: Ops, what: str) -> None:
    """One op per certificate the replay should have verified."""
    ops.check(child.exit == 0, f"{what}: replay exited {child.exit}")
    match = REPLAY_LINE.search(child.out)
    verified = int(match.group(1)) if match and match.group(2) == "0" else 0
    ops.add(expected, expected - min(verified, expected),
            f"{what}: {verified} of {expected} certificates verified")
    if verified > expected:
        ops.check(False, f"{what}: replay verified {verified}, {expected} emitted")


def read_certs(path: Path) -> tuple[bytes, list[dict]]:
    if not path.exists():
        return b"", []
    data = path.read_bytes()
    lines = data.decode().splitlines()[1:]
    return data, [json.loads(line) for line in lines if line.strip()]


class Digest:
    """Trace bytes must repeat: the digest recorded in digests.json under the
    default seed at full size, and the first iteration's digest otherwise."""

    def __init__(self, workload: str, seed: int, size: str) -> None:
        self.recorded = seed == inputs.DEFAULT_SEED and size == "full"
        self.want = json.loads((BENCH / "digests.json").read_text()).get(workload)
        self.first: str | None = None

    def check(self, sha: str, ops: Ops) -> None:
        self.first = self.first or sha
        want = self.want if self.recorded else self.first
        ops.check(sha == want, f"trace sha256 {sha}, expected {want}")


# ---------------------------------------------------------------------------
# Per-layer metrics, read from the tracer reports of the traced processes.

class Layers:
    """Sum of the tracer reports of one iteration's traced processes."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self.cache = {"decode": [0, 0], "smn": [0, 0]}
        self.verdict_ms: list[float] = []
        self.cli: dict[str, float] = {}
        self.spans = 0

    def merge(self, report: dict) -> None:
        for name, values in report["stats"].items():
            total = self.stats.setdefault(name, [0, 0.0, 0.0])
            for i, v in enumerate(values):
                total[i] += v
        for key, n in report["counts"].items():
            self.counts[key] = self.counts.get(key, 0) + n
        for cache, (hits, misses) in report["cache"].items():
            self.cache[cache][0] += hits
            self.cache[cache][1] += misses
        self.verdict_ms += report["verdict_ms"]
        self.spans += report["spans"]

    def stat(self, name: str, i: int):
        return self.stats.get(name, [0, 0.0, 0.0])[i]

    def hit_ratio(self, cache: str) -> float:
        hits, misses = self.cache[cache]
        return hits / (hits + misses) if hits + misses else 0.0

    def percentile_ms(self, q: float) -> float:
        ordered = sorted(self.verdict_ms)
        return ordered[max(0, math.ceil(len(ordered) * q) - 1)] if ordered else 0.0


def _layer_spec() -> dict:
    """Per-layer metric name -> (unit, reader of a Layers)."""
    spec: dict = {}

    def span(prefix: str, calls: str | None = None) -> None:
        if calls:
            spec[calls] = ("count", lambda a: a.stat(prefix, 0))
        spec[f"{prefix}_busy_s"] = ("s", lambda a: a.stat(prefix, 1))
        spec[f"{prefix}_self_s"] = ("s", lambda a: a.stat(prefix, 2))

    def count(name: str) -> None:
        spec[name] = ("count", lambda a: a.counts.get(name, 0))

    span("machine.eval", "machine.eval_calls")
    count("machine.halted_steps")
    span("machine.window", "machine.window_calls")
    spec["machine.decode_hit_ratio"] = ("ratio", lambda a: a.hit_ratio("decode"))
    spec["machine.decode_misses"] = ("count", lambda a: a.cache["decode"][1])
    spec["machine.smn_hit_ratio"] = ("ratio", lambda a: a.hit_ratio("smn"))

    span("bushy.beta", "bushy.beta_calls")
    count("bushy.beta_nodes")
    span("bushy.validate", "bushy.validate_calls")
    span("bushy.witness")
    span("bushy.verify")
    span("bushy.children_of", "bushy.children_of_calls")
    span("bushy.closure")
    count("bushy.sweep_instances")
    span("bushy.sweep")
    span("bushy.fusion", "bushy.fusion_checks")

    span("forcing.search", "forcing.searches")
    for outcome in ("non_total", "diagonal", "budget"):
        count(f"forcing.outcome.{outcome}")
    spec["forcing.extension_ratio"] = ("ratio", lambda a: (
        (a.counts.get("forcing.outcome.non_total", 0)
         + a.counts.get("forcing.outcome.diagonal", 0)) / a.stat("forcing.search", 0)
        if a.stat("forcing.search", 0) else 0.0))
    count("forcing.trace_steps")
    span("forcing.output", "forcing.output_calls")
    span("forcing.totality")

    count("reductions.audit_certs")
    span("reductions.audit")
    span("reductions.blocking")
    span("reductions.patch")

    count("stages.stages")
    span("stages.construct")
    span("stages.audit")

    span("numbering.measure", "numbering.measure_calls")
    span("numbering.lowness")
    span("numbering.snr")

    for kind in KINDS:
        spec[f"certs.{kind}.count"] = ("count", lambda a, k=kind: a.stat(f"certs.{k}", 0))
        spec[f"certs.{kind}.busy_s"] = ("s", lambda a, k=kind: a.stat(f"certs.{k}", 1))
    spec["certs.replayers_self_s"] = ("s", lambda a: sum(
        a.stat(f"certs.{k}", 2) for k in KINDS))
    spec["certs.verdict_p50_ms"] = ("ms", lambda a: a.percentile_ms(0.5))
    spec["certs.verdict_p99_ms"] = ("ms", lambda a: a.percentile_ms(0.99))

    for command in inputs.CLI_COMMANDS:
        for phase in ("emit", "replay"):
            name = f"cli.{command}.{phase}_s"
            spec[name] = ("s", lambda a, n=name: a.cli.get(n, 0.0))
    return spec


PER_LAYER = _layer_spec()


# ---------------------------------------------------------------------------
# Iterations.  Each returns its end-to-end samples (untraced) or its Layers
# and tracing overhead (traced), and adds its operations to `ops`.

class Bench:
    def __init__(self, args) -> None:
        self.workload, self.seed, self.size = args.workload, args.seed, args.size
        self.traced = args.trace == 1
        self.ops = Ops()
        self.digest = Digest(self.workload, self.seed, self.size)

    def _emit(self, i: int, role: str, spans: bool) -> tuple[Child, dict | None, Path]:
        trace, report = SCRATCH / f"{i}.{role}.jsonl", SCRATCH / f"{i}.{role}.json"
        argv = [PY, WORKER, "emit", "--workload", self.workload, "--seed", str(self.seed),
                "--size", self.size, "--out", str(trace), "--report", str(report),
                "--run-id", f"{self.workload}-{self.seed}-{i}-{role}"]
        if spans:
            argv += ["--spans", str(SPANS / f"{role}.jsonl")]
        child = run_child(argv, f"{i}.{role}")
        rep = load_report(child, report, self.ops, f"{role} emit")
        if rep is not None:
            self.ops.add(rep["certs"] + rep["checks"], len(rep["failures"]),
                         "; ".join(rep["failures"][:5]))
        return child, rep, trace

    def _cli_worker(self, i: int, role: str, argv: list[str],
                    spans: bool) -> tuple[Child, dict | None]:
        """`dnrlab.cli.main(argv)` in a fresh worker, timed from inside it."""
        report = SCRATCH / f"{i}.{role}.json"
        traced = ["--spans", str(SPANS / f"{role}.jsonl")] if spans else []
        child = run_child([PY, WORKER, "cli", "--report", str(report), *traced,
                           "--run-id", f"{self.workload}-{self.seed}-{i}-{role}",
                           "--", *argv], f"{i}.{role}")
        return child, load_report(child, report, self.ops, f"{role} worker")

    def library(self, i: int):
        if not self.traced:
            emit, rep, trace = self._emit(i, "emit", spans=False)
            if rep is None:
                return None
            replay, replayed = self._cli_worker(
                i, "replay", ["--command", "replay", "--in", str(trace)], spans=False)
            if replayed is None:
                return None
            replay_verdicts(replay, rep["certs"], self.ops, "replay")
            self.digest.check(rep["sha256"], self.ops)
            setup_s, setup_wall_s = setup_seconds(emit, rep)
            return {"setup_s": setup_s, "setup_wall_s": setup_wall_s,
                    "emit_norm": rep["emit_s"] / rep["ref_s"],
                    "replay_norm": replayed["main_s"] / replayed["ref_s"],
                    "peak_rss_mb": max(emit.rss_mb, replay.rss_mb),
                    "emit_s": rep["emit_s"], "replay_s": replayed["main_s"]}

        _, plain, _ = self._emit(i, "emit", spans=False)
        _, rep, trace = self._emit(i, "emit-traced", spans=True)
        if plain is None or rep is None:
            return None
        self.ops.check(plain["sha256"] == rep["sha256"],
                       "traced trace differs from the untraced trace")
        self.digest.check(plain["sha256"], self.ops)
        replay, replay_rep = self._cli_worker(
            i, "replay-traced", ["--command", "replay", "--in", str(trace)], spans=True)
        replay_verdicts(replay, rep["certs"], self.ops, "traced replay")
        layers = Layers()
        layers.merge(rep["trace"])
        if replay_rep is not None:
            layers.merge(replay_rep["trace"])
        return layers, rep["emit_s"] / plain["emit_s"]

    def setup(self, tag: str) -> tuple[Child, dict | None]:
        """A process that only imports dnrlab and makes the inputs."""
        report = SCRATCH / f"{tag}.json"
        child = run_child([PY, WORKER, "setup", "--workload", self.workload,
                           "--seed", str(self.seed), "--size", self.size,
                           "--report", str(report)], tag)
        return child, load_report(child, report, self.ops, "setup")

    def setup_samples(self, count: int, tag: str) -> list[tuple[float, float]]:
        samples = []
        for k in range(count):
            child, report = self.setup(f"{tag}-{k}")
            if report is not None:
                samples.append(setup_seconds(child, report))
        return samples

    def cli(self, i: int):
        setup, plan = self.setup(f"{i}.setup")
        if plan is None:
            return None
        self.ops.check(not plan["missing"], f"commands gone from the CLI: {plan['missing']}")
        layers = Layers()
        emit_s = replay_s = traced_emit_s = emit_norm = replay_norm = 0.0
        rss = setup.rss_mb
        digest = hashlib.sha256()
        for job in plan["jobs"]:
            command = job["command"]
            if command in plan["missing"]:
                continue
            a, b = SCRATCH / f"{i}.{command}.a.jsonl", SCRATCH / f"{i}.{command}.b.jsonl"
            refs = [clock.reference_s() for _ in range(clock.PASSES)]
            first = run_child([PY, "-m", "dnrlab.cli", *job["argv"], "--out", str(a)],
                              f"{i}.{command}.a")
            self.ops.check(first.exit == 0, f"{command} exited {first.exit}")
            if self.traced:
                second, rep = self._cli_worker(i, f"{command}-traced",
                                               [*job["argv"], "--out", str(b)], spans=True)
                if rep is not None:
                    layers.merge(rep["trace"])
                traced_emit_s += second.wall
            else:
                second = run_child([PY, "-m", "dnrlab.cli", *job["argv"], "--out", str(b)],
                                   f"{i}.{command}.b")
                self.ops.check(second.exit == 0, f"{command} exited {second.exit}")
            data, certs = read_certs(a)
            self.ops.check(bool(data) and data == read_certs(b)[0],
                           f"{command}: the two emitted traces differ")
            self.ops.add(len(certs))
            problem = inputs.size_problem(certs, job["expect"])
            self.ops.check(problem is None, f"{command}: {problem}")
            digest.update(data)
            replay = run_child([PY, "-m", "dnrlab.cli", "--command", "replay", "--in", str(a)],
                               f"{i}.{command}.replay")
            replay_verdicts(replay, len(certs), self.ops, f"{command} replay")
            if self.traced:
                traced, rep = self._cli_worker(i, f"{command}-replay-traced",
                                               ["--command", "replay", "--in", str(b)],
                                               spans=True)
                replay_verdicts(traced, len(certs), self.ops, f"{command} traced replay")
                if rep is not None:
                    layers.merge(rep["trace"])
            refs += [clock.reference_s() for _ in range(clock.PASSES)]
            ref = statistics.median(refs)
            layers.cli[f"cli.{command}.emit_s"] = first.wall
            layers.cli[f"cli.{command}.replay_s"] = replay.wall
            emit_s += first.wall + second.wall
            replay_s += replay.wall
            emit_norm += (first.wall + second.wall) / ref
            replay_norm += replay.wall / ref
            rss = max(rss, first.rss_mb, second.rss_mb, replay.rss_mb)
        self.digest.check(digest.hexdigest(), self.ops)
        if self.traced:
            plain_s = sum(v for k, v in layers.cli.items() if k.endswith(".emit_s"))
            return layers, traced_emit_s / plain_s
        setup_s, setup_wall_s = setup_seconds(setup, plan)
        return {"setup_s": setup_s, "setup_wall_s": setup_wall_s, "emit_norm": emit_norm,
                "replay_norm": replay_norm, "peak_rss_mb": rss,
                "emit_s": emit_s, "replay_s": replay_s}

    def iteration(self, i: int):
        return self.cli(i) if self.workload == "cli-commands" else self.library(i)


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=inputs.SIZES, default="full",
                        help="tiny shrinks every workload (for the benchmark's tests)")
    args = parser.parse_args()
    if not (SRC / "dnrlab" / "__init__.py").is_file():
        print(f"no dnrlab sources under {SRC}", file=sys.stderr)
        return 2

    shutil.rmtree(WORK, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    SPANS.mkdir()
    bench = Bench(args)
    deadline = time.monotonic() + args.seconds
    setups = [] if bench.traced else bench.setup_samples(SETUP_REPEATS, "setup")
    results = []
    while True:
        started = time.monotonic()
        if not bench.traced:
            setups += bench.setup_samples(1, f"{len(results)}.setup-extra")
        result = bench.iteration(len(results))
        if result is not None:
            results.append(result)
        took = time.monotonic() - started
        if result is None or time.monotonic() + took > deadline:
            break
    shutil.rmtree(SCRATCH, ignore_errors=True)

    ops = bench.ops
    info: dict = {}
    metrics = {}
    if results and not bench.traced:
        samples = {name: [r[name] for r in results] for name in {**END_TO_END, **WALL_TIMES}}
        samples["setup_s"] += [scaled for scaled, _ in setups]
        samples["setup_wall_s"] += [raw for _, raw in setups]
        info["samples"] = samples
        info["wall_times"] = {name: {"value": statistics.median(samples[name]), "unit": unit}
                              for name, unit in WALL_TIMES.items()}
        metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
    elif results:
        overheads = [overhead for _, overhead in results]
        info["trace_overhead_ratio"] = {"value": statistics.median(overheads),
                                        "base": "traced emit_s / untraced emit_s",
                                        "samples": overheads}
        info["spans"] = {"dir": str(SPANS.relative_to(ROOT)),
                         "last_iteration": results[-1][0].spans}
        per_iteration = [{name: read(layers) for name, (_, read) in PER_LAYER.items()}
                         for layers, _ in results]
        for name, (unit, _) in PER_LAYER.items():
            values = [v[name] for v in per_iteration]
            if unit == "count":
                ops.check(len(set(values)) == 1, f"{name} differs between iterations: {values}")
                value = values[0]
            else:
                value = statistics.median(values)
            metrics[name] = {"value": value, "unit": unit}
    else:
        ops.check(False, "no iteration completed")
    info = {"workload": args.workload, "seed": args.seed, "size": args.size,
            "trace": args.trace, "iterations": len(results), "src_lines": src_lines(),
            "error_rate": {"value": ops.failed / max(ops.attempted, 1), "unit": "ratio",
                           "base": "ops", "ops": ops.attempted},
            "trace_sha256": bench.digest.first, **info, "failures": ops.failures[:20]}
    for why in ops.failures[:20]:
        print(f"FAILED: {why}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps({"correct": ops.failed == 0, "attempted": max(ops.attempted, 1),
                      "failed": ops.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
