"""Tests of the benchmark itself: tiny runs of every workload, the printed
metrics against BENCHMARK.json, tracer removal and seed handling.

    PYTHONPATH=src python3 -m pytest bench -q

The tiny runs share the benchmark's work directory, so do not run these
tests while a benchmark run is in progress.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
_RUNS: dict = {}


def tiny_run(workload: str, seed: int = 1, trace: int = 0) -> tuple[dict, dict]:
    """(informational line, result line) of a one-second tiny run, cached."""
    key = (workload, seed, trace)
    if key not in _RUNS:
        out = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
            capture_output=True, text=True, timeout=170, cwd=ROOT)
        assert out.returncode == 0, out.stderr
        info, result = out.stdout.splitlines()[-2:]
        _RUNS[key] = json.loads(info), json.loads(result)
    return _RUNS[key]


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_tiny_run_has_no_errors(workload):
    info, result = tiny_run(workload)
    assert result["correct"], info["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert info["error_rate"]["value"] == 0


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_printed_metrics_match_benchmark_json(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = tiny_run(workload, trace=trace)[1]
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in SPEC[key]}
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_traced_runs_exercise_the_layers_they_claim():
    metrics = {w: {k: m["value"] for k, m in tiny_run(w, trace=1)[1]["metrics"].items()}
               for w in ("bushy-lemmas", "immunity-audits", "forcing-density")}
    bushy, immunity, density = (metrics["bushy-lemmas"], metrics["immunity-audits"],
                                metrics["forcing-density"])
    assert bushy["bushy.beta_calls"] > 0 and bushy["bushy.children_of_calls"] > 0
    assert bushy["machine.eval_calls"] == 0
    assert immunity["machine.eval_calls"] > 0 and immunity["machine.window_calls"] > 0
    assert immunity["bushy.beta_calls"] == 0
    assert density["forcing.output_calls"] > 0


def test_tracer_removes_every_wrapper():
    import dnrlab.bushy
    import dnrlab.certs
    import dnrlab.cli  # noqa: F401
    import dnrlab.forcing
    from emitters import EMITTERS, Emit
    from tracer import Tracer

    def bindings() -> dict:
        found = {(name, attr): value for name, module in sys.modules.items()
                 if name == "dnrlab" or name.startswith("dnrlab.")
                 for attr, value in vars(module).items()}
        for cls in (dnrlab.bushy.TreeWitness, dnrlab.forcing.FiniteFunctional):
            found.update({(cls.__name__, attr): v for attr, v in vars(cls).items()})
        found.update({("REPLAYERS", k): v for k, v in dnrlab.certs.REPLAYERS.items()})
        return found

    before = bindings()
    original = dnrlab.bushy.bushiness_numbers
    tracer = Tracer("test")
    tracer.install()
    try:
        assert dnrlab.forcing.bushiness_numbers is not original  # a copied name
        em = Emit()
        EMITTERS["bushy-lemmas"](em, inputs.make_inputs("bushy-lemmas", 1, "tiny"))
        assert em.failures == []
    finally:
        tracer.remove()
    assert dnrlab.bushy.bushiness_numbers is original
    assert dnrlab.forcing.bushiness_numbers is original
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    # the spans reached the copied names and the class methods too
    assert tracer.stats["bushy.beta"][0] > 0 and tracer.stats["bushy.children_of"][0] > 0
    parents = set(tracer.span_parent)
    assert -1 in parents and len(parents) > 1


def test_seed_changes_inputs_but_not_metric_names():
    for workload in inputs.WORKLOADS:
        assert inputs.make_inputs(workload, 1, "full") == inputs.make_inputs(workload, 1, "full")
        assert inputs.make_inputs(workload, 1, "full") != inputs.make_inputs(workload, 2, "full")
        assert tiny_run(workload, seed=1)[1]["metrics"].keys() \
            == tiny_run(workload, seed=2)[1]["metrics"].keys()


def test_size_guard_catches_a_job_run_at_the_default_size():
    expect = inputs.cli_expectation("dnr-audit", {"audit": 500, "eval": 10_000})
    certs = [{"kind": "diagonal_diverges", "budget": 10_000}] * 701
    assert inputs.size_problem(certs, expect)
    assert inputs.size_problem(certs[:501], expect) is None
    assert inputs.size_problem(certs[:501] + [{"kind": "sweep_summary"}], expect)


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "bushy-lemmas",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
