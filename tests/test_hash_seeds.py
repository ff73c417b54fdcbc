"""Every default command writes the same bytes whatever the hash seed.

Each non-replay command runs at its default configuration in this process,
and again as a subprocess under PYTHONHASHSEED 1 and 4242; so does the
replay of each trace.  A set of strings iterated into a trace, or a verdict
that follows hash order, would show as a difference in the trace bytes,
stdout, stderr or exit code.  The two hash seeds run side by side.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dnrlab
from dnrlab.cli import COMMANDS, EXIT_OK, main

SRC = Path(dnrlab.__file__).resolve().parents[1]
HASH_SEEDS = ("1", "4242")


def _in_process(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _under_each_hash_seed(args_by_seed):
    """(exit code, stdout, stderr) of `python -m dnrlab.cli` per hash seed, run side by side."""
    procs = {seed: subprocess.Popen(
        [sys.executable, "-m", "dnrlab.cli", *args],
        env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": seed},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for seed, args in args_by_seed.items()}
    results = {}
    for seed, proc in procs.items():
        out, err = proc.communicate(timeout=120)
        results[seed] = proc.returncode, out, err
    return results


@pytest.mark.parametrize("command", sorted(c for c in COMMANDS if c != "replay"))
def test_default_command_and_its_replay_ignore_the_hash_seed(command, tmp_path, capsys):
    trace = tmp_path / "in-process.jsonl"
    emitted = _in_process(["--command", command, "--out", str(trace)], capsys)
    replayed = _in_process(["--command", "replay", "--in", str(trace)], capsys)
    assert emitted[0] == replayed[0] == EXIT_OK
    outs = {seed: tmp_path / f"hash-seed-{seed}.jsonl" for seed in HASH_SEEDS}
    got = _under_each_hash_seed(
        {seed: ["--command", command, "--out", str(out)] for seed, out in outs.items()})
    for seed, out in outs.items():
        assert got[seed] == emitted, seed
        assert out.read_bytes() == trace.read_bytes(), seed
    got = _under_each_hash_seed(
        {seed: ["--command", "replay", "--in", str(out)] for seed, out in outs.items()})
    for seed in HASH_SEEDS:
        assert got[seed] == replayed, seed
