"""Certificate replay registry and the command-line front door."""

import contextlib
import copy
import functools
import inspect
import io
import json
import re
import sys
import time
from datetime import timedelta
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dnrlab import bushy, certs, cli
from dnrlab.asm import DIVERGE_INDEX, IDENTITY_INDEX, ZERO_INDEX, assemble_index, \
    const_index
from dnrlab.bushy import OrderFunction, closure, level_nodes, region_nodes, \
    union_smallness_sweep, witness_tree
from dnrlab.certs import _FIELDS, REPLAYERS, decode_field, replay_certificate
from dnrlab.cli import EXIT_BUDGET, EXIT_COUNTEREXAMPLE, EXIT_INPUT, EXIT_OK, \
    TRACE_SCHEMA, InputError, main, parse_args
from dnrlab.dyadic import DyadicRational
from dnrlab.errors import MalformedCertificate, ReplayMismatch
from dnrlab.forcing import FiniteFunctional, ForcingCondition, SearchLimits, \
    density_search
from dnrlab.machine import self_reference
from dnrlab.oracle import PeriodicOracle, oracle_from_spec
from dnrlab.reductions import blocking_prefix, diagonal_set_index, \
    dnr_reduction_audit, first_slice_index
from dnrlab.stages import ei_not_coei

EVENS = PeriodicOracle((1, 0))
# well-shaped oracle specs whose bits are not 0/1, or whose pattern is empty
BAD_BIT_ORACLES = [
    {"kind": "prefix", "bits": [1, 2]},
    {"kind": "prefix", "bits": [1], "tail": 2},
    {"kind": "periodic", "pattern": []},
    {"kind": "periodic", "pattern": [0, 2]},
    {"kind": "patched", "base": {"kind": "periodic", "pattern": [1, 0]}, "patches": [[0, 2]]},
]
BAD_BIT_ERROR = r"bits must be 0 or 1|must be nonempty 0/1"
G8 = OrderFunction.constant(8)
EMPTY_COND = ForcingCondition((), frozenset(), G8)


@pytest.fixture(scope="module")
def audit_certs():
    return dnr_reduction_audit(EVENS, ZERO_INDEX, 600, 10_000)


@pytest.fixture(scope="module")
def diagonal_cert():
    verdict = density_search(FiniteFunctional.constant(3, (0, 0, 0)),
                             const_index(0), EMPTY_COND, SearchLimits())
    return verdict.certificate


@pytest.fixture(scope="module")
def non_total_cert():
    verdict = density_search(FiniteFunctional(3, ()), const_index(0),
                             EMPTY_COND, SearchLimits())
    return verdict.certificate


class TestReplayRegistry:
    def test_audit_certs_all_replay(self, audit_certs):
        kinds = {c["kind"] for c in audit_certs}
        assert {"diagonal_diverges", "dnr_value", "ebi_violation"} <= kinds
        for cert in audit_certs:
            assert replay_certificate(cert) == cert["kind"]

    def test_forcing_certs_replay(self, diagonal_cert, non_total_cert):
        assert replay_certificate(diagonal_cert) == "diagonal_extension"
        assert replay_certificate(non_total_cert) == "non_total_extension"

    def test_blocking_certs_replay(self):
        e = diagonal_set_index(const_index(5))
        _, cert = blocking_prefix((1, 0, 1), e, ZERO_INDEX, 1_000)
        assert replay_certificate(cert) == "blocking_finite"

    def test_tampered_members_rejected(self, audit_certs):
        cert = copy.deepcopy(next(c for c in audit_certs
                                  if c["kind"] == "ebi_violation"))
        cert["members"][0] += 1
        with pytest.raises(ReplayMismatch, match="decoded diagonal"):
            replay_certificate(cert)

    def test_tampered_candidate_rejected(self, audit_certs):
        cert = copy.deepcopy(next(c for c in audit_certs
                                  if c["kind"] == "dnr_value"))
        cert["candidate"] = cert["value"]
        with pytest.raises(ReplayMismatch):
            replay_certificate(cert)

    def test_tampered_q_values_rejected(self, diagonal_cert):
        cert = copy.deepcopy(diagonal_cert)
        cert["q_values"] = [v + 1 for v in cert["q_values"]]
        with pytest.raises(ReplayMismatch):
            replay_certificate(cert)

    def test_tampered_tree_rejected(self, diagonal_cert):
        cert = copy.deepcopy(diagonal_cert)
        cert["tree"]["nodes"] = cert["tree"]["nodes"][:-1]
        with pytest.raises(ReplayMismatch):
            replay_certificate(cert)

    def test_tampered_minimal_set_rejected(self, non_total_cert):
        cert = copy.deepcopy(non_total_cert)
        cert["c_m_minimal"] = [[0]]
        with pytest.raises(ReplayMismatch):
            replay_certificate(cert)

    def test_still_true_variant_accepted(self, non_total_cert):
        # replay checks claims, not provenance: over the empty table every
        # position is undecided, so a shifted m is still a true certificate
        cert = copy.deepcopy(non_total_cert)
        cert["m"] += 1
        assert replay_certificate(cert) == "non_total_extension"

    def test_missing_field_is_malformed(self, audit_certs):
        cert = dict(audit_certs[0])
        del cert["budget"]
        with pytest.raises(MalformedCertificate, match="lacks fields"):
            replay_certificate(cert)

    def test_unknown_kind_is_malformed(self):
        with pytest.raises(MalformedCertificate, match="unknown certificate kind"):
            replay_certificate({"kind": "wishful_thinking"})

    def test_non_object_is_malformed(self):
        with pytest.raises(MalformedCertificate):
            replay_certificate([1, 2, 3])

    def test_kindless_is_malformed(self):
        with pytest.raises(MalformedCertificate, match="kind"):
            replay_certificate({"e": 5})

    def test_garbage_field_content_is_malformed(self, audit_certs):
        cert = dict(audit_certs[0])
        cert["e"] = "five"
        with pytest.raises(MalformedCertificate):
            replay_certificate(cert)

    def test_registry_covers_emitted_kinds(self):
        emitted = {
            "non_total_extension", "diagonal_extension", "ebi_violation",
            "dnr_value", "diagonal_diverges", "f_unconverged",
            "blocking_finite", "blocking_infinite", "interval_slice",
            "stage_summary", "snr_slice",
            "cylinder_measure", "lowness_bound", "bushiness_verdict",
            "closure_result", "pigeonhole_witness", "fusion_intersection",
            "union_counterexample", "sweep_summary",
        }
        assert emitted <= set(REPLAYERS)


class TestParseArgs:
    def test_budget_flags_collected(self):
        config = parse_args(["--command", "closure", "--budget.eval=500",
                             "--budget.audit=7"])
        assert config.budgets == (("audit", 7), ("eval", 500))

    def test_budget_flags_sorted_for_determinism(self):
        a = parse_args(["--command", "closure", "--budget.b=2", "--budget.a=1"])
        b = parse_args(["--command", "closure", "--budget.a=1", "--budget.b=2"])
        assert a == b

    def test_bad_budget_value(self):
        with pytest.raises(InputError, match="integer"):
            parse_args(["--command", "closure", "--budget.eval=lots"])

    def test_negative_budget(self):
        with pytest.raises(InputError, match="nonnegative"):
            parse_args(["--command", "closure", "--budget.eval=-3"])

    # int() reads all of these; a budget or a seed is ASCII digits only
    COERCED = ["\u0665", "1_0", "+5", " 5"]

    @pytest.mark.parametrize("value", COERCED)
    def test_coerced_budget_refused(self, value, capsys):
        assert main(["--command", "dnr-audit", f"--budget.audit={value}"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": f"budget 'audit' must be an integer, got {value!r}"}

    @pytest.mark.parametrize("value", COERCED)
    def test_coerced_seed_refused(self, value, capsys):
        assert main(["--command", "fusion-check", "--seed", value]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": f"seed must be an integer, got {value!r}"}

    def test_seed_may_be_negative(self):
        assert parse_args(["--command", "fusion-check", "--seed", "-7"]).seed == -7
        assert parse_args(["--command", "fusion-check"]).seed == 0

    def test_malformed_budget_flag(self):
        with pytest.raises(InputError, match="--budget.name=N"):
            parse_args(["--command", "closure", "--budget.eval"])

    def test_unknown_command(self):
        with pytest.raises(InputError):
            parse_args(["--command", "frobnicate"])

    def test_g_spec_carried(self):
        config = parse_args(["--command", "closure", "--g", "4,4;tail=4,2"])
        assert config.g_spec == "4,4;tail=4,2"


ALL_COMMANDS = ["bushy-check", "closure", "lemma-sweep", "fusion-check",
                "density-search", "dnr-audit", "ei-construct",
                "schnorr-measure", "lowness-check", "snr-demo",
                "blocking-prefix"]

# keep the audit small in tests; acceptance runs the full range
FAST_FLAGS = {
    "dnr-audit": ["--budget.audit=60", "--budget.eval=4000"],
    "ei-construct": ["--budget.stages=60", "--budget.eval=20000"],
    "snr-demo": ["--budget.audit=4"],
    "fusion-check": ["--budget.instances=4"],
}


def _documented(intro: str) -> dict[str, str]:
    """The list after `intro` in docs/formats.md: each command named in an
    item's backticks, mapped to the rest of the item.  Every line is one
    item, and no command is named twice, so no entry can hide in a wrapped
    line or behind a later one."""
    text = (Path(__file__).resolve().parent.parent / "docs" / "formats.md").read_text()
    listing = text.split(intro)[1].lstrip().split("\n\n")[0]
    documented = {}
    for line in listing.splitlines():
        assert line.startswith("- `"), line
        commands, _, rest = line.removeprefix("- ").partition(": ")
        for command in re.findall(r"`([a-z-]+)`", commands):
            assert command not in documented, command
            documented[command] = rest
    return documented


def run_cli(args, tmp_path, name="trace.jsonl"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out


class TestCliCommands:
    @pytest.mark.parametrize("command", ALL_COMMANDS)
    def test_runs_and_trace_replays(self, command, tmp_path):
        args = ["--command", command] + FAST_FLAGS.get(command, [])
        code, out = run_cli(args, tmp_path)
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["schema"] == TRACE_SCHEMA
        assert header["command"] == command
        for line in lines[1:]:
            assert "kind" in json.loads(line)
        assert main(["--command", "replay", "--in", str(out)]) == EXIT_OK

    @pytest.mark.parametrize("command", ["lemma-sweep", "fusion-check",
                                         "schnorr-measure", "blocking-prefix"])
    def test_byte_identical_reruns(self, command, tmp_path):
        args = ["--command", command] + FAST_FLAGS.get(command, [])
        _, first = run_cli(args, tmp_path, "a.jsonl")
        _, second = run_cli(args, tmp_path, "b.jsonl")
        assert first.read_bytes() == second.read_bytes()

    def test_seed_changes_fusion_trace(self, tmp_path):
        base = ["--command", "fusion-check", "--budget.instances=4"]
        _, a = run_cli(base + ["--seed", "1"], tmp_path, "a.jsonl")
        _, b = run_cli(base + ["--seed", "2"], tmp_path, "b.jsonl")
        assert a.read_bytes() != b.read_bytes()

    def test_stdout_trace_when_no_out(self, capsys):
        assert main(["--command", "closure"]) == EXIT_OK
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert json.loads(lines[0])["schema"] == TRACE_SCHEMA
        assert "closure" in captured.err

    def test_input_file_drives_bushy_check(self, tmp_path):
        spec = {"set": [[0], [1]], "n": 2, "depth": 1}
        path = tmp_path / "in.json"
        path.write_text(json.dumps(spec))
        code, out = run_cli(["--command", "bushy-check", "--in", str(path)],
                            tmp_path)
        assert code == EXIT_OK
        cert = json.loads(out.read_text().splitlines()[1])
        assert cert["big"] is True
        assert cert["n"] == 2

    def test_members_are_big_past_the_member_cap(self, tmp_path, capsys):
        # a member is n-big for every n, 2^31 > BIG_CAP included
        certs = {}
        for command, spec in (("bushy-check", {"set": [[]], "n": 2**31, "depth": 1}),
                              ("closure", {"set": [[0]], "n": 2**31, "depth": 1})):
            path = tmp_path / "in.json"
            path.write_text(json.dumps(spec))
            code, out = run_cli(["--command", command, "--in", str(path)], tmp_path, f"{command}.jsonl")
            assert code == EXIT_OK
            assert main(["--command", "replay", "--in", str(out)]) == EXIT_OK
            certs[command] = json.loads(out.read_text().splitlines()[1])
        assert certs["bushy-check"]["big"] is True
        assert certs["closure"]["closure"] == [[0]]
        assert _replay_one(dict(certs["bushy-check"], big=False), tmp_path) == EXIT_COUNTEREXAMPLE
        assert _replay_one(dict(certs["closure"], closure=[]), tmp_path) == EXIT_COUNTEREXAMPLE

    def test_schnorr_measure_stops_at_the_end_of_its_table(self, tmp_path):
        # every D_e past the table is empty, so no e there can qualify
        _, default = run_cli(["--command", "schnorr-measure"], tmp_path, "a.jsonl")
        start = time.perf_counter()
        code, far = run_cli(["--command", "schnorr-measure", "--budget.e_max=1000000000000"],
                            tmp_path, "b.jsonl")
        assert time.perf_counter() - start < 1
        assert code == EXIT_OK
        assert far.read_text().splitlines()[1] == default.read_text().splitlines()[1]

    def test_schnorr_measure_reports_a_broken_tail_bound(self, tmp_path, monkeypatch, capsys):
        # only a broken measure proof exceeds 2^-c: patch the measure the command reads
        monkeypatch.setattr(cli, "union_cylinder_measure", lambda sets: DyadicRational(1))
        code, out = run_cli(["--command", "schnorr-measure"], tmp_path)
        assert code == EXIT_COUNTEREXAMPLE
        captured = capsys.readouterr()
        assert captured.out.splitlines() == ["tail bound violated: union measure 1 > 2^-2"]
        assert captured.err == ""
        header, line = out.read_text().splitlines()
        assert json.loads(line)["kind"] == "cylinder_measure"
        monkeypatch.undo()
        # the certificate records the broken measure; its replay re-derives 39/2^11
        assert main(["--command", "replay", "--in", str(out)]) == EXIT_COUNTEREXAMPLE
        assert capsys.readouterr().out.splitlines()[-1] == (
            "  MISMATCH line 2: cylinder_measure: measure is now 39/2^11, recorded 1")

    def test_malformed_input_file(self, tmp_path):
        path = tmp_path / "in.json"
        path.write_text("{not json")
        code = main(["--command", "bushy-check", "--in", str(path)])
        assert code == EXIT_INPUT

    def test_input_error_diagnostic_is_json(self, capsys):
        code = main(["--command", "replay"])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err.strip()
        assert "error" in json.loads(err)

    def test_budget_exhaustion_exit(self, tmp_path):
        spec = {"f": DIVERGE_INDEX}
        path = tmp_path / "in.json"
        path.write_text(json.dumps(spec))
        code = main(["--command", "lowness-check", "--in", str(path),
                     "--budget.eval=50"])
        assert code == EXIT_BUDGET

    def test_q_applies_to_the_stock_battery(self, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"q": const_index(1)}))
        code, out = run_cli(["--command", "density-search", "--in", str(path)], tmp_path)
        # the parity table finds zero capacity below this q's bound
        assert code == EXIT_BUDGET
        assert "parity" in json.loads(capsys.readouterr().err)["error"]
        certs = [json.loads(line) for line in out.read_text().splitlines()[1:]]
        assert [cert["kind"] for cert in certs] == ["non_total_extension", "diagonal_extension"]
        assert certs[1]["q"] == const_index(1)
        assert main(["--command", "replay", "--in", str(out)]) == EXIT_OK

    def test_failing_lowness_certificate_replays(self, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"h": const_index(5)}))
        code, out = run_cli(["--command", "lowness-check", "--in", str(path)], tmp_path)
        assert code == EXIT_COUNTEREXAMPLE
        assert capsys.readouterr().out.splitlines() == ["bound fails first at e = 1"]
        assert main(["--command", "replay", "--in", str(out)]) == EXIT_OK
        assert "1 certificates verified, 0 mismatches" in capsys.readouterr().out
        header, line = out.read_text().splitlines()
        cert = json.loads(line)
        assert cert["verdict"]["first_violation"] == 1
        cert["verdict"]["first_violation"] = 2
        out.write_text(header + "\n" + json.dumps(cert) + "\n")
        assert main(["--command", "replay", "--in", str(out)]) == EXIT_COUNTEREXAMPLE
        assert "MISMATCH line 2: lowness_bound" in capsys.readouterr().out

    def test_blocking_precondition_exit(self, tmp_path):
        # members of the enumerated set land on zeros of this prefix
        e = diagonal_set_index(const_index(5))
        spec = {"e": e, "f": ZERO_INDEX, "prefix": [0, 0, 0]}
        path = tmp_path / "in.json"
        path.write_text(json.dumps(spec))
        code = main(["--command", "blocking-prefix", "--in", str(path),
                     "--budget.eval=1000"])
        assert code == EXIT_INPUT


class TestReplayCommand:
    @pytest.fixture()
    def audit_trace(self, tmp_path):
        _, out = run_cli(["--command", "dnr-audit", "--budget.audit=600",
                          "--budget.eval=10000"], tmp_path)
        return out

    def test_tampered_witness_detected(self, audit_trace, tmp_path, capsys):
        lines = audit_trace.read_text().splitlines()
        for i, line in enumerate(lines):
            if '"ebi_violation"' in line:
                cert = json.loads(line)
                cert["members"][0] += 1
                lines[i] = json.dumps(cert, sort_keys=True,
                                      separators=(",", ":"))
                break
        else:
            pytest.fail("no violation certificate in the audit trace")
        bad = tmp_path / "tampered.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        code = main(["--command", "replay", "--in", str(bad)])
        assert code == EXIT_COUNTEREXAMPLE
        assert "MISMATCH" in capsys.readouterr().out

    def test_replay_idempotent(self, audit_trace):
        assert main(["--command", "replay", "--in", str(audit_trace)]) == EXIT_OK
        assert main(["--command", "replay", "--in", str(audit_trace)]) == EXIT_OK

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"kind":"diagonal_diverges","e":4,"budget":10}\n')
        assert main(["--command", "replay", "--in", str(path)]) == EXIT_INPUT

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        header = json.dumps({"schema": TRACE_SCHEMA})
        path.write_text(header + '\n{"kind":"mystery"}\n')
        assert main(["--command", "replay", "--in", str(path)]) == EXIT_INPUT

    def test_missing_file_rejected(self):
        assert main(["--command", "replay", "--in", "/no/such/file"]) == EXIT_INPUT

    def test_line_numbers_count_blank_lines(self, tmp_path, capsys):
        header = json.dumps({"schema": TRACE_SCHEMA})
        path = tmp_path / "trace.jsonl"
        path.write_text(header + '\n\n\n{"kind":"diagonal_diverges","e":0,"budget":"x"}\n')
        assert main(["--command", "replay", "--in", str(path)]) == EXIT_INPUT
        assert json.loads(capsys.readouterr().err)["error"].startswith("line 4: ")
        path.write_text(header + '\n\n{"kind":"diagonal_diverges","e":23,"budget":5}\n')
        assert main(["--command", "replay", "--in", str(path)]) == EXIT_COUNTEREXAMPLE
        assert "  MISMATCH line 3: diagonal_diverges: " in capsys.readouterr().out

    def test_sweep_counterexample_exit(self, tmp_path):
        # a forged counterexample certificate must be refuted, not believed
        header = json.dumps({"schema": TRACE_SCHEMA})
        forged = json.dumps({
            "kind": "union_counterexample", "g": "3", "depth": 1, "stem": [],
            "n": 2, "m": 2, "union": [[0], [1], [2]],
            "part_small_m": [[0], [1]], "part_small_n": [[2]],
        })
        path = tmp_path / "trace.jsonl"
        path.write_text(header + "\n" + forged + "\n")
        assert main(["--command", "replay", "--in", str(path)]) == \
            EXIT_COUNTEREXAMPLE


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="Python 3.10.0 to 3.10.6 convert integers of any width")
class TestWideIntegers:
    """Integers past CPython's default 4300 digits, up to cli.INT_DIGIT_LIMIT."""

    @pytest.fixture(autouse=True)
    def _limit_restored(self):
        before = sys.get_int_max_str_digits()
        yield
        assert sys.get_int_max_str_digits() == before

    @staticmethod
    def _zeros(tmp_path, length: int) -> str:
        """--in for density-search: a constant functional of `length` zero bits,
        whose diagonal indices grow with the square of the length."""
        path = tmp_path / f"zeros{length}.json"
        path.write_text(json.dumps({"functional": {"depth": 3, "entries": [[[], [0] * length]]}}))
        return str(path)

    def test_wide_diagonal_indices_are_written_and_replayed(self, tmp_path, capsys):
        args = ["--command", "density-search", "--in", self._zeros(tmp_path, 24)]
        code, out = run_cli(args, tmp_path)
        assert code == EXIT_OK
        assert len(re.search(r'"e0":(\d+)', out.read_text()).group(1)) > 4300
        assert main(["--command", "replay", "--in", str(out)]) == EXIT_OK

    def test_writing_past_the_ceiling_exits_2_with_one_json_line(self, tmp_path, capsys):
        args = ["--command", "density-search", "--in", self._zeros(tmp_path, 128)]
        assert main(args) == EXIT_BUDGET
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        assert f"more than {cli.INT_DIGIT_LIMIT} digits" in json.loads(line)["error"]

    @pytest.mark.parametrize("line", [1, 2])
    def test_reading_a_trace_past_the_ceiling_names_the_line(self, line, tmp_path, capsys):
        wide = "7" * (cli.INT_DIGIT_LIMIT + 1)
        lines = [json.dumps({"schema": TRACE_SCHEMA}),
                 '{"kind":"diagonal_diverges","e":0,"budget":5}']
        lines[line - 1] = lines[line - 1][:-1] + f',"seed":{wide}}}'
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(lines) + "\n")
        assert main(["--command", "replay", "--in", str(path)]) == EXIT_INPUT
        (err,) = capsys.readouterr().err.splitlines()
        where = "trace header" if line == 1 else f"line {line}"
        assert json.loads(err)["error"].startswith(f"{where} is not valid JSON: ")

    def test_reading_an_input_file_past_the_ceiling_exits_1(self, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text('{"e":' + "7" * (cli.INT_DIGIT_LIMIT + 1) + "}")
        assert main(["--command", "blocking-prefix", "--in", str(path)]) == EXIT_INPUT
        (err,) = capsys.readouterr().err.splitlines()
        assert json.loads(err)["error"].startswith("input file is not valid JSON: ")


class TestBlockingReplay:
    """The blocking replayers read W_e only as far as each answer needs, and
    still refute every certificate whose claim is false."""

    EVENS_INDEX = cli.COMMANDS["blocking-prefix"].fields["e"]
    FINITE_INDEX = diagonal_set_index(const_index(5))  # W = {0, 2}

    @staticmethod
    def _replay_one(cert, tmp_path, capsys):
        path = tmp_path / "forged.jsonl"
        path.write_text(json.dumps({"schema": TRACE_SCHEMA}) + "\n" + json.dumps(cert) + "\n")
        code = main(["--command", "replay", "--in", str(path)])
        return code, capsys.readouterr().out

    @pytest.fixture()
    def infinite_cert(self, tmp_path):
        code, out = run_cli(["--command", "blocking-prefix", "--budget.eval=2000"], tmp_path)
        assert code == EXIT_OK
        cert = json.loads(out.read_text().splitlines()[1])
        assert cert["kind"] == "blocking_infinite" and cert["order_prefix"] == [0, 2, 4]
        return cert

    def test_untampered_certificate_replays(self, infinite_cert, tmp_path, capsys):
        code, out = self._replay_one(infinite_cert, tmp_path, capsys)
        assert code == EXIT_OK and "0 mismatches" in out

    @pytest.mark.parametrize("tamper, reason", [
        (lambda c: c["order_prefix"].reverse(), "canonical order prefix disagrees"),
        (lambda c: c.update(f_value=c["f_value"] + 1), "is no longer 3"),
    ])
    def test_tampered_infinite_certificate_mismatches(self, infinite_cert, tamper, reason,
                                                      tmp_path, capsys):
        tamper(infinite_cert)
        code, out = self._replay_one(infinite_cert, tmp_path, capsys)
        assert code == EXIT_COUNTEREXAMPLE
        assert "MISMATCH line 2" in out and reason in out

    def test_infinite_certificate_over_a_finite_set_mismatches(self, infinite_cert, tmp_path,
                                                               capsys):
        # the slice index is rebuilt for the new set, so only the growth check fails
        infinite_cert["e"] = self.FINITE_INDEX
        infinite_cert["e_prime"] = first_slice_index(self.FINITE_INDEX, infinite_cert["f"])
        code, out = self._replay_one(infinite_cert, tmp_path, capsys)
        assert code == EXIT_COUNTEREXAMPLE
        assert "the set no longer grows at the checkpoint" in out

    def test_finite_certificate_over_a_growing_set_mismatches(self, tmp_path, capsys):
        _, cert = blocking_prefix((1, 0, 1), self.FINITE_INDEX, ZERO_INDEX, 1_000)
        assert cert["kind"] == "blocking_finite"
        cert["e"] = self.EVENS_INDEX
        code, out = self._replay_one(cert, tmp_path, capsys)
        assert code == EXIT_COUNTEREXAMPLE
        assert "the set still grows at the checkpoint" in out

    def test_work_does_not_grow_with_the_budget_on_a_growing_set(self, tmp_path, capsys):
        # the scan reads a few inputs at any budget; a finite set still runs
        # every input, which only a declared-cost bound can limit
        summaries = []
        for budget in (100_000, 10**9):
            code, out = run_cli(["--command", "blocking-prefix", f"--budget.eval={budget}"],
                                tmp_path, f"b{budget}.jsonl")
            assert code == EXIT_OK
            summaries.append(capsys.readouterr().out)
            assert main(["--command", "replay", "--in", str(out)]) == EXIT_OK
            assert "1 certificates verified, 0 mismatches" in capsys.readouterr().out
        assert summaries[0] == summaries[1]
        assert "sigma = [1, 0, 1, 0, 1], members [0, 2, 4]" in summaries[0]


class TestInputErrors:
    @pytest.mark.parametrize("spec", [{"depth": -3}, {"depth": 2, "set": [[0, 9]]}])
    def test_library_value_error_is_json_input_error(self, spec, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(spec))
        assert main(["--command", "closure", "--in", str(path)]) == EXIT_INPUT
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "error" in json.loads(err[0])

    @staticmethod
    def _break_closure(monkeypatch, fault: Exception) -> None:
        def broken(*args):
            raise fault
        monkeypatch.setitem(cli.COMMANDS, "closure", cli.COMMANDS["closure"]._replace(body=broken))

    def test_assertion_error_is_not_mapped(self, monkeypatch):
        self._break_closure(monkeypatch, AssertionError("internal invariant"))
        with pytest.raises(AssertionError):
            main(["--command", "closure"])

    def test_key_error_is_not_mapped(self, monkeypatch):
        # a lookup that fails inside a command is a fault, not a missing input
        self._break_closure(monkeypatch, KeyError("depth"))
        with pytest.raises(KeyError):
            main(["--command", "closure"])

    @pytest.mark.parametrize("args", [
        ["--command", "dnr-audit", "--g", "5"],
        ["--command", "dnr-audit", "--g", "not a spec"],
        ["--command", "dnr-audit", "--budget.audit=3", "--budget.audit=5"],
        ["--command", "dnr-audit", "--budget.audit=3", "--budget.audit=3"],
        ["--command", "schnorr-measure", "--budget.terms=1"],
        ["--command", "closure", "--g", "not a spec"],
    ])
    def test_unread_bad_or_repeated_flag_exits_1(self, args, capsys):
        assert main(args) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.strip().splitlines()
        assert "error" in json.loads(line)

    @pytest.mark.parametrize("args, message", [
        (["--command", "nope"], "argument --command: invalid choice: 'nope' (choose from "),
        ([], "the following arguments are required: --command"),
        (["--command", "closure", "--bogus"], "unrecognized arguments: --bogus"),
        (["--command", "closure", "--seed"], "argument --seed: expected one argument"),
    ])
    def test_bad_command_line_is_one_json_line(self, args, message, capsys):
        assert main(args) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        assert json.loads(line)["error"].startswith(f"bad command line: {message}")

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: dnrlab")

    def test_replay_refuses_out(self, tmp_path, capsys):
        _, trace = run_cli(["--command", "closure"], tmp_path)
        capsys.readouterr()
        out_path = tmp_path / "replayed.jsonl"
        assert main(["--command", "replay", "--in", str(trace),
                     "--out", str(out_path)]) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == "" and not out_path.exists()
        assert json.loads(err) == {"error": "replay writes no trace, so takes no --out"}

    @pytest.mark.parametrize("spec", ["abc", " 3", "3,", "3;tail=2", "\u0665"])
    def test_bad_order_function_spec_says_what_was_expected(self, spec, capsys):
        expected = 'expected "v0,v1,...[;tail=base,period]" in ASCII digits'
        assert main(["--command", "closure", "--g", spec]) == EXIT_INPUT
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line) == {"error": f"bad order function spec {spec!r}: {expected}"}
        cert = {"kind": "closure_result", "g": spec, "n": 4, "depth": 3,
                "set": [], "closure": []}
        with pytest.raises(MalformedCertificate) as exc:
            replay_certificate(cert)
        assert str(exc.value) == ("closure_result field 'g' must hold an order function spec, "
                                  f"got {spec!r} ({expected})")

    @pytest.mark.parametrize("command", ["bushy-check", "closure", "lemma-sweep",
                                         "density-search"])
    def test_given_g_reaches_the_certificates(self, command):
        certs = _command_certs(command, "--g", "9")
        assert certs and all(cert["g"] == "9" for cert in certs)

    @pytest.mark.parametrize("command", ALL_COMMANDS + ["replay"])
    def test_unknown_budget_name_rejected(self, command, capsys):
        assert main(["--command", command, "--budget.bogus=3"]) == EXIT_INPUT
        err = json.loads(capsys.readouterr().err.strip())
        assert "bogus" in err["error"]

    def test_declared_budget_names_cover_the_documented_ones(self, capsys):
        documented = {command: {name: int(value) for name, value
                                in re.findall(r"`([a-z_]+)` = ([0-9]+)", knobs)}
                      for command, knobs in _documented("Each knob with its default:").items()}
        assert documented == {command: dict(c.budgets) for command, c in cli.COMMANDS.items()}
        g_defaults = {command: spec.strip("`") for command, spec
                      in _documented("defaults to this order function:").items()}
        assert g_defaults == {command: c.g for command, c in cli.COMMANDS.items()
                              if c.g is not None}
        # no command reads a bad-string length: density-search takes its bad set from --in
        assert main(["--command", "density-search", "--budget.bad_len=3"]) == EXIT_INPUT
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert "bad_len" in json.loads(line)["error"]

    def test_declared_input_fields_are_the_documented_ones(self):
        documented = {command: set(re.findall(r"`([a-z_]+)`", fields))
                      for command, fields in _documented("Recognized fields by command:").items()}
        declared = {command: set(c.fields or ()) for command, c in cli.COMMANDS.items()}
        assert declared == documented

    @pytest.mark.parametrize("command", ALL_COMMANDS)
    def test_unknown_input_field_rejected(self, command, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"sett": [[0]], "dpeth": 1}))
        assert main(["--command", command, "--in", str(path)]) == EXIT_INPUT
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert "dpeth" in json.loads(line)["error"]


class TestTypedReplayFields:
    @pytest.mark.parametrize("cert", [
        {"kind": "diagonal_diverges", "e": True, "budget": 10.5},
        {"kind": "diagonal_diverges", "e": 4, "budget": 10.5},
        {"kind": "diagonal_diverges", "e": 4.0, "budget": 10},
        {"kind": "diagonal_diverges", "e": -1, "budget": 10},
        {"kind": "diagonal_diverges", "e": 4, "budget": False},
        {"kind": "cylinder_measure", "sets": [], "term_cap": 16,
         "measure": {"num": "0", "exp": "0"}, "tail_exponent": True},
    ])
    def test_ill_typed_natural_is_malformed(self, cert, tmp_path):
        with pytest.raises(MalformedCertificate, match="naturals"):
            replay_certificate(cert)
        path = tmp_path / "trace.jsonl"
        path.write_text(json.dumps({"schema": TRACE_SCHEMA}) + "\n" + json.dumps(cert) + "\n")
        assert main(["--command", "replay", "--in", str(path)]) == EXIT_INPUT

    def test_ill_typed_members_are_malformed(self, audit_certs):
        cert = copy.deepcopy(next(c for c in audit_certs if c["kind"] == "ebi_violation"))
        cert["members"] = [True if x == 1 else x for x in cert["members"]] + [0.5]
        with pytest.raises(MalformedCertificate, match="members"):
            replay_certificate(cert)

    @pytest.mark.parametrize("kind", ["blocking_finite", "blocking_infinite"])
    @pytest.mark.parametrize("edit", [
        lambda sigma: [2 if bit == 0 else bit for bit in sigma],
        lambda sigma: sigma + [2],
        lambda sigma: [bool(bit) for bit in sigma],
    ], ids=["zeros_made_twos", "two_appended", "bools"])
    def test_sigma_that_is_not_a_bit_string_is_malformed(self, kind, edit, tmp_path, capsys):
        cert = copy.deepcopy(next(c for c in _every_kind_seeds() if c["kind"] == kind))
        assert _replay_one(cert, tmp_path) == EXIT_OK
        cert["sigma"] = edit(cert["sigma"])
        assert _replay_one(cert, tmp_path) == EXIT_INPUT
        out, err = capsys.readouterr()
        (line,) = err.strip().splitlines()
        assert f"{kind} field 'sigma' must hold a list of bits" in json.loads(line)["error"]

    def test_null_side_code_still_accepted(self):
        # the all-ones oracle has an empty complement side
        certs = dnr_reduction_audit(PeriodicOracle((1,)), ZERO_INDEX, 40, 1_000)
        nulls = [c for c in certs if c["kind"] == "dnr_value"
                 and c["complement_code"] is None]
        assert nulls
        for cert in nulls:
            assert replay_certificate(cert) == "dnr_value"


class TestTypedInputFiles:
    @pytest.mark.parametrize("command, spec", [
        ("lemma-sweep", {"stems": [["a"]]}),
        ("bushy-check", {"set": [5]}),
        ("bushy-check", {"stem": "0"}),
        ("blocking-prefix", {"prefix": 3}),
        ("dnr-audit", {"oracle": "x"}),
        ("snr-demo", {"oracle": {"kind": "patched", "base": {"kind": "periodic",
                                                            "pattern": [1, 0]},
                                 "patches": [[1.5, 1]]}}),
        ("density-search", {"functional": [1]}),
        ("density-search", {"functional": {"depth": 2, "entries": [[[0], "1"]]}}),
        ("closure", {"depth": "2"}),
        ("closure", {"depth": 2.9}),
        ("lowness-check", {"h": True}),
        ("schnorr-measure", {"sets": [[0], 1]}),
        ("blocking-prefix", {"prefix": [2]}),
        ("closure", [[0], [1]]),  # an array, not an object
    ])
    def test_ill_typed_field_exits_1_with_one_json_line(self, command, spec, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(spec))
        assert main(["--command", command, "--in", str(path)]) == EXIT_INPUT
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "error" in json.loads(err[0])

    @pytest.mark.parametrize("command", ["snr-demo", "dnr-audit"])
    @pytest.mark.parametrize("spec", BAD_BIT_ORACLES)
    def test_bad_bit_oracle_exits_1(self, command, spec, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"oracle": spec}))
        assert main(["--command", command, "--in", str(path)]) == EXIT_INPUT
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert re.search(BAD_BIT_ERROR, json.loads(line)["error"])

    def test_union_bound_fallback_is_a_dyadic_field(self, tmp_path, capsys):
        # 21 distinct tail sets D_e = {0, ..., 2e - 1}, e = 3..23, take 2^21 - 1 terms
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"sets": [list(range(2 * e)) for e in range(24)]}))
        assert main(["--command", "schnorr-measure", "--in", str(path)]) == EXIT_BUDGET
        (line,) = capsys.readouterr().err.strip().splitlines()
        report = json.loads(line)
        assert f"{(1 << 21) - 1} inclusion-exclusion terms exceed the cap" in report["error"]
        assert DyadicRational.from_jsonable(report["union_bound"]) > DyadicRational(0)

    def test_fixpoint_budget_exhaustion_exits_2(self, capsys):
        # the self-reference transform takes three steps
        assert main(["--command", "density-search", "--budget.fixpoint=2"]) == EXIT_BUDGET
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert "within 2 steps" in json.loads(line)["error"]

    def test_search_budget_exhaustion_is_one_json_line_after_the_partial_trace(
            self, tmp_path, capsys):
        # the empty table needs no evaluation, the constant one runs q at once
        assert main(["--command", "density-search", "--budget.eval=0"]) == EXIT_BUDGET
        out, err = capsys.readouterr()
        assert err.splitlines() == [
            '{"error":"budget exhausted: constant: q not total on the diagonal indices"}']
        trace = tmp_path / "partial.jsonl"
        trace.write_text(out)
        assert len(out.splitlines()) == 2  # the header and the empty table's certificate
        assert main(["--command", "replay", "--in", str(trace)]) == EXIT_OK
        capsys.readouterr()
        # the diverging q on a constant table, with the trace in a file
        path = tmp_path / "in.json"
        path.write_text(json.dumps({
            "functional": FiniteFunctional.constant(3, (0, 0, 0)).to_jsonable(), "q": 0}))
        assert main(["--command", "density-search", "--budget.eval=50", "--in", str(path),
                     "--out", str(tmp_path / "out.jsonl")]) == EXIT_BUDGET
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            '{"error":"budget exhausted: input: q not total on the diagonal indices"}']
        assert len((tmp_path / "out.jsonl").read_text().splitlines()) == 1


class TestSpecShapes:
    @pytest.mark.parametrize("spec", [
        "x", None, [1], {"kind": "prefix"}, {"kind": "prefix", "bits": 5},
        {"kind": "prefix", "bits": [1], "tail": 0.0},
        {"kind": "periodic", "pattern": "10"}, {"kind": "set", "members": [-1]},
        {"kind": "patched", "base": "x", "patches": []},
        {"kind": "patched", "base": {"kind": "periodic", "pattern": [1]},
         "patches": [[1, 0, 1]]},
        {"kind": "patched", "base": {"kind": "periodic", "pattern": [1]}, "patches": 3},
    ])
    def test_badly_shaped_oracle_is_value_error(self, spec):
        with pytest.raises(ValueError):
            oracle_from_spec(spec)

    @pytest.mark.parametrize("spec", [
        "x", None, [1], {"depth": 2}, {"depth": "2", "entries": []},
        {"depth": 2, "entries": 5}, {"depth": 2, "entries": [[[0]]]},
        {"depth": 2, "entries": [[[0.5], [1]]]}, {"depth": True, "entries": []},
    ])
    def test_badly_shaped_functional_is_value_error(self, spec):
        with pytest.raises(ValueError):
            FiniteFunctional.from_jsonable(spec)

    def test_misshapen_oracle_replays_as_malformed(self, tmp_path, capsys):
        cert = {"kind": "snr_slice", "oracle": "x", "h": const_index(1), "e": 0,
                "budget": 100, "value": 3}
        with pytest.raises(MalformedCertificate):
            replay_certificate(cert)
        assert _replay_one(cert, tmp_path) == EXIT_INPUT
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert "oracle" in json.loads(line)["error"]

    @pytest.mark.parametrize("spec", BAD_BIT_ORACLES)
    def test_bad_bit_oracle_replays_as_malformed(self, spec, audit_certs, tmp_path, capsys):
        cert = copy.deepcopy(next(c for c in audit_certs if c["kind"] == "dnr_value"))
        cert["oracle"] = spec
        assert _replay_one(cert, tmp_path) == EXIT_INPUT
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert re.search(BAD_BIT_ERROR, json.loads(line)["error"])


def _bushy_seed_certs() -> list[dict]:
    """One certificate of each bushy kind whose replay re-marks a region,
    shaped as the acceptance battery emits them.  The battery finds no
    union counterexample, so that one is the forged certificate above."""
    g3, g4 = OrderFunction.constant(3), OrderFunction.constant(4)
    pairs, stems = [[2, 2], [2, 3], [3, 2], [3, 3]], [[], [0], [1], [2]]
    sweep = union_smallness_sweep(g3, 2, pairs, stems)
    # without the root in B, the witness is a tree of more than its stem
    B = frozenset(x for x in region_nodes(g3, 3) if x and sum(x) % 2 == 0)
    base = frozenset({(0,), (1, 0), (2, 1, 3), (3, 3, 3)})
    return [
        {"kind": "sweep_summary", "g": "3", "depth": 2, "pairs": pairs,
         "stems": stems, "instances": sweep["instances"], "counterexamples": 0},
        {"kind": "union_counterexample", "g": "3", "depth": 1, "stem": [],
         "n": 2, "m": 2, "union": [[0], [1], [2]],
         "part_small_m": [[0], [1]], "part_small_n": [[2]]},
        {"kind": "bushiness_verdict", "g": "3", "stem": [], "depth": 3, "n": 2,
         "set": sorted(list(x) for x in B), "big": True,
         "witness": witness_tree(B, 2, g3, (), 3).to_jsonable()},
        {"kind": "closure_result", "g": "4", "n": 4, "depth": 3,
         "set": sorted(list(x) for x in base),
         "closure": sorted(list(x) for x in closure(base, 4, g4, 3))},
    ]


_BUSHY_SEEDS = _bushy_seed_certs()
_BIG = st.one_of(st.integers(0, 40), st.integers(0, 10**6))
_HOSTILE_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 10**6), st.floats(),
    st.text(max_size=4), st.lists(st.integers(-1, 4), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


@st.composite
def _hostile_certs(draw):
    cert = copy.deepcopy(draw(st.sampled_from(_BUSHY_SEEDS)))
    for _ in range(draw(st.integers(1, 3))):
        fields = sorted(k for k in cert if k != "kind")
        if not fields:
            break
        key = draw(st.sampled_from(fields))
        action = draw(st.sampled_from(["inflate", "retype", "drop"]))
        if action == "drop":
            del cert[key]
        elif action == "retype":
            cert[key] = draw(_HOSTILE_VALUES)
        elif key == "depth":
            cert[key] = draw(_BIG)
        elif key == "g":
            widths = draw(st.lists(_BIG.map(lambda v: v + 2), min_size=1, max_size=3))
            cert[key] = ",".join(str(v) for v in sorted(widths))
        elif key == "pairs":
            cert[key] = draw(st.lists(
                st.lists(_BIG.map(lambda v: v + 1), min_size=2, max_size=2),
                min_size=1, max_size=4))
    return cert


def _replay_one(cert: dict, directory) -> int:
    path = directory / "hostile.jsonl"
    path.write_text(json.dumps({"schema": TRACE_SCHEMA}) + "\n" + json.dumps(cert) + "\n")
    return main(["--command", "replay", "--in", str(path)])


def _command_certs(command: str, *flags: str) -> list[dict]:
    config = parse_args(["--command", command, *flags])
    return cli.COMMANDS[command].body(*cli.resolve(config)).certificates


@functools.cache
def _every_kind_seeds() -> tuple[dict, ...]:
    """The first certificate of each replayable kind, from small runs of the
    commands and audits that emit them."""
    certs = list(_BUSHY_SEEDS)
    certs += _command_certs("fusion-check", "--budget.instances=1")
    certs += _command_certs("density-search")
    certs += dnr_reduction_audit(EVENS, ZERO_INDEX, 600, 10_000)
    certs += dnr_reduction_audit(EVENS, DIVERGE_INDEX, 24, 100)
    certs += _command_certs("ei-construct")
    certs.append(blocking_prefix((1, 0, 1), diagonal_set_index(const_index(5)),
                                 ZERO_INDEX, 1_000)[1])
    certs += _command_certs("blocking-prefix", "--budget.eval=300")
    certs += _command_certs("schnorr-measure")
    certs += _command_certs("lowness-check")
    certs += _command_certs("snr-demo", "--budget.audit=0")
    first: dict[str, dict] = {}
    for cert in certs:
        first.setdefault(cert["kind"], cert)
    return tuple(first.values())


# One member far out: its structural span makes any first-members scan huge.
_FAR_MEMBER_ORACLE = {"kind": "set", "members": [10**12]}

# Every field each command reads from --in, at small sizes, with the flags
# that keep the dropped-field defaults small too.
_INPUT_SEEDS = {
    "bushy-check": ({"set": [[0], [1]], "n": 2, "stem": [], "depth": 1}, []),
    "closure": ({"set": [[0], [1, 0]], "n": 2, "depth": 2}, []),
    "lemma-sweep": ({"pairs": [[2, 2]], "stems": [[], [1]], "depth": 2}, []),
    "density-search": ({"functional": FiniteFunctional.constant(3, (0, 0, 0)).to_jsonable(),
                        "q": const_index(0)}, []),
    "dnr-audit": ({"oracle": {"kind": "periodic", "pattern": [1, 0]}, "f": ZERO_INDEX},
                  ["--budget.audit=12", "--budget.eval=2000"]),
    "schnorr-measure": ({"sets": [[0], [1], [0, 1, 2, 3, 4, 5]]}, []),
    "lowness-check": ({"h": const_index(1), "p": IDENTITY_INDEX, "f": IDENTITY_INDEX}, []),
    "snr-demo": ({"oracle": {"kind": "prefix", "bits": [1, 1, 0], "tail": 1},
                  "h": const_index(1)}, ["--budget.audit=2"]),
    "blocking-prefix": ({"prefix": [1, 0, 1], "e": diagonal_set_index(const_index(5)),
                         "f": ZERO_INDEX}, ["--budget.eval=1000"]),
}

# Type confusion: every JSON type but a bare integer, so no size grows.
_CONFUSED_VALUES = st.one_of(
    st.none(), st.booleans(), st.floats(), st.text(max_size=4),
    st.lists(st.integers(-1, 4), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-1, 4), max_size=2))


def _confuse(draw, obj: dict) -> dict:
    """Retype or drop one to three of the fields (never the kind)."""
    obj = copy.deepcopy(obj)
    for _ in range(draw(st.integers(1, 3))):
        fields = sorted(k for k in obj if k != "kind")
        if not fields:
            break
        key = draw(st.sampled_from(fields))
        if draw(st.booleans()):
            del obj[key]
        else:
            obj[key] = draw(_CONFUSED_VALUES)
    return obj


def _quiet_main(args: list[str]) -> tuple[int, list[str]]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, err.getvalue().splitlines()


def _assert_clean_exit(code: int, err: list[str]) -> None:
    assert code in (EXIT_OK, EXIT_INPUT, EXIT_BUDGET, EXIT_COUNTEREXAMPLE)
    if code in (EXIT_INPUT, EXIT_BUDGET):
        assert len(err) <= 1 and all("error" in json.loads(line) for line in err)
    if code == EXIT_INPUT:
        assert len(err) == 1


class TestHostileReplay:
    def test_seed_certificates_replay(self, tmp_path):
        codes = [_replay_one(cert, tmp_path) for cert in _BUSHY_SEEDS]
        assert codes == [EXIT_OK, EXIT_COUNTEREXAMPLE, EXIT_OK, EXIT_OK]

    # an inflated field can still describe a claim that holds, so exit 0 is
    # allowed; what is not allowed is an exception or an unbounded run
    @settings(max_examples=150, deadline=timedelta(seconds=20),
              suppress_health_check=[HealthCheck.too_slow])
    @given(cert=_hostile_certs())
    def test_mutated_certificates_exit_cleanly(self, cert, tmp_path_factory):
        code = _replay_one(cert, tmp_path_factory.mktemp("hostile"))
        assert code in (EXIT_OK, EXIT_INPUT, EXIT_BUDGET, EXIT_COUNTEREXAMPLE)

    def test_deep_bushiness_verdict_is_refused(self, tmp_path, capsys):
        cert = {"kind": "bushiness_verdict", "g": "9", "stem": [], "depth": 12,
                "n": 2, "set": [[0]], "big": False}
        assert _replay_one(cert, tmp_path) == EXIT_BUDGET
        assert "8192 nodes" in capsys.readouterr().err

    def test_nested_lowness_verdict_is_malformed(self, tmp_path, capsys):
        # a verdict reads only its own four fields, so a nested "verdict"
        # key is refused instead of decoded again, level after level
        cert = copy.deepcopy(next(c for c in _every_kind_seeds()
                                  if c["kind"] == "lowness_bound"))
        for _ in range(400):
            cert["verdict"] = {"verdict": cert["verdict"]}
        assert _replay_one(cert, tmp_path) == EXIT_INPUT
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert "verdict" in json.loads(line)["error"]

    def test_deep_closure_is_refused(self, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"depth": 14}))
        assert main(["--command", "closure", "--g", "9", "--in", str(path)]) == EXIT_BUDGET
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert "8192 nodes" in json.loads(line)["error"]

    @pytest.mark.parametrize("command", ["bushy-check", "closure", "lemma-sweep"])
    def test_any_depth_returns_at_once(self, command, tmp_path):
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"depth": 10**9}))
        assert main(["--command", command, "--in", str(path)]) == EXIT_BUDGET

    @pytest.mark.parametrize("instances", [0, 1])
    def test_deep_fusion_ambient_is_refused(self, instances):
        assert main(["--command", "fusion-check", f"--budget.instances={instances}",
                     "--budget.depth=20"]) == EXIT_BUDGET

    @pytest.mark.parametrize("call", ["budv r4, r1, r2, r3", "univ r4, r1, r2"])
    def test_self_nesting_program_ends_at_its_budget(self, call, tmp_path, capsys):
        # phi_e(x) = phi_e(x) through a nested call, a new level every few steps
        e = self_reference(assemble_index(
            f"left r1, r0\nright r2, r0\nload r3, 1000000\n{call}\nhalt r4"))
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"f": e}))
        start = time.perf_counter()
        assert main(["--command", "blocking-prefix", "--in", str(path),
                     "--out", str(tmp_path / "trace.jsonl")]) == EXIT_BUDGET
        assert time.perf_counter() - start < 2
        out, err = capsys.readouterr()
        (line,) = err.strip().splitlines()
        assert "did not converge" in json.loads(line)["error"]
        start = time.perf_counter()
        cert = {"kind": "diagonal_diverges", "e": e, "budget": 100000}
        assert _replay_one(cert, tmp_path) == EXIT_OK
        assert time.perf_counter() - start < 2
        replay_out, replay_err = capsys.readouterr()
        assert "1 certificates verified, 0 mismatches" in replay_out and replay_err == ""
        assert "Traceback" not in out + err + replay_out + replay_err

    @pytest.mark.parametrize("kind", [
        "stage_summary", "cylinder_measure", "snr_slice", "dnr_value", "ebi_violation"])
    def test_oversized_replay_is_refused(self, kind, tmp_path, capsys):
        cert = dict(next(c for c in _every_kind_seeds() if c["kind"] == kind))
        if kind == "stage_summary":
            cert["stages"] = 10**8
        elif kind == "cylinder_measure":
            cert.update(sets=[[x] for x in range(26)], term_cap=10**11)
        else:
            cert["oracle"] = _FAR_MEMBER_ORACLE
        assert _replay_one(cert, tmp_path) == EXIT_BUDGET
        (line,) = capsys.readouterr().err.strip().splitlines()
        report = json.loads(line)
        assert "exceed" in report["error"]
        assert ("union_bound" in report) == (kind == "cylinder_measure")

    @pytest.mark.parametrize("command, spec, flags", [
        ("snr-demo", {"oracle": _FAR_MEMBER_ORACLE, "h": ZERO_INDEX}, []),
        ("dnr-audit", {"oracle": _FAR_MEMBER_ORACLE}, ["--budget.audit=30"]),
        ("ei-construct", {}, [f"--budget.stages={10**8}"]),
    ])
    def test_oversized_command_is_refused(self, command, spec, flags, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(spec))
        args = ["--command", command, *flags] + (["--in", str(path)] if spec else [])
        assert main(args) == EXIT_BUDGET
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert "exceed" in json.loads(line)["error"]

    @pytest.mark.parametrize("knob, value", [("probes", 10**12), ("value_cap", 10**1000)])
    @pytest.mark.parametrize("how", ["ei-construct", "stage_summary replay"])
    def test_unbounded_stage_knobs_are_refused(self, knob, value, how, tmp_path):
        # stage 48 reaches e = 23, `halt r0`: total, so the probes never stop,
        # and phi_23(a) = a, so a cap past the 2339-bit index a pins a positions
        if how == "ei-construct":
            args = ["--command", "ei-construct", "--budget.stages=48", f"--budget.{knob}={value}",
                    "--out", str(tmp_path / "trace.jsonl")]
        else:
            cert = {"kind": "stage_summary", "stages": 48, "budget": 100, "value_cap": 512,
                    "probes": 3, "ones": [], "record_count": 48, "interval_count": 0}
            cert[knob] = value
            path = tmp_path / "trace.jsonl"
            path.write_text(json.dumps({"schema": TRACE_SCHEMA}) + "\n" + json.dumps(cert) + "\n")
            args = ["--command", "replay", "--in", str(path)]
        start = time.perf_counter()
        code, err = _quiet_main(args)
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_BUDGET
        (line,) = err
        assert f"{knob} times 24 even stages exceeds the limit" in json.loads(line)["error"]

    def test_huge_pairs_replay_fast(self, tmp_path, capsys):
        cert = {"kind": "sweep_summary", "g": "3", "depth": 2,
                "pairs": [[100000, 100000]], "stems": [[]], "instances": 1,
                "counterexamples": 0}
        assert _replay_one(cert, tmp_path) == EXIT_COUNTEREXAMPLE
        assert "instance count is now 4096" in capsys.readouterr().out

    def test_many_patch_snr_slice_replays_fast(self, tmp_path):
        # 20000 patches over an all-zero base; the scan reads 60006 positions
        oracle = {"kind": "patched", "base": {"kind": "periodic", "pattern": [0]},
                  "patches": [[x, 0] for x in range(20_000)]}
        cert = {"kind": "snr_slice", "oracle": oracle, "h": const_index(1), "e": 0,
                "budget": 1000, "value": 0}
        path = tmp_path / "trace.jsonl"
        path.write_text(json.dumps({"schema": TRACE_SCHEMA}) + "\n" + json.dumps(cert) + "\n")
        start = time.perf_counter()
        code, err = _quiet_main(["--command", "replay", "--in", str(path)])
        assert time.perf_counter() - start < 1.0
        _assert_clean_exit(code, err)
        assert len(err) <= 1

    @pytest.mark.parametrize("how", ["lowness-check", "schnorr-measure", "lowness replay"])
    def test_far_apart_dyadic_terms_are_refused(self, how, tmp_path):
        # f is 10^9 on odd inputs and 0 on even ones, so the lowness sum's
        # terms lie 10^9 binary places apart; a 30000-element set puts the
        # terms of a measure 30000 places apart
        f = assemble_index("""
            load r1, 2
            mod r2, r0, r1
            jz r2, even
            load r3, 1000000000
            halt r3
        even:
            halt r2
        """)
        path = tmp_path / "in.json"
        if how == "schnorr-measure":
            path.write_text(json.dumps({"sets": [[], [0, 1], list(range(2, 30002))]}))
            args = ["--command", how, "--budget.c=0", "--in", str(path)]
        elif how == "lowness-check":
            path.write_text(json.dumps({"f": f}))
            args = ["--command", how, "--budget.c=0", "--budget.e_max=2", "--in", str(path)]
        else:
            cert = dict(next(c for c in _every_kind_seeds() if c["kind"] == "lowness_bound"))
            cert.update(f=f, c=0, e_max=2)
            path.write_text(json.dumps({"schema": TRACE_SCHEMA}) + "\n" + json.dumps(cert) + "\n")
            args = ["--command", "replay", "--in", str(path)]
        start = time.perf_counter()
        code, err = _quiet_main(args)
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_BUDGET
        (line,) = err
        assert "-bit numerator, over the 8192-bit limit" in json.loads(line)["error"]

    @pytest.mark.parametrize("how", ["lowness-check", "lowness replay"])
    def test_lowness_e_max_past_the_width_limit_is_refused(self, how, tmp_path):
        # h is the zero program, so every term is 0 and no sum is refused:
        # only the bound on e stops the loop short of 10^9 values of e
        path = tmp_path / "in.json"
        if how == "lowness-check":
            path.write_text(json.dumps({"h": ZERO_INDEX}))
            args = ["--command", how, "--budget.e_max=1000000000", "--in", str(path)]
        else:
            cert = {"kind": "lowness_bound", "h": ZERO_INDEX, "p": IDENTITY_INDEX,
                    "f": IDENTITY_INDEX, "c": 0, "e_max": 10**9, "budget": 10_000,
                    "verdict": {"holds": True, "partial_sum": {"num": "0", "exp": "0"}}}
            path.write_text(json.dumps({"schema": TRACE_SCHEMA}) + "\n" + json.dumps(cert) + "\n")
            args = ["--command", "replay", "--in", str(path)]
        start = time.perf_counter()
        code, err = _quiet_main(args)
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_BUDGET
        (line,) = err
        assert json.loads(line) == {"error": "budget exhausted: e_max 1000000000 is past 8192: "
                                    "a term bound 2^-e there is wider than the 8192-bit "
                                    "limit of a dyadic sum"}

    @pytest.mark.parametrize("where", ["trace line", "trace header", "input file"])
    def test_deeply_nested_json_is_one_line_exit_1(self, where, tmp_path):
        deep = "[" * 100_000 + "]" * 100_000
        header = json.dumps({"schema": TRACE_SCHEMA})
        path = tmp_path / "deep.json"
        if where == "input file":
            path.write_text('{"set": ' + deep + "}")
            args = ["--command", "closure", "--in", str(path)]
        else:
            lines = [header, deep] if where == "trace line" else [deep]
            path.write_text("\n".join(lines) + "\n")
            args = ["--command", "replay", "--in", str(path)]
        code, err = _quiet_main(args)
        assert code == EXIT_INPUT
        (line,) = err
        assert "is not valid JSON: maximum recursion depth" in json.loads(line)["error"]

    @pytest.mark.parametrize("stem, depth, message", [
        ([0, 0], 1, "stem (0, 0) exceeds depth horizon 1"),
        ([7], 2, "stem (7,) is not a valid string for g")])
    def test_bad_stem_is_an_input_error(self, stem, depth, message, tmp_path):
        # one stem longer than the depth, one not a string for g = 3
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"stem": stem, "depth": depth, "set": [[0]]}))
        code, err = _quiet_main(["--command", "bushy-check", "--g", "3", "--in", str(path)])
        assert code == EXIT_INPUT
        assert [json.loads(line) for line in err] == [{"error": message}]
        cert = {"kind": "bushiness_verdict", "g": "3", "stem": stem, "depth": depth,
                "n": 3, "set": [[0]], "big": False}
        with pytest.raises(MalformedCertificate, match=re.escape(message)):
            replay_certificate(cert)
        path = tmp_path / "trace.jsonl"
        path.write_text(json.dumps({"schema": TRACE_SCHEMA}) + "\n" + json.dumps(cert) + "\n")
        code, err = _quiet_main(["--command", "replay", "--in", str(path)])
        assert code == EXIT_INPUT and len(err) == 1 and message in json.loads(err[0])["error"]

    @pytest.mark.parametrize("stem", [[5, 5, 5], [0, 0, 0]])
    def test_sweep_stem_past_the_horizon_is_an_input_error(self, stem, tmp_path):
        # the same stem rule as above, whether or not the stem is valid for g
        message = f"stem {tuple(stem)} exceeds depth horizon 2"
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"stems": [stem]}))
        code, err = _quiet_main(["--command", "lemma-sweep", "--g", "3", "--in", str(path),
                                 "--out", str(tmp_path / "out.jsonl")])
        assert code == EXIT_INPUT
        assert [json.loads(line) for line in err] == [{"error": message}]
        cert = {"kind": "sweep_summary", "g": "3", "depth": 2, "pairs": [[2, 2]],
                "stems": [stem], "instances": 0, "counterexamples": 0}
        with pytest.raises(MalformedCertificate, match=re.escape(message)):
            replay_certificate(cert)

    def test_seeds_cover_every_kind_and_replay(self, tmp_path):
        seeds = _every_kind_seeds()
        assert {c["kind"] for c in seeds} == set(REPLAYERS)
        for cert in seeds:
            want = EXIT_COUNTEREXAMPLE if cert["kind"] == "union_counterexample" else EXIT_OK
            assert _replay_one(cert, tmp_path) == want, cert["kind"]

    @pytest.mark.parametrize("command", sorted(_INPUT_SEEDS))
    def test_input_seeds_run(self, command, tmp_path):
        spec, flags = _INPUT_SEEDS[command]
        path = tmp_path / "in.json"
        path.write_text(json.dumps(spec))
        assert main(["--command", command, "--in", str(path),
                     "--out", str(tmp_path / "out.jsonl"), *flags]) == EXIT_OK

    @settings(max_examples=200, deadline=timedelta(seconds=20),
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_confused_certificates_exit_cleanly(self, data, tmp_path_factory):
        cert = _confuse(data.draw, data.draw(st.sampled_from(_every_kind_seeds())))
        path = tmp_path_factory.mktemp("confused") / "trace.jsonl"
        path.write_text(json.dumps({"schema": TRACE_SCHEMA}) + "\n" + json.dumps(cert) + "\n")
        _assert_clean_exit(*_quiet_main(["--command", "replay", "--in", str(path)]))

    @settings(max_examples=150, deadline=timedelta(seconds=20),
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_confused_input_files_exit_cleanly(self, data, tmp_path_factory):
        command = data.draw(st.sampled_from(sorted(_INPUT_SEEDS)))
        seed, flags = _INPUT_SEEDS[command]
        directory = tmp_path_factory.mktemp("confused")
        path = directory / "in.json"
        path.write_text(json.dumps(_confuse(data.draw, seed)))
        _assert_clean_exit(*_quiet_main(["--command", command, "--in", str(path),
                                         "--out", str(directory / "out.jsonl"), *flags]))


def _replay_lines(lines: list[str], directory) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of replaying a header and `lines`."""
    path = directory / "trace.jsonl"
    path.write_text("\n".join([json.dumps({"schema": TRACE_SCHEMA}), *lines]) + "\n")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--command", "replay", "--in", str(path)])
    return code, out.getvalue(), err.getvalue()


_CLEAN_LINE = json.dumps({"kind": "diagonal_diverges", "e": 0, "budget": 5})


_BROKEN = 1.5  # breaks every field rule: nothing is coerced


G6 = OrderFunction.constant(6)
AMBIENT6 = witness_tree(frozenset(level_nodes(G6, 2)), 6, G6, (), 2)


def _fusion_line(ambient_nodes=AMBIENT6.nodes) -> str:
    """A fusion_intersection line over the width-6, depth-2 ambient (or
    over `ambient_nodes`), with the subtrees on children 0-3 and 2-5."""
    first = frozenset(node for node in AMBIENT6.nodes if all(c < 4 for c in node))
    second = frozenset(node for node in AMBIENT6.nodes if all(c >= 2 for c in node))
    return json.dumps(certs.certificate(
        "fusion_intersection", g=G6, k=1, ambient=bushy.TreeWitness((), ambient_nodes),
        first=first, second=second, intersection_size=len(first & second)))


class TestFusionAmbients:
    """Equal ambients decode to one tree object, which is verified once a
    replay; a tree that differs in any node is another object."""

    def test_equal_ambients_decode_to_one_object(self):
        value = json.loads(_fusion_line())["ambient"]
        tree = decode_field("c", "ambient", value)
        assert decode_field("c", "ambient", json.loads(json.dumps(value))) is tree
        assert tree == AMBIENT6
        value["nodes"].pop()
        assert decode_field("c", "ambient", value) is not tree

    def test_each_distinct_ambient_is_verified_on_its_own(self, monkeypatch, tmp_path):
        certs._ambient_tree.cache_clear()
        verified = []
        real = bushy.verify_bushy

        def counted(witness, n, g, **kw):
            verified.append(len(witness.nodes))
            return real(witness, n, g, **kw)
        monkeypatch.setattr(bushy, "verify_bushy", counted)
        one_less = AMBIENT6.nodes - {(5, 5)}
        moved = one_less | {(0, 0, 0)}  # as many nodes as the good ambient
        lines = [_fusion_line(), _fusion_line(), _fusion_line(one_less),
                 _fusion_line(moved), _fusion_line()]
        code, out, err = _replay_lines(lines, tmp_path)
        assert verified == [43, 42, 43]
        assert code == EXIT_COUNTEREXAMPLE and err == ""
        refuted = ("fusion_intersection: intersection check no longer holds: "
                   "PreconditionViolated(reason='ambient tree is not exactly 6-bushy: ")
        assert out.splitlines() == [
            "3 certificates verified, 2 mismatches",
            "  fusion_intersection: 3",
            *(f"  MISMATCH line {i}: {refuted}internal node (5,) has 5 children, wanted exactly 6')"
              for i in (4, 5))]

    @pytest.mark.parametrize("ambient", [
        {"stem": [], "nodes": [[0], [1.0]]},
        {"stem": [], "nodes": [[0], [True]]},
        {"stem": [], "nodes": [[0], [-1]]},
        {"stem": [], "nodes": [[0], 1]},
        {"stem": [0.0], "nodes": [[0]]},
        {"nodes": [[0]]},
    ])
    def test_malformed_ambient_after_a_good_one_exits_1(self, ambient, tmp_path):
        bad = json.loads(_fusion_line())
        bad["ambient"] = ambient
        code, out, err = _replay_lines([_fusion_line(), json.dumps(bad)], tmp_path)
        assert code == EXIT_INPUT and out == ""
        assert json.loads(err)["error"].startswith(
            "line 3: fusion_intersection field 'ambient' must hold a tree {stem, nodes}")

    def test_an_emit_keeps_no_ambient(self, tmp_path):
        certs._ambient_tree.cache_clear()
        code, _ = run_cli(["--command", "fusion-check", "--budget.instances=3"], tmp_path)
        assert code == EXIT_OK
        assert certs._ambient_tree.cache_info().currsize == 0


@pytest.mark.parametrize("field", ["first", "stems", "sets"])
@pytest.mark.parametrize("value", [
    # a bool or a float equal to an int an earlier list holds is refused too
    [[1], [True]], [[1], [1.0]], [[0, 2], [0, -1]], [[1], 1], [[1], (1,)], ([1],)])
def test_lists_of_naturals_refuse_every_non_natural(field, value):
    with pytest.raises(MalformedCertificate):
        decode_field("c", field, value)


class TestReplayPerLineCost:
    """The replay parses a line in one pass, decodes fields with decoders
    bound at registration and builds a refutation message only when a check
    fails.  Every exit code, error line and MISMATCH line stays what the
    json.loads and decode_field path printed; the texts pinned here are
    that path's."""

    @pytest.mark.parametrize("line, code, error", [
        ("  " + _CLEAN_LINE + " \t", EXIT_OK, None),
        (_CLEAN_LINE + " x", EXIT_INPUT,
         "line 2 is not valid JSON: Extra data: line 1 column 52 (char 51)"),
        (_CLEAN_LINE + " " + _CLEAN_LINE, EXIT_INPUT,
         "line 2 is not valid JSON: Extra data: line 1 column 52 (char 51)"),
        (_CLEAN_LINE[:-1], EXIT_INPUT,
         "line 2 is not valid JSON: Expecting ',' delimiter: line 1 column 50 (char 49)"),
        ("\ufeff" + _CLEAN_LINE, EXIT_INPUT,
         "line 2 is not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
         "line 1 column 1 (char 0)"),
        ("[" * 100_000 + "]" * 100_000, EXIT_INPUT,
         "line 2 is not valid JSON: maximum recursion depth exceeded while decoding "
         "a JSON array from a unicode string"),
    ], ids=["whitespace", "garbage", "two values", "unterminated", "bom", "deep"])
    def test_line_parse_outcomes(self, line, code, error, tmp_path):
        got, out, err = _replay_lines([line], tmp_path)
        assert got == code
        if error is None:
            assert err == "" and out.startswith("1 certificates verified, 0 mismatches")
        else:
            assert [json.loads(e) for e in err.splitlines()] == [{"error": error}]

    @pytest.mark.parametrize("kind", sorted(REPLAYERS))
    def test_first_broken_field_is_named_by_decode_field(self, kind):
        seed = next(c for c in _every_kind_seeds() if c["kind"] == kind)
        registered = inspect.getclosurevars(REPLAYERS[kind]).nonlocals["fn"]
        fields = [name for name in inspect.signature(registered).parameters if name in seed]
        for i, name in enumerate(fields):
            with pytest.raises(MalformedCertificate) as want:
                decode_field(kind, name, _BROKEN)
            # the field alone, then it and every field after it
            for broken in (fields[i:i + 1], fields[i:]):
                cert = dict(seed, **dict.fromkeys(broken, _BROKEN))
                with pytest.raises(MalformedCertificate) as got:
                    replay_certificate(cert)
                assert str(got.value) == str(want.value), (kind, broken)

    def test_a_missing_field_is_named_before_a_broken_one(self):
        seed = next(c for c in _every_kind_seeds() if c["kind"] == "cylinder_measure")
        cert = {k: v for k, v in seed.items() if k != "measure"}
        cert["sets"] = _BROKEN  # the first field breaks its rule, a later one is missing
        with pytest.raises(MalformedCertificate,
                           match=re.escape("cylinder_measure certificate lacks fields ['measure']")):
            replay_certificate(cert)

    def test_a_broken_optional_field_is_named_after_the_required_ones(self):
        seed = next(c for c in _every_kind_seeds() if c["kind"] == "cylinder_measure")
        for broken in (["measure"], ["term_cap", "measure"]):
            with pytest.raises(MalformedCertificate) as want:
                decode_field("cylinder_measure", broken[0], _BROKEN)
            cert = dict(seed, tail_exponent=_BROKEN, **dict.fromkeys(broken, _BROKEN))
            with pytest.raises(MalformedCertificate) as got:
                replay_certificate(cert)
            assert str(got.value) == str(want.value)
        with pytest.raises(MalformedCertificate) as want:
            decode_field("cylinder_measure", "tail_exponent", _BROKEN)
        with pytest.raises(MalformedCertificate) as got:
            replay_certificate(dict(seed, tail_exponent=_BROKEN))
        assert str(got.value) == str(want.value)
        assert "'tail_exponent'" in str(got.value)

    def test_tampered_diagonal_certificates_print_the_same_mismatches(self, audit_certs,
                                                                      tmp_path):
        first = {}
        for cert in audit_certs:
            first.setdefault(cert["kind"], cert)
        dnr, ebi = first["dnr_value"], first["ebi_violation"]
        tampered = [
            {"kind": "diagonal_diverges", "e": IDENTITY_INDEX, "budget": 100},
            dict(dnr, value=dnr["value"] + 1),
            dict(dnr, f_value=dnr["f_value"] + 1),
            dict(dnr, h_e=dnr["h_e"] + 1),
            dict(dnr, candidate=dnr["candidate"] + 1),
            dict(ebi, value=ebi["value"] + 1),
            dict(ebi, f_value=ebi["f_value"] + 1),
            dict(ebi, members=ebi["members"][:-1]),
        ]
        code, out, err = _replay_lines([json.dumps(c) for c in tampered], tmp_path)
        assert (code, err) == (EXIT_COUNTEREXAMPLE, "")
        h_dnr = 131535841107977731574115585719378239076784124134086261176356
        h_ebi = 134971135175524652222173927396160111960824500618311848639166500
        assert (dnr["h_e"], ebi["h_e"]) == (h_dnr, h_ebi)
        assert out.splitlines() == [
            "0 certificates verified, 8 mismatches",
            "  MISMATCH line 2: diagonal_diverges: phi_23(23) now halts within 100 steps",
            "  MISMATCH line 3: dnr_value: diagonal value at 23 is no longer 24",
            f"  MISMATCH line 4: dnr_value: f({h_dnr}) is no longer 1",
            "  MISMATCH line 5: dnr_value: transformed index fails to rebuild",
            "  MISMATCH line 6: dnr_value: candidate is not the least defined side code",
            "  MISMATCH line 7: ebi_violation: diagonal value at 583 is no longer 2",
            f"  MISMATCH line 8: ebi_violation: f({h_ebi}) is no longer 1",
            "  MISMATCH line 9: ebi_violation: members are not the decoded diagonal value",
        ]


def _outcome(cert):
    """The kind a replay verifies, or the class and message of its refusal."""
    try:
        return replay_certificate(cert)
    except (ReplayMismatch, MalformedCertificate) as exc:
        return type(exc).__name__, str(exc)


class TestReplayReader:
    """Each kind's reader takes its required fields positionally and its
    optional ones only if present; any Mapping works, and keys no replayer
    reads are ignored."""

    def _variants(self):
        for seed in _every_kind_seeds():
            yield seed
            for name in seed.keys() - {"kind"}:
                yield dict(seed, **{name: _BROKEN})
                yield {k: v for k, v in seed.items() if k != name}
        yield {"kind": "diagonal_diverges", "e": IDENTITY_INDEX, "budget": 100}

    def test_a_mapping_proxy_or_an_extra_key_gives_the_dict_verdict(self):
        kinds = set()
        for cert in self._variants():
            want = _outcome(cert)
            kinds.add(want if isinstance(want, str) else want[0])
            assert _outcome(MappingProxyType(cert)) == want, cert
            assert _outcome(dict(cert, unread_extra=[1.5])) == want, cert
        # every kind verifies once, but the forged union counterexample
        assert kinds == {"ReplayMismatch", "MalformedCertificate", *REPLAYERS} \
            - {"union_counterexample"}

    def test_optional_tail_exponent_present_and_absent(self):
        seed = next(c for c in _every_kind_seeds() if c["kind"] == "cylinder_measure")
        assert seed["tail_exponent"] == 2 and seed["measure"] == {"num": "39", "exp": "11"}
        absent = {k: v for k, v in seed.items() if k != "tail_exponent"}
        assert _outcome(seed) == _outcome(absent) == "cylinder_measure"
        assert _outcome(dict(seed, tail_exponent=6)) == (
            "ReplayMismatch", "cylinder_measure: measure exceeds the recorded tail bound")
        assert _outcome(dict(seed, tail_exponent=None))[0] == "MalformedCertificate"

    def test_optional_witness_present_and_absent(self):
        big = next(c for c in _every_kind_seeds() if c["kind"] == "bushiness_verdict")
        assert big["big"] is True
        no_witness = {k: v for k, v in big.items() if k != "witness"}
        assert _outcome(big) == "bushiness_verdict"
        assert _outcome(no_witness) == (
            "MalformedCertificate", "bushiness_verdict certificate lacks fields ['witness']")
        small = dict(no_witness, n=50, big=False)
        assert _outcome(small) == _outcome(dict(small, witness=big["witness"])) \
            == "bushiness_verdict"
        with pytest.raises(MalformedCertificate) as want:
            decode_field("bushiness_verdict", "witness", _BROKEN)
        assert _outcome(dict(small, witness=_BROKEN)) == _outcome(dict(big, witness=_BROKEN)) \
            == ("MalformedCertificate", str(want.value))

    def test_an_error_in_the_replayer_body_is_bad_field_content(self, tmp_path):
        seed = next(c for c in _every_kind_seeds() if c["kind"] == "closure_result")
        code, out, err = _replay_lines([json.dumps(dict(seed, n=0))], tmp_path)
        assert (code, out) == (EXIT_INPUT, "")
        assert [json.loads(e) for e in err.splitlines()] == [{
            "error": "line 2: closure_result: bad field content (bigness is defined for n >= 1)"}]


def _mistype(kind: str, edit) -> dict:
    cert = copy.deepcopy(next(c for c in _every_kind_seeds() if c["kind"] == kind))
    edit(cert)
    return cert


def _float_first_node(nodes: list) -> None:
    """Turn the members of the first nonempty node into equal floats."""
    node = next(node for node in nodes if node)
    node[:] = map(float, node)


class TestNothingCoerced:
    """Each field is decoded by the rule for its name, before any claim is
    checked, wherever a certificate or an --in file is read."""

    @pytest.mark.parametrize("kind, edit", [
        ("closure_result", lambda c: c.update(closure=[[0.0], [True, 0]])),
        ("bushiness_verdict", lambda c: _float_first_node(c["witness"]["nodes"])),
        ("fusion_intersection", lambda c: _float_first_node(c["first"])),
        ("pigeonhole_witness", lambda c: c["colors"][0].__setitem__(
            1, float(c["colors"][0][1]))),
        ("cylinder_measure", lambda c: c["measure"].update(num=float(c["measure"]["num"]))),
        ("cylinder_measure", lambda c: c["measure"].update(exp=float(c["measure"]["exp"]))),
        ("ebi_violation", lambda c: c.update(side=["x"])),
        ("sweep_summary", lambda c: c.update(g="1_0")),
        ("non_total_extension", lambda c: c.update(g="+8")),
        ("lowness_bound", lambda c: c["verdict"].update(holds=1)),
    ])
    def test_ill_typed_certificate_exits_1(self, kind, edit, tmp_path):
        cert = _mistype(kind, edit)
        with pytest.raises(MalformedCertificate):
            replay_certificate(cert)
        path = tmp_path / "trace.jsonl"
        path.write_text(json.dumps({"schema": TRACE_SCHEMA}) + "\n" + json.dumps(cert) + "\n")
        code, err = _quiet_main(["--command", "replay", "--in", str(path)])
        assert code == EXIT_INPUT
        assert len(err) == 1 and "error" in json.loads(err[0])

    def test_big_verdict_needs_its_witness(self):
        cert = _mistype("bushiness_verdict", lambda c: c.pop("witness"))
        with pytest.raises(MalformedCertificate, match="lacks fields"):
            replay_certificate(cert)

    def test_every_seed_field_has_a_rule(self):
        names = {name for cert in _every_kind_seeds() for name in cert if name != "kind"}
        names |= {name for spec, _ in _INPUT_SEEDS.values() for name in spec}
        assert names <= set(_FIELDS), names - set(_FIELDS)

    def test_a_field_without_a_rule_is_refused_at_registration(self):
        with pytest.raises(TypeError, match="no rule"):
            @certs._replayer("unruled")
            def _replay_unruled(e, mystery) -> None:
                pass
        assert "unruled" not in REPLAYERS

    @settings(max_examples=200, deadline=timedelta(seconds=20),
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_an_equal_float_or_bool_anywhere_exits_1(self, data, tmp_path_factory):
        # replay reads the seed certificates; the commands read the seed files
        runs = [("replay", cert, []) for cert in _every_kind_seeds()]
        runs += [(command, spec, flags) for command, (spec, flags) in _INPUT_SEEDS.items()]
        command, value, flags = data.draw(st.sampled_from(runs))
        path = data.draw(st.sampled_from(list(_integer_paths(value))))
        old = _at(value, path)
        new = data.draw(st.sampled_from([float(old), bool(old)] if old in (0, 1)
                                        else [float(old)]))
        value = copy.deepcopy(value)
        parent = _at(value, path[:-1])
        parent[path[-1]] = new
        directory = tmp_path_factory.mktemp("retyped")
        if command == "replay":
            trace = directory / "trace.jsonl"
            trace.write_text(json.dumps({"schema": TRACE_SCHEMA}) + "\n"
                             + json.dumps(value) + "\n")
            args = ["--command", "replay", "--in", str(trace)]
        else:
            (directory / "in.json").write_text(json.dumps(value))
            args = ["--command", command, "--in", str(directory / "in.json"),
                    "--out", str(directory / "out.jsonl"), *flags]
        code, err = _quiet_main(args)
        assert code == EXIT_INPUT, (command, path, new)
        assert len(err) == 1 and "error" in json.loads(err[0])


def _integer_paths(value, path=()):
    """Paths to every integer inside a JSON value that a float can equal."""
    if type(value) is int:
        if abs(value) <= 2**53:
            yield path
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _integer_paths(item, path + (i,))
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _integer_paths(item, path + (key,))


def _at(value, path):
    for key in path:
        value = value[key]
    return value
