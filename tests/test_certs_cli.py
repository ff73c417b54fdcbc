"""Certificate replay registry and the command-line front door."""

import contextlib
import copy
import functools
import io
import json
from datetime import timedelta

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dnrlab import cli
from dnrlab.asm import DIVERGE_INDEX, IDENTITY_INDEX, ZERO_INDEX, const_index
from dnrlab.bushy import OrderFunction, closure, region_nodes, \
    union_smallness_sweep, witness_tree
from dnrlab.certs import REPLAYERS, replay_certificate
from dnrlab.cli import EXIT_BUDGET, EXIT_COUNTEREXAMPLE, EXIT_INPUT, EXIT_OK, \
    TRACE_SCHEMA, InputError, main, parse_args
from dnrlab.dyadic import DyadicRational
from dnrlab.errors import MalformedCertificate, ReplayMismatch
from dnrlab.forcing import FiniteFunctional, ForcingCondition, SearchLimits, \
    density_search
from dnrlab.oracle import PeriodicOracle, oracle_from_spec
from dnrlab.reductions import blocking_prefix, diagonal_set_index, \
    dnr_reduction_audit
from dnrlab.stages import ei_not_coei

EVENS = PeriodicOracle((1, 0))
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
        assert config.budget("eval", 0) == 500
        assert config.budget("audit", 0) == 7
        assert config.budget("absent", 42) == 42

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

    def test_malformed_budget_flag(self):
        with pytest.raises(InputError, match="--budget.name=N"):
            parse_args(["--command", "closure", "--budget.eval"])

    def test_unknown_command(self):
        with pytest.raises(InputError):
            parse_args(["--command", "frobnicate"])

    def test_g_spec_carried(self):
        config = parse_args(["--command", "closure", "--g", "4,4;tail=4,2"])
        assert config.g("3").to_spec() == "4,4;tail=4,2"


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


class TestInputErrors:
    @pytest.mark.parametrize("spec", [{"depth": -3}, {"depth": 2, "set": [[0, 9]]}])
    def test_library_value_error_is_json_input_error(self, spec, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(spec))
        assert main(["--command", "closure", "--in", str(path)]) == EXIT_INPUT
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "error" in json.loads(err[0])

    def test_assertion_error_is_not_mapped(self, monkeypatch):
        def broken(config):
            raise AssertionError("internal invariant")
        _, names = cli.COMMANDS["closure"]
        monkeypatch.setitem(cli.COMMANDS, "closure", (broken, names))
        with pytest.raises(AssertionError):
            main(["--command", "closure"])

    @pytest.mark.parametrize("command", ALL_COMMANDS + ["replay"])
    def test_unknown_budget_name_rejected(self, command, capsys):
        assert main(["--command", command, "--budget.bogus=3"]) == EXIT_INPUT
        err = json.loads(capsys.readouterr().err.strip())
        assert "bogus" in err["error"]

    def test_declared_budget_names_cover_the_documented_ones(self):
        documented = {"eval", "fixpoint", "bad_len", "audit", "stages", "value_cap",
                      "probes", "instances", "depth", "c", "e_max", "terms"}
        declared = {name for _, names in cli.COMMANDS.values() for name in names}
        assert declared == documented


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
    ])
    def test_ill_typed_field_exits_1_with_one_json_line(self, command, spec, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(spec))
        assert main(["--command", command, "--in", str(path)]) == EXIT_INPUT
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "error" in json.loads(err[0])

    def test_union_bound_fallback_is_a_dyadic_field(self, capsys):
        assert main(["--command", "schnorr-measure", "--budget.terms=1"]) == EXIT_BUDGET
        (line,) = capsys.readouterr().err.strip().splitlines()
        report = json.loads(line)
        assert "exceed the cap 1" in report["error"]
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


def _bushy_seed_certs() -> list[dict]:
    """One certificate of each bushy kind whose replay re-marks a region,
    shaped as the acceptance battery emits them.  The battery finds no
    union counterexample, so that one is the forged certificate above."""
    g3, g4 = OrderFunction.constant(3), OrderFunction.constant(4)
    pairs, stems = [[2, 2], [2, 3], [3, 2], [3, 3]], [[], [0], [1], [2]]
    sweep = union_smallness_sweep(g3, 2, pairs, stems)
    B = frozenset(x for x in region_nodes(g3, 3) if sum(x) % 2 == 0)
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
    return cli.COMMANDS[command][0](parse_args(["--command", command, *flags])).certificates


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

    def test_huge_pairs_replay_fast(self, tmp_path, capsys):
        cert = {"kind": "sweep_summary", "g": "3", "depth": 2,
                "pairs": [[100000, 100000]], "stems": [[]], "instances": 1,
                "counterexamples": 0}
        assert _replay_one(cert, tmp_path) == EXIT_COUNTEREXAMPLE
        assert "instance count is now 4096" in capsys.readouterr().out

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
